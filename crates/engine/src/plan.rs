//! Query plans: timed segment lists compiled from index traces.

use sann_core::cast;
use sann_index::{CpuOp, IoReq, QueryTrace, TraceStep};

/// One schedulable unit of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// CPU work totalling `total_us`, optionally fanned out over `fanout`
    /// parallel subtasks (intra-query parallelism, as in Milvus' segment-
    /// parallel search). The segment completes when every subtask completes.
    Cpu {
        /// Total CPU time across subtasks, µs.
        total_us: f64,
        /// Number of parallel subtasks the work is split into.
        fanout: usize,
    },
    /// A beam of reads issued together; the query blocks until the slowest
    /// completes. Submission CPU is charged by the executor.
    Io {
        /// The requests of one replica of the beam.
        reqs: Vec<IoReq>,
        /// Replicas the beam issues, each on its own device region (see
        /// [`Beam`]); 1 = the requests as listed.
        copies: usize,
    },
    /// Pure latency that occupies no core (network round trip, scheduler
    /// hand-off). Concurrent queries overlap their delays freely.
    Delay {
        /// Delay duration, µs.
        us: f64,
    },
    /// A batch of writes issued together (WAL appends, segment flushes);
    /// completes when the slowest write completes. Writes share the device
    /// with reads, so mixed workloads interfere.
    Write {
        /// The write requests in the batch.
        reqs: Vec<IoReq>,
    },
    /// Reads in flight *while* CPU work runs (software-pipelined beam
    /// search / look-ahead prefetch). The segment completes when both the
    /// slowest request and the last CPU subtask finish; the CPU side bills
    /// to compute, only the exposed I/O tail bills to flash service.
    Overlapped {
        /// Total concurrent CPU time across subtasks, µs.
        total_us: f64,
        /// Number of parallel subtasks the CPU work is split into.
        fanout: usize,
        /// The requests of one replica of the beam in flight under the CPU
        /// work.
        reqs: Vec<IoReq>,
        /// Replicas of the beam, as for [`Segment::Io`].
        copies: usize,
    },
}

impl Segment {
    /// A serial CPU segment.
    pub fn cpu(total_us: f64) -> Segment {
        Segment::Cpu {
            total_us,
            fanout: 1,
        }
    }

    /// A fanned-out CPU segment.
    pub fn cpu_parallel(total_us: f64, fanout: usize) -> Segment {
        Segment::Cpu {
            total_us,
            fanout: fanout.max(1),
        }
    }

    /// An I/O beam segment.
    pub fn io(reqs: Vec<IoReq>) -> Segment {
        Segment::Io { reqs, copies: 1 }
    }

    /// A core-free delay segment.
    pub fn delay(us: f64) -> Segment {
        Segment::Delay { us }
    }

    /// A write-batch segment.
    pub fn write(reqs: Vec<IoReq>) -> Segment {
        Segment::Write { reqs }
    }

    /// An overlapped compute-under-I/O segment.
    pub fn overlapped(total_us: f64, fanout: usize, reqs: Vec<IoReq>) -> Segment {
        Segment::Overlapped {
            total_us,
            fanout: fanout.max(1),
            reqs,
            copies: 1,
        }
    }

    /// The read beam of a blocking or overlapped segment, `None` for any
    /// other kind.
    pub fn beam(&self) -> Option<Beam<'_>> {
        match self {
            Segment::Io { reqs, copies } | Segment::Overlapped { reqs, copies, .. } => {
                Some(Beam::new(reqs, *copies))
            }
            _ => None,
        }
    }
}

/// Offset shift between replicated beams, so fanned-out reads land on
/// distinct device regions (distinct segments).
const IO_FANOUT_STRIDE: u64 = 1 << 30;

/// A read beam as a plan holds it: one replica's requests, once, and how
/// many replicas the beam issues. Replica `c` of a request is the request
/// shifted `c` GiB further on the device, and the beam's reads run replica
/// by replica: read `c * reqs.len() + i` is replica `c` of `reqs[i]`. That
/// is the order and the offsets a beam materialised copy by copy would
/// have, so every device read and every simulated number is the same.
#[derive(Debug, Clone, Copy, Default)]
pub struct Beam<'a> {
    reqs: &'a [IoReq],
    copies: usize,
}

impl<'a> Beam<'a> {
    /// The beam issuing `copies` replicas of `reqs` (0 issues nothing).
    pub fn new(reqs: &'a [IoReq], copies: usize) -> Beam<'a> {
        Beam { reqs, copies }
    }

    /// Reads the beam issues, over all replicas.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn width(self) -> usize {
        self.reqs.len() * self.copies
    }

    /// Read `req` of the beam, `None` past its width.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn get(self, req: usize) -> Option<IoReq> {
        let replica = req.checked_div(self.reqs.len())?;
        let io = self.reqs.get(req.checked_rem(self.reqs.len())?)?;
        (replica < self.copies).then(|| io.shifted(replica_shift(replica)))
    }

    /// Every read of the beam, in issue order.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn iter(self) -> impl Iterator<Item = IoReq> + 'a {
        (0..self.copies).flat_map(move |replica| {
            let shift = replica_shift(replica);
            self.reqs.iter().map(move |r| r.shifted(shift))
        })
    }
}

/// Device offset of replica `replica` relative to replica 0.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn replica_shift(replica: usize) -> u64 {
    cast::u64_from_usize(replica) * IO_FANOUT_STRIDE
}

/// A compiled, replayable query: the ordered segments of one search.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryPlan {
    segments: Vec<Segment>,
}

impl QueryPlan {
    /// Creates a plan from segments.
    pub fn new(segments: Vec<Segment>) -> QueryPlan {
        QueryPlan { segments }
    }

    /// The ordered segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total CPU time in the plan, µs (excluding I/O submission costs).
    pub fn cpu_us(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Cpu { total_us, .. } | Segment::Overlapped { total_us, .. } => *total_us,
                _ => 0.0,
            })
            .sum()
    }

    /// Total bytes read by the plan (blocking and overlapped beams, every
    /// replica).
    pub fn read_bytes(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(Segment::beam)
            .map(|b| {
                b.reqs.iter().map(|r| u64::from(r.len)).sum::<u64>()
                    * cast::u64_from_usize(b.copies)
            })
            .sum()
    }

    /// Total read requests in the plan (blocking and overlapped beams, every
    /// replica). Write batches are excluded here; fault accounting tracks
    /// reads.
    pub fn io_count(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(Segment::beam)
            .map(|b| cast::u64_from_usize(b.width()))
            .sum()
    }
}

/// Compiles [`QueryTrace`]s into [`QueryPlan`]s: the whole price a plan
/// pays, per op, per query and per read beam, and the plan's shape.
///
/// [`Default`] is one core of the paper's Xeon Silver 4416+ running
/// vectorized distance kernels, with no database on top; `sann-vdb`'s
/// `setup::calibrated_plan_builder` fills the fields per setup (the paper's
/// O-2/O-8: databases using the *same* index differ by up to 7.1x in
/// throughput). Out-of-range values are clamped where [`build`] reads
/// them: both fan-outs to at least 1, the work multiplier and the per-beam
/// and floor charges to at least 0.
///
/// [`build`]: PlanBuilder::build
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    /// µs per full-precision distance evaluation, per vector dimension.
    pub dist_us_per_dim: f64,
    /// µs per PQ ADC lookup, per code byte.
    pub pq_us_per_byte: f64,
    /// Fixed per-query CPU (parsing, planning, result assembly), µs, before
    /// `cpu_factor`.
    pub query_overhead_us: f64,
    /// CPU charged before every read beam, blocking or overlapped (the
    /// storage engine's per-hop I/O-path software cost), µs; fanned out
    /// like regular compute and not scaled by `cpu_factor`.
    pub read_overhead_us: f64,
    /// Core-free latency added to every query (network round trip and
    /// scheduler hand-offs that burn no measurable CPU), µs.
    pub latency_floor_us: f64,
    /// Multiplier on every per-op cost and on the per-query overhead
    /// (engine/runtime efficiency).
    pub cpu_factor: f64,
    /// Multiplier on data-dependent compute (distances and PQ lookups)
    /// only, not on the per-query overhead.
    pub work_multiplier: f64,
    /// Parallel subtasks each CPU segment fans out over (1 = serial).
    pub intra_parallelism: usize,
    /// Copies of every read beam, each on a distinct device region
    /// (segment-parallel storage engines issue one beam per data segment;
    /// 1 = no replication).
    pub io_fanout: usize,
}

impl Default for PlanBuilder {
    fn default() -> Self {
        PlanBuilder {
            // ~0.19 µs per 768-d L2 distance (AVX2-class throughput). The
            // model's, not this host's: the batched kernels measure
            // 0.11-0.15 ns/dim (DESIGN.md §14), the single-pair kernel
            // 0.55. The constant feeds simulated output and stays put.
            dist_us_per_dim: 0.00025,
            // ~0.1 µs per 48-byte PQ code.
            pq_us_per_byte: 0.002,
            query_overhead_us: 30.0,
            read_overhead_us: 0.0,
            latency_floor_us: 0.0,
            cpu_factor: 1.0,
            work_multiplier: 1.0,
            intra_parallelism: 1,
            io_fanout: 1,
        }
    }
}

impl PlanBuilder {
    /// Compiles one trace: latency floor, per-query overhead, then each
    /// step in order. Consecutive compute/PQ steps merge into one CPU
    /// segment.
    pub fn build(&self, trace: &QueryTrace) -> QueryPlan {
        let mut segments: Vec<Segment> = Vec::new();
        if self.latency_floor_us > 0.0 {
            segments.push(Segment::delay(self.latency_floor_us));
        }
        let mut pending_cpu = self.query_overhead_us * self.cpu_factor;
        for step in &trace.steps {
            match step {
                TraceStep::Cpu(op) => pending_cpu += self.op_us(op),
                TraceStep::Read { reqs } | TraceStep::Overlapped { reqs, .. } => {
                    // Every beam, blocking or overlapped, pays the per-beam
                    // software cost and ends the CPU run before it.
                    pending_cpu += self.read_overhead_us.max(0.0);
                    if pending_cpu > 0.0 {
                        segments.push(Segment::cpu_parallel(pending_cpu, self.intra_parallelism));
                        pending_cpu = 0.0;
                    }
                    // The beam is held once; the executor issues its
                    // `io_fanout` replicas.
                    let (reqs, copies) = (reqs.clone(), self.io_fanout.max(1));
                    segments.push(match step {
                        // The step's own CPU runs concurrently inside the
                        // segment.
                        TraceStep::Overlapped { cpu, .. } => Segment::Overlapped {
                            total_us: cpu.iter().map(|op| self.op_us(op)).sum(),
                            fanout: self.intra_parallelism.max(1),
                            reqs,
                            copies,
                        },
                        _ => Segment::Io { reqs, copies },
                    });
                }
            }
        }
        if pending_cpu > 0.0 {
            segments.push(Segment::cpu_parallel(pending_cpu, self.intra_parallelism));
        }
        QueryPlan::new(segments)
    }

    /// Time one CPU op costs, µs, scaled by the work multiplier: the one
    /// place a [`CpuOp`] is priced.
    fn op_us(&self, op: &CpuOp) -> f64 {
        let (count, width, us_per_unit) = match *op {
            CpuOp::Compute { count, dim } => (count, dim, self.dist_us_per_dim),
            CpuOp::PqLookup { count, m } => (count, m, self.pq_us_per_byte),
        };
        let us = cast::f64_from_u64(count) * f64::from(width) * us_per_unit * self.cpu_factor;
        us * self.work_multiplier.max(0.0)
    }

    /// Compiles a batch of traces.
    pub fn build_all(&self, traces: &[QueryTrace]) -> Vec<QueryPlan> {
        traces.iter().map(|t| self.build(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        let mut t = QueryTrace::new();
        t.push_compute(100, 768);
        t.push_read(vec![IoReq::new(0, 4096), IoReq::new(4096, 4096)]);
        t.push_pq_lookup(64, 48);
        t.push_compute(4, 768);
        t
    }

    /// The default price with no per-query overhead.
    fn no_overhead() -> PlanBuilder {
        PlanBuilder {
            query_overhead_us: 0.0,
            ..PlanBuilder::default()
        }
    }

    /// CPU µs of `dists` 768-d distances plus `lookups` 48-byte PQ lookups.
    fn work_us(b: &PlanBuilder, dists: f64, lookups: f64) -> f64 {
        (dists * 768.0 * b.dist_us_per_dim + lookups * 48.0 * b.pq_us_per_byte) * b.cpu_factor
    }

    #[test]
    fn compiles_in_order_with_merged_cpu() {
        let plan = PlanBuilder::default().build(&sample_trace());
        assert_eq!(plan.segments().len(), 3, "cpu, io, cpu");
        assert!(matches!(plan.segments()[0], Segment::Cpu { .. }));
        assert!(matches!(plan.segments()[1], Segment::Io { .. }));
        assert!(matches!(plan.segments()[2], Segment::Cpu { .. }));
        assert_eq!(plan.read_bytes(), 8192);
        assert_eq!(plan.io_count(), 2);
    }

    #[test]
    fn default_distance_is_submicrosecond_per_768d() {
        let one = work_us(&PlanBuilder::default(), 1.0, 0.0);
        assert!((0.05..1.0).contains(&one), "768-d distance {one} µs");
    }

    #[test]
    fn cpu_factor_scales_work_and_overhead() {
        let b = PlanBuilder {
            query_overhead_us: 500.0,
            cpu_factor: 6.0,
            ..PlanBuilder::default()
        };
        let empty = b.build(&QueryTrace::new());
        assert_eq!(empty.segments().len(), 1, "overhead lands in one segment");
        assert!((empty.cpu_us() - 3000.0).abs() < 1e-9);
        let plan = b.build(&sample_trace());
        let expect = 3000.0 + work_us(&b, 104.0, 64.0);
        assert!((plan.cpu_us() - expect).abs() < 1e-9);
    }

    #[test]
    fn fanout_applies_to_cpu_segments() {
        let b = PlanBuilder {
            intra_parallelism: 4,
            ..PlanBuilder::default()
        };
        match &b.build(&sample_trace()).segments()[0] {
            Segment::Cpu { fanout, .. } => assert_eq!(*fanout, 4),
            other => panic!("expected cpu, got {other:?}"),
        }
    }

    #[test]
    fn cpu_time_matches_the_price() {
        let b = no_overhead();
        let plan = b.build(&sample_trace());
        assert!((plan.cpu_us() - work_us(&b, 104.0, 64.0)).abs() < 1e-9);
    }

    #[test]
    fn build_all_maps_each_trace() {
        let plans = PlanBuilder::default().build_all(&[sample_trace(), QueryTrace::new()]);
        assert_eq!(plans.len(), 2);
        assert!(plans[1].read_bytes() == 0);
    }

    #[test]
    fn work_multiplier_spares_overhead() {
        let b = PlanBuilder {
            query_overhead_us: 100.0,
            ..PlanBuilder::default()
        };
        let base = b.build(&sample_trace()).cpu_us();
        let scaled = PlanBuilder {
            work_multiplier: 3.0,
            ..b
        }
        .build(&sample_trace());
        let expect = 100.0 + (base - 100.0) * 3.0;
        assert!(
            (scaled.cpu_us() - expect).abs() < 1e-6,
            "{} vs {expect}",
            scaled.cpu_us()
        );
    }

    #[test]
    fn io_fanout_replicates_beams_on_distinct_regions() {
        let plan = PlanBuilder {
            io_fanout: 3,
            ..PlanBuilder::default()
        }
        .build(&sample_trace());
        assert_eq!(plan.io_count(), 6, "2 reqs x 3 replicas");
        assert_eq!(plan.read_bytes(), 3 * 8192);
        match &plan.segments()[1] {
            Segment::Io { reqs, copies } => {
                // The beam is held once and issued replica by replica.
                assert_eq!((reqs.len(), *copies), (2, 3));
                let offsets: Vec<u64> = Beam::new(reqs, *copies).iter().map(|r| r.offset).collect();
                let g = IO_FANOUT_STRIDE;
                assert_eq!(offsets, [0, 4096, g, g + 4096, 2 * g, 2 * g + 4096]);
            }
            other => panic!("expected io, got {other:?}"),
        }
    }

    /// Every replica listed out, one after another: how a plan held a
    /// replicated beam before it carried a copy count.
    fn materialised(reqs: &[IoReq], copies: usize) -> Vec<IoReq> {
        let mut fanned = Vec::with_capacity(reqs.len() * copies);
        for replica in 0..copies as u64 {
            fanned.extend(reqs.iter().map(|r| r.shifted(replica * IO_FANOUT_STRIDE)));
        }
        fanned
    }

    #[test]
    fn a_beam_reads_what_its_materialised_copies_would() {
        let reqs = [
            IoReq::new(0, 4096),
            IoReq::new(8192, 8192),
            IoReq::new(1 << 20, 4096),
        ];
        for copies in [0, 1, 2, 45] {
            let beam = Beam::new(&reqs, copies);
            let expect = materialised(&reqs, copies);
            assert_eq!(beam.width(), expect.len());
            assert_eq!(beam.iter().collect::<Vec<_>>(), expect);
            let by_index: Vec<IoReq> = (0..beam.width()).filter_map(|i| beam.get(i)).collect();
            assert_eq!(by_index, expect, "copies={copies}");
            assert_eq!(beam.get(beam.width()), None);
        }
        assert_eq!(Beam::new(&[], 3).get(0), None);
        assert_eq!(Beam::default().width(), 0);
    }

    #[test]
    fn aggregates_count_every_replica() {
        for copies in [1, 3, 45] {
            let b = PlanBuilder {
                io_fanout: copies,
                ..PlanBuilder::default()
            };
            for trace in [sample_trace(), overlapped_trace()] {
                let plan = b.build(&trace);
                let old: Vec<IoReq> = trace
                    .steps
                    .iter()
                    .flat_map(|step| match step {
                        TraceStep::Read { reqs } | TraceStep::Overlapped { reqs, .. } => {
                            materialised(reqs, copies)
                        }
                        TraceStep::Cpu(_) => Vec::new(),
                    })
                    .collect();
                assert_eq!(plan.io_count(), old.len() as u64);
                let bytes: u64 = old.iter().map(|r| u64::from(r.len)).sum();
                assert_eq!(plan.read_bytes(), bytes);
            }
        }
    }

    #[test]
    fn out_of_range_fields_are_clamped() {
        // Zero fan-outs compile serially and unreplicated; a negative work
        // multiplier, per-beam charge or floor charges nothing.
        let clamped = PlanBuilder {
            intra_parallelism: 0,
            io_fanout: 0,
            work_multiplier: -2.0,
            read_overhead_us: -50.0,
            latency_floor_us: -10.0,
            ..PlanBuilder::default()
        };
        let neutral = PlanBuilder {
            work_multiplier: 0.0,
            ..PlanBuilder::default()
        };
        assert_eq!(
            clamped.build(&overlapped_trace()),
            neutral.build(&overlapped_trace())
        );
    }

    fn overlapped_trace() -> QueryTrace {
        let mut t = QueryTrace::new();
        t.push_read(vec![IoReq::new(0, 4096)]);
        t.push_overlapped(
            vec![IoReq::new(8192, 4096), IoReq::new(16384, 4096)],
            &[
                CpuOp::Compute { count: 8, dim: 768 },
                CpuOp::PqLookup { count: 64, m: 48 },
            ],
        );
        t.push_compute(4, 768);
        t
    }

    #[test]
    fn overlapped_steps_compile_to_overlapped_segments() {
        let b = no_overhead();
        let plan = b.build(&overlapped_trace());
        assert_eq!(plan.segments().len(), 3, "io, overlapped, cpu");
        assert!(matches!(plan.segments()[0], Segment::Io { .. }));
        match &plan.segments()[1] {
            Segment::Overlapped {
                total_us,
                fanout,
                reqs,
                copies,
            } => {
                assert!((total_us - work_us(&b, 8.0, 64.0)).abs() < 1e-9);
                assert_eq!(*fanout, 1);
                assert_eq!((reqs.len(), *copies), (2, 1));
            }
            other => panic!("expected overlapped, got {other:?}"),
        }
        assert!(matches!(plan.segments()[2], Segment::Cpu { .. }));
        // Aggregates see the overlapped beam like any other.
        assert_eq!(plan.io_count(), 3);
        assert_eq!(plan.read_bytes(), 3 * 4096);
        assert!((plan.cpu_us() - work_us(&b, 12.0, 64.0)).abs() < 1e-9);
    }

    #[test]
    fn io_fanout_replicates_overlapped_beams() {
        let plan = PlanBuilder {
            io_fanout: 3,
            ..PlanBuilder::default()
        }
        .build(&overlapped_trace());
        assert_eq!(plan.io_count(), 9, "(1 + 2) reqs x 3 replicas");
        // Default overhead makes segments [cpu, io, overlapped, cpu].
        let beam = plan.segments()[2].beam().expect("overlapped beam");
        let offsets: Vec<u64> = beam.iter().map(|r| r.offset).collect();
        let g = IO_FANOUT_STRIDE;
        assert_eq!(
            offsets,
            [
                8192,
                16384,
                g + 8192,
                g + 16384,
                2 * g + 8192,
                2 * g + 16384
            ]
        );
    }

    #[test]
    fn read_overhead_charges_every_beam() {
        // One beam in the sample trace; one blocking + one overlapped beam
        // in the overlapped trace.
        for (trace, beams) in [(sample_trace(), 1.0), (overlapped_trace(), 2.0)] {
            let plain = no_overhead().build(&trace).cpu_us();
            let with = PlanBuilder {
                read_overhead_us: 200.0,
                ..no_overhead()
            }
            .build(&trace);
            assert!((with.cpu_us() - plain - 200.0 * beams).abs() < 1e-6);
        }
    }
}
