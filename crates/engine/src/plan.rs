//! Query plans: timed segment lists compiled from index traces.

use crate::cost::CostModel;
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
        /// The requests in the beam.
        reqs: Vec<IoReq>,
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
        /// The requests in flight under the CPU work.
        reqs: Vec<IoReq>,
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
        Segment::Io { reqs }
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
        }
    }
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

    /// Total bytes read by the plan (blocking and overlapped beams).
    pub fn read_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Io { reqs } | Segment::Overlapped { reqs, .. } => {
                    reqs.iter().map(|r| r.len as u64).sum()
                }
                _ => 0,
            })
            .sum()
    }

    /// Total read requests in the plan (blocking and overlapped beams).
    /// Write batches are excluded here; fault accounting tracks reads.
    pub fn io_count(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Io { reqs } | Segment::Overlapped { reqs, .. } => reqs.len() as u64,
                _ => 0,
            })
            .sum()
    }
}

/// Compiles [`QueryTrace`]s into [`QueryPlan`]s under a [`CostModel`] and an
/// intra-query parallelism policy.
///
/// Three optional modifiers model architecture- and scale-dependent effects
/// (see `sann-vdb`'s profiles and the harness's scale-extrapolation model):
///
/// * [`with_work_multiplier`](PlanBuilder::with_work_multiplier) scales the
///   data-dependent compute (distances/PQ lookups) without touching the
///   fixed per-query overhead;
/// * [`with_io_fanout`](PlanBuilder::with_io_fanout) replicates every read
///   beam (segment-parallel storage engines issue one beam per data
///   segment);
/// * [`with_read_overhead_us`](PlanBuilder::with_read_overhead_us) charges
///   CPU per read beam (I/O path software overhead beyond raw submission).
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    cost: CostModel,
    intra_parallelism: usize,
    work_multiplier: f64,
    io_fanout: usize,
    read_overhead_us: f64,
    latency_floor_us: f64,
}

/// Offset shift between replicated beams, so fanned-out reads land on
/// distinct device regions (distinct segments).
const IO_FANOUT_STRIDE: u64 = 1 << 30;

impl PlanBuilder {
    /// Creates a builder with no intra-query parallelism.
    pub fn new(cost: CostModel) -> PlanBuilder {
        PlanBuilder {
            cost,
            intra_parallelism: 1,
            work_multiplier: 1.0,
            io_fanout: 1,
            read_overhead_us: 0.0,
            latency_floor_us: 0.0,
        }
    }

    /// Fans compute segments out over `fanout` parallel subtasks (1 = serial).
    pub fn with_intra_parallelism(mut self, fanout: usize) -> PlanBuilder {
        self.intra_parallelism = fanout.max(1);
        self
    }

    /// Multiplies data-dependent compute (not the fixed overhead).
    pub fn with_work_multiplier(mut self, factor: f64) -> PlanBuilder {
        self.work_multiplier = factor.max(0.0);
        self
    }

    /// Replicates every read beam `fanout` times onto distinct device
    /// regions (1 = no replication).
    pub fn with_io_fanout(mut self, fanout: usize) -> PlanBuilder {
        self.io_fanout = fanout.max(1);
        self
    }

    /// Adds fixed CPU time before every read beam (the storage engine's
    /// per-hop I/O-path software cost; fanned out like regular compute).
    pub fn with_read_overhead_us(mut self, overhead_us: f64) -> PlanBuilder {
        self.read_overhead_us = overhead_us.max(0.0);
        self
    }

    /// Adds a core-free latency floor to every query (network round trip and
    /// scheduler hand-offs that add latency but burn no measurable CPU).
    pub fn with_latency_floor_us(mut self, floor_us: f64) -> PlanBuilder {
        self.latency_floor_us = floor_us.max(0.0);
        self
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The current beam replication factor.
    pub fn io_fanout(&self) -> usize {
        self.io_fanout
    }

    /// Compiles one trace: per-query overhead, then each step in order.
    /// Consecutive compute/PQ steps merge into one CPU segment.
    pub fn build(&self, trace: &QueryTrace) -> QueryPlan {
        let mut segments: Vec<Segment> = Vec::new();
        if self.latency_floor_us > 0.0 {
            segments.push(Segment::delay(self.latency_floor_us));
        }
        let mut pending_cpu = self.cost.overhead_us();
        for step in &trace.steps {
            match step {
                TraceStep::Cpu(op) => pending_cpu += self.op_us(op),
                TraceStep::Read { reqs } | TraceStep::Overlapped { reqs, .. } => {
                    // Every beam, blocking or overlapped, pays the per-beam
                    // software cost and ends the CPU run before it.
                    pending_cpu += self.read_overhead_us;
                    if pending_cpu > 0.0 {
                        segments.push(Segment::cpu_parallel(pending_cpu, self.intra_parallelism));
                        pending_cpu = 0.0;
                    }
                    let reqs = self.fan_out(reqs);
                    segments.push(match step {
                        // The step's own CPU runs concurrently inside the
                        // segment.
                        TraceStep::Overlapped { cpu, .. } => {
                            let us = cpu.iter().map(|op| self.op_us(op)).sum();
                            Segment::overlapped(us, self.intra_parallelism, reqs)
                        }
                        _ => Segment::io(reqs),
                    });
                }
            }
        }
        if pending_cpu > 0.0 {
            segments.push(Segment::cpu_parallel(pending_cpu, self.intra_parallelism));
        }
        QueryPlan::new(segments)
    }

    /// Time one CPU op costs, µs, scaled by the work multiplier.
    fn op_us(&self, op: &CpuOp) -> f64 {
        let us = match *op {
            CpuOp::Compute { count, dim } => self.cost.compute_us(count, dim),
            CpuOp::PqLookup { count, m } => self.cost.pq_us(count, m),
        };
        us * self.work_multiplier
    }

    /// Compiles a batch of traces.
    pub fn build_all(&self, traces: &[QueryTrace]) -> Vec<QueryPlan> {
        traces.iter().map(|t| self.build(t)).collect()
    }

    /// Replicates a beam `io_fanout` times onto distinct device regions.
    fn fan_out(&self, reqs: &[IoReq]) -> Vec<IoReq> {
        let mut fanned = Vec::with_capacity(reqs.len() * self.io_fanout);
        for replica in 0..self.io_fanout as u64 {
            fanned.extend(reqs.iter().map(|r| r.shifted(replica * IO_FANOUT_STRIDE)));
        }
        fanned
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

    #[test]
    fn compiles_in_order_with_merged_cpu() {
        let b = PlanBuilder::new(CostModel::default());
        let plan = b.build(&sample_trace());
        assert_eq!(plan.segments().len(), 3, "cpu, io, cpu");
        assert!(matches!(plan.segments()[0], Segment::Cpu { .. }));
        assert!(matches!(plan.segments()[1], Segment::Io { .. }));
        assert!(matches!(plan.segments()[2], Segment::Cpu { .. }));
        assert_eq!(plan.read_bytes(), 8192);
        assert_eq!(plan.io_count(), 2);
    }

    #[test]
    fn overhead_lands_in_first_segment() {
        let cost = CostModel::default().with_overhead_us(500.0);
        let plan = PlanBuilder::new(cost).build(&QueryTrace::new());
        assert_eq!(plan.segments().len(), 1);
        assert!((plan.cpu_us() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn fanout_applies_to_cpu_segments() {
        let b = PlanBuilder::new(CostModel::default()).with_intra_parallelism(4);
        let plan = b.build(&sample_trace());
        match &plan.segments()[0] {
            Segment::Cpu { fanout, .. } => assert_eq!(*fanout, 4),
            other => panic!("expected cpu, got {other:?}"),
        }
    }

    #[test]
    fn cpu_time_matches_cost_model() {
        let cost = CostModel::default().with_overhead_us(0.0);
        let plan = PlanBuilder::new(cost).build(&sample_trace());
        let expect = cost.compute_us(104, 768) + cost.pq_us(64, 48);
        assert!((plan.cpu_us() - expect).abs() < 1e-9);
    }

    #[test]
    fn build_all_maps_each_trace() {
        let b = PlanBuilder::new(CostModel::default());
        let plans = b.build_all(&[sample_trace(), QueryTrace::new()]);
        assert_eq!(plans.len(), 2);
        assert!(plans[1].read_bytes() == 0);
    }

    #[test]
    fn work_multiplier_spares_overhead() {
        let cost = CostModel::default().with_overhead_us(100.0);
        let base = PlanBuilder::new(cost).build(&sample_trace()).cpu_us();
        let scaled = PlanBuilder::new(cost)
            .with_work_multiplier(3.0)
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
        let plan = PlanBuilder::new(CostModel::default())
            .with_io_fanout(3)
            .build(&sample_trace());
        assert_eq!(plan.io_count(), 6, "2 reqs x 3 replicas");
        assert_eq!(plan.read_bytes(), 3 * 8192);
        match &plan.segments()[1] {
            Segment::Io { reqs } => {
                let mut offsets: Vec<u64> = reqs.iter().map(|r| r.offset).collect();
                offsets.dedup();
                assert_eq!(offsets.len(), 6, "replicas must not alias");
            }
            other => panic!("expected io, got {other:?}"),
        }
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
        let cost = CostModel::default().with_overhead_us(0.0);
        let plan = PlanBuilder::new(cost).build(&overlapped_trace());
        assert_eq!(plan.segments().len(), 3, "io, overlapped, cpu");
        assert!(matches!(plan.segments()[0], Segment::Io { .. }));
        match &plan.segments()[1] {
            Segment::Overlapped {
                total_us,
                fanout,
                reqs,
            } => {
                let expect = cost.compute_us(8, 768) + cost.pq_us(64, 48);
                assert!((total_us - expect).abs() < 1e-9);
                assert_eq!(*fanout, 1);
                assert_eq!(reqs.len(), 2);
            }
            other => panic!("expected overlapped, got {other:?}"),
        }
        assert!(matches!(plan.segments()[2], Segment::Cpu { .. }));
        // Aggregates see the overlapped beam like any other.
        assert_eq!(plan.io_count(), 3);
        assert_eq!(plan.read_bytes(), 3 * 4096);
        let cpu = cost.compute_us(8, 768) + cost.pq_us(64, 48) + cost.compute_us(4, 768);
        assert!((plan.cpu_us() - cpu).abs() < 1e-9);
    }

    #[test]
    fn io_fanout_replicates_overlapped_beams() {
        let plan = PlanBuilder::new(CostModel::default())
            .with_io_fanout(3)
            .build(&overlapped_trace());
        assert_eq!(plan.io_count(), 9, "(1 + 2) reqs x 3 replicas");
        // Default overhead makes segments [cpu, io, overlapped, cpu].
        match &plan.segments()[2] {
            Segment::Overlapped { reqs, .. } => {
                let mut offsets: Vec<u64> = reqs.iter().map(|r| r.offset).collect();
                offsets.dedup();
                assert_eq!(offsets.len(), 6, "replicas must not alias");
            }
            other => panic!("expected overlapped, got {other:?}"),
        }
    }

    #[test]
    fn read_overhead_charges_overlapped_beams_too() {
        let cost = CostModel::default().with_overhead_us(0.0);
        let plain = PlanBuilder::new(cost).build(&overlapped_trace()).cpu_us();
        let with = PlanBuilder::new(cost)
            .with_read_overhead_us(200.0)
            .build(&overlapped_trace());
        assert!(
            (with.cpu_us() - plain - 400.0).abs() < 1e-6,
            "one blocking + one overlapped beam in the trace"
        );
    }

    #[test]
    fn read_overhead_charges_per_beam() {
        let cost = CostModel::default().with_overhead_us(0.0);
        let plain = PlanBuilder::new(cost).build(&sample_trace()).cpu_us();
        let with = PlanBuilder::new(cost)
            .with_read_overhead_us(200.0)
            .build(&sample_trace());
        assert!(
            (with.cpu_us() - plain - 200.0).abs() < 1e-6,
            "one beam in the trace"
        );
    }
}
