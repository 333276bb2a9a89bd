//! Query traces: the record of work a search performed.
//!
//! A trace is an ordered list of [`TraceStep`]s. Steps are *sequentially
//! dependent* — step `i+1` cannot start before step `i` completes — which is
//! exactly the dependency structure of graph traversal on storage ("graph-
//! based indexes are prone to high latency due to their dependency between
//! I/O requests", paper §II-B). Parallelism *within* a step is explicit: a
//! [`TraceStep::Read`] carries the batch of requests issued together (the
//! DiskANN beam), and the engine lets them proceed concurrently.
//!
//! CPU work has one vocabulary, [`CpuOp`]: a [`TraceStep::Cpu`] step holds
//! one op on the critical path, and a [`TraceStep::Overlapped`] step holds
//! the ops that run while its reads are in flight. A trace says only *what*
//! work a query does; what it costs, when it runs and which phase it bills
//! to are the engine's to decide.

use crate::layout::SECTOR_BYTES;
use sann_core::{cast, Error, Neighbor, Result};

/// One block-level read request, 4 KiB-aligned by construction of the disk
/// layouts in [`crate::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoReq {
    /// Byte offset on the simulated device.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u32,
    /// Payload bytes the search actually needs out of this request —
    /// `len` minus sector padding and alignment slop. Read amplification
    /// per run is `fetched bytes / needed bytes`; the layouts set this
    /// exactly (a 3332 B node record fetched as one 4 KiB sector needs
    /// 3332 of the 4096 bytes).
    pub needed: u32,
    /// What the bytes are (graph adjacency, posting list, ...). Threaded
    /// through the engine into `ssdsim::IoTracer` and the obs `IoSpan` so
    /// per-run I/O breaks down by what each read fetched.
    pub provenance: sann_obs::IoProvenance,
}

impl IoReq {
    /// Creates an untagged request: default (metadata) provenance and
    /// every fetched byte counted as needed.
    pub fn new(offset: u64, len: u32) -> Self {
        IoReq {
            offset,
            len,
            needed: len,
            provenance: sann_obs::IoProvenance::default(),
        }
    }

    /// Creates a fully tagged request.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `needed <= len` — a request can never need more
    /// bytes than it fetches.
    pub fn tagged(offset: u64, len: u32, needed: u32, provenance: sann_obs::IoProvenance) -> Self {
        debug_assert!(needed <= len, "needed bytes exceed request length");
        IoReq {
            offset,
            len,
            needed,
            provenance,
        }
    }

    /// The same request at a shifted offset (beam replication onto
    /// distinct device regions), tags preserved.
    pub fn shifted(self, delta: u64) -> Self {
        IoReq {
            offset: self.offset + delta,
            ..self
        }
    }
}

/// One unit of CPU work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuOp {
    /// Full-precision distance computations: `count` distances at
    /// dimensionality `dim`.
    Compute {
        /// Number of distance evaluations.
        count: u64,
        /// Vector dimensionality of each evaluation.
        dim: u32,
    },
    /// Product-quantization ADC lookups: `count` code-distance evaluations
    /// with `m`-byte codes (an order of magnitude cheaper than full
    /// precision).
    PqLookup {
        /// Number of code distances evaluated.
        count: u64,
        /// Code length in bytes.
        m: u32,
    },
}

impl CpuOp {
    /// Number of evaluations the op performs.
    pub fn count(&self) -> u64 {
        match *self {
            CpuOp::Compute { count, .. } | CpuOp::PqLookup { count, .. } => count,
        }
    }

    /// Folds `next` into `self` when both are the same kind at the same
    /// width; returns whether it did.
    fn merge(&mut self, next: CpuOp) -> bool {
        match (self, next) {
            (CpuOp::Compute { count, dim }, CpuOp::Compute { count: c, dim: d }) if *dim == d => {
                *count += c;
                true
            }
            (CpuOp::PqLookup { count, m }, CpuOp::PqLookup { count: c, m: w }) if *m == w => {
                *count += c;
                true
            }
            _ => false,
        }
    }

    /// Whether the op is malformed: no work, or work at zero width.
    fn is_degenerate(&self) -> bool {
        let width = match *self {
            CpuOp::Compute { dim, .. } => dim,
            CpuOp::PqLookup { m, .. } => m,
        };
        self.count() == 0 || width == 0
    }
}

/// One unit of sequentially-ordered work inside a query.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
    /// CPU work on the query's critical path.
    Cpu(CpuOp),
    /// A batch of reads issued concurrently; the step completes when the
    /// slowest request completes (DiskANN beam semantics).
    Read {
        /// The requests in the batch.
        reqs: Vec<IoReq>,
    },
    /// Reads and CPU work proceeding concurrently: the requests are in
    /// flight *while* the CPU ops run, and the step completes when both
    /// finish (software-pipelined beam search / look-ahead prefetch). It is
    /// not a blocking beam: a trailing prefetch-only overlap does not make
    /// the compute before it part of the search loop.
    Overlapped {
        /// The speculative / pipelined requests in flight.
        reqs: Vec<IoReq>,
        /// The CPU work running while the requests are serviced
        /// (empty for a prefetch-only step).
        cpu: Vec<CpuOp>,
    },
}

impl TraceStep {
    /// The requests the step issues (none for a CPU step).
    fn reqs(&self) -> &[IoReq] {
        match self {
            TraceStep::Cpu(_) => &[],
            TraceStep::Read { reqs } | TraceStep::Overlapped { reqs, .. } => reqs,
        }
    }

    /// The CPU work the step performs (none for a blocking read).
    fn cpu(&self) -> &[CpuOp] {
        match self {
            TraceStep::Cpu(op) => std::slice::from_ref(op),
            TraceStep::Read { .. } => &[],
            TraceStep::Overlapped { cpu, .. } => cpu,
        }
    }
}

/// The full work log of one query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// Ordered, sequentially-dependent steps.
    pub steps: Vec<TraceStep>,
}

impl QueryTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Appends a CPU step (no-op for zero work), merged into a trailing CPU
    /// step of the same kind and width to keep traces compact.
    pub fn push_cpu(&mut self, op: CpuOp) {
        if op.count() == 0 {
            return;
        }
        if let Some(TraceStep::Cpu(last)) = self.steps.last_mut() {
            if last.merge(op) {
                return;
            }
        }
        self.steps.push(TraceStep::Cpu(op));
    }

    /// Appends `count` full-precision distances at dimensionality `dim`.
    pub fn push_compute(&mut self, count: u64, dim: u32) {
        self.push_cpu(CpuOp::Compute { count, dim });
    }

    /// Appends `count` PQ lookups with `m`-byte codes.
    pub fn push_pq_lookup(&mut self, count: u64, m: u32) {
        self.push_cpu(CpuOp::PqLookup { count, m });
    }

    /// Appends a read beam (no-op for an empty batch).
    pub fn push_read(&mut self, reqs: Vec<IoReq>) {
        if reqs.is_empty() {
            return;
        }
        self.steps.push(TraceStep::Read { reqs });
    }

    /// Appends an overlapped step: `reqs` in flight while `cpu` runs.
    /// Zero-work CPU ops are dropped; with no requests the step degenerates
    /// to plain sequential CPU steps (there is nothing to overlap with), and
    /// an empty call is a no-op.
    pub fn push_overlapped(&mut self, reqs: Vec<IoReq>, cpu: &[CpuOp]) {
        if reqs.is_empty() {
            for &op in cpu {
                self.push_cpu(op);
            }
            return;
        }
        let cpu = cpu.iter().copied().filter(|op| op.count() > 0).collect();
        self.steps.push(TraceStep::Overlapped { reqs, cpu });
    }

    /// Every request issued, blocking and overlapped, in order.
    fn reqs(&self) -> impl Iterator<Item = &IoReq> {
        self.steps.iter().flat_map(TraceStep::reqs)
    }

    /// Every CPU op, sequential and overlapped, in order.
    fn cpu_ops(&self) -> impl Iterator<Item = &CpuOp> {
        self.steps.iter().flat_map(TraceStep::cpu)
    }

    /// Total number of I/O requests issued (blocking and overlapped).
    pub fn io_count(&self) -> u64 {
        cast::u64_from_usize(self.reqs().count())
    }

    /// Total bytes read (blocking and overlapped).
    pub fn read_bytes(&self) -> u64 {
        self.reqs().map(|r| u64::from(r.len)).sum()
    }

    /// Number of *blocking* read beams (graph round trips for DiskANN).
    /// Overlapped steps ride on the blocking beam of their hop — pipelined
    /// search still performs one dependency round trip per hop — so they
    /// are not counted separately.
    pub fn hops(&self) -> u64 {
        let beams = self
            .steps
            .iter()
            .filter(|s| matches!(s, TraceStep::Read { .. }));
        cast::u64_from_usize(beams.count())
    }

    /// Total full-precision distance evaluations (including those running
    /// under overlapped steps).
    pub fn compute_count(&self) -> u64 {
        self.cpu_ops()
            .filter(|op| matches!(op, CpuOp::Compute { .. }))
            .map(CpuOp::count)
            .sum()
    }

    /// Total PQ lookups (including those running under overlapped steps).
    pub fn pq_lookup_count(&self) -> u64 {
        self.cpu_ops()
            .filter(|op| matches!(op, CpuOp::PqLookup { .. }))
            .map(CpuOp::count)
            .sum()
    }

    /// Checks the structural invariants every trace must satisfy before it
    /// is handed to the execution engine:
    ///
    /// - every CPU op, sequential or overlapped, carries non-zero work at
    ///   non-zero width;
    /// - read beams are non-empty (an empty beam would be a zero-length
    ///   dependency barrier — a plan-construction bug); overlapped steps
    ///   carry at least one request (a request-less overlap degenerates to
    ///   plain CPU steps at construction);
    /// - every [`IoReq`] is whole-sector: 4 KiB-aligned offset and a
    ///   positive, 4 KiB-multiple length (the layouts in [`crate::layout`]
    ///   construct requests this way; anything else would silently model
    ///   sub-sector device traffic);
    /// - no blocking beam is wider than `max_beam` requests (`0` =
    ///   unlimited, for index types without a beam-width knob); an
    ///   overlapped step may carry up to `2 * max_beam` — the pipelined
    ///   remainder of the current beam plus a look-ahead window of at most
    ///   one further beam.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the first violated
    /// invariant and the step index.
    pub fn validate(&self, max_beam: usize) -> Result<()> {
        for (i, step) in self.steps.iter().enumerate() {
            let bad = |what: String| {
                Err(Error::invalid_parameter(
                    "trace",
                    format!("step {i}: {what}"),
                ))
            };
            if let Some(op) = step.cpu().iter().find(|op| op.is_degenerate()) {
                return bad(format!("degenerate {op:?}"));
            }
            let cap = match step {
                TraceStep::Cpu(_) => continue,
                TraceStep::Read { .. } => max_beam,
                TraceStep::Overlapped { .. } => max_beam.saturating_mul(2),
            };
            let reqs = step.reqs();
            if reqs.is_empty() {
                return bad("empty read beam".to_string());
            }
            if cap > 0 && reqs.len() > cap {
                return bad(format!("beam of {} exceeds beam_width {cap}", reqs.len()));
            }
            for r in reqs {
                if !r.offset.is_multiple_of(SECTOR_BYTES) {
                    return bad(format!("unaligned read at offset {}", r.offset));
                }
                if r.len == 0 || !u64::from(r.len).is_multiple_of(SECTOR_BYTES) {
                    return bad(format!("non-sector read length {}", r.len));
                }
            }
        }
        Ok(())
    }
}

/// The result of one search: neighbors plus the work log.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutput {
    /// Approximate nearest neighbors, closest first.
    pub neighbors: Vec<Neighbor>,
    /// The work the search performed.
    pub trace: QueryTrace,
}

impl SearchOutput {
    /// Neighbor ids, closest first.
    pub fn ids(&self) -> Vec<u32> {
        self.neighbors.iter().map(|n| n.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_count_correctly() {
        let mut t = QueryTrace::new();
        t.push_compute(10, 768);
        t.push_read(vec![IoReq::new(0, 4096), IoReq::new(4096, 4096)]);
        t.push_pq_lookup(64, 48);
        t.push_read(vec![IoReq::new(8192, 4096)]);
        assert_eq!(t.io_count(), 3);
        assert_eq!(t.read_bytes(), 3 * 4096);
        assert_eq!(t.hops(), 2);
        assert_eq!(t.compute_count(), 10);
        assert_eq!(t.pq_lookup_count(), 64);
    }

    #[test]
    fn adjacent_compute_steps_merge() {
        let mut t = QueryTrace::new();
        t.push_compute(5, 768);
        t.push_compute(7, 768);
        assert_eq!(t.steps.len(), 1);
        assert_eq!(t.compute_count(), 12);
        t.push_compute(1, 1536);
        assert_eq!(t.steps.len(), 2, "different dim must not merge");

        let mut pq = QueryTrace::new();
        pq.push_pq_lookup(3, 48);
        pq.push_pq_lookup(4, 48);
        assert_eq!(
            pq.steps,
            vec![TraceStep::Cpu(CpuOp::PqLookup { count: 7, m: 48 })],
            "PQ lookups merge at equal m"
        );
        pq.push_pq_lookup(1, 96);
        assert_eq!(pq.steps.len(), 2, "different m must not merge");

        // Equal widths, alternating kinds: nothing merges across kinds.
        let mut mixed = QueryTrace::new();
        mixed.push_compute(2, 48);
        mixed.push_pq_lookup(3, 48);
        mixed.push_compute(4, 48);
        assert_eq!(
            mixed.steps,
            vec![
                TraceStep::Cpu(CpuOp::Compute { count: 2, dim: 48 }),
                TraceStep::Cpu(CpuOp::PqLookup { count: 3, m: 48 }),
                TraceStep::Cpu(CpuOp::Compute { count: 4, dim: 48 }),
            ]
        );
    }

    #[test]
    fn empty_pushes_are_ignored() {
        let mut t = QueryTrace::new();
        t.push_compute(0, 768);
        t.push_pq_lookup(0, 8);
        t.push_read(vec![]);
        assert!(t.steps.is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_traces() {
        let mut t = QueryTrace::new();
        t.push_compute(10, 768);
        t.push_read(vec![IoReq::new(0, 4096), IoReq::new(8192, 8192)]);
        t.push_pq_lookup(64, 48);
        assert!(t.validate(2).is_ok());
        assert!(t.validate(0).is_ok(), "0 means unlimited beam");
        assert!(t.validate(1).is_err(), "beam of 2 must violate width 1");
    }

    #[test]
    fn validate_rejects_malformed_steps() {
        let unaligned = QueryTrace {
            steps: vec![TraceStep::Read {
                reqs: vec![IoReq::new(100, 4096)],
            }],
        };
        assert!(unaligned.validate(0).is_err());
        let short = QueryTrace {
            steps: vec![TraceStep::Read {
                reqs: vec![IoReq::new(0, 512)],
            }],
        };
        assert!(short.validate(0).is_err());
        let empty_beam = QueryTrace {
            steps: vec![TraceStep::Read { reqs: vec![] }],
        };
        assert!(empty_beam.validate(0).is_err());
        let zero_compute = QueryTrace {
            steps: vec![TraceStep::Cpu(CpuOp::Compute { count: 0, dim: 768 })],
        };
        assert!(zero_compute.validate(0).is_err());
        let zero_m = QueryTrace {
            steps: vec![TraceStep::Cpu(CpuOp::PqLookup { count: 5, m: 0 })],
        };
        assert!(zero_m.validate(0).is_err());
    }

    #[test]
    fn reads_do_not_merge() {
        // Beams are dependency barriers; they must stay separate.
        let mut t = QueryTrace::new();
        t.push_read(vec![IoReq::new(0, 4096)]);
        t.push_read(vec![IoReq::new(4096, 4096)]);
        assert_eq!(t.steps.len(), 2);
        assert_eq!(t.hops(), 2);
    }

    #[test]
    fn overlapped_steps_count_in_aggregates() {
        let mut t = QueryTrace::new();
        t.push_read(vec![IoReq::new(0, 4096)]);
        t.push_overlapped(
            vec![IoReq::new(4096, 4096), IoReq::new(8192, 4096)],
            &[
                CpuOp::Compute { count: 4, dim: 768 },
                CpuOp::PqLookup { count: 32, m: 48 },
            ],
        );
        t.push_compute(10, 768);
        assert_eq!(t.io_count(), 3, "overlapped reqs count as I/Os");
        assert_eq!(t.read_bytes(), 3 * 4096);
        assert_eq!(t.hops(), 1, "overlapped steps are not extra hops");
        assert_eq!(t.compute_count(), 14);
        assert_eq!(t.pq_lookup_count(), 32);
    }

    #[test]
    fn push_overlapped_degrades_without_reqs() {
        // No requests: nothing to overlap with, so the CPU ops become
        // plain sequential steps (and zero-count ops are dropped).
        let mut t = QueryTrace::new();
        t.push_overlapped(
            vec![],
            &[
                CpuOp::Compute { count: 4, dim: 768 },
                CpuOp::Compute { count: 0, dim: 768 },
                CpuOp::PqLookup { count: 8, m: 48 },
            ],
        );
        assert_eq!(
            t.steps,
            vec![
                TraceStep::Cpu(CpuOp::Compute { count: 4, dim: 768 }),
                TraceStep::Cpu(CpuOp::PqLookup { count: 8, m: 48 }),
            ]
        );
        // Fully empty call is a no-op.
        let mut empty = QueryTrace::new();
        empty.push_overlapped(vec![], &[]);
        assert!(empty.steps.is_empty());
    }

    #[test]
    fn validate_checks_overlapped_steps() {
        let ok = QueryTrace {
            steps: vec![TraceStep::Overlapped {
                reqs: vec![IoReq::new(0, 4096), IoReq::new(4096, 4096)],
                cpu: vec![CpuOp::Compute { count: 4, dim: 768 }],
            }],
        };
        assert!(ok.validate(0).is_ok());
        // Overlapped steps get a 2x allowance: pipelined remainder of the
        // current beam plus one look-ahead window.
        assert!(ok.validate(1).is_ok());
        let wide = QueryTrace {
            steps: vec![TraceStep::Overlapped {
                reqs: vec![
                    IoReq::new(0, 4096),
                    IoReq::new(4096, 4096),
                    IoReq::new(8192, 4096),
                ],
                cpu: vec![],
            }],
        };
        assert!(wide.validate(1).is_err(), "3 reqs exceed 2 * beam_width 1");
        let unaligned = QueryTrace {
            steps: vec![TraceStep::Overlapped {
                reqs: vec![IoReq::new(100, 4096)],
                cpu: vec![],
            }],
        };
        assert!(unaligned.validate(0).is_err());
        let empty = QueryTrace {
            steps: vec![TraceStep::Overlapped {
                reqs: vec![],
                cpu: vec![CpuOp::Compute { count: 4, dim: 768 }],
            }],
        };
        assert!(empty.validate(0).is_err(), "request-less overlap rejected");
        let zero_op = QueryTrace {
            steps: vec![TraceStep::Overlapped {
                reqs: vec![IoReq::new(0, 4096)],
                cpu: vec![CpuOp::PqLookup { count: 0, m: 48 }],
            }],
        };
        assert!(zero_op.validate(0).is_err());
    }
}
