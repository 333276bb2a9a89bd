//! Query traces: the record of work a search performed.
//!
//! A trace is an ordered list of [`TraceStep`]s. Steps are *sequentially
//! dependent* — step `i+1` cannot start before step `i` completes — which is
//! exactly the dependency structure of graph traversal on storage ("graph-
//! based indexes are prone to high latency due to their dependency between
//! I/O requests", paper §II-B). Parallelism *within* a step is explicit: a
//! [`TraceStep::Read`] carries the batch of requests issued together (the
//! DiskANN beam), and the engine lets them proceed concurrently.

use sann_core::{Error, Neighbor, Result};

/// Sector size every storage-resident layout in this workspace is built on.
const SECTOR_BYTES: u64 = 4096;

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

/// One unit of CPU work carried inside an overlapped step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuOp {
    /// Full-precision distance computations.
    Compute {
        /// Number of distance evaluations.
        count: u64,
        /// Vector dimensionality of each evaluation.
        dim: u32,
    },
    /// Product-quantization ADC lookups.
    PqLookup {
        /// Number of code distances evaluated.
        count: u64,
        /// Code length in bytes.
        m: u32,
    },
}

/// One unit of sequentially-ordered work inside a query.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
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
    /// A batch of reads issued concurrently; the step completes when the
    /// slowest request completes (DiskANN beam semantics).
    Read {
        /// The requests in the batch.
        reqs: Vec<IoReq>,
    },
    /// Reads and CPU work proceeding concurrently: the requests are in
    /// flight *while* the CPU ops run, and the step completes when both
    /// finish (software-pipelined beam search / look-ahead prefetch). An
    /// overlapped step is *not* a dependency barrier for phase
    /// classification: a trailing overlapped step whose reads are pure
    /// prefetch does not make the compute before it part of the search
    /// loop — see [`QueryTrace::step_phases`].
    Overlapped {
        /// The speculative / pipelined requests in flight.
        reqs: Vec<IoReq>,
        /// The CPU work running while the requests are serviced
        /// (empty for a prefetch-only step).
        cpu: Vec<CpuOp>,
    },
}

impl TraceStep {
    /// The observability [`Phase`](sann_obs::Phase) this step is billed
    /// to. CPU steps (full-precision compute and PQ lookups) are
    /// [`Compute`](sann_obs::Phase::Compute) — unless they trail the last
    /// *blocking* read beam, in which case they are the query's
    /// [`Rerank`](sann_obs::Phase::Rerank) pass; read beams are
    /// [`BeamIssue`](sann_obs::Phase::BeamIssue) (the engine splits the
    /// beam's service time into flash-service / cache-hit on its own,
    /// since only it knows the cache state). Overlapped steps bill to
    /// beam-issue: their reads define the step, and the engine attributes
    /// the concurrent CPU time itself.
    ///
    /// `after_last_read` must mean "after the last *blocking*
    /// [`Read`](TraceStep::Read)": a trailing overlapped step whose reads
    /// are speculative prefetch must not demote the true rerank pass
    /// before it back to plain compute.
    pub fn phase(&self, after_last_read: bool) -> sann_obs::Phase {
        match self {
            TraceStep::Compute { .. } | TraceStep::PqLookup { .. } => {
                if after_last_read {
                    sann_obs::Phase::Rerank
                } else {
                    sann_obs::Phase::Compute
                }
            }
            TraceStep::Read { .. } | TraceStep::Overlapped { .. } => sann_obs::Phase::BeamIssue,
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

    /// Appends a compute step (no-op for `count == 0`).
    pub fn push_compute(&mut self, count: u64, dim: u32) {
        if count == 0 {
            return;
        }
        // Merge with a trailing compute step of the same dimensionality to
        // keep traces compact.
        if let Some(TraceStep::Compute { count: c, dim: d }) = self.steps.last_mut() {
            if *d == dim {
                *c += count;
                return;
            }
        }
        self.steps.push(TraceStep::Compute { count, dim });
    }

    /// Appends a PQ-lookup step (no-op for `count == 0`).
    pub fn push_pq_lookup(&mut self, count: u64, m: u32) {
        if count == 0 {
            return;
        }
        if let Some(TraceStep::PqLookup { count: c, m: mm }) = self.steps.last_mut() {
            if *mm == m {
                *c += count;
                return;
            }
        }
        self.steps.push(TraceStep::PqLookup { count, m });
    }

    /// Appends a read beam (no-op for an empty batch).
    pub fn push_read(&mut self, reqs: Vec<IoReq>) {
        if reqs.is_empty() {
            return;
        }
        self.steps.push(TraceStep::Read { reqs });
    }

    /// Appends an overlapped step: `reqs` in flight while `cpu` runs.
    /// Zero-work CPU ops are dropped; with no requests left the step
    /// degenerates to plain sequential CPU steps (there is nothing to
    /// overlap with), and an empty call is a no-op.
    pub fn push_overlapped(&mut self, reqs: Vec<IoReq>, cpu: Vec<CpuOp>) {
        let cpu: Vec<CpuOp> = cpu
            .into_iter()
            .filter(|op| match op {
                CpuOp::Compute { count, .. } | CpuOp::PqLookup { count, .. } => *count > 0,
            })
            .collect();
        if reqs.is_empty() {
            for op in cpu {
                match op {
                    CpuOp::Compute { count, dim } => self.push_compute(count, dim),
                    CpuOp::PqLookup { count, m } => self.push_pq_lookup(count, m),
                }
            }
            return;
        }
        self.steps.push(TraceStep::Overlapped { reqs, cpu });
    }

    /// Total number of I/O requests issued (blocking and overlapped).
    pub fn io_count(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                TraceStep::Read { reqs } | TraceStep::Overlapped { reqs, .. } => reqs.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes read (blocking and overlapped).
    pub fn read_bytes(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                TraceStep::Read { reqs } | TraceStep::Overlapped { reqs, .. } => {
                    reqs.iter().map(|r| r.len as u64).sum()
                }
                _ => 0,
            })
            .sum()
    }

    /// Number of *blocking* read beams (graph round trips for DiskANN).
    /// Overlapped steps ride on the blocking beam of their hop — pipelined
    /// search still performs one dependency round trip per hop — so they
    /// are not counted separately.
    pub fn hops(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| matches!(s, TraceStep::Read { .. }))
            .count() as u64
    }

    /// Total full-precision distance evaluations (including those running
    /// under overlapped steps).
    pub fn compute_count(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                TraceStep::Compute { count, .. } => *count,
                TraceStep::Overlapped { cpu, .. } => cpu
                    .iter()
                    .map(|op| match op {
                        CpuOp::Compute { count, .. } => *count,
                        CpuOp::PqLookup { .. } => 0,
                    })
                    .sum(),
                _ => 0,
            })
            .sum()
    }

    /// Checks the structural invariants every trace must satisfy before it
    /// is handed to the execution engine:
    ///
    /// - compute / PQ-lookup steps carry non-zero work at non-zero width;
    /// - read beams are non-empty (an empty beam would be a zero-length
    ///   dependency barrier — a plan-construction bug); overlapped steps
    ///   carry at least one request (a request-less overlap degenerates to
    ///   plain CPU steps at construction) and only well-formed CPU ops;
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
        let bad = |step: usize, what: String| {
            Err(Error::invalid_parameter(
                "trace",
                format!("step {step}: {what}"),
            ))
        };
        let check_reqs = |i: usize, reqs: &[IoReq], cap: usize| -> Result<()> {
            if reqs.is_empty() {
                return bad(i, "empty read beam".to_string());
            }
            if cap > 0 && reqs.len() > cap {
                return bad(
                    i,
                    format!("beam of {} exceeds beam_width {cap}", reqs.len()),
                );
            }
            for r in reqs {
                if !r.offset.is_multiple_of(SECTOR_BYTES) {
                    return bad(i, format!("unaligned read at offset {}", r.offset));
                }
                if r.len == 0 || !u64::from(r.len).is_multiple_of(SECTOR_BYTES) {
                    return bad(i, format!("non-sector read length {}", r.len));
                }
            }
            Ok(())
        };
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                TraceStep::Compute { count, dim } => {
                    if *count == 0 || *dim == 0 {
                        return bad(i, format!("degenerate compute ({count} x dim {dim})"));
                    }
                }
                TraceStep::PqLookup { count, m } => {
                    if *count == 0 || *m == 0 {
                        return bad(i, format!("degenerate pq lookup ({count} x m {m})"));
                    }
                }
                TraceStep::Read { reqs } => check_reqs(i, reqs, max_beam)?,
                TraceStep::Overlapped { reqs, cpu } => {
                    check_reqs(i, reqs, max_beam.saturating_mul(2))?;
                    for op in cpu {
                        match op {
                            CpuOp::Compute { count, dim } => {
                                if *count == 0 || *dim == 0 {
                                    return bad(
                                        i,
                                        format!("degenerate overlapped compute ({count} x {dim})"),
                                    );
                                }
                            }
                            CpuOp::PqLookup { count, m } => {
                                if *count == 0 || *m == 0 {
                                    return bad(
                                        i,
                                        format!("degenerate overlapped pq lookup ({count} x {m})"),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-step phase annotations: each step billed to the
    /// [`Phase`](sann_obs::Phase) given by [`TraceStep::phase`], with CPU
    /// steps after the final *blocking* read beam classified as the rerank
    /// pass. Overlapped steps do not move the rerank boundary: a trailing
    /// prefetch-only overlap is speculative I/O riding on the rerank, not
    /// a continuation of the search loop.
    pub fn step_phases(&self) -> Vec<sann_obs::Phase> {
        let last_read = self
            .steps
            .iter()
            .rposition(|s| matches!(s, TraceStep::Read { .. }));
        self.steps
            .iter()
            .enumerate()
            .map(|(i, s)| s.phase(last_read.is_some_and(|r| i > r)))
            .collect()
    }

    /// Total PQ lookups (including those running under overlapped steps).
    pub fn pq_lookup_count(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                TraceStep::PqLookup { count, .. } => *count,
                TraceStep::Overlapped { cpu, .. } => cpu
                    .iter()
                    .map(|op| match op {
                        CpuOp::PqLookup { count, .. } => *count,
                        CpuOp::Compute { .. } => 0,
                    })
                    .sum(),
                _ => 0,
            })
            .sum()
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
            steps: vec![TraceStep::Compute { count: 0, dim: 768 }],
        };
        assert!(zero_compute.validate(0).is_err());
        let zero_m = QueryTrace {
            steps: vec![TraceStep::PqLookup { count: 5, m: 0 }],
        };
        assert!(zero_m.validate(0).is_err());
    }

    #[test]
    fn step_phases_mark_trailing_rerank() {
        use sann_obs::Phase;
        let mut t = QueryTrace::new();
        t.push_pq_lookup(64, 48);
        t.push_read(vec![IoReq::new(0, 4096)]);
        t.push_pq_lookup(32, 48);
        t.push_read(vec![IoReq::new(4096, 4096)]);
        t.push_compute(10, 768);
        assert_eq!(
            t.step_phases(),
            vec![
                Phase::Compute,
                Phase::BeamIssue,
                Phase::Compute,
                Phase::BeamIssue,
                Phase::Rerank,
            ]
        );
        // A trace with no reads at all has no rerank pass.
        let mut cpu_only = QueryTrace::new();
        cpu_only.push_compute(5, 768);
        assert_eq!(cpu_only.step_phases(), vec![Phase::Compute]);
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
            vec![
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
            vec![
                CpuOp::Compute { count: 4, dim: 768 },
                CpuOp::Compute { count: 0, dim: 768 },
                CpuOp::PqLookup { count: 8, m: 48 },
            ],
        );
        assert_eq!(
            t.steps,
            vec![
                TraceStep::Compute { count: 4, dim: 768 },
                TraceStep::PqLookup { count: 8, m: 48 },
            ]
        );
        // Fully empty call is a no-op.
        let mut empty = QueryTrace::new();
        empty.push_overlapped(vec![], vec![]);
        assert!(empty.steps.is_empty());
    }

    #[test]
    fn trailing_prefetch_overlap_keeps_rerank() {
        // Regression: compute that precedes a prefetch-only trailing
        // overlapped step is still the rerank pass — the speculative reads
        // must not demote it back to plain compute.
        use sann_obs::Phase;
        let mut t = QueryTrace::new();
        t.push_read(vec![IoReq::new(0, 4096)]);
        t.push_compute(10, 768);
        t.push_overlapped(vec![IoReq::new(4096, 4096)], vec![]);
        assert_eq!(
            t.step_phases(),
            vec![Phase::BeamIssue, Phase::Rerank, Phase::BeamIssue]
        );
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
