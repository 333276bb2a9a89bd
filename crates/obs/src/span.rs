//! Spans over the simulated clock.
//!
//! A [`Span`] is a `[start_ns, end_ns]` interval of *virtual* time owned
//! by one query. The execution engine opens one root span per query and
//! one child span per [`Phase`]; at [`TraceLevel::Io`] it additionally
//! records an [`IoSpan`] per device request, tagged with the owning
//! span so block I/O nests under its query in the exported timeline.
//!
//! Spans are collected by a [`Tracer`], and instrumented code does not
//! care whether it is live or disabled: the tracer's level decides, and
//! below [`TraceLevel::Query`] every call is a no-op that hands back
//! [`SpanId::NONE`].

use crate::column::Column;
use sann_core::cast;
use std::fmt;

/// How much the tracer records. Levels are ordered: each level includes
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record no spans; every tracer call is a no-op. The run's metrics,
    /// phase breakdown and registry are filled at every level.
    Off,
    /// Per-query spans with per-phase children.
    Query,
    /// Everything above plus one [`IoSpan`] per device request.
    Io,
}

impl TraceLevel {
    /// All levels in ascending order (the `--trace-level` ladder).
    pub const ALL: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Query, TraceLevel::Io];

    /// Parses the CLI spelling (`off`, `query`, `io`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "query" => Some(TraceLevel::Query),
            "io" => Some(TraceLevel::Io),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Query => "query",
            TraceLevel::Io => "io",
        }
    }

    /// Whether per-query spans are recorded at this level.
    pub fn spans(self) -> bool {
        self >= TraceLevel::Query
    }

    /// Whether per-request I/O spans are recorded at this level.
    pub fn io(self) -> bool {
        self >= TraceLevel::Io
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Index of a [`Span`] inside its [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The absent span: parent of root spans, and the id handed back when
    /// tracing is disabled.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id refers to a real span.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }

    /// The span's index in [`Trace::spans`], or `None` for [`SpanId::NONE`].
    pub fn index(self) -> Option<usize> {
        if self.is_some() {
            Some(self.0 as usize)
        } else {
            None
        }
    }
}

/// The phase taxonomy: every nanosecond between a query's activation and
/// its completion is attributed to exactly one of the in-latency phases
/// (the engine audits the sum per query). [`Phase::QueueWait`] is the
/// admission wait *before* activation, which the latency metric excludes
/// by construction, so it is reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting in the admission queue for a free core (pre-activation;
    /// not part of the reported per-query latency).
    QueueWait,
    /// On-core distance computation / graph traversal.
    Compute,
    /// CPU work issuing a beam of page reads to the device.
    BeamIssue,
    /// Waiting for the flash device to service outstanding reads.
    FlashService,
    /// A beam fully absorbed by the page cache (zero device time).
    CacheHit,
    /// Trailing on-core work after the last I/O: full-precision rerank.
    Rerank,
    /// Explicit think-time / pacing delay inside the plan.
    Delay,
}

impl Phase {
    /// All phases, in canonical (encoding and reporting) order.
    pub const ALL: [Phase; 7] = [
        Phase::QueueWait,
        Phase::Compute,
        Phase::BeamIssue,
        Phase::FlashService,
        Phase::CacheHit,
        Phase::Rerank,
        Phase::Delay,
    ];

    /// Number of phases.
    pub const COUNT: usize = Phase::ALL.len();

    /// Position in [`Phase::ALL`]; stable across the canonical encoding.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name used by exporters and report tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::Compute => "compute",
            Phase::BeamIssue => "beam_issue",
            Phase::FlashService => "flash_service",
            Phase::CacheHit => "cache_hit",
            Phase::Rerank => "rerank",
            Phase::Delay => "delay",
        }
    }

    /// Whether this phase is part of the reported per-query latency.
    /// In-latency phases partition `[activation, completion]`, so their
    /// per-query sum must equal the reported latency exactly.
    pub fn in_latency(self) -> bool {
        self != Phase::QueueWait
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// The root span of one query, from activation to completion.
    /// `plan` is the index of the query's plan in the submitted batch.
    Query {
        /// Index of the plan this query executed.
        plan: usize,
    },
    /// A child span covering one contiguous phase interval.
    Phase(Phase),
}

/// The stable label both exporters write.
impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanName::Query { plan } => write!(f, "query/plan{plan}"),
            SpanName::Phase(p) => f.write_str(p.name()),
        }
    }
}

/// One closed interval of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (its index in [`Trace::spans`]).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for a root span.
    pub parent: SpanId,
    /// The query this span belongs to.
    pub query: u64,
    /// What the span covers.
    pub name: SpanName,
    /// Start, in simulated nanoseconds.
    pub start_ns: u64,
    /// End, in simulated nanoseconds (`>= start_ns` once closed).
    pub end_ns: u64,
}

impl Span {
    /// Span duration in simulated nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How a traced I/O attempt ended. Anything but [`IoOutcome::Ok`] only
/// occurs under an active fault profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoOutcome {
    /// The attempt returned data.
    #[default]
    Ok,
    /// The attempt failed with an injected transient read error.
    Error,
    /// A hedged duplicate abandoned when its sibling resolved first.
    Cancelled,
}

impl IoOutcome {
    /// Stable label used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            IoOutcome::Ok => "ok",
            IoOutcome::Error => "error",
            IoOutcome::Cancelled => "cancelled",
        }
    }
}

/// One device request, tagged with the span (and therefore query) that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSpan {
    /// The span whose interval contains this request.
    pub owner: SpanId,
    /// The query that issued the request.
    pub query: u64,
    /// Submission time, simulated nanoseconds.
    pub start_ns: u64,
    /// Completion time, simulated nanoseconds.
    pub end_ns: u64,
    /// Byte offset on the device.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u32,
    /// `true` for writes, `false` for reads.
    pub write: bool,
    /// What the bytes are (graph adjacency, posting list, ...). Exporters
    /// append the attribute only for non-default tags, keeping untagged
    /// exports byte-identical to pre-provenance builds.
    pub provenance: crate::IoProvenance,
    /// Retry ordinal of this attempt (0 = first try; fault runs only).
    pub attempt: u8,
    /// Whether this attempt is a hedged duplicate (fault runs only).
    pub hedged: bool,
    /// How the attempt ended (always [`IoOutcome::Ok`] on fault-free runs).
    pub outcome: IoOutcome,
}

impl IoSpan {
    /// Whether any fault attribute deviates from the fault-free defaults
    /// (exporters append the extra fields only in that case, keeping
    /// fault-free exports byte-identical to pre-fault builds).
    pub fn fault_tagged(&self) -> bool {
        self.attempt != 0 || self.hedged || self.outcome != IoOutcome::Ok
    }
}

/// `end_ns` sentinel marking a span that has not been closed yet.
const OPEN: u64 = u64::MAX;

/// Destination for spans produced by instrumented code: appends spans to a
/// [`Column`] and yields a [`Trace`] when the run finishes. Calls its
/// [`TraceLevel`] does not record hand back [`SpanId::NONE`] and do
/// nothing else, so call sites never branch on the level themselves.
#[derive(Debug)]
pub struct Tracer {
    level: TraceLevel,
    spans: Column<Span>,
    io: Column<IoSpan>,
    open: usize,
}

impl Tracer {
    /// Creates a tracer recording at `level`.
    pub fn new(level: TraceLevel) -> Tracer {
        Tracer {
            level,
            spans: Column::new(),
            io: Column::new(),
            open: 0,
        }
    }

    /// Consumes the tracer, closing any still-open span at `end_ns`, and
    /// returns the finished [`Trace`].
    pub fn finish(mut self, end_ns: u64) -> Trace {
        if self.open > 0 {
            for s in self.spans.iter_mut() {
                if s.end_ns == OPEN {
                    s.end_ns = end_ns;
                }
            }
        }
        Trace {
            level: self.level,
            end_ns,
            spans: self.spans,
            io: self.io,
        }
    }

    /// The tracer's recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Opens a span at `now_ns`; returns [`SpanId::NONE`] when spans are
    /// not recorded at this tracer's level.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn begin_span(
        &mut self,
        parent: SpanId,
        query: u64,
        name: SpanName,
        now_ns: u64,
    ) -> SpanId {
        if !self.level.spans() {
            return SpanId::NONE;
        }
        let id = SpanId(cast::u32_from_usize(self.spans.len()));
        debug_assert!(id.is_some(), "span ids are exhausted");
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: now_ns,
            end_ns: OPEN,
        });
        self.open += 1;
        id
    }

    /// Closes a span at `now_ns`. No-op for [`SpanId::NONE`].
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn end_span(&mut self, id: SpanId, now_ns: u64) {
        let Some(idx) = id.index() else { return };
        debug_assert!(idx < self.spans.len(), "span {id:?} was never opened");
        if let Some(s) = self.spans.get_mut(idx) {
            debug_assert!(s.end_ns == OPEN, "span closed twice");
            s.end_ns = now_ns;
            self.open -= 1;
        }
    }

    /// Records one device request. No-op below [`TraceLevel::Io`].
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn io_span(&mut self, io: IoSpan) {
        if self.level.io() {
            self.io.push(io);
        }
    }
}

/// A finished trace: every recorded span plus the run horizon.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Level the trace was recorded at.
    pub level: TraceLevel,
    /// Simulated time at which the run finished.
    pub end_ns: u64,
    /// All spans, in open order; span `i` carries [`SpanId`]`(i)`. A
    /// child's id is always greater than its parent's.
    pub spans: Column<Span>,
    /// Per-request I/O spans (empty below [`TraceLevel::Io`]).
    pub io: Column<IoSpan>,
}

impl Trace {
    /// Structural invariants every trace must satisfy:
    ///
    /// 1. span `i` carries id `i`, which the exporters rely on;
    /// 2. every span is closed with `end_ns >= start_ns`, within the run
    ///    horizon;
    /// 3. every child nests inside its parent's interval and belongs to
    ///    the same query;
    /// 4. every I/O span falls inside its owning span's interval.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.id.index() != Some(i) {
                return Err(format!("span at position {i} carries id {:?}", s.id));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {:?} not closed", s.id));
            }
            if s.end_ns > self.end_ns {
                return Err(format!("span {:?} ends after the run horizon", s.id));
            }
            if let Some(pidx) = s.parent.index() {
                let p = self
                    .spans
                    .get(pidx)
                    .ok_or_else(|| format!("span {:?} has unknown parent {:?}", s.id, s.parent))?;
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {:?} [{}, {}] escapes parent {:?} [{}, {}]",
                        s.id, s.start_ns, s.end_ns, p.id, p.start_ns, p.end_ns
                    ));
                }
                if s.query != p.query {
                    return Err(format!(
                        "span {:?} query {} != parent query {}",
                        s.id, s.query, p.query
                    ));
                }
            }
        }
        for io in &self.io {
            if io.end_ns < io.start_ns {
                return Err(format!("io span at offset {} runs backwards", io.offset));
            }
            let Some(idx) = io.owner.index() else {
                return Err(format!("io span at offset {} has no owner", io.offset));
            };
            let owner = self
                .spans
                .get(idx)
                .ok_or_else(|| format!("io span owner {:?} unknown", io.owner))?;
            if io.start_ns < owner.start_ns || io.end_ns > owner.end_ns {
                return Err(format!(
                    "io span [{}, {}] escapes owner {:?} [{}, {}]",
                    io.start_ns, io.end_ns, owner.id, owner.start_ns, owner.end_ns
                ));
            }
        }
        Ok(())
    }

    /// Spans belonging to `query`, in open order.
    pub fn query_spans(&self, query: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.query == query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::CHUNK;

    #[test]
    fn level_ladder() {
        assert!(TraceLevel::Off < TraceLevel::Query);
        assert!(TraceLevel::Query < TraceLevel::Io);
        assert!(!TraceLevel::Off.spans());
        assert!(TraceLevel::Query.spans());
        assert!(!TraceLevel::Query.io());
        assert!(TraceLevel::Io.io());
        for lvl in TraceLevel::ALL {
            assert_eq!(TraceLevel::parse(lvl.name()), Some(lvl));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert_eq!(TraceLevel::parse("run"), None);
    }

    #[test]
    fn phase_taxonomy() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(!Phase::QueueWait.in_latency());
        assert!(Phase::ALL.iter().filter(|p| p.in_latency()).count() == Phase::COUNT - 1);
    }

    #[test]
    fn records_nested_spans() {
        let mut t = Tracer::new(TraceLevel::Io);
        let q = t.begin_span(SpanId::NONE, 7, SpanName::Query { plan: 0 }, 100);
        let c = t.begin_span(q, 7, SpanName::Phase(Phase::FlashService), 150);
        t.io_span(IoSpan {
            owner: c,
            query: 7,
            start_ns: 150,
            end_ns: 300,
            offset: 4096,
            len: 4096,
            write: false,
            provenance: Default::default(),
            attempt: 0,
            hedged: false,
            outcome: IoOutcome::Ok,
        });
        t.end_span(c, 300);
        t.end_span(q, 400);
        let trace = t.finish(1_000);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.io.len(), 1);
        trace.validate().unwrap();
        assert_eq!(trace.query_spans(7).count(), 2);
        assert_eq!(trace.spans[0].duration_ns(), 300);
    }

    #[test]
    fn disabled_levels_record_nothing() {
        let mut t = Tracer::new(TraceLevel::Off);
        let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
        assert_eq!(q, SpanId::NONE);
        t.end_span(q, 10);
        let trace = t.finish(10);
        assert!(trace.spans.is_empty());
        trace.validate().unwrap();
        // Query level records spans but drops io.
        let mut t = Tracer::new(TraceLevel::Query);
        let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
        t.io_span(IoSpan {
            owner: q,
            query: 0,
            start_ns: 0,
            end_ns: 5,
            offset: 0,
            len: 512,
            write: false,
            provenance: Default::default(),
            attempt: 0,
            hedged: false,
            outcome: IoOutcome::Ok,
        });
        t.end_span(q, 10);
        assert!(t.finish(10).io.is_empty());
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut t = Tracer::new(TraceLevel::Query);
        let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 40);
        let _ = q;
        let trace = t.finish(90);
        assert_eq!(trace.spans[0].end_ns, 90);
        trace.validate().unwrap();
    }

    #[test]
    fn validate_rejects_escaping_child() {
        let trace = Trace {
            level: TraceLevel::Query,
            end_ns: 100,
            spans: vec![
                Span {
                    id: SpanId(0),
                    parent: SpanId::NONE,
                    query: 0,
                    name: SpanName::Query { plan: 0 },
                    start_ns: 10,
                    end_ns: 50,
                },
                Span {
                    id: SpanId(1),
                    parent: SpanId(0),
                    query: 0,
                    name: SpanName::Phase(Phase::Compute),
                    start_ns: 40,
                    end_ns: 60,
                },
            ]
            .into(),
            io: Column::new(),
        };
        assert!(trace.validate().is_err());
    }

    fn read(owner: SpanId, query: u64, start_ns: u64, end_ns: u64) -> IoSpan {
        IoSpan {
            owner,
            query,
            start_ns,
            end_ns,
            offset: 0,
            len: 4096,
            write: false,
            provenance: Default::default(),
            attempt: 0,
            hedged: false,
            outcome: IoOutcome::Ok,
        }
    }

    /// Opens and closes `n` one-span queries numbered from `first`.
    fn closed_roots(t: &mut Tracer, first: u64, n: u64) {
        for q in first..first + n {
            let id = t.begin_span(SpanId::NONE, q, SpanName::Query { plan: 0 }, q);
            t.end_span(id, q + 1);
        }
    }

    #[test]
    fn span_ids_are_positions_across_chunk_boundaries() {
        let mut t = Tracer::new(TraceLevel::Query);
        closed_roots(&mut t, 0, CHUNK as u64 - 2);
        for n in [CHUNK - 1, CHUNK, CHUNK + 1] {
            closed_roots(&mut t, n as u64 - 1, 1);
            assert_eq!(t.spans.len(), n);
            let last = t.spans.get(n - 1).unwrap();
            assert_eq!(last.id, SpanId(n as u32 - 1));
            assert_eq!(t.spans[n - 1].query, n as u64 - 1);
            assert_eq!(t.spans.get(n), None);
        }
        let trace = t.finish(CHUNK as u64 + 1);
        assert_eq!(trace.spans.len(), CHUNK + 1);
        trace.validate().unwrap();
    }

    #[test]
    fn end_span_reaches_back_into_an_earlier_chunk() {
        let mut t = Tracer::new(TraceLevel::Query);
        let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
        closed_roots(&mut t, 1, CHUNK as u64 + 10);
        t.end_span(q, 77);
        let trace = t.finish(100_000);
        assert_eq!(trace.spans[0].end_ns, 77);
        trace.validate().unwrap();
    }

    #[test]
    fn finish_closes_open_spans_in_every_chunk() {
        let mut t = Tracer::new(TraceLevel::Query);
        let mut open = Vec::new();
        for chunk in 0..3 {
            let first = (chunk * CHUNK) as u64;
            closed_roots(&mut t, first, 5);
            open.push(t.begin_span(SpanId::NONE, first + 5, SpanName::Query { plan: 0 }, 10));
            closed_roots(&mut t, first + 6, CHUNK as u64 - 6);
        }
        let trace = t.finish(100_000);
        assert_eq!(trace.spans.len(), 3 * CHUNK);
        for id in open {
            assert_eq!(trace.spans[id.index().unwrap()].end_ns, 100_000);
        }
        let closed_early = trace.spans.iter().filter(|s| s.end_ns < 100_000).count();
        assert_eq!(closed_early, 3 * CHUNK - 3);
        trace.validate().unwrap();
    }

    #[test]
    fn validate_follows_parents_and_owners_into_earlier_chunks() {
        let record = |child_end: u64, io_end: u64| {
            let mut t = Tracer::new(TraceLevel::Io);
            let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
            for _ in 0..CHUNK + 1 {
                t.io_span(read(q, 0, 10, 20));
            }
            closed_roots(&mut t, 1, CHUNK as u64);
            let c = t.begin_span(q, 0, SpanName::Phase(Phase::Compute), 50);
            t.end_span(c, child_end);
            t.io_span(read(q, 0, 60, io_end));
            t.end_span(q, 100);
            let trace = t.finish(100_000);
            assert_eq!(c, SpanId(CHUNK as u32 + 1));
            assert_eq!(trace.io.len(), CHUNK + 2);
            trace
        };
        record(90, 90).validate().unwrap();
        let escaping_child = record(150, 90).validate().unwrap_err();
        assert!(
            escaping_child.contains("escapes parent SpanId(0)"),
            "{escaping_child}"
        );
        let escaping_io = record(90, 150).validate().unwrap_err();
        assert!(
            escaping_io.contains("escapes owner SpanId(0)"),
            "{escaping_io}"
        );
    }

    #[test]
    fn validate_rejects_misnumbered_span() {
        let mut t = Tracer::new(TraceLevel::Query);
        closed_roots(&mut t, 0, CHUNK as u64 + 2);
        let mut trace = t.finish(100_000);
        trace.validate().unwrap();
        trace.spans.get_mut(CHUNK + 1).unwrap().id = SpanId(CHUNK as u32);
        let err = trace.validate().unwrap_err();
        assert!(err.contains(&format!("position {}", CHUNK + 1)), "{err}");
    }

    #[test]
    fn span_labels_are_stable() {
        assert_eq!(SpanName::Query { plan: 3 }.to_string(), "query/plan3");
        assert_eq!(SpanName::Phase(Phase::BeamIssue).to_string(), "beam_issue");
    }
}
