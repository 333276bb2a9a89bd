//! The discrete-event executor, split along a query's lifecycle (DESIGN.md
//! §10):
//!
//! - this module: the run configuration, [`Executor`], and the state one
//!   simulation keeps;
//! - `stages`: the event loop, the stages a query walks through from issue
//!   to completion, and the run's metrics once the events drain;
//! - `io`: the read and write lifecycle, from issue to settlement;
//! - `queue`: the outstanding events, one `u128` key each;
//! - `audit`: the conservation checks every run must pass;
//! - `tests`.

mod audit;
mod io;
mod queue;
mod stages;
mod tests;

pub use audit::{Law, OperationalLaws};
pub use queue::MAX_CLIENTS;

use crate::metrics::{FaultStats, RunMetrics};
use crate::plan::{Beam, QueryPlan};
use queue::EventQueue;
use sann_core::cast;
use sann_index::IoReq;
use sann_obs::{IoProvenance, LogHistogram, Phase, Registry, SpanId, Trace, TraceLevel, Tracer};
use sann_ssdsim::{DeviceSim, FaultInjector, FaultProfile, IoTracer, PageCache, SsdModel};
use std::collections::VecDeque;

const NS_PER_US: f64 = 1_000.0;

/// Converts simulated microseconds to integer nanoseconds.
///
/// Exactly `(us * NS_PER_US) as u64`, keeping golden traces bit-identical to
/// the open-coded casts this replaces. Debug builds reject a NaN or negative
/// duration, which the cast would silently map to 0 — corrupting the event
/// clock far from the bug that produced the value.
pub(crate) fn us_to_ns(us: f64) -> u64 {
    cast::u64_from_f64(us * NS_PER_US)
}

/// Like [`us_to_ns`] but rounding up — used for per-subtask CPU slices so
/// fanout never rounds a positive amount of work down to zero.
pub(crate) fn us_to_ns_ceil(us: f64) -> u64 {
    cast::u64_from_f64((us * NS_PER_US).ceil())
}

/// Converts the integer event clock back to simulated microseconds.
///
/// Exactly `t as f64 / NS_PER_US`, named so sim-time conversions are
/// greppable; debug builds assert the clock is within 2^53 ns (~104
/// simulated days), past which the division starts losing ulps.
pub(crate) fn ns_to_us(t: u64) -> f64 {
    cast::f64_from_u64(t) / NS_PER_US
}

/// Engine-side retry policy for reads that fail with an injected
/// transient error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 = fail fast; at most
    /// 250 — [`Executor::new`] rejects a larger budget).
    pub max_retries: u32,
    /// Backoff before the first retry, µs.
    pub backoff_us: f64,
    /// Multiplier applied to the backoff for each subsequent retry.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_us: 50.0,
            backoff_mult: 2.0,
        }
    }
}

/// Largest accepted [`RetryPolicy::max_retries`]: a read's attempts
/// (primary, retries and one hedge) are numbered in a `u8`, the width of
/// [`sann_obs::IoSpan::attempt`].
const MAX_RETRIES: u32 = 250;

/// Seed of the fault stream when none is supplied (decorrelated from the
/// data/tuning seeds by construction — the injector folds it further).
pub const DEFAULT_FAULT_SEED: u64 = 0x5EED_FA17;

/// Fault-injection plus resilience configuration of one run.
///
/// Every read goes through the executor's one lifecycle (issue → attempt →
/// sealed | done → resolve | retry | hedge | abandon); the policy here only
/// says what that lifecycle may do. The `none` profile is the degenerate
/// policy: nothing fails, so nothing retries, and the executor resolves
/// hedging and the deadline to "off" — no RNG draws, no extra events — so
/// output is byte-identical to a build without the fault layer, whatever
/// the retry/hedge/deadline settings say.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// The device-misbehavior envelope to inject.
    pub profile: FaultProfile,
    /// Seed of the fault RNG stream.
    pub seed: u64,
    /// Retry-with-backoff policy for failed reads.
    pub retry: RetryPolicy,
    /// Per-query IO deadline, µs (0 = none). Once a query's deadline
    /// passes, unresolved reads are abandoned instead of retried and
    /// still-unissued beams are skipped: the query returns a partial
    /// top-k, accounted in [`FaultStats`].
    pub io_deadline_us: f64,
    /// Hedge a read with a duplicate attempt if it has not resolved after
    /// this many µs (0 = no hedging). The race's loser is cancelled
    /// exactly once, at resolution.
    pub hedge_after_us: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            profile: FaultProfile::none(),
            seed: DEFAULT_FAULT_SEED,
            retry: RetryPolicy::default(),
            io_deadline_us: 0.0,
            hedge_after_us: 0.0,
        }
    }
}

/// Configuration of one simulated measurement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// CPU cores of the simulated host (paper testbed: 20).
    pub cores: usize,
    /// Closed-loop client threads, each with one in-flight query (at most
    /// [`MAX_CLIENTS`]).
    pub concurrency: usize,
    /// Simulated run duration, µs (paper: 30 s).
    pub duration_us: f64,
    /// Database-internal admission cap on concurrently executing queries
    /// (0 = unlimited). Models scheduler limits such as Milvus'
    /// `maxReadConcurrentRatio`.
    pub max_concurrent: usize,
    /// The SSD model backing storage-based plans.
    pub ssd: SsdModel,
    /// OS page-cache capacity in bytes (0 = direct I/O, the DiskANN mode).
    pub cache_bytes: u64,
    /// Fault injection and resilience (default: healthy device).
    pub faults: FaultConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cores: 20,
            concurrency: 1,
            duration_us: 30e6,
            max_concurrent: 0,
            ssd: SsdModel::samsung_990_pro(),
            cache_bytes: 0,
            faults: FaultConfig::default(),
        }
    }
}

/// Runs query plans to produce [`RunMetrics`].
///
/// The executor is deterministic: identical inputs produce identical
/// metrics. See the crate docs for the execution semantics.
#[derive(Debug)]
pub struct Executor {
    config: RunConfig,
}

impl Executor {
    /// Creates an executor.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `concurrency` is zero, `concurrency` exceeds
    /// [`MAX_CLIENTS`], `duration_us` is not positive, or the retry budget
    /// exceeds 250.
    pub fn new(config: RunConfig) -> Executor {
        assert!(config.cores > 0, "cores must be positive");
        assert!(config.concurrency > 0, "concurrency must be positive");
        assert!(
            config.concurrency <= MAX_CLIENTS,
            "concurrency must be at most {MAX_CLIENTS}, got {}: an event names its query in 16 bits",
            config.concurrency
        );
        assert!(config.duration_us > 0.0, "duration must be positive");
        assert!(
            config.faults.retry.max_retries <= MAX_RETRIES,
            "max_retries must be at most {MAX_RETRIES}, got {}",
            config.faults.retry.max_retries
        );
        Executor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Replays `plans` under closed-loop load. Client `i`'s `j`-th query
    /// uses plan `(i + j * concurrency) % plans.len()`, so all plans are
    /// exercised round-robin as in VectorDBBench's repeating query stream.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty.
    pub fn run(&self, plans: &[QueryPlan]) -> RunMetrics {
        self.run_traced(plans, TraceLevel::Off).metrics
    }

    /// Like [`Executor::run`], but records an observability trace at
    /// `level` alongside the metrics. Timestamps in the trace are
    /// simulated nanoseconds, so identical inputs yield byte-identical
    /// exported traces.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty.
    pub fn run_traced(&self, plans: &[QueryPlan], level: TraceLevel) -> TracedRun {
        assert!(!plans.is_empty(), "plans must be non-empty");
        Simulation::new(&self.config, plans, level).run()
    }
}

/// The result of [`Executor::run_traced`]: the run's metrics, the span
/// trace (feed it to [`sann_obs::export`]), and the counter/histogram
/// registry behind the metrics.
#[derive(Debug)]
pub struct TracedRun {
    /// Aggregate metrics, as from [`Executor::run`].
    pub metrics: RunMetrics,
    /// The recorded span trace (empty below [`TraceLevel::Query`]).
    pub trace: Trace,
    /// Counters, histograms, and exact latency samples for the run.
    pub registry: Registry,
    /// The run's operational quantities, which debug builds hold to the
    /// laws once the events drain; `None` when no query completed in the
    /// window.
    pub laws: Option<OperationalLaws>,
}

/// Names one read of one beam of one query. `uid`/`beam` guard against
/// the slot having been reused or the query having moved on (stale events
/// are dropped silently); `req` is the read's index in the beam, at full
/// width — a beam may hold more requests than any narrower integer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadRef {
    query: usize,
    uid: u64,
    beam: u32,
    req: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A CPU subtask of the query finished (frees its core).
    Subtask { query: usize },
    /// A core-free delay elapsed.
    Delay { query: usize },
    /// `n` requests of the query's current batch all completed: the writes
    /// of a write batch, or the sealed reads of a read beam (see
    /// [`Simulation::seals`]). It names no request: the query cannot leave
    /// a batch it still counts in `pending_ios`, so the event is never
    /// stale.
    BatchDone { query: usize, n: usize },
    /// One open read attempt reached its device completion time.
    ReadDone {
        read: ReadRef,
        attempt: u8,
        hedged: bool,
        failed: bool,
    },
    /// A retry backoff elapsed.
    Retry { read: ReadRef },
    /// A hedge timer fired.
    Hedge { read: ReadRef },
}

impl EventKind {
    /// The registry counter of each kind's pushes, in [`EventKind::index`]
    /// order.
    const PUSHED: [&'static str; 6] = [
        "engine.events.pushed.subtask",
        "engine.events.pushed.delay",
        "engine.events.pushed.batch_done",
        "engine.events.pushed.read_done",
        "engine.events.pushed.retry",
        "engine.events.pushed.hedge",
    ];

    /// The kind's position in [`EventKind::PUSHED`].
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn index(self) -> usize {
        match self {
            EventKind::Subtask { .. } => 0,
            EventKind::Delay { .. } => 1,
            EventKind::BatchDone { .. } => 2,
            EventKind::ReadDone { .. } => 3,
            EventKind::Retry { .. } => 4,
            EventKind::Hedge { .. } => 5,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Set by a test to replay with [`force_open`] on.
    static FORCE_OPEN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this is a test's reference replay, in which nothing is settled
/// at issue: every read attempt, sealed or not, goes through the open
/// lifecycle (request state, its own completion event, its hedge timer) and
/// every write has its own completion event — the executor as it was before
/// sealing, which the tests hold the default against. Spans stay where the
/// default puts them. Constant `false` outside the crate's unit tests.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn force_open() -> bool {
    #[cfg(test)]
    return FORCE_OPEN.get();
    #[cfg(not(test))]
    false
}

/// One device attempt of a read.
#[derive(Debug, Clone, Copy, Default)]
struct Attempt {
    /// Ordinal among the read's attempts; keys the injector's RNG stream.
    ordinal: u8,
    hedged: bool,
    start_ns: u64,
}

/// Per-read state of the current beam, kept only once one of its reads has
/// an open attempt (a sealed read never looks at its entry). A read is
/// *settled* once it is either resolved (data arrived, possibly after
/// retries/hedging) or abandoned (retry budget or deadline exhausted); the
/// beam completes when every read settles. What the read fetches stays in
/// the plan ([`ActiveQuery::beam`]).
#[derive(Debug, Clone, Copy, Default)]
struct ReqState {
    /// Attempts started so far (primary + retries + hedge); also the next
    /// attempt's ordinal.
    attempts: u8,
    /// Non-hedged attempts started (what the retry budget counts).
    tries: u8,
    /// In-flight attempts. At most two — one primary-or-retry plus one
    /// hedge.
    flight: [Attempt; 2],
    inflight: u8,
    settled: bool,
    /// A retry backoff event is scheduled (nothing in flight meanwhile).
    retry_pending: bool,
}

#[derive(Debug)]
struct ActiveQuery<'a> {
    plan: usize,
    seg: usize,
    started_ns: u64,
    /// CPU subtasks of the current segment not yet finished, the
    /// submission subtask of an I/O segment included.
    remaining_subtasks: usize,
    /// Requests of the current batch not yet settled. The segment
    /// completes when this and `remaining_subtasks` are both zero.
    pending_ios: usize,
    /// The subtask in flight is the submission of the segment's batch:
    /// its completion issues the requests.
    submitting: bool,
    client: usize,
    live: bool,
    /// Globally unique query number (issue order), the trace track id.
    uid: u64,
    /// Root span (NONE below `TraceLevel::Query`).
    span: SpanId,
    /// Currently open phase child span (NONE when spans are off).
    phase_span: SpanId,
    /// Phase the interval since `attr_since_ns` will be billed to.
    attr_phase: Phase,
    /// Start of the current attribution interval.
    attr_since_ns: u64,
    /// Nanoseconds billed to each phase so far.
    phase_ns: [u64; Phase::COUNT],
    /// Absolute IO deadline (`u64::MAX` when none).
    deadline_ns: u64,
    /// At least one planned read was abandoned.
    degraded: bool,
    /// Read-beam ordinal; guards stale read events.
    beam_seq: u32,
    /// The read beam last issued, borrowed from the plan, and the state of
    /// each of its reads, every replica's — empty until the beam's first
    /// open attempt sizes it, so for a fully sealed beam throughout.
    beam: Beam<'a>,
    reqs_state: Vec<ReqState>,
}

struct Simulation<'a> {
    config: &'a RunConfig,
    plans: &'a [QueryPlan],
    duration_ns: u64,
    /// Outstanding events, ordered by (time, push ordinal).
    events: EventQueue,
    free_cores: usize,
    ready: VecDeque<(usize, u64)>,
    queries: Vec<ActiveQuery<'a>>,
    /// Query slots free for reuse; every other slot holds a live query.
    free_slots: Vec<usize>,
    /// Queries waiting for admission: (client, enqueue time).
    admission: VecDeque<(usize, u64)>,
    issue_counter: u64,
    device: DeviceSim,
    cache: PageCache,
    /// The block layer: every device read and write, counted once, here.
    tracer: IoTracer,
    busy_ns: u64,
    /// Core-ns in use, integrated over the event clock: the utilization
    /// law's other side of `busy_ns`.
    cpu_clock_busy_ns: u64,
    completed_in_window: u64,
    /// Little's law over the window: the summed response time of the
    /// queries completed in it; of those still in flight at its end, how
    /// many, and their summed time in it.
    window_response_ns: u64,
    horizon_queries: u64,
    horizon_ns: u64,
    query_read_bytes: u64,
    query_io_count: u64,
    /// Time of the event last popped, stale ones included: what the
    /// monotonic-clock check compares against.
    clock_ns: u64,
    /// When the last query completed — the end of the run as its trace
    /// reports it. No event finds a target after that, but a cancelled hedge
    /// timer may still pop milliseconds later, and must not date the trace.
    finished_ns: u64,
    /// Observability: per-segment phase labels for each plan (CPU
    /// segments trailing the last blocking I/O segment are the rerank
    /// pass). This is the one place phases are decided; index traces only
    /// say what work a query does.
    seg_phases: Vec<Vec<Phase>>,
    /// Reads each plan calls for ([`QueryPlan::io_count`], taken once).
    plan_reads: Vec<u64>,
    obs: Tracer,
    registry: Registry,
    // What the registry reports beyond the tracer's counts, kept in
    // scalars and flushed once at the end of the run so the hot loop never
    // touches a map.
    beams_cache_absorbed: u64,
    /// Per-provenance page-cache hits and bytes (indexed by
    /// [`IoProvenance::index`]); with the tracer's per-tag device stats
    /// these complete the "where did each planned read land" breakdown.
    prov_cache_hits: [u64; IoProvenance::COUNT],
    prov_cache_hit_bytes: [u64; IoProvenance::COUNT],
    /// Admission waits: one sample per query that waited.
    queue_wait_hist: LogHistogram,
    /// Widths of the batches issued: one sample per beam or write batch.
    beam_width_hist: LogHistogram,
    /// Draws every read attempt's fault outcome (always clean, and without
    /// touching its RNG, under an inactive profile).
    injector: FaultInjector,
    /// Whether the profile can perturb a read. No read is routed by this:
    /// it resolves the policy below and decides what `finish` reports.
    faulty: bool,
    /// Resolved hedge delay, ns (0 = no hedging).
    hedge_ns: u64,
    /// Resolved per-query IO deadline budget, ns (`u64::MAX` = none).
    deadline_budget_ns: u64,
    /// Fault/resilience counters.
    fstats: FaultStats,
}
