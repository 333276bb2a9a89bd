//! The discrete-event executor.

use crate::metrics::{FaultStats, RunMetrics};
use crate::plan::{QueryPlan, Segment};
use sann_core::cast;
use sann_index::IoReq;
use sann_obs::{
    IoOutcome, IoProvenance, IoSpan, LogHistogram, Phase as ObsPhase, Registry, SpanId, SpanName,
    Trace, TraceLevel, Tracer,
};
use sann_ssdsim::{
    DeviceSim, FaultInjector, FaultProfile, IoTracer, PageCache, SsdModel, HEDGE_TAG,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const NS_PER_US: f64 = 1_000.0;

/// Window width of the queue-depth / utilization timelines, µs (1 s — the
/// same granularity as the Fig. 5 bandwidth timeline).
const TELEMETRY_BUCKET_US: f64 = 1e6;

/// Converts simulated microseconds to integer nanoseconds.
///
/// An `as u64` cast saturates on overflow but silently maps NaN to 0 and
/// truncates negatives, which would corrupt the event clock far from the bug
/// that produced the value — so debug builds assert the input is a finite,
/// non-negative duration. The arithmetic is exactly `(us * NS_PER_US) as
/// u64`, keeping golden traces bit-identical to the open-coded casts this
/// replaces.
pub(crate) fn us_to_ns(us: f64) -> u64 {
    debug_assert!(
        us.is_finite() && us >= 0.0,
        "duration must be a finite non-negative µs value, got {us}"
    );
    (us * NS_PER_US) as u64
}

/// Like [`us_to_ns`] but rounding up — used for per-subtask CPU slices so
/// fanout never rounds a positive amount of work down to zero.
pub(crate) fn us_to_ns_ceil(us: f64) -> u64 {
    debug_assert!(
        us.is_finite() && us >= 0.0,
        "duration must be a finite non-negative µs value, got {us}"
    );
    (us * NS_PER_US).ceil() as u64
}

/// Converts the integer event clock back to simulated microseconds.
///
/// Exactly `t as f64 / NS_PER_US`, named so sim-time conversions are
/// greppable; debug builds assert the clock is still below 2^53 ns (~104
/// simulated days), past which the division starts losing ulps.
pub(crate) fn ns_to_us(t: u64) -> f64 {
    debug_assert!(
        t < (1 << 53),
        "event clock {t} ns exceeds the f64-exact range"
    );
    (t as f64) / NS_PER_US
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
/// [`IoSpan::attempt`].
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
    /// Closed-loop client threads, each with one in-flight query.
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
    /// The `n` writes of the query's current batch have all completed.
    WritesDone { query: usize, n: usize },
    /// The `n` sealed reads of the query's current beam have all completed
    /// (see [`Simulation::seals`]). Like `WritesDone` it names no read: the
    /// query cannot leave a beam it still counts in `pending_ios`, so the
    /// event is never stale.
    SealedDone { query: usize, n: usize },
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
fn force_open() -> bool {
    #[cfg(test)]
    return FORCE_OPEN.get();
    #[cfg(not(test))]
    false
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Running CPU subtasks of the current segment.
    Cpu,
    /// Running the submission subtask of an I/O segment.
    IoSubmit,
    /// Blocked waiting for the current beam.
    IoWait,
    /// Pipelined search: CPU subtasks running while the segment's reads
    /// are still in flight. The segment completes when both drain; if the
    /// CPU finishes first the query falls back to [`Phase::IoWait`] for
    /// the exposed tail.
    Overlap,
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
    phase: Phase,
    started_ns: u64,
    remaining_subtasks: usize,
    pending_ios: usize,
    client: usize,
    live: bool,
    /// Globally unique query number (issue order), the trace track id.
    uid: u64,
    /// Root span (NONE below `TraceLevel::Query`).
    span: SpanId,
    /// Currently open phase child span (NONE when spans are off).
    phase_span: SpanId,
    /// Phase the interval since `attr_since_ns` will be billed to.
    attr_phase: ObsPhase,
    /// Start of the current attribution interval.
    attr_since_ns: u64,
    /// Nanoseconds billed to each phase so far.
    phase_ns: [u64; ObsPhase::COUNT],
    /// Absolute IO deadline (`u64::MAX` when none).
    deadline_ns: u64,
    /// At least one planned read was abandoned.
    degraded: bool,
    /// Read-beam ordinal; guards stale read events.
    beam_seq: u32,
    /// The read beam last issued, borrowed from the plan, and the state of
    /// each of its reads — empty until the beam's first open attempt sizes
    /// it, so for a fully sealed beam throughout.
    beam: &'a [IoReq],
    reqs_state: Vec<ReqState>,
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
    /// Panics if `cores` or `concurrency` is zero, `duration_us` is not
    /// positive, or the retry budget exceeds 250.
    pub fn new(config: RunConfig) -> Executor {
        assert!(config.cores > 0, "cores must be positive");
        assert!(config.concurrency > 0, "concurrency must be positive");
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
}

struct Simulation<'a> {
    config: &'a RunConfig,
    plans: &'a [QueryPlan],
    duration_ns: u64,
    /// Outstanding events as `(time, push ordinal, slot in event_slab)`.
    /// The ordinal is unique, so the slot never decides an ordering.
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Payloads of the outstanding events. A popped event's slot goes on
    /// `free_events` and is reused, so the slab's length is the most events
    /// ever outstanding at once, whatever the number dispatched.
    event_slab: Vec<EventKind>,
    free_events: Vec<usize>,
    seq: u64,
    free_cores: usize,
    ready: VecDeque<(usize, u64)>,
    queries: Vec<ActiveQuery<'a>>,
    free_slots: Vec<usize>,
    active_count: usize,
    /// Queries waiting for admission: (client, enqueue time).
    admission: VecDeque<(usize, u64)>,
    issued_per_client: Vec<u64>,
    issue_counter: u64,
    device: DeviceSim,
    cache: PageCache,
    tracer: IoTracer,
    busy_ns: u64,
    completed_in_window: u64,
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
    seg_phases: Vec<Vec<ObsPhase>>,
    /// Reads each plan calls for ([`QueryPlan::io_count`], taken once).
    plan_reads: Vec<u64>,
    obs: Tracer,
    registry: Registry,
    // Cheap scalar counters, flushed into the registry at the end of the
    // run so the hot loop never touches a map.
    beams: u64,
    beams_cache_absorbed: u64,
    reads_cache_hit: u64,
    /// Per-provenance page-cache hits and bytes (indexed by
    /// [`IoProvenance::index`]); with the tracer's per-tag device stats
    /// these complete the "where did each planned read land" breakdown.
    prov_cache_hits: [u64; IoProvenance::COUNT],
    prov_cache_hit_bytes: [u64; IoProvenance::COUNT],
    reads_device: u64,
    writes_device: u64,
    admission_waits: u64,
    queue_wait_hist: LogHistogram,
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

impl<'a> Simulation<'a> {
    fn new(config: &'a RunConfig, plans: &'a [QueryPlan], level: TraceLevel) -> Simulation<'a> {
        let seg_phases = plans
            .iter()
            .map(|p| {
                let segs = p.segments();
                // Rerank = CPU after the last *blocking* segment. Overlapped
                // segments are deliberately excluded from the boundary: a
                // trailing prefetch-only overlap is speculative I/O riding
                // on the rerank pass it follows, and must not reclassify it.
                let last_io = segs
                    .iter()
                    .rposition(|s| matches!(s, Segment::Io { .. } | Segment::Write { .. }));
                segs.iter()
                    .enumerate()
                    .map(|(i, s)| match s {
                        Segment::Cpu { .. } => {
                            if last_io.is_some_and(|r| i > r) {
                                ObsPhase::Rerank
                            } else {
                                ObsPhase::Compute
                            }
                        }
                        Segment::Delay { .. } => ObsPhase::Delay,
                        Segment::Io { .. } | Segment::Write { .. } | Segment::Overlapped { .. } => {
                            ObsPhase::BeamIssue
                        }
                    })
                    .collect()
            })
            .collect();
        // A healthy device is the degenerate policy: nothing fails so
        // nothing retries, and hedging and deadlines are resolved to "off"
        // here, whatever the configuration says (a database's policy keeps
        // its non-zero hedge and deadline under the `none` profile) — that
        // is what keeps a healthy run byte-identical regardless of policy.
        let faults = &config.faults;
        let faulty = faults.profile.active();
        let (hedge_us, deadline_us) = if faulty {
            (faults.hedge_after_us.max(0.0), faults.io_deadline_us)
        } else {
            (0.0, 0.0)
        };
        Simulation {
            config,
            plans,
            duration_ns: us_to_ns(config.duration_us),
            events: BinaryHeap::new(),
            event_slab: Vec::new(),
            free_events: Vec::new(),
            seq: 0,
            free_cores: config.cores,
            ready: VecDeque::new(),
            queries: Vec::new(),
            free_slots: Vec::new(),
            active_count: 0,
            admission: VecDeque::new(),
            issued_per_client: vec![0; config.concurrency],
            issue_counter: 0,
            device: DeviceSim::new(config.ssd)
                .with_timelines(config.duration_us, TELEMETRY_BUCKET_US),
            cache: PageCache::new(config.cache_bytes),
            tracer: IoTracer::new(config.duration_us),
            busy_ns: 0,
            completed_in_window: 0,
            query_read_bytes: 0,
            query_io_count: 0,
            clock_ns: 0,
            finished_ns: 0,
            seg_phases,
            plan_reads: plans.iter().map(QueryPlan::io_count).collect(),
            obs: Tracer::new(level),
            registry: Registry::new(),
            beams: 0,
            beams_cache_absorbed: 0,
            reads_cache_hit: 0,
            prov_cache_hits: [0; IoProvenance::COUNT],
            prov_cache_hit_bytes: [0; IoProvenance::COUNT],
            reads_device: 0,
            writes_device: 0,
            admission_waits: 0,
            queue_wait_hist: LogHistogram::new(),
            beam_width_hist: LogHistogram::new(),
            injector: FaultInjector::new(faults.profile, faults.seed, config.ssd.base_latency_us),
            faulty,
            hedge_ns: us_to_ns(hedge_us),
            deadline_budget_ns: if deadline_us > 0.0 {
                us_to_ns(deadline_us)
            } else {
                u64::MAX
            },
            fstats: FaultStats::default(),
        }
    }

    fn push_event(&mut self, at_ns: u64, kind: EventKind) {
        let slot = match self.free_events.pop() {
            Some(slot) => {
                if let Some(cell) = self.event_slab.get_mut(slot) {
                    *cell = kind;
                }
                slot
            }
            None => {
                self.event_slab.push(kind);
                self.event_slab.len() - 1
            }
        };
        self.events.push(Reverse((at_ns, self.seq, slot)));
        self.seq += 1;
    }

    fn run(mut self) -> TracedRun {
        self.run_events();
        self.finish()
    }

    /// Most events ever outstanding at once.
    #[cfg(test)]
    fn events_high_water(&self) -> usize {
        self.event_slab.len()
    }

    /// Issues every client's first query and drains the event heap.
    fn run_events(&mut self) {
        for client in 0..self.config.concurrency {
            self.issue_query(client, 0);
        }
        self.dispatch(0);

        while let Some(Reverse((t, _, slot))) = self.events.pop() {
            let kind = self.event_slab[slot];
            self.free_events.push(slot);
            assert!(
                t >= self.clock_ns,
                "event queue regressed: popped t={t} ns behind clock {} ns",
                self.clock_ns
            );
            self.clock_ns = t;
            match kind {
                EventKind::Subtask { query } => {
                    self.free_cores += 1;
                    self.on_subtask_done(query, t);
                }
                EventKind::Delay { query } => {
                    self.q(query).seg += 1;
                    self.advance(query, t);
                }
                EventKind::WritesDone { query, n } => self.request_settled(query, n, t),
                EventKind::SealedDone { query, n } => {
                    self.fstats.ios_completed += cast::u64_from_usize(n);
                    self.request_settled(query, n, t);
                }
                EventKind::ReadDone {
                    read,
                    attempt,
                    hedged,
                    failed,
                } => self.on_read_done(read, attempt, hedged, failed, t),
                EventKind::Retry { read } => self.on_retry(read, t),
                EventKind::Hedge { read } => self.on_hedge(read, t),
            }
            self.dispatch(t);
        }
    }

    /// Audits the drained run and assembles its metrics.
    fn finish(mut self) -> TracedRun {
        // Conservation audit: every byte the block-layer tracer counted must
        // have been scheduled on the device exactly once, and vice versa —
        // cache hits bypass both, misses go through both. A mismatch means
        // a code path recorded traffic without simulating it (or simulated
        // it untraced), which would corrupt every bandwidth figure.
        let stats = self.tracer.stats();
        assert_eq!(
            stats.read_bytes + stats.write_bytes,
            self.device.bytes(),
            "I/O conservation violated: tracer saw {} read + {} written bytes \
             but the device transferred {}",
            stats.read_bytes,
            stats.write_bytes,
            self.device.bytes()
        );
        assert_eq!(
            stats.reads + stats.writes,
            self.device.completed(),
            "I/O conservation violated: tracer saw {} requests but the device \
             completed {}",
            stats.reads + stats.writes,
            self.device.completed()
        );

        // Flush the scalar counters into the registry (a single map touch
        // per counter for the whole run, keeping the hot loop allocation-
        // and map-free).
        self.registry
            .counter_add("engine.queries_issued", self.issue_counter);
        self.registry.counter_add("engine.beams", self.beams);
        self.registry
            .counter_add("engine.beams_cache_absorbed", self.beams_cache_absorbed);
        self.registry
            .counter_add("engine.reads_cache_hit", self.reads_cache_hit);
        // Per-provenance cache-hit counters appear only when a non-default
        // tag actually hit — same idiom as the exporters' conditional
        // `prov` attribute, so untagged runs keep their registry (and its
        // exported form) byte-identical to pre-provenance builds.
        const PROV_HIT_COUNTERS: [&str; IoProvenance::COUNT] = [
            "engine.cache_hit.graph-adjacency",
            "engine.cache_hit.vector-block",
            "engine.cache_hit.ivf-posting-list",
            "engine.cache_hit.pq-codes",
            "engine.cache_hit.metadata",
        ];
        for p in IoProvenance::ALL {
            let hits = self.prov_cache_hits[p.index()];
            if p != IoProvenance::default() && hits > 0 {
                self.registry
                    .counter_add(PROV_HIT_COUNTERS[p.index()], hits);
            }
        }
        self.registry
            .counter_add("engine.reads_device", self.reads_device);
        self.registry
            .counter_add("engine.writes_device", self.writes_device);
        self.registry
            .counter_add("engine.admission_waits", self.admission_waits);
        self.registry
            .hist_merge("engine.queue_wait_ns", &self.queue_wait_hist);
        self.registry
            .hist_merge("engine.beam_width", &self.beam_width_hist);

        // Read conservation audit: every planned read of every activated
        // query must have been settled exactly once — served (device or
        // cache) or honestly abandoned. A mismatch means the read lifecycle
        // dropped or double-counted a read, which would corrupt the
        // degraded-recall accounting.
        assert_eq!(
            self.fstats.ios_planned,
            self.fstats.ios_completed + self.fstats.ios_abandoned,
            "read conservation violated: {} planned reads vs {} completed + {} abandoned",
            self.fstats.ios_planned,
            self.fstats.ios_completed,
            self.fstats.ios_abandoned
        );
        // The fault ledger is counted on every run but reported only under
        // an active profile, so a healthy run keeps its metrics and its
        // registry (and their exported forms) byte-identical to a build
        // without the fault layer.
        if self.faulty {
            let f = &self.fstats;
            self.registry
                .counter_add("engine.faults_injected", f.injected_errors);
            self.registry
                .counter_add("engine.fault_spikes", f.latency_spikes);
            self.registry
                .counter_add("engine.fault_gc_stall_ns", f.gc_stall_ns);
            self.registry.counter_add("engine.retries", f.retries);
            self.registry
                .counter_add("engine.retry_exhausted", f.retry_exhausted);
            self.registry
                .counter_add("engine.hedges_issued", f.hedges_issued);
            self.registry
                .counter_add("engine.hedges_cancelled", f.hedges_cancelled);
            self.registry
                .counter_add("engine.deadline_skips", f.deadline_skips);
            self.registry
                .counter_add("engine.queries_degraded", f.degraded_queries);
            self.registry
                .counter_add("engine.ios_planned", f.ios_planned);
            self.registry
                .counter_add("engine.ios_completed", f.ios_completed);
            self.registry
                .counter_add("engine.ios_abandoned", f.ios_abandoned);
        } else {
            self.fstats = FaultStats::default();
        }

        let duration_s = self.config.duration_us / 1e6;
        // Device telemetry is sampled unconditionally inside the DES (it
        // never depends on the trace level), so traced and untraced runs
        // keep byte-identical metrics.
        let telemetry = crate::metrics::DeviceTelemetry {
            mean_queue_depth: self.device.mean_queue_depth(),
            utilization: self.device.utilization(self.config.duration_us),
            queue_depth_timeline: self.device.queue_depth_timeline(),
            utilization_timeline: self.device.utilization_timeline(),
        };
        let metrics = RunMetrics::assemble(
            self.completed_in_window as f64 / duration_s,
            &self.registry,
            self.busy_ns as f64 / (self.duration_ns as f64 * self.config.cores as f64),
            &self.tracer,
            self.config.duration_us,
            self.completed_in_window,
            self.query_read_bytes,
            self.query_io_count,
            self.fstats,
            self.prov_cache_hits,
            self.prov_cache_hit_bytes,
            telemetry,
        );
        TracedRun {
            metrics,
            trace: self.obs.finish(self.finished_ns),
            registry: self.registry,
        }
    }

    /// A closed-loop client issues its next query at time `t` (no new issues
    /// after the measurement window closes).
    fn issue_query(&mut self, client: usize, t: u64) {
        if t >= self.duration_ns {
            return;
        }
        self.issued_per_client[client] += 1;
        if self.config.max_concurrent > 0 && self.active_count >= self.config.max_concurrent {
            self.admission.push_back((client, t));
            return;
        }
        self.activate(client, t, t);
    }

    /// Activates a query at time `t` that was issued at `issued_ns`
    /// (earlier than `t` only when it sat in the admission queue). The
    /// wait is billed to the queue-wait phase, which the latency metric
    /// excludes: reported latency starts at activation.
    fn activate(&mut self, client: usize, t: u64, issued_ns: u64) {
        let plan = (self.issue_counter as usize) % self.plans.len();
        let uid = self.issue_counter;
        self.issue_counter += 1;
        let wait_ns = t - issued_ns;
        if wait_ns > 0 {
            self.admission_waits += 1;
            self.queue_wait_hist.record(wait_ns);
        }
        // The root span opens at issue time so the queue wait nests
        // inside it; every other phase lives in [activation, completion].
        let span = self
            .obs
            .begin_span(SpanId::NONE, uid, SpanName::Query { plan }, issued_ns);
        if wait_ns > 0 && span.is_some() {
            let w = self
                .obs
                .begin_span(span, uid, SpanName::Phase(ObsPhase::QueueWait), issued_ns);
            self.obs.end_span(w, t);
        }
        let mut phase_ns = [0u64; ObsPhase::COUNT];
        phase_ns[ObsPhase::QueueWait.index()] = wait_ns;
        self.fstats.ios_planned += self.plan_reads[plan];
        // A recycled slot hands its request-state buffer on, so a query does
        // not reallocate it on its first beam.
        let slot = self.free_slots.pop();
        let mut reqs_state = match slot {
            Some(slot) => std::mem::take(&mut self.queries[slot].reqs_state),
            None => Vec::new(),
        };
        reqs_state.clear();
        let q = ActiveQuery {
            plan,
            seg: 0,
            phase: Phase::Cpu,
            started_ns: t,
            remaining_subtasks: 0,
            pending_ios: 0,
            client,
            live: true,
            uid,
            span,
            phase_span: SpanId::NONE,
            attr_phase: ObsPhase::QueueWait,
            attr_since_ns: t,
            phase_ns,
            deadline_ns: t.saturating_add(self.deadline_budget_ns),
            degraded: false,
            beam_seq: 0,
            beam: &[],
            reqs_state,
        };
        let slot = if let Some(slot) = slot {
            self.queries[slot] = q;
            slot
        } else {
            self.queries.push(q);
            self.queries.len() - 1
        };
        self.active_count += 1;
        self.advance(slot, t);
    }

    /// Switches the query's attribution to `phase` at time `t`: the
    /// interval since the last switch is billed to the previous phase,
    /// and (at span level) the open phase span is closed and a new child
    /// opened. Re-setting the current phase merges contiguous intervals.
    fn set_phase(&mut self, query: usize, phase: ObsPhase, t: u64) {
        let q = &mut self.queries[query];
        if q.attr_phase == phase {
            return;
        }
        q.phase_ns[q.attr_phase.index()] += t - q.attr_since_ns;
        q.attr_since_ns = t;
        q.attr_phase = phase;
        if q.span.is_some() {
            let (span, uid, prev) = (q.span, q.uid, q.phase_span);
            self.obs.end_span(prev, t);
            let new = self.obs.begin_span(span, uid, SpanName::Phase(phase), t);
            self.queries[query].phase_span = new;
        }
    }

    /// The query in slot `query`. Slots are named only by events and
    /// ready-queue entries this simulation created, so the index is always
    /// in range.
    #[inline]
    fn q(&mut self, query: usize) -> &mut ActiveQuery<'a> {
        &mut self.queries[query]
    }

    /// Moves the query to its next segment (current one already complete).
    fn advance(&mut self, query: usize, t: u64) {
        loop {
            let (plan_idx, seg_idx, past_deadline) = {
                let q = self.q(query);
                (q.plan, q.seg, t >= q.deadline_ns)
            };
            let plans: &'a [QueryPlan] = self.plans;
            let Some(seg) = plans.get(plan_idx).and_then(|p| p.segments().get(seg_idx)) else {
                self.complete(query, t);
                return;
            };
            match seg {
                Segment::Cpu { total_us, fanout } if *total_us > 0.0 => {
                    let labels = self.seg_phases.get(plan_idx);
                    let label = labels.and_then(|l| l.get(seg_idx).copied());
                    let label = label.unwrap_or(ObsPhase::Compute);
                    self.start_cpu(query, t, label, Phase::Cpu, *total_us, *fanout);
                    return;
                }
                Segment::Delay { us } if *us > 0.0 => {
                    self.set_phase(query, ObsPhase::Delay, t);
                    self.push_event(t + us_to_ns(*us), EventKind::Delay { query });
                    return;
                }
                Segment::Io { reqs } if past_deadline && !reqs.is_empty() => {
                    self.skip_beam(query, reqs.len());
                }
                Segment::Io { reqs } | Segment::Write { reqs } if !reqs.is_empty() => {
                    self.start_submit(query, t, reqs.len());
                    return;
                }
                Segment::Overlapped {
                    total_us,
                    fanout,
                    reqs,
                } => {
                    if !reqs.is_empty() {
                        if !past_deadline {
                            // Same submission model as a blocking beam: the
                            // requests go out once the submission subtask
                            // completes, and only then does the overlapped
                            // CPU start.
                            self.start_submit(query, t, reqs.len());
                            return;
                        }
                        // The reads (speculative or next-hop fetches) are
                        // abandoned, but the CPU still runs — the distances
                        // it computes are for data already in memory.
                        self.skip_beam(query, reqs.len());
                    }
                    // Without reads the segment is a plain CPU one.
                    if *total_us > 0.0 {
                        self.start_cpu(query, t, ObsPhase::Compute, Phase::Cpu, *total_us, *fanout);
                        return;
                    }
                }
                // A segment with no work in it.
                _ => {}
            }
            self.q(query).seg += 1;
        }
    }

    /// Queues `total_us` of CPU work as `fanout` equal subtasks, billed to
    /// `label`; the query's `phase` says what their completion means.
    fn start_cpu(
        &mut self,
        query: usize,
        t: u64,
        label: ObsPhase,
        phase: Phase,
        total_us: f64,
        fanout: usize,
    ) {
        self.set_phase(query, label, t);
        let fanout = fanout.max(1);
        let sub_ns = us_to_ns_ceil(total_us / cast::f64_from_usize(fanout));
        let q = self.q(query);
        q.phase = phase;
        q.remaining_subtasks = fanout;
        for _ in 0..fanout {
            self.ready.push_back((query, sub_ns));
        }
    }

    /// Queues the submission subtask of a beam of `n_reqs` requests:
    /// submission runs on a core first, the requests are issued when it
    /// completes.
    fn start_submit(&mut self, query: usize, t: u64, n_reqs: usize) {
        self.set_phase(query, ObsPhase::BeamIssue, t);
        let submit_ns = us_to_ns(cast::f64_from_usize(n_reqs) * self.config.ssd.submit_cpu_us);
        let q = self.q(query);
        q.phase = Phase::IoSubmit;
        q.remaining_subtasks = 1;
        self.ready.push_back((query, submit_ns.max(1)));
    }

    /// Past the per-query IO deadline: a beam of `n_reqs` reads is skipped
    /// unread and the query degrades to a partial result.
    fn skip_beam(&mut self, query: usize, n_reqs: usize) {
        let n = cast::u64_from_usize(n_reqs);
        self.fstats.deadline_skips += n;
        self.fstats.ios_abandoned += n;
        self.q(query).degraded = true;
    }

    /// Blocks the query on the `pending` requests of the beam it just
    /// issued. Service time is flash-service when the device is involved;
    /// a beam fully absorbed by the page cache is a zero-duration cache-hit
    /// phase instead.
    fn wait_for_beam(&mut self, query: usize, t: u64, pending: usize) {
        let label = if pending == 0 {
            ObsPhase::CacheHit
        } else {
            ObsPhase::FlashService
        };
        self.set_phase(query, label, t);
        let q = self.q(query);
        q.phase = Phase::IoWait;
        q.pending_ios = pending;
        if pending == 0 {
            q.seg += 1;
            self.advance(query, t);
        }
    }

    fn on_subtask_done(&mut self, query: usize, t: u64) {
        let q = self.q(query);
        match q.phase {
            Phase::Cpu => {
                q.remaining_subtasks -= 1;
                if q.remaining_subtasks == 0 {
                    q.seg += 1;
                    self.advance(query, t);
                }
            }
            Phase::IoSubmit => {
                // Issue the beam now. Copying the `&'a` slice out of `self`
                // lets the beam stay borrowed from the plans while the issue
                // path takes `&mut self`.
                let (plan_idx, seg_idx) = (q.plan, q.seg);
                let plans: &'a [QueryPlan] = self.plans;
                let seg = plans.get(plan_idx).and_then(|p| p.segments().get(seg_idx));
                let (reqs, is_write, overlap_cpu) = match seg {
                    Some(Segment::Io { reqs }) => (reqs.as_slice(), false, None),
                    Some(Segment::Write { reqs }) => (reqs.as_slice(), true, None),
                    Some(Segment::Overlapped {
                        total_us,
                        fanout,
                        reqs,
                    }) => (reqs.as_slice(), false, Some((*total_us, *fanout))),
                    // Phase-machine invariant: advance() sets IoSubmit only
                    // on Io/Write/Overlapped segments with requests, so this
                    // arm cannot be reached.
                    // sann-lint: allow(panic-path) -- phase machine sets IoSubmit only on io-bearing segments
                    _ => unreachable!("IoSubmit phase on non-io segment"),
                };
                self.beams += 1;
                self.beam_width_hist
                    .record(cast::u64_from_usize(reqs.len()));
                let pending = if is_write {
                    self.issue_writes(query, t, reqs)
                } else {
                    self.issue_beam(query, t, reqs)
                };
                if pending == 0 {
                    self.beams_cache_absorbed += 1;
                }
                match overlap_cpu {
                    // The CPU half of an overlapped segment starts once its
                    // reads are out. Its time is billed to compute — overlap
                    // is the whole point — and only a tail where reads
                    // outlive the CPU shows up as flash service.
                    Some((total_us, fanout)) if total_us > 0.0 => {
                        self.q(query).pending_ios = pending;
                        self.start_cpu(
                            query,
                            t,
                            ObsPhase::Compute,
                            Phase::Overlap,
                            total_us,
                            fanout,
                        );
                    }
                    // Nothing to overlap with: a blocking beam.
                    _ => self.wait_for_beam(query, t, pending),
                }
            }
            Phase::Overlap => {
                q.remaining_subtasks -= 1;
                if q.remaining_subtasks > 0 {
                    return;
                }
                if q.pending_ios == 0 {
                    q.seg += 1;
                    self.advance(query, t);
                } else {
                    // The overlapped CPU is done but reads are still in
                    // flight: only this exposed tail counts as flash
                    // service — the covered portion was billed to compute.
                    q.phase = Phase::IoWait;
                    self.set_phase(query, ObsPhase::FlashService, t);
                }
            }
            // Subtask completions are only scheduled during Cpu/IoSubmit/
            // Overlap phases; the event queue cannot deliver one while
            // IoWait.
            // sann-lint: allow(panic-path) -- subtask events are never scheduled during IoWait
            Phase::IoWait => unreachable!("subtask completion while waiting on io"),
        }
    }

    /// Records one device attempt of request `r` in the trace.
    fn io_span(
        &mut self,
        query: usize,
        r: &IoReq,
        write: bool,
        attempt: Attempt,
        end_ns: u64,
        outcome: IoOutcome,
    ) {
        if !self.obs.level().io() {
            return;
        }
        let (owner, uid) = {
            let q = self.q(query);
            (q.span, q.uid)
        };
        self.obs.io_span(IoSpan {
            owner,
            query: uid,
            start_ns: attempt.start_ns,
            end_ns,
            offset: r.offset,
            len: r.len,
            write,
            provenance: r.provenance,
            attempt: attempt.ordinal,
            hedged: attempt.hedged,
            outcome,
        });
    }

    /// Issues one batch of writes. Writes bypass the page cache (write-
    /// through / direct I/O semantics) and the fault layer, so each is one
    /// device operation whose completion time is known when it is
    /// scheduled, and one event at the latest of them settles the batch.
    /// Returns the number in flight.
    fn issue_writes(&mut self, query: usize, t: u64, reqs: &[IoReq]) -> usize {
        let t_us = ns_to_us(t);
        let first = Attempt {
            start_ns: t,
            ..Attempt::default()
        };
        let mut batch_done_ns = 0;
        for r in reqs {
            self.tracer
                .record_write_tagged(t_us, r.offset, r.len, r.needed, r.provenance);
            self.writes_device += 1;
            let done_ns = us_to_ns(self.device.schedule_write(t_us, r.len));
            self.io_span(query, r, true, first, done_ns, IoOutcome::Ok);
            batch_done_ns = batch_done_ns.max(done_ns);
            if force_open() {
                self.push_event(done_ns, EventKind::WritesDone { query, n: 1 });
            }
        }
        if !force_open() {
            let n = reqs.len();
            self.push_event(batch_done_ns, EventKind::WritesDone { query, n });
        }
        reqs.len()
    }

    /// Issues one beam of reads: page-cache hits are served on the spot
    /// (without touching the device, so they cannot fail or spike) and every
    /// miss starts its first device attempt. An attempt that seals is only
    /// counted — one event, pushed after the loop at the latest of their
    /// completion times, settles all the sealed reads of the beam; an open
    /// one has its completion event and, when the policy hedges, its hedge
    /// timer. The beam completes when every read settles. Returns the number
    /// of reads left in flight; the caller decides how the query waits for
    /// them.
    fn issue_beam(&mut self, query: usize, t: u64, reqs: &'a [IoReq]) -> usize {
        let q = self.q(query);
        q.beam_seq += 1;
        q.beam = reqs;
        q.reqs_state.clear();
        let (uid, beam) = (q.uid, q.beam_seq);
        let mut pending = 0usize;
        let (mut sealed, mut sealed_done_ns) = (0usize, 0u64);
        for (req, r) in reqs.iter().enumerate() {
            self.query_io_count += 1;
            self.query_read_bytes += u64::from(r.len);
            if self.cache.access(r.offset, r.len) == 0 {
                self.reads_cache_hit += 1;
                // sann-lint: allow(panic-path) -- provenance.index() < COUNT by construction
                self.prov_cache_hits[r.provenance.index()] += 1;
                // sann-lint: allow(panic-path) -- provenance.index() < COUNT by construction
                self.prov_cache_hit_bytes[r.provenance.index()] += u64::from(r.len);
                self.fstats.ios_completed += 1;
                continue;
            }
            let read = ReadRef {
                query,
                uid,
                beam,
                req,
            };
            pending += 1;
            if let Some(done_ns) = self.start_attempt(read, false, t) {
                // The bus is FIFO, so the last sealed read is also the
                // latest; the beam's time does not lean on that.
                sealed += 1;
                sealed_done_ns = sealed_done_ns.max(done_ns);
            } else if self.hedge_ns > 0 {
                self.push_event(t + self.hedge_ns, EventKind::Hedge { read });
            }
        }
        // Pushed here, not later: every event of this call then has a
        // sequence number in one contiguous range, so the beam's completion
        // keeps the order against every other query's events that its last
        // read's own completion event would have had.
        if sealed > 0 {
            let done = EventKind::SealedDone { query, n: sealed };
            self.push_event(sealed_done_ns, done);
        }
        pending
    }

    /// Whether an attempt's resolution is certain the moment it is
    /// scheduled, given when the device will complete it and whether the
    /// injector drew an error for it: it is the read's first attempt (a
    /// retry or a hedge is part of a history that is still being written),
    /// it will not fail, and it lands no later than its hedge timer would
    /// fire. On the tie the completion wins, as the event pushed first.
    /// Nothing else can happen to such a read — `resolve` serves data even
    /// past the query's deadline — so it is *sealed*: decided per attempt,
    /// from the draw and the schedule, under every profile alike.
    fn seals(&self, attempt: Attempt, done_ns: u64, failed: bool) -> bool {
        attempt.ordinal == 0
            && !failed
            && (self.hedge_ns == 0 || done_ns <= attempt.start_ns + self.hedge_ns)
    }

    /// Starts one device attempt of a read — the only place reads reach
    /// the device. Draws the attempt's fault outcome from its identity-
    /// keyed RNG stream and schedules the (possibly inflated) device
    /// service. An attempt that seals ([`Simulation::seals`]) is finished
    /// with here: its span is recorded and its completion time returned for
    /// `issue_beam` to fold into the beam's one event. Any other is *open*:
    /// it is registered as in flight, sizing the beam's request state if it
    /// is the first to need it, and completes through `on_read_done`.
    /// Failed attempts still consume device time and block-layer trace
    /// records — the host only learns of the error at completion.
    fn start_attempt(&mut self, read: ReadRef, hedged: bool, t: u64) -> Option<u64> {
        let q = self.q(read.query);
        let beam: &'a [IoReq] = q.beam;
        // Every caller names a read of the beam in flight; if that ever
        // broke, dropping the attempt (debug builds assert) is safer than
        // panicking in the middle of a sweep.
        let Some(io) = beam.get(read.req) else {
            debug_assert!(false, "attempt for a read outside the beam");
            return None;
        };
        let attempt = Attempt {
            // No request state yet means no open attempt yet, of any read.
            ordinal: q.reqs_state.get(read.req).map_or(0, |r| r.attempts),
            hedged,
            start_ns: t,
        };
        let tag = u64::from(attempt.ordinal) | if hedged { HEDGE_TAG } else { 0 };
        let t_us = ns_to_us(t);
        let fault = self
            .injector
            .draw(read.uid, cast::u64_from_usize(read.req), tag, t_us);
        self.fstats.latency_spikes += u64::from(fault.spiked);
        self.fstats.injected_errors += u64::from(fault.error);
        self.fstats.retries += u64::from(!hedged && attempt.ordinal > 0);
        self.fstats.gc_stall_ns += us_to_ns(fault.gc_stall_us);
        self.tracer
            .record_read_tagged(t_us, io.offset, io.len, io.needed, io.provenance);
        self.reads_device += 1;
        let done_ns = us_to_ns(self.device.schedule_faulted(t_us, io.len, fault.extra_us));
        // A span is recorded when its outcome is known: now for a sealed
        // attempt, when it ends (completion, error or cancellation) for an
        // open one.
        if self.seals(attempt, done_ns, fault.error) {
            self.io_span(read.query, io, false, attempt, done_ns, IoOutcome::Ok);
            if !force_open() {
                return Some(done_ns);
            }
        }
        let q = self.q(read.query);
        if q.reqs_state.is_empty() {
            q.reqs_state.resize(beam.len(), ReqState::default());
        }
        let Some(r) = q.reqs_state.get_mut(read.req) else {
            debug_assert!(false, "attempt for a read outside the beam");
            return None;
        };
        let Some(slot) = r.flight.get_mut(usize::from(r.inflight)) else {
            debug_assert!(false, "more than {} attempts in flight", r.flight.len());
            return None;
        };
        *slot = attempt;
        r.inflight += 1;
        r.attempts += 1;
        if !hedged {
            r.tries += 1;
        }
        self.push_event(
            done_ns,
            EventKind::ReadDone {
                read,
                attempt: attempt.ordinal,
                hedged,
                failed: fault.error,
            },
        );
        None
    }

    /// The read an event refers to, if the query is still waiting on it:
    /// same occupant of the slot, same beam, not yet settled. Anything else
    /// is a stale event — a hedge-race loser, a timer its read outran — and
    /// is dropped.
    fn open_read(&mut self, read: ReadRef) -> Option<(&mut ReqState, &'a IoReq)> {
        let q = self.queries.get_mut(read.query)?;
        let current = q.live
            && q.uid == read.uid
            && q.beam_seq == read.beam
            && matches!(q.phase, Phase::IoWait | Phase::Overlap);
        if !current {
            return None;
        }
        let beam: &'a [IoReq] = q.beam;
        let (r, io) = (q.reqs_state.get_mut(read.req)?, beam.get(read.req)?);
        (!r.settled).then_some((r, io))
    }

    fn on_read_done(&mut self, read: ReadRef, attempt: u8, hedged: bool, failed: bool, t: u64) {
        let Some((r, io)) = self.open_read(read) else {
            return;
        };
        // Remove this attempt from the in-flight set. Every completion
        // event corresponds to an attempt this state machine put in flight;
        // an unknown one would mean a duplicated event, and dropping it
        // beats panicking mid-run.
        let n = usize::from(r.inflight);
        let mut inflight = r.flight.iter().take(n);
        let Some(pos) = inflight.position(|a| a.ordinal == attempt && a.hedged == hedged) else {
            debug_assert!(false, "completion for an attempt not in flight");
            return;
        };
        let done = r.flight[pos];
        r.flight[pos] = r.flight[n - 1];
        r.inflight -= 1;
        let inflight_left = r.inflight;
        // Only a reference run (`force_open`) brings a sealed attempt this
        // far, its span already recorded.
        if !(force_open() && self.seals(done, t, failed)) {
            let outcome = if failed {
                IoOutcome::Error
            } else {
                IoOutcome::Ok
            };
            self.io_span(read.query, io, false, done, t, outcome);
        }
        if !failed {
            self.resolve(read, io, t);
        } else if inflight_left == 0 {
            self.retry_or_abandon(read, t);
        }
        // Otherwise a sibling attempt may still succeed; wait for it.
    }

    /// Marks a read as served. Any sibling attempt still in flight lost the
    /// race and is cancelled exactly once, here: the host stops waiting
    /// now, while the device finishes the wasted work unobserved (its
    /// completion event is dropped as stale).
    fn resolve(&mut self, read: ReadRef, io: &IoReq, t: u64) {
        let Some(r) = self.q(read.query).reqs_state.get_mut(read.req) else {
            return;
        };
        r.settled = true;
        let (losers, n_losers) = (r.flight, usize::from(r.inflight));
        for &loser in losers.iter().take(n_losers) {
            self.fstats.hedges_cancelled += 1;
            self.io_span(read.query, io, false, loser, t, IoOutcome::Cancelled);
        }
        self.fstats.ios_completed += 1;
        self.request_settled(read.query, 1, t);
    }

    /// A failed read with nothing left in flight: retry if the budget and
    /// the deadline allow, otherwise abandon it.
    fn retry_or_abandon(&mut self, read: ReadRef, t: u64) {
        let policy = self.config.faults.retry;
        let q = self.q(read.query);
        let past_deadline = t >= q.deadline_ns;
        let Some(r) = q.reqs_state.get_mut(read.req) else {
            return;
        };
        if past_deadline || u32::from(r.tries) > policy.max_retries {
            self.abandon(read, t, past_deadline);
            return;
        }
        let backoff_us = policy.backoff_us * policy.backoff_mult.powi(i32::from(r.tries) - 1);
        r.retry_pending = true;
        self.push_event(
            t + us_to_ns(backoff_us.max(0.0)).max(1),
            EventKind::Retry { read },
        );
    }

    fn on_retry(&mut self, read: ReadRef, t: u64) {
        let Some((r, _)) = self.open_read(read) else {
            return;
        };
        if !r.retry_pending {
            return;
        }
        debug_assert_eq!(r.inflight, 0, "retry scheduled with attempts in flight");
        r.retry_pending = false;
        if t >= self.q(read.query).deadline_ns {
            self.abandon(read, t, true);
        } else {
            let sealed = self.start_attempt(read, false, t);
            debug_assert!(sealed.is_none(), "a retry is never sealed");
        }
    }

    fn on_hedge(&mut self, read: ReadRef, t: u64) {
        let Some((r, _)) = self.open_read(read) else {
            return;
        };
        // Hedge only a read still waiting on its primary/retry attempt:
        // not between retries, not already hedged, not past the deadline.
        let waiting = r.inflight > 0 && usize::from(r.inflight) < r.flight.len();
        if waiting && t < self.q(read.query).deadline_ns {
            self.fstats.hedges_issued += 1;
            let sealed = self.start_attempt(read, true, t);
            debug_assert!(sealed.is_none(), "a hedge is never sealed");
        }
    }

    /// Gives up on a read: the query degrades to a partial top-k and the
    /// loss is accounted (deadline vs retry exhaustion).
    fn abandon(&mut self, read: ReadRef, t: u64, deadline_hit: bool) {
        let q = self.q(read.query);
        q.degraded = true;
        if let Some(r) = q.reqs_state.get_mut(read.req) {
            r.settled = true;
        }
        self.fstats.ios_abandoned += 1;
        if deadline_hit {
            self.fstats.deadline_skips += 1;
        } else {
            self.fstats.retry_exhausted += 1;
        }
        self.request_settled(read.query, 1, t);
    }

    /// `n` requests of the beam settled — reads served or abandoned, writes
    /// completed; the beam — and with it the segment — completes when the
    /// last one does. Every caller acts for a beam the query is still
    /// waiting on (an event naming a read has been through `open_read`; one
    /// naming only the query counts requests the query cannot leave
    /// behind), so a stale call is a bug.
    fn request_settled(&mut self, query: usize, n: usize, t: u64) {
        let q = self.q(query);
        debug_assert!(
            q.live && matches!(q.phase, Phase::IoWait | Phase::Overlap) && n <= q.pending_ios,
            "{n} requests settled for a query not waiting on them"
        );
        q.pending_ios -= n;
        if q.pending_ios == 0 {
            if q.phase == Phase::Overlap && q.remaining_subtasks > 0 {
                // Settled under cover of the overlapped CPU; the segment
                // completes when the CPU does.
                return;
            }
            q.seg += 1;
            self.advance(query, t);
        }
    }

    fn complete(&mut self, query: usize, t: u64) {
        let (client, started, span, phase_span, phase_ns, degraded) = {
            let q = &mut self.queries[query];
            q.live = false;
            // Bill the trailing interval to whatever phase was current.
            q.phase_ns[q.attr_phase.index()] += t - q.attr_since_ns;
            q.attr_since_ns = t;
            (
                q.client,
                q.started_ns,
                q.span,
                q.phase_span,
                q.phase_ns,
                q.degraded,
            )
        };
        if degraded {
            self.fstats.degraded_queries += 1;
        }
        self.obs.end_span(phase_span, t);
        self.obs.end_span(span, t);
        self.finished_ns = t;
        let latency_ns = t - started;
        // Phase-attribution audit (the observability analog of the I/O
        // conservation check): the in-latency phases partition
        // [activation, completion], so their sum must equal the reported
        // latency exactly — not just within the ISSUE's 1 µs budget. A
        // mismatch means some interval was double-billed or dropped.
        let attributed: u64 = ObsPhase::ALL
            .iter()
            .filter(|p| p.in_latency())
            .map(|p| phase_ns[p.index()])
            .sum();
        assert_eq!(
            attributed, latency_ns,
            "phase attribution leaked: {attributed} ns across phases vs {latency_ns} ns latency"
        );
        self.registry.record_query(latency_ns, &phase_ns);
        self.free_slots.push(query);
        self.active_count -= 1;
        if t <= self.duration_ns {
            self.completed_in_window += 1;
        }
        // Admit a waiting query before the client re-issues (FIFO fairness).
        if let Some((waiting, issued_ns)) = self.admission.pop_front() {
            self.activate(waiting, t, issued_ns);
        }
        self.issue_query(client, t);
    }

    fn dispatch(&mut self, t: u64) {
        while self.free_cores > 0 {
            let Some((query, dur_ns)) = self.ready.pop_front() else {
                return;
            };
            self.free_cores -= 1;
            self.busy_ns += dur_ns;
            self.push_event(t + dur_ns, EventKind::Subtask { query });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_index::IoReq;

    fn cpu_plan(us: f64) -> QueryPlan {
        QueryPlan::new(vec![Segment::cpu(us)])
    }

    #[test]
    fn us_to_ns_matches_the_open_coded_casts() {
        // Bit-exact with the expressions these helpers replaced, so golden
        // traces and determinism baselines are unchanged.
        for us in [0.0, 0.1, 1.0, 3.7, 12.5, 1e6, 30e6, 1.0 / 3.0] {
            assert_eq!(us_to_ns(us), (us * NS_PER_US) as u64, "us={us}");
            assert_eq!(us_to_ns_ceil(us), (us * NS_PER_US).ceil() as u64, "us={us}");
        }
        assert_eq!(us_to_ns_ceil(0.0001), 1, "ceil keeps sub-ns work nonzero");
        assert_eq!(us_to_ns(0.0001), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite non-negative")]
    fn us_to_ns_rejects_nan_in_debug() {
        us_to_ns(f64::NAN);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite non-negative")]
    fn us_to_ns_ceil_rejects_negative_in_debug() {
        us_to_ns_ceil(-1.0);
    }

    #[test]
    fn single_client_cpu_bound_qps() {
        let config = RunConfig {
            cores: 4,
            concurrency: 1,
            duration_us: 1e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[cpu_plan(100.0)]);
        assert!((m.qps - 10_000.0).abs() < 200.0, "qps {}", m.qps);
        assert!((m.p99_latency_us - 100.0).abs() < 2.0);
        // One core busy out of four.
        assert!(
            (m.cpu_utilization - 0.25).abs() < 0.02,
            "cpu {}",
            m.cpu_utilization
        );
    }

    #[test]
    fn throughput_scales_until_cores_saturate() {
        let mut last_qps = 0.0;
        for conc in [1usize, 2, 4, 8] {
            let config = RunConfig {
                cores: 4,
                concurrency: conc,
                duration_us: 1e6,
                ..RunConfig::default()
            };
            let m = Executor::new(config).run(&[cpu_plan(100.0)]);
            if conc <= 4 {
                assert!(
                    (m.qps - conc as f64 * 10_000.0).abs() < 500.0,
                    "conc {conc} qps {}",
                    m.qps
                );
            } else {
                // Saturated at 4 cores.
                assert!(
                    (m.qps - 40_000.0).abs() < 1000.0,
                    "conc {conc} qps {}",
                    m.qps
                );
                assert!(m.p99_latency_us > 150.0, "queueing must inflate latency");
            }
            assert!(m.qps >= last_qps - 500.0);
            last_qps = m.qps;
        }
    }

    #[test]
    fn io_plan_latency_includes_device_time() {
        let ssd = SsdModel::samsung_990_pro();
        let plan = QueryPlan::new(vec![
            Segment::cpu(10.0),
            Segment::io(vec![IoReq::new(0, 4096)]),
            Segment::cpu(10.0),
        ]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 1e6,
            ssd,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[plan]);
        let expect = 10.0 + ssd.submit_cpu_us + ssd.idle_latency_us(4096) + 10.0;
        assert!(
            (m.mean_latency_us - expect).abs() < 2.0,
            "latency {} vs {}",
            m.mean_latency_us,
            expect
        );
        assert!(m.read_bytes_per_query > 4000.0);
    }

    #[test]
    fn beam_reads_overlap_on_device() {
        let ssd = SsdModel::samsung_990_pro();
        let beam: Vec<IoReq> = (0..8).map(|i| IoReq::new(i * 4096, 4096)).collect();
        let plan = QueryPlan::new(vec![Segment::io(beam)]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 1e6,
            ssd,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[plan]);
        // 8 parallel reads should take ~1 media latency, not 8.
        assert!(
            m.mean_latency_us < 2.5 * ssd.base_latency_us,
            "beam latency {}",
            m.mean_latency_us
        );
    }

    #[test]
    fn admission_cap_limits_throughput() {
        let uncapped = RunConfig {
            cores: 8,
            concurrency: 8,
            duration_us: 1e6,
            ..RunConfig::default()
        };
        let capped = RunConfig {
            max_concurrent: 2,
            ..uncapped
        };
        let plan = cpu_plan(100.0);
        let m_un = Executor::new(uncapped).run(std::slice::from_ref(&plan));
        let m_cap = Executor::new(capped).run(&[plan]);
        assert!(
            m_cap.qps < m_un.qps / 3.0,
            "cap 2 of 8: {} vs {}",
            m_cap.qps,
            m_un.qps
        );
    }

    #[test]
    fn intra_query_parallelism_cuts_latency() {
        let serial = QueryPlan::new(vec![Segment::cpu(800.0)]);
        let fanned = QueryPlan::new(vec![Segment::cpu_parallel(800.0, 8)]);
        let config = RunConfig {
            cores: 8,
            concurrency: 1,
            duration_us: 1e6,
            ..RunConfig::default()
        };
        let m_serial = Executor::new(config).run(&[serial]);
        let m_fan = Executor::new(config).run(&[fanned]);
        assert!((m_serial.mean_latency_us - 800.0).abs() < 5.0);
        assert!((m_fan.mean_latency_us - 100.0).abs() < 5.0);
        assert!(m_fan.qps > 6.0 * m_serial.qps);
    }

    #[test]
    fn page_cache_absorbs_repeated_reads() {
        let plan = QueryPlan::new(vec![Segment::io(vec![IoReq::new(0, 4096)])]);
        let cold = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 0.2e6,
            cache_bytes: 0,
            ..RunConfig::default()
        };
        let warm = RunConfig {
            cache_bytes: 1 << 20,
            ..cold
        };
        let m_cold = Executor::new(cold).run(std::slice::from_ref(&plan));
        let m_warm = Executor::new(warm).run(&[plan]);
        assert!(
            m_warm.qps > 3.0 * m_cold.qps,
            "{} vs {}",
            m_warm.qps,
            m_cold.qps
        );
        // The warm run hits cache after the first read: almost no device traffic.
        assert!(m_warm.device_read_bytes < m_cold.device_read_bytes / 10);
    }

    #[test]
    fn delay_adds_latency_not_cpu() {
        let plan = QueryPlan::new(vec![Segment::delay(500.0), Segment::cpu(10.0)]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 1e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[plan]);
        assert!(
            (m.mean_latency_us - 510.0).abs() < 2.0,
            "latency {}",
            m.mean_latency_us
        );
        assert!(
            m.cpu_utilization < 0.02,
            "delays must not burn CPU: {}",
            m.cpu_utilization
        );
    }

    #[test]
    fn concurrent_writes_inflate_read_latency() {
        let ssd = SsdModel::samsung_990_pro();
        let read_plan = QueryPlan::new(vec![Segment::io(vec![IoReq::new(0, 4096)])]);
        let write_plan = QueryPlan::new(vec![Segment::write(
            (0..16)
                .map(|i| IoReq::new((1 << 30) + i * 4096, 4096))
                .collect(),
        )]);
        let alone = RunConfig {
            cores: 4,
            concurrency: 8,
            duration_us: 0.5e6,
            ssd,
            ..RunConfig::default()
        };
        let m_alone = Executor::new(alone).run(std::slice::from_ref(&read_plan));
        // Same read clients, plus heavy writers sharing the device.
        let mixed = RunConfig {
            concurrency: 72,
            ..alone
        };
        let m_mixed = Executor::new(mixed).run(&[&[read_plan], &vec![write_plan; 8][..]].concat());
        assert!(m_mixed.io_stats.write_bytes > 0, "writers must write");
        assert!(
            m_mixed.p99_latency_us > m_alone.p99_latency_us,
            "read-write interference must inflate tail latency: {} vs {}",
            m_mixed.p99_latency_us,
            m_alone.p99_latency_us
        );
    }

    #[test]
    fn deterministic_runs() {
        let plan = QueryPlan::new(vec![
            Segment::cpu(30.0),
            Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
            Segment::cpu(10.0),
        ]);
        let config = RunConfig {
            cores: 4,
            concurrency: 16,
            duration_us: 0.5e6,
            ..RunConfig::default()
        };
        let a = Executor::new(config).run(std::slice::from_ref(&plan));
        let b = Executor::new(config).run(&[plan]);
        assert_eq!(a.qps, b.qps);
        assert_eq!(a.p99_latency_us, b.p99_latency_us);
        assert_eq!(a.device_read_bytes, b.device_read_bytes);
    }

    #[test]
    fn round_robin_covers_all_plans() {
        let fast = cpu_plan(10.0);
        let slow = cpu_plan(1000.0);
        let config = RunConfig {
            cores: 1,
            concurrency: 1,
            duration_us: 1e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[fast, slow]);
        // Mean of alternating 10/1000 µs queries ≈ 505 µs.
        assert!(
            (m.mean_latency_us - 505.0).abs() < 20.0,
            "mean {}",
            m.mean_latency_us
        );
    }

    #[test]
    #[should_panic(expected = "plans must be non-empty")]
    fn empty_plans_panic() {
        let config = RunConfig::default();
        Executor::new(config).run(&[]);
    }

    fn mixed_plan() -> QueryPlan {
        QueryPlan::new(vec![
            Segment::cpu(20.0),
            Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
            Segment::cpu(10.0),
        ])
    }

    #[test]
    fn traced_run_produces_valid_nested_spans() {
        let config = RunConfig {
            cores: 2,
            concurrency: 4,
            duration_us: 0.05e6,
            ..RunConfig::default()
        };
        let run = Executor::new(config).run_traced(&[mixed_plan()], sann_obs::TraceLevel::Io);
        run.trace.validate().unwrap();
        assert!(!run.trace.spans.is_empty());
        assert!(!run.trace.io.is_empty(), "direct I/O plan must trace reads");
        // One root span per completed-or-started query; per query the
        // in-latency phase children sum exactly to the root duration
        // minus queue wait.
        let roots: Vec<_> = run
            .trace
            .spans
            .iter()
            .filter(|s| matches!(s.name, SpanName::Query { .. }))
            .collect();
        assert!(!roots.is_empty());
        for root in roots {
            let mut child_ns = 0u64;
            let mut wait_ns = 0u64;
            for s in run.trace.query_spans(root.query) {
                if let SpanName::Phase(p) = s.name {
                    if p.in_latency() {
                        child_ns += s.duration_ns();
                    } else {
                        wait_ns += s.duration_ns();
                    }
                }
            }
            assert_eq!(
                child_ns + wait_ns,
                root.duration_ns(),
                "query {} children must partition the root span",
                root.query
            );
        }
        // Registry counters line up with trace contents.
        assert_eq!(
            run.registry.counter("engine.reads_device")
                + run.registry.counter("engine.writes_device"),
            run.trace.io.len() as u64
        );
        assert!(run.registry.counter("engine.beams") > 0);
    }

    #[test]
    fn traced_run_metrics_match_untraced() {
        let config = RunConfig {
            cores: 2,
            concurrency: 8,
            duration_us: 0.1e6,
            cache_bytes: 1 << 20,
            ..RunConfig::default()
        };
        let plain = Executor::new(config).run(&[mixed_plan()]);
        for level in sann_obs::TraceLevel::ALL {
            let traced = Executor::new(config).run_traced(&[mixed_plan()], level);
            assert_eq!(
                plain.canonical_bytes(),
                traced.metrics.canonical_bytes(),
                "tracing at {level} must not perturb the simulation"
            );
        }
    }

    #[test]
    fn phase_breakdown_accounts_for_every_nanosecond() {
        let config = RunConfig {
            cores: 2,
            concurrency: 4,
            duration_us: 0.1e6,
            max_concurrent: 2,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[mixed_plan()]);
        let b = &m.phase_breakdown;
        assert!(b.queries > 0);
        // The executor asserts per-query exactness; here we check the
        // aggregate additionally matches the reported mean latency.
        let mean_us = b.latency_ns() as f64 / b.queries as f64 / 1000.0;
        assert!(
            (mean_us - m.mean_latency_us).abs() < 1e-6,
            "breakdown mean {mean_us} vs metric {}",
            m.mean_latency_us
        );
        // With an admission cap of 2 and 4 clients, someone must wait.
        assert!(b.phase_ns(sann_obs::Phase::QueueWait) > 0);
        assert!(b.phase_ns(sann_obs::Phase::FlashService) > 0);
        assert!(b.phase_ns(sann_obs::Phase::Rerank) > 0);
    }

    #[test]
    fn overlap_hides_io_under_compute() {
        // Same work, two schedules: blocking read then compute, vs the
        // pipelined segment running them concurrently. The overlap must
        // recover most of the device latency.
        let ssd = SsdModel::samsung_990_pro();
        let read = || vec![IoReq::new(0, 4096)];
        let phased = QueryPlan::new(vec![
            Segment::cpu(10.0),
            Segment::io(read()),
            Segment::cpu(200.0),
        ]);
        let pipelined = QueryPlan::new(vec![
            Segment::cpu(10.0),
            Segment::overlapped(200.0, 1, read()),
        ]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 1e6,
            ssd,
            ..RunConfig::default()
        };
        let m_phased = Executor::new(config).run(&[phased]);
        let m_pipe = Executor::new(config).run(&[pipelined]);
        let lat = ssd.idle_latency_us(4096);
        assert!(
            m_phased.mean_latency_us - m_pipe.mean_latency_us > 0.8 * lat,
            "overlap must hide the read: {} vs {} (device {lat})",
            m_pipe.mean_latency_us,
            m_phased.mean_latency_us
        );
        // The CPU outlives the read, so the whole device time is covered:
        // latency ~ cpu + submit overheads only.
        let expect = 10.0 + ssd.submit_cpu_us + 200.0;
        assert!(
            (m_pipe.mean_latency_us - expect).abs() < 2.0,
            "pipelined latency {} vs {expect}",
            m_pipe.mean_latency_us
        );
        assert_eq!(m_phased.read_bytes_per_query, m_pipe.read_bytes_per_query);
    }

    #[test]
    fn overlap_covered_io_bills_compute_not_flash_service() {
        // CPU far longer than the device: the read finishes under cover,
        // so no flash-service time may be billed for the segment.
        let plan = QueryPlan::new(vec![Segment::overlapped(
            500.0,
            1,
            vec![IoReq::new(0, 4096)],
        )]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 0.2e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[plan]);
        let b = &m.phase_breakdown;
        assert_eq!(
            b.phase_ns(ObsPhase::FlashService),
            0,
            "fully covered reads must not bill flash service"
        );
        assert!(b.phase_ns(ObsPhase::Compute) > 0);
        assert!(b.phase_ns(ObsPhase::BeamIssue) > 0, "submission still runs");
    }

    #[test]
    fn overlap_exposed_tail_bills_flash_service() {
        // CPU far shorter than the device: the tail past the CPU is
        // exposed waiting and must show up as flash service.
        let ssd = SsdModel::samsung_990_pro();
        let plan = QueryPlan::new(vec![Segment::overlapped(1.0, 1, vec![IoReq::new(0, 4096)])]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 0.2e6,
            ssd,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[plan]);
        let b = &m.phase_breakdown;
        let flash_us = b.phase_ns(ObsPhase::FlashService) as f64 / 1000.0 / b.queries as f64;
        let expect = ssd.idle_latency_us(4096) - 1.0;
        assert!(
            (flash_us - expect).abs() < 2.0,
            "exposed tail {flash_us} vs device-minus-cpu {expect}"
        );
    }

    #[test]
    fn overlapped_traces_validate_and_match_untraced() {
        let plan = || {
            QueryPlan::new(vec![
                Segment::cpu(20.0),
                Segment::io(vec![IoReq::new(0, 4096)]),
                Segment::overlapped(
                    30.0,
                    2,
                    vec![IoReq::new(8192, 4096), IoReq::new(16384, 4096)],
                ),
                Segment::cpu(10.0),
            ])
        };
        let config = RunConfig {
            cores: 4,
            concurrency: 8,
            duration_us: 0.1e6,
            cache_bytes: 1 << 20,
            ..RunConfig::default()
        };
        let plain = Executor::new(config).run(&[plan()]);
        for level in sann_obs::TraceLevel::ALL {
            let traced = Executor::new(config).run_traced(&[plan()], level);
            traced.trace.validate().unwrap();
            assert_eq!(
                plain.canonical_bytes(),
                traced.metrics.canonical_bytes(),
                "tracing at {level} must not perturb an overlapped run"
            );
        }
        // Deterministic across repeat runs, like every other plan shape.
        let again = Executor::new(config).run(&[plan()]);
        assert_eq!(plain.canonical_bytes(), again.canonical_bytes());
    }

    #[test]
    fn overlap_after_last_blocking_read_keeps_rerank() {
        // A trailing prefetch-only overlapped segment must not reclassify
        // the rerank CPU before it (the engine side of the trace-model
        // rule: rerank = CPU after the last *blocking* read).
        let plan = QueryPlan::new(vec![
            Segment::cpu(20.0),
            Segment::io(vec![IoReq::new(0, 4096)]),
            Segment::cpu(10.0),
            Segment::overlapped(5.0, 1, vec![IoReq::new(8192, 4096)]),
        ]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 0.1e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[plan]);
        assert!(
            m.phase_breakdown.phase_ns(ObsPhase::Rerank) > 0,
            "the CPU between the last blocking read and the trailing \
             prefetch is still the rerank pass"
        );
    }

    #[test]
    fn cache_hits_become_zero_duration_phase() {
        let plan = QueryPlan::new(vec![Segment::io(vec![IoReq::new(0, 4096)])]);
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 0.05e6,
            cache_bytes: 1 << 20,
            ..RunConfig::default()
        };
        let run = Executor::new(config).run_traced(&[plan], sann_obs::TraceLevel::Query);
        run.trace.validate().unwrap();
        let hits = run
            .trace
            .spans
            .iter()
            .filter(|s| matches!(s.name, SpanName::Phase(ObsPhase::CacheHit)))
            .count();
        assert!(hits > 0, "warm cache must produce cache-hit phases");
        assert!(run.registry.counter("engine.beams_cache_absorbed") > 0);
        assert_eq!(
            run.metrics.phase_breakdown.phase_ns(ObsPhase::CacheHit),
            0,
            "cache-hit phases are instantaneous in simulated time"
        );
    }

    /// What a run keeps in memory follows what is outstanding at once, not
    /// how long it runs: ten times the simulated duration dispatches ten
    /// times the events through the same number of event slots, query
    /// slots, heat-map pages and histogram sizes.
    #[test]
    fn retained_state_is_independent_of_run_length() {
        const BEAM: usize = 4;
        const FANOUT: usize = 3;
        let beam = |at: u64| (0..BEAM as u64).map(move |i| IoReq::new((at + i) * 4096, 4096));
        let plans = [QueryPlan::new(vec![
            Segment::delay(5.0),
            Segment::cpu_parallel(30.0, FANOUT),
            Segment::io(beam(0).collect()),
            Segment::overlapped(20.0, FANOUT, beam(8).collect()),
            Segment::write(vec![IoReq::new(1 << 30, 4096)]),
            Segment::cpu(10.0),
        ])];
        let clean = RunConfig {
            cores: 4,
            concurrency: 8,
            cache_bytes: 4 * 4096,
            ..RunConfig::default()
        };
        let faulted = RunConfig {
            faults: FaultConfig {
                profile: FaultProfile::flaky(),
                hedge_after_us: 80.0,
                ..FaultConfig::default()
            },
            ..clean
        };
        for base in [clean, faulted] {
            let measure = |duration_us: f64| {
                let config = RunConfig {
                    duration_us,
                    ..base
                };
                let mut sim = Simulation::new(&config, &plans, TraceLevel::Off);
                sim.run_events();
                let retained = (
                    sim.events_high_water(),
                    sim.queries.len(),
                    sim.tracer.page_heat().len(),
                    sim.tracer.stats().size_histogram.len(),
                );
                let dispatched = sim.seq;
                assert!(sim.finish().metrics.completed > 0);
                (retained, dispatched)
            };
            let (short, short_dispatched) = measure(1e6);
            let (long, long_dispatched) = measure(10e6);
            assert!(long_dispatched > 9 * short_dispatched);
            let (events_high_water, query_slots, ..) = long;
            assert_eq!(query_slots, base.concurrency);
            if base.faults.profile.active() {
                // Hedge timers and the completions of cancelled attempts
                // stay queued until their time comes, so the mark moves
                // with the fault draws — a little, not with the run.
                assert_eq!((short.1, short.2, short.3), (long.1, long.2, long.3));
                assert!(
                    events_high_water < 2 * short.0,
                    "{} event slots after 1 s, {events_high_water} after 10 s",
                    short.0
                );
                continue;
            }
            assert_eq!(short, long, "retained state grew with the run");
            // A clean query has at most its beam's one event plus one fan of
            // subtasks outstanding (the overlapped segment), or its delay
            // timer — however wide the beam.
            assert!(
                events_high_water <= base.concurrency * (FANOUT + 1),
                "{events_high_water} event slots for {} clients",
                base.concurrency
            );
        }
    }

    // ------------------------------------------------------------ sealing

    /// What a drained replay pushed and did, read off the simulation before
    /// `finish` folds it away.
    struct Drained {
        /// Events pushed (`seq`).
        events: u64,
        /// Queries issued; every one of them ran to completion.
        queries: u64,
        hedges_issued: u64,
        /// Time of the last event popped / of the last query completion.
        clock_ns: u64,
        finished_ns: u64,
        run: TracedRun,
    }

    /// Drains a replay — with every attempt forced open ([`force_open`]:
    /// the lifecycle as it was before sealing, the reference for the
    /// default) when `open` is set, and with the hedge delay overridden in
    /// integer ns when `hedge_ns` is given (so a test can place it on an
    /// exact tie).
    fn drain(
        config: &RunConfig,
        plans: &[QueryPlan],
        level: TraceLevel,
        open: bool,
        hedge_ns: Option<u64>,
    ) -> Drained {
        FORCE_OPEN.set(open);
        let mut sim = Simulation::new(config, plans, level);
        if let Some(ns) = hedge_ns {
            sim.hedge_ns = ns;
        }
        sim.run_events();
        FORCE_OPEN.set(false);
        Drained {
            events: sim.seq,
            queries: sim.issue_counter,
            hedges_issued: sim.fstats.hedges_issued,
            clock_ns: sim.clock_ns,
            finished_ns: sim.finished_ns,
            run: sim.finish(),
        }
    }

    fn reads(at: u64, n: u64) -> Vec<IoReq> {
        (at..at + n).map(|i| IoReq::new(i * 4096, 4096)).collect()
    }

    /// One search hop: compute, a beam of eight reads, compute.
    fn hop_plan() -> QueryPlan {
        QueryPlan::new(vec![
            Segment::cpu(20.0),
            Segment::io(reads(0, 8)),
            Segment::cpu(10.0),
        ])
    }

    /// A device that is slow and spiky but never fails a read.
    fn spiky_error_free() -> FaultProfile {
        FaultProfile {
            spike_prob: 0.3,
            spike_min_us: 100.0,
            spike_max_us: 400.0,
            throttle_factor: 1.6,
            ..FaultProfile::none()
        }
    }

    /// The reference test: sealing changes what the executor pays, never
    /// what it computes. Every profile, every kind of plan, alone and under
    /// contention (where events of different queries tie on the clock and
    /// the sealed-beam event must sort where the beam's last completion
    /// did), under a hedge delay no healthy read beats (every read open,
    /// with a deadline some spiked reads outlive) and under Milvus' 5 ms
    /// (nearly every read sealed): metrics, registry and both trace exports
    /// are byte-equal to the all-open lifecycle.
    #[test]
    fn sealed_and_open_lifecycles_agree_byte_for_byte() {
        use sann_obs::export::{chrome_trace, jsonl};
        let plans: [(&str, u64, QueryPlan); 5] = [
            (
                "blocking",
                0,
                QueryPlan::new(vec![
                    Segment::cpu(20.0),
                    Segment::io(reads(0, 8)),
                    Segment::cpu(5.0),
                    Segment::io(reads(64, 4)),
                    Segment::cpu(10.0),
                ]),
            ),
            (
                "overlapped",
                0,
                QueryPlan::new(vec![
                    Segment::cpu(20.0),
                    Segment::io(reads(0, 4)),
                    Segment::overlapped(15.0, 2, reads(64, 4)),
                    Segment::cpu(10.0),
                ]),
            ),
            (
                // Wider beams (the speculative reads ride along), each under
                // the previous hop's compute: one covered, one with a tail.
                "look-ahead + pipelined",
                0,
                QueryPlan::new(vec![
                    Segment::cpu(10.0),
                    Segment::overlapped(120.0, 1, reads(0, 12)),
                    Segment::overlapped(2.0, 1, reads(64, 12)),
                    Segment::overlapped(30.0, 4, reads(128, 12)),
                    Segment::cpu(10.0),
                ]),
            ),
            (
                "write",
                0,
                QueryPlan::new(vec![
                    Segment::cpu(10.0),
                    Segment::io(reads(0, 4)),
                    Segment::write(reads(1 << 18, 3)),
                    Segment::io(reads(64, 2)),
                    Segment::cpu(5.0),
                ]),
            ),
            (
                // The second beam re-reads half of the first one's pages, so
                // one beam mixes cache hits with device reads.
                "page-cached",
                1 << 20,
                QueryPlan::new(vec![
                    Segment::cpu(10.0),
                    Segment::io(reads(0, 4)),
                    Segment::io(reads(2, 4)),
                    Segment::cpu(5.0),
                ]),
            ),
        ];
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_us: 100.0,
            backoff_mult: 2.0,
        };
        let (mut sealed_somewhere, mut hedged_somewhere) = (false, false);
        for profile in FaultProfile::all() {
            for (name, cache_bytes, plan) in &plans {
                for clients in [1, 16] {
                    for (hedge_after_us, io_deadline_us) in [(20.0, 1_500.0), (5_000.0, 0.0)] {
                        let config = RunConfig {
                            cores: 4,
                            concurrency: clients,
                            duration_us: 0.03e6,
                            cache_bytes: *cache_bytes,
                            faults: FaultConfig {
                                profile,
                                retry,
                                io_deadline_us,
                                hedge_after_us,
                                ..FaultConfig::default()
                            },
                            ..RunConfig::default()
                        };
                        let plans = std::slice::from_ref(plan);
                        let what = format!(
                            "{} / {name} / c{clients} / hedge {hedge_after_us}",
                            profile.name
                        );
                        let sealed = Executor::new(config).run_traced(plans, TraceLevel::Io);
                        let open = drain(&config, plans, TraceLevel::Io, true, None).run;
                        assert!(sealed.metrics.completed > 0, "{what}");
                        assert!(
                            sealed.metrics.canonical_bytes() == open.metrics.canonical_bytes(),
                            "{what}: metrics differ"
                        );
                        assert!(
                            sealed.registry.canonical_bytes() == open.registry.canonical_bytes(),
                            "{what}: registries differ"
                        );
                        assert!(
                            chrome_trace(&sealed.trace) == chrome_trace(&open.trace),
                            "{what}: Chrome exports differ"
                        );
                        assert!(
                            jsonl(&sealed.trace) == jsonl(&open.trace),
                            "{what}: JSONL exports differ"
                        );
                        sealed.trace.validate().unwrap();
                        hedged_somewhere |= sealed.metrics.fault.hedges_issued > 0;
                        sealed_somewhere |= profile.active()
                            && sealed.metrics.fault.hedges_issued == 0
                            && sealed.metrics.fault.latency_spikes > 0;
                    }
                }
            }
        }
        assert!(
            hedged_somewhere && sealed_somewhere,
            "the sweep must reach both sides"
        );
    }

    /// `seq` counts the events pushed. A healthy hop of eight reads costs
    /// its two CPU subtasks, its submission and one event for the beam,
    /// where the open lifecycle pays one per read.
    #[test]
    fn healthy_beam_costs_one_event_however_wide() {
        let plans = [hop_plan()];
        let config = RunConfig {
            cores: 4,
            concurrency: 16,
            duration_us: 0.05e6,
            ..RunConfig::default()
        };
        let sealed = drain(&config, &plans, TraceLevel::Off, false, None);
        assert!(sealed.queries > 100);
        assert_eq!(sealed.events, 4 * sealed.queries);
        let open = drain(&config, &plans, TraceLevel::Off, true, None);
        assert_eq!(open.events, 11 * open.queries);
        assert_eq!(
            sealed.run.metrics.canonical_bytes(),
            open.run.metrics.canonical_bytes()
        );
    }

    /// Sealing is decided per attempt from the draw and the schedule, not
    /// from the profile: a throttled, spiking device that never fails a
    /// read costs the healthy four events per query as long as no hedge
    /// could start before a read lands, and stops doing so — in the same
    /// code, on the same profile — when the hedge delay is one a spiked
    /// read outlives.
    #[test]
    fn faulted_reads_seal_unless_a_hedge_could_start_first() {
        let plans = [hop_plan()];
        let config = |hedge_after_us: f64| RunConfig {
            cores: 4,
            concurrency: 16,
            duration_us: 0.05e6,
            faults: FaultConfig {
                profile: spiky_error_free(),
                hedge_after_us,
                ..FaultConfig::default()
            },
            ..RunConfig::default()
        };
        // Longer than the worst spike plus any queueing behind one.
        let patient = drain(&config(5_000.0), &plans, TraceLevel::Off, false, None);
        assert!(patient.run.metrics.fault.latency_spikes > 0);
        assert_eq!(patient.hedges_issued, 0);
        assert_eq!(patient.events, 4 * patient.queries);
        let open = drain(&config(5_000.0), &plans, TraceLevel::Off, true, None);
        assert_eq!(
            open.events,
            19 * open.queries,
            "completion + timer per read"
        );
        // Shorter than a spike: the spiked reads stay open and are hedged.
        let eager = drain(&config(100.0), &plans, TraceLevel::Off, false, None);
        assert!(eager.hedges_issued > 0);
        assert!(eager.events > 4 * eager.queries);
    }

    /// Trap (a): the beam's event sits at the latest of its sealed reads.
    /// On the query's track that is where the beam — here the whole query —
    /// ends.
    #[test]
    fn sealed_beam_lands_with_its_latest_read() {
        let plans = [QueryPlan::new(vec![Segment::io(reads(0, 8))])];
        let config = RunConfig {
            cores: 4,
            concurrency: 4,
            duration_us: 0.02e6,
            faults: FaultConfig {
                profile: spiky_error_free(),
                ..FaultConfig::default()
            },
            ..RunConfig::default()
        };
        let run = Executor::new(config).run_traced(&plans, TraceLevel::Io);
        assert!(run.metrics.fault.latency_spikes > 0);
        let roots = run
            .trace
            .spans
            .iter()
            .filter(|s| matches!(s.name, SpanName::Query { .. }));
        for root in roots {
            let beam = run.trace.io.iter().filter(|io| io.query == root.query);
            assert_eq!(beam.clone().count(), 8);
            assert_eq!(beam.map(|io| io.end_ns).max(), Some(root.end_ns));
        }
    }

    /// Traps (c) and (d), on the predicate itself.
    #[test]
    fn only_a_first_attempt_that_beats_its_hedge_timer_seals() {
        let config = RunConfig::default();
        let plans = [cpu_plan(1.0)];
        let mut sim = Simulation::new(&config, &plans, TraceLevel::Off);
        let first = Attempt {
            start_ns: 50,
            ..Attempt::default()
        };
        assert!(
            sim.seals(first, u64::MAX, false),
            "no hedging, no timer to beat"
        );
        assert!(!sim.seals(first, 60, true), "a failing attempt is retried");
        sim.hedge_ns = 100;
        assert!(sim.seals(first, 149, false));
        assert!(
            sim.seals(first, 150, false),
            "on the tie the completion wins"
        );
        assert!(
            !sim.seals(first, 151, false),
            "one ns later the hedge fires"
        );
        let retry = Attempt {
            ordinal: 1,
            ..first
        };
        let hedge = Attempt {
            ordinal: 1,
            hedged: true,
            ..first
        };
        assert!(!sim.seals(retry, 60, false), "a retry stays open");
        assert!(!sim.seals(hedge, 60, false), "a hedge stays open");
    }

    /// Trap (c), end to end: with the hedge delay set to the ns on a healthy
    /// read's latency the read is sealed and no hedge is issued — in the
    /// open lifecycle too, where the completion beats the timer by push
    /// order; one ns less and every read is hedged just before it lands.
    #[test]
    fn hedge_delay_on_the_tie_is_sealed_one_ns_short_is_hedged() {
        let plans = [QueryPlan::new(vec![
            Segment::cpu(5.0),
            Segment::io(reads(0, 1)),
        ])];
        let config = RunConfig {
            cores: 1,
            concurrency: 1,
            duration_us: 2_000.0,
            ..RunConfig::default()
        };
        let probe = Executor::new(config).run_traced(&plans, TraceLevel::Io);
        let latency = probe.trace.io.iter().map(|io| io.end_ns - io.start_ns);
        let (fastest, slowest) = (latency.clone().min().unwrap(), latency.max().unwrap());
        for (hedge_ns, hedged) in [(slowest, false), (fastest - 1, true)] {
            let sealed = drain(&config, &plans, TraceLevel::Off, false, Some(hedge_ns));
            let open = drain(&config, &plans, TraceLevel::Off, true, Some(hedge_ns));
            assert!(sealed.queries > 10);
            for side in [&sealed, &open] {
                let expect = if hedged { side.queries } else { 0 };
                assert_eq!(side.hedges_issued, expect, "hedge after {hedge_ns} ns");
            }
            // cpu + submission + the sealed beam.
            assert_eq!(sealed.events == 3 * sealed.queries, !hedged);
            assert_eq!(
                sealed.run.metrics.canonical_bytes(),
                open.run.metrics.canonical_bytes()
            );
        }
    }

    /// Trap (e): a sealed read that lands after its query's IO deadline is
    /// still served — the deadline stops retries, hedges and beams not yet
    /// issued, never data that arrives.
    #[test]
    fn sealed_read_resolves_past_the_deadline() {
        // The first beam goes out before the 1 µs deadline passes and lands
        // long after it; the second is skipped.
        let plans = [QueryPlan::new(vec![
            Segment::io(reads(0, 2)),
            Segment::cpu(5.0),
            Segment::io(reads(64, 1)),
        ])];
        let config = RunConfig {
            cores: 2,
            concurrency: 4,
            duration_us: 0.01e6,
            faults: FaultConfig {
                profile: spiky_error_free(),
                io_deadline_us: 1.0,
                ..FaultConfig::default()
            },
            ..RunConfig::default()
        };
        let sealed = drain(&config, &plans, TraceLevel::Off, false, None);
        let f = sealed.run.metrics.fault;
        assert_eq!(sealed.events, 3 * sealed.queries, "submission, beam, cpu");
        assert_eq!(f.ios_completed, 2 * sealed.queries);
        assert_eq!(f.ios_abandoned, sealed.queries);
        assert_eq!(f.deadline_skips, sealed.queries);
        let open = drain(&config, &plans, TraceLevel::Off, true, None);
        assert_eq!(
            sealed.run.metrics.canonical_bytes(),
            open.run.metrics.canonical_bytes()
        );
    }

    /// Trap (f): a sealed-beam or write-batch event names no read because it
    /// cannot be stale; one that finds its query elsewhere is a bug, caught
    /// in every debug-built test run rather than dropped.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not waiting on them")]
    fn batch_event_for_a_query_not_waiting_is_a_bug() {
        let config = RunConfig::default();
        let plans = [cpu_plan(10.0)];
        let mut sim = Simulation::new(&config, &plans, TraceLevel::Off);
        // Pops first: query 0 is by then running its CPU segment.
        sim.push_event(0, EventKind::SealedDone { query: 0, n: 1 });
        sim.run_events();
    }

    /// A cancelled hedge timer pops long after the last query completed; it
    /// advances the event clock, not the end of the trace.
    #[test]
    fn dead_timer_does_not_date_the_trace() {
        let plans = [hop_plan()];
        for profile in [FaultProfile::flaky(), FaultProfile::aging()] {
            let config = RunConfig {
                cores: 4,
                concurrency: 8,
                duration_us: 0.02e6,
                faults: FaultConfig {
                    profile,
                    hedge_after_us: 5_000.0,
                    ..FaultConfig::default()
                },
                ..RunConfig::default()
            };
            let drained = drain(&config, &plans, TraceLevel::Io, false, None);
            let trace = &drained.run.trace;
            let last_span = trace.spans.iter().map(|s| s.end_ns).max().unwrap();
            let last_io = trace.io.iter().map(|io| io.end_ns).max().unwrap();
            assert_eq!(trace.end_ns, last_span.max(last_io), "{}", profile.name);
            assert_eq!(trace.end_ns, drained.finished_ns);
            trace.validate().unwrap();
            if profile.read_error_prob > 0.0 {
                // A read that failed once is open, so it armed a timer; the
                // retry served it within a few hundred µs and the timer
                // popped, dead, milliseconds after the run was over.
                assert!(
                    drained.clock_ns > drained.finished_ns + 1_000_000,
                    "clock {} vs end {}",
                    drained.clock_ns,
                    drained.finished_ns
                );
            }
        }
    }
}
