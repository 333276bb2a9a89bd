//! The event loop and the stages a query walks through: issue, admission,
//! one plan segment after another, completion — and, once the events have
//! drained, the run's registry and metrics.

use super::*;
use crate::metrics::DeviceTelemetry;
use crate::plan::{Beam, Segment};
use sann_core::stats;
use sann_obs::SpanName;

/// Window width of the queue-depth / utilization timelines, µs (1 s — the
/// same granularity as the Fig. 5 bandwidth timeline).
const TELEMETRY_BUCKET_US: f64 = 1e6;

impl<'a> Simulation<'a> {
    pub(super) fn new(
        config: &'a RunConfig,
        plans: &'a [QueryPlan],
        level: TraceLevel,
    ) -> Simulation<'a> {
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
                                Phase::Rerank
                            } else {
                                Phase::Compute
                            }
                        }
                        Segment::Delay { .. } => Phase::Delay,
                        Segment::Io { .. } | Segment::Write { .. } | Segment::Overlapped { .. } => {
                            Phase::BeamIssue
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
            events: EventQueue::default(),
            free_cores: config.cores,
            ready: VecDeque::new(),
            queries: Vec::new(),
            free_slots: Vec::new(),
            admission: VecDeque::new(),
            issue_counter: 0,
            device: DeviceSim::new(config.ssd)
                .with_timelines(config.duration_us, TELEMETRY_BUCKET_US),
            cache: PageCache::new(config.cache_bytes),
            tracer: IoTracer::new(config.duration_us),
            busy_ns: 0,
            cpu_clock_busy_ns: 0,
            completed_in_window: 0,
            window_response_ns: 0,
            horizon_queries: 0,
            horizon_ns: 0,
            query_read_bytes: 0,
            query_io_count: 0,
            clock_ns: 0,
            finished_ns: 0,
            seg_phases,
            plan_reads: plans.iter().map(QueryPlan::io_count).collect(),
            obs: Tracer::new(level),
            registry: Registry::new(),
            beams_cache_absorbed: 0,
            prov_cache_hits: [0; IoProvenance::COUNT],
            prov_cache_hit_bytes: [0; IoProvenance::COUNT],
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

    pub(super) fn run(mut self) -> TracedRun {
        self.run_events();
        self.finish()
    }

    /// Issues every client's first query and drains the event heap.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn run_events(&mut self) {
        for client in 0..self.config.concurrency {
            self.issue_query(client, 0);
        }
        self.dispatch(0);

        while let Some((t, kind)) = self.events.next_event() {
            assert!(
                t >= self.clock_ns,
                "event queue regressed: popped t={t} ns behind clock {} ns",
                self.clock_ns
            );
            let in_use = cast::u64_from_usize(self.config.cores - self.free_cores);
            self.cpu_clock_busy_ns += (t - self.clock_ns) * in_use;
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
                EventKind::BatchDone { query, n } => self.request_settled(query, n, t),
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

    /// Audits the drained run and assembles its registry and metrics.
    pub(super) fn finish(mut self) -> TracedRun {
        let io = self.tracer.stats();
        audit::io_conserved(io, &self.device);
        audit::reads_conserved(&self.fstats);
        let laws = (self.completed_in_window > 0).then(|| self.laws());
        if cfg!(debug_assertions) {
            laws.iter().for_each(audit::laws_hold);
        }
        // Flush the scalar counters into the registry: one map touch per
        // counter for the whole run.
        let r = &mut self.registry;
        r.counter_add("engine.queries_issued", self.issue_counter);
        r.counter_add("engine.beams", self.beam_width_hist.count());
        r.counter_add("engine.beams_cache_absorbed", self.beams_cache_absorbed);
        // The DES's own work: what it pushed, by kind, and the most events
        // it held at once. Sealing and page-cache hits change these without
        // changing anything simulated.
        for (name, pushed) in EventKind::PUSHED.into_iter().zip(self.events.pushed()) {
            r.counter_add(name, pushed);
        }
        let high_water = cast::u64_from_usize(self.events.high_water());
        r.counter_add("engine.events.high_water", high_water);
        r.counter_add("engine.reads_cache_hit", self.prov_cache_hits.iter().sum());
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
                r.counter_add(PROV_HIT_COUNTERS[p.index()], hits);
            }
        }
        r.counter_add("engine.reads_device", io.reads);
        r.counter_add("engine.writes_device", io.writes);
        r.counter_add("engine.admission_waits", self.queue_wait_hist.count());
        r.hist_merge("engine.queue_wait_ns", &self.queue_wait_hist);
        r.hist_merge("engine.beam_width", &self.beam_width_hist);
        // The fault ledger is counted on every run but reported only under
        // an active profile, so a healthy run keeps its metrics and its
        // registry (and their exported forms) byte-identical to a build
        // without the fault layer.
        if self.faulty {
            for (name, value) in self.fstats.counters() {
                r.counter_add(name, value);
            }
        } else {
            self.fstats = FaultStats::default();
        }
        TracedRun {
            metrics: self.metrics(),
            trace: self.obs.finish(self.finished_ns),
            registry: self.registry,
            laws,
        }
    }

    /// The drained run's operational quantities, before `finish` folds the
    /// fault ledger of a healthy run away.
    fn laws(&self) -> OperationalLaws {
        let io = self.tracer.stats();
        let ssd = &self.config.ssd;
        let cache_hits: u64 = self.prov_cache_hits.iter().sum();
        let f = &self.fstats;
        OperationalLaws {
            clients: cast::u64_from_usize(self.config.concurrency),
            window_ns: self.duration_ns,
            response_ns: self.window_response_ns,
            in_flight: self.horizon_queries,
            in_flight_ns: self.horizon_ns,
            latency_ns: self.registry.breakdown().latency_ns(),
            end_ns: self.clock_ns,
            cores: cast::u64_from_usize(self.config.cores),
            cpu_busy_ns: self.busy_ns,
            cpu_clock_busy_ns: self.cpu_clock_busy_ns,
            units: cast::u64_from_usize(ssd.units.max(1)),
            device_busy_ns: self.device.busy_ns(),
            device_service_ns: (!self.faulty).then(|| {
                io.reads * us_to_ns(ssd.base_latency_us)
                    + io.writes * us_to_ns(ssd.write_latency_us)
            }),
            device_reads: io.reads,
            reads_asked: self.query_io_count - cache_hits + f.retries + f.hedges_issued,
            device_bytes: self.device.bytes(),
            device_bw: ssd.device_bw,
            hedges_cancelled: f.hedges_cancelled,
        }
    }

    /// The run's metrics: latencies and the phase breakdown from the
    /// registry, device traffic from the tracer and the device, the rest
    /// from the executor's own counts.
    fn metrics(&self) -> RunMetrics {
        let latencies_us = self.registry.latencies_us();
        let queries = cast::f64_from_usize(latencies_us.len().max(1));
        let core_ns =
            cast::f64_from_u64(self.duration_ns) * cast::f64_from_usize(self.config.cores);
        let duration_us = self.config.duration_us;
        let [p50_latency_us, p99_latency_us] = stats::percentiles(&latencies_us, [50.0, 99.0]);
        RunMetrics {
            qps: cast::f64_from_u64(self.completed_in_window) / (duration_us / 1e6),
            mean_latency_us: stats::mean(&latencies_us),
            p50_latency_us,
            p99_latency_us,
            cpu_utilization: (cast::f64_from_u64(self.busy_ns) / core_ns).min(1.0),
            completed: self.completed_in_window,
            read_bytes_per_query: cast::f64_from_u64(self.query_read_bytes) / queries,
            ios_per_query: cast::f64_from_u64(self.query_io_count) / queries,
            mean_bandwidth_mib: self.tracer.mean_read_bandwidth(),
            bandwidth_timeline_mib: self.tracer.bandwidth_timeline(),
            io_stats: self.tracer.stats().clone(),
            phase_breakdown: self.registry.breakdown().clone(),
            fault: self.fstats,
            duration_us,
            prov_cache_hits: self.prov_cache_hits,
            prov_cache_hit_bytes: self.prov_cache_hit_bytes,
            // Sampled unconditionally inside the DES (never gated on the
            // trace level), so traced and untraced runs keep byte-identical
            // metrics.
            device: DeviceTelemetry {
                mean_queue_depth: self.device.mean_queue_depth(),
                utilization: self.device.utilization(duration_us),
                queue_depth_timeline: self.device.queue_depth_timeline(),
                utilization_timeline: self.device.utilization_timeline(),
            },
            hot_page_skew: self.tracer.hot_page_skew(),
        }
    }

    /// A closed-loop client issues its next query at time `t` (no new issues
    /// after the measurement window closes).
    fn issue_query(&mut self, client: usize, t: u64) {
        if t >= self.duration_ns {
            return;
        }
        // Queries in flight: the slots not on the free list.
        let active = self.queries.len() - self.free_slots.len();
        if self.config.max_concurrent > 0 && active >= self.config.max_concurrent {
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
        let uid = self.issue_counter;
        self.issue_counter += 1;
        let plan = cast::usize_from_u64(uid) % self.plans.len();
        let wait_ns = t - issued_ns;
        if wait_ns > 0 {
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
                .begin_span(span, uid, SpanName::Phase(Phase::QueueWait), issued_ns);
            self.obs.end_span(w, t);
        }
        let mut phase_ns = [0u64; Phase::COUNT];
        phase_ns[Phase::QueueWait.index()] = wait_ns;
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
            started_ns: t,
            remaining_subtasks: 0,
            pending_ios: 0,
            submitting: false,
            client,
            live: true,
            uid,
            span,
            phase_span: SpanId::NONE,
            attr_phase: Phase::QueueWait,
            attr_since_ns: t,
            phase_ns,
            deadline_ns: t.saturating_add(self.deadline_budget_ns),
            degraded: false,
            beam_seq: 0,
            beam: Beam::default(),
            reqs_state,
        };
        let slot = if let Some(slot) = slot {
            self.queries[slot] = q;
            slot
        } else {
            self.queries.push(q);
            self.queries.len() - 1
        };
        self.advance(slot, t);
    }

    /// Switches the query's attribution to `phase` at time `t`: the
    /// interval since the last switch is billed to the previous phase,
    /// and (at span level) the open phase span is closed and a new child
    /// opened. Re-setting the current phase merges contiguous intervals.
    fn set_phase(&mut self, query: usize, phase: Phase, t: u64) {
        let q = self.q(query);
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
            self.q(query).phase_span = new;
        }
    }

    /// The query in slot `query`.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn q(&mut self, query: usize) -> &mut ActiveQuery<'a> {
        #[allow(
            clippy::indexing_slicing,
            reason = "slots are named only by events and ready entries this simulation created"
        )]
        let q = &mut self.queries[query];
        q
    }

    /// Moves the query to its next segment (current one already complete).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
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
            // Reads the segment issues, every replica counted.
            let width = seg.beam().map_or(0, Beam::width);
            match seg {
                Segment::Cpu { total_us, fanout } if *total_us > 0.0 => {
                    let labels = self.seg_phases.get(plan_idx);
                    let label = labels.and_then(|l| l.get(seg_idx).copied());
                    let label = label.unwrap_or(Phase::Compute);
                    self.start_cpu(query, t, label, *total_us, *fanout);
                    return;
                }
                Segment::Delay { us } if *us > 0.0 => {
                    self.set_phase(query, Phase::Delay, t);
                    self.events
                        .push(t + us_to_ns(*us), EventKind::Delay { query });
                    return;
                }
                Segment::Io { .. } if width > 0 => {
                    if past_deadline {
                        self.skip_beam(query, width);
                    } else {
                        self.start_submit(query, t, width);
                        return;
                    }
                }
                Segment::Write { reqs } if !reqs.is_empty() => {
                    self.start_submit(query, t, reqs.len());
                    return;
                }
                Segment::Overlapped {
                    total_us, fanout, ..
                } => {
                    if width > 0 {
                        if !past_deadline {
                            // Same submission model as a blocking beam: the
                            // requests go out once the submission subtask
                            // completes, and only then does the overlapped
                            // CPU start.
                            self.start_submit(query, t, width);
                            return;
                        }
                        // The reads (speculative or next-hop fetches) are
                        // abandoned, but the CPU still runs — the distances
                        // it computes are for data already in memory.
                        self.skip_beam(query, width);
                    }
                    // Without reads the segment is a plain CPU one.
                    if *total_us > 0.0 {
                        self.start_cpu(query, t, Phase::Compute, *total_us, *fanout);
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
    /// `label`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn start_cpu(&mut self, query: usize, t: u64, label: Phase, total_us: f64, fanout: usize) {
        self.set_phase(query, label, t);
        let fanout = fanout.max(1);
        let sub_ns = us_to_ns_ceil(total_us / cast::f64_from_usize(fanout));
        self.q(query).remaining_subtasks = fanout;
        for _ in 0..fanout {
            self.ready.push_back((query, sub_ns));
        }
    }

    /// Queues the submission subtask of a batch of `n_reqs` requests:
    /// submission runs on a core first, the requests are issued when it
    /// completes.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn start_submit(&mut self, query: usize, t: u64, n_reqs: usize) {
        self.set_phase(query, Phase::BeamIssue, t);
        let submit_ns = us_to_ns(cast::f64_from_usize(n_reqs) * self.config.ssd.submit_cpu_us);
        let q = self.q(query);
        q.submitting = true;
        q.remaining_subtasks = 1;
        self.ready.push_back((query, submit_ns.max(1)));
    }

    /// Past the per-query IO deadline: a beam of `n_reqs` reads is skipped
    /// unread and the query degrades to a partial result.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn skip_beam(&mut self, query: usize, n_reqs: usize) {
        let n = cast::u64_from_usize(n_reqs);
        self.fstats.deadline_skips += n;
        self.fstats.ios_abandoned += n;
        self.q(query).degraded = true;
    }

    /// A CPU subtask of the query finished: a submission issues its batch,
    /// the last overlapped subtask leaves any reads still in flight
    /// exposed, and the segment completes if nothing of it is left.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn on_subtask_done(&mut self, query: usize, t: u64) {
        let q = self.q(query);
        q.remaining_subtasks -= 1;
        if std::mem::take(&mut q.submitting) {
            self.issue_batch(query, t);
        } else if q.remaining_subtasks == 0 && q.pending_ios > 0 {
            // Only this exposed tail counts as flash service — the covered
            // portion was billed to compute.
            self.set_phase(query, Phase::FlashService, t);
        }
        self.end_segment(query, t);
    }

    /// Issues the batch of the segment whose submission just finished. The
    /// query then runs the segment's overlapped CPU, if it has any, or
    /// waits for the batch. Copying the `&'a` plans out of `self` lets the
    /// beam stay borrowed from them while the issue path takes `&mut self`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn issue_batch(&mut self, query: usize, t: u64) {
        let (plan_idx, seg_idx) = (self.q(query).plan, self.q(query).seg);
        let plans: &'a [QueryPlan] = self.plans;
        let seg = plans.get(plan_idx).and_then(|p| p.segments().get(seg_idx));
        let (reqs, copies, write, overlap_cpu) = match seg {
            Some(Segment::Io { reqs, copies }) => (reqs.as_slice(), *copies, false, None),
            Some(Segment::Write { reqs }) => (reqs.as_slice(), 1, true, None),
            Some(Segment::Overlapped {
                total_us,
                fanout,
                reqs,
                copies,
            }) => (reqs.as_slice(), *copies, false, Some((*total_us, *fanout))),
            #[allow(
                clippy::unreachable,
                reason = "advance submits only segments with requests"
            )]
            _ => unreachable!("submission of a segment without requests"),
        };
        self.beam_width_hist
            .record(cast::u64_from_usize(reqs.len() * copies));
        let pending = if write {
            self.issue_writes(query, t, reqs)
        } else {
            self.issue_beam(query, t, Beam::new(reqs, copies))
        };
        if pending == 0 {
            self.beams_cache_absorbed += 1;
        }
        self.q(query).pending_ios = pending;
        match overlap_cpu {
            // The CPU half of an overlapped segment starts once its reads
            // are out. Its time is billed to compute — overlap is the whole
            // point — and only a tail where reads outlive the CPU shows up
            // as flash service.
            Some((total_us, fanout)) if total_us > 0.0 => {
                self.start_cpu(query, t, Phase::Compute, total_us, fanout);
            }
            // Nothing to overlap with: the query blocks on the batch. A
            // beam fully absorbed by the page cache is a zero-duration
            // cache-hit phase.
            _ if pending == 0 => self.set_phase(query, Phase::CacheHit, t),
            _ => self.set_phase(query, Phase::FlashService, t),
        }
    }

    /// The one segment-completion rule: the segment is done once its CPU
    /// subtasks have all finished and its requests have all settled.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn end_segment(&mut self, query: usize, t: u64) {
        let q = self.q(query);
        if q.remaining_subtasks == 0 && q.pending_ios == 0 {
            q.seg += 1;
            self.advance(query, t);
        }
    }

    fn complete(&mut self, query: usize, t: u64) {
        let q = self.q(query);
        q.live = false;
        // Bill the trailing interval to whatever phase was current.
        q.phase_ns[q.attr_phase.index()] += t - q.attr_since_ns;
        q.attr_since_ns = t;
        let (client, latency_ns, span, phase_span, phase_ns, degraded) = (
            q.client,
            t - q.started_ns,
            q.span,
            q.phase_span,
            q.phase_ns,
            q.degraded,
        );
        if degraded {
            self.fstats.degraded_queries += 1;
        }
        self.obs.end_span(phase_span, t);
        self.obs.end_span(span, t);
        self.finished_ns = t;
        audit::phases_partition(&phase_ns, latency_ns);
        self.registry.record_query(latency_ns, &phase_ns);
        self.free_slots.push(query);
        let issued_ns = t - latency_ns - phase_ns[Phase::QueueWait.index()];
        if t <= self.duration_ns {
            self.completed_in_window += 1;
            self.window_response_ns += t - issued_ns;
        } else {
            self.horizon_queries += 1;
            self.horizon_ns += self.duration_ns - issued_ns;
        }
        // Admit a waiting query before the client re-issues (FIFO fairness).
        if let Some((waiting, issued_ns)) = self.admission.pop_front() {
            self.activate(waiting, t, issued_ns);
        }
        self.issue_query(client, t);
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn dispatch(&mut self, t: u64) {
        while self.free_cores > 0 {
            let Some((query, dur_ns)) = self.ready.pop_front() else {
                return;
            };
            self.free_cores -= 1;
            self.busy_ns += dur_ns;
            self.events.push(t + dur_ns, EventKind::Subtask { query });
        }
    }
}
