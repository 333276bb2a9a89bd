//! The read and write lifecycle: a batch is issued, each request is
//! settled — a write when the device completes it, a read when it is served
//! (from the page cache, a sealed attempt, or an open one after retries and
//! hedges) or abandoned — and the segment learns of it in
//! `request_settled`.

use super::*;
use sann_obs::{IoOutcome, IoSpan};
use sann_ssdsim::HEDGE_TAG;

impl<'a> Simulation<'a> {
    /// Records one device attempt of request `r` in the trace.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
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
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn issue_writes(&mut self, query: usize, t: u64, reqs: &[IoReq]) -> usize {
        let t_us = ns_to_us(t);
        let first = Attempt {
            start_ns: t,
            ..Attempt::default()
        };
        let mut batch_done_ns = 0;
        for r in reqs {
            self.tracer
                .record_write_tagged(t_us, r.offset, r.len, r.needed, r.provenance);
            let done_ns = us_to_ns(self.device.schedule_write(t_us, r.len));
            self.io_span(query, r, true, first, done_ns, IoOutcome::Ok);
            batch_done_ns = batch_done_ns.max(done_ns);
            if force_open() {
                self.events
                    .push(done_ns, EventKind::BatchDone { query, n: 1 });
            }
        }
        if !force_open() {
            let n = reqs.len();
            self.events
                .push(batch_done_ns, EventKind::BatchDone { query, n });
        }
        reqs.len()
    }

    /// Issues one beam of reads: page-cache hits are served on the spot
    /// (without touching the device, so they cannot fail or spike) and every
    /// miss starts its first device attempt. An attempt that seals is served
    /// as it is counted — one event, pushed after the loop at the latest of
    /// their completion times, settles all the sealed reads of the beam; an
    /// open one has its completion event and, when the policy hedges, its
    /// hedge timer. The beam completes when every read settles. Returns the
    /// number of reads left in flight; the caller decides how the query
    /// waits for them. The reads go out replica by replica, each handed to
    /// `start_attempt` as it is met, so this loop never looks one up.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn issue_beam(&mut self, query: usize, t: u64, reqs: Beam<'a>) -> usize {
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
                #[allow(
                    clippy::indexing_slicing,
                    reason = "provenance.index() < COUNT by construction"
                )]
                {
                    self.prov_cache_hits[r.provenance.index()] += 1;
                    self.prov_cache_hit_bytes[r.provenance.index()] += u64::from(r.len);
                }
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
            if let Some(done_ns) = self.start_attempt(read, r, false, t) {
                // The bus is FIFO, so the last sealed read is also the
                // latest; the beam's time does not lean on that.
                sealed += 1;
                sealed_done_ns = sealed_done_ns.max(done_ns);
            } else if self.hedge_ns > 0 {
                self.events
                    .push(t + self.hedge_ns, EventKind::Hedge { read });
            }
        }
        // Pushed here, not later: every event of this call then has a
        // sequence number in one contiguous range, so the beam's completion
        // keeps the order against every other query's events that its last
        // read's own completion event would have had.
        if sealed > 0 {
            self.fstats.ios_completed += cast::u64_from_usize(sealed);
            let done = EventKind::BatchDone { query, n: sealed };
            self.events.push(sealed_done_ns, done);
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
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn seals(&self, attempt: Attempt, done_ns: u64, failed: bool) -> bool {
        attempt.ordinal == 0
            && !failed
            && (self.hedge_ns == 0 || done_ns <= attempt.start_ns + self.hedge_ns)
    }

    /// Starts one device attempt of read `read`, which fetches `io` — the
    /// only place reads reach the device. Draws the attempt's fault outcome
    /// from its identity-keyed RNG stream and schedules the (possibly
    /// inflated) device service. An attempt that seals ([`Simulation::seals`]) is finished
    /// with here: its span is recorded and its completion time returned for
    /// `issue_beam` to fold into the beam's one event. Any other is *open*:
    /// it is registered as in flight, sizing the beam's request state if it
    /// is the first to need it, and completes through `on_read_done`.
    /// Failed attempts still consume device time and block-layer trace
    /// records — the host only learns of the error at completion.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn start_attempt(&mut self, read: ReadRef, io: IoReq, hedged: bool, t: u64) -> Option<u64> {
        let q = self.q(read.query);
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
        let done_ns = us_to_ns(self.device.schedule_faulted(t_us, io.len, fault.extra_us));
        // A span is recorded when its outcome is known: now for a sealed
        // attempt, when it ends (completion, error or cancellation) for an
        // open one.
        if self.seals(attempt, done_ns, fault.error) {
            self.io_span(read.query, &io, false, attempt, done_ns, IoOutcome::Ok);
            if !force_open() {
                return Some(done_ns);
            }
        }
        let q = self.q(read.query);
        if q.reqs_state.is_empty() {
            let width = q.beam.width();
            q.reqs_state.resize(width, ReqState::default());
        }
        // Every caller names a read of the beam in flight; if that ever
        // broke, dropping the attempt (debug builds assert) is safer than
        // panicking in the middle of a sweep.
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
        self.events.push(
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
    /// is dropped. A query leaves a beam only once every read of it has
    /// settled, so these three checks are all it takes. The fault path's
    /// one lookup of a read by its index in the beam is here.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn open_read(&mut self, read: ReadRef) -> Option<(&mut ReqState, IoReq)> {
        let q = self.queries.get_mut(read.query)?;
        if !(q.live && q.uid == read.uid && q.beam_seq == read.beam) {
            return None;
        }
        let io = q.beam.get(read.req)?;
        let r = q.reqs_state.get_mut(read.req)?;
        (!r.settled).then_some((r, io))
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn on_read_done(
        &mut self,
        read: ReadRef,
        attempt: u8,
        hedged: bool,
        failed: bool,
        t: u64,
    ) {
        let Some((r, io)) = self.open_read(read) else {
            return;
        };
        // Remove this attempt from the in-flight set. Every completion
        // event corresponds to an attempt this state machine put in flight;
        // an unknown one would mean a duplicated event, and dropping it
        // beats panicking mid-run.
        let inflight = r
            .flight
            .get_mut(..usize::from(r.inflight))
            .unwrap_or_default();
        let Some(pos) = inflight
            .iter()
            .position(|a| a.ordinal == attempt && a.hedged == hedged)
        else {
            debug_assert!(false, "completion for an attempt not in flight");
            return;
        };
        // The last attempt in flight takes this one's place.
        inflight.swap(pos, inflight.len() - 1);
        let done = inflight.last().copied().unwrap_or_default();
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
            self.io_span(read.query, &io, false, done, t, outcome);
        }
        if !failed {
            self.resolve(read, &io, t);
        } else if inflight_left == 0 {
            self.retry_or_abandon(read, t);
        }
        // Otherwise a sibling attempt may still succeed; wait for it.
    }

    /// Marks a read as served. Any sibling attempt still in flight lost the
    /// race and is cancelled exactly once, here: the host stops waiting
    /// now, while the device finishes the wasted work unobserved (its
    /// completion event is dropped as stale).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
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
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
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
        self.events.push(
            t + us_to_ns(backoff_us.max(0.0)).max(1),
            EventKind::Retry { read },
        );
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn on_retry(&mut self, read: ReadRef, t: u64) {
        let Some((r, io)) = self.open_read(read) else {
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
            let sealed = self.start_attempt(read, io, false, t);
            debug_assert!(sealed.is_none(), "a retry is never sealed");
        }
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn on_hedge(&mut self, read: ReadRef, t: u64) {
        let Some((r, io)) = self.open_read(read) else {
            return;
        };
        // Hedge only a read still waiting on its primary/retry attempt:
        // not between retries, not already hedged, not past the deadline.
        let waiting = r.inflight > 0 && usize::from(r.inflight) < r.flight.len();
        if waiting && t < self.q(read.query).deadline_ns {
            self.fstats.hedges_issued += 1;
            let sealed = self.start_attempt(read, io, true, t);
            debug_assert!(sealed.is_none(), "a hedge is never sealed");
        }
    }

    /// Gives up on a read: the query degrades to a partial top-k and the
    /// loss is accounted (deadline vs retry exhaustion).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
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

    /// `n` requests of the batch settled — reads served or abandoned,
    /// writes completed. Every caller acts for a batch the query is still
    /// waiting on (an event naming a read has been through `open_read`; one
    /// naming only the query counts requests the query cannot leave
    /// behind), so a stale call is a bug.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn request_settled(&mut self, query: usize, n: usize, t: u64) {
        let q = self.q(query);
        debug_assert!(
            q.live && n <= q.pending_ios,
            "{n} requests settled for a query not waiting on them"
        );
        q.pending_ios -= n;
        self.end_segment(query, t);
    }
}
