//! The event queue: one `u128` key per outstanding event (DESIGN.md §15).
//!
//! A key holds, high bits first, the event's time in ns (64 bits), its push
//! ordinal ([`SEQ_BITS`]) and a payload ([`PAYLOAD_BITS`]). The ordinal is
//! unique, so keys order by (time, push ordinal) — the order the executor
//! has always dispatched in — and the payload never decides an order.
//!
//! The healthy path's events carry their whole payload in the key: a CPU
//! subtask's or a delay's query slot, a batch's query slot and width. The
//! fault path's events (a read attempt's completion, a retry, a hedge timer)
//! and a batch too wide for its field are parked in a slab, and their key
//! names the slot.
//!
//! The event being handled stays at the heap's root: the first event its
//! handler pushes takes that place, one sift-down where a pop and a push
//! sift twice. If the handler pushes nothing, the root is popped before the
//! next event is read.

use super::EventKind;
use sann_core::cast;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of the push ordinal: 2^36 events is about an hour of host time at
/// the executor's event rate, and [`EventQueue::push`] refuses the next.
const SEQ_BITS: u32 = 36;
/// Bits below the ordinal: a 2-bit tag, then its body.
const PAYLOAD_BITS: u32 = 64 - SEQ_BITS;
const BODY_BITS: u32 = PAYLOAD_BITS - 2;
/// Bits of a query slot inside a body.
const QUERY_BITS: u32 = 16;

/// Most closed-loop clients a run may have: an event names its query slot
/// in 16 bits of its key, and a run never holds more slots than clients.
pub const MAX_CLIENTS: usize = 1 << QUERY_BITS;
const MAX_SEQ: u64 = 1 << SEQ_BITS;
/// Widest batch a key carries; a wider one is parked in the slab.
const MAX_INLINE_BATCH: usize = (1 << (BODY_BITS - QUERY_BITS)) - 1;
/// Most events parked at once.
const MAX_SLOTS: usize = 1 << BODY_BITS;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;
const BODY_MASK: u64 = (1 << BODY_BITS) - 1;
const QUERY_MASK: u64 = (1 << QUERY_BITS) - 1;

const TAG_SUBTASK: u64 = 0;
const TAG_DELAY: u64 = 1;
const TAG_BATCH: u64 = 2;
const TAG_SLAB: u64 = 3;

/// The executor's outstanding events, earliest first.
#[derive(Debug, Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads of the parked events. A handled event's slot goes on `free`
    /// and is reused, so the slab's length is the most events ever parked
    /// at once.
    slab: Vec<EventKind>,
    free: Vec<usize>,
    /// Events pushed so far; the next one's ordinal.
    pub(super) seq: u64,
    /// The root is the event being handled, and nothing has replaced it.
    root_handled: bool,
    /// Most events outstanding at once.
    high_water: usize,
    /// Events pushed, by [`EventKind::index`].
    pushed: [u64; EventKind::PUSHED.len()],
}

impl EventQueue {
    /// Schedules `kind` at `at_ns`, after every event already pushed for
    /// the same time.
    ///
    /// # Panics
    ///
    /// Panics past 2^36 pushes, or with 2^26 events parked at once, rather
    /// than wrapping a field of the key.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn push(&mut self, at_ns: u64, kind: EventKind) {
        assert!(
            self.seq < MAX_SEQ,
            "event ordinal overflow: {MAX_SEQ} events pushed"
        );
        let low = self.seq << PAYLOAD_BITS | self.payload(kind);
        self.seq += 1;
        if let Some(pushed) = self.pushed.get_mut(kind.index()) {
            *pushed += 1;
        }
        let key = Reverse(u128::from(at_ns) << 64 | u128::from(low));
        if std::mem::take(&mut self.root_handled) {
            if let Some(mut root) = self.heap.peek_mut() {
                *root = key;
                return;
            }
        }
        self.heap.push(key);
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// The earliest outstanding event, as `(time, kind)`, which stays at the
    /// root until the next push replaces it or the next call pops it.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(super) fn next_event(&mut self) -> Option<(u64, EventKind)> {
        if std::mem::take(&mut self.root_handled) {
            self.heap.pop();
        }
        let &Reverse(key) = self.heap.peek()?;
        self.root_handled = true;
        let (t, low) = cast::u64_halves(key);
        let tag = (low & PAYLOAD_MASK) >> BODY_BITS;
        let body = low & BODY_MASK;
        let query = cast::usize_from_u64(body & QUERY_MASK);
        let kind = match tag {
            TAG_SUBTASK => EventKind::Subtask { query },
            TAG_DELAY => EventKind::Delay { query },
            TAG_BATCH => EventKind::BatchDone {
                query,
                n: cast::usize_from_u64(body >> QUERY_BITS),
            },
            _ => {
                let slot = cast::usize_from_u64(body);
                self.free.push(slot);
                #[allow(
                    clippy::indexing_slicing,
                    reason = "a slab tag names the slot `park` filled for it"
                )]
                let kind = self.slab[slot];
                kind
            }
        };
        Some((t, kind))
    }

    /// Most events outstanding at once.
    pub(super) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events pushed so far, by [`EventKind::index`].
    pub(super) fn pushed(&self) -> [u64; EventKind::PUSHED.len()] {
        self.pushed
    }

    /// The payload of a key for `kind`: a tag and the event's fields when
    /// they fit, else a tag and the slab slot it is parked in.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn payload(&mut self, kind: EventKind) -> u64 {
        let (tag, body) = match kind {
            EventKind::Subtask { query } => (TAG_SUBTASK, query_field(query)),
            EventKind::Delay { query } => (TAG_DELAY, query_field(query)),
            EventKind::BatchDone { query, n } if n <= MAX_INLINE_BATCH => {
                (TAG_BATCH, n << QUERY_BITS | query_field(query))
            }
            _ => (TAG_SLAB, self.park(kind)),
        };
        tag << BODY_BITS | cast::u64_from_usize(body)
    }

    /// Stores a payload the key cannot carry; returns its slot.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn park(&mut self, kind: EventKind) -> usize {
        if let Some(slot) = self.free.pop() {
            if let Some(cell) = self.slab.get_mut(slot) {
                *cell = kind;
            }
            return slot;
        }
        assert!(
            self.slab.len() < MAX_SLOTS,
            "more than {MAX_SLOTS} events parked at once"
        );
        self.slab.push(kind);
        self.slab.len() - 1
    }
}

/// A query slot as a key field: [`Executor::new`](super::Executor::new)
/// refuses more than [`MAX_CLIENTS`] clients, and a run holds no more slots
/// than clients.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn query_field(query: usize) -> usize {
    debug_assert!(
        query < MAX_CLIENTS,
        "query slot {query} exceeds its key field"
    );
    query
}

#[cfg(test)]
mod tests {
    use super::super::ReadRef;
    use super::*;
    use sann_core::rng::SplitMix64;

    /// The queue as it was before keys carried payloads: `(time, push
    /// ordinal, slot)` tuples compared field by field, every payload in the
    /// slab, and the handled event popped before its handler runs.
    #[derive(Default)]
    struct TupleQueue {
        events: BinaryHeap<Reverse<(u64, u64, usize)>>,
        slab: Vec<EventKind>,
        free: Vec<usize>,
        seq: u64,
    }

    impl TupleQueue {
        fn push(&mut self, at_ns: u64, kind: EventKind) {
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slab[slot] = kind;
                    slot
                }
                None => {
                    self.slab.push(kind);
                    self.slab.len() - 1
                }
            };
            self.events.push(Reverse((at_ns, self.seq, slot)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, EventKind)> {
            let Reverse((t, _, slot)) = self.events.pop()?;
            self.free.push(slot);
            Some((t, self.slab[slot]))
        }
    }

    /// Any event, its fields drawn over their whole range: inline and
    /// parked batches on both sides of the widest a key carries.
    fn any_event(rng: &mut SplitMix64) -> EventKind {
        let query = rng.next_bounded(MAX_CLIENTS as u64) as usize;
        let read = ReadRef {
            query,
            uid: rng.next_u64(),
            beam: rng.next_u64() as u32,
            req: rng.next_u64() as usize,
        };
        let batch = [1, MAX_INLINE_BATCH, MAX_INLINE_BATCH + 1, 70_000];
        match rng.next_bounded(7) {
            0 => EventKind::Subtask { query },
            1 => EventKind::Delay { query },
            2 => EventKind::BatchDone {
                query,
                n: 1 + rng.next_bounded(MAX_INLINE_BATCH as u64) as usize,
            },
            3 => EventKind::BatchDone {
                query,
                n: batch[rng.next_bounded(4) as usize],
            },
            4 => EventKind::ReadDone {
                read,
                attempt: rng.next_u64() as u8,
                hedged: rng.next_bounded(2) == 1,
                failed: rng.next_bounded(2) == 1,
            },
            5 => EventKind::Retry { read },
            _ => EventKind::Hedge { read },
        }
    }

    /// Seeded random push/handle sequences through both queues: events of
    /// every kind, many on the same ns, handlers that push 0-3 events at
    /// their own time or later. The key queue hands out the same events in
    /// the same order, counts the same pushes, and reaches the same
    /// high-water mark as the tuple queue's slab.
    #[test]
    fn key_queue_pops_what_the_tuple_queue_pops() {
        for seed in 0..32 {
            let mut rng = SplitMix64::new(seed);
            let (mut queue, mut reference) = (EventQueue::default(), TupleQueue::default());
            for _ in 0..48 {
                let (at, kind) = (rng.next_bounded(4), any_event(&mut rng));
                queue.push(at, kind);
                reference.push(at, kind);
            }
            let mut handled = 0;
            while let Some(event) = reference.pop() {
                assert_eq!(
                    queue.next_event(),
                    Some(event),
                    "seed {seed}, event {handled}"
                );
                handled += 1;
                // Pushes per handled event: 0..=3, one on average, none
                // once the sequence is long enough to drain.
                let pushes = match rng.next_bounded(10) {
                    _ if handled > 3_000 => 0,
                    0..=3 => 0,
                    4..=6 => 1,
                    7..=8 => 2,
                    _ => 3,
                };
                for _ in 0..pushes {
                    let at = event.0 + rng.next_bounded(3) * rng.next_bounded(20);
                    let kind = any_event(&mut rng);
                    queue.push(at, kind);
                    reference.push(at, kind);
                }
            }
            assert_eq!(queue.next_event(), None, "seed {seed}");
            assert!(handled > 48, "seed {seed} handled only {handled}");
            assert_eq!(queue.seq, reference.seq);
            assert_eq!(queue.pushed().iter().sum::<u64>(), reference.seq);
            assert_eq!(queue.high_water(), reference.slab.len(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "event ordinal overflow")]
    fn ordinal_overflow_is_refused() {
        let mut queue = EventQueue {
            seq: MAX_SEQ,
            ..EventQueue::default()
        };
        queue.push(0, EventKind::Subtask { query: 0 });
    }
}
