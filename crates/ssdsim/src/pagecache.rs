//! An LRU page cache over 4 KiB pages — the OS page cache the paper flushes
//! (`sync; echo 1 > /proc/sys/vm/drop_caches`) before each run (§III-B).

use crate::pagemap::PageMap;

/// Page size (matches the device sector and the x86 page).
pub const PAGE_BYTES: u64 = 4096;

/// A fixed-capacity LRU cache of device pages.
///
/// The cache answers, per request, which of its pages hit and which must be
/// fetched from the device; the execution engine only sends misses to the
/// [`crate::DeviceSim`].
///
/// Recency is a doubly-linked list threaded through a slab of slots, most
/// recent at the head, plus one page → slot index: a hit is one lookup and
/// an O(1) splice to the head, a miss at capacity reuses the tail's slot.
/// Every access moves its page to the head, so the list is always in
/// descending order of last access and the tail is *exactly* the page a
/// full scan for the oldest access would pick (the tests keep that scan as
/// their reference).
#[derive(Debug)]
pub struct PageCache {
    capacity_pages: usize,
    /// page id -> its slot in `slots`.
    index: PageMap<usize>,
    /// One slot per cached page; grows to `capacity_pages`, then evictions
    /// recycle slots in place.
    slots: Vec<Slot>,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot — the next victim (`NIL` when empty).
    tail: usize,
    hits: u64,
    misses: u64,
}

/// "No slot": past the end of any slab, so `slots.get(NIL)` is `None`.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    /// Neighbour towards the head (more recent).
    prev: usize,
    /// Neighbour towards the tail (less recent).
    next: usize,
}

impl PageCache {
    /// Creates a cache with room for `capacity_bytes / 4096` pages. A
    /// capacity of zero disables caching (everything misses), which models
    /// direct I/O.
    pub fn new(capacity_bytes: u64) -> PageCache {
        PageCache {
            capacity_pages: (capacity_bytes / PAGE_BYTES) as usize,
            index: PageMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses a byte range; returns the number of pages that missed (and
    /// were inserted). `0` means the whole range was cached.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn access(&mut self, offset: u64, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = offset / PAGE_BYTES;
        let last = (offset + len as u64 - 1) / PAGE_BYTES;
        let mut missed = 0;
        for page in first..=last {
            if self.capacity_pages == 0 {
                self.misses += 1;
                missed += 1;
                continue;
            }
            if let Some(slot) = self.index.get(page) {
                self.hits += 1;
                if slot != self.head {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                continue;
            }
            self.misses += 1;
            missed += 1;
            let slot = if self.slots.len() < self.capacity_pages {
                self.slots.push(Slot {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            } else {
                // Evict the least recently used page and take over its slot.
                let victim = self.tail;
                self.unlink(victim);
                if let Some(s) = self.slots.get_mut(victim) {
                    self.index.remove(s.page);
                    s.page = page;
                }
                victim
            };
            if let Some(held) = self.index.entry(page) {
                *held = slot;
            }
            self.push_front(slot);
        }
        missed
    }

    /// Takes `slot` out of the recency list (its own links go stale).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn unlink(&mut self, slot: usize) {
        let Some(&Slot { prev, next, .. }) = self.slots.get(slot) else {
            debug_assert!(false, "unlink of a slot outside the slab");
            return;
        };
        match self.slots.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links an unlinked `slot` in as the most recently used.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        if let Some(s) = self.slots.get_mut(slot) {
            s.prev = NIL;
            s.next = old_head;
        }
        match self.slots.get_mut(old_head) {
            Some(h) => h.prev = slot,
            None => self.tail = slot,
        }
        self.head = slot;
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Cache hits so far (page granularity).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (page granularity).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every cached page — the paper's
    /// `echo 1 > /proc/sys/vm/drop_caches` between runs. Counters survive.
    pub fn drop_caches(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::rng::SplitMix64;
    use std::collections::BTreeMap;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = PageCache::new(1 << 20);
        assert_eq!(c.access(0, 4096), 1);
        assert_eq!(c.access(0, 4096), 0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn range_spanning_pages_counts_each_page() {
        let mut c = PageCache::new(1 << 20);
        // 10 KiB starting mid-page touches pages 0,1,2.
        assert_eq!(c.access(2048, 10 * 1024), 3);
        assert_eq!(c.access(0, 4096), 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PageCache::new(2 * 4096);
        c.access(0, 4096); // page 0
        c.access(4096, 4096); // page 1
        c.access(0, 4096); // touch page 0 (now MRU)
        c.access(8192, 4096); // page 2 evicts page 1
        assert_eq!(c.access(0, 4096), 0, "page 0 must survive");
        assert_eq!(c.access(4096, 4096), 1, "page 1 was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PageCache::new(0);
        assert_eq!(c.access(0, 4096), 1);
        assert_eq!(c.access(0, 4096), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn drop_caches_flushes() {
        let mut c = PageCache::new(1 << 20);
        c.access(0, 4096);
        assert_eq!(c.len(), 1);
        c.drop_caches();
        assert!(c.is_empty());
        assert_eq!(c.access(0, 4096), 1, "re-access misses after flush");
    }

    #[test]
    fn zero_length_access_is_noop() {
        let mut c = PageCache::new(1 << 20);
        assert_eq!(c.access(123, 0), 0);
        assert_eq!(c.hits() + c.misses(), 0);
    }

    /// The original eviction policy, verbatim: stamp every access from a
    /// monotone clock and evict by a full `min_by_key` scan over the
    /// page → stamp map. Used as the behavioural reference.
    struct ScanLru {
        capacity_pages: usize,
        pages: BTreeMap<u64, u64>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanLru {
        fn new(capacity_bytes: u64) -> ScanLru {
            ScanLru {
                capacity_pages: (capacity_bytes / PAGE_BYTES) as usize,
                pages: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, offset: u64, len: u32) -> u64 {
            if len == 0 {
                return 0;
            }
            let first = offset / PAGE_BYTES;
            let last = (offset + len as u64 - 1) / PAGE_BYTES;
            let mut missed = 0;
            for page in first..=last {
                self.clock += 1;
                if self.capacity_pages == 0 {
                    self.misses += 1;
                    missed += 1;
                    continue;
                }
                if let Some(stamp) = self.pages.get_mut(&page) {
                    *stamp = self.clock;
                    self.hits += 1;
                } else {
                    self.misses += 1;
                    missed += 1;
                    if self.pages.len() >= self.capacity_pages {
                        if let Some((&victim, _)) = self.pages.iter().min_by_key(|(_, &s)| s) {
                            self.pages.remove(&victim);
                        }
                    }
                    self.pages.insert(page, self.clock);
                }
            }
            missed
        }
    }

    impl ScanLru {
        fn drop_caches(&mut self) {
            self.pages.clear();
        }

        /// Cached pages, most recently used first.
        fn recency_order(&self) -> Vec<u64> {
            let mut by_stamp: Vec<(u64, u64)> = self.pages.iter().map(|(&p, &s)| (s, p)).collect();
            by_stamp.sort_unstable_by(|a, b| b.cmp(a));
            by_stamp.into_iter().map(|(_, p)| p).collect()
        }
    }

    impl PageCache {
        /// Cached pages, most recently used first, by walking the list.
        fn recency_order(&self) -> Vec<u64> {
            let mut order = Vec::new();
            let mut at = self.head;
            while let Some(s) = self.slots.get(at) {
                order.push(s.page);
                at = s.next;
                assert!(order.len() <= self.slots.len(), "recency list has a cycle");
            }
            order
        }

        /// The list, the slab and the index describe the same set: every
        /// slot is on the list exactly once, links agree in both
        /// directions, and the index points each page at its slot.
        fn assert_consistent(&self) {
            assert_eq!(self.index.len(), self.slots.len());
            assert!(self.slots.len() <= self.capacity_pages);
            let (mut at, mut before, mut seen) = (self.head, NIL, 0);
            while let Some(s) = self.slots.get(at) {
                assert_eq!(s.prev, before, "back link of slot {at}");
                assert_eq!(self.index.get(s.page), Some(at));
                seen += 1;
                assert!(seen <= self.slots.len(), "recency list has a cycle");
                (before, at) = (at, s.next);
            }
            assert_eq!(at, NIL, "list must end at NIL, not a dangling slot");
            assert_eq!(self.tail, before);
            assert_eq!(seen, self.slots.len(), "a slot fell off the list");
        }
    }

    /// Every access returns the same miss count, and the cached pages *in
    /// recency order* are identical after every step — i.e. the list evicts
    /// in exactly the order the O(capacity) scan did. Ranges span up to
    /// four pages (so one request can evict pages it inserted itself at
    /// small capacities), capacities include 0 and 1, and the caches are
    /// dropped mid-stream.
    #[test]
    fn eviction_order_matches_the_old_scan() {
        let mut rng = SplitMix64::new(0x9A6E);
        for capacity_pages in [0u64, 1, 2, 3, 7, 16] {
            let mut fast = PageCache::new(capacity_pages * PAGE_BYTES);
            let mut slow = ScanLru::new(capacity_pages * PAGE_BYTES);
            for step in 0..4_000 {
                if step % 1_000 == 999 {
                    fast.drop_caches();
                    slow.drop_caches();
                }
                let page = rng.next_bounded(40);
                let span_pages = 1 + rng.next_bounded(4) as u32;
                let offset = page * PAGE_BYTES + rng.next_bounded(PAGE_BYTES);
                let len = span_pages * PAGE_BYTES as u32;
                assert_eq!(
                    fast.access(offset, len),
                    slow.access(offset, len),
                    "miss count diverged at capacity {capacity_pages}"
                );
                assert_eq!(
                    fast.recency_order(),
                    slow.recency_order(),
                    "recency order diverged at capacity {capacity_pages}"
                );
                assert_eq!(fast.len(), slow.pages.len());
            }
            assert_eq!(fast.hits(), slow.hits);
            assert_eq!(fast.misses(), slow.misses);
        }
    }

    /// Regression for the quadratic eviction scan: a GiB-class cache kept at
    /// full occupancy under miss pressure. With the old O(capacity)
    /// `min_by_key` eviction this workload costs ~capacity × misses
    /// (≈ 3.4 × 10^10 comparisons) and does not finish in test time; with
    /// O(1) eviction it is a few hundred thousand list splices.
    #[test]
    fn large_cache_under_miss_pressure_is_not_quadratic() {
        let capacity_pages: u64 = 262_144; // 1 GiB of 4 KiB pages
        let mut c = PageCache::new(capacity_pages * PAGE_BYTES);
        // Fill to capacity, then force `extra` evictions with fresh pages.
        let extra = 131_072u64;
        for page in 0..capacity_pages + extra {
            assert_eq!(c.access(page * PAGE_BYTES, PAGE_BYTES as u32), 1);
        }
        assert_eq!(c.len() as u64, capacity_pages, "cache stays at capacity");
        assert_eq!(c.misses(), capacity_pages + extra);
        assert_eq!(c.hits(), 0);
        // The survivors are exactly the most recent `capacity_pages` pages.
        assert_eq!(c.access(extra * PAGE_BYTES, PAGE_BYTES as u32), 0);
        assert_eq!(c.access((extra - 1) * PAGE_BYTES, PAGE_BYTES as u32), 1);
    }

    /// List, slab and index stay consistent across a mixed hit/miss/evict
    /// workload with multi-page ranges and a mid-stream flush.
    #[test]
    fn list_and_index_stay_consistent() {
        let mut rng = SplitMix64::new(77);
        for capacity_pages in [1u64, 2, 8] {
            let mut c = PageCache::new(capacity_pages * PAGE_BYTES);
            for step in 0..2_000 {
                if step == 1_200 {
                    c.drop_caches();
                    c.assert_consistent();
                    assert!(c.is_empty());
                }
                let span_pages = 1 + rng.next_bounded(3) as u32;
                c.access(
                    rng.next_bounded(20) * PAGE_BYTES,
                    span_pages * PAGE_BYTES as u32,
                );
                c.assert_consistent();
            }
        }
    }
}
