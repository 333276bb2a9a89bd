//! Top-k collection for nearest neighbor search.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One search hit: a vector id and its distance to the query.
///
/// Ordering is by distance (ties broken by id) so that `Neighbor`s sort from
/// closest to farthest. Distances are compared with [`f32::total_cmp`], which
/// makes the ordering total even in the presence of NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row id of the matched vector.
    pub id: u32,
    /// Distance to the query under the search metric (lower is closer).
    pub dist: f32,
}

impl Neighbor {
    /// Creates a neighbor.
    pub fn new(id: u32, dist: f32) -> Self {
        Neighbor { id, dist }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A bounded max-heap that retains the `k` smallest-distance entries pushed
/// into it.
///
/// This is the collector every index search uses to accumulate candidates.
///
/// # Examples
///
/// ```
/// use sann_core::TopK;
///
/// let mut topk = TopK::new(2);
/// topk.push(0, 5.0);
/// topk.push(1, 1.0);
/// topk.push(2, 3.0);
/// let hits = topk.into_sorted_vec();
/// assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    heap: BinaryHeap<Neighbor>,
    k: usize,
}

impl TopK {
    /// Creates a collector that retains the `k` closest entries.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK {
            heap: BinaryHeap::with_capacity(k + 1),
            k,
        }
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently held (`<= k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries have been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the collector holds `k` entries.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Offers an entry; it is retained only if it is among the `k` closest
    /// seen so far. Returns `true` when the entry was retained.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn push(&mut self, id: u32, dist: f32) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(Neighbor::new(id, dist));
            return true;
        }
        // `new` asserts k > 0, so a full heap always has a top.
        match self.heap.peek() {
            Some(worst) if dist.total_cmp(&worst.dist).is_lt() => {
                self.heap.pop();
                self.heap.push(Neighbor::new(id, dist));
                true
            }
            _ => false,
        }
    }

    /// The current k-th (worst retained) distance, or `f32::INFINITY` while
    /// fewer than `k` entries are held.
    ///
    /// Search loops use this as the pruning bound.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn bound(&self) -> f32 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() >= self.k => worst.dist,
            _ => f32::INFINITY,
        }
    }

    /// Consumes the collector and returns hits sorted closest-first.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0, 9.0), (1, 2.0), (2, 7.0), (3, 1.0), (4, 8.0)] {
            t.push(id, d);
        }
        let out = t.into_sorted_vec();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 1, 2]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f32::INFINITY);
        t.push(0, 1.0);
        assert_eq!(t.bound(), f32::INFINITY);
        t.push(1, 2.0);
        assert_eq!(t.bound(), 2.0);
        t.push(2, 0.5);
        assert_eq!(t.bound(), 1.0);
    }

    #[test]
    fn push_reports_retention() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 5.0));
        assert!(!t.push(1, 6.0));
        assert!(t.push(2, 4.0));
    }

    #[test]
    fn neighbor_ordering_breaks_ties_by_id() {
        let a = Neighbor::new(1, 3.0);
        let b = Neighbor::new(2, 3.0);
        assert!(a < b);
    }

    #[test]
    fn nan_distances_do_not_panic() {
        let mut t = TopK::new(2);
        t.push(0, f32::NAN);
        t.push(1, 1.0);
        t.push(2, 2.0);
        let out = t.into_sorted_vec();
        // NaN compares greater than all numbers under total_cmp, so it is evicted.
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn len_and_full() {
        let mut t = TopK::new(2);
        assert!(t.is_empty());
        assert!(!t.is_full());
        t.push(0, 1.0);
        t.push(1, 2.0);
        assert_eq!(t.len(), 2);
        assert!(t.is_full());
        assert_eq!(t.k(), 2);
    }
}
