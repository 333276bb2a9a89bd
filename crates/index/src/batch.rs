//! Per-call scratch for the batched distance kernels, and the two graph
//! walks every in-memory graph search is made of.
//!
//! Graph searches score a node's not-yet-seen neighbours together — one
//! query against four rows per kernel call — instead of one pair at a time.
//! A [`Batch`] holds the ids picked for such a call and the distances it
//! returned, and the seen-set ([`Mark`]) and frontier storage of a walk; a
//! search creates one and reuses it for every node it expands, and a graph
//! build keeps one for all of its walks and prunes, so the hot loops stay
//! allocation-free.
//!
//! [`best_first`] and [`greedy_descend`] are the only copies of their loops:
//! HNSW and Vamana, at build time and at query time, full-precision or
//! quantized, differ in the adjacency they walk (`neighbors`) and in how a
//! batch of ids is scored (`dist`), never in the walk itself.

use crate::pairs::RowDistances;
use sann_core::{Neighbor, TopK};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The ids of one batched distance call and, once scored, their distances,
/// plus the set and the heap storage a walk reuses from one call to the
/// next.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// Ids to score, in the order results are consumed.
    pub ids: Vec<u32>,
    /// One distance per id, filled by the scoring call.
    pub dists: Vec<f32>,
    /// The nodes a walk has seen (or the ids a prune has taken).
    pub mark: Mark,
    /// [`best_first`]'s frontier, empty between calls.
    frontier: Vec<Reverse<Neighbor>>,
}

/// A set of node ids that empties in O(1). An id is in the set while its
/// stamp equals the current epoch, so starting a new set is one increment,
/// and once in 255 sets, when the epoch wraps, a zero fill. A byte per
/// node keeps it the size of the `bool` array a one-off search would use.
#[derive(Debug, Default)]
pub(crate) struct Mark {
    stamps: Vec<u8>,
    epoch: u8,
}

impl Mark {
    /// Empties the set and makes room for the ids below `nodes`.
    pub fn reset(&mut self, nodes: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        if self.stamps.len() < nodes {
            self.stamps.resize(nodes, 0);
        }
    }

    /// Adds `id`; returns whether it was not in the set yet.
    ///
    /// # Panics
    ///
    /// Panics if no [`reset`](Mark::reset) has made room for `id`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn insert(&mut self, id: u32) -> bool {
        #[allow(clippy::indexing_slicing, reason = "ids are below the reset size")]
        let stamp = &mut self.stamps[id as usize];
        std::mem::replace(stamp, self.epoch) != self.epoch
    }
}

impl Batch {
    /// Replaces the ids with `ids`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn set(&mut self, ids: &[u32]) {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
    }

    /// Replaces the ids with the members of `candidates` not yet in
    /// [`Batch::mark`], in order, and adds them to it.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn take_unseen(&mut self, candidates: &[u32]) {
        self.ids.clear();
        let mark = &mut self.mark;
        self.ids
            .extend(candidates.iter().copied().filter(|&id| mark.insert(id)));
    }

    /// The scored `(id, distance)` pairs, in id order.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn scored(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.ids.iter().copied().zip(self.dists.iter().copied())
    }

    /// The scored pairs as a candidate pool for pruning.
    pub fn neighbors(&self) -> Vec<Neighbor> {
        self.scored().map(|(id, d)| Neighbor::new(id, d)).collect()
    }

    /// The out-neighbours `ids` of `node` with their distances from it: the
    /// candidate pool for re-pruning `node`.
    pub fn neighbors_of(&mut self, pairs: &RowDistances, node: u32, ids: &[u32]) -> Vec<Neighbor> {
        self.set(ids);
        pairs.gather(node, &self.ids, &mut self.dists);
        self.neighbors()
    }
}

/// The distance of the single node `id`, through the batched oracle.
fn dist_one(dist: &mut impl FnMut(&[u32], &mut Vec<f32>), id: u32, out: &mut Vec<f32>) -> f32 {
    dist(&[id], out);
    out[0]
}

/// `ef`-bounded best-first search over a graph of `nodes` nodes, from
/// `entry`: repeatedly expands the closest unexpanded candidate until it is
/// farther than the `ef`-th best found, and returns the `ef` best,
/// closest-first.
///
/// `neighbors(id)` is the adjacency walked. `dist(ids, out)` replaces the
/// contents of `out` with the distance of every id, in order; it is handed
/// a node's unvisited neighbours together so an oracle over plain vectors
/// can use the batched kernels, and the ids of successive calls,
/// concatenated, are exactly the sequence a one-id-at-a-time search would
/// ask for. `popped` sees every node the search expands, in expansion
/// order.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub(crate) fn best_first<'g>(
    nodes: usize,
    entry: u32,
    ef: usize,
    neighbors: impl Fn(u32) -> &'g [u32],
    mut dist: impl FnMut(&[u32], &mut Vec<f32>),
    mut popped: impl FnMut(Neighbor),
    batch: &mut Batch,
) -> Vec<Neighbor> {
    batch.mark.reset(nodes);
    batch.mark.insert(entry);
    let d0 = dist_one(&mut dist, entry, &mut batch.dists);
    let mut best = TopK::new(ef);
    best.push(entry, d0);
    // Min-heap of unexpanded candidates via Reverse ordering on Neighbor,
    // in the storage the last call left empty.
    let mut frontier = BinaryHeap::from(std::mem::take(&mut batch.frontier));
    frontier.push(Reverse(Neighbor::new(entry, d0)));
    while let Some(Reverse(cand)) = frontier.pop() {
        if cand.dist > best.bound() {
            break;
        }
        popped(cand);
        batch.take_unseen(neighbors(cand.id));
        dist(&batch.ids, &mut batch.dists);
        for (n, d) in batch.scored() {
            if d < best.bound() || !best.is_full() {
                best.push(n, d);
                frontier.push(Reverse(Neighbor::new(n, d)));
            }
        }
    }
    batch.frontier = frontier.into_vec();
    batch.frontier.clear();
    best.into_sorted_vec()
}

/// Greedy single-entry descent: moves from `ep` to the closest of its
/// `neighbors` for as long as that improves on the current node, and
/// returns where it stopped. `dist` is as in [`best_first`].
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub(crate) fn greedy_descend<'g>(
    mut ep: u32,
    neighbors: impl Fn(u32) -> &'g [u32],
    mut dist: impl FnMut(&[u32], &mut Vec<f32>),
    batch: &mut Batch,
) -> u32 {
    let mut best = dist_one(&mut dist, ep, &mut batch.dists);
    loop {
        let mut improved = false;
        batch.set(neighbors(ep));
        dist(&batch.ids, &mut batch.dists);
        for (n, d) in batch.scored() {
            if d < best {
                best = d;
                ep = n;
                improved = true;
            }
        }
        if !improved {
            return ep;
        }
    }
}

/// Asserts that a batched search produced exactly what its per-pair
/// reference did: the same neighbours with bit-equal distances, and the same
/// trace (compute and PQ-lookup counts, reads in the same order).
#[cfg(test)]
pub(crate) fn assert_identical(got: &crate::SearchOutput, want: &crate::SearchOutput) {
    let key = |out: &crate::SearchOutput| -> Vec<(u32, u32)> {
        out.neighbors
            .iter()
            .map(|n| (n.id, n.dist.to_bits()))
            .collect()
    };
    assert_eq!(key(got), key(want), "neighbours differ");
    assert_eq!(got.trace, want.trace, "traces differ");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line, the query at the origin: node `i` is `POS[i]` away.
    const POS: [f32; 7] = [10.0, 5.0, 7.0, 9.0, 1.0, 6.0, 3.0];

    /// 0 fans out to 3, 2, 1; 1 leads to 4 and 2 to 5; 6 is isolated.
    const ADJ: [&[u32]; 7] = [&[3, 2, 1], &[4], &[5], &[], &[], &[], &[]];

    /// Runs `best_first` over the hand-built graph, returning the result
    /// ids, the nodes `popped` saw and every id the oracle was asked for.
    fn search(entry: u32, ef: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        search_with(entry, ef, &mut Batch::default())
    }

    /// [`search`] with the caller's scratch.
    fn search_with(entry: u32, ef: usize, batch: &mut Batch) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (mut popped, mut asked) = (Vec::new(), Vec::new());
        let found = best_first(
            ADJ.len(),
            entry,
            ef,
            |n| ADJ[n as usize],
            |ids, out| {
                asked.extend_from_slice(ids);
                out.clear();
                out.extend(ids.iter().map(|&i| POS[i as usize] * POS[i as usize]));
            },
            |cand| popped.push(cand.id),
            batch,
        );
        (found.iter().map(|n| n.id).collect(), popped, asked)
    }

    #[test]
    fn a_reused_batch_searches_like_a_fresh_one() {
        let mut batch = Batch::default();
        for (entry, ef) in [(0, 2), (0, 7), (2, 3), (6, 3), (0, 1), (1, 4)] {
            assert_eq!(
                search_with(entry, ef, &mut batch),
                search(entry, ef),
                "entry {entry}, ef {ef}"
            );
            assert!(batch.frontier.is_empty());
        }
    }

    #[test]
    fn mark_empties_on_reset_and_grows_with_the_graph() {
        let mut mark = Mark::default();
        mark.reset(3);
        assert!(mark.insert(1));
        assert!(!mark.insert(1));
        mark.reset(5);
        assert!(mark.insert(1));
        assert!(mark.insert(4));
        assert!(!mark.insert(4));
    }

    #[test]
    fn mark_clears_old_stamps_when_the_epoch_wraps() {
        let mut mark = Mark::default();
        mark.reset(3);
        // Node 0 was stamped in epoch 1, long ago; the current epoch is the
        // last before the counter wraps.
        mark.stamps[0] = 1;
        mark.epoch = u8::MAX - 1;
        mark.reset(3);
        assert!(mark.insert(2));
        mark.reset(3);
        assert_eq!(mark.epoch, 1);
        assert!(mark.insert(0), "a stamp from before the wrap still counts");
        assert!(mark.insert(2));
    }

    #[test]
    fn popped_sees_exactly_the_expanded_nodes_in_order() {
        // 2 and 3 are scored but fall outside ef = 2 before their turn; 5
        // is never reached.
        let (found, popped, asked) = search(0, 2);
        assert_eq!(found, [4, 1]);
        assert_eq!(popped, [0, 1, 4]);
        assert_eq!(asked, [0, 3, 2, 1, 4]);
    }

    #[test]
    fn ef_one_keeps_only_the_closest() {
        let (found, popped, _) = search(0, 1);
        assert_eq!(found, [4]);
        assert_eq!(popped, [0, 1, 4]);
    }

    #[test]
    fn entry_without_neighbours_is_the_whole_answer() {
        assert_eq!(search(6, 3), (vec![6], vec![6], vec![6]));
        let stays = greedy_descend(
            6,
            |n| ADJ[n as usize],
            |ids, out| out.resize(ids.len(), 0.0),
            &mut Batch::default(),
        );
        assert_eq!(stays, 6);
    }

    #[test]
    fn greedy_descend_follows_every_improvement() {
        let end = greedy_descend(
            0,
            |n| ADJ[n as usize],
            |ids, out| {
                out.clear();
                out.extend(ids.iter().map(|&i| POS[i as usize]));
            },
            &mut Batch::default(),
        );
        assert_eq!(end, 4);
    }
}
