//! Per-call scratch for the batched distance kernels.
//!
//! Graph searches score a node's not-yet-seen neighbours together — one
//! query against four rows per kernel call — instead of one pair at a time.
//! A [`Batch`] holds the ids picked for such a call and the distances it
//! returned; a search or build call creates one and reuses it for every
//! node it expands, so the hot loops stay allocation-free.

use sann_core::{Dataset, Metric, Neighbor};

/// The ids of one batched distance call and, once scored, their distances.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// Ids to score, in the order results are consumed.
    pub ids: Vec<u32>,
    /// One distance per id, filled by the scoring call.
    pub dists: Vec<f32>,
}

impl Batch {
    /// Replaces the ids with `ids`.
    pub fn set(&mut self, ids: &[u32]) {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
    }

    /// Replaces the ids with the members of `candidates` not yet marked in
    /// `seen`, in order, and marks them.
    pub fn take_unseen(&mut self, candidates: &[u32], seen: &mut [bool]) {
        self.ids.clear();
        self.ids.extend(
            candidates
                .iter()
                .copied()
                .filter(|&id| !std::mem::replace(&mut seen[id as usize], true)),
        );
    }

    /// Scores the ids by their exact distance from `query`.
    pub fn score(&mut self, metric: Metric, query: &[f32], data: &Dataset) {
        metric.distance_gather(query, data, &self.ids, &mut self.dists);
    }

    /// The scored `(id, distance)` pairs, in id order.
    pub fn scored(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.ids.iter().copied().zip(self.dists.iter().copied())
    }

    /// The scored pairs as a candidate pool for pruning.
    pub fn neighbors(&self) -> Vec<Neighbor> {
        self.scored().map(|(id, d)| Neighbor::new(id, d)).collect()
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
