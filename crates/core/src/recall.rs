//! Recall computation — the accuracy metric of approximate nearest neighbor
//! search (`recall@k = |K ∩ K'| / k` in the paper's §II-A).

use crate::cast;
use crate::topk::Neighbor;

/// Computes `recall@k` for one query: the fraction of the true `k` nearest
/// neighbors that appear in `found`.
///
/// Only the first `k` entries of each slice are considered; passing shorter
/// slices is allowed (the divisor is `k`, matching the paper's definition, so
/// returning fewer than `k` results is penalized).
///
/// # Examples
///
/// ```
/// let recall = sann_core::recall::recall_at_k(&[1, 2, 3, 4], &[2, 9, 4, 7], 4);
/// assert_eq!(recall, 0.5);
/// ```
pub fn recall_at_k(truth: &[u32], found: &[u32], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let truth = &truth[..truth.len().min(k)];
    let found = &found[..found.len().min(k)];
    let mut hits = 0usize;
    for id in found {
        if truth.contains(id) {
            hits += 1;
        }
    }
    cast::f64_from_usize(hits) / cast::f64_from_usize(k)
}

/// Computes the mean `recall@k` over a batch of queries.
///
/// # Panics
///
/// Panics if `truth` and `found` have different lengths.
pub fn mean_recall_at_k(truth: &[Vec<u32>], found: &[Vec<u32>], k: usize) -> f64 {
    assert_eq!(truth.len(), found.len(), "query count mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let total: f64 = truth
        .iter()
        .zip(found)
        .map(|(t, f)| recall_at_k(t, f, k))
        .sum();
    total / cast::f64_from_usize(truth.len())
}

/// Extracts ids from a list of [`Neighbor`] hits (convenience for recall
/// computation on search results).
pub fn ids(neighbors: &[Neighbor]) -> Vec<u32> {
    neighbors.iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recall() {
        assert_eq!(recall_at_k(&[5, 6, 7], &[7, 6, 5], 3), 1.0);
    }

    #[test]
    fn zero_recall() {
        assert_eq!(recall_at_k(&[1, 2], &[3, 4], 2), 0.0);
    }

    #[test]
    fn partial_results_are_penalized() {
        // Found only one of two true neighbors and returned only one result.
        assert_eq!(recall_at_k(&[1, 2], &[1], 2), 0.5);
    }

    #[test]
    fn k_zero_is_zero() {
        assert_eq!(recall_at_k(&[1], &[1], 0), 0.0);
    }

    #[test]
    fn only_first_k_found_count() {
        // The true neighbor appearing beyond position k must not count.
        assert_eq!(recall_at_k(&[1], &[9, 1], 1), 0.0);
    }

    #[test]
    fn mean_over_batch() {
        let truth = vec![vec![1, 2], vec![3, 4]];
        let found = vec![vec![1, 2], vec![4, 9]];
        assert_eq!(mean_recall_at_k(&truth, &found, 2), 0.75);
    }

    #[test]
    fn mean_of_empty_batch_is_zero() {
        assert_eq!(mean_recall_at_k(&[], &[], 10), 0.0);
    }

    #[test]
    fn ids_extracts_in_order() {
        let hits = vec![Neighbor::new(4, 0.1), Neighbor::new(2, 0.2)];
        assert_eq!(ids(&hits), vec![4, 2]);
    }
}
