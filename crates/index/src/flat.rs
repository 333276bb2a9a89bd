//! Exact brute-force index — the correctness baseline.

use crate::trace::{QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::{cast, Dataset, Metric, Result, TopK};

/// An exact (non-approximate) index that scans every vector.
///
/// Used as the correctness baseline for the approximate indexes and for tiny
/// datasets where an index is not worth building.
///
/// # Examples
///
/// ```
/// use sann_index::{FlatIndex, SearchParams, VectorIndex};
/// use sann_core::{Dataset, Metric};
///
/// let data = Dataset::from_rows(vec![vec![0.0, 0.0], vec![5.0, 5.0]])?;
/// let index = FlatIndex::build(&data, Metric::L2);
/// let out = index.search(&[4.0, 4.0], 1, &SearchParams::default())?;
/// assert_eq!(out.neighbors[0].id, 1);
/// # Ok::<(), sann_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: Dataset,
    metric: Metric,
}

impl FlatIndex {
    /// Builds (copies) the index.
    pub fn build(data: &Dataset, metric: Metric) -> FlatIndex {
        FlatIndex {
            data: data.clone(),
            metric,
        }
    }

    /// The metric searches use.
    pub fn metric(&self) -> Metric {
        self.metric
    }
}

impl VectorIndex for FlatIndex {
    #[cfg(test)]
    fn vectors(&self) -> Option<&Dataset> {
        Some(&self.data)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn kind(&self) -> &'static str {
        "flat"
    }

    fn is_storage_based(&self) -> bool {
        false
    }

    fn search(&self, query: &[f32], k: usize, _params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.data.dim(), k)?;
        let mut dists = vec![0.0f32; self.data.len()];
        self.metric
            .distance_rows(query, self.data.as_flat(), &mut dists);
        let mut topk = TopK::new(k);
        for (id, &d) in dists.iter().enumerate() {
            topk.push(cast::u32_from_usize(id), d);
        }
        let mut trace = QueryTrace::new();
        trace.push_compute(
            self.data.len() as u64,
            cast::u32_from_usize(self.data.dim()),
        );
        Ok(SearchOutput {
            neighbors: topk.into_sorted_vec(),
            trace,
        })
    }

    fn memory_bytes(&self) -> u64 {
        (self.data.len() * self.data.row_bytes()) as u64
    }

    fn storage_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_datagen::EmbeddingModel;

    #[test]
    fn search_matches_per_pair_reference() {
        // 101 rows: full groups of four and a one-row remainder.
        let data = EmbeddingModel::new(24, 2, 5).generate(101);
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let index = FlatIndex::build(&data, metric);
            let q = data.row(40);
            let got = index.search(q, 7, &SearchParams::default()).unwrap();
            let mut topk = TopK::new(7);
            for (id, row) in data.iter().enumerate() {
                topk.push(id as u32, metric.distance(q, row));
            }
            let mut trace = QueryTrace::new();
            trace.push_compute(101, 24);
            let want = SearchOutput {
                neighbors: topk.into_sorted_vec(),
                trace,
            };
            crate::batch::assert_identical(&got, &want);
        }
    }

    #[test]
    fn finds_self() {
        let data = EmbeddingModel::new(16, 2, 1).generate(100);
        let index = FlatIndex::build(&data, Metric::L2);
        for i in (0..100).step_by(17) {
            let out = index
                .search(data.row(i), 1, &SearchParams::default())
                .unwrap();
            assert_eq!(out.neighbors[0].id, i as u32);
        }
    }

    #[test]
    fn trace_counts_full_scan() {
        let data = EmbeddingModel::new(16, 2, 1).generate(100);
        let index = FlatIndex::build(&data, Metric::L2);
        let out = index
            .search(data.row(0), 5, &SearchParams::default())
            .unwrap();
        assert_eq!(out.trace.compute_count(), 100);
        assert_eq!(out.trace.io_count(), 0);
        assert_eq!(index.memory_bytes(), 100 * 16 * 4);
        assert_eq!(index.storage_bytes(), 0);
    }

    #[test]
    fn results_are_sorted_by_distance() {
        let data = EmbeddingModel::new(8, 2, 2).generate(50);
        let index = FlatIndex::build(&data, Metric::L2);
        let out = index
            .search(data.row(0), 10, &SearchParams::default())
            .unwrap();
        for pair in out.neighbors.windows(2) {
            assert!(pair[0].dist <= pair[1].dist);
        }
    }
}
