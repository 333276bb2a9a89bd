//! Exact k-nearest-neighbor ground truth via parallel brute force.

use sann_core::buf::{ByteReader, ByteWriter};
use sann_core::cast;
use sann_core::{par, Dataset, Error, Metric, Result, TopK};

/// Exact nearest neighbors for a query set, used to score recall@k.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    k: usize,
    ids: Vec<Vec<u32>>,
}

impl GroundTruth {
    /// Computes exact top-`k` neighbors of every query by brute force,
    /// parallelized across all available cores.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `queries` disagree on dimensionality or `k == 0`.
    pub fn bruteforce(base: &Dataset, queries: &Dataset, metric: Metric, k: usize) -> GroundTruth {
        assert_eq!(base.dim(), queries.dim(), "dimension mismatch");
        assert!(k > 0, "k must be positive");
        let mut ids = vec![Vec::new(); queries.len()];

        // Each worker scans the whole base set for its run of queries.
        par::par_chunks_mut(&mut ids, 1, par::default_threads(), |first, out_chunk| {
            let mut dists = vec![0.0f32; base.len()];
            for (i, out) in out_chunk.iter_mut().enumerate() {
                metric.distance_rows(queries.row(first + i), base.as_flat(), &mut dists);
                let mut topk = TopK::new(k);
                for (id, &d) in dists.iter().enumerate() {
                    topk.push(cast::u32_from_usize(id), d);
                }
                *out = topk.into_sorted_vec().into_iter().map(|n| n.id).collect();
            }
        });

        GroundTruth { k, ids }
    }

    /// The `k` this ground truth was computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ground truth covers no queries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True neighbor ids of query `q`, closest first.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn neighbors(&self, q: usize) -> &[u32] {
        &self.ids[q]
    }

    /// Mean recall@k of a batch of result lists (one per query, in query
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `results.len() != self.len()`.
    pub fn mean_recall(&self, results: &[Vec<u32>]) -> f64 {
        sann_core::recall::mean_recall_at_k(&self.ids, results, self.k)
    }

    /// Appends the canonical little-endian encoding (`k`, query count, then
    /// each query's neighbor list with a length prefix) to `buf`.
    pub fn encode_into(&self, buf: &mut ByteWriter) {
        buf.put_count_u32(self.k);
        buf.put_count_u64(self.ids.len());
        for list in &self.ids {
            buf.put_count_u32(list.len());
            buf.put_u32s(list.iter().copied());
        }
    }

    /// Reads a ground truth previously written by
    /// [`GroundTruth::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, `k == 0`, or a neighbor
    /// list longer than `k`.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<GroundTruth> {
        let k = r.get_count_u32("groundtruth k", 0)?;
        if k == 0 {
            return Err(Error::Corrupt("groundtruth: zero k".into()));
        }
        // Every list costs at least its length word.
        let n = r.get_count_u64("groundtruth lists", 4)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.get_count_u32("groundtruth neighbors", 4)?;
            if len > k {
                return Err(Error::Corrupt("groundtruth: list longer than k".into()));
            }
            ids.push(r.get_u32s(len)?.collect());
        }
        Ok(GroundTruth { k, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::rng::SplitMix64;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.next_f32()).collect();
        Dataset::from_flat(data, dim).unwrap()
    }

    fn naive_truth(base: &Dataset, q: &[f32], k: usize) -> Vec<u32> {
        let mut dists: Vec<(f32, u32)> = base
            .iter()
            .enumerate()
            .map(|(i, row)| (Metric::L2.distance(q, row), i as u32))
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        dists.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn matches_naive_single_threaded_scan() {
        let base = random_dataset(300, 16, 1);
        let queries = random_dataset(17, 16, 2);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 5);
        assert_eq!(gt.len(), 17);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                gt.neighbors(i),
                naive_truth(&base, q, 5).as_slice(),
                "query {i}"
            );
        }
    }

    #[test]
    fn perfect_results_have_recall_one() {
        let base = random_dataset(100, 8, 3);
        let queries = random_dataset(5, 8, 4);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 3);
        let results: Vec<Vec<u32>> = (0..5).map(|i| gt.neighbors(i).to_vec()).collect();
        assert_eq!(gt.mean_recall(&results), 1.0);
    }

    #[test]
    fn self_query_returns_self_first() {
        let base = random_dataset(50, 8, 5);
        // Use base vectors themselves as queries.
        let gt = GroundTruth::bruteforce(&base, &base, Metric::L2, 1);
        for i in 0..50 {
            assert_eq!(gt.neighbors(i)[0], i as u32);
        }
    }

    #[test]
    fn handles_k_larger_than_base() {
        let base = random_dataset(3, 4, 6);
        let queries = random_dataset(2, 4, 7);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        assert_eq!(gt.neighbors(0).len(), 3);
    }

    #[test]
    fn codec_round_trips_exactly() {
        let base = random_dataset(40, 8, 8);
        let queries = random_dataset(9, 8, 9);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 4);
        let mut w = ByteWriter::new();
        gt.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        let back = GroundTruth::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, gt);
    }

    #[test]
    fn codec_round_trips_short_lists() {
        // k larger than the base set leaves lists shorter than k.
        let base = random_dataset(3, 4, 10);
        let queries = random_dataset(2, 4, 11);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let mut w = ByteWriter::new();
        gt.encode_into(&mut w);
        let bytes = w.into_bytes();
        let back = GroundTruth::decode_from(&mut ByteReader::new(&bytes, "test")).unwrap();
        assert_eq!(back, gt);
    }

    #[test]
    fn codec_rejects_truncation() {
        let base = random_dataset(20, 4, 12);
        let queries = random_dataset(5, 4, 13);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 3);
        let mut w = ByteWriter::new();
        gt.encode_into(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut], "test");
            assert!(
                matches!(GroundTruth::decode_from(&mut r), Err(Error::Corrupt(_))),
                "cut={cut}"
            );
        }
        // 2^62 lists: refused before anything is sized by the count.
        let mut huge = bytes.clone();
        huge[4..12].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let mut r = ByteReader::new(&huge, "test");
        assert!(matches!(
            GroundTruth::decode_from(&mut r),
            Err(Error::Corrupt(_))
        ));
    }
}
