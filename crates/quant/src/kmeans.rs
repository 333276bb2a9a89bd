//! Lloyd's k-means with k-means++ seeding and parallel assignment.

use sann_core::distance::{cols_from_rows, l2_squared, l2_squared_cols};
use sann_core::rng::SplitMix64;
use sann_core::{par, Dataset, Error, Metric, Result};

/// K-means trainer configuration.
///
/// # Examples
///
/// ```
/// use sann_quant::KMeans;
/// use sann_datagen::EmbeddingModel;
///
/// let data = EmbeddingModel::new(16, 4, 7).generate(400);
/// let model = KMeans::new(4).with_max_iters(10).fit(&data)?;
/// assert_eq!(model.centroids.len(), 4);
/// assert_eq!(model.assignments.len(), 400);
/// # Ok::<(), sann_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    seed: u64,
    sample_limit: usize,
}

impl KMeans {
    /// Creates a trainer for `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iters: 20,
            seed: 0x5EED_4B4B,
            sample_limit: usize::MAX,
        }
    }

    /// Sets the maximum number of Lloyd iterations (default 20).
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the RNG seed used for k-means++ seeding.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains on at most `limit` sampled rows (assignments are still computed
    /// for every row afterwards). Use this to cap training cost on large
    /// datasets.
    pub fn with_sample_limit(mut self, limit: usize) -> Self {
        self.sample_limit = limit.max(1);
        self
    }

    /// Runs k-means on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `data` has fewer rows than
    /// `k`, and [`Error::Empty`] when `data` is empty.
    pub fn fit(&self, data: &Dataset) -> Result<KMeansModel> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if data.len() < self.k {
            return Err(Error::invalid_parameter(
                "k",
                format!(
                    "{} clusters requested but only {} vectors",
                    self.k,
                    data.len()
                ),
            ));
        }
        let mut rng = SplitMix64::new(self.seed);

        // Train on a sample when the dataset is large.
        let train: Dataset = if data.len() > self.sample_limit {
            let idx = rng.sample_indices(data.len(), self.sample_limit);
            let mut sample = Dataset::with_dim(data.dim());
            for i in idx {
                sample.push(data.row(i)).expect("same dim");
            }
            sample
        } else {
            data.clone()
        };

        let mut centroids = kmeanspp_init(&train, self.k, &mut rng);
        let mut assignments = vec![0u32; train.len()];
        for _ in 0..self.max_iters {
            let changed = assign_parallel(&train, &centroids, self.k, &mut assignments);
            recompute_centroids(&train, &assignments, self.k, &mut centroids, &mut rng);
            if changed == 0 {
                break;
            }
        }

        // Final assignment over the full dataset.
        let mut full_assignments = vec![0u32; data.len()];
        assign_parallel(data, &centroids, self.k, &mut full_assignments);

        Ok(KMeansModel {
            centroids: Dataset::from_flat(centroids, data.dim()).expect("rectangular"),
            assignments: full_assignments,
        })
    }
}

/// The result of k-means training.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// One centroid per cluster (`k × dim`).
    pub centroids: Dataset,
    /// Cluster id of every input row.
    pub assignments: Vec<u32>,
}

impl KMeansModel {
    /// Id of the centroid closest to `v`.
    pub fn nearest(&self, v: &[f32]) -> u32 {
        let mut dists = vec![0.0; self.centroids.len()];
        Metric::L2.distance_rows(v, self.centroids.as_flat(), &mut dists);
        first_smallest(&dists)
    }

    /// Ids of the `n` centroids closest to `v`, closest first.
    pub fn nearest_n(&self, v: &[f32], n: usize) -> Vec<u32> {
        let mut dists = vec![0.0; self.centroids.len()];
        Metric::L2.distance_rows(v, self.centroids.as_flat(), &mut dists);
        let mut topk = sann_core::TopK::new(n.max(1).min(self.centroids.len()));
        for (c, &d) in dists.iter().enumerate() {
            topk.push(c as u32, d);
        }
        topk.into_sorted_vec().into_iter().map(|nb| nb.id).collect()
    }

    /// Total within-cluster sum of squared distances over `data`.
    pub fn inertia(&self, data: &Dataset) -> f64 {
        data.iter()
            .zip(&self.assignments)
            .map(|(row, &a)| l2_squared(row, self.centroids.row(a as usize)) as f64)
            .sum()
    }

    /// Appends the canonical little-endian encoding (centroids, then the
    /// assignment vector) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        self.centroids.encode_into(buf);
        buf.put_u64_le(self.assignments.len() as u64);
        for &a in &self.assignments {
            buf.put_u32_le(a);
        }
    }

    /// Reads a model previously written by [`KMeansModel::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or an out-of-range
    /// assignment.
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<KMeansModel> {
        let centroids = Dataset::decode_from(r)?;
        let n = r.get_u64_le()? as usize;
        if r.remaining() < n.saturating_mul(4) {
            return Err(Error::Corrupt("kmeans: truncated assignments".into()));
        }
        let k = centroids.len() as u32;
        let mut assignments = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.get_u32_le()?;
            if a >= k {
                return Err(Error::Corrupt("kmeans: assignment out of range".into()));
            }
            assignments.push(a);
        }
        Ok(KMeansModel {
            centroids,
            assignments,
        })
    }
}

/// Index of the smallest distance (the first of equals).
fn first_smallest(dists: &[f32]) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for (c, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

/// Index of the centroid closest to `v` (the first of equals) among the
/// `dists.len()` stored in `cols` in the column layout of
/// [`cols_from_rows`]; `dists` is scratch.
pub(crate) fn nearest_centroid(v: &[f32], cols: &[f32], dists: &mut [f32]) -> u32 {
    l2_squared_cols(v, cols, dists);
    first_smallest(dists)
}

/// k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).
fn kmeanspp_init(data: &Dataset, k: usize, rng: &mut SplitMix64) -> Vec<f32> {
    let dim = data.dim();
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.next_bounded(data.len() as u64) as usize;
    centroids.extend_from_slice(data.row(first));

    let mut min_dist = vec![0.0f32; data.len()];
    Metric::L2.distance_rows(data.row(first), data.as_flat(), &mut min_dist);
    let mut dists = vec![0.0f32; data.len()];
    for _ in 1..k {
        let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.next_bounded(data.len() as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = data.len() - 1;
            for (i, &d) in min_dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(data.row(next));
        Metric::L2.distance_rows(data.row(next), data.as_flat(), &mut dists);
        for (min, &d) in min_dist.iter_mut().zip(&dists) {
            if d < *min {
                *min = d;
            }
        }
    }
    centroids
}

/// Assigns every row to its nearest centroid in parallel; returns the number
/// of rows whose assignment changed.
fn assign_parallel(data: &Dataset, centroids: &[f32], k: usize, assignments: &mut [u32]) -> usize {
    // Every row scans all k centroids, so they are laid out once, here, the
    // way the scan reads them.
    let mut cols = Vec::new();
    cols_from_rows(centroids, data.dim(), &mut cols);
    let centroids = &cols;
    let changed = std::sync::atomic::AtomicUsize::new(0);
    par::par_chunks_mut(assignments, 1, par::default_threads(), |first, chunk| {
        let mut dists = vec![0.0; k];
        let mut local_changed = 0usize;
        for (i, slot) in chunk.iter_mut().enumerate() {
            let best = nearest_centroid(data.row(first + i), centroids, &mut dists);
            if *slot != best {
                *slot = best;
                local_changed += 1;
            }
        }
        changed.fetch_add(local_changed, std::sync::atomic::Ordering::Relaxed);
    });
    changed.into_inner()
}

fn recompute_centroids(
    data: &Dataset,
    assignments: &[u32],
    k: usize,
    centroids: &mut [f32],
    rng: &mut SplitMix64,
) {
    let dim = data.dim();
    let mut counts = vec![0u64; k];
    centroids.fill(0.0);
    for (row, &a) in data.iter().zip(assignments) {
        let c = a as usize;
        counts[c] += 1;
        for (acc, &x) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(row) {
            *acc += x;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Re-seed an empty cluster at a random data point so k survives.
            let i = rng.next_bounded(data.len() as u64) as usize;
            centroids[c * dim..(c + 1) * dim].copy_from_slice(data.row(i));
        } else {
            let inv = 1.0 / counts[c] as f32;
            for x in centroids[c * dim..(c + 1) * dim].iter_mut() {
                *x *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n_per: usize) -> Dataset {
        let mut rng = SplitMix64::new(99);
        let mut rows = Vec::new();
        for _ in 0..n_per {
            rows.push(vec![
                10.0 + rng.next_f32() * 0.1,
                10.0 + rng.next_f32() * 0.1,
            ]);
        }
        for _ in 0..n_per {
            rows.push(vec![
                -10.0 + rng.next_f32() * 0.1,
                -10.0 + rng.next_f32() * 0.1,
            ]);
        }
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs(50);
        let model = KMeans::new(2).with_seed(1).fit(&data).unwrap();
        // All of the first blob maps to one cluster, all of the second to the other.
        let first = model.assignments[0];
        assert!(model.assignments[..50].iter().all(|&a| a == first));
        assert!(model.assignments[50..].iter().all(|&a| a != first));
    }

    #[test]
    fn inertia_decreases_vs_random_centroid() {
        let data = two_blobs(50);
        let model = KMeans::new(2).fit(&data).unwrap();
        // Tight blobs: inertia per point must be tiny compared with blob distance.
        assert!(model.inertia(&data) / 100.0 < 1.0);
    }

    #[test]
    fn rejects_k_larger_than_n() {
        let data = two_blobs(1);
        assert!(KMeans::new(5).fit(&data).is_err());
    }

    #[test]
    fn rejects_empty() {
        let data = Dataset::with_dim(4);
        assert!(matches!(KMeans::new(1).fit(&data), Err(Error::Empty(_))));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs(30);
        let a = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        let b = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn nearest_n_returns_sorted_prefix() {
        let data = two_blobs(30);
        let model = KMeans::new(2).fit(&data).unwrap();
        let near = model.nearest_n(&[10.0, 10.0], 2);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0], model.nearest(&[10.0, 10.0]));
    }

    #[test]
    fn nearest_matches_single_pair_scan() {
        // 7 centroids: a padded group of the row kernel and a padded tile of
        // the column kernel; 9: a padded tile after a full one; 16: full
        // tiles only.
        let data = two_blobs(40);
        for k in [7, 9, 16] {
            let model = KMeans::new(k).with_seed(3).fit(&data).unwrap();
            for (row, &assigned) in data.iter().zip(&model.assignments) {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (c, centroid) in model.centroids.iter().enumerate() {
                    let d = l2_squared(row, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assert_eq!(model.nearest(row) as usize, best);
                assert_eq!(assigned as usize, best);
                assert_eq!(model.nearest_n(row, 3)[0] as usize, best);
            }
        }
    }

    #[test]
    fn sample_limit_still_assigns_everything() {
        let data = two_blobs(200);
        let model = KMeans::new(2).with_sample_limit(40).fit(&data).unwrap();
        assert_eq!(model.assignments.len(), 400);
        let first = model.assignments[0];
        assert!(model.assignments[..200].iter().all(|&a| a == first));
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let data = two_blobs(30);
        let model = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        let back = KMeansModel::decode_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.centroids, model.centroids);
        assert_eq!(back.assignments, model.assignments);
        let mut w2 = sann_core::buf::ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_truncation_and_bad_assignment() {
        let data = two_blobs(10);
        let model = KMeans::new(2).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes[..bytes.len() - 2], "test");
        assert!(KMeansModel::decode_from(&mut r).is_err());
        // Corrupt the last assignment to an out-of-range cluster id.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        assert!(KMeansModel::decode_from(&mut r).is_err());
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        // All points identical: k-means++ falls back to uniform picks and
        // empty clusters are reseeded.
        let rows = vec![vec![1.0, 1.0]; 20];
        let data = Dataset::from_rows(rows).unwrap();
        let model = KMeans::new(3).fit(&data).unwrap();
        assert_eq!(model.centroids.len(), 3);
    }
}
