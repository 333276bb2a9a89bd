//! Gaussian-mixture embedding generator.
//!
//! Real text-embedding corpora are far from uniform: vectors live near the
//! unit sphere and concentrate in topical clusters of very different sizes.
//! The generator models that as a mixture of anisotropic Gaussians centred at
//! random directions, with Zipf-distributed mixture weights, followed by
//! normalization onto the unit sphere.

use sann_core::cast;
use sann_core::distance::normalize;
use sann_core::rng::SplitMix64;
use sann_core::Dataset;

/// A generative model of embedding vectors.
///
/// The model is fully determined by its parameters plus a seed, so datasets
/// are reproducible. Base vectors and query vectors are drawn from the *same*
/// mixture (queries are in-distribution, as in VectorDBBench).
///
/// Within-cluster noise is **anisotropic**: most of its variance lies in a
/// low-rank subspace of `intrinsic_rank` decaying directions per cluster,
/// with a small isotropic floor. Real embedding corpora have low intrinsic
/// dimension; with purely isotropic noise in hundreds of dimensions, all
/// within-cluster distances concentrate to a single value, nearest neighbors
/// degenerate, and proximity-graph pruning (HNSW's heuristic, Vamana's
/// α-prune) stops working — unlike on any real corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingModel {
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of mixture components ("topics").
    pub clusters: usize,
    /// Expected norm of the within-cluster noise vector. Smaller values
    /// produce tighter, easier-to-index clusters.
    pub cluster_std: f64,
    /// Zipf skew of cluster sizes; `0.0` gives equal-sized clusters.
    pub zipf_s: f64,
    /// Rank of the dominant noise subspace per cluster (clamped to `dim`).
    pub intrinsic_rank: usize,
    /// Fraction of noise variance in the low-rank subspace (0..1); the rest
    /// is isotropic.
    pub anisotropy: f64,
    /// RNG seed.
    pub seed: u64,
}

impl EmbeddingModel {
    /// A model with defaults resembling sentence-embedding corpora.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `clusters` is zero.
    pub fn new(dim: usize, clusters: usize, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(clusters > 0, "clusters must be positive");
        EmbeddingModel {
            dim,
            clusters,
            cluster_std: 0.35,
            zipf_s: 0.9,
            intrinsic_rank: 16,
            anisotropy: 0.85,
            seed,
        }
    }

    /// Generates `n` base vectors.
    pub fn generate(&self, n: usize) -> Dataset {
        self.generate_stream(n, 0)
    }

    /// Generates `n` query vectors, decorrelated from the base set.
    pub fn generate_queries(&self, n: usize) -> Dataset {
        self.generate_stream(n, 1)
    }

    /// Generates from an explicitly tagged sub-stream; `tag` 0 is the base
    /// set, 1 the query set, and further tags are free for callers (e.g.
    /// insert workloads).
    #[allow(
        clippy::expect_used,
        reason = "every row pushed is `self.dim` wide, and `clamp(1, self.dim)` already panics on a zero dim"
    )]
    pub fn generate_stream(&self, n: usize, tag: u64) -> Dataset {
        let centers = self.centers();
        let weights = self.weights();
        let basis = self.noise_basis();
        let rank = self.intrinsic_rank.clamp(1, self.dim);
        let mut rng = SplitMix64::new(self.seed).split(0x5EED_0000 + tag);

        // Split the noise energy: `anisotropy` into the low-rank subspace
        // (direction j carries weight ∝ 1/sqrt(j+1)), the rest isotropic.
        let aniso = self.anisotropy.clamp(0.0, 1.0);
        let decay: Vec<f64> = (0..rank)
            .map(|j| 1.0 / cast::f64_from_usize(j + 1).sqrt())
            .collect();
        let decay_norm: f64 = decay.iter().map(|d| d * d).sum::<f64>().sqrt();
        let lowrank_scales: Vec<f64> = decay
            .iter()
            .map(|d| self.cluster_std * aniso.sqrt() * d / decay_norm)
            .collect();
        let iso_sigma =
            self.cluster_std * (1.0 - aniso).sqrt() / cast::f64_from_usize(self.dim).sqrt();

        let mut data = Vec::with_capacity(n * self.dim);
        let mut buf = vec![0.0f32; self.dim];
        for _ in 0..n {
            let c = pick_weighted(&mut rng, &weights);
            let center = &centers[c * self.dim..(c + 1) * self.dim];
            for (out, &x) in buf.iter_mut().zip(center) {
                *out = x + cast::f32_from_f64(iso_sigma * rng.next_gaussian());
            }
            let cluster_basis = &basis[c * rank * self.dim..(c + 1) * rank * self.dim];
            for (j, &scale) in lowrank_scales.iter().enumerate() {
                let z = cast::f32_from_f64(scale * rng.next_gaussian());
                let dir = &cluster_basis[j * self.dim..(j + 1) * self.dim];
                for (out, &d) in buf.iter_mut().zip(dir) {
                    *out += z * d;
                }
            }
            normalize(&mut buf);
            data.extend_from_slice(&buf);
        }
        Dataset::from_flat(data, self.dim).expect("generated data is rectangular")
    }

    /// Per-cluster noise directions: `clusters × rank` unit vectors,
    /// flattened. Deterministic in the seed.
    fn noise_basis(&self) -> Vec<f32> {
        let rank = self.intrinsic_rank.clamp(1, self.dim);
        let mut rng = SplitMix64::new(self.seed).split(0xBA_515);
        let mut basis = Vec::with_capacity(self.clusters * rank * self.dim);
        for _ in 0..self.clusters * rank {
            let start = basis.len();
            for _ in 0..self.dim {
                basis.push(cast::f32_from_f64(rng.next_gaussian()));
            }
            normalize(&mut basis[start..]);
        }
        basis
    }

    /// The mixture component centres as a flat `clusters × dim` buffer
    /// (unit-normalized). Exposed for tests and for generators that need to
    /// place out-of-distribution queries.
    pub fn centers(&self) -> Vec<f32> {
        let mut rng = SplitMix64::new(self.seed).split(0xCE_17E2);
        let mut centers = Vec::with_capacity(self.clusters * self.dim);
        for _ in 0..self.clusters {
            let start = centers.len();
            for _ in 0..self.dim {
                centers.push(cast::f32_from_f64(rng.next_gaussian()));
            }
            normalize(&mut centers[start..]);
        }
        centers
    }

    /// Zipf mixture weights (normalized to sum to 1).
    pub fn weights(&self) -> Vec<f64> {
        let raw: Vec<f64> = (1..=self.clusters)
            .map(|rank| 1.0 / cast::f64_from_usize(rank).powf(self.zipf_s))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }
}

fn pick_weighted(rng: &mut SplitMix64, weights: &[f64]) -> usize {
    let mut x = rng.next_f64();
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::distance::norm;

    #[test]
    fn vectors_are_unit_norm() {
        let model = EmbeddingModel::new(64, 8, 42);
        let data = model.generate(100);
        for row in data.iter() {
            assert!((norm(row) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let model = EmbeddingModel::new(32, 4, 7);
        assert_eq!(model.generate(50), model.generate(50));
    }

    #[test]
    fn base_and_queries_differ() {
        let model = EmbeddingModel::new(32, 4, 7);
        assert_ne!(model.generate(10), model.generate_queries(10));
    }

    #[test]
    fn different_seeds_differ() {
        let a = EmbeddingModel::new(32, 4, 1).generate(10);
        let b = EmbeddingModel::new(32, 4, 2).generate(10);
        assert_ne!(a, b);
    }

    #[test]
    fn weights_sum_to_one_and_are_skewed() {
        let model = EmbeddingModel::new(8, 16, 1);
        let w = model.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[15], "Zipf weights must be decreasing");
    }

    #[test]
    fn data_is_clustered_not_uniform() {
        // Mean nearest-center distance must be far below the distance between
        // two random unit vectors (~sqrt(2) in high dim).
        let model = EmbeddingModel::new(128, 8, 3);
        let data = model.generate(200);
        let centers = model.centers();
        let mut total = 0.0f64;
        for row in data.iter() {
            let best = (0..8)
                .map(|c| sann_core::distance::l2_squared(row, &centers[c * 128..(c + 1) * 128]))
                .fold(f32::INFINITY, f32::min);
            total += best.sqrt() as f64;
        }
        let mean_dist = total / 200.0;
        assert!(
            mean_dist < 1.0,
            "mean nearest-center distance {mean_dist} too large"
        );
    }

    #[test]
    fn stream_tags_decorrelate() {
        let model = EmbeddingModel::new(16, 2, 5);
        assert_ne!(model.generate_stream(5, 2), model.generate_stream(5, 3));
    }
}
