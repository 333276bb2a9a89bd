//! The dataset catalog mirroring the paper's four workloads.
//!
//! | Paper dataset | Here | dim | base vectors (scale=1.0) |
//! |---|---|---|---|
//! | Cohere 1M  | `cohere-s` | 768  | 1,000,000 |
//! | Cohere 10M | `cohere-l` | 768  | 10,000,000 |
//! | OpenAI 500K | `openai-s` | 1536 | 500,000 |
//! | OpenAI 5M  | `openai-l` | 1536 | 5,000,000 |
//!
//! Experiments default to `--scale 0.025` (25K / 250K / 12.5K / 125K vectors)
//! so the full suite runs on a laptop; the 10× ratio between the small and
//! large variant — which drives the paper's scalability observations — is
//! preserved at every scale.

use crate::synth::EmbeddingModel;
use sann_core::buf::ByteWriter;
use sann_core::cast;
use sann_core::{Dataset, Metric};

/// Number of query vectors per dataset (the paper uses 1,000).
pub const DEFAULT_QUERIES: usize = 1_000;

/// A fully specified, reproducible dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Short name (`cohere-s`, `cohere-l`, `openai-s`, `openai-l`).
    pub name: String,
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of base vectors.
    pub n_base: usize,
    /// Number of query vectors.
    pub n_queries: usize,
    /// Metric used for search and ground truth (the paper uses cosine on
    /// normalized embeddings, which is rank-equivalent to L2; we use L2).
    pub metric: Metric,
    /// Number of topical clusters in the generator.
    pub clusters: usize,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Returns a copy scaled to `scale × n_base` vectors (minimum 1,000).
    /// Cluster count scales with the square root so density stays realistic.
    pub fn scaled(&self, scale: f64) -> DatasetSpec {
        let n_base = cast::usize_from_f64(cast::f64_from_usize(self.n_base) * scale).max(1_000);
        let clusters = cast::usize_from_f64(cast::f64_from_usize(self.clusters) * scale.sqrt())
            .clamp(8, self.clusters);
        DatasetSpec {
            n_base,
            clusters,
            ..self.clone()
        }
    }

    /// The generative model for this spec.
    pub fn model(&self) -> EmbeddingModel {
        EmbeddingModel::new(self.dim, self.clusters, self.seed)
    }

    /// Generates base and query vectors.
    pub fn generate(&self) -> DatasetBundle {
        let model = self.model();
        DatasetBundle {
            base: model.generate(self.n_base),
            queries: model.generate_queries(self.n_queries),
        }
    }

    /// Size in bytes of the full-precision base vectors (what would sit in
    /// memory or on disk before any index overhead).
    pub fn base_bytes(&self) -> u64 {
        self.n_base as u64 * self.dim as u64 * 4
    }

    /// Content hash of every generation-relevant field (name, shape, metric,
    /// cluster count, seed). Two specs share a key iff
    /// [`generate`](DatasetSpec::generate) provably produces identical
    /// bytes, which is what makes the key safe to address cached artifacts
    /// with.
    pub fn content_key(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_str(&self.name);
        w.put_u64_le(self.dim as u64);
        w.put_u64_le(self.n_base as u64);
        w.put_u64_le(self.n_queries as u64);
        w.put_u8(self.metric.tag());
        w.put_u64_le(self.clusters as u64);
        w.put_u64_le(self.seed);
        sann_core::hash::fnv1a64(w.as_slice())
    }
}

/// The generated vectors for a [`DatasetSpec`].
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// Base (indexed) vectors.
    pub base: Dataset,
    /// Query vectors.
    pub queries: Dataset,
}

/// Cohere-like small dataset: 1M × 768-d at scale 1.0.
pub fn cohere_s() -> DatasetSpec {
    DatasetSpec {
        name: "cohere-s".to_owned(),
        dim: 768,
        n_base: 1_000_000,
        n_queries: DEFAULT_QUERIES,
        metric: Metric::L2,
        clusters: 256,
        seed: 0xC0_4E_8E_01,
    }
}

/// Cohere-like large dataset: 10M × 768-d at scale 1.0 (10× `cohere-s`).
pub fn cohere_l() -> DatasetSpec {
    DatasetSpec {
        name: "cohere-l".to_owned(),
        n_base: 10_000_000,
        clusters: 512,
        ..cohere_s()
    }
}

/// OpenAI-like small dataset: 500K × 1536-d at scale 1.0.
pub fn openai_s() -> DatasetSpec {
    DatasetSpec {
        name: "openai-s".to_owned(),
        dim: 1536,
        n_base: 500_000,
        n_queries: DEFAULT_QUERIES,
        metric: Metric::L2,
        clusters: 192,
        seed: 0x00AE_4A02,
    }
}

/// OpenAI-like large dataset: 5M × 1536-d at scale 1.0 (10× `openai-s`).
pub fn openai_l() -> DatasetSpec {
    DatasetSpec {
        name: "openai-l".to_owned(),
        n_base: 5_000_000,
        clusters: 384,
        ..openai_s()
    }
}

/// All four paper datasets, in the paper's order.
pub fn all() -> Vec<DatasetSpec> {
    vec![cohere_s(), cohere_l(), openai_s(), openai_l()]
}

/// Looks a spec up by name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_shapes() {
        assert_eq!(cohere_s().dim, 768);
        assert_eq!(cohere_l().dim, 768);
        assert_eq!(openai_s().dim, 1536);
        assert_eq!(openai_l().dim, 1536);
        assert_eq!(cohere_l().n_base, 10 * cohere_s().n_base);
        assert_eq!(openai_l().n_base, 10 * openai_s().n_base);
    }

    #[test]
    fn scaling_preserves_ratio() {
        let s = cohere_s().scaled(0.01);
        let l = cohere_l().scaled(0.01);
        assert_eq!(l.n_base, 10 * s.n_base);
    }

    #[test]
    fn scaling_has_floor() {
        let tiny = cohere_s().scaled(1e-9);
        assert_eq!(tiny.n_base, 1_000);
        assert!(tiny.clusters >= 8);
    }

    #[test]
    fn by_name_finds_all() {
        for spec in all() {
            assert_eq!(by_name(&spec.name), Some(spec.clone()));
        }
        assert!(by_name("sift-1b").is_none());
    }

    #[test]
    fn generate_produces_requested_counts() {
        let spec = cohere_s().scaled(0.001);
        let bundle = spec.generate();
        assert_eq!(bundle.base.len(), spec.n_base);
        assert_eq!(bundle.queries.len(), spec.n_queries);
        assert_eq!(bundle.base.dim(), 768);
    }

    #[test]
    fn base_bytes_is_exact() {
        assert_eq!(cohere_s().base_bytes(), 1_000_000 * 768 * 4);
    }

    #[test]
    fn content_key_covers_every_generation_field() {
        let base = cohere_s().scaled(0.01);
        let key = base.content_key();
        assert_eq!(key, cohere_s().scaled(0.01).content_key(), "stable");
        let mut renamed = base.clone();
        renamed.name = "cohere-x".into();
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        let mut reshaped = base.clone();
        reshaped.n_base += 1;
        let mut remetric = base.clone();
        remetric.metric = Metric::Cosine;
        let mut reclustered = base.clone();
        reclustered.clusters += 1;
        for other in [renamed, reseeded, reshaped, remetric, reclustered] {
            assert_ne!(key, other.content_key(), "{other:?}");
        }
        assert_ne!(key, base.scaled(0.5).content_key());
    }
}
