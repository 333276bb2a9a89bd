//! Synthetic embedding datasets, their query sets, and ground truth.
//!
//! The paper benchmarks four embedding datasets shipped with VectorDBBench:
//! Cohere 1M / Cohere 10M (768-dimensional) and OpenAI 500K / OpenAI 5M
//! (1536-dimensional). Those corpora are proprietary, so this crate generates
//! *synthetic stand-ins* with the statistical properties the experiments
//! depend on:
//!
//! * the exact dimensionalities (768 and 1536 — "the two most widely used
//!   embedding dimensions in RAG"),
//! * the 10× size ratio between the small and large variant of each family,
//! * realistic cluster structure (embeddings of a document corpus concentrate
//!   around topical clusters on the unit sphere) with anisotropic spread and
//!   skewed cluster sizes.
//!
//! Everything is seeded and deterministic: the same [`DatasetSpec`] always
//! produces the same vectors, queries, and ground truth.
//!
//! # Examples
//!
//! ```
//! use sann_datagen::{catalog, GroundTruth};
//!
//! let spec = catalog::cohere_s().scaled(0.001); // tiny run for the doctest
//! let bundle = spec.generate();
//! assert_eq!(bundle.base.dim(), 768);
//! let queries = bundle.queries.truncated(5);
//! let gt = GroundTruth::bruteforce(&bundle.base, &queries, spec.metric, 10);
//! assert_eq!(gt.k(), 10);
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        reason = "unit tests build fixtures and expected values with `as`; the non-test build denies these casts"
    )
)]

pub mod catalog;
pub mod groundtruth;
pub mod synth;

pub use catalog::{DatasetBundle, DatasetSpec};
pub use groundtruth::GroundTruth;
pub use synth::EmbeddingModel;
