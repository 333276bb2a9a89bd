//! Clustering and vector quantization.
//!
//! Three building blocks used by the indexes in `sann-index`:
//!
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding and parallel
//!   assignment; used by IVF to partition the dataset and by product
//!   quantization to train sub-codebooks.
//! * [`ProductQuantizer`] — product quantization (Jégou et al., TPAMI 2011):
//!   the compressed in-memory representation DiskANN keeps for candidate
//!   ranking, and the compression LanceDB applies to its IVF index.
//! * [`ScalarQuantizer`] — per-dimension u8 quantization, the compression
//!   LanceDB applies to its HNSW index.
//!
//! # Examples
//!
//! ```
//! use sann_quant::ProductQuantizer;
//! use sann_datagen::EmbeddingModel;
//!
//! let data = EmbeddingModel::new(64, 4, 1).generate(500);
//! let pq = ProductQuantizer::train(&data, 8, 16, 42)?;
//! let code = pq.encode(data.row(0));
//! assert_eq!(code.len(), 8);
//! let table = pq.distance_table(data.row(0));
//! // The reconstruction distance of a vector to itself is small.
//! assert!(table.distance(&code) < 0.5);
//! # Ok::<(), sann_core::Error>(())
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

pub mod kmeans;
pub mod pq;
pub mod sq;

pub use kmeans::{KMeans, KMeansModel};
pub use pq::{DistanceTable, ProductQuantizer};
pub use sq::ScalarQuantizer;
