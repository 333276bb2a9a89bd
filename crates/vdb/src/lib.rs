//! The engine profiles and benchmark setups of the paper's four vector
//! databases.
//!
//! [`DbProfile`] models each benchmarked database's execution architecture,
//! [`Setup`] enumerates the paper's seven (database × index × placement)
//! configurations used throughout Figs. 2–15, and [`IndexSpec`] builds the
//! index behind each of them.
//!
//! # Examples
//!
//! ```
//! use sann_core::Metric;
//! use sann_datagen::EmbeddingModel;
//! use sann_index::SearchParams;
//! use sann_vdb::IndexSpec;
//!
//! let base = EmbeddingModel::new(16, 4, 7).generate(500);
//! let index = IndexSpec::Hnsw(Default::default()).build(&base, Metric::L2)?;
//! let hits = index.search(base.row(42), 3, &SearchParams::default())?;
//! assert_eq!(hits.neighbors[0].id, 42);
//! # Ok::<(), sann_core::Error>(())
//! ```

pub mod profiles;
pub mod setup;

pub use profiles::DbProfile;
pub use setup::{IndexSpec, Setup, SetupKind, TunedParams};
