//! `sann` — storage-based approximate nearest neighbor search.
//!
//! A facade crate re-exporting the whole workspace: from-scratch vector
//! indexes (Flat, IVF, HNSW, DiskANN), quantization, a parametric NVMe SSD
//! model with block-layer tracing, a discrete-event execution engine,
//! per-database engine profiles with the paper's seven benchmark setups,
//! and the IISWC'25 characterization harness that drives them.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.
//!
//! # Examples
//!
//! ```
//! use sann::core::{Dataset, Metric};
//!
//! let data = Dataset::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]])?;
//! assert_eq!(Metric::L2.distance(data.row(0), data.row(1)), 2.0);
//! # Ok::<(), sann::core::Error>(())
//! ```

pub use sann_core as core;
pub use sann_datagen as datagen;
pub use sann_engine as engine;
pub use sann_index as index;
pub use sann_obs as obs;
pub use sann_quant as quant;
pub use sann_ssdsim as ssdsim;
pub use sann_vdb as vdb;
