//! A single-node vector database, plus the engine profiles and benchmark
//! setups of the paper's four databases.
//!
//! The paper (§II-C) distinguishes vector *databases* from bare ANNS
//! *indexes*: databases add payloads, filtered search, mutation, and
//! persistence on top of an index. This crate provides both halves:
//!
//! * the **database**: a [`Collection`] with payload storage, insert/delete
//!   (tombstones), payload-[`Filter`]ed search, [`snapshot`] persistence,
//!   and pluggable indexes ([`IndexSpec`]);
//! * the **characterization setups**: [`DbProfile`] models each benchmarked
//!   database's execution architecture and [`Setup`] enumerates the paper's
//!   seven (database × index × placement) configurations used throughout
//!   Figs. 2–15.
//!
//! # Examples
//!
//! ```
//! use sann_vdb::{Collection, Filter, IndexSpec, Payload, Value};
//! use sann_core::Metric;
//! use sann_index::SearchParams;
//!
//! let mut docs = Collection::new("docs", 4, Metric::L2)?;
//! for i in 0..100u32 {
//!     let v = [i as f32, 0.0, 0.0, 0.0];
//!     let payload = Payload::new().with("category", Value::Int((i % 2) as i64));
//!     docs.insert(&v, payload)?;
//! }
//! docs.build_index(IndexSpec::Flat)?;
//! let filter = Filter::eq("category", Value::Int(0));
//! let hits = docs.search(&[5.0, 0.0, 0.0, 0.0], 3, &SearchParams::default(), Some(&filter))?;
//! assert!(hits.iter().all(|h| h.id % 2 == 0));
//! # Ok::<(), sann_core::Error>(())
//! ```

pub mod collection;
pub mod payload;
pub mod profiles;
pub mod setup;
pub mod snapshot;

pub use collection::{Collection, IndexSpec, SearchHit};
pub use payload::{Filter, Payload, Value};
pub use profiles::DbProfile;
pub use setup::{Setup, SetupKind, TunedParams};
