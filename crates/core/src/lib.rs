//! Core primitives for storage-based approximate nearest neighbor search.
//!
//! This crate provides the foundation every other `sann` crate builds on:
//!
//! * [`Dataset`] — a dense, row-major matrix of `f32` vectors,
//! * [`Metric`] and the distance kernels in [`distance`],
//! * [`Neighbor`] and the [`TopK`] collector used by all index searches,
//! * [`recall::recall_at_k`] — the accuracy metric reported by the paper,
//! * [`stats`] — percentile/mean helpers shared by the benchmark harness,
//! * [`rng::SplitMix64`] — a tiny deterministic RNG so experiments are
//!   reproducible across crates without threading generator generics
//!   everywhere,
//! * [`par`] — scoped-thread data-parallel helpers for builds,
//! * [`buf`] — little-endian byte encoding/decoding for persisted
//!   frames and canonical metric fingerprints,
//! * [`check`] — a seeded property-test harness used by the workspace's
//!   invariant tests, and the golden-file comparison its golden tests share.
//!
//! # Examples
//!
//! ```
//! use sann_core::{Dataset, Metric, TopK};
//!
//! let data = Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
//! let query = [0.1f32, 0.0];
//! let mut topk = TopK::new(2);
//! for (id, row) in data.iter().enumerate() {
//!     topk.push(id as u32, Metric::L2.distance(&query, row));
//! }
//! let hits = topk.into_sorted_vec();
//! assert_eq!(hits[0].id, 0);
//! assert_eq!(hits[1].id, 1);
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

pub mod buf;
pub mod cast;
pub mod check;
pub mod distance;
pub mod error;
pub mod hash;
pub mod par;
pub mod recall;
pub mod rng;
pub mod stats;
pub mod topk;
pub mod vector;

pub use distance::Metric;
pub use error::{Error, Result};
pub use topk::{Neighbor, TopK};
pub use vector::Dataset;
