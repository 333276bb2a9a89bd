//! `sann-xtask` — the workspace invariant checker.
//!
//! The simulation stack promises *bit-determinism*: identical inputs produce
//! identical metrics, byte for byte. That promise is easy to break with one
//! careless `Instant::now()` or an iteration over a `HashMap`. This crate
//! enforces it — and a wider set of workspace invariants — from two
//! directions:
//!
//! * **statically** — [`analyze`] drives a hand-rolled Rust [`lexer`] over
//!   every product crate and applies the [`rules`] registry: the determinism
//!   deny-set, crate-layering against the declared dependency DAG,
//!   panic-path and cast-safety audits ratcheted against
//!   [`baseline`]-recorded counts, and hot-loop hygiene for the functions
//!   listed in the hot-path manifest. Every rule runs on every run, and the
//!   result renders as one table;
//! * **dynamically** — [`determinism`] runs a small end-to-end sweep twice
//!   with the same seed and diffs the canonical metric encodings byte for
//!   byte, validating every query trace on the way — and double-runs the
//!   analyzer itself, demanding byte-stable output.
//!
//! Run it as `cargo run -p sann-xtask -- analyze` and `-- determinism`.

pub mod analyze;
pub mod baseline;
pub mod determinism;
pub mod lexer;
pub mod rules;
