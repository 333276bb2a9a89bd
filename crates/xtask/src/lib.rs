//! `sann-xtask` — the workspace's runtime determinism audit.
//!
//! The simulation stack promises *bit-determinism*: identical inputs produce
//! identical metrics, byte for byte. The root `clippy.toml` bans the wall
//! clock and hash containers outright, and the workspace lint table denies
//! lossy casts and panics; what no lint can see, [`determinism`] checks at
//! run time: it runs a small end-to-end sweep twice with the same seed and
//! diffs the canonical metric encodings byte for byte.
//!
//! Run it as `cargo run --release -p sann-xtask -- determinism`.

pub mod determinism;
