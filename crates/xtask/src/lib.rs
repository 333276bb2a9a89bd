//! `sann-xtask` — the workspace invariant checker.
//!
//! The simulation stack promises *bit-determinism*: identical inputs produce
//! identical metrics, byte for byte. The root `clippy.toml` bans the wall
//! clock and hash containers outright; this crate enforces the rest, from
//! two directions:
//!
//! * **statically** — [`analyze`] counts clippy's lossy-cast and panic lints
//!   per package ([`clippy`]), runs the three hot-path rules ([`rules`]) on
//!   a hand-rolled [`lexer`]'s tokens of the functions the hot-path manifest
//!   lists, ratchets both against [`baseline`]-recorded counts, and checks
//!   the crate manifests against the declared dependency DAG
//!   ([`layering`]). The result renders as one table;
//! * **dynamically** — [`determinism`] runs a small end-to-end sweep twice
//!   with the same seed and diffs the canonical metric encodings byte for
//!   byte — and double-runs the analyzer itself, demanding byte-stable
//!   output.
//!
//! Run it as `cargo run -p sann-xtask -- analyze` and `-- determinism`.

pub mod analyze;
pub mod baseline;
pub mod clippy;
pub mod determinism;
pub mod layering;
pub mod lexer;
pub mod rules;
