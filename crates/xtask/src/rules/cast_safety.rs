//! Cast-safety audit: bare `as` numeric casts.
//!
//! An `as` cast between numeric types never fails — it truncates, wraps,
//! saturates, or rounds. In sim-time arithmetic (`f64` µs → `u64` ns),
//! byte-offset math (`u64` offsets → `u32` request lengths), and recall
//! accounting that is exactly the silent-wrong-figure class the paper's
//! methodology cannot tolerate: a >4 GiB layout whose offset gets squeezed
//! through `u32` produces plausible-looking but wrong I/O traces.
//!
//! The rule is ratcheted. New casts should use the checked helpers
//! (`sann_core::cast`, the engine's `us_to_ns` family), `try_into` with
//! context, or carry a `sann-lint: allow(cast-truncation) -- <why lossless>`
//! marker. Test trees and `#[cfg(test)]` items are exempt.

use super::{Finding, RuleCtx};
use crate::lexer::TokKind;

/// Primitive numeric types an `as` cast can target.
const NUMERIC: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Runs the cast-safety rule over one file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.tree.ratcheted_rules_apply() {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || !t.is_ident("as") {
            continue;
        }
        let Some(target) = ctx.toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NUMERIC.contains(&target.text) {
            continue; // `use x as y`, `as &dyn T`, `as char`, …
        }
        out.push(ctx.finding(
            i,
            "cast-truncation",
            format!(
                "bare `as {}` cast truncates/saturates silently; use a checked \
                 helper or try_into",
                target.text
            ),
        ));
    }
}
