//! Panic-path audit, the part clippy cannot say: slice indexing inside hot
//! functions.
//!
//! A panic in the executor's I/O completion path or the ssdsim scheduler
//! aborts a multi-hour characterization sweep. Inside the functions the
//! hot-path manifest names, `expr[i]` is such a site. The rule is ratcheted;
//! an audited site carries a `sann-lint: allow(panic-path) -- <invariant>`
//! marker. `unwrap`, `expect` and the panicking macros are clippy's
//! (`unwrap_used`, `expect_used`, `panic`, `unreachable`, `unimplemented`),
//! counted per package by the analyzer's clippy pass.

use super::{Finding, RuleCtx};
use crate::lexer::TokKind;

/// Runs the panic-path rule over one file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || !t.is_punct('[') || !ctx.in_hot(i) || i == 0 {
            continue;
        }
        // Heuristic: `[` directly after a value token (ident, `)`, `]`) is
        // an index or slice expression; after `#`, `=`, `(`, `,`, `&`, … it
        // is an attribute, array literal, or type, and after `let` an array
        // pattern, none of which can panic.
        let prev = &ctx.toks[i - 1];
        let indexes_value =
            (prev.kind == TokKind::Ident || prev.is_punct(')') || prev.is_punct(']'))
                && !["mut", "let", "return"].iter().any(|k| prev.is_ident(k));
        if indexes_value {
            out.push(
                ctx.finding(
                    i,
                    "panic-path",
                    "slice indexing in a hot function panics out of range; \
                 use get()/iterators or document the bound invariant"
                        .to_string(),
                ),
            );
        }
    }
}
