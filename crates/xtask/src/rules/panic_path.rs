//! Panic-path audit: `unwrap`/`expect` calls, panicking macros, and slice
//! indexing inside hot functions.
//!
//! A panic in the executor's I/O completion path or the ssdsim scheduler
//! doesn't just crash: under `catch_unwind`-free batch sweeps it aborts a
//! multi-hour characterization run, and a *near*-panic (an unwrap "that can
//! never fail" becoming reachable after a refactor) is how silent wrong
//! figures happen. The rule is ratcheted: the existing audited sites are
//! baselined, new ones need a typed error or a documented
//! `sann-lint: allow(panic-path) -- <invariant>` marker.
//!
//! Test trees and `#[cfg(test)]` modules are exempt — tests *should* unwrap.

use super::{Finding, RuleCtx};
use crate::lexer::TokKind;

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs the panic-path rule over one file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.tree.ratcheted_rules_apply() {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] {
            continue;
        }
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                // Only method calls: `.unwrap(` / `.expect(`. Idents like
                // `unwrap_or` are distinct tokens and never match.
                let is_method = i > 0
                    && ctx.toks[i - 1].is_punct('.')
                    && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_method {
                    out.push(ctx.finding(
                        i,
                        "panic-path",
                        format!("`.{}()` panics when the value is absent", t.text),
                    ));
                }
            }
            TokKind::Ident
                if PANIC_MACROS.contains(&t.text)
                    && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(ctx.finding(
                    i,
                    "panic-path",
                    format!("`{}!` aborts the simulation when reached", t.text),
                ));
            }
            TokKind::Punct if t.text == "[" && ctx.in_hot(i) => {
                // Indexing in a hot function: `expr[i]` panics on an
                // out-of-range index. Heuristic: `[` directly after a value
                // token (ident, `)`, `]`) is an index or slice expression;
                // after `#`, `=`, `(`, `,`, `&`, … it is an attribute,
                // array literal, or type, and after `let` an array pattern,
                // none of which can panic.
                let indexes_value = i > 0
                    && (ctx.toks[i - 1].kind == TokKind::Ident
                        || ctx.toks[i - 1].is_punct(')')
                        || ctx.toks[i - 1].is_punct(']'))
                    && !ctx.toks[i - 1].is_ident("mut")
                    && !ctx.toks[i - 1].is_ident("let")
                    && !ctx.toks[i - 1].is_ident("return");
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
            _ => {}
        }
    }
}
