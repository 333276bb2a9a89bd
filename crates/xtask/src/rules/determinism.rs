//! The four determinism rules, on the token stream.
//!
//! One finding per (rule, line) even when a line hits a pattern twice.
//! String literals, raw strings, nested comments, and lifetimes cannot trip
//! a rule, and `sort_by(…partial_cmp…unwrap…)` is matched over the call's
//! real argument extent (bracket-matched), however many lines it spans.

use super::{is_path2, matching_close, Finding, RuleCtx};
use crate::lexer::TokKind;

/// Runs all four determinism rules over one file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let mut push = PerLine::new(out);
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "Instant" | "SystemTime" => {
                push.push(ctx.finding(
                    i,
                    "wall-clock",
                    format!("`{}` reads the host clock", t.text),
                ));
            }
            "thread_rng" | "OsRng" | "from_entropy" => {
                push.push(ctx.finding(
                    i,
                    "unseeded-rng",
                    format!("`{}` draws entropy-seeded randomness", t.text),
                ));
            }
            "rand" if is_path2(ctx.toks, i, "rand", "random") => {
                push.push(ctx.finding(
                    i,
                    "unseeded-rng",
                    "`rand::random` draws entropy-seeded randomness".to_string(),
                ));
            }
            "HashMap" | "HashSet" => {
                push.push(ctx.finding(
                    i,
                    "unordered-container",
                    format!("`{}` iterates in randomized order", t.text),
                ));
            }
            "sort_by" | "sort_unstable_by" => {
                // NaN-unsafe sort: the comparator passed to this call goes
                // through partial_cmp(..).unwrap(). Match inside the real
                // argument extent, however many lines it spans.
                let Some(open) = ctx
                    .toks
                    .get(i + 1)
                    .filter(|t| t.is_punct('('))
                    .map(|_| i + 1)
                else {
                    continue;
                };
                let close = matching_close(ctx.toks, open).unwrap_or(ctx.toks.len() - 1);
                let args = &ctx.toks[open..=close];
                if args.iter().any(|t| t.is_ident("partial_cmp"))
                    && args.iter().any(|t| t.is_ident("unwrap"))
                {
                    push.push(ctx.finding(
                        i,
                        "nan-unsafe-sort",
                        format!("`{}` comparator unwraps `partial_cmp`", t.text),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Deduplicates findings per (rule, line).
struct PerLine<'a> {
    out: &'a mut Vec<Finding>,
}

impl<'a> PerLine<'a> {
    fn new(out: &'a mut Vec<Finding>) -> PerLine<'a> {
        PerLine { out }
    }

    fn push(&mut self, f: Finding) {
        // Tokens arrive in order, so a same-line duplicate sits near the
        // tail of the output vector.
        let dup = self
            .out
            .iter()
            .rev()
            .take(8)
            .any(|p| p.rule == f.rule && p.line == f.line && p.rel == f.rel);
        if !dup {
            self.out.push(f);
        }
    }
}
