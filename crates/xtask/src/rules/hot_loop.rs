//! Hot-loop hygiene: allocation and float-ordering findings inside hot
//! functions.
//!
//! Hot functions are those named in the hot-path manifest
//! (`analyze-hotpaths.toml`) — distance kernels, the executor's event loop,
//! the page-cache access path, top-k maintenance.
//! Two rules apply inside their bodies (nested closures included):
//!
//! * `hot-alloc` — allocating calls (`Vec::new`, `vec!`, `to_vec`, `clone`,
//!   `format!`, `to_string`, `to_owned`, `collect`, `Box::new`,
//!   `String::new/from`) churn the allocator once per query or per event;
//!   preallocate in the caller or reuse a scratch buffer.
//! * `hot-float` — `partial_cmp` comparisons order NaN unpredictably (and
//!   panic when unwrapped); use `total_cmp`. Reductions should keep a fixed
//!   association order — the rule can't see types, so it flags the ordering
//!   API only.
//!
//! Both are ratcheted; existing audited sites live in the baseline.

use super::{is_path2, Finding, RuleCtx};
use crate::lexer::TokKind;

/// Method calls that allocate.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// `Type::method` pairs that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
];

/// Runs both hot-loop rules over one file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.hot_ranges.is_empty() {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.test_mask[i] || !ctx.in_hot(i) || t.kind != TokKind::Ident {
            continue;
        }
        // hot-alloc: method calls, macros, and constructor paths.
        if ALLOC_METHODS.contains(&t.text)
            && i > 0
            && ctx.toks[i - 1].is_punct('.')
            && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(ctx.finding(
                i,
                "hot-alloc",
                format!("`.{}()` allocates inside a hot function", t.text),
            ));
            continue;
        }
        if ALLOC_MACROS.contains(&t.text) && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(ctx.finding(
                i,
                "hot-alloc",
                format!("`{}!` allocates inside a hot function", t.text),
            ));
            continue;
        }
        if ALLOC_PATHS
            .iter()
            .any(|(ty, method)| is_path2(ctx.toks, i, ty, method))
        {
            out.push(ctx.finding(
                i,
                "hot-alloc",
                format!(
                    "`{}::{}` allocates inside a hot function",
                    t.text,
                    ctx.toks[i + 3].text
                ),
            ));
            continue;
        }
        // hot-float: non-total float ordering.
        if t.text == "partial_cmp" {
            out.push(
                ctx.finding(
                    i,
                    "hot-float",
                    "`partial_cmp` in a hot function orders NaN unpredictably; use `total_cmp`"
                        .to_string(),
                ),
            );
        }
    }
}
