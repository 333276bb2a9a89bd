//! Crate-layering enforcement: actual `use`/path edges between `sann_*`
//! crates must follow the declared DAG.
//!
//! The architecture is layered —
//!
//! ```text
//! core ← {datagen, quant, ssdsim, obs} ← index ← engine ← vdb ← bench
//! ```
//!
//! — and PRs that churn the engine/shard layers must not quietly invert an
//! edge (e.g. `ssdsim` reaching up into `engine`). The rule scans every
//! `sann_<crate>` identifier in a file (imports *and* inline paths) and
//! checks the referenced crate against the transitive closure of the
//! declared dependencies of the crate the file belongs to. Test trees may
//! additionally use `datagen` (the dev-dependency fixture layer).

use super::{Finding, RuleCtx, Tree};
use crate::lexer::TokKind;

/// The declared direct dependencies of each product crate. Order is layer
/// order; the allowed set is the transitive closure.
pub const DECLARED_DEPS: &[(&str, &[&str])] = &[
    ("core", &[]),
    ("obs", &["core"]),
    ("datagen", &["core"]),
    ("quant", &["core"]),
    ("ssdsim", &["core", "obs"]),
    ("index", &["core", "obs", "quant", "ssdsim"]),
    ("engine", &["core", "obs", "ssdsim", "index"]),
    (
        "vdb",
        &["core", "datagen", "quant", "index", "ssdsim", "engine"],
    ),
    (
        "bench",
        &[
            "core", "obs", "datagen", "quant", "index", "ssdsim", "engine", "vdb",
        ],
    ),
];

/// The transitive closure of [`DECLARED_DEPS`] for `krate`, or `None` for a
/// crate outside the DAG (the facade crate and fixture trees skip the rule).
pub fn allowed_deps(krate: &str) -> Option<Vec<&'static str>> {
    let direct = DECLARED_DEPS.iter().find(|(c, _)| *c == krate)?.1;
    let mut closure: Vec<&'static str> = Vec::new();
    let mut stack: Vec<&'static str> = direct.to_vec();
    while let Some(dep) = stack.pop() {
        if closure.contains(&dep) {
            continue;
        }
        closure.push(dep);
        if let Some((_, next)) = DECLARED_DEPS.iter().find(|(c, _)| *c == dep) {
            stack.extend(next.iter().copied());
        }
    }
    closure.sort_unstable();
    Some(closure)
}

/// Runs the layering rule over one file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let Some(allowed) = allowed_deps(ctx.krate) else {
        return;
    };
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(referenced) = t.text.strip_prefix("sann_") else {
            continue;
        };
        if referenced == ctx.krate || allowed.contains(&referenced) {
            continue;
        }
        // Dev-dependency layer: tests and benches (including `#[cfg(test)]`
        // items inside src) may build fixtures with the data generator
        // even where the product crate may not.
        if referenced == "datagen" && (ctx.test_mask[i] || ctx.tree == Tree::Aux) {
            continue;
        }
        let msg = if DECLARED_DEPS.iter().any(|(c, _)| *c == referenced) {
            format!(
                "crate `{}` must not depend on `{referenced}` \
                 (allowed: {})",
                ctx.krate,
                if allowed.is_empty() {
                    "nothing — it is the bottom layer".to_string()
                } else {
                    allowed.join(", ")
                }
            )
        } else {
            format!(
                "crate `{}` references `sann_{referenced}`, which is not in the layering DAG",
                ctx.krate
            )
        };
        out.push(ctx.finding(i, "layering", msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_transitive() {
        assert_eq!(allowed_deps("core").unwrap(), Vec::<&str>::new());
        let engine = allowed_deps("engine").unwrap();
        // index pulls in quant, so engine's closure includes it.
        for dep in ["core", "obs", "ssdsim", "index", "quant"] {
            assert!(engine.contains(&dep), "engine closure missing {dep}");
        }
        assert!(!engine.contains(&"vdb"));
        assert!(!engine.contains(&"bench"));
    }

    #[test]
    fn bench_sits_on_top() {
        let bench = allowed_deps("bench").unwrap();
        assert_eq!(bench.len(), 8, "{bench:?}");
    }

    #[test]
    fn unknown_crates_are_outside_the_dag() {
        assert!(allowed_deps("xtask").is_none());
        assert!(allowed_deps("sann").is_none());
    }
}
