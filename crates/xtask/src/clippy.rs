//! The clippy pass of `sann-xtask analyze`: lossy casts and panics, counted
//! per (lint, package).
//!
//! Clippy sees types, so it says exactly what a token scan could only guess
//! at: which `as` casts can lose information, and which calls can panic.
//! [`run`] checks the lib and bin targets of every workspace package but
//! this one with the [`RATCHETED`] lints raised to warnings, and
//! [`findings`] reads them back out of cargo's JSON message stream. Tests,
//! benches, examples and `#[cfg(test)]` items are never compiled, so they
//! may unwrap and cast freely. The pass keeps its own target directory,
//! `target/analyze`, so its cached results survive the plain
//! `cargo clippy` runs, whose lint flags differ.
//!
//! The bans of the root `clippy.toml` are not counted here. The
//! determinism bans are denied in every target by `scripts/check.sh`'s
//! `-D warnings`; the hot-path bans are `deny` inside the functions marked
//! hot, so a violation fails this pass outright.

use crate::analyze::package_key;
use json::Value;
use std::path::Path;
use std::process::Command;

/// The repo benchmark's std-only JSON value and parser, shared rather than
/// written twice. The analyzer only reads JSON.
#[path = "../../../benchmark/src/json.rs"]
#[allow(dead_code, reason = "the writer half of the module goes unused here")]
mod json;

/// One finding of a ratcheted clippy lint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The clippy lint that fired.
    pub rule: &'static str,
    /// Root-relative path with forward slashes.
    pub rel: String,
    /// Package key for baseline accounting (`core`, `engine`, …).
    pub krate: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What fired, specifically.
    pub message: String,
}

/// The clippy lints ratcheted against `analyze-baseline.toml`.
pub const RATCHETED: &[&str] = &[
    "clippy::cast_possible_truncation",
    "clippy::cast_possible_wrap",
    "clippy::cast_precision_loss",
    "clippy::cast_sign_loss",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unimplemented",
    "clippy::unreachable",
    "clippy::unwrap_used",
];

/// Runs the clippy pass over the workspace at `root`.
///
/// # Errors
///
/// Returns a message when cargo cannot be started, or clippy fails (a
/// compile error, say).
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let root = root
        .canonicalize()
        .map_err(|e| format!("{}: {e}", root.display()))?;
    let mut cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cargo
        .current_dir(&root)
        .args(["clippy", "--offline", "--quiet", "--workspace"])
        .args(["--exclude", "sann-xtask", "--message-format=json"])
        .arg("--target-dir")
        .arg(root.join("target").join("analyze"))
        .arg("--");
    for lint in RATCHETED {
        cargo.args(["-W", lint]);
    }
    let out = cargo.output().map_err(|e| format!("cargo clippy: {e}"))?;
    let stream = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "cargo clippy failed:\n{}{}",
            rendered_errors(&stream),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    findings(&stream, &root)
}

/// The rendered text of every error in a `cargo --message-format=json`
/// stream — a hot function's denied construct, say — which cargo does not
/// repeat on stderr.
fn rendered_errors(stream: &str) -> String {
    let mut out = String::new();
    for line in stream.lines().filter(|l| l.starts_with('{')) {
        let Ok(msg) = json::parse(line) else { continue };
        let text = |key: &str| msg.get("message")?.get(key)?.as_str();
        if text("level") == Some("error") {
            out.push_str(text("rendered").unwrap_or_default());
        }
    }
    out
}

/// The [`RATCHETED`] findings in a `cargo --message-format=json` stream:
/// one per diagnostic, at its primary span, keyed by the package whose
/// manifest built it. `root` is the canonical workspace root.
///
/// # Errors
///
/// Returns a message when a line that opens a JSON object does not parse.
pub fn findings(stream: &str, root: &Path) -> Result<Vec<Finding>, String> {
    let mut out = Vec::new();
    for line in stream.lines().filter(|l| l.starts_with('{')) {
        let msg = json::parse(line)?;
        let diag = msg.get("message");
        let text = |v: Option<&Value>, key: &str| {
            let s = v.and_then(|v| v.get(key)).and_then(Value::as_str);
            s.unwrap_or("").to_string()
        };
        let lint = text(diag.and_then(|d| d.get("code")), "code");
        let Some(rule) = RATCHETED.iter().copied().find(|r| lint == *r) else {
            continue;
        };
        let manifest = text(Some(&msg), "manifest_path");
        let manifest = Path::new(&manifest);
        let spans = diag.and_then(|d| d.get("spans")).and_then(Value::as_arr);
        let span = spans
            .unwrap_or_default()
            .iter()
            .find(|s| s.get("is_primary").and_then(Value::as_bool) == Some(true));
        // Line and column numbers are small integers, exact in an f64.
        let at = |key: &str| {
            span.and_then(|s| s.get(key)?.as_f64())
                .map_or(0, |n| n as u32)
        };
        out.push(Finding {
            rule,
            rel: text(span, "file_name"),
            krate: package_key(manifest.strip_prefix(root).unwrap_or(manifest)),
            line: at("line_start"),
            col: at("column_start"),
            message: text(diag, "message"),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ratcheted diagnostics (the second from the root package), one
    /// lint the analyzer does not count, and an artifact line, shaped like
    /// cargo 1.95's output: a child's span comes before the primary one.
    const STREAM: &str = concat!(
        r#"{"reason":"compiler-message","manifest_path":"/ws/crates/core/Cargo.toml","message":{"rendered":"warning: …\n","children":[{"code":null,"message":"help","spans":[{"file_name":"crates/core/src/x.rs","is_primary":true,"line_start":9,"column_start":1}]}],"level":"warning","message":"casting `u64` to `u32` may truncate the value","spans":[{"file_name":"crates/core/src/cast.rs","is_primary":true,"line_start":42,"column_start":5,"text":[{"text":"    x as u32 \"q\" é"}]}],"code":{"code":"clippy::cast_possible_truncation","explanation":null}}}"#,
        "\n",
        r#"{"reason":"compiler-message","manifest_path":"/ws/Cargo.toml","message":{"message":"used `unwrap()` on an `Option` value","spans":[{"file_name":"src/lib.rs","is_primary":false,"line_start":1,"column_start":1},{"file_name":"src/lib.rs","is_primary":true,"line_start":7,"column_start":13}],"code":{"code":"clippy::unwrap_used","explanation":null}}}"#,
        "\n",
        r#"{"reason":"compiler-message","manifest_path":"/ws/crates/core/Cargo.toml","message":{"message":"use of a disallowed type","spans":[],"code":{"code":"clippy::disallowed_types","explanation":null}}}"#,
        "\n",
        r#"{"reason":"compiler-artifact","manifest_path":"/ws/crates/core/Cargo.toml","fresh":true}"#,
        "\n",
        "    Finished `dev` profile\n",
    );

    #[test]
    fn counts_ratcheted_lints_per_package_at_the_primary_span() {
        let found = findings(STREAM, Path::new("/ws")).unwrap();
        let got: Vec<_> = found
            .iter()
            .map(|f| (f.rule, f.krate.as_str(), f.rel.as_str(), f.line, f.col))
            .collect();
        assert_eq!(
            got,
            [
                (
                    "clippy::cast_possible_truncation",
                    "core",
                    "crates/core/src/cast.rs",
                    42,
                    5
                ),
                ("clippy::unwrap_used", "sann", "src/lib.rs", 7, 13),
            ]
        );
        assert_eq!(
            found[0].message,
            "casting `u64` to `u32` may truncate the value"
        );
        assert!(findings("{not json\n", Path::new("/ws")).is_err());
    }

    #[test]
    fn a_failed_pass_reports_its_errors_only() {
        let error = r#"{"reason":"compiler-message","message":{"level":"error","rendered":"error: indexing may panic\n","code":{"code":"clippy::indexing_slicing"}}}"#;
        let stream = format!("{STREAM}{error}\n");
        assert_eq!(rendered_errors(&stream), "error: indexing may panic\n");
    }
}
