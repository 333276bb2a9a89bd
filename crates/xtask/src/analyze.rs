//! `sann-xtask analyze` — the workspace's static checks, in one report.
//!
//! Two sources feed it:
//!
//! * one [`crate::clippy`] pass, whose [`crate::clippy::RATCHETED`] lints it
//!   counts per (lint, package) against `analyze-baseline.toml` (skipped
//!   when the root has no `Cargo.toml`, as in a fixture tree);
//! * the [`crate::layering`] check of the crate manifests.
//!
//! A count above its baseline or a layering violation fails the run, and so
//! does a clippy error, such as a hot function's `deny` firing. The baseline
//! is read from the root being analyzed; a missing one is empty.

use crate::baseline::{self, Counts};
use crate::clippy::{self, Finding};
use crate::layering;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The ratcheted per-(rule, package) counts, relative to the analyzed root.
/// Without it every finding regresses.
const BASELINE_FILE: &str = "analyze-baseline.toml";

/// One ratchet regression: a (rule, package) count above its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Rule or clippy lint name.
    pub rule: String,
    /// Package key.
    pub krate: String,
    /// Baselined count.
    pub baseline: u64,
    /// Observed count.
    pub current: u64,
}

/// Everything one analyze run produced.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Whether the clippy pass ran.
    pub clippy_ran: bool,
    /// Findings of the ratcheted clippy lints.
    pub findings: Vec<Finding>,
    /// Manifest dependencies off the layering DAG (any ⇒ failure).
    pub layering: Vec<String>,
    /// Observed counts per (rule, package).
    pub counts: Counts,
    /// The baseline in force.
    pub baseline: Counts,
    /// Ratchet regressions (any ⇒ failure).
    pub regressions: Vec<Regression>,
}

impl Analysis {
    /// Whether the run passed.
    pub fn ok(&self) -> bool {
        self.layering.is_empty() && self.regressions.is_empty()
    }

    /// (rule, package) pairs whose counts shrank below the baseline — the
    /// ratchet can be tightened with `--update-baseline`.
    pub fn improvements(&self) -> Vec<Regression> {
        let mut out = Vec::new();
        for ((rule, krate), &base) in &self.baseline {
            let now = self
                .counts
                .get(&(rule.clone(), krate.clone()))
                .copied()
                .unwrap_or(0);
            if now < base {
                out.push(Regression {
                    rule: rule.clone(),
                    krate: krate.clone(),
                    baseline: base,
                    current: now,
                });
            }
        }
        out
    }

    /// Renders the human table plus failure details.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let clippy = if self.clippy_ran {
            "ran"
        } else {
            "skipped (no Cargo.toml)"
        };
        let _ = writeln!(out, "sann-xtask analyze: clippy pass {clippy}");
        let _ = writeln!(out, "  {:<34} {:>8} {:>9}", "rule", "findings", "baseline");
        for &rule in clippy::RATCHETED {
            let found = self.findings.iter().filter(|f| f.rule == rule).count();
            let base: u64 = self
                .baseline
                .iter()
                .filter(|((r, _), _)| r == rule)
                .map(|(_, n)| n)
                .sum();
            let _ = writeln!(out, "  {rule:<34} {found:>8} {base:>9}");
        }
        for e in &self.layering {
            let _ = writeln!(out, "error[layering]: {e}");
        }
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "error[ratchet]: {}/{}: {} finding(s), baseline allows {}",
                r.rule, r.krate, r.current, r.baseline
            );
            for f in self
                .findings
                .iter()
                .filter(|f| f.rule == r.rule && f.krate == r.krate)
            {
                let _ = writeln!(out, "  {}:{}:{}: {}", f.rel, f.line, f.col, f.message);
            }
            let _ = writeln!(
                out,
                "  note: fix the new sites, add `#[allow({}, reason = \"...\")]`, or (never \
                 to hide a regression) --update-baseline",
                r.rule
            );
        }
        for i in &self.improvements() {
            let _ = writeln!(
                out,
                "note[ratchet]: {}/{} shrank to {} (baseline {}) — run --update-baseline \
                 to tighten",
                i.rule, i.krate, i.current, i.baseline
            );
        }
        let _ = writeln!(
            out,
            "{}",
            if self.ok() {
                "analyze: PASS"
            } else {
                "analyze: FAIL"
            }
        );
        out
    }

    /// Orders the findings, counts them per (rule, package), and records
    /// every count above its baseline.
    fn tally(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.rel, a.line, a.col, a.rule, &a.message)
                .cmp(&(&b.rel, b.line, b.col, b.rule, &b.message))
        });
        for f in &self.findings {
            *self
                .counts
                .entry((f.rule.to_string(), f.krate.clone()))
                .or_insert(0) += 1;
        }
        for ((rule, krate), &n) in &self.counts {
            let key = (rule.clone(), krate.clone());
            let base = self.baseline.get(&key).copied().unwrap_or(0);
            if n > base {
                self.regressions.push(Regression {
                    rule: key.0,
                    krate: key.1,
                    baseline: base,
                    current: n,
                });
            }
        }
    }
}

/// Runs every check over the workspace (or fixture tree) at `root`.
///
/// # Errors
///
/// Returns a message when the baseline or a crate manifest fails to parse,
/// or the clippy pass fails.
pub fn run(root: &Path) -> Result<Analysis, String> {
    if !root.is_dir() {
        return Err(format!("--root {}: not a directory", root.display()));
    }
    let mut analysis = Analysis {
        baseline: load_baseline(root)?,
        layering: layering::check(root)?,
        ..Analysis::default()
    };
    if root.join("Cargo.toml").is_file() {
        analysis.findings.extend(clippy::run(root)?);
        analysis.clippy_ran = true;
    }
    analysis.tally();
    Ok(analysis)
}

/// Writes the current counts to `<root>/analyze-baseline.toml`; returns its
/// path and rendered contents.
///
/// # Errors
///
/// Returns a message when the analysis or the write fails.
pub fn update_baseline(root: &Path) -> Result<(PathBuf, String), String> {
    let analysis = run(root)?;
    if !analysis.layering.is_empty() {
        return Err(
            "refusing to write a baseline while layering violations exist \
             (fix those first — only ratcheted rules are baselined)"
                .to_string(),
        );
    }
    let path = root.join(BASELINE_FILE);
    let text = baseline::render(&analysis.counts);
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, text))
}

fn load_baseline(root: &Path) -> Result<Counts, String> {
    let path = root.join(BASELINE_FILE);
    if !path.is_file() {
        return Ok(Counts::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The baseline key of the package a root-relative path belongs to: `<x>`
/// for anything under `crates/<x>/`, otherwise `sann`, the root package.
pub fn package_key(rel: &Path) -> String {
    let mut parts = rel.iter();
    match (parts.next(), parts.next()) {
        (Some(top), Some(name)) if top == "crates" => name.to_string_lossy().into_owned(),
        _ => "sann".to_string(),
    }
}

/// The workspace root: the nearest ancestor of the current directory with a
/// `crates/` dir and a `Cargo.toml`, or the current directory itself.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return cwd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, krate: &str, line: u32) -> Finding {
        Finding {
            rule,
            rel: format!("crates/{krate}/src/k.rs"),
            krate: krate.to_string(),
            line,
            col: 5,
            message: "lossy".to_string(),
        }
    }

    #[test]
    fn text_report_counts_findings_per_rule_against_the_baseline() {
        let truncation = "clippy::cast_possible_truncation";
        let mut analysis = Analysis {
            clippy_ran: true,
            findings: vec![
                finding(truncation, "core", 9),
                finding(truncation, "core", 4),
                finding("clippy::cast_sign_loss", "index", 2),
            ],
            ..Analysis::default()
        };
        analysis.baseline.insert(
            ("clippy::cast_sign_loss".to_string(), "index".to_string()),
            3,
        );
        analysis.tally();
        let rendered = analysis.render_text();
        let row = |rule: &str| {
            let line = rendered
                .lines()
                .find(|l| l.split_whitespace().next() == Some(rule));
            let line = line.unwrap_or_else(|| panic!("no {rule} row in:\n{rendered}"));
            line.split_whitespace()
                .skip(1)
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        // Columns after the rule: findings, baseline.
        assert_eq!(row(truncation), ["2", "0"]);
        assert_eq!(row("clippy::cast_sign_loss"), ["1", "3"]);
        assert_eq!(row("clippy::unwrap_used"), ["0", "0"]);
        assert!(rendered.starts_with("sann-xtask analyze: clippy pass ran\n"));
        assert!(rendered.contains(
            "error[ratchet]: clippy::cast_possible_truncation/core: 2 finding(s), baseline allows 0\n  crates/core/src/k.rs:4:5: lossy\n  crates/core/src/k.rs:9:5: lossy\n"
        ));
        assert!(rendered.contains("note[ratchet]: clippy::cast_sign_loss/index shrank to 1"));
        assert!(rendered.contains("analyze: FAIL"));
    }

    #[test]
    fn packages_are_keyed_by_crate_directory() {
        assert_eq!(package_key(Path::new("crates/core/src/topk.rs")), "core");
        assert_eq!(package_key(Path::new("crates/engine/Cargo.toml")), "engine");
        assert_eq!(package_key(Path::new("src/lib.rs")), "sann");
        assert_eq!(package_key(Path::new("Cargo.toml")), "sann");
    }
}
