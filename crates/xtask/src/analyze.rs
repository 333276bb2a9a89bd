//! `sann-xtask analyze` — the workspace's static checks, in one report.
//!
//! Three sources feed it:
//!
//! * the [`crate::rules`] registry over the [`crate::lexer`]'s tokens of the
//!   functions `analyze-hotpaths.toml` names, the only files it lexes;
//! * one [`crate::clippy`] pass, whose [`crate::clippy::RATCHETED`] lints it
//!   counts (skipped when the root has no `Cargo.toml`, as in a fixture
//!   tree);
//! * the [`crate::layering`] check of the crate manifests.
//!
//! Lexer and clippy findings are counted per (rule, package) against
//! `analyze-baseline.toml`. A count above its baseline, a layering
//! violation, or a malformed `sann-lint` marker fails the run. Both files
//! are read from the root being analyzed; a missing one is empty.

use crate::baseline::{self, Counts, MiniToml};
use crate::rules::{self, Finding, RuleCtx};
use crate::{clippy, layering, lexer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The ratcheted per-(rule, package) counts, relative to the analyzed root.
/// Without it every finding regresses.
const BASELINE_FILE: &str = "analyze-baseline.toml";

/// The hot-path manifest: `"<file>" = "<fn>, <fn>"` under `[hot]`, the one
/// way a function is marked hot.
const HOTPATHS_FILE: &str = "analyze-hotpaths.toml";

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
    /// Hot-path files lexed.
    pub files: usize,
    /// Whether the clippy pass ran.
    pub clippy_ran: bool,
    /// Unsuppressed lexer and clippy findings.
    pub findings: Vec<Finding>,
    /// Marker-suppressed lexer findings.
    pub allowed: Vec<Finding>,
    /// Malformed or unknown-rule markers (any ⇒ failure).
    pub marker_errors: Vec<String>,
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
        self.layering.is_empty() && self.marker_errors.is_empty() && self.regressions.is_empty()
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
        let _ = writeln!(
            out,
            "sann-xtask analyze: {} hot-path files lexed; clippy pass {clippy}",
            self.files
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>9} {:>8}",
            "rule", "findings", "baseline", "allowed"
        );
        let lexed = rules::REGISTRY.iter().map(|r| r.name);
        for rule in lexed.chain(clippy::RATCHETED.iter().copied()) {
            let found = self.findings.iter().filter(|f| f.rule == rule).count();
            let base: u64 = self
                .baseline
                .iter()
                .filter(|((r, _), _)| r == rule)
                .map(|(_, n)| n)
                .sum();
            // Clippy reports nothing an `#[allow]` suppresses.
            let allowed = match rules::rule(rule) {
                Some(_) => self.allowed.iter().filter(|f| f.rule == rule).count(),
                None => 0,
            };
            let _ = writeln!(out, "  {rule:<34} {found:>8} {base:>9} {allowed:>8}");
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
            let allow = match rules::rule(&r.rule) {
                Some(info) => {
                    let _ = writeln!(out, "  note: {}", info.why);
                    format!("`sann-lint: allow({}) -- <reason>` markers", r.rule)
                }
                None => format!("`#[allow({}, reason = \"...\")]`", r.rule),
            };
            let _ = writeln!(
                out,
                "  note: fix the new sites, add {allow}, or (never to hide a regression) \
                 --update-baseline"
            );
        }
        for e in &self.marker_errors {
            let _ = writeln!(out, "error[bad-marker]: {e}");
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
        let by_pos = |a: &Finding, b: &Finding| {
            (&a.rel, a.line, a.col, a.rule, &a.message)
                .cmp(&(&b.rel, b.line, b.col, b.rule, &b.message))
        };
        self.findings.sort_by(by_pos);
        self.allowed.sort_by(by_pos);
        self.marker_errors.sort();
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
/// Returns a message when a file read, the baseline, the hot-path manifest
/// or a crate manifest fails to parse, a hot-path entry is stale, or the
/// clippy pass fails.
pub fn run(root: &Path) -> Result<Analysis, String> {
    if !root.is_dir() {
        return Err(format!("--root {}: not a directory", root.display()));
    }
    let mut analysis = Analysis {
        baseline: load_baseline(root)?,
        layering: layering::check(root)?,
        ..Analysis::default()
    };
    let manifest = root.join(HOTPATHS_FILE);
    for (rel, fns) in load_hotpaths(&manifest)? {
        // After a split or a rename, a stale entry would otherwise drop the
        // function from the hot-path rules without a word.
        let stale = |what: String| format!("{}: stale entry: {rel}{what}", manifest.display());
        let source =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| stale(format!(": {e}")))?;
        scan_source(&rel, &source, &fns, &mut analysis)
            .map_err(|missing| stale(format!(" defines no fn `{missing}`")))?;
        analysis.files += 1;
    }
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
    if !analysis.layering.is_empty() || !analysis.marker_errors.is_empty() {
        return Err(
            "refusing to write a baseline while layering violations or marker errors exist \
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

/// `rel-file → hot fn names` from the manifest at `path`.
fn load_hotpaths(path: &Path) -> Result<BTreeMap<String, Vec<String>>, String> {
    if !path.is_file() {
        return Ok(BTreeMap::new());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = MiniToml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (file, fns) in doc.section("hot") {
        map.entry(file.to_string()).or_default().extend(
            fns.split(',')
                .map(|f| f.trim().to_string())
                .filter(|f| !f.is_empty()),
        );
    }
    Ok(map)
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

/// The rule a raw source line's `// sann-lint: allow(rule) -- reason`
/// marker suppresses.
///
/// Returns `Ok(None)` for lines without a marker, `Err` for malformed ones —
/// an exception nobody can audit is a violation with extra steps.
fn parse_marker(line: &str) -> Result<Option<&'static str>, String> {
    let Some(pos) = line.find("sann-lint:") else {
        return Ok(None);
    };
    let rest = line[pos + "sann-lint:".len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err("marker must be `sann-lint: allow(<rule>) -- <reason>`".into());
    };
    let Some(close) = args.find(')') else {
        return Err("unclosed allow( in lint marker".into());
    };
    let rule = args[..close].trim();
    let Some(info) = rules::rule(rule) else {
        return Err(format!("unknown lint rule `{rule}` in allow marker"));
    };
    let tail = args[close + 1..].trim_start();
    if tail.strip_prefix("--").is_none_or(|r| r.trim().is_empty()) {
        return Err(format!("allow({rule}) marker is missing a `-- <reason>`"));
    }
    Ok(Some(info.name))
}

/// Lexes one hot-path file and runs every rule over the `hot_fns` it
/// defines. Returns the first of `hot_fns` the file does not define.
fn scan_source(
    rel: &str,
    source: &str,
    hot_fns: &[String],
    analysis: &mut Analysis,
) -> Result<(), String> {
    let toks = lexer::lex(source);
    let defined: Vec<&str> = rules::fn_extents(&toks)
        .iter()
        .map(|ext| toks[ext.name].text)
        .collect();
    if let Some(missing) = hot_fns.iter().find(|f| !defined.contains(&f.as_str())) {
        return Err(missing.clone());
    }
    let krate = package_key(Path::new(rel));
    let test_mask = rules::cfg_test_mask(&toks);
    let hot_ranges = rules::hot_ranges(&toks, hot_fns);
    let ctx = RuleCtx {
        rel,
        krate: &krate,
        toks: &toks,
        test_mask: &test_mask,
        hot_ranges: &hot_ranges,
    };
    let mut found = Vec::new();
    rules::panic_path::check(&ctx, &mut found);
    rules::hot_loop::check(&ctx, &mut found);

    // Markers live in comments, so they are parsed from the raw lines.
    let mut markers = Vec::new();
    for (i, line) in source.lines().enumerate() {
        markers.push(parse_marker(line).unwrap_or_else(|e| {
            analysis.marker_errors.push(format!("{rel}:{}: {e}", i + 1));
            None
        }));
    }
    for f in found {
        let idx = f.line as usize - 1;
        let marked = [Some(idx), idx.checked_sub(1)]
            .into_iter()
            .any(|look| look.and_then(|i| markers.get(i)) == Some(&Some(f.rule)));
        if marked {
            analysis.allowed.push(f);
        } else {
            analysis.findings.push(f);
        }
    }
    Ok(())
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

    /// Lexes `source` as a file of the `core` crate whose `kernel` is hot.
    fn scan_str(source: &str) -> Analysis {
        let mut analysis = Analysis::default();
        scan_source(
            "crates/core/src/k.rs",
            source,
            &["kernel".to_string()],
            &mut analysis,
        )
        .unwrap();
        analysis
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        let mut rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        rules.sort_unstable();
        rules
    }

    #[test]
    fn hot_rules_fire_only_inside_listed_functions() {
        let source = "fn kernel(v: &[f32]) -> bool { let w = v.to_vec(); w[0].partial_cmp(&v[1]).is_some() }\n\
                      fn cold(v: &[f32]) -> Vec<f32> { let _ = v[0]; v.to_vec() }\n";
        let analysis = scan_str(source);
        assert_eq!(
            rules_of(&analysis.findings),
            ["hot-alloc", "hot-float", "panic-path", "panic-path"]
        );
        assert!(analysis
            .findings
            .iter()
            .all(|f| f.line == 1 && f.krate == "core"));
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let source = r##"
fn kernel(v: &[f32]) -> usize {
    // v[0].to_vec() in a comment
    /* vec![1]; x.partial_cmp(y) */
    let s = "v[0] partial_cmp clone()";
    let raw = r#"x.to_vec() "quoted""#;
    s.len() + raw.len() + v.len()
}
"##;
        let analysis = scan_str(source);
        assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
    }

    #[test]
    fn markers_suppress_their_rule_on_their_line_or_the_next() {
        let source = "fn kernel(v: &[u32]) -> usize {\n\
                      // sann-lint: allow(panic-path) -- caller checks the length\n\
                      v[0] as usize\n\
                      + v[1] as usize // sann-lint: allow(panic-path) -- same bound\n\
                      + v.to_vec().len() // sann-lint: allow(panic-path) -- wrong rule\n\
                      }\n";
        let analysis = scan_str(source);
        assert_eq!(rules_of(&analysis.allowed), ["panic-path", "panic-path"]);
        assert_eq!(
            analysis.allowed.iter().map(|f| f.line).collect::<Vec<_>>(),
            [3, 4]
        );
        assert_eq!(rules_of(&analysis.findings), ["hot-alloc"]);
    }

    #[test]
    fn malformed_markers_are_errors() {
        for bad in [
            "// sann-lint: allow(panic-path)\nfn kernel() {}\n", // missing reason
            "// sann-lint: allow(wall-clock) -- clippy.toml owns this one\nfn kernel() {}\n",
            "// sann-lint: deny(panic-path) -- why\nfn kernel() {}\n",
        ] {
            let analysis = scan_str(bad);
            assert_eq!(analysis.marker_errors.len(), 1, "{bad}");
            assert!(!analysis.ok());
        }
    }

    #[test]
    fn a_listed_function_the_file_lacks_is_reported() {
        let mut analysis = Analysis::default();
        let fns = ["kernel".to_string(), "gone".to_string()];
        let missing = scan_source("k.rs", "fn kernel() {}", &fns, &mut analysis);
        assert_eq!(missing, Err("gone".to_string()));
    }

    #[test]
    fn text_report_counts_findings_and_markers_per_rule() {
        let source = "fn kernel(v: &[u32]) -> u32 {\n\
                      v[0] // sann-lint: allow(panic-path) -- checked\n\
                      + 1\n\
                      + v.to_vec()[1]\n\
                      }\n";
        let mut analysis = scan_str(source);
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
        // Columns after the rule: findings, baseline, allowed.
        assert_eq!(row("panic-path"), ["1", "0", "1"]);
        assert_eq!(row("hot-alloc"), ["1", "0", "0"]);
        assert_eq!(row("clippy::unwrap_used"), ["0", "0", "0"]);
        assert!(
            rendered.contains("error[ratchet]: panic-path/core: 1 finding(s), baseline allows 0")
        );
        assert!(rendered.contains("  crates/core/src/k.rs:4:"));
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
