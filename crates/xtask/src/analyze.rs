//! `sann-xtask analyze` — the token-level workspace analyzer.
//!
//! Drives the [`crate::lexer`] and the [`crate::rules`] registry over every
//! `.rs` file of every product crate (all trees: `src/` including
//! `src/bin/`, `tests/`, `benches/`, `examples/`, plus the workspace-root
//! facade and integration tests), resolves `sann-lint: allow` markers,
//! applies the ratcheted baseline, and renders the result as a human table
//! or SARIF 2.1 ([`crate::sarif`]).
//!
//! Severity policy by tree: deny-rules (determinism, layering) apply
//! everywhere; ratcheted rules (panic-path, cast-truncation, hot-*) apply
//! to `src/` trees only and skip `#[cfg(test)]` modules — tests may unwrap.

use crate::baseline::{Baseline, MiniToml};
use crate::lexer;
use crate::rules::{self, Family, Finding, RuleCtx, Severity, Tree};
use crate::sarif;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Output format of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable table plus per-finding lines.
    Text,
    /// SARIF 2.1.0 JSON (byte-stable).
    Sarif,
}

/// Everything configuring one `analyze` run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (or a fixture tree).
    pub root: PathBuf,
    /// Rule families to run (empty = all).
    pub families: Vec<Family>,
    /// Baseline file; defaults to `<root>/analyze-baseline.toml`. A missing
    /// file is an empty baseline (every ratcheted finding regresses).
    pub baseline_path: Option<PathBuf>,
    /// Hot-path manifest; defaults to `<root>/analyze-hotpaths.toml`.
    pub hotpaths_path: Option<PathBuf>,
}

impl Options {
    /// Default options over `root`: all families, default file locations.
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            families: Vec::new(),
            baseline_path: None,
            hotpaths_path: None,
        }
    }

    fn family_on(&self, family: Family) -> bool {
        self.families.is_empty() || self.families.contains(&family)
    }
}

/// One ratchet regression: a (rule, crate) count above its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Rule name.
    pub rule: String,
    /// Crate key.
    pub krate: String,
    /// Baselined count.
    pub baseline: u64,
    /// Observed count.
    pub current: u64,
}

/// Everything one analyze run produced.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Files scanned.
    pub files: usize,
    /// Deny-severity unsuppressed findings (any ⇒ failure).
    pub violations: Vec<Finding>,
    /// Ratchet-severity unsuppressed findings (counted, not individually
    /// fatal).
    pub ratcheted: Vec<Finding>,
    /// Marker-suppressed findings (any severity).
    pub allowed: Vec<Finding>,
    /// Malformed or unknown-rule markers (any ⇒ failure).
    pub marker_errors: Vec<String>,
    /// Observed ratcheted counts per (rule, crate).
    pub counts: BTreeMap<(String, String), u64>,
    /// The baseline in force.
    pub baseline: Baseline,
    /// Ratchet regressions (any ⇒ failure).
    pub regressions: Vec<Regression>,
}

impl Analysis {
    /// Whether the run passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.marker_errors.is_empty() && self.regressions.is_empty()
    }

    /// (rule, crate) pairs whose counts shrank below the baseline — the
    /// ratchet can be tightened with `--update-baseline`.
    pub fn improvements(&self) -> Vec<Regression> {
        let mut out = Vec::new();
        for (rule, krate, base) in self.baseline.entries() {
            let now = self
                .counts
                .get(&(rule.to_string(), krate.to_string()))
                .copied()
                .unwrap_or(0);
            if now < base {
                out.push(Regression {
                    rule: rule.to_string(),
                    krate: krate.to_string(),
                    baseline: base,
                    current: now,
                });
            }
        }
        out
    }

    /// Allow-markers used inside a given crate directory name.
    pub fn markers_in_crate(&self, krate: &str) -> usize {
        self.allowed.iter().filter(|f| f.krate == krate).count()
    }

    /// Renders the SARIF form (see [`crate::sarif`]).
    pub fn render_sarif(&self) -> String {
        let mut unsuppressed: Vec<Finding> = Vec::new();
        unsuppressed.extend(self.violations.iter().cloned());
        unsuppressed.extend(self.ratcheted.iter().cloned());
        sarif::render(&unsuppressed, &self.allowed)
    }

    /// Renders the human table plus failure details.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "sann-xtask analyze: scanned {} files", self.files);
        let _ = writeln!(
            out,
            "  {:<22} {:>8} {:>9} {:>8}  policy",
            "rule", "findings", "baseline", "allowed"
        );
        for rule in rules::REGISTRY {
            let (pool, policy) = match rule.severity {
                Severity::Deny => (&self.violations, "deny"),
                Severity::Ratchet => (&self.ratcheted, "ratchet"),
            };
            let found = pool.iter().filter(|f| f.rule == rule.name).count();
            let base: u64 = self
                .baseline
                .entries()
                .filter(|(r, _, _)| *r == rule.name)
                .map(|(_, _, n)| n)
                .sum();
            let allow = self.allowed.iter().filter(|f| f.rule == rule.name).count();
            let base_str = if rule.severity == Severity::Deny {
                "-".to_string()
            } else {
                base.to_string()
            };
            let _ = writeln!(
                out,
                "  {:<22} {:>8} {:>9} {:>8}  {policy}",
                rule.name, found, base_str, allow
            );
        }
        for f in &self.violations {
            let _ = writeln!(
                out,
                "error[{}]: {}:{}:{}: {}",
                f.rule, f.rel, f.line, f.col, f.excerpt
            );
            let _ = writeln!(out, "  note: {}", f.message);
        }
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "error[ratchet]: {}/{}: {} finding(s), baseline allows {}",
                r.rule, r.krate, r.current, r.baseline
            );
            for f in self
                .ratcheted
                .iter()
                .filter(|f| f.rule == r.rule && f.krate == r.krate)
            {
                let _ = writeln!(out, "  {}:{}:{}: {}", f.rel, f.line, f.col, f.excerpt);
            }
            if let Some(info) = rules::rule(&r.rule) {
                let _ = writeln!(out, "  note: {}", info.why);
            }
            let _ = writeln!(
                out,
                "  note: fix the new sites, add `sann-lint: allow({}) -- <reason>` markers, \
                 or (never to hide a regression) --update-baseline",
                r.rule
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
}

/// One file scheduled for scanning.
struct Job {
    path: PathBuf,
    rel: String,
    krate: String,
    tree: Tree,
}

/// Runs the analyzer over `opts.root`.
///
/// # Errors
///
/// Returns a message when the directory walk, a file read, the baseline, or
/// the hot-path manifest fails to parse.
pub fn run(opts: &Options) -> Result<Analysis, String> {
    let jobs = collect_jobs(&opts.root)?;
    let hotpaths = load_hotpaths(opts)?;
    let mut analysis = Analysis {
        baseline: load_baseline(opts)?,
        ..Analysis::default()
    };

    for job in jobs {
        scan_file(opts, &job, &hotpaths, &mut analysis)?;
        analysis.files += 1;
    }

    // Deterministic output order regardless of directory walk order.
    let by_pos = |a: &Finding, b: &Finding| {
        (&a.rel, a.line, a.col, a.rule).cmp(&(&b.rel, b.line, b.col, b.rule))
    };
    analysis.violations.sort_by(by_pos);
    analysis.ratcheted.sort_by(by_pos);
    analysis.allowed.sort_by(by_pos);
    analysis.marker_errors.sort();

    // Ratchet: observed counts per (rule, crate) vs baseline.
    for f in &analysis.ratcheted {
        *analysis
            .counts
            .entry((f.rule.to_string(), f.krate.clone()))
            .or_insert(0) += 1;
    }
    for ((rule, krate), &n) in &analysis.counts {
        let base = analysis.baseline.get(rule, krate);
        if n > base {
            analysis.regressions.push(Regression {
                rule: rule.clone(),
                krate: krate.clone(),
                baseline: base,
                current: n,
            });
        }
    }
    Ok(analysis)
}

/// Writes the current ratcheted counts to the baseline file; returns its
/// path and rendered contents.
///
/// # Errors
///
/// Returns a message when the analysis or the write fails.
pub fn update_baseline(opts: &Options) -> Result<(PathBuf, String), String> {
    let analysis = run(opts)?;
    if !analysis.violations.is_empty() || !analysis.marker_errors.is_empty() {
        return Err(
            "refusing to write a baseline while deny-rule violations or marker errors exist \
             (fix those first — only ratcheted rules are baselined)"
                .to_string(),
        );
    }
    let baseline = Baseline::from_counts(&analysis.counts);
    let path = baseline_path(opts);
    let text = baseline.render();
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, text))
}

fn baseline_path(opts: &Options) -> PathBuf {
    opts.baseline_path
        .clone()
        .unwrap_or_else(|| opts.root.join("analyze-baseline.toml"))
}

fn load_baseline(opts: &Options) -> Result<Baseline, String> {
    let path = baseline_path(opts);
    if !path.is_file() {
        return Ok(Baseline::empty());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `rel-file → hot fn names` from the manifest.
///
/// An entry naming a file that does not exist, or a function its file does
/// not define, is an error: after a split or a rename it would otherwise
/// drop the function from the hot-path rules without a word.
fn load_hotpaths(opts: &Options) -> Result<BTreeMap<String, Vec<String>>, String> {
    let path = opts
        .hotpaths_path
        .clone()
        .unwrap_or_else(|| opts.root.join("analyze-hotpaths.toml"));
    if !path.is_file() {
        return Ok(BTreeMap::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = MiniToml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (file, fns) in doc.section("hot") {
        map.entry(file.to_string()).or_default().extend(
            fns.split(',')
                .map(|f| f.trim().to_string())
                .filter(|f| !f.is_empty()),
        );
    }
    for (file, fns) in &map {
        let stale = |what: String| format!("{}: stale entry: {what}", path.display());
        let source = std::fs::read_to_string(opts.root.join(file))
            .map_err(|e| stale(format!("{file}: {e}")))?;
        let toks = lexer::lex(&source);
        let defined: Vec<&str> = rules::fn_extents(&toks)
            .iter()
            .map(|ext| toks[ext.name].text)
            .collect();
        if let Some(missing) = fns.iter().find(|f| !defined.contains(&f.as_str())) {
            return Err(stale(format!("{file} defines no fn `{missing}`")));
        }
    }
    Ok(map)
}

/// Collects every file to scan under `root`.
///
/// Workspace mode (`root/crates` exists): every crate directory except the
/// checker itself, all trees, plus the workspace-root facade `src/`,
/// `tests/`, and `examples/`. Fixture mode: every `.rs` under `root` as one
/// pseudo-crate's `src` tree.
fn collect_jobs(root: &Path) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    let crates = root.join("crates");
    if !crates.is_dir() {
        if !root.is_dir() {
            return Err(format!("--root {}: not a directory", root.display()));
        }
        push_tree(root, root, "fixture", Tree::Src, &mut jobs)?;
        return Ok(jobs);
    }
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map_err(|e| format!("read_dir {}: {e}", crates.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        // The checker is exempt: it must name the banned patterns to ban
        // them (and its fixtures are deliberate violations).
        if name == "xtask" || name.is_empty() {
            continue;
        }
        for (sub, tree) in [
            ("src", Tree::Src),
            ("tests", Tree::Tests),
            ("benches", Tree::Benches),
            ("examples", Tree::Examples),
        ] {
            let tdir = dir.join(sub);
            if tdir.is_dir() {
                push_tree(&tdir, root, &name, tree, &mut jobs)?;
            }
        }
    }
    // Workspace-root facade crate and integration trees.
    for (sub, tree) in [
        ("src", Tree::Src),
        ("tests", Tree::Tests),
        ("examples", Tree::Examples),
    ] {
        let tdir = root.join(sub);
        if tdir.is_dir() {
            push_tree(&tdir, root, "sann", tree, &mut jobs)?;
        }
    }
    Ok(jobs)
}

fn push_tree(
    dir: &Path,
    root: &Path,
    krate: &str,
    tree: Tree,
    jobs: &mut Vec<Job>,
) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs(dir, &mut files)?;
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        jobs.push(Job {
            path,
            rel,
            krate: krate.to_string(),
            tree,
        });
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A parsed `// sann-lint: allow(rule) -- reason` marker.
struct Marker {
    rule: String,
    reason: String,
}

/// Parses a marker out of a raw source line.
///
/// Returns `Ok(None)` for lines without a marker, `Err` for malformed ones —
/// an exception nobody can audit is a violation with extra steps.
fn parse_marker(line: &str) -> Result<Option<Marker>, String> {
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
    if rules::rule(rule).is_none() {
        return Err(format!("unknown lint rule `{rule}` in allow marker"));
    }
    let tail = args[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err(format!("allow({rule}) marker is missing a `-- <reason>`"));
    }
    Ok(Some(Marker {
        rule: rule.to_string(),
        reason: reason.to_string(),
    }))
}

fn scan_file(
    opts: &Options,
    job: &Job,
    hotpaths: &BTreeMap<String, Vec<String>>,
    analysis: &mut Analysis,
) -> Result<(), String> {
    let source = std::fs::read_to_string(&job.path)
        .map_err(|e| format!("read {}: {e}", job.path.display()))?;
    scan_source(
        opts,
        &job.path,
        &job.rel,
        &job.krate,
        job.tree,
        &source,
        hotpaths.get(&job.rel).map(Vec::as_slice).unwrap_or(&[]),
        analysis,
    );
    Ok(())
}

/// Scans one in-memory source file.
#[allow(clippy::too_many_arguments)]
fn scan_source(
    opts: &Options,
    file: &Path,
    rel: &str,
    krate: &str,
    tree: Tree,
    source: &str,
    hot_fns: &[String],
    analysis: &mut Analysis,
) {
    let raw_lines: Vec<&str> = source.lines().collect();
    let toks = lexer::lex(source);
    let test_mask = rules::cfg_test_mask(&toks);
    let hot_ranges = rules::hot_ranges(&toks, hot_fns);
    let ctx = RuleCtx {
        file,
        rel,
        krate,
        tree,
        lines: &raw_lines,
        toks: &toks,
        test_mask: &test_mask,
        hot_ranges: &hot_ranges,
    };

    let mut found = Vec::new();
    if opts.family_on(Family::Determinism) {
        rules::determinism::check(&ctx, &mut found);
    }
    if opts.family_on(Family::Layering) {
        rules::layering::check(&ctx, &mut found);
    }
    if opts.family_on(Family::PanicPath) {
        rules::panic_path::check(&ctx, &mut found);
    }
    if opts.family_on(Family::CastSafety) {
        rules::cast_safety::check(&ctx, &mut found);
    }
    if opts.family_on(Family::HotLoop) {
        rules::hot_loop::check(&ctx, &mut found);
    }

    // Markers live in comments, so they are parsed from the raw lines.
    let mut markers: Vec<Option<Marker>> = Vec::with_capacity(raw_lines.len());
    for (i, line) in raw_lines.iter().enumerate() {
        match parse_marker(line) {
            Ok(m) => markers.push(m),
            Err(e) => {
                analysis.marker_errors.push(format!("{rel}:{}: {e}", i + 1));
                markers.push(None);
            }
        }
    }
    let allowed_for = |line: u32, rule: &str| -> Option<String> {
        let idx = line as usize - 1;
        for look in [Some(idx), idx.checked_sub(1)] {
            if let Some(Some(m)) = look.and_then(|i| markers.get(i)) {
                if m.rule == rule {
                    return Some(m.reason.clone());
                }
            }
        }
        None
    };

    for mut f in found {
        f.allowed = allowed_for(f.line, f.rule);
        if f.allowed.is_some() {
            analysis.allowed.push(f);
        } else {
            match rules::rule(f.rule).map(|r| r.severity) {
                Some(Severity::Ratchet) => analysis.ratcheted.push(f),
                _ => analysis.violations.push(f),
            }
        }
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

    /// Scans one source string under the determinism family alone.
    fn scan_str(source: &str) -> Analysis {
        let mut opts = Options::new(".");
        opts.families = vec![Family::Determinism];
        let mut analysis = Analysis {
            files: 1,
            ..Analysis::default()
        };
        scan_source(
            &opts,
            Path::new("test.rs"),
            "test.rs",
            "fixture",
            Tree::Src,
            source,
            &[],
            &mut analysis,
        );
        analysis
    }

    #[test]
    fn flags_each_determinism_rule_by_name() {
        let cases = [
            ("let t = std::time::Instant::now();", "wall-clock"),
            ("let t = SystemTime::now();", "wall-clock"),
            ("let mut rng = thread_rng();", "unseeded-rng"),
            ("let x: f64 = rand::random();", "unseeded-rng"),
            (
                "let m: HashMap<u32, u32> = HashMap::new();",
                "unordered-container",
            ),
            ("use std::collections::HashSet;", "unordered-container"),
            (
                "v.sort_by(|a, b| a.partial_cmp(b).unwrap());",
                "nan-unsafe-sort",
            ),
        ];
        for (source, rule) in cases {
            let analysis = scan_str(source);
            assert_eq!(analysis.violations.len(), 1, "{source}");
            assert_eq!(analysis.violations[0].rule, rule, "{source}");
            assert!(!analysis.ok());
        }
    }

    #[test]
    fn multiline_nan_sort_is_caught() {
        let source = "v.sort_by(|a, b| {\n    a.partial_cmp(b)\n        .unwrap()\n});\n";
        let analysis = scan_str(source);
        assert_eq!(analysis.violations.len(), 1);
        assert_eq!(analysis.violations[0].rule, "nan-unsafe-sort");
        assert_eq!(analysis.violations[0].line, 1);
    }

    #[test]
    fn total_cmp_sort_is_clean() {
        let analysis = scan_str("v.sort_by(f32::total_cmp);\nv.sort_by(|a, b| a.0.cmp(&b.0));\n");
        assert!(analysis.ok());
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let source = r##"
// A doc mention of HashMap and Instant::now is fine.
/* block comment: thread_rng() */
/// Uses a `HashMap` internally? No: BTreeMap.
fn f() {
    let s = "HashMap::new() SystemTime thread_rng";
    let raw = r"Instant::now()";
    let raw2 = r#"OsRng "quoted" HashSet"#;
    let c = 'H';
    let _ = (s, raw, raw2, c);
}
"##;
        let analysis = scan_str(source);
        assert!(analysis.ok(), "violations: {:?}", analysis.violations);
    }

    #[test]
    fn one_finding_per_rule_per_line() {
        let analysis = scan_str("let m: HashMap<u32, u32> = HashMap::new();");
        assert_eq!(analysis.violations.len(), 1);
    }

    #[test]
    fn marker_on_same_line_suppresses() {
        let source =
            "let t = Instant::now(); // sann-lint: allow(wall-clock) -- progress timer only\n";
        let analysis = scan_str(source);
        assert!(analysis.ok());
        assert_eq!(analysis.allowed.len(), 1);
        assert_eq!(
            analysis.allowed[0].allowed.as_deref(),
            Some("progress timer only")
        );
    }

    #[test]
    fn marker_on_line_above_suppresses() {
        let source = "// sann-lint: allow(unordered-container) -- test-only scratch map\nlet m = HashMap::new();\n";
        let analysis = scan_str(source);
        assert!(analysis.ok());
        assert_eq!(analysis.allowed.len(), 1);
    }

    #[test]
    fn marker_for_wrong_rule_does_not_suppress() {
        let source = "// sann-lint: allow(wall-clock) -- mismatched\nlet m = HashMap::new();\n";
        let analysis = scan_str(source);
        assert_eq!(analysis.violations.len(), 1);
        assert_eq!(analysis.violations[0].rule, "unordered-container");
    }

    #[test]
    fn markers_for_unselected_families_are_recognized() {
        // The marker namespace is the full registry: a cast-safety marker in
        // product code must not be a bad-marker error under
        // `--rules determinism`.
        let source =
            "// sann-lint: allow(cast-truncation) -- lossless by construction\nlet x = y as u64;\n";
        let analysis = scan_str(source);
        assert!(analysis.ok(), "{:?}", analysis.marker_errors);
    }

    #[test]
    fn malformed_markers_are_errors() {
        for bad in [
            "// sann-lint: allow(wall-clock)\nlet t = 1;\n", // missing reason
            "// sann-lint: allow(no-such-rule) -- why\n",
            "// sann-lint: deny(wall-clock) -- why\n",
        ] {
            let analysis = scan_str(bad);
            assert!(!analysis.marker_errors.is_empty(), "{bad}");
            assert!(!analysis.ok());
        }
    }

    #[test]
    fn text_report_counts_findings_and_markers_per_rule() {
        let source = "let t = Instant::now();\nlet m = HashMap::new(); // sann-lint: allow(unordered-container) -- scratch\n";
        let rendered = scan_str(source).render_text();
        let row = |rule: &str| {
            let line = rendered.lines().find(|l| l.trim_start().starts_with(rule));
            let line = line.unwrap_or_else(|| panic!("no {rule} row in:\n{rendered}"));
            line.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        // Columns: rule, findings, baseline, allowed, policy.
        assert_eq!(row("wall-clock")[1..], ["1", "-", "0", "deny"]);
        assert_eq!(row("unordered-container")[1..], ["0", "-", "1", "deny"]);
        assert!(rendered.contains("error[wall-clock]: test.rs:1:"));
        assert!(rendered.contains("analyze: FAIL"));
    }
}
