//! The analyzer's rule registry and the shared token-structure helpers.
//!
//! Every rule consumes one file's token stream (see [`crate::lexer`]) through
//! a [`RuleCtx`] and appends [`Finding`]s. Rules come in two severities:
//!
//! * [`Severity::Deny`] — zero tolerance; any unsuppressed finding fails the
//!   run (the determinism family and crate layering);
//! * [`Severity::Ratchet`] — counted against the per-(rule, crate) baseline
//!   in `analyze-baseline.toml`; the count may never grow, so pre-existing
//!   findings don't block but regressions do (panic paths, bare casts,
//!   hot-loop hygiene).
//!
//! Suppression uses `sann-lint: allow(<rule>) -- <reason>` markers on the
//! finding's line or the line above.

pub mod cast_safety;
pub mod determinism;
pub mod hot_loop;
pub mod layering;
pub mod panic_path;

use crate::lexer::{Tok, TokKind};
use std::path::{Path, PathBuf};

/// How a rule's findings gate the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Any unsuppressed finding is an error.
    Deny,
    /// Findings are counted per crate against the ratcheted baseline; only
    /// count regressions are errors.
    Ratchet,
}

/// Rule families, selectable with `analyze --rules <family,...>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The determinism deny-set: wall-clock, unseeded-rng,
    /// unordered-container, nan-unsafe-sort.
    Determinism,
    /// Crate-dependency layering against the declared DAG.
    Layering,
    /// `unwrap`/`expect`/`panic!` and hot-function indexing.
    PanicPath,
    /// Bare `as` numeric casts.
    CastSafety,
    /// Allocation and float-ordering hygiene inside hot functions.
    HotLoop,
}

impl Family {
    /// The family's `--rules` name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::Layering => "layering",
            Family::PanicPath => "panic-path",
            Family::CastSafety => "cast-safety",
            Family::HotLoop => "hot-loop",
        }
    }

    /// All families, in reporting order.
    pub const ALL: &'static [Family] = &[
        Family::Determinism,
        Family::Layering,
        Family::PanicPath,
        Family::CastSafety,
        Family::HotLoop,
    ];

    /// Parses a `--rules` name.
    pub fn parse(name: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Marker-facing rule name (`allow(<name>)`).
    pub name: &'static str,
    /// The family the rule belongs to.
    pub family: Family,
    /// Deny or ratcheted.
    pub severity: Severity,
    /// Why the pattern is banned or tracked.
    pub why: &'static str,
}

/// Every rule the analyzer knows, in reporting order.
pub const REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        name: "wall-clock",
        family: Family::Determinism,
        severity: Severity::Deny,
        why: "wall-clock time varies run to run; simulated time must come from the DES clock",
    },
    RuleInfo {
        name: "unseeded-rng",
        family: Family::Determinism,
        severity: Severity::Deny,
        why: "entropy-seeded randomness breaks replay; use sann_core::rng::SplitMix64",
    },
    RuleInfo {
        name: "unordered-container",
        family: Family::Determinism,
        severity: Severity::Deny,
        why: "HashMap/HashSet iteration order is randomized; use BTreeMap/BTreeSet",
    },
    RuleInfo {
        name: "nan-unsafe-sort",
        family: Family::Determinism,
        severity: Severity::Deny,
        why: "sort_by(partial_cmp().unwrap()) panics on NaN; use total_cmp",
    },
    RuleInfo {
        name: "layering",
        family: Family::Layering,
        severity: Severity::Deny,
        why: "crate dependencies must follow the declared DAG \
              (core ← {datagen,quant,ssdsim,obs} ← index ← engine ← vdb ← bench)",
    },
    RuleInfo {
        name: "panic-path",
        family: Family::PanicPath,
        severity: Severity::Ratchet,
        why: "a panic inside the simulation turns into a silent wrong figure or an aborted \
              sweep; use typed errors or document the invariant with an allow marker",
    },
    RuleInfo {
        name: "cast-truncation",
        family: Family::CastSafety,
        severity: Severity::Ratchet,
        why: "bare `as` numeric casts silently truncate/saturate; use sann_core::cast \
              helpers, try_into, or document why the cast is lossless",
    },
    RuleInfo {
        name: "hot-alloc",
        family: Family::HotLoop,
        severity: Severity::Ratchet,
        why: "allocation inside a hot function churns the allocator on every query; \
              preallocate outside the loop or use a scratch buffer",
    },
    RuleInfo {
        name: "hot-float",
        family: Family::HotLoop,
        severity: Severity::Ratchet,
        why: "non-total float comparisons in hot paths order NaN unpredictably; \
              use total_cmp (and keep reductions in a fixed association order)",
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    REGISTRY.iter().find(|r| r.name == name)
}

/// Which per-crate source tree a file belongs to — severity policies differ
/// (tests may unwrap; benches may allocate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    /// `src/` (including `src/bin/`): full policy.
    Src,
    /// `tests/`: determinism and layering only.
    Tests,
    /// `benches/`: determinism and layering only.
    Benches,
    /// `examples/`: determinism and layering only.
    Examples,
}

impl Tree {
    /// Whether ratcheted rules (panic-path, casts, hot-loop) apply here.
    pub fn ratcheted_rules_apply(self) -> bool {
        matches!(self, Tree::Src)
    }
}

/// One rule hit (suppression is resolved by the driver, not the rule).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Absolute path of the file.
    pub file: PathBuf,
    /// Workspace-relative path with forward slashes (stable across hosts).
    pub rel: String,
    /// Crate key for baseline accounting (`core`, `engine`, …).
    pub krate: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What fired, specifically.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// The marker reason when suppressed.
    pub allowed: Option<String>,
}

/// Everything a rule gets to look at for one file.
pub struct RuleCtx<'a> {
    /// Absolute path.
    pub file: &'a Path,
    /// Workspace-relative forward-slash path.
    pub rel: &'a str,
    /// Crate key (`core`, `engine`, … or the fixture pseudo-crate).
    pub krate: &'a str,
    /// Which tree the file sits in.
    pub tree: Tree,
    /// Raw source lines (1-based access via `line(n)`).
    pub lines: &'a [&'a str],
    /// The token stream.
    pub toks: &'a [Tok<'a>],
    /// Per-token: inside a `#[cfg(test)]` module (ratcheted rules skip).
    pub test_mask: &'a [bool],
    /// Token-index ranges `[start, end)` of hot function bodies.
    pub hot_ranges: &'a [(usize, usize)],
}

impl RuleCtx<'_> {
    /// The trimmed source line a token sits on.
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Whether token `i` is inside a hot function body.
    pub fn in_hot(&self, i: usize) -> bool {
        self.hot_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Builds a finding for the token at index `i`.
    pub fn finding(&self, i: usize, rule: &'static str, message: String) -> Finding {
        let t = &self.toks[i];
        Finding {
            rule,
            file: self.file.to_path_buf(),
            rel: self.rel.to_string(),
            krate: self.krate.to_string(),
            line: t.line,
            col: t.col,
            message,
            excerpt: self.excerpt(t.line),
            allowed: None,
        }
    }
}

/// Finds the token index of the bracket matching the opener at `open`
/// (which must be `(`, `[`, or `{`). Returns `None` when unbalanced.
pub fn matching_close(toks: &[Tok<'_>], open: usize) -> Option<usize> {
    let (o, c) = match toks[open].text {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Whether tokens at `i` form the path `a::b` (four tokens).
pub fn is_path2(toks: &[Tok<'_>], i: usize, a: &str, b: &str) -> bool {
    toks[i].is_ident(a)
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(b))
}

/// The extent of one `fn` item: the name token and the `[body_open,
/// body_close]` token range of its `{ … }` body.
#[derive(Debug, Clone, Copy)]
pub struct FnExtent {
    /// Index of the name token (the ident after `fn`).
    pub name: usize,
    /// Index of the opening `{`.
    pub body_open: usize,
    /// Index of the matching `}`.
    pub body_close: usize,
}

/// Finds every `fn` item (including nested ones) and its body extent.
pub fn fn_extents(toks: &[Tok<'_>]) -> Vec<FnExtent> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let _ = name;
        // Scan forward for the body `{`, skipping the signature. Generic
        // bounds and where clauses contain no braces; a `;` first means a
        // trait method declaration with no body — unless it sits inside
        // brackets, where it belongs to an array type such as `[f32; 4]`.
        let mut j = i + 2;
        let mut body_open = None;
        let mut brackets = 0usize;
        while let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                body_open = Some(j);
                break;
            }
            if t.is_punct('[') {
                brackets += 1;
            } else if t.is_punct(']') {
                brackets = brackets.saturating_sub(1);
            } else if t.is_punct(';') && brackets == 0 {
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let Some(close) = matching_close(toks, open) else {
            continue;
        };
        out.push(FnExtent {
            name: i + 1,
            body_open: open,
            body_close: close,
        });
    }
    out
}

/// Whether the tokens from `open` on read `[cfg(test)]`.
fn cfg_test_at(toks: &[Tok<'_>], open: usize) -> bool {
    let tok = |k: usize| toks.get(open + k);
    tok(0).is_some_and(|t| t.is_punct('['))
        && tok(1).is_some_and(|t| t.is_ident("cfg"))
        && tok(2).is_some_and(|t| t.is_punct('('))
        && tok(3).is_some_and(|t| t.is_ident("test"))
        && tok(4).is_some_and(|t| t.is_punct(')'))
        && tok(5).is_some_and(|t| t.is_punct(']'))
}

/// Marks every token inside a `#[cfg(test)] mod … { … }` region, and every
/// token of a file whose inner attributes include `#![cfg(test)]` (an
/// out-of-line test module). Ratcheted rules skip these: tests may unwrap,
/// cast, and allocate freely.
pub fn cfg_test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut i = 0usize;
    while toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        && toks.get(i + 2).is_some()
    {
        if cfg_test_at(toks, i + 2) {
            return vec![true; toks.len()];
        }
        match matching_close(toks, i + 2) {
            Some(close) => i = close + 1,
            None => break,
        }
    }
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#') && cfg_test_at(toks, i + 1);
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {` or an
        // attributed item; only module regions are masked wholesale.
        let mut j = i + 7;
        while toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching_close(toks, j + 1) {
                Some(close) => j = close + 1,
                None => break,
            }
        }
        if toks.get(j).is_some_and(|t| t.is_ident("mod")) {
            // Find the module's opening brace (after the name).
            let mut k = j + 1;
            while let Some(t) = toks.get(k) {
                if t.is_punct('{') {
                    if let Some(close) = matching_close(toks, k) {
                        for m in &mut mask[k..=close] {
                            *m = true;
                        }
                        i = close + 1;
                    } else {
                        // Unbalanced: mask to EOF.
                        for m in &mut mask[k..] {
                            *m = true;
                        }
                        i = toks.len();
                    }
                    break;
                }
                if t.is_punct(';') {
                    break; // out-of-line module file
                }
                k += 1;
            }
            if i <= j {
                i = k + 1;
            }
        } else {
            i = j;
        }
    }
    mask
}

/// Token ranges `[body_open, body_close)` of hot functions: those carrying a
/// `#[sann::hot]` attribute, plus those named in the hot-path manifest for
/// this file (`manifest_fns`).
pub fn hot_ranges(toks: &[Tok<'_>], manifest_fns: &[String]) -> Vec<(usize, usize)> {
    let extents = fn_extents(toks);
    let mut out = Vec::new();
    for ext in &extents {
        let name = toks[ext.name].text;
        let hot = manifest_fns.iter().any(|f| f == name) || has_hot_attr(toks, ext.name);
        if hot {
            out.push((ext.body_open, ext.body_close + 1));
        }
    }
    out
}

/// Whether the `fn` whose name token is at `name_idx` carries a
/// `#[sann::hot]` attribute. Scans backwards over the attribute/visibility/
/// qualifier prefix of the item.
fn has_hot_attr(toks: &[Tok<'_>], name_idx: usize) -> bool {
    // Walk backwards across `fn`, qualifiers, visibility, and attributes.
    let mut i = name_idx.saturating_sub(1); // the `fn` keyword
    loop {
        if i == 0 {
            return false;
        }
        let t = &toks[i - 1];
        if t.kind == TokKind::Ident
            && matches!(
                t.text,
                "fn" | "pub" | "const" | "unsafe" | "extern" | "async"
            )
        {
            i -= 1;
            continue;
        }
        if t.is_punct(')') {
            // pub(crate) — skip the group.
            let mut depth = 0usize;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct(')') {
                    depth += 1;
                } else if toks[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            i = j;
            continue;
        }
        if t.is_punct(']') {
            // An attribute `#[ … ]` ending here; check its contents.
            let mut depth = 0usize;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            if j == 0 || !toks[j - 1].is_punct('#') {
                return false;
            }
            // `#[sann::hot]` → tokens: sann :: hot between j+1 and i-1.
            if i >= j + 4 && is_path2(toks, j + 1, "sann", "hot") {
                return true;
            }
            i = j - 1;
            continue;
        }
        return false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_extents_cover_nested_functions() {
        let toks = lex("fn outer() { fn inner() { body(); } tail(); }");
        let exts = fn_extents(&toks);
        assert_eq!(exts.len(), 2);
        assert_eq!(toks[exts[0].name].text, "outer");
        assert_eq!(toks[exts[1].name].text, "inner");
        assert!(exts[0].body_close > exts[1].body_close);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let toks = lex("trait T { fn decl(&self) -> u32; fn with_default(&self) { x(); } }");
        let exts = fn_extents(&toks);
        assert_eq!(exts.len(), 1);
        assert_eq!(toks[exts[0].name].text, "with_default");
    }

    #[test]
    fn array_types_in_a_signature_do_not_hide_the_body() {
        let toks = lex("fn x4(q: &[f32], rows: [&[f32]; 4]) -> [f32; 4] { body(); }");
        let exts = fn_extents(&toks);
        assert_eq!(exts.len(), 1);
        assert_eq!(toks[exts[0].name].text, "x4");
        assert_eq!(toks[exts[0].body_open + 1].text, "body");
    }

    #[test]
    fn cfg_test_mask_covers_test_modules_only() {
        let src = "fn prod() { a(); }\n#[cfg(test)]\nmod tests { fn t() { b(); } }\nfn prod2() {}";
        let toks = lex(src);
        let mask = cfg_test_mask(&toks);
        let at = |text: &str| toks.iter().position(|t| t.text == text).unwrap();
        assert!(!mask[at("a")]);
        assert!(mask[at("b")]);
        assert!(!mask[at("prod2")]);
    }

    #[test]
    fn inner_cfg_test_masks_the_whole_file() {
        let toks = lex("#![allow(dead_code)]\n#![cfg(test)]\nuse a::b;\nfn t() { c(); }");
        assert!(cfg_test_mask(&toks).iter().all(|&m| m));
        let toks = lex("#![allow(dead_code)]\nfn prod() { c(); }");
        assert!(cfg_test_mask(&toks).iter().all(|&m| !m));
    }

    #[test]
    fn hot_attr_detected_through_other_attrs_and_visibility() {
        let src =
            "#[inline]\n#[sann::hot]\npub(crate) fn kernel(x: &[f32]) { x.len(); }\nfn cold() {}";
        let toks = lex(src);
        let ranges = hot_ranges(&toks, &[]);
        assert_eq!(ranges.len(), 1);
        let kernel_body = toks.iter().position(|t| t.text == "len").unwrap();
        assert!(ranges[0].0 <= kernel_body && kernel_body < ranges[0].1);
    }

    #[test]
    fn manifest_names_mark_hot_without_attr() {
        let toks = lex("fn listed() { y(); } fn unlisted() { z(); }");
        let ranges = hot_ranges(&toks, &["listed".to_string()]);
        assert_eq!(ranges.len(), 1);
        let y = toks.iter().position(|t| t.text == "y").unwrap();
        assert!(ranges[0].0 <= y && y < ranges[0].1);
    }
}
