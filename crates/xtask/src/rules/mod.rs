//! The lexer's rule registry and the shared token-structure helpers.
//!
//! Every rule consumes one hot-path file's token stream (see
//! [`crate::lexer`]) through a [`RuleCtx`] and appends [`Finding`]s. The
//! three rules look only inside the functions `analyze-hotpaths.toml`
//! names, and no clippy lint can be scoped to such a list. Their findings
//! are counted per (rule, package) against `analyze-baseline.toml`, like
//! the clippy pass's. Suppression uses `sann-lint: allow(<rule>) --
//! <reason>` markers on the finding's line or the line above.

pub mod hot_loop;
pub mod panic_path;

use crate::lexer::{Tok, TokKind};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Marker-facing rule name (`allow(<name>)`).
    pub name: &'static str,
    /// Why the pattern is tracked.
    pub why: &'static str,
}

/// Every rule the lexer runs, in reporting order.
pub const REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        name: "panic-path",
        why: "a panic inside the simulation turns into a silent wrong figure or an aborted \
              sweep; use get()/iterators or document the invariant with an allow marker",
    },
    RuleInfo {
        name: "hot-alloc",
        why: "allocation inside a hot function churns the allocator on every query; \
              preallocate outside the loop or use a scratch buffer",
    },
    RuleInfo {
        name: "hot-float",
        why: "non-total float comparisons in hot paths order NaN unpredictably; \
              use total_cmp (and keep reductions in a fixed association order)",
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    REGISTRY.iter().find(|r| r.name == name)
}

/// One finding of a lexer rule or a clippy lint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule or clippy lint that fired.
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

/// Everything a rule gets to look at for one file.
pub struct RuleCtx<'a> {
    /// Root-relative forward-slash path.
    pub rel: &'a str,
    /// Package key.
    pub krate: &'a str,
    /// The token stream.
    pub toks: &'a [Tok<'a>],
    /// Per-token: inside a `#[cfg(test)]` item (the rules skip these).
    pub test_mask: &'a [bool],
    /// Token-index ranges `[start, end)` of hot function bodies.
    pub hot_ranges: &'a [(usize, usize)],
}

impl RuleCtx<'_> {
    /// Whether token `i` is inside a hot function body.
    pub fn in_hot(&self, i: usize) -> bool {
        self.hot_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Builds a finding for the token at index `i`.
    pub fn finding(&self, i: usize, rule: &'static str, message: String) -> Finding {
        let t = &self.toks[i];
        Finding {
            rule,
            rel: self.rel.to_string(),
            krate: self.krate.to_string(),
            line: t.line,
            col: t.col,
            message,
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
        if toks.get(i + 1).is_none_or(|t| t.kind != TokKind::Ident) {
            continue;
        }
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

/// Marks every token a `#[cfg(test)]` attribute compiles out: after it and
/// any further attributes, through the first `;` outside brackets or the
/// close of the first top-level `{ … }` — a whole `mod`, `impl`, `fn`,
/// `thread_local!` or statement. A file whose inner attributes include
/// `#![cfg(test)]` (an out-of-line test module) is masked whole. The
/// rules skip these: tests may index and allocate freely.
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
    while i < toks.len() {
        if toks[i].is_punct('#') && cfg_test_at(toks, i + 1) {
            let end = item_end(toks, i + 7);
            mask[i..end].fill(true);
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// One past the last token of the item (or statement) starting at `start`:
/// through its first `;` outside brackets, or through the close of its
/// first top-level `{ … }`. A closing bracket it never opened ends it too.
fn item_end(toks: &[Tok<'_>], start: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text {
            "{" if depth == 0 => return matching_close(toks, j).map_or(toks.len(), |c| c + 1),
            ";" if depth == 0 => return j + 1,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return j,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
    }
    toks.len()
}

/// Token ranges `[body_open, body_close + 1)` of the functions the hot-path
/// manifest names for this file (`manifest_fns`).
pub fn hot_ranges(toks: &[Tok<'_>], manifest_fns: &[String]) -> Vec<(usize, usize)> {
    fn_extents(toks)
        .iter()
        .filter(|ext| manifest_fns.iter().any(|f| f == toks[ext.name].text))
        .map(|ext| (ext.body_open, ext.body_close + 1))
        .collect()
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
    fn cfg_test_mask_covers_every_test_item() {
        let src = "\
#[cfg(test)]
impl Index { fn per_pair(&self) -> usize { a as usize } }
#[cfg(test)]
#[inline]
fn probe() -> [f32; 4] { b(); [0.0; 4] }
fn prod() {
    #[cfg(test)]
    count(c.len());
    d();
}
#[cfg(test)]
thread_local! { static E: Cell<usize> = Cell::new(0); }
fn prod2() -> [f32; 4] { f() }";
        let toks = lex(src);
        let mask = cfg_test_mask(&toks);
        let at = |text: &str| toks.iter().position(|t| t.text == text).unwrap();
        for masked in ["a", "b", "c", "E"] {
            assert!(mask[at(masked)], "{masked} must be masked");
        }
        for kept in ["prod", "d", "prod2", "f"] {
            assert!(!mask[at(kept)], "{kept} must not be masked");
        }
    }

    #[test]
    fn inner_cfg_test_masks_the_whole_file() {
        let toks = lex("#![allow(dead_code)]\n#![cfg(test)]\nuse a::b;\nfn t() { c(); }");
        assert!(cfg_test_mask(&toks).iter().all(|&m| m));
        let toks = lex("#![allow(dead_code)]\nfn prod() { c(); }");
        assert!(cfg_test_mask(&toks).iter().all(|&m| !m));
    }

    #[test]
    fn manifest_names_mark_hot_functions() {
        let toks = lex("fn listed() { y(); } fn unlisted() { z(); }");
        let ranges = hot_ranges(&toks, &["listed".to_string()]);
        assert_eq!(ranges.len(), 1);
        let y = toks.iter().position(|t| t.text == "y").unwrap();
        assert!(ranges[0].0 <= y && y < ranges[0].1);
    }
}
