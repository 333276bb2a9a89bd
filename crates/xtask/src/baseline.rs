//! Ratcheted finding baselines: per-(rule, package) counts that may only
//! shrink.
//!
//! The workspace carries hundreds of pre-existing panic-path and cast
//! findings; blocking on all of them would freeze development, ignoring
//! them would let the count grow silently. The ratchet splits the
//! difference: `analyze --update-baseline` records the current counts in
//! `analyze-baseline.toml`, CI fails only when a count *exceeds* its
//! baseline, and shrinking counts are reported so the baseline can be
//! re-tightened. The rendered file is byte-deterministic (sorted rules,
//! sorted crates), which the determinism audit double-checks.
//!
//! The format is a strict subset of TOML, parsed by [`MiniToml`] — the
//! workspace builds offline with no TOML crate. The same parser reads the
//! hot-path manifest (`analyze-hotpaths.toml`) and the crate manifests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(rule, package) → finding count`.
pub type Counts = BTreeMap<(String, String), u64>;

/// Parses a baseline file.
///
/// # Errors
///
/// Returns a message naming the offending line on any syntax error or
/// non-integer value.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (section, key, value) in MiniToml::parse(text)?.entries {
        let n = value
            .parse()
            .map_err(|_| format!("baseline [{section}] {key}: `{value}` is not a count"))?;
        counts.insert((section, key), n);
    }
    Ok(counts)
}

/// Renders `counts` deterministically (sorted rules, then packages),
/// leaving out zero counts.
pub fn render(counts: &Counts) -> String {
    let mut out = String::from(
        "# sann-xtask analyze: ratcheted finding baseline, per (rule, package).\n\
         # Regenerate with: cargo run -p sann-xtask -- analyze --update-baseline\n\
         # Counts may only shrink; CI fails when any (rule, package) count grows.\n",
    );
    let mut last_rule: Option<&str> = None;
    for ((rule, krate), n) in counts.iter().filter(|(_, &n)| n > 0) {
        if last_rule != Some(rule) {
            let _ = write!(out, "\n[\"{rule}\"]\n");
            last_rule = Some(rule);
        }
        let _ = writeln!(out, "{krate} = {n}");
    }
    out
}

/// A parsed mini-TOML document: `[section]` headers over `key = value`
/// lines. Values are either bare integers or double-quoted strings; keys
/// are bare identifiers or double-quoted strings. Comments (`#`) and blank
/// lines are skipped. Duplicate keys: last wins.
#[derive(Debug, Default)]
pub struct MiniToml {
    /// `(section, key, value)` triples in file order.
    pub entries: Vec<(String, String, String)>,
}

impl MiniToml {
    /// Parses `text`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside the
    /// subset.
    pub fn parse(text: &str) -> Result<MiniToml, String> {
        let mut doc = MiniToml::default();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unclosed [section] header"));
                };
                section = unquote(name.trim()).to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {lineno}: expected `key = value`, got `{line}`"
                ));
            };
            let key = unquote(key.trim()).to_string();
            let mut value = value.trim();
            // Strip a trailing comment from unquoted values.
            if !value.starts_with('"') {
                if let Some(hash) = value.find('#') {
                    value = value[..hash].trim_end();
                }
            }
            let value = unquote(value).to_string();
            if key.is_empty() {
                return Err(format!("line {lineno}: empty key"));
            }
            doc.entries.push((section.clone(), key, value));
        }
        Ok(doc)
    }

    /// Values in `section`, keyed, in file order.
    pub fn section<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.entries
            .iter()
            .filter(move |(s, _, _)| s == name)
            .map(|(_, k, v)| (k.as_str(), v.as_str()))
    }
}

/// Strips one level of double quotes, if present.
fn unquote(s: &str) -> &str {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_deterministically() {
        let mut counts = Counts::new();
        counts.insert(("panic-path".to_string(), "engine".to_string()), 12u64);
        counts.insert(
            ("clippy::cast_sign_loss".to_string(), "index".to_string()),
            40,
        );
        counts.insert(("hot-alloc".to_string(), "core".to_string()), 0); // dropped
        let text = render(&counts);
        let reparsed = parse(&text).unwrap();
        counts.retain(|_, n| *n > 0);
        assert_eq!(reparsed, counts);
        assert_eq!(render(&reparsed), text, "render is a fixed point");
        assert!(!text.contains("hot-alloc"), "zero entries dropped");
        let clippy = text.find("[\"clippy::cast_sign_loss\"]\nindex = 40\n");
        assert!(clippy.unwrap() < text.find("[\"panic-path\"]").unwrap());
    }

    #[test]
    fn parse_accepts_comments_and_rejects_garbage() {
        let b = parse("# header\n[panic-path]\n\"engine\" = 7 # trailing\n").unwrap();
        assert_eq!(b[&("panic-path".to_string(), "engine".to_string())], 7);
        assert!(parse("[unclosed\n").is_err());
        assert!(parse("[r]\nkey value\n").is_err());
        assert!(parse("[r]\nkey = notanumber\n").is_err());
    }

    #[test]
    fn minitoml_string_values_and_sections() {
        let doc =
            MiniToml::parse("[hot]\n\"crates/core/src/a.rs\" = \"f, g\"\nplain = \"h\"\n").unwrap();
        let hot: Vec<_> = doc.section("hot").collect();
        assert_eq!(hot, vec![("crates/core/src/a.rs", "f, g"), ("plain", "h")]);
    }
}
