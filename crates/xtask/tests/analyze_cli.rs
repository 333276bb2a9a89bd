//! End-to-end tests of `sann-xtask analyze` and the clippy configuration it
//! relies on: the clippy pass counts a probe package's findings and the
//! ratchet gates through the root's `analyze-baseline.toml`; the root
//! `clippy.toml` denies every banned type in another probe, and every
//! hot-path ban inside a marked function only; the manifest check fails on
//! an inverted edge; the report is byte-stable; and the real workspace
//! passes against the committed baseline.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sann-xtask"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

/// An empty scratch dir for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sann-analyze-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-package workspace in a scratch dir: `lib` as its library, and
/// `manifest_tail` after the `[workspace]` line of its manifest.
fn probe_package(tag: &str, lib: &str, manifest_tail: &str) -> PathBuf {
    let dir = scratch(tag);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"probe\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[workspace]\n{manifest_tail}"
        ),
    )
    .unwrap();
    std::fs::write(dir.join("src").join("lib.rs"), lib).unwrap();
    dir
}

/// Runs `cargo clippy` on the package at `dir`, with one short line per
/// diagnostic on stderr.
fn cargo_clippy(dir: &Path, lint_args: &[&str]) -> Output {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(dir)
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--message-format=short",
            "--",
        ])
        .args(lint_args)
        .output()
        .unwrap()
}

fn run_analyze(dir: &Path, extra: &[&str]) -> Output {
    xtask()
        .args(["analyze", "--root"])
        .arg(dir)
        .args(extra)
        .output()
        .unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A synthetic workspace whose `ssdsim` (a bottom layer) depends on
/// `sann-engine` (an upper layer): the inverted-edge fixture.
#[test]
fn layering_fails_on_an_inverted_dependency() {
    let root = scratch("layering");
    let krate = root.join("crates").join("ssdsim");
    std::fs::create_dir_all(&krate).unwrap();
    std::fs::write(
        krate.join("Cargo.toml"),
        "[package]\nname = \"sann-ssdsim\"\n\n[dependencies]\nsann-core.workspace = true\nsann-engine.workspace = true\n",
    )
    .unwrap();
    let out = run_analyze(&root, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "inverted edge must fail:\n{text}");
    assert!(
        text.contains(
            "error[layering]: crates/ssdsim/Cargo.toml: crate `ssdsim` must not depend on `engine`"
        ),
        "{text}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The probe library of [`clippy_pass_ratchets_a_probe_package`]: one site
/// per ratcheted lint, plus a NaN-unsafe sort, whose `unwrap` is a second
/// `unwrap_used`.
const PROBE_LIB: &str = r#"//! Probe.

/// The first value, narrowed.
pub fn first(v: &[u64]) -> u32 {
    *v.first().unwrap() as u32
}

/// Sorts; panics on NaN.
pub fn sort(v: &mut [f32]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

/// One site per remaining lint.
pub fn rest(n: u64, i: i64, o: Option<u8>) -> (i64, u64, f64, u8) {
    match n {
        0 => panic!("zero"),
        1 => unreachable!("one"),
        2 => unimplemented!("two"),
        _ => (n as i64, i as u64, n as f64, o.expect("some")),
    }
}
"#;

/// A one-package workspace whose library holds [`PROBE_LIB`]: the clippy
/// pass counts every ratcheted lint against an empty baseline.
#[test]
fn clippy_pass_ratchets_a_probe_package() {
    let dir = probe_package("clippy", PROBE_LIB, "");
    let out = run_analyze(&dir, &[]);
    let text = stdout(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{text}{stderr}");
    for (lint, n) in [
        ("unwrap_used", 2),
        ("cast_possible_truncation", 1),
        ("cast_possible_wrap", 1),
        ("cast_precision_loss", 1),
        ("cast_sign_loss", 1),
        ("expect_used", 1),
        ("panic", 1),
        ("unreachable", 1),
        ("unimplemented", 1),
    ] {
        let want =
            format!("error[ratchet]: clippy::{lint}/sann: {n} finding(s), baseline allows 0");
        assert!(text.contains(&want), "{want}:\n{text}{stderr}");
    }
    assert!(text.contains("src/lib.rs:5:"), "{text}");
    assert!(
        text.contains("src/lib.rs:10:"),
        "the NaN-unsafe sort:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The determinism bans live in the root `clippy.toml`: a probe package
/// that carries a copy of it and names each banned type once fails
/// `cargo clippy -D warnings` with exactly one `disallowed_types` error per
/// type. A wrong path in the file, or the file going missing, fails here.
#[test]
fn clippy_toml_denies_the_wall_clock_hash_containers_and_random_state() {
    let banned = [
        "std::time::Instant",
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
    ];
    let params: Vec<String> = banned
        .iter()
        .enumerate()
        .map(|(i, ty)| match *ty {
            "std::collections::HashMap" => format!("_p{i}: {ty}<u8, u8>"),
            "std::collections::HashSet" => format!("_p{i}: {ty}<u8>"),
            _ => format!("_p{i}: {ty}"),
        })
        .collect();
    let lib = format!(
        "//! Probe.\n\n/// Names every banned type once.\npub fn probe({}) {{}}\n",
        params.join(", ")
    );
    let dir = probe_package("disallowed", &lib, "");
    std::fs::copy(
        workspace_root().join("clippy.toml"),
        dir.join("clippy.toml"),
    )
    .unwrap();
    let out = cargo_clippy(&dir, &["-D", "warnings"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("error: use of a disallowed type"))
        .collect();
    assert_eq!(errors.len(), banned.len(), "{stderr}");
    for ty in banned {
        let hits = errors.iter().filter(|l| l.contains(&format!("`{ty}`")));
        assert_eq!(hits.count(), 1, "{ty}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The constructs the hot-path bans name, one per line of
/// [`hot_probe_lib`]'s body, each with its expected error message: an
/// index, then every `disallowed-methods` and `disallowed-macros` entry of
/// the root `clippy.toml`.
const HOT_CONSTRUCTS: &[(&str, &str)] = &[
    ("let first = v[0];", "indexing may panic"),
    (
        "let mut rows: Vec<Vec<f32>> = Vec::new();",
        "`alloc::vec::Vec::new`",
    ),
    (
        "let spare: Vec<f32> = Vec::with_capacity(v.len());",
        "`alloc::vec::Vec::with_capacity`",
    ),
    ("let text = String::new();", "`alloc::string::String::new`"),
    ("let boxed = Box::new(first);", "`alloc::boxed::Box::new`"),
    ("let copies = names.clone();", "`core::clone::Clone::clone`"),
    (
        "let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();",
        "`core::iter::Iterator::collect`",
    ),
    (
        "let shown = first.to_string();",
        "`alloc::string::ToString::to_string`",
    ),
    (
        "let owned = s.to_owned();",
        "`alloc::borrow::ToOwned::to_owned`",
    ),
    ("let row = v.to_vec();", "`slice::to_vec`"),
    ("let pair = vec![first, second];", "`std::vec`"),
    ("let message = format!(\"{second}\");", "`std::format`"),
    (
        "let order = first.partial_cmp(&second);",
        "`core::cmp::PartialOrd::partial_cmp`",
    ),
    (
        "let by_path = f32::partial_cmp(&first, &second);",
        "`core::cmp::PartialOrd::partial_cmp`",
    ),
];

/// A library whose one function holds every [`HOT_CONSTRUCTS`] line plus
/// an index under a reasoned statement-level `#[allow]`, preceded by
/// `attrs`.
fn hot_probe_lib(attrs: &str) -> String {
    let mut lib = format!(
        "//! Probe.\n\n/// Holds every construct the hot-path bans name.\n{attrs}\
         pub fn probe(v: &[f32], s: &str, names: Vec<String>) -> usize {{\n"
    );
    for (line, _) in HOT_CONSTRUCTS {
        lib.push_str(&format!("    {line}\n"));
        if line.starts_with("let first") {
            lib.push_str(
                "    #[allow(clippy::indexing_slicing, reason = \"the one excused site\")] \
                 let second = v[1];\n",
            );
        }
    }
    lib.push_str(
        "    rows.push(pair);\n    rows.push(row);\n    rows.push(doubled);\n    \
         rows.len() + spare.capacity() + text.len() + copies.len() + shown.len() + owned.len() \
         + message.len() + usize::from(*boxed > 0.0) + usize::from(order == by_path)\n}\n",
    );
    lib
}

/// The hot-path bans live in the root `clippy.toml` and apply only where a
/// function denies them. A probe package with a copy of that file and of
/// the workspace lint table fails clippy with exactly one error per
/// [`HOT_CONSTRUCTS`] line when its function carries the two hot
/// attributes — the statement-level `#[allow]` excusing one index — and
/// passes with the same body unmarked.
#[test]
fn clippy_toml_denies_the_hot_path_bans_in_marked_functions_only() {
    let root = std::fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    let mut lint_tables = String::new();
    let mut keep = false;
    for line in root.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints");
        }
        if keep {
            lint_tables.push_str(line);
            lint_tables.push('\n');
        }
    }
    assert!(
        lint_tables.contains("disallowed_methods = \"allow\""),
        "{lint_tables}"
    );
    let manifest_tail = format!("{lint_tables}\n[lints]\nworkspace = true\n");
    let marked = "#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]\n\
                  #[deny(clippy::indexing_slicing)]\n";
    for (tag, attrs) in [("hot-marked", marked), ("hot-unmarked", "")] {
        let lib = hot_probe_lib(attrs);
        let dir = probe_package(tag, &lib, &manifest_tail);
        std::fs::copy(
            workspace_root().join("clippy.toml"),
            dir.join("clippy.toml"),
        )
        .unwrap();
        let out = cargo_clippy(&dir, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors: Vec<&str> = stderr.lines().filter(|l| l.contains(": error: ")).collect();
        if attrs.is_empty() {
            assert!(out.status.success(), "{lib}{stderr}");
            assert!(errors.is_empty(), "{stderr}");
            assert!(!stderr.contains("disallowed"), "{stderr}");
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        assert!(!out.status.success(), "{lib}{stderr}");
        assert_eq!(errors.len(), HOT_CONSTRUCTS.len(), "{lib}{stderr}");
        let lines: Vec<&str> = lib.lines().collect();
        for (construct, message) in HOT_CONSTRUCTS {
            let at = lines.iter().position(|l| l.trim() == *construct).unwrap() + 1;
            let hits = errors
                .iter()
                .filter(|e| e.starts_with(&format!("src/lib.rs:{at}:")) && e.contains(message));
            assert_eq!(hits.count(), 1, "{construct}: {stderr}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn text_report_is_byte_stable() {
    let dir = probe_package("stable", PROBE_LIB, "");
    let a = run_analyze(&dir, &[]);
    let b = run_analyze(&dir, &[]);
    assert_eq!(a.stdout, b.stdout, "the report must be byte-stable");
    assert!(stdout(&a).contains("analyze: FAIL"), "{}", stdout(&a));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_baseline_ratchets_and_gates_regressions() {
    let dir = probe_package("ratchet", PROBE_LIB, "");
    assert!(!run_analyze(&dir, &[]).status.success());
    let out = run_analyze(&dir, &["--update-baseline"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let recorded = std::fs::read_to_string(dir.join("analyze-baseline.toml")).unwrap();
    assert!(
        recorded.contains("[\"clippy::cast_possible_truncation\"]\nsann = 1\n"),
        "{recorded}"
    );
    let out = run_analyze(&dir, &[]);
    assert!(
        out.status.success(),
        "baselined tree must pass:\n{}",
        stdout(&out)
    );
    // One new lossy cast: a regression against the recorded baseline.
    let lib = format!(
        "{PROBE_LIB}\n/// Narrows again.\npub fn fresh(n: u64) -> u16 {{\n    n as u16\n}}\n"
    );
    std::fs::write(dir.join("src").join("lib.rs"), &lib).unwrap();
    let out = run_analyze(&dir, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "regression must fail:\n{text}");
    assert!(
        text.contains(
            "error[ratchet]: clippy::cast_possible_truncation/sann: 2 finding(s), baseline allows 1"
        ),
        "{text}"
    );
    let at = lib.lines().count() - 1;
    assert!(text.contains(&format!("src/lib.rs:{at}:")), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workspace_analyze_is_clean_against_the_committed_baseline() {
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(workspace_root())
        .output()
        .unwrap();
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "workspace must pass analyze against the committed baseline:\n{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("analyze: PASS"), "{text}");
    assert!(!text.contains("error["), "{text}");
}

/// The determinism bans have exceptions only where the bench harness
/// measures real elapsed time: every `allow` of a `clippy::disallowed_*`
/// lint in the repository sits in `crates/bench/src/{cli,microbench}.rs`.
#[test]
fn workspace_determinism_exceptions_are_confined_to_the_bench_harness() {
    let root = workspace_root();
    let needle = concat!("allow(clippy::", "disallowed_");
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    assert!(
        files.len() > 50,
        "expected the whole workspace, got {}",
        files.len()
    );
    let hits: BTreeSet<String> = files
        .iter()
        .filter(|p| {
            // rustfmt may break `#[allow(` and its lint onto two lines.
            let text = std::fs::read_to_string(p).unwrap();
            let squeezed: String = text.split_whitespace().collect();
            squeezed.contains(needle)
        })
        .map(|p| {
            p.strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    let expected: BTreeSet<String> = ["crates/bench/src/cli.rs", "crates/bench/src/microbench.rs"]
        .map(String::from)
        .into();
    assert_eq!(hits, expected);
}

/// Every `.rs` file under `dir`, skipping build output and hidden dirs.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn usage_errors_exit_nonzero() {
    for (args, complaint) in [
        (&[][..], "usage:"),
        (&["lint"][..], "unknown subcommand lint"),
        (&["determinism", "--bogus"][..], "unknown flag --bogus"),
        (
            &["analyze", "--rules", "bogus-family"][..],
            "unknown flag --rules",
        ),
        (
            &["analyze", "--format", "yaml"][..],
            "unknown flag --format",
        ),
        (&["analyze", "--baseline"][..], "unknown flag --baseline"),
        (
            &["analyze", "--hotpaths", "x"][..],
            "unknown flag --hotpaths",
        ),
        (&["analyze", "--root"][..], "--root needs a directory"),
        (
            &["bogus-subcommand"][..],
            "unknown subcommand bogus-subcommand",
        ),
    ] {
        let out = xtask().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    }
}
