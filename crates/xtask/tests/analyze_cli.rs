//! End-to-end tests of `sann-xtask analyze`: the hot-path rules fire only
//! in the functions the root's `analyze-hotpaths.toml` names and markers
//! suppress them with a reason; the ratchet gates through the root's
//! `analyze-baseline.toml`; the clippy pass counts a probe package's
//! findings; the root `clippy.toml` denies every banned type in another
//! probe; the manifest check fails on an inverted edge; the report is
//! byte-stable; and the real workspace passes against the committed
//! baseline.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sann-xtask"))
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("analyze_fixtures")
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

/// Writes the scratch root's hot-path manifest: `(file, "fn, fn")` entries.
fn write_hotpaths(dir: &Path, entries: &[(&str, &str)]) {
    let mut text = String::from("[hot]\n");
    for (file, fns) in entries {
        text.push_str(&format!("\"{file}\" = \"{fns}\"\n"));
    }
    std::fs::write(dir.join("analyze-hotpaths.toml"), text).unwrap();
}

/// A scratch copy of one fixture whose manifest lists `hot_fn` in it.
fn hot_scratch(name: &str, tag: &str, hot_fn: &str) -> PathBuf {
    let dir = scratch(tag);
    std::fs::copy(fixtures_dir().join(name), dir.join(name)).unwrap();
    write_hotpaths(&dir, &[(name, hot_fn)]);
    dir
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

#[test]
fn hot_loop_fixture_fires_both_rules_via_the_manifest() {
    let dir = hot_scratch("hot_positive.rs", "hot-pos", "kernel");
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success());
    let text = stdout(&out);
    // Only the hot kernel's sites count (to_vec, vec!; partial_cmp): the
    // identical allocation in the cold function on line 18 must not.
    assert!(
        text.contains("error[ratchet]: hot-alloc/sann: 2 finding(s)"),
        "{text}"
    );
    assert!(
        text.contains("error[ratchet]: hot-float/sann: 1 finding(s)"),
        "{text}"
    );
    assert!(!text.contains("hot_positive.rs:18:"), "{text}");
    assert!(text.contains("clippy pass skipped"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_index_fixture_fires_twice() {
    let dir = hot_scratch("panic_positive.rs", "index-pos", "kernel");
    let out = run_analyze(&dir, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(
        text.contains("error[ratchet]: panic-path/sann: 2 finding(s), baseline allows 0"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_fixtures_that_follow_the_rules_pass() {
    for (name, hot_fn) in [
        ("hot_allowed.rs", "kernel_with_setup"),
        ("hot_clean.rs", "kernel"),
        ("panic_allowed.rs", "audited"),
        ("panic_clean.rs", "four_at_once"),
    ] {
        let dir = hot_scratch(name, name.trim_end_matches(".rs"), hot_fn);
        let out = run_analyze(&dir, &[]);
        assert!(out.status.success(), "{name} must pass:\n{}", stdout(&out));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn malformed_marker_fails() {
    let dir = scratch("marker");
    std::fs::write(
        dir.join("bad_marker.rs"),
        "fn f(v: &[u32]) -> u32 {\n    // sann-lint: allow(panic-path)\n    v[0]\n}\n",
    )
    .unwrap();
    write_hotpaths(&dir, &[("bad_marker.rs", "f")]);
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success(), "reason-less marker must fail");
    assert!(
        stdout(&out).contains("error[bad-marker]"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_loop_manifest_marks_only_the_functions_it_lists() {
    let dir = hot_scratch("hot_clean.rs", "hot-manifest", "kernel");
    // Two identical allocating fns in a second file; only one is listed.
    std::fs::write(
        dir.join("listed.rs"),
        "fn listed_kernel(xs: &[f32]) -> Vec<f32> { xs.to_vec() }\n\
         fn unlisted(xs: &[f32]) -> Vec<f32> { xs.to_vec() }\n",
    )
    .unwrap();
    write_hotpaths(
        &dir,
        &[("hot_clean.rs", "kernel"), ("listed.rs", "listed_kernel")],
    );
    let out = run_analyze(&dir, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(
        text.contains("error[ratchet]: hot-alloc/sann: 1 finding(s)"),
        "{text}"
    );
    assert!(text.contains("listed.rs:1:"), "{text}");
    assert!(!text.contains("listed.rs:2:"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest entry naming a file that is gone, or a function its file no
/// longer defines, fails the run instead of silently dropping the function
/// from the hot-path rules.
#[test]
fn hot_loop_manifest_rejects_stale_entries() {
    let dir = scratch("hot-stale");
    std::fs::write(dir.join("kernel.rs"), "fn kernel(x: f32) -> f32 { x }\n").unwrap();
    for (file, fns, complaint) in [
        ("kernel.rs", "kernel", None),
        ("gone.rs", "kernel", Some("gone.rs")),
        (
            "kernel.rs",
            "kernel, renamed",
            Some("defines no fn `renamed`"),
        ),
    ] {
        write_hotpaths(&dir, &[(file, fns)]);
        let out = run_analyze(&dir, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.success(),
            complaint.is_none(),
            "{file} = {fns}: {stderr}"
        );
        if let Some(complaint) = complaint {
            assert!(stderr.contains("stale entry"), "{file} = {fns}: {stderr}");
            assert!(stderr.contains(complaint), "{file} = {fns}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
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
/// pass counts every ratcheted lint against an empty baseline, and
/// `--update-baseline` records them.
#[test]
fn clippy_pass_ratchets_a_probe_package() {
    let dir = scratch("clippy");
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"probe\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[workspace]\n",
    )
    .unwrap();
    std::fs::write(dir.join("src").join("lib.rs"), PROBE_LIB).unwrap();
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
    let out = run_analyze(&dir, &["--update-baseline"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run_analyze(&dir, &[]);
    assert!(out.status.success(), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// The determinism bans live in the root `clippy.toml`: a probe package
/// that carries a copy of it and names each banned type once fails
/// `cargo clippy -D warnings` with exactly one `disallowed_types` error per
/// type. A wrong path in the file, or the file going missing, fails here.
#[test]
fn clippy_toml_denies_the_wall_clock_hash_containers_and_random_state() {
    let dir = scratch("disallowed");
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::copy(
        workspace_root().join("clippy.toml"),
        dir.join("clippy.toml"),
    )
    .unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"probe\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[workspace]\n",
    )
    .unwrap();
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
    std::fs::write(
        dir.join("src").join("lib.rs"),
        format!(
            "//! Probe.\n\n/// Names every banned type once.\npub fn probe({}) {{}}\n",
            params.join(", ")
        ),
    )
    .unwrap();
    let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(&dir)
        .args(["clippy", "--offline", "--quiet", "--message-format=short"])
        .args(["--", "-D", "warnings"])
        .output()
        .unwrap();
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

#[test]
fn text_report_is_byte_stable() {
    let dir = hot_scratch("hot_positive.rs", "stable", "kernel");
    std::fs::copy(
        fixtures_dir().join("panic_positive.rs"),
        dir.join("panic_positive.rs"),
    )
    .unwrap();
    write_hotpaths(
        &dir,
        &[
            ("hot_positive.rs", "kernel"),
            ("panic_positive.rs", "kernel"),
        ],
    );
    let a = run_analyze(&dir, &[]);
    let b = run_analyze(&dir, &[]);
    assert_eq!(a.stdout, b.stdout, "the report must be byte-stable");
    assert!(stdout(&a).contains("analyze: FAIL"), "{}", stdout(&a));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_baseline_ratchets_and_gates_regressions() {
    let dir = hot_scratch("hot_positive.rs", "ratchet", "kernel");
    assert!(!run_analyze(&dir, &[]).status.success());
    let out = run_analyze(&dir, &["--update-baseline"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let recorded = std::fs::read_to_string(dir.join("analyze-baseline.toml")).unwrap();
    assert!(
        recorded.contains("[\"hot-alloc\"]\nsann = 2\n"),
        "{recorded}"
    );
    let out = run_analyze(&dir, &[]);
    assert!(
        out.status.success(),
        "baselined tree must pass:\n{}",
        stdout(&out)
    );
    // One new hot allocation: a regression against the recorded baseline.
    std::fs::write(
        dir.join("new_code.rs"),
        "fn fresh(v: &[u32]) -> Vec<u32> { v.to_vec() }\n",
    )
    .unwrap();
    write_hotpaths(
        &dir,
        &[("hot_positive.rs", "kernel"), ("new_code.rs", "fresh")],
    );
    let out = run_analyze(&dir, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "regression must fail:\n{text}");
    assert!(
        text.contains("error[ratchet]: hot-alloc/sann: 3 finding(s), baseline allows 2"),
        "{text}"
    );
    assert!(text.contains("new_code.rs:1:"), "{text}");
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
