//! End-to-end tests of `sann-xtask analyze`: every rule runs on every
//! fixture, each fixture fires (or passes) with exact counts, markers
//! suppress with a reason, hot functions are marked through the root's
//! `analyze-hotpaths.toml`, the ratchet gates through the root's
//! `analyze-baseline.toml`, layering fails on an inverted dependency, the
//! report is byte-stable, and the real workspace passes against the
//! committed baseline.

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

/// A scratch dir holding a copy of one fixture file (flat mode).
fn scratch_with(name: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sann-analyze-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixtures_dir().join(name), dir.join(name)).unwrap();
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
    let dir = scratch_with(name, tag);
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
fn determinism_positive_fixture_fires_all_four_rules() {
    let dir = scratch_with("determinism_positive.rs", "det-pos");
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success(), "positive fixture must fail");
    let text = stdout(&out);
    for rule in [
        "wall-clock",
        "unseeded-rng",
        "unordered-container",
        "nan-unsafe-sort",
    ] {
        assert!(text.contains(&format!("error[{rule}]")), "{rule}\n{text}");
    }
    // The NaN-unsafe comparator's `.unwrap()` is a panic path as well.
    assert!(
        text.contains("error[ratchet]: panic-path/fixture: 1 finding(s), baseline allows 0"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn determinism_allowed_and_clean_fixtures_pass() {
    for name in ["determinism_allowed.rs", "determinism_clean.rs"] {
        let dir = scratch_with(name, name.trim_end_matches(".rs"));
        let out = run_analyze(&dir, &[]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name} must pass:\n{text}");
        if name == "determinism_allowed.rs" {
            // Suppressed hits are counted, per rule, in the `allowed` column.
            for rule in ["wall-clock", "unordered-container"] {
                let row = text.lines().find(|l| l.trim_start().starts_with(rule));
                let cols: Vec<&str> = row.unwrap_or_default().split_whitespace().collect();
                assert_eq!(cols[1..], ["0", "-", "1", "deny"], "{rule}\n{text}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn malformed_marker_fails() {
    let dir = std::env::temp_dir().join(format!("sann-analyze-{}-marker", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("bad_marker.rs"),
        "// sann-lint: allow(wall-clock)\nfn f() { let t = std::time::Instant::now(); }\n",
    )
    .unwrap();
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
fn panic_path_fixture_is_a_ratchet_regression() {
    let dir = scratch_with("panic_positive.rs", "panic-pos");
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success(), "fresh panic paths must regress");
    let text = stdout(&out);
    assert!(text.contains("error[ratchet]: panic-path/"), "{text}");
    // unwrap, expect, panic!, unreachable!, todo! — all five sites.
    assert!(text.contains("5 finding(s), baseline allows 0"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panic_path_allowed_and_clean_fixtures_pass() {
    let dir = scratch_with("panic_allowed.rs", "panic_allowed");
    let out = run_analyze(&dir, &[]);
    assert!(
        out.status.success(),
        "panic_allowed.rs must pass:\n{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
    // The clean fixture's array-typed `four_at_once` is hot, so the
    // indexing check runs over its body too.
    let dir = hot_scratch("panic_clean.rs", "panic_clean", "four_at_once");
    let out = run_analyze(&dir, &[]);
    assert!(
        out.status.success(),
        "panic_clean.rs must pass:\n{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cast_fixtures_fire_suppress_and_pass() {
    let dir = scratch_with("cast_positive.rs", "cast-pos");
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success());
    assert!(
        stdout(&out).contains("error[ratchet]: cast-truncation/fixture: 3 finding(s)"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
    for name in ["cast_allowed.rs", "cast_clean.rs"] {
        let dir = scratch_with(name, name.trim_end_matches(".rs"));
        let out = run_analyze(&dir, &[]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name} must pass:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hot_loop_fixture_fires_both_rules_via_the_manifest() {
    let dir = hot_scratch("hot_positive.rs", "hot-pos", "kernel");
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success());
    let text = stdout(&out);
    // Only the hot kernel's sites count (to_vec, vec!; partial_cmp): the
    // identical allocation in the cold function must NOT be flagged.
    assert!(
        text.contains("error[ratchet]: hot-alloc/fixture: 2 finding(s)"),
        "{text}"
    );
    assert!(
        text.contains("error[ratchet]: hot-float/fixture: 1 finding(s)"),
        "{text}"
    );
    assert!(!text.contains("cold"), "cold fn was flagged:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_loop_allowed_and_clean_fixtures_pass() {
    for (name, hot_fn) in [
        ("hot_allowed.rs", "kernel_with_setup"),
        ("hot_clean.rs", "kernel"),
    ] {
        let dir = hot_scratch(name, name.trim_end_matches(".rs"), hot_fn);
        let out = run_analyze(&dir, &[]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name} must pass:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hot_loop_manifest_marks_only_the_functions_it_lists() {
    let dir = scratch_with("hot_clean.rs", "hot-manifest");
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
        text.contains("error[ratchet]: hot-alloc/fixture: 1 finding(s)"),
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
    let dir = scratch_with("hot_clean.rs", "hot-stale");
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

/// Builds a synthetic workspace where `ssdsim` (a bottom layer) imports
/// `sann_engine` (an upper layer) — the inverted-dependency fixture.
#[test]
fn layering_fails_on_an_inverted_dependency() {
    let root = std::env::temp_dir().join(format!("sann-analyze-{}-layering", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let src = root.join("crates").join("ssdsim").join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("inverted.rs"),
        "use sann_engine::RunConfig;\n\nfn peek(_c: &RunConfig) {}\n",
    )
    .unwrap();
    let out = run_analyze(&root, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "inverted edge must fail:\n{text}");
    assert!(text.contains("error[layering]"), "{text}");
    assert!(
        text.contains("`ssdsim` must not depend on `engine`"),
        "{text}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The same import in the crate's tests tree is not a violation: only
/// datagen gets the dev-dependency exemption, and only outside `src/`.
#[test]
fn layering_allows_datagen_in_test_trees_only() {
    let root = std::env::temp_dir().join(format!("sann-analyze-{}-devdep", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let krate = root.join("crates").join("quant");
    std::fs::create_dir_all(krate.join("src")).unwrap();
    std::fs::create_dir_all(krate.join("tests")).unwrap();
    let import = "use sann_datagen::EmbeddingModel;\n";
    std::fs::write(krate.join("src").join("bad.rs"), import).unwrap();
    std::fs::write(krate.join("tests").join("ok.rs"), import).unwrap();
    let out = run_analyze(&root, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(text.contains("src/bad.rs"), "{text}");
    assert!(!text.contains("tests/ok.rs"), "{text}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn text_report_is_byte_stable() {
    let dir = scratch_with("determinism_positive.rs", "stable");
    for name in [
        "determinism_allowed.rs",
        "panic_positive.rs",
        "cast_positive.rs",
    ] {
        std::fs::copy(fixtures_dir().join(name), dir.join(name)).unwrap();
    }
    let a = run_analyze(&dir, &[]);
    let b = run_analyze(&dir, &[]);
    assert_eq!(a.stdout, b.stdout, "the report must be byte-stable");
    assert!(stdout(&a).contains("analyze: FAIL"), "{}", stdout(&a));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_baseline_ratchets_and_gates_regressions() {
    let dir = scratch_with("panic_positive.rs", "ratchet");
    let baseline = dir.join("analyze-baseline.toml");
    // Fresh findings with no baseline: fail.
    let out = run_analyze(&dir, &[]);
    assert!(!out.status.success());
    // Record the baseline at the root; the same tree now passes.
    let out = run_analyze(&dir, &["--update-baseline"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let recorded = std::fs::read_to_string(&baseline).unwrap();
    assert!(
        recorded.contains("[panic-path]\nfixture = 5\n"),
        "{recorded}"
    );
    let out = run_analyze(&dir, &[]);
    assert!(
        out.status.success(),
        "baselined tree must pass:\n{}",
        stdout(&out)
    );
    // One new unwrap: regression against the recorded baseline.
    std::fs::write(
        dir.join("new_code.rs"),
        "fn fresh(v: &[u32]) -> u32 { *v.first().unwrap() }\n",
    )
    .unwrap();
    let out = run_analyze(&dir, &[]);
    let text = stdout(&out);
    assert!(!out.status.success(), "regression must fail:\n{text}");
    assert!(text.contains("error[ratchet]"), "{text}");
    assert!(text.contains("new_code.rs"), "{text}");
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
        "workspace must pass analyze against the committed baseline:\n{text}"
    );
    assert!(text.contains("analyze: PASS"), "{text}");
    // Zero regressions also means zero unaudited allows: every allowed
    // finding carried a parseable reason, or it would be a marker error.
    assert!(!text.contains("error["), "{text}");
}

#[test]
fn workspace_determinism_exceptions_are_confined_to_the_bench_harness() {
    let analysis = sann_xtask::analyze::run(&workspace_root()).unwrap();
    assert!(
        analysis.ok(),
        "workspace must pass analyze:\n{}",
        analysis.render_text()
    );
    assert!(
        analysis.files > 50,
        "expected the whole workspace, got {} files",
        analysis.files
    );
    let determinism_markers = |krate: &str| {
        analysis
            .allowed
            .iter()
            .filter(|f| f.krate == krate)
            .filter(|f| {
                [
                    "wall-clock",
                    "unseeded-rng",
                    "unordered-container",
                    "nan-unsafe-sort",
                ]
                .contains(&f.rule)
            })
            .count()
    };
    // The simulation-core crates carry no exceptions at all.
    for strict in [
        "ssdsim", "index", "core", "engine", "vdb", "quant", "datagen",
    ] {
        assert_eq!(
            determinism_markers(strict),
            0,
            "crate {strict} must not need determinism allow-markers"
        );
    }
    // The bench harness carries the documented wall-clock exceptions.
    assert!(determinism_markers("bench") >= 4);
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
