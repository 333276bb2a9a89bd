//! End-to-end tests of `sann-xtask analyze`: every rule family fires on its
//! positive fixture, markers suppress with a reason, the ratcheted baseline
//! gates regressions, layering fails on an inverted dependency, SARIF is
//! byte-stable, and the real workspace passes against the committed
//! baseline.

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
    let out = run_analyze(&dir, &["--rules", "determinism"]);
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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn determinism_allowed_and_clean_fixtures_pass() {
    for name in ["determinism_allowed.rs", "determinism_clean.rs"] {
        let dir = scratch_with(name, name.trim_end_matches(".rs"));
        let out = run_analyze(&dir, &["--rules", "determinism"]);
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
    let out = run_analyze(&dir, &["--rules", "determinism"]);
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
    let out = run_analyze(&dir, &["--rules", "panic-path"]);
    assert!(!out.status.success(), "fresh panic paths must regress");
    let text = stdout(&out);
    assert!(text.contains("error[ratchet]: panic-path/"), "{text}");
    // unwrap, expect, panic!, unreachable!, todo! — all five sites.
    assert!(text.contains("5 finding(s), baseline allows 0"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panic_path_allowed_and_clean_fixtures_pass() {
    for name in ["panic_allowed.rs", "panic_clean.rs"] {
        let dir = scratch_with(name, name.trim_end_matches(".rs"));
        let out = run_analyze(&dir, &["--rules", "panic-path"]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name} must pass:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cast_fixtures_fire_suppress_and_pass() {
    let dir = scratch_with("cast_positive.rs", "cast-pos");
    let out = run_analyze(&dir, &["--rules", "cast-safety"]);
    assert!(!out.status.success());
    assert!(
        stdout(&out).contains("error[ratchet]: cast-truncation/"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
    for name in ["cast_allowed.rs", "cast_clean.rs"] {
        let dir = scratch_with(name, name.trim_end_matches(".rs"));
        let out = run_analyze(&dir, &["--rules", "cast-safety"]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name} must pass:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hot_loop_fixture_fires_both_rules_via_the_attribute() {
    let dir = scratch_with("hot_positive.rs", "hot-pos");
    let out = run_analyze(&dir, &["--rules", "hot-loop"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("error[ratchet]: hot-alloc/"), "{text}");
    assert!(text.contains("error[ratchet]: hot-float/"), "{text}");
    // The identical allocation in the cold function must NOT be flagged:
    // only the hot kernel's sites (to_vec, vec!) count.
    assert!(!text.contains("cold"), "cold fn was flagged:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_loop_allowed_and_clean_fixtures_pass() {
    for name in ["hot_allowed.rs", "hot_clean.rs"] {
        let dir = scratch_with(name, name.trim_end_matches(".rs"));
        let out = run_analyze(&dir, &["--rules", "hot-loop"]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name} must pass:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hot_loop_manifest_marks_functions_without_the_attribute() {
    let dir = scratch_with("hot_clean.rs", "hot-manifest");
    // A second file with a manifest-listed (not attributed) allocating fn.
    std::fs::write(
        dir.join("listed.rs"),
        "fn listed_kernel(xs: &[f32]) -> Vec<f32> { xs.to_vec() }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("hotpaths.toml"),
        "[hot]\n\"listed.rs\" = \"listed_kernel\"\n",
    )
    .unwrap();
    let manifest = dir.join("hotpaths.toml");
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&dir)
        .args(["--rules", "hot-loop", "--hotpaths"])
        .arg(&manifest)
        .output()
        .unwrap();
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(text.contains("hot-alloc"), "{text}");
    assert!(text.contains("listed.rs"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest entry naming a file that is gone, or a function its file no
/// longer defines, fails the run instead of silently dropping the function
/// from the hot-path rules.
#[test]
fn hot_loop_manifest_rejects_stale_entries() {
    let dir = scratch_with("hot_clean.rs", "hot-stale");
    std::fs::write(dir.join("kernel.rs"), "fn kernel(x: f32) -> f32 { x }\n").unwrap();
    let manifest = dir.join("hotpaths.toml");
    for (entry, complaint) in [
        ("\"kernel.rs\" = \"kernel\"", None),
        ("\"gone.rs\" = \"kernel\"", Some("gone.rs")),
        (
            "\"kernel.rs\" = \"kernel, renamed\"",
            Some("defines no fn `renamed`"),
        ),
    ] {
        std::fs::write(&manifest, format!("[hot]\n{entry}\n")).unwrap();
        let out = xtask()
            .args(["analyze", "--root"])
            .arg(&dir)
            .args(["--rules", "hot-loop", "--hotpaths"])
            .arg(&manifest)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.success(),
            complaint.is_none(),
            "{entry}: {stderr}"
        );
        if let Some(complaint) = complaint {
            assert!(stderr.contains("stale entry"), "{entry}: {stderr}");
            assert!(stderr.contains(complaint), "{entry}: {stderr}");
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
    let out = run_analyze(&root, &["--rules", "layering"]);
    let text = stdout(&out);
    assert!(!out.status.success(), "inverted edge must fail:\n{text}");
    assert!(text.contains("error[layering]"), "{text}");
    assert!(
        text.contains("`ssdsim` must not depend on `engine`"),
        "{text}"
    );
    // The same import in the crate's tests tree is still a violation —
    // only datagen gets the dev-dependency exemption.
    std::fs::remove_dir_all(&root).ok();
}

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
    let out = run_analyze(&root, &["--rules", "layering"]);
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(text.contains("src/bad.rs"), "{text}");
    assert!(!text.contains("tests/ok.rs"), "{text}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sarif_export_is_byte_stable_and_carries_suppressions() {
    let dir = scratch_with("determinism_positive.rs", "sarif");
    std::fs::copy(
        fixtures_dir().join("determinism_allowed.rs"),
        dir.join("determinism_allowed.rs"),
    )
    .unwrap();
    let a = run_analyze(&dir, &["--format", "sarif"]);
    let b = run_analyze(&dir, &["--format", "sarif"]);
    assert_eq!(a.stdout, b.stdout, "SARIF must be byte-stable");
    let text = stdout(&a);
    assert!(text.contains("\"version\":\"2.1.0\""), "{text}");
    assert!(text.contains("\"suppressions\""), "{text}");
    assert!(
        text.contains("progress display only, not simulated time"),
        "suppression must carry the marker reason:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_baseline_ratchets_and_gates_regressions() {
    let dir = scratch_with("panic_positive.rs", "ratchet");
    let baseline = dir.join("baseline.toml");
    // Fresh findings with no baseline: fail.
    let out = run_analyze(&dir, &["--rules", "panic-path", "--baseline"]);
    drop(out); // missing value for --baseline is a usage error
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&dir)
        .args(["--rules", "panic-path", "--baseline"])
        .arg(&baseline)
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Record the baseline; the same tree now passes.
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&dir)
        .args(["--rules", "panic-path", "--update-baseline", "--baseline"])
        .arg(&baseline)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stdout(&out));
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&dir)
        .args(["--rules", "panic-path", "--baseline"])
        .arg(&baseline)
        .output()
        .unwrap();
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
    let out = xtask()
        .args(["analyze", "--root"])
        .arg(&dir)
        .args(["--rules", "panic-path", "--baseline"])
        .arg(&baseline)
        .output()
        .unwrap();
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
    let mut opts = sann_xtask::analyze::Options::new(workspace_root());
    opts.families = vec![sann_xtask::rules::Family::Determinism];
    let analysis = sann_xtask::analyze::run(&opts).unwrap();
    assert!(
        analysis.ok(),
        "workspace must pass the determinism rules:\n{}",
        analysis.render_text()
    );
    assert!(
        analysis.files > 50,
        "expected the whole workspace, got {} files",
        analysis.files
    );
    // The simulation-core crates carry no exceptions at all.
    for strict in [
        "ssdsim", "index", "core", "engine", "vdb", "quant", "datagen",
    ] {
        assert_eq!(
            analysis.markers_in_crate(strict),
            0,
            "crate {strict} must not need determinism allow-markers"
        );
    }
    // The bench harness carries the documented wall-clock exceptions.
    assert!(analysis.markers_in_crate("bench") >= 4);
}

#[test]
fn usage_errors_exit_nonzero() {
    for args in [
        &[][..],
        &["lint"][..],
        &["determinism", "--bogus"][..],
        &["analyze", "--rules", "bogus-family"][..],
        &["analyze", "--format", "yaml"][..],
        &["analyze", "--baseline"][..],
        &["bogus-subcommand"][..],
    ] {
        let out = xtask().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
    }
}
