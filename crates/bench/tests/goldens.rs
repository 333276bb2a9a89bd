//! Golden-file tests: what `vdbbench` prints and writes, byte for byte.
//!
//! Each test drives the library entry point the binary wraps
//! ([`sann_bench::cli::run`]) at a tiny fixed scale and compares stdout and
//! the CSV exports against committed files under `tests/golden/`. The whole
//! pipeline behind them (dataset generation, index builds, tuning, trace
//! collection, plan compilation, simulation, pricing, table formatting) is
//! deterministic, so any drift is a real behaviour change. `all` pins every
//! table and figure of the paper plus the three extensions; `iostat` and
//! `explore` pin the two characterization reports. Regenerate after an
//! intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sann-bench --test goldens
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "test helpers fail the test on a setup error"
)]

use std::path::{Path, PathBuf};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    sann_core::check::golden(&golden_path(name), actual);
}

/// Runs `vdbbench <tiny fixed scale> <sub...>` uncached; returns its stdout
/// and the results directory it wrote.
fn vdbbench(sub: &[&str]) -> (String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sann-golden-{}-{}", sub[0], std::process::id()));
    let tiny = "--scale 0.001 --dataset cohere-s --duration-secs 0.2 --no-cache --results";
    let args: Vec<String> = tiny
        .split(' ')
        .chain([dir.to_str().unwrap()])
        .chain(sub.iter().copied())
        .map(str::to_owned)
        .collect();
    (sann_bench::cli::run(&args).unwrap(), dir)
}

fn csv_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    names.sort();
    names
}

#[test]
fn all_matches_golden_byte_for_byte() {
    let (stdout, dir) = vdbbench(&["all"]);
    check_golden("all/stdout.txt", &stdout);
    let written = csv_names(&dir);
    for name in &written {
        let body = std::fs::read_to_string(dir.join(name)).unwrap();
        check_golden(&format!("all/{name}"), &body);
    }
    assert_eq!(written, csv_names(&golden_path("all")), "CSV set drifted");
    std::fs::remove_dir_all(&dir).ok();
}

/// A single report: `<name>.txt` holds the report text (stdout minus the
/// newline `println!` appends), next to the listed CSV exports.
fn check_report(name: &str, csvs: &[&str]) {
    let (stdout, dir) = vdbbench(&[name, "--clients", "4"]);
    check_golden(&format!("{name}.txt"), stdout.strip_suffix('\n').unwrap());
    for csv in csvs {
        let body = std::fs::read_to_string(dir.join(csv)).unwrap();
        check_golden(csv, &body);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn iostat_report_matches_golden_byte_for_byte() {
    check_report("iostat", &["iostat_provenance.csv", "iostat_cost.csv"]);
}

#[test]
fn explore_report_matches_golden_byte_for_byte() {
    check_report("explore", &["explore_sweep.csv", "explore_phases.csv"]);
}
