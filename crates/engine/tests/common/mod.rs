//! Golden-file helpers shared by the engine's golden tests.

use sann_obs::Registry;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Compares `actual` with the committed `tests/golden/<name>`, or rewrites
/// the file when `UPDATE_GOLDEN` is set.
pub fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden file; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Renders a run's registry as stable text: every counter in name order,
/// then the sample count and non-empty buckets of the executor's two
/// histograms.
pub fn render_registry(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let _ = writeln!(out, "{name} {value}");
    }
    for name in ["engine.queue_wait_ns", "engine.beam_width"] {
        let Some(hist) = registry.hist(name) else {
            let _ = writeln!(out, "{name}: none");
            continue;
        };
        let _ = writeln!(out, "{name}: count={}", hist.count());
        for (floor, count) in hist.nonzero_buckets() {
            let _ = writeln!(out, "  {floor} {count}");
        }
    }
    out
}
