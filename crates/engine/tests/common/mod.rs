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
    sann_core::check::golden(&path, actual);
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
