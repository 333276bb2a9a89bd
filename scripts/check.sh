#!/usr/bin/env bash
# The full local gate: formatting, clippy (warnings are errors), the
# workspace analyzer, and the test suite. CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sann-xtask analyze (determinism, layering, panic-path, cast-safety, hot-loop; ratcheted)"
# Fails on any deny-rule violation, any ratchet regression against
# analyze-baseline.toml, and any unaudited (reason-less) allow marker.
cargo run -q -p sann-xtask -- analyze

echo "==> sann-xtask analyze SARIF byte-stability"
sarif_tmp="$(mktemp -d)"
cargo run -q -p sann-xtask -- analyze --format sarif >"$sarif_tmp/a.sarif" || true
cargo run -q -p sann-xtask -- analyze --format sarif >"$sarif_tmp/b.sarif" || true
diff "$sarif_tmp/a.sarif" "$sarif_tmp/b.sarif"
rm -rf "$sarif_tmp"

echo "==> cargo test"
cargo test -q --workspace

echo "==> trace exporter golden files"
cargo test -q -p sann-engine --test trace_golden

echo "==> fault-injection histogram golden files"
cargo test -q -p sann-engine --test fault_golden

echo "==> observability overhead gate (BENCH_obs.json)"
# Asserts span tracing at level `run` and provenance tagging each cost
# < 2% over the untraced/untagged hot loop, and archives the measured
# numbers at the workspace root.
cargo bench -q -p sann-bench --bench obs_overhead

echo "==> vdbbench cold/warm artifact-cache invariance"
cargo build -q --release -p sann-bench
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="target/release/vdbbench"
"$bin" --cache-dir "$tmp/cache" --results "$tmp/cold" table2 >"$tmp/cold.out" 2>"$tmp/cold.err"
"$bin" --cache-dir "$tmp/cache" --results "$tmp/warm" table2 >"$tmp/warm.out" 2>"$tmp/warm.err"
diff -r "$tmp/cold" "$tmp/warm"
diff "$tmp/cold.out" "$tmp/warm.out"
if grep -E '^\[prep\]' "$tmp/warm.err"; then
    echo "FAIL: warm table2 run still did prep work (lines above)"
    exit 1
fi
echo "warm table2 replayed from cache: identical CSVs, zero [prep] lines"

echo "==> vdbbench iostat double-run byte-stability"
# The I/O characterization report — provenance breakdown, telemetry
# timelines, and the $/query ledger under healthy + aging devices — must
# be byte-identical across runs, stdout and every CSV alike.
"$bin" --cache-dir "$tmp/cache" --results "$tmp/iostat-a" --scale 0.001 --dataset cohere-s --duration-secs 0.2 iostat --clients 4 >"$tmp/iostat-a.out" 2>/dev/null
"$bin" --cache-dir "$tmp/cache" --results "$tmp/iostat-b" --scale 0.001 --dataset cohere-s --duration-secs 0.2 iostat --clients 4 >"$tmp/iostat-b.out" 2>/dev/null
diff -r "$tmp/iostat-a" "$tmp/iostat-b"
diff "$tmp/iostat-a.out" "$tmp/iostat-b.out"
echo "iostat double run: identical report and CSVs"

echo "==> vdbbench explore double-run byte-stability"
# The I/O design-space sweep — eight {layout x prefetch x pipelining}
# strategies at fixed tuned knobs — must replay byte-for-byte: the report
# text and both CSV exports alike.
"$bin" --cache-dir "$tmp/cache" --results "$tmp/explore-a" --scale 0.001 --dataset cohere-s --duration-secs 0.2 explore --clients 4 >"$tmp/explore-a.out" 2>/dev/null
"$bin" --cache-dir "$tmp/cache" --results "$tmp/explore-b" --scale 0.001 --dataset cohere-s --duration-secs 0.2 explore --clients 4 >"$tmp/explore-b.out" 2>/dev/null
diff -r "$tmp/explore-a" "$tmp/explore-b"
diff "$tmp/explore-a.out" "$tmp/explore-b.out"
echo "explore double run: identical report and CSVs"

echo "All checks passed."
