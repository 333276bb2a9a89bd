#!/usr/bin/env bash
# The full local gate: formatting, clippy (warnings are errors), the
# workspace analyzer, and the test suite. CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
# Includes the determinism bans: clippy.toml's disallowed-types (the wall
# clock, hash containers, RandomState), denied here in every target. Also
# the hot-path bans: functions marked with
# #[deny(clippy::disallowed_methods, clippy::disallowed_macros)] and
# #[deny(clippy::indexing_slicing)] may not allocate, index, or call
# partial_cmp.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
# A broken intra-doc link, e.g. to an item since deleted, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> sann-xtask analyze (clippy lint ratchet, manifest layering)"
# One clippy pass over the lib and bin targets (cached in target/analyze)
# counts the lossy-cast and panic lints per package. Fails on any count
# above analyze-baseline.toml, a manifest dependency off the layering DAG,
# or a clippy error such as a hot function's deny.
cargo run -q -p sann-xtask -- analyze

echo "==> sann-xtask determinism (runtime double-run audit)"
# Runs a tiny sweep twice (at 1 and at 2 worker threads), then cold and
# warm artifact-cache replays and a flaky fault-profile replay, and
# byte-diffs every metric, trace, report and CSV; also double-runs the
# analyzer's text report and baseline.
cargo run -q --release -p sann-xtask -- determinism

echo "==> cargo test"
# Includes every golden: the trace exporter and fault histograms
# (sann-engine) and vdbbench all / iostat / explore (sann-bench).
cargo test -q --workspace

echo "==> quickstart example"
# cargo test only compiles the examples; this runs quickstart's asserts.
cargo run -q --release --example quickstart

echo "==> benchmark/ against the crates it measures"
# benchmark/ is a package of its own, outside the workspace, so nothing
# above compiles it: a deleted public item it uses would pass the gate.
# --locked fails instead of rewriting its tracked Cargo.lock.
cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml

echo "==> observability overhead gate (BENCH_obs.json)"
# Asserts provenance tagging costs < 2% over the untagged hot loop, reports
# the `query` and `io` trace levels, and archives the measured numbers at
# the workspace root.
cargo bench -q -p sann-bench --bench obs_overhead

echo "==> vdbbench all, cold then warm, against the golden"
# The real binary at the golden's tiny fixed scale: every subcommand, cold
# (building and caching all prep) and then warm (replaying it), must print
# and write exactly crates/bench/tests/golden/all/, and the warm run must
# find every artifact in the cache. The cold pass fans prep and replays out
# over 4 workers and the warm pass runs on 1, so the same diff also proves
# the output does not depend on the thread count.
cargo build -q --release -p sann-bench
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
golden="crates/bench/tests/golden/all"
for pass in cold:4 warm:1; do
    threads="${pass#*:}"
    pass="${pass%:*}"
    target/release/vdbbench --scale 0.001 --dataset cohere-s --duration-secs 0.2 --threads "$threads" \
        --cache-dir "$tmp/cache" --results "$tmp/$pass" all >"$tmp/$pass.out" 2>"$tmp/$pass.err"
    diff "$tmp/$pass.out" "$golden/stdout.txt"
    diff -r --exclude=stdout.txt "$tmp/$pass" "$golden"
done
if ! grep -q '^\[cache\] [0-9]* hits, 0 misses' "$tmp/warm.err"; then
    echo "FAIL: warm run missed the artifact cache:"
    grep '^\[cache\]' "$tmp/warm.err" || true
    exit 1
fi
echo "all matches the golden cold and warm; warm run: $(grep '^\[cache\]' "$tmp/warm.err")"

echo "All checks passed."
