#!/usr/bin/env bash
# The full local gate: formatting, clippy (warnings are errors), docs, the
# test suite, the quickstart example, the benchmark package's tests, the
# observability overhead gate and `vdbbench all` against its golden. CI runs
# exactly this.
# Each step prints its wall time when it ends, and a passing run ends with
# a table of every step's seconds, so a slower gate says which step grew.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
timings=()
current=""
started=0
# Ends the running step, printing and recording its elapsed seconds.
end_step() {
    if [ -n "$current" ]; then
        local secs=$((SECONDS - started))
        echo "    ${secs}s"
        timings+=("$(printf '%-60s %5d' "$current" "$secs")")
    fi
}
# Ends the running step and starts the next one, named "$1".
step() {
    end_step
    current="$1"
    started=$SECONDS
    echo "==> $1"
}

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings)"
# Includes the determinism bans: clippy.toml's disallowed-types (the wall
# clock, hash containers, RandomState), denied here in every target; the
# workspace lint table's lossy-cast and panic denials (tests may unwrap,
# expect and panic; lib crates allow casts in their unit tests only); and
# the hot-path bans: functions marked with
# #[deny(clippy::disallowed_methods, clippy::disallowed_macros)] and
# #[deny(clippy::indexing_slicing)] may not allocate, index, or call
# partial_cmp.
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (deny warnings)"
# A broken intra-doc link, e.g. to an item since deleted, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

step "cargo test"
# Includes every golden: the trace exporter and fault histograms
# (sann-engine) and vdbbench all / iostat / explore (sann-bench);
# crates/bench/tests/determinism.rs: trace validation of every setup, and
# a tiny sweep's metrics, traces, reports and CSVs byte-diffed across
# worker counts, a flaky fault profile and cold and warm artifact-cache
# passes; and crates/bench/tests/workspace.rs: the manifest layering DAG,
# every member's `[lints] workspace = true`, clippy probes of the lint
# table and clippy.toml, and where a lint may be allowed.
# Cargo's own `Running` / `Doc-tests` lines name each test binary and
# libtest's summary ends `finished in <s>s`; pairing the two gives a table
# of the binaries, slowest first. Every test still runs.
cargo test --workspace -- --quiet 2>&1 | tee "$tmp/cargo-test.log"
echo "    test binary wall times (s), slowest first:"
awk '
    /^ +Running / { bin = $NF; sub(/^.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin); name = bin " " $(NF - 1) }
    /^ +Doc-tests / { name = $2 " doc-tests" }
    /^test result: .* finished in / { secs = $NF; sub(/s$/, "", secs); printf "    %8.2f  %5d tests  %s\n", secs, $4, name }
' "$tmp/cargo-test.log" | sort -rn

step "quickstart example"
# cargo test only compiles the examples; this runs quickstart's asserts.
cargo run -q --release --example quickstart

step "benchmark/ against the crates it measures"
# benchmark/ is a package of its own, outside the workspace, so nothing
# above compiles it: a deleted public item it uses would pass the gate.
# --locked fails instead of rewriting its tracked Cargo.lock.
cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml

step "observability overhead gate (BENCH_obs.json)"
# Asserts provenance tagging costs < 2% over the untagged hot loop, reports
# the `query` and `io` trace levels, and archives the measured numbers at
# the workspace root.
cargo bench -q -p sann-bench --bench obs_overhead

step "vdbbench all, cold then warm, against the golden"
# The real binary at the golden's tiny fixed scale: every subcommand, cold
# (building and caching all prep) and then warm (replaying it), must print
# and write exactly crates/bench/tests/golden/all/, and the warm run must
# find every artifact in the cache. The cold pass fans prep and replays out
# over 4 workers and the warm pass runs on 1, so the same diff also proves
# the output does not depend on the thread count.
cargo build -q --release -p sann-bench
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

end_step

echo "==> step wall times (s)"
printf '%s\n' "${timings[@]}"
echo "All checks passed."
