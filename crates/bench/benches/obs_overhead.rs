//! Observability-overhead microbenchmark.
//!
//! `Executor::run` *is* `run_traced(.., Off)`, so the baseline is the
//! instrumented hot loop at `off`. The gate covers the iostat machinery:
//! provenance-tagged plans (what the index layer emits so `vdbbench
//! iostat` can attribute every read) run through the same per-read
//! accounting as untagged ones, so tagging must cost < 2% over the
//! untagged baseline. The span-recording levels `query` and `io` are
//! reported for information — they allocate spans and may cost more; the
//! repo benchmark's `obs.traced_over_untraced.*` tracks traced overhead.
//! The measured numbers are written to `BENCH_obs.json` at the workspace
//! root so `scripts/check.sh` archives them alongside the pass/fail.

#![allow(
    clippy::expect_used,
    reason = "a benchmark that cannot build its fixture or write its report should stop"
)]

use sann_bench::microbench::{black_box, criterion_group, criterion_main, Criterion};
use sann_engine::{Executor, QueryPlan, RunConfig, Segment};
use sann_index::IoReq;
use sann_obs::{IoProvenance, TraceLevel};

fn diskann_like_plan(tagged: bool) -> QueryPlan {
    let req = |offset: u64| {
        if tagged {
            IoReq::tagged(offset, 4096, 3332, IoProvenance::GraphAdjacency)
        } else {
            IoReq::new(offset, 4096)
        }
    };
    let mut segs = Vec::new();
    for hop in 0..10u64 {
        segs.push(Segment::cpu(120.0));
        segs.push(Segment::io(vec![
            req(hop * 16384),
            req(hop * 16384 + 4096),
            req(hop * 16384 + 8192),
            req(hop * 16384 + 12288),
        ]));
    }
    segs.push(Segment::cpu(60.0));
    QueryPlan::new(segs)
}

fn measure(c: &mut Criterion, level: TraceLevel, tagged: bool) -> f64 {
    let plan = diskann_like_plan(tagged);
    let config = RunConfig {
        cores: 20,
        concurrency: 64,
        duration_us: 0.1e6,
        ..RunConfig::default()
    };
    let mut group = c.benchmark_group("obs_overhead");
    let suffix = if tagged { "_tagged" } else { "" };
    let stats = group.bench_function(format!("run_0.1s_conc64_{level}{suffix}"), |b| {
        b.iter(|| black_box(Executor::new(config).run_traced(std::slice::from_ref(&plan), level)))
    });
    group.finish();
    stats.min_ns
}

/// Measures `candidate` against `baseline` with the retry discipline: the
/// min-over-samples estimates are compared, a few times over, so a
/// scheduler hiccup cannot fail the build. Returns the last relative
/// overhead (candidate/baseline − 1).
fn gated_overhead(
    c: &mut Criterion,
    what: &str,
    baseline: impl Fn(&mut Criterion) -> f64,
    candidate: impl Fn(&mut Criterion) -> f64,
) -> f64 {
    let mut last = f64::INFINITY;
    for attempt in 0..3 {
        let base_ns = baseline(c);
        let cand_ns = candidate(c);
        last = cand_ns / base_ns - 1.0;
        println!(
            "obs_overhead: {what}: {:+.2}% (attempt {attempt})",
            last * 100.0
        );
        if last < 0.02 {
            break;
        }
    }
    assert!(
        last < 0.02,
        "{what} must cost < 2% (measured {:+.2}%)",
        last * 100.0
    );
    last
}

fn bench_overhead(c: &mut Criterion) {
    let tagged_overhead = gated_overhead(
        c,
        "provenance-tagged vs untagged (level off)",
        |c| measure(c, TraceLevel::Off, false),
        |c| measure(c, TraceLevel::Off, true),
    );
    // Informational: the span-recording levels.
    let query_ns = measure(c, TraceLevel::Query, false);
    let io_ns = measure(c, TraceLevel::Io, false);
    let json = format!(
        "{{\n  \"tagged_vs_untagged_overhead\": {tagged_overhead:.6},\n  \
         \"query_min_ns\": {query_ns:.0},\n  \"io_min_ns\": {io_ns:.0},\n  \
         \"gate\": 0.02\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("obs_overhead: wrote {}", path.display());
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_overhead
);
criterion_main!(benches);
