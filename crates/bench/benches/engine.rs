//! Execution-engine microbenchmarks: events per second of host time (the
//! DESIGN.md §4 ablation for the trace-replay design) and end-to-end
//! simulated-run cost at low and high concurrency. Every row also reports
//! its cost per dispatched event.

#![allow(
    clippy::cast_precision_loss,
    reason = "reported rates divide small event and query counts"
)]

use sann_bench::microbench::{black_box, criterion_group, criterion_main, BenchStats, Criterion};
use sann_engine::{Executor, FaultConfig, FaultProfile, QueryPlan, RunConfig, Segment};
use sann_index::IoReq;
use sann_obs::TraceLevel;
use sann_vdb::DbProfile;

/// Benchmarks one replay of `plan` under `config` as `engine/<name>` and
/// prints its host time per dispatched event: every event pushed is handled
/// once, and the run's registry counts the pushes by kind.
fn bench_replay(c: &mut Criterion, name: &str, config: RunConfig, plan: &QueryPlan) -> BenchStats {
    let run = Executor::new(config).run_traced(std::slice::from_ref(plan), TraceLevel::Off);
    let events: u64 = run
        .registry
        .counters()
        .filter(|(counter, _)| counter.starts_with("engine.events.pushed."))
        .map(|(_, n)| n)
        .sum();
    let mut group = c.benchmark_group("engine");
    let stats = group.bench_function(name, |b| {
        b.iter(|| black_box(Executor::new(config).run(std::slice::from_ref(plan))))
    });
    group.finish();
    println!(
        "{:<40} {:>12.1} ns per dispatched event (min {:.1}, {events} events per run)",
        format!("engine/{name}"),
        stats.mean_ns / events as f64,
        stats.min_ns / events as f64
    );
    stats
}

fn diskann_like_plan() -> QueryPlan {
    let mut segs = Vec::new();
    segs.push(Segment::delay(400.0));
    for hop in 0..10u64 {
        segs.push(Segment::cpu_parallel(120.0, 4));
        segs.push(Segment::io(vec![
            IoReq::new(hop * 16384, 4096),
            IoReq::new(hop * 16384 + 4096, 4096),
            IoReq::new(hop * 16384 + 8192, 4096),
            IoReq::new(hop * 16384 + 12288, 4096),
        ]));
    }
    QueryPlan::new(segs)
}

fn bench_runs(c: &mut Criterion) {
    let plan = diskann_like_plan();
    for conc in [1usize, 256] {
        let config = RunConfig {
            cores: 20,
            concurrency: conc,
            duration_us: 0.2e6,
            ..RunConfig::default()
        };
        bench_replay(c, &format!("run_0.2s_conc{conc}"), config, &plan);
    }
}

fn bench_storage_heavy(c: &mut Criterion) {
    // Almost no CPU and 8-read beams over 128 distinct pages: the run's cost
    // is the per-I/O path (cache probe, tracer fold, device schedule, event
    // push/pop), so it is reported per simulated device read.
    let segs = (0..16u64)
        .flat_map(|hop| {
            let beam = (0..8).map(|i| IoReq::new((hop * 8 + i) * 4096, 4096));
            [Segment::cpu(5.0), Segment::io(beam.collect())]
        })
        .collect();
    let plan = QueryPlan::new(segs);
    // The same replay under both fault policies the executor's one read
    // lifecycle serves: the healthy device (the degenerate policy) and a
    // flaky one with Milvus' retry/hedge settings.
    let rows = [
        ("run_1s_conc16_storage", FaultConfig::default()),
        (
            "run_1s_conc16_storage_flaky",
            DbProfile::milvus().fault_config(FaultProfile::flaky()),
        ),
    ];
    for (name, faults) in rows {
        let config = RunConfig {
            cores: 20,
            concurrency: 16,
            duration_us: 1e6,
            faults,
            ..RunConfig::default()
        };
        let reads = Executor::new(config)
            .run(std::slice::from_ref(&plan))
            .io_stats
            .reads;
        let stats = bench_replay(c, name, config, &plan);
        println!(
            "{:<40} {:>12.1} ns per simulated I/O (min {:.1}, {reads} reads per run)",
            format!("engine/{name}"),
            stats.mean_ns / reads as f64,
            stats.min_ns / reads as f64
        );
    }
}

fn bench_cpu_only_throughput(c: &mut Criterion) {
    // Pure-CPU plan: measures raw event-loop throughput without the device.
    let plan = QueryPlan::new(vec![Segment::cpu(50.0)]);
    let config = RunConfig {
        cores: 8,
        concurrency: 64,
        duration_us: 0.2e6,
        ..RunConfig::default()
    };
    bench_replay(c, "run_cpu_only_0.2s_conc64", config, &plan);
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_runs, bench_storage_heavy, bench_cpu_only_throughput
);
criterion_main!(benches);
