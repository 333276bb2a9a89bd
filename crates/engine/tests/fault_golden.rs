//! Golden-file test for the fig. 5/6 block-size histogram under fault
//! injection: the `none` profile must keep the exact fault-free shape,
//! and the pinned `gc-heavy` run must reproduce byte-for-byte so any
//! accidental change to fault scheduling or retry accounting shows up
//! as a golden diff. Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sann-engine --test fault_golden
//! ```

mod common;

use common::{check_golden, render_registry};
use sann_engine::{
    Executor, FaultConfig, FaultProfile, QueryPlan, RetryPolicy, RunConfig, RunMetrics, Segment,
    TracedRun,
};
use sann_index::IoReq;
use sann_obs::TraceLevel;
use std::fmt::Write as _;

/// The pinned scenario: the trace_golden workload (a storage query with a
/// rerank pass plus a cache-friendly read) with mixed request sizes so the
/// histogram has more than one bucket, run long enough for GC windows and
/// retries to fire.
fn golden_run(faults: FaultConfig) -> TracedRun {
    let storage = QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::cpu(5.0),
        Segment::io(vec![IoReq::new(1 << 20, 128 * 1024)]),
        Segment::cpu(10.0),
    ]);
    let cached = QueryPlan::new(vec![
        Segment::cpu(5.0),
        Segment::io(vec![IoReq::new(4096, 4096)]),
    ]);
    let config = RunConfig {
        cores: 2,
        concurrency: 4,
        duration_us: 50_000.0,
        // No page cache: every planned read reaches the device, so the
        // histogram and the fault ledger reflect real device traffic.
        cache_bytes: 0,
        faults,
        ..RunConfig::default()
    };
    Executor::new(config).run_traced(&[storage, cached], TraceLevel::Off)
}

/// The `gc-heavy` policy the goldens pin: default retries and a hedge.
fn gc_heavy() -> FaultConfig {
    FaultConfig {
        profile: FaultProfile::gc_heavy(),
        retry: RetryPolicy::default(),
        hedge_after_us: 400.0,
        ..FaultConfig::default()
    }
}

/// Renders the fig. 5/6-style block-size view plus the fault ledger as a
/// stable text report.
fn render(profile_name: &str, m: &RunMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile: {profile_name}");
    let _ = writeln!(out, "completed: {}", m.completed);
    let _ = writeln!(out, "block-size histogram (size bytes -> requests):");
    for (&size, &count) in &m.io_stats.size_histogram {
        let _ = writeln!(out, "  {size} {count}");
    }
    let _ = writeln!(out, "log2 buckets (floor -> requests):");
    for (floor, count) in m.io_stats.size_log_histogram().nonzero_buckets() {
        let _ = writeln!(out, "  {floor} {count}");
    }
    let _ = writeln!(out, "4KiB fraction: {:.5}", m.io_stats.size_fraction(4096));
    let f = &m.fault;
    let _ = writeln!(
        out,
        "faults: errors={} spikes={} gc_stall_ns={} retries={} exhausted={}",
        f.injected_errors, f.latency_spikes, f.gc_stall_ns, f.retries, f.retry_exhausted
    );
    let _ = writeln!(
        out,
        "ios: planned={} completed={} abandoned={} served={:.5}",
        f.ios_planned,
        f.ios_completed,
        f.ios_abandoned,
        f.served_fraction()
    );
    out
}

#[test]
fn none_profile_histogram_matches_golden() {
    let m = golden_run(FaultConfig::default()).metrics;
    assert!(m.fault.is_clean(), "none profile must leave no fault trace");
    check_golden("fault_hist_none.txt", &render("none", &m));
}

#[test]
fn gc_heavy_histogram_matches_golden() {
    let m = golden_run(gc_heavy()).metrics;
    assert!(m.fault.gc_stall_ns > 0, "gc-heavy must stall some reads");
    check_golden("fault_hist_gc_heavy.txt", &render("gc-heavy", &m));
}

/// Both runs' registries, pinned by value: the `none` run registers no
/// fault counter, the `gc-heavy` run registers the whole ledger.
#[test]
fn registries_match_golden() {
    let mut out = String::new();
    for (name, faults) in [("none", FaultConfig::default()), ("gc-heavy", gc_heavy())] {
        let _ = writeln!(out, "profile: {name}");
        out.push_str(&render_registry(&golden_run(faults).registry));
    }
    check_golden("fault_registry.txt", &out);
}

#[test]
fn fault_profiles_preserve_the_request_size_mix() {
    // Faults perturb *when* requests complete, never *what* is requested:
    // the exact block-size histogram is invariant across profiles.
    let clean = golden_run(FaultConfig::default()).metrics;
    for profile in [FaultProfile::aging(), FaultProfile::gc_heavy()] {
        let faulted = golden_run(FaultConfig {
            profile,
            ..FaultConfig::default()
        })
        .metrics;
        let sizes: Vec<u32> = faulted.io_stats.size_histogram.keys().copied().collect();
        let clean_sizes: Vec<u32> = clean.io_stats.size_histogram.keys().copied().collect();
        assert_eq!(
            sizes, clean_sizes,
            "profile {} changed the set of request sizes",
            profile.name
        );
    }
}
