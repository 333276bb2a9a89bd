//! Engine resilience under injected SSD faults: retry exhaustion,
//! hedged-read accounting, deadline behavior, degraded-result honesty,
//! and byte-level determinism of faulted runs.

use sann_engine::{
    Executor, FaultConfig, FaultProfile, QueryPlan, RetryPolicy, RunConfig, Segment,
};
use sann_index::IoReq;

fn storage_plan() -> QueryPlan {
    QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::cpu(5.0),
        Segment::io(vec![IoReq::new(1 << 20, 4096)]),
        Segment::cpu(10.0),
    ])
}

fn base_config(faults: FaultConfig) -> RunConfig {
    RunConfig {
        cores: 4,
        concurrency: 8,
        duration_us: 0.2e6,
        faults,
        ..RunConfig::default()
    }
}

/// A profile where every read attempt fails: retry exhaustion on every
/// planned read, yet the run completes and degrades honestly.
fn always_failing() -> FaultProfile {
    FaultProfile {
        read_error_prob: 1.0,
        ..FaultProfile::flaky()
    }
}

#[test]
fn retry_exhaustion_yields_partial_results_not_panics() {
    let faults = FaultConfig {
        profile: always_failing(),
        retry: RetryPolicy {
            max_retries: 2,
            backoff_us: 20.0,
            backoff_mult: 2.0,
        },
        ..FaultConfig::default()
    };
    let m = Executor::new(base_config(faults)).run(&[storage_plan()]);
    let f = &m.fault;
    assert!(m.completed > 0, "queries must still complete");
    assert!(f.injected_errors > 0);
    assert!(f.retry_exhausted > 0, "every read exhausts its retries");
    assert_eq!(
        f.ios_completed, 0,
        "no read can succeed at error probability 1"
    );
    assert_eq!(f.ios_planned, f.ios_abandoned);
    // Every query that finished is degraded; `degraded_queries` also
    // counts queries draining after the measurement window closed.
    assert!(
        f.degraded_queries >= m.completed,
        "every completed query is degraded: {} < {}",
        f.degraded_queries,
        m.completed
    );
    assert_eq!(f.served_fraction(), 0.0);
    assert_eq!(f.degraded_recall(1.0), 0.0);
    // Each abandoned read burned 1 primary + max_retries attempts.
    assert_eq!(f.retries, f.ios_abandoned * 2);
}

#[test]
fn hedged_read_cancels_the_loser_exactly_once() {
    // No errors: every hedge produces a two-way race whose loser must be
    // cancelled exactly once — so cancellations equal hedges issued.
    let profile = FaultProfile {
        read_error_prob: 0.0,
        spike_prob: 0.5,
        spike_min_us: 500.0,
        spike_max_us: 3_000.0,
        ..FaultProfile::none()
    };
    let faults = FaultConfig {
        profile,
        hedge_after_us: 100.0,
        ..FaultConfig::default()
    };
    let m = Executor::new(base_config(faults)).run(&[storage_plan()]);
    let f = &m.fault;
    assert!(f.hedges_issued > 0, "spiky profile must trigger hedging");
    assert_eq!(
        f.hedges_cancelled, f.hedges_issued,
        "exactly one loser per hedge race"
    );
    assert_eq!(f.ios_planned, f.ios_completed, "error-free run serves all");
    assert_eq!(f.degraded_queries, 0);
    assert_eq!(f.served_fraction(), 1.0);
}

#[test]
fn deadline_monotonicity_under_flaky() {
    // A longer per-query IO deadline can only allow more reads to be
    // served: served_fraction is non-decreasing along the ladder, and the
    // unlimited run serves everything the retry budget allows.
    let ladder = [200.0, 1_000.0, 5_000.0, 0.0];
    let mut last_served = -1.0f64;
    for &deadline_us in &ladder {
        let faults = FaultConfig {
            profile: FaultProfile::flaky(),
            io_deadline_us: deadline_us,
            ..FaultConfig::default()
        };
        let m = Executor::new(base_config(faults)).run(&[storage_plan()]);
        let f = &m.fault;
        assert_eq!(f.ios_planned, f.ios_completed + f.ios_abandoned);
        let served = f.served_fraction();
        assert!(
            served >= last_served - 0.02,
            "served fraction regressed: {served} after {last_served} at deadline {deadline_us}"
        );
        last_served = served;
        if deadline_us == 0.0 {
            assert_eq!(f.deadline_skips, 0, "no deadline, no deadline skips");
        }
    }
    assert!(
        last_served > 0.9,
        "flaky without deadline serves most reads"
    );
}

#[test]
fn fault_conservation_holds_across_profiles() {
    for profile in [
        FaultProfile::aging(),
        FaultProfile::gc_heavy(),
        FaultProfile::flaky(),
    ] {
        let faults = FaultConfig {
            profile,
            hedge_after_us: 300.0,
            io_deadline_us: 3_000.0,
            ..FaultConfig::default()
        };
        let m = Executor::new(base_config(faults)).run(&[storage_plan()]);
        let f = &m.fault;
        assert_eq!(
            f.ios_planned,
            f.ios_completed + f.ios_abandoned,
            "profile {} leaked reads",
            profile.name
        );
        assert!(f.ios_planned > 0);
    }
}

/// A pipelined variant of [`storage_plan`]: the second beam flies under
/// overlapped CPU work, as `+pipe` strategies compile.
fn pipelined_plan() -> QueryPlan {
    QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::overlapped(15.0, 2, vec![IoReq::new(1 << 20, 4096)]),
        Segment::cpu(10.0),
    ])
}

#[test]
fn overlapped_fault_conservation_holds_across_profiles() {
    for profile in [
        FaultProfile::aging(),
        FaultProfile::gc_heavy(),
        FaultProfile::flaky(),
    ] {
        let faults = FaultConfig {
            profile,
            hedge_after_us: 300.0,
            io_deadline_us: 3_000.0,
            ..FaultConfig::default()
        };
        let m = Executor::new(base_config(faults)).run(&[pipelined_plan()]);
        let f = &m.fault;
        assert_eq!(
            f.ios_planned,
            f.ios_completed + f.ios_abandoned,
            "profile {} leaked overlapped reads",
            profile.name
        );
        assert!(f.ios_planned > 0);
    }
}

#[test]
fn overlapped_deadline_skips_reads_but_queries_complete() {
    // A deadline shorter than any device access: the overlapped segment's
    // reads are abandoned, its CPU still runs, queries still finish, and
    // the read accounting stays conservative.
    let faults = FaultConfig {
        profile: FaultProfile::flaky(),
        io_deadline_us: 1.0,
        ..FaultConfig::default()
    };
    let m = Executor::new(base_config(faults)).run(&[pipelined_plan()]);
    let f = &m.fault;
    assert!(m.completed > 0);
    assert!(f.deadline_skips > 0, "a 1 µs deadline must skip reads");
    assert_eq!(f.ios_planned, f.ios_completed + f.ios_abandoned);
    assert!(f.degraded_queries > 0);
}

#[test]
fn overlapped_faulted_runs_are_byte_deterministic() {
    let faults = FaultConfig {
        profile: FaultProfile::flaky(),
        hedge_after_us: 200.0,
        io_deadline_us: 2_000.0,
        ..FaultConfig::default()
    };
    let config = base_config(faults);
    let a = Executor::new(config).run(&[pipelined_plan()]);
    let b = Executor::new(config).run(&[pipelined_plan()]);
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
}

#[test]
fn faulted_runs_are_byte_deterministic() {
    let faults = FaultConfig {
        profile: FaultProfile::flaky(),
        hedge_after_us: 200.0,
        io_deadline_us: 2_000.0,
        ..FaultConfig::default()
    };
    let config = base_config(faults);
    let a = Executor::new(config).run(&[storage_plan()]);
    let b = Executor::new(config).run(&[storage_plan()]);
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    // A different fault seed gives a different (but still valid) run.
    let reseeded = RunConfig {
        faults: FaultConfig { seed: 1, ..faults },
        ..config
    };
    let c = Executor::new(reseeded).run(&[storage_plan()]);
    assert_ne!(a.canonical_bytes(), c.canonical_bytes());
}

#[test]
fn none_profile_is_byte_identical_regardless_of_policy() {
    use sann_obs::export::{chrome_trace, jsonl};
    use sann_obs::TraceLevel;
    // Aggressive retry/hedge/deadline settings are inert without an
    // active profile: a healthy device is the degenerate policy of the one
    // read lifecycle, so no hedge timer, deadline skip or fault counter may
    // show — in the metrics, the registry or the exported I/O-level trace.
    // The plan takes every route through that lifecycle: a blocking beam,
    // an overlapped one, a write batch, and (the second beam re-reads the
    // first one's pages) page-cache hits.
    let plan = QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::overlapped(15.0, 2, vec![IoReq::new(1 << 20, 4096)]),
        Segment::write(vec![IoReq::new(1 << 30, 4096)]),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::cpu(10.0),
    ]);
    let config = RunConfig {
        cache_bytes: 1 << 20,
        ..base_config(FaultConfig::default())
    };
    let aggressive = RunConfig {
        faults: FaultConfig {
            profile: FaultProfile::none(),
            seed: 99,
            retry: RetryPolicy {
                max_retries: 10,
                backoff_us: 1.0,
                backoff_mult: 1.0,
            },
            io_deadline_us: 100.0,
            hedge_after_us: 10.0,
        },
        ..config
    };
    let plain = Executor::new(config).run_traced(std::slice::from_ref(&plan), TraceLevel::Io);
    let inert = Executor::new(aggressive).run_traced(&[plan], TraceLevel::Io);
    assert!(plain.metrics.io_stats.writes > 0, "the plan must write");
    assert!(
        plain.registry.counter("engine.reads_cache_hit") > 0,
        "the plan must hit the page cache"
    );
    assert_eq!(
        plain.metrics.canonical_bytes(),
        inert.metrics.canonical_bytes()
    );
    assert_eq!(
        plain.registry.canonical_bytes(),
        inert.registry.canonical_bytes()
    );
    assert_eq!(chrome_trace(&plain.trace), chrome_trace(&inert.trace));
    assert_eq!(jsonl(&plain.trace), jsonl(&inert.trace));
    assert!(plain.metrics.fault.is_clean());
    assert_eq!(plain.registry.counter("engine.ios_planned"), 0);
}

/// A beam wider than a 16-bit request index: every completion must still
/// find its own read, under both policies, or the query never finishes.
#[test]
fn beam_wider_than_u16_drains_under_both_policies() {
    const BEAM: u64 = 70_000;
    let plan = QueryPlan::new(vec![Segment::io(
        (0..BEAM).map(|i| IoReq::new(i * 4096, 4096)).collect(),
    )]);
    for profile in [FaultProfile::none(), FaultProfile::flaky()] {
        let config = RunConfig {
            cores: 2,
            concurrency: 1,
            duration_us: 0.05e6,
            faults: FaultConfig {
                profile,
                ..FaultConfig::default()
            },
            ..RunConfig::default()
        };
        // `run` audits I/O and read conservation once the events drain.
        let m = Executor::new(config).run(std::slice::from_ref(&plan));
        assert!(
            m.io_stats.reads >= BEAM,
            "{}: every read of the beam reaches the device",
            profile.name
        );
        let f = &m.fault;
        assert_eq!(f.ios_planned, f.ios_completed + f.ios_abandoned);
        assert_eq!(f.ios_planned > 0, profile.active());
    }
}

#[test]
#[should_panic(expected = "max_retries must be at most 250")]
fn retry_budget_beyond_the_attempt_ordinal_is_rejected() {
    let faults = FaultConfig {
        retry: RetryPolicy {
            max_retries: 300,
            ..RetryPolicy::default()
        },
        ..FaultConfig::default()
    };
    Executor::new(base_config(faults));
}

#[test]
fn largest_retry_budget_exhausts_without_overflow() {
    // Every attempt fails and every read is hedged once, so each read
    // numbers 1 primary + 250 retries + 1 hedge attempts — the most the
    // attempt ordinal has to hold — before it is abandoned.
    let faults = FaultConfig {
        profile: always_failing(),
        retry: RetryPolicy {
            max_retries: 250,
            backoff_us: 1.0,
            backoff_mult: 1.0,
        },
        hedge_after_us: 10.0,
        ..FaultConfig::default()
    };
    let m = Executor::new(base_config(faults)).run(&[storage_plan()]);
    let f = &m.fault;
    assert!(f.retry_exhausted > 0);
    assert_eq!(f.ios_planned, f.ios_abandoned);
    assert_eq!(f.retry_exhausted, f.ios_abandoned);
    assert_eq!(f.retries, f.ios_abandoned * 250);
    assert_eq!(f.hedges_issued, f.ios_abandoned);
}

#[test]
fn faulted_trace_validates_and_tags_attempts() {
    use sann_obs::{IoOutcome, TraceLevel};
    let faults = FaultConfig {
        profile: always_failing(),
        retry: RetryPolicy {
            max_retries: 1,
            backoff_us: 20.0,
            backoff_mult: 2.0,
        },
        hedge_after_us: 100.0,
        ..FaultConfig::default()
    };
    let run = Executor::new(base_config(faults)).run_traced(&[storage_plan()], TraceLevel::Io);
    run.trace.validate().expect("faulted trace must still nest");
    assert!(
        run.trace.io.iter().any(|io| io.outcome == IoOutcome::Error),
        "error attempts must be tagged in the trace"
    );
    assert!(
        run.trace.io.iter().any(|io| io.attempt > 0),
        "retry attempts must carry their ordinal"
    );
    assert_eq!(
        run.registry.counter("engine.retry_exhausted"),
        run.metrics.fault.retry_exhausted,
        "registry counters mirror FaultStats"
    );
}

#[test]
fn gc_heavy_inflates_tail_latency() {
    let clean = base_config(FaultConfig::default());
    let gc = base_config(FaultConfig {
        profile: FaultProfile::gc_heavy(),
        ..FaultConfig::default()
    });
    let m_clean = Executor::new(clean).run(&[storage_plan()]);
    let m_gc = Executor::new(gc).run(&[storage_plan()]);
    assert!(
        m_gc.p99_latency_us > m_clean.p99_latency_us,
        "GC pauses must show up in the tail: {} vs {}",
        m_gc.p99_latency_us,
        m_clean.p99_latency_us
    );
    assert!(m_gc.fault.gc_stall_ns > 0);
    assert!(m_gc.qps < m_clean.qps);
}

#[test]
fn deadline_zero_budget_degrades_but_completes() {
    // A deadline shorter than any device access: every read beam either
    // resolves before the deadline passes or is skipped outright; queries
    // still finish and the accounting stays conservative.
    let faults = FaultConfig {
        profile: FaultProfile::flaky(),
        io_deadline_us: 1.0,
        ..FaultConfig::default()
    };
    let m = Executor::new(base_config(faults)).run(&[storage_plan()]);
    let f = &m.fault;
    assert!(m.completed > 0);
    assert!(f.deadline_skips > 0, "a 1 µs deadline must skip reads");
    assert_eq!(f.ios_planned, f.ios_completed + f.ios_abandoned);
    assert!(f.served_fraction() < 0.5);
    assert!(f.degraded_queries > 0);
}
