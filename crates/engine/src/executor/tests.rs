//! The executor's unit tests, compiled only for the test harness.
#![cfg(test)]

use super::*;
use crate::plan::Segment;
use sann_obs::SpanName;

fn cpu_plan(us: f64) -> QueryPlan {
    QueryPlan::new(vec![Segment::cpu(us)])
}

#[test]
fn us_to_ns_matches_the_open_coded_casts() {
    // Bit-exact with the expressions these helpers replaced, so golden
    // traces and determinism baselines are unchanged.
    for us in [0.0, 0.1, 1.0, 3.7, 12.5, 1e6, 30e6, 1.0 / 3.0] {
        assert_eq!(us_to_ns(us), (us * NS_PER_US) as u64, "us={us}");
        assert_eq!(us_to_ns_ceil(us), (us * NS_PER_US).ceil() as u64, "us={us}");
    }
    assert_eq!(us_to_ns_ceil(0.0001), 1, "ceil keeps sub-ns work nonzero");
    assert_eq!(us_to_ns(0.0001), 0);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "finite non-negative")]
fn us_to_ns_rejects_nan_in_debug() {
    us_to_ns(f64::NAN);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "finite non-negative")]
fn us_to_ns_ceil_rejects_negative_in_debug() {
    us_to_ns_ceil(-1.0);
}

#[test]
fn single_client_cpu_bound_qps() {
    let config = RunConfig {
        cores: 4,
        concurrency: 1,
        duration_us: 1e6,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[cpu_plan(100.0)]);
    assert!((m.qps - 10_000.0).abs() < 200.0, "qps {}", m.qps);
    assert!((m.p99_latency_us - 100.0).abs() < 2.0);
    // One core busy out of four.
    assert!(
        (m.cpu_utilization - 0.25).abs() < 0.02,
        "cpu {}",
        m.cpu_utilization
    );
}

/// One client on one core runs plans of 1..=100 µs of CPU once each, so
/// the latency samples are exactly 1..=100 µs.
#[test]
fn latency_percentiles_come_from_exact_samples() {
    let plans: Vec<QueryPlan> = (1..=100).map(|us| cpu_plan(f64::from(us))).collect();
    let config = RunConfig {
        cores: 1,
        concurrency: 1,
        duration_us: 5_050.0,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&plans);
    assert_eq!(m.completed, 100);
    assert_eq!(m.phase_breakdown.queries, 100);
    // Linear interpolation between closest ranks over samples 1..=100.
    assert!((m.p50_latency_us - 50.5).abs() < 1e-9);
    assert!((m.p99_latency_us - 99.01).abs() < 1e-9);
    assert!((m.mean_latency_us - 50.5).abs() < 1e-9);
    assert_eq!(m.read_bytes_per_query, 0.0);
}

/// A subtask is billed whole when it is dispatched, so one that outlives
/// the window would read as more than 100 % busy.
#[test]
fn cpu_utilization_is_clamped() {
    let config = RunConfig {
        cores: 1,
        concurrency: 1,
        duration_us: 100.0,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[cpu_plan(1_000.0)]);
    assert_eq!(m.cpu_utilization, 1.0);
}

#[test]
fn throughput_scales_until_cores_saturate() {
    let mut last_qps = 0.0;
    for conc in [1usize, 2, 4, 8] {
        let config = RunConfig {
            cores: 4,
            concurrency: conc,
            duration_us: 1e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&[cpu_plan(100.0)]);
        if conc <= 4 {
            assert!(
                (m.qps - conc as f64 * 10_000.0).abs() < 500.0,
                "conc {conc} qps {}",
                m.qps
            );
        } else {
            // Saturated at 4 cores.
            assert!(
                (m.qps - 40_000.0).abs() < 1000.0,
                "conc {conc} qps {}",
                m.qps
            );
            assert!(m.p99_latency_us > 150.0, "queueing must inflate latency");
        }
        assert!(m.qps >= last_qps - 500.0);
        last_qps = m.qps;
    }
}

#[test]
fn io_plan_latency_includes_device_time() {
    let ssd = SsdModel::samsung_990_pro();
    let plan = QueryPlan::new(vec![
        Segment::cpu(10.0),
        Segment::io(vec![IoReq::new(0, 4096)]),
        Segment::cpu(10.0),
    ]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 1e6,
        ssd,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[plan]);
    let expect = 10.0 + ssd.submit_cpu_us + ssd.idle_latency_us(4096) + 10.0;
    assert!(
        (m.mean_latency_us - expect).abs() < 2.0,
        "latency {} vs {}",
        m.mean_latency_us,
        expect
    );
    assert!(m.read_bytes_per_query > 4000.0);
}

#[test]
fn beam_reads_overlap_on_device() {
    let ssd = SsdModel::samsung_990_pro();
    let beam: Vec<IoReq> = (0..8).map(|i| IoReq::new(i * 4096, 4096)).collect();
    let plan = QueryPlan::new(vec![Segment::io(beam)]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 1e6,
        ssd,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[plan]);
    // 8 parallel reads should take ~1 media latency, not 8.
    assert!(
        m.mean_latency_us < 2.5 * ssd.base_latency_us,
        "beam latency {}",
        m.mean_latency_us
    );
}

#[test]
fn admission_cap_limits_throughput() {
    let uncapped = RunConfig {
        cores: 8,
        concurrency: 8,
        duration_us: 1e6,
        ..RunConfig::default()
    };
    let capped = RunConfig {
        max_concurrent: 2,
        ..uncapped
    };
    let plan = cpu_plan(100.0);
    let m_un = Executor::new(uncapped).run(std::slice::from_ref(&plan));
    let m_cap = Executor::new(capped).run(&[plan]);
    assert!(
        m_cap.qps < m_un.qps / 3.0,
        "cap 2 of 8: {} vs {}",
        m_cap.qps,
        m_un.qps
    );
}

#[test]
fn intra_query_parallelism_cuts_latency() {
    let serial = QueryPlan::new(vec![Segment::cpu(800.0)]);
    let fanned = QueryPlan::new(vec![Segment::cpu_parallel(800.0, 8)]);
    let config = RunConfig {
        cores: 8,
        concurrency: 1,
        duration_us: 1e6,
        ..RunConfig::default()
    };
    let m_serial = Executor::new(config).run(&[serial]);
    let m_fan = Executor::new(config).run(&[fanned]);
    assert!((m_serial.mean_latency_us - 800.0).abs() < 5.0);
    assert!((m_fan.mean_latency_us - 100.0).abs() < 5.0);
    assert!(m_fan.qps > 6.0 * m_serial.qps);
}

#[test]
fn page_cache_absorbs_repeated_reads() {
    let plan = QueryPlan::new(vec![Segment::io(vec![IoReq::new(0, 4096)])]);
    let cold = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 0.2e6,
        cache_bytes: 0,
        ..RunConfig::default()
    };
    let warm = RunConfig {
        cache_bytes: 1 << 20,
        ..cold
    };
    let m_cold = Executor::new(cold).run(std::slice::from_ref(&plan));
    let m_warm = Executor::new(warm).run(&[plan]);
    assert!(
        m_warm.qps > 3.0 * m_cold.qps,
        "{} vs {}",
        m_warm.qps,
        m_cold.qps
    );
    // The warm run hits cache after the first read: almost no device traffic.
    assert!(m_warm.io_stats.read_bytes < m_cold.io_stats.read_bytes / 10);
}

#[test]
fn delay_adds_latency_not_cpu() {
    let plan = QueryPlan::new(vec![Segment::delay(500.0), Segment::cpu(10.0)]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 1e6,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[plan]);
    assert!(
        (m.mean_latency_us - 510.0).abs() < 2.0,
        "latency {}",
        m.mean_latency_us
    );
    assert!(
        m.cpu_utilization < 0.02,
        "delays must not burn CPU: {}",
        m.cpu_utilization
    );
}

#[test]
fn concurrent_writes_inflate_read_latency() {
    let ssd = SsdModel::samsung_990_pro();
    let read_plan = QueryPlan::new(vec![Segment::io(vec![IoReq::new(0, 4096)])]);
    let write_plan = QueryPlan::new(vec![Segment::write(
        (0..16)
            .map(|i| IoReq::new((1 << 30) + i * 4096, 4096))
            .collect(),
    )]);
    let alone = RunConfig {
        cores: 4,
        concurrency: 8,
        duration_us: 0.5e6,
        ssd,
        ..RunConfig::default()
    };
    let m_alone = Executor::new(alone).run(std::slice::from_ref(&read_plan));
    // Same read clients, plus heavy writers sharing the device.
    let mixed = RunConfig {
        concurrency: 72,
        ..alone
    };
    let m_mixed = Executor::new(mixed).run(&[&[read_plan], &vec![write_plan; 8][..]].concat());
    assert!(m_mixed.io_stats.write_bytes > 0, "writers must write");
    assert!(
        m_mixed.p99_latency_us > m_alone.p99_latency_us,
        "read-write interference must inflate tail latency: {} vs {}",
        m_mixed.p99_latency_us,
        m_alone.p99_latency_us
    );
}

#[test]
fn deterministic_runs() {
    let plan = QueryPlan::new(vec![
        Segment::cpu(30.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::cpu(10.0),
    ]);
    let config = RunConfig {
        cores: 4,
        concurrency: 16,
        duration_us: 0.5e6,
        ..RunConfig::default()
    };
    let a = Executor::new(config).run(std::slice::from_ref(&plan));
    let b = Executor::new(config).run(&[plan]);
    assert_eq!(a.qps, b.qps);
    assert_eq!(a.p99_latency_us, b.p99_latency_us);
    assert_eq!(a.io_stats.read_bytes, b.io_stats.read_bytes);
}

#[test]
fn round_robin_covers_all_plans() {
    let fast = cpu_plan(10.0);
    let slow = cpu_plan(1000.0);
    let config = RunConfig {
        cores: 1,
        concurrency: 1,
        duration_us: 1e6,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[fast, slow]);
    // Mean of alternating 10/1000 µs queries ≈ 505 µs.
    assert!(
        (m.mean_latency_us - 505.0).abs() < 20.0,
        "mean {}",
        m.mean_latency_us
    );
}

#[test]
#[should_panic(expected = "plans must be non-empty")]
fn empty_plans_panic() {
    let config = RunConfig::default();
    Executor::new(config).run(&[]);
}

#[test]
#[should_panic(expected = "concurrency must be at most 65536")]
fn more_clients_than_an_event_key_names_are_rejected() {
    Executor::new(RunConfig {
        concurrency: MAX_CLIENTS + 1,
        ..RunConfig::default()
    });
}

/// The highest query slot an event key holds, in each inline kind: every
/// client's query gets its subtask, delay and sealed-beam events.
#[test]
fn the_most_clients_a_key_names_all_complete() {
    let plans = [QueryPlan::new(vec![
        Segment::delay(1.0),
        Segment::cpu(1.0),
        Segment::io(reads(0, 2)),
    ])];
    let config = RunConfig {
        cores: 20,
        concurrency: MAX_CLIENTS,
        duration_us: 1.0,
        ..RunConfig::default()
    };
    let drained = drain(&config, &plans, TraceLevel::Off, false, None);
    assert_eq!(drained.queries, MAX_CLIENTS as u64);
    assert_eq!(
        drained.run.metrics.phase_breakdown.queries,
        MAX_CLIENTS as u64
    );
    assert_eq!(drained.events, 4 * MAX_CLIENTS as u64);
}

fn mixed_plan() -> QueryPlan {
    QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::cpu(10.0),
    ])
}

#[test]
fn traced_run_produces_valid_nested_spans() {
    let config = RunConfig {
        cores: 2,
        concurrency: 4,
        duration_us: 0.05e6,
        ..RunConfig::default()
    };
    let run = Executor::new(config).run_traced(&[mixed_plan()], sann_obs::TraceLevel::Io);
    run.trace.validate().unwrap();
    assert!(!run.trace.spans.is_empty());
    assert!(!run.trace.io.is_empty(), "direct I/O plan must trace reads");
    // One root span per completed-or-started query; per query the
    // in-latency phase children sum exactly to the root duration
    // minus queue wait.
    let roots: Vec<_> = run
        .trace
        .spans
        .iter()
        .filter(|s| matches!(s.name, SpanName::Query { .. }))
        .collect();
    assert!(!roots.is_empty());
    for root in roots {
        let mut child_ns = 0u64;
        let mut wait_ns = 0u64;
        for s in run.trace.query_spans(root.query) {
            if let SpanName::Phase(p) = s.name {
                if p.in_latency() {
                    child_ns += s.duration_ns();
                } else {
                    wait_ns += s.duration_ns();
                }
            }
        }
        assert_eq!(
            child_ns + wait_ns,
            root.duration_ns(),
            "query {} children must partition the root span",
            root.query
        );
    }
    // Registry counters line up with trace contents.
    assert_eq!(
        run.registry.counter("engine.reads_device") + run.registry.counter("engine.writes_device"),
        run.trace.io.len() as u64
    );
    assert!(run.registry.counter("engine.beams") > 0);
}

#[test]
fn traced_run_metrics_match_untraced() {
    let config = RunConfig {
        cores: 2,
        concurrency: 8,
        duration_us: 0.1e6,
        cache_bytes: 1 << 20,
        ..RunConfig::default()
    };
    let plain = Executor::new(config).run(&[mixed_plan()]);
    for level in sann_obs::TraceLevel::ALL {
        let traced = Executor::new(config).run_traced(&[mixed_plan()], level);
        assert_eq!(
            plain.canonical_bytes(),
            traced.metrics.canonical_bytes(),
            "tracing at {level} must not perturb the simulation"
        );
    }
}

#[test]
fn phase_breakdown_accounts_for_every_nanosecond() {
    let config = RunConfig {
        cores: 2,
        concurrency: 4,
        duration_us: 0.1e6,
        max_concurrent: 2,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[mixed_plan()]);
    let b = &m.phase_breakdown;
    assert!(b.queries > 0);
    // The executor asserts per-query exactness; here we check the
    // aggregate additionally matches the reported mean latency.
    let mean_us = b.latency_ns() as f64 / b.queries as f64 / 1000.0;
    assert!(
        (mean_us - m.mean_latency_us).abs() < 1e-6,
        "breakdown mean {mean_us} vs metric {}",
        m.mean_latency_us
    );
    // With an admission cap of 2 and 4 clients, someone must wait.
    assert!(b.phase_ns(Phase::QueueWait) > 0);
    assert!(b.phase_ns(Phase::FlashService) > 0);
    assert!(b.phase_ns(Phase::Rerank) > 0);
}

#[test]
fn overlap_hides_io_under_compute() {
    // Same work, two schedules: blocking read then compute, vs the
    // pipelined segment running them concurrently. The overlap must
    // recover most of the device latency.
    let ssd = SsdModel::samsung_990_pro();
    let read = || vec![IoReq::new(0, 4096)];
    let phased = QueryPlan::new(vec![
        Segment::cpu(10.0),
        Segment::io(read()),
        Segment::cpu(200.0),
    ]);
    let pipelined = QueryPlan::new(vec![
        Segment::cpu(10.0),
        Segment::overlapped(200.0, 1, read()),
    ]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 1e6,
        ssd,
        ..RunConfig::default()
    };
    let m_phased = Executor::new(config).run(&[phased]);
    let m_pipe = Executor::new(config).run(&[pipelined]);
    let lat = ssd.idle_latency_us(4096);
    assert!(
        m_phased.mean_latency_us - m_pipe.mean_latency_us > 0.8 * lat,
        "overlap must hide the read: {} vs {} (device {lat})",
        m_pipe.mean_latency_us,
        m_phased.mean_latency_us
    );
    // The CPU outlives the read, so the whole device time is covered:
    // latency ~ cpu + submit overheads only.
    let expect = 10.0 + ssd.submit_cpu_us + 200.0;
    assert!(
        (m_pipe.mean_latency_us - expect).abs() < 2.0,
        "pipelined latency {} vs {expect}",
        m_pipe.mean_latency_us
    );
    assert_eq!(m_phased.read_bytes_per_query, m_pipe.read_bytes_per_query);
}

#[test]
fn overlap_covered_io_bills_compute_not_flash_service() {
    // CPU far longer than the device: the read finishes under cover,
    // so no flash-service time may be billed for the segment.
    let plan = QueryPlan::new(vec![Segment::overlapped(
        500.0,
        1,
        vec![IoReq::new(0, 4096)],
    )]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 0.2e6,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[plan]);
    let b = &m.phase_breakdown;
    assert_eq!(
        b.phase_ns(Phase::FlashService),
        0,
        "fully covered reads must not bill flash service"
    );
    assert!(b.phase_ns(Phase::Compute) > 0);
    assert!(b.phase_ns(Phase::BeamIssue) > 0, "submission still runs");
}

#[test]
fn overlap_exposed_tail_bills_flash_service() {
    // CPU far shorter than the device: the tail past the CPU is
    // exposed waiting and must show up as flash service.
    let ssd = SsdModel::samsung_990_pro();
    let plan = QueryPlan::new(vec![Segment::overlapped(1.0, 1, vec![IoReq::new(0, 4096)])]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 0.2e6,
        ssd,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[plan]);
    let b = &m.phase_breakdown;
    let flash_us = b.phase_ns(Phase::FlashService) as f64 / 1000.0 / b.queries as f64;
    let expect = ssd.idle_latency_us(4096) - 1.0;
    assert!(
        (flash_us - expect).abs() < 2.0,
        "exposed tail {flash_us} vs device-minus-cpu {expect}"
    );
}

#[test]
fn overlapped_traces_validate_and_match_untraced() {
    let plan = || {
        QueryPlan::new(vec![
            Segment::cpu(20.0),
            Segment::io(vec![IoReq::new(0, 4096)]),
            Segment::overlapped(
                30.0,
                2,
                vec![IoReq::new(8192, 4096), IoReq::new(16384, 4096)],
            ),
            Segment::cpu(10.0),
        ])
    };
    let config = RunConfig {
        cores: 4,
        concurrency: 8,
        duration_us: 0.1e6,
        cache_bytes: 1 << 20,
        ..RunConfig::default()
    };
    let plain = Executor::new(config).run(&[plan()]);
    for level in sann_obs::TraceLevel::ALL {
        let traced = Executor::new(config).run_traced(&[plan()], level);
        traced.trace.validate().unwrap();
        assert_eq!(
            plain.canonical_bytes(),
            traced.metrics.canonical_bytes(),
            "tracing at {level} must not perturb an overlapped run"
        );
    }
    // Deterministic across repeat runs, like every other plan shape.
    let again = Executor::new(config).run(&[plan()]);
    assert_eq!(plain.canonical_bytes(), again.canonical_bytes());
}

#[test]
fn overlap_after_last_blocking_read_keeps_rerank() {
    // A trailing prefetch-only overlapped segment must not reclassify
    // the rerank CPU before it (the engine side of the trace-model
    // rule: rerank = CPU after the last *blocking* read).
    let plan = QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096)]),
        Segment::cpu(10.0),
        Segment::overlapped(5.0, 1, vec![IoReq::new(8192, 4096)]),
    ]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 0.1e6,
        ..RunConfig::default()
    };
    let m = Executor::new(config).run(&[plan]);
    assert!(
        m.phase_breakdown.phase_ns(Phase::Rerank) > 0,
        "the CPU between the last blocking read and the trailing \
         prefetch is still the rerank pass"
    );
}

#[test]
fn cache_hits_become_zero_duration_phase() {
    let plan = QueryPlan::new(vec![Segment::io(vec![IoReq::new(0, 4096)])]);
    let config = RunConfig {
        cores: 2,
        concurrency: 1,
        duration_us: 0.05e6,
        cache_bytes: 1 << 20,
        ..RunConfig::default()
    };
    let run = Executor::new(config).run_traced(&[plan], sann_obs::TraceLevel::Query);
    run.trace.validate().unwrap();
    let hits = run
        .trace
        .spans
        .iter()
        .filter(|s| matches!(s.name, SpanName::Phase(Phase::CacheHit)))
        .count();
    assert!(hits > 0, "warm cache must produce cache-hit phases");
    assert!(run.registry.counter("engine.beams_cache_absorbed") > 0);
    assert_eq!(
        run.metrics.phase_breakdown.phase_ns(Phase::CacheHit),
        0,
        "cache-hit phases are instantaneous in simulated time"
    );
}

/// What a run keeps in memory follows what is outstanding at once, not
/// how long it runs: ten times the simulated duration dispatches ten
/// times the events with the same most events outstanding in the heap,
/// and the same query slots, heat-map pages and histogram sizes.
#[test]
fn retained_state_is_independent_of_run_length() {
    const BEAM: usize = 4;
    const FANOUT: usize = 3;
    let beam = |at: u64| (0..BEAM as u64).map(move |i| IoReq::new((at + i) * 4096, 4096));
    let plans = [QueryPlan::new(vec![
        Segment::delay(5.0),
        Segment::cpu_parallel(30.0, FANOUT),
        Segment::io(beam(0).collect()),
        Segment::overlapped(20.0, FANOUT, beam(8).collect()),
        Segment::write(vec![IoReq::new(1 << 30, 4096)]),
        Segment::cpu(10.0),
    ])];
    let clean = RunConfig {
        cores: 4,
        concurrency: 8,
        cache_bytes: 4 * 4096,
        ..RunConfig::default()
    };
    let faulted = RunConfig {
        faults: FaultConfig {
            profile: FaultProfile::flaky(),
            hedge_after_us: 80.0,
            ..FaultConfig::default()
        },
        ..clean
    };
    for base in [clean, faulted] {
        let measure = |duration_us: f64| {
            let config = RunConfig {
                duration_us,
                ..base
            };
            let mut sim = Simulation::new(&config, &plans, TraceLevel::Off);
            sim.run_events();
            let retained = (
                sim.events.high_water(),
                sim.queries.len(),
                sim.tracer.page_heat().len(),
                sim.tracer.stats().size_histogram.len(),
            );
            let dispatched = sim.events.seq;
            assert!(sim.finish().metrics.completed > 0);
            (retained, dispatched)
        };
        let (short, short_dispatched) = measure(1e6);
        let (long, long_dispatched) = measure(10e6);
        assert!(long_dispatched > 9 * short_dispatched);
        let (events_high_water, query_slots, ..) = long;
        assert_eq!(query_slots, base.concurrency);
        if base.faults.profile.active() {
            // Hedge timers and the completions of cancelled attempts
            // stay queued until their time comes, so the mark moves
            // with the fault draws — a little, not with the run.
            assert_eq!((short.1, short.2, short.3), (long.1, long.2, long.3));
            assert!(
                events_high_water < 2 * short.0,
                "{} events outstanding after 1 s, {events_high_water} after 10 s",
                short.0
            );
            continue;
        }
        assert_eq!(short, long, "retained state grew with the run");
        // A clean query has at most its beam's one event plus one fan of
        // subtasks outstanding (the overlapped segment), or its delay
        // timer — however wide the beam.
        assert!(
            events_high_water <= base.concurrency * (FANOUT + 1),
            "{events_high_water} events outstanding for {} clients",
            base.concurrency
        );
    }
}

// ------------------------------------------------------------ sealing

/// What a drained replay pushed and did, read off the simulation before
/// `finish` folds it away.
struct Drained {
    /// Events pushed (`seq`).
    events: u64,
    /// Queries issued; every one of them ran to completion.
    queries: u64,
    hedges_issued: u64,
    /// Time of the last event popped / of the last query completion.
    clock_ns: u64,
    finished_ns: u64,
    run: TracedRun,
}

/// Drains a replay — with every attempt forced open ([`force_open`]:
/// the lifecycle as it was before sealing, the reference for the
/// default) when `open` is set, and with the hedge delay overridden in
/// integer ns when `hedge_ns` is given (so a test can place it on an
/// exact tie).
fn drain(
    config: &RunConfig,
    plans: &[QueryPlan],
    level: TraceLevel,
    open: bool,
    hedge_ns: Option<u64>,
) -> Drained {
    FORCE_OPEN.set(open);
    let mut sim = Simulation::new(config, plans, level);
    if let Some(ns) = hedge_ns {
        sim.hedge_ns = ns;
    }
    sim.run_events();
    FORCE_OPEN.set(false);
    Drained {
        events: sim.events.seq,
        queries: sim.issue_counter,
        hedges_issued: sim.fstats.hedges_issued,
        clock_ns: sim.clock_ns,
        finished_ns: sim.finished_ns,
        run: sim.finish(),
    }
}

fn reads(at: u64, n: u64) -> Vec<IoReq> {
    (at..at + n).map(|i| IoReq::new(i * 4096, 4096)).collect()
}

/// One search hop: compute, a beam of eight reads, compute.
fn hop_plan() -> QueryPlan {
    QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(reads(0, 8)),
        Segment::cpu(10.0),
    ])
}

/// A device that is slow and spiky but never fails a read.
fn spiky_error_free() -> FaultProfile {
    FaultProfile {
        spike_prob: 0.3,
        spike_min_us: 100.0,
        spike_max_us: 400.0,
        throttle_factor: 1.6,
        ..FaultProfile::none()
    }
}

/// `registry`'s bytes with `other`'s DES work counts (`engine.events.*`)
/// added: two replays that computed the same thing, whatever events they
/// paid for it, are byte-equal once each has the other's counts too.
fn plus_event_counts(registry: &Registry, other: &Registry) -> Vec<u8> {
    let mut sum = registry.clone();
    for (name, n) in other.counters() {
        if name.starts_with("engine.events.") {
            sum.counter_add(name, n);
        }
    }
    sum.canonical_bytes()
}

/// The reference test: sealing changes what the executor pays, never
/// what it computes. Every profile, every kind of plan, alone and under
/// contention (where events of different queries tie on the clock and
/// the sealed-beam event must sort where the beam's last completion
/// did), under a hedge delay no healthy read beats (every read open,
/// with a deadline some spiked reads outlive) and under Milvus' 5 ms
/// (nearly every read sealed): metrics, registry and both trace exports
/// are byte-equal to the all-open lifecycle.
#[test]
fn sealed_and_open_lifecycles_agree_byte_for_byte() {
    use sann_obs::export::{chrome_trace, jsonl};
    let plans: [(&str, u64, QueryPlan); 5] = [
        (
            "blocking",
            0,
            QueryPlan::new(vec![
                Segment::cpu(20.0),
                Segment::io(reads(0, 8)),
                Segment::cpu(5.0),
                Segment::io(reads(64, 4)),
                Segment::cpu(10.0),
            ]),
        ),
        (
            "overlapped",
            0,
            QueryPlan::new(vec![
                Segment::cpu(20.0),
                Segment::io(reads(0, 4)),
                Segment::overlapped(15.0, 2, reads(64, 4)),
                Segment::cpu(10.0),
            ]),
        ),
        (
            // Wider beams (the speculative reads ride along), each under
            // the previous hop's compute: one covered, one with a tail.
            "look-ahead + pipelined",
            0,
            QueryPlan::new(vec![
                Segment::cpu(10.0),
                Segment::overlapped(120.0, 1, reads(0, 12)),
                Segment::overlapped(2.0, 1, reads(64, 12)),
                Segment::overlapped(30.0, 4, reads(128, 12)),
                Segment::cpu(10.0),
            ]),
        ),
        (
            "write",
            0,
            QueryPlan::new(vec![
                Segment::cpu(10.0),
                Segment::io(reads(0, 4)),
                Segment::write(reads(1 << 18, 3)),
                Segment::io(reads(64, 2)),
                Segment::cpu(5.0),
            ]),
        ),
        (
            // The second beam re-reads half of the first one's pages, so
            // one beam mixes cache hits with device reads.
            "page-cached",
            1 << 20,
            QueryPlan::new(vec![
                Segment::cpu(10.0),
                Segment::io(reads(0, 4)),
                Segment::io(reads(2, 4)),
                Segment::cpu(5.0),
            ]),
        ),
    ];
    let retry = RetryPolicy {
        max_retries: 3,
        backoff_us: 100.0,
        backoff_mult: 2.0,
    };
    let (mut sealed_somewhere, mut hedged_somewhere) = (false, false);
    for profile in FaultProfile::all() {
        for (name, cache_bytes, plan) in &plans {
            for clients in [1, 16] {
                for (hedge_after_us, io_deadline_us) in [(20.0, 1_500.0), (5_000.0, 0.0)] {
                    let config = RunConfig {
                        cores: 4,
                        concurrency: clients,
                        duration_us: 0.03e6,
                        cache_bytes: *cache_bytes,
                        faults: FaultConfig {
                            profile,
                            retry,
                            io_deadline_us,
                            hedge_after_us,
                            ..FaultConfig::default()
                        },
                        ..RunConfig::default()
                    };
                    let plans = std::slice::from_ref(plan);
                    let what = format!(
                        "{} / {name} / c{clients} / hedge {hedge_after_us}",
                        profile.name
                    );
                    let sealed = Executor::new(config).run_traced(plans, TraceLevel::Io);
                    let open = drain(&config, plans, TraceLevel::Io, true, None).run;
                    assert!(sealed.metrics.completed > 0, "{what}");
                    assert!(
                        sealed.metrics.canonical_bytes() == open.metrics.canonical_bytes(),
                        "{what}: metrics differ"
                    );
                    assert!(
                        plus_event_counts(&sealed.registry, &open.registry)
                            == plus_event_counts(&open.registry, &sealed.registry),
                        "{what}: registries differ"
                    );
                    assert!(
                        chrome_trace(&sealed.trace) == chrome_trace(&open.trace),
                        "{what}: Chrome exports differ"
                    );
                    assert!(
                        jsonl(&sealed.trace) == jsonl(&open.trace),
                        "{what}: JSONL exports differ"
                    );
                    sealed.trace.validate().unwrap();
                    hedged_somewhere |= sealed.metrics.fault.hedges_issued > 0;
                    sealed_somewhere |= profile.active()
                        && sealed.metrics.fault.hedges_issued == 0
                        && sealed.metrics.fault.latency_spikes > 0;
                }
            }
        }
    }
    assert!(
        hedged_somewhere && sealed_somewhere,
        "the sweep must reach both sides"
    );
}

/// `seq` counts the events pushed. A healthy hop of eight reads costs
/// its two CPU subtasks, its submission and one event for the beam,
/// where the open lifecycle pays one per read.
#[test]
fn healthy_beam_costs_one_event_however_wide() {
    let plans = [hop_plan()];
    let config = RunConfig {
        cores: 4,
        concurrency: 16,
        duration_us: 0.05e6,
        ..RunConfig::default()
    };
    let sealed = drain(&config, &plans, TraceLevel::Off, false, None);
    assert!(sealed.queries > 100);
    assert_eq!(sealed.events, 4 * sealed.queries);
    let open = drain(&config, &plans, TraceLevel::Off, true, None);
    assert_eq!(open.events, 11 * open.queries);
    assert_eq!(
        sealed.run.metrics.canonical_bytes(),
        open.run.metrics.canonical_bytes()
    );
}

/// Sealing is decided per attempt from the draw and the schedule, not
/// from the profile: a throttled, spiking device that never fails a
/// read costs the healthy four events per query as long as no hedge
/// could start before a read lands, and stops doing so — in the same
/// code, on the same profile — when the hedge delay is one a spiked
/// read outlives.
#[test]
fn faulted_reads_seal_unless_a_hedge_could_start_first() {
    let plans = [hop_plan()];
    let config = |hedge_after_us: f64| RunConfig {
        cores: 4,
        concurrency: 16,
        duration_us: 0.05e6,
        faults: FaultConfig {
            profile: spiky_error_free(),
            hedge_after_us,
            ..FaultConfig::default()
        },
        ..RunConfig::default()
    };
    // Longer than the worst spike plus any queueing behind one.
    let patient = drain(&config(5_000.0), &plans, TraceLevel::Off, false, None);
    assert!(patient.run.metrics.fault.latency_spikes > 0);
    assert_eq!(patient.hedges_issued, 0);
    assert_eq!(patient.events, 4 * patient.queries);
    let open = drain(&config(5_000.0), &plans, TraceLevel::Off, true, None);
    assert_eq!(
        open.events,
        19 * open.queries,
        "completion + timer per read"
    );
    // Shorter than a spike: the spiked reads stay open and are hedged.
    let eager = drain(&config(100.0), &plans, TraceLevel::Off, false, None);
    assert!(eager.hedges_issued > 0);
    assert!(eager.events > 4 * eager.queries);
}

/// Trap (a): the beam's event sits at the latest of its sealed reads.
/// On the query's track that is where the beam — here the whole query —
/// ends.
#[test]
fn sealed_beam_lands_with_its_latest_read() {
    let plans = [QueryPlan::new(vec![Segment::io(reads(0, 8))])];
    let config = RunConfig {
        cores: 4,
        concurrency: 4,
        duration_us: 0.02e6,
        faults: FaultConfig {
            profile: spiky_error_free(),
            ..FaultConfig::default()
        },
        ..RunConfig::default()
    };
    let run = Executor::new(config).run_traced(&plans, TraceLevel::Io);
    assert!(run.metrics.fault.latency_spikes > 0);
    let roots = run
        .trace
        .spans
        .iter()
        .filter(|s| matches!(s.name, SpanName::Query { .. }));
    for root in roots {
        let beam = run.trace.io.iter().filter(|io| io.query == root.query);
        assert_eq!(beam.clone().count(), 8);
        assert_eq!(beam.map(|io| io.end_ns).max(), Some(root.end_ns));
    }
}

/// Traps (c) and (d), on the predicate itself.
#[test]
fn only_a_first_attempt_that_beats_its_hedge_timer_seals() {
    let config = RunConfig::default();
    let plans = [cpu_plan(1.0)];
    let mut sim = Simulation::new(&config, &plans, TraceLevel::Off);
    let first = Attempt {
        start_ns: 50,
        ..Attempt::default()
    };
    assert!(
        sim.seals(first, u64::MAX, false),
        "no hedging, no timer to beat"
    );
    assert!(!sim.seals(first, 60, true), "a failing attempt is retried");
    sim.hedge_ns = 100;
    assert!(sim.seals(first, 149, false));
    assert!(
        sim.seals(first, 150, false),
        "on the tie the completion wins"
    );
    assert!(
        !sim.seals(first, 151, false),
        "one ns later the hedge fires"
    );
    let retry = Attempt {
        ordinal: 1,
        ..first
    };
    let hedge = Attempt {
        ordinal: 1,
        hedged: true,
        ..first
    };
    assert!(!sim.seals(retry, 60, false), "a retry stays open");
    assert!(!sim.seals(hedge, 60, false), "a hedge stays open");
}

/// Trap (c), end to end: with the hedge delay set to the ns on a healthy
/// read's latency the read is sealed and no hedge is issued — in the
/// open lifecycle too, where the completion beats the timer by push
/// order; one ns less and every read is hedged just before it lands.
#[test]
fn hedge_delay_on_the_tie_is_sealed_one_ns_short_is_hedged() {
    let plans = [QueryPlan::new(vec![
        Segment::cpu(5.0),
        Segment::io(reads(0, 1)),
    ])];
    let config = RunConfig {
        cores: 1,
        concurrency: 1,
        duration_us: 2_000.0,
        ..RunConfig::default()
    };
    let probe = Executor::new(config).run_traced(&plans, TraceLevel::Io);
    let latency = probe.trace.io.iter().map(|io| io.end_ns - io.start_ns);
    let (fastest, slowest) = (latency.clone().min().unwrap(), latency.max().unwrap());
    for (hedge_ns, hedged) in [(slowest, false), (fastest - 1, true)] {
        let sealed = drain(&config, &plans, TraceLevel::Off, false, Some(hedge_ns));
        let open = drain(&config, &plans, TraceLevel::Off, true, Some(hedge_ns));
        assert!(sealed.queries > 10);
        for side in [&sealed, &open] {
            let expect = if hedged { side.queries } else { 0 };
            assert_eq!(side.hedges_issued, expect, "hedge after {hedge_ns} ns");
        }
        // cpu + submission + the sealed beam.
        assert_eq!(sealed.events == 3 * sealed.queries, !hedged);
        assert_eq!(
            sealed.run.metrics.canonical_bytes(),
            open.run.metrics.canonical_bytes()
        );
    }
}

/// Trap (e): a sealed read that lands after its query's IO deadline is
/// still served — the deadline stops retries, hedges and beams not yet
/// issued, never data that arrives.
#[test]
fn sealed_read_resolves_past_the_deadline() {
    // The first beam goes out before the 1 µs deadline passes and lands
    // long after it; the second is skipped.
    let plans = [QueryPlan::new(vec![
        Segment::io(reads(0, 2)),
        Segment::cpu(5.0),
        Segment::io(reads(64, 1)),
    ])];
    let config = RunConfig {
        cores: 2,
        concurrency: 4,
        duration_us: 0.01e6,
        faults: FaultConfig {
            profile: spiky_error_free(),
            io_deadline_us: 1.0,
            ..FaultConfig::default()
        },
        ..RunConfig::default()
    };
    let sealed = drain(&config, &plans, TraceLevel::Off, false, None);
    let f = sealed.run.metrics.fault;
    assert_eq!(sealed.events, 3 * sealed.queries, "submission, beam, cpu");
    assert_eq!(f.ios_completed, 2 * sealed.queries);
    assert_eq!(f.ios_abandoned, sealed.queries);
    assert_eq!(f.deadline_skips, sealed.queries);
    let open = drain(&config, &plans, TraceLevel::Off, true, None);
    assert_eq!(
        sealed.run.metrics.canonical_bytes(),
        open.run.metrics.canonical_bytes()
    );
}

/// Trap (f): a sealed-beam or write-batch event names no read because it
/// cannot be stale; one that finds its query elsewhere is a bug, caught
/// in every debug-built test run rather than dropped.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not waiting on them")]
fn batch_event_for_a_query_not_waiting_is_a_bug() {
    let config = RunConfig::default();
    let plans = [cpu_plan(10.0)];
    let mut sim = Simulation::new(&config, &plans, TraceLevel::Off);
    // Pops first: query 0 is by then running its CPU segment.
    sim.events.push(0, EventKind::BatchDone { query: 0, n: 1 });
    sim.run_events();
}

/// A cancelled hedge timer pops long after the last query completed; it
/// advances the event clock, not the end of the trace.
#[test]
fn dead_timer_does_not_date_the_trace() {
    let plans = [hop_plan()];
    for profile in [FaultProfile::flaky(), FaultProfile::aging()] {
        let config = RunConfig {
            cores: 4,
            concurrency: 8,
            duration_us: 0.02e6,
            faults: FaultConfig {
                profile,
                hedge_after_us: 5_000.0,
                ..FaultConfig::default()
            },
            ..RunConfig::default()
        };
        let drained = drain(&config, &plans, TraceLevel::Io, false, None);
        let trace = &drained.run.trace;
        let last_span = trace.spans.iter().map(|s| s.end_ns).max().unwrap();
        let last_io = trace.io.iter().map(|io| io.end_ns).max().unwrap();
        assert_eq!(trace.end_ns, last_span.max(last_io), "{}", profile.name);
        assert_eq!(trace.end_ns, drained.finished_ns);
        trace.validate().unwrap();
        if profile.read_error_prob > 0.0 {
            // A read that failed once is open, so it armed a timer; the
            // retry served it within a few hundred µs and the timer
            // popped, dead, milliseconds after the run was over.
            assert!(
                drained.clock_ns > drained.finished_ns + 1_000_000,
                "clock {} vs end {}",
                drained.clock_ns,
                drained.finished_ns
            );
        }
    }
}

/// `plan` with every beam's replicas listed out, one after another: the
/// form `PlanBuilder` compiled before a beam carried its copy count.
fn materialised(plan: &QueryPlan) -> QueryPlan {
    let expand = |s: &Segment| s.beam().map(|b| b.iter().collect::<Vec<_>>());
    QueryPlan::new(
        plan.segments()
            .iter()
            .map(|s| match (s, expand(s)) {
                (Segment::Io { .. }, Some(reqs)) => Segment::io(reqs),
                (
                    Segment::Overlapped {
                        total_us, fanout, ..
                    },
                    Some(reqs),
                ) => Segment::overlapped(*total_us, *fanout, reqs),
                (other, _) => other.clone(),
            })
            .collect(),
    )
}

/// A replicated beam is held once and replayed as its materialised copies
/// would be: under every profile (retries and hedges name reads of the
/// expanded beam), blocking and overlapped, alone and under contention,
/// with a deadline some beams start past: metrics, registry and both
/// trace exports are byte-equal.
#[test]
fn replicated_beams_replay_as_their_materialised_copies() {
    use sann_obs::export::{chrome_trace, jsonl};
    let replicated = |reqs, copies| Segment::Io { reqs, copies };
    let plans = [
        QueryPlan::new(vec![
            Segment::cpu(20.0),
            replicated(reads(0, 4), 3),
            Segment::cpu(400.0),
            replicated(reads(64, 2), 5),
            Segment::cpu(10.0),
        ]),
        QueryPlan::new(vec![
            Segment::cpu(10.0),
            replicated(reads(0, 2), 2),
            Segment::Overlapped {
                total_us: 30.0,
                fanout: 2,
                reqs: reads(128, 3),
                copies: 4,
            },
            Segment::write(reads(1 << 18, 2)),
            Segment::cpu(5.0),
        ]),
    ];
    let flat: Vec<QueryPlan> = plans.iter().map(materialised).collect();
    for (plan, old) in plans.iter().zip(&flat) {
        assert_ne!(plan, old);
        assert_eq!(plan.io_count(), old.io_count());
        assert_eq!(plan.read_bytes(), old.read_bytes());
    }
    let (mut skipped, mut hedged, mut retried) = (false, false, false);
    for profile in FaultProfile::all() {
        for clients in [1, 16] {
            let config = RunConfig {
                cores: 4,
                concurrency: clients,
                duration_us: 0.03e6,
                faults: FaultConfig {
                    profile,
                    io_deadline_us: 300.0,
                    hedge_after_us: 20.0,
                    ..FaultConfig::default()
                },
                ..RunConfig::default()
            };
            let what = format!("{} / c{clients}", profile.name);
            let run = Executor::new(config).run_traced(&plans, TraceLevel::Io);
            let reference = Executor::new(config).run_traced(&flat, TraceLevel::Io);
            assert!(run.metrics.completed > 0, "{what}");
            assert!(
                run.metrics.canonical_bytes() == reference.metrics.canonical_bytes(),
                "{what}: metrics differ"
            );
            assert!(
                run.registry.canonical_bytes() == reference.registry.canonical_bytes(),
                "{what}: registries differ"
            );
            assert!(
                chrome_trace(&run.trace) == chrome_trace(&reference.trace),
                "{what}: Chrome exports differ"
            );
            assert!(
                jsonl(&run.trace) == jsonl(&reference.trace),
                "{what}: JSONL exports differ"
            );
            // The first plan's 400 µs of compute puts its second beam past
            // the 300 µs deadline, so every active profile skips it whole.
            let f = &run.metrics.fault;
            skipped |= f.deadline_skips >= 10;
            hedged |= f.hedges_issued > 0;
            retried |= f.retries > 0;
        }
    }
    assert!(
        skipped && hedged && retried,
        "the sweep must skip, hedge and retry"
    );
}
