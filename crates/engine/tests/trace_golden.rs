//! Golden-file and schema tests for the trace exporters.
//!
//! A tiny, fully deterministic run is exported with both exporters and
//! compared byte-for-byte against files committed under
//! `tests/golden/`. Regenerate after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sann-engine --test trace_golden
//! ```

mod common;

use common::{check_golden, render_registry};
use sann_engine::{Executor, QueryPlan, RunConfig, Segment, TracedRun};
use sann_index::IoReq;
use sann_obs::export::{chrome_trace, jsonl};
use sann_obs::TraceLevel;

/// The pinned scenario: two plans (one storage query with a rerank pass,
/// one cache-friendly read), four closed-loop clients over a 2-core host
/// with an admission cap so every phase — queue wait included — appears.
fn golden_run(level: TraceLevel) -> TracedRun {
    let storage = QueryPlan::new(vec![
        Segment::cpu(20.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        Segment::cpu(10.0),
    ]);
    let cached = QueryPlan::new(vec![
        Segment::cpu(5.0),
        Segment::io(vec![IoReq::new(4096, 4096)]),
    ]);
    let config = RunConfig {
        cores: 2,
        concurrency: 4,
        duration_us: 2_000.0,
        max_concurrent: 2,
        cache_bytes: 1 << 20,
        ..RunConfig::default()
    };
    Executor::new(config).run_traced(&[storage, cached], level)
}

#[test]
fn trace_json_matches_golden_byte_for_byte() {
    let run = golden_run(TraceLevel::Io);
    run.trace.validate().unwrap();
    check_golden("trace.json", &chrome_trace(&run.trace));
}

#[test]
fn trace_jsonl_matches_golden_byte_for_byte() {
    let run = golden_run(TraceLevel::Io);
    check_golden("trace.jsonl", &jsonl(&run.trace));
}

/// The registry's counters and histogram counts, pinned by value: the
/// untraced run every figure pays for keeps the same ledger as ever.
#[test]
fn registry_matches_golden() {
    let run = golden_run(TraceLevel::Off);
    check_golden("trace_registry.txt", &render_registry(&run.registry));
}

#[test]
fn identical_runs_export_identical_bytes() {
    let a = golden_run(TraceLevel::Io);
    let b = golden_run(TraceLevel::Io);
    assert_eq!(chrome_trace(&a.trace), chrome_trace(&b.trace));
    assert_eq!(jsonl(&a.trace), jsonl(&b.trace));
    assert_eq!(a.metrics.canonical_bytes(), b.metrics.canonical_bytes());
    assert_eq!(a.registry.canonical_bytes(), b.registry.canonical_bytes());
}

/// Chrome-format schema check, line by line: every `B` event has a
/// matching `E` on the same track in stack order, and every event is
/// well-formed enough for Perfetto's JSON importer (one event per line,
/// ph/ts/pid/tid fields present).
#[test]
fn chrome_events_pair_and_nest_in_stack_order() {
    let run = golden_run(TraceLevel::Io);
    let out = chrome_trace(&run.trace);

    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }

    let mut stacks: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    let mut b_events = 0usize;
    let mut e_events = 0usize;
    for line in out.lines() {
        let line = line.trim_end_matches(',');
        let Some(ph) = field(line, "ph") else {
            continue;
        };
        if ph == "M" {
            continue;
        }
        let tid = field(line, "tid").expect("event without tid").to_string();
        let name = field(line, "name").expect("event without name").to_string();
        assert!(field(line, "ts").is_some(), "event without ts: {line}");
        match ph {
            "B" => {
                b_events += 1;
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                e_events += 1;
                let top = stacks
                    .get_mut(&tid)
                    .and_then(|s| s.pop())
                    .unwrap_or_else(|| panic!("E without open B on tid {tid}: {line}"));
                assert_eq!(top, name, "E must close the innermost open span");
            }
            "X" => {
                // Complete events must appear while their query span is
                // open on the same track.
                let open = stacks.get(&tid).map_or(0, Vec::len);
                assert!(open > 0, "X event outside any open span: {line}");
            }
            other => panic!("unexpected event type {other}: {line}"),
        }
    }
    assert!(b_events > 0);
    assert_eq!(b_events, e_events, "every B must have a matching E");
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
}

/// Structural schema check on the trace itself: children nest within
/// parents and I/O events fall inside their owning span's interval
/// (`Trace::validate`), and every in-latency phase child partitions its
/// root span exactly.
#[test]
fn spans_partition_each_query_latency() {
    let run = golden_run(TraceLevel::Io);
    run.trace.validate().unwrap();
    let mut roots = 0;
    for root in run
        .trace
        .spans
        .iter()
        .filter(|s| matches!(s.name, sann_obs::SpanName::Query { .. }))
    {
        roots += 1;
        let child_ns: u64 = run
            .trace
            .query_spans(root.query)
            .filter(|s| matches!(s.name, sann_obs::SpanName::Phase(_)))
            .map(|s| s.duration_ns())
            .sum();
        assert_eq!(
            child_ns,
            root.duration_ns(),
            "phase children of query {} must cover its span exactly",
            root.query
        );
    }
    assert!(roots >= 4, "scenario must complete several queries");
    // The scenario exercises the full phase taxonomy except Delay.
    for phase in [
        sann_obs::Phase::QueueWait,
        sann_obs::Phase::Compute,
        sann_obs::Phase::BeamIssue,
        sann_obs::Phase::FlashService,
        sann_obs::Phase::CacheHit,
        sann_obs::Phase::Rerank,
    ] {
        assert!(
            run.trace
                .spans
                .iter()
                .any(|s| s.name == sann_obs::SpanName::Phase(phase)),
            "scenario must exercise phase {phase}"
        );
    }
}
