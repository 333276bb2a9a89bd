//! The runtime determinism contract: identical inputs give identical bytes,
//! at any worker count, with or without the artifact cache, with or without
//! injected faults.
//!
//! Each pass builds a fresh [`BenchContext`] (nothing shared but, for the
//! cached passes, the cache directory), prepares one storage-based and one
//! memory-based setup on the same seeded dataset and yields one byte string
//! per cell: each setup's tuned knob and recall;
//! [`sann_engine::RunMetrics::canonical_bytes`] of every
//! (setup × concurrency) run; one fully traced run per setup as its
//! Chrome/Perfetto `trace.json`, its JSONL stream and its registry's
//! canonical encoding; and the `vdbbench iostat` and `vdbbench explore`
//! report texts with every CSV they export. Any drift (a stray wall-clock
//! read, an unordered iteration, a NaN-order flip, a sum whose order
//! follows the threads) shows up as a byte diff long before it would show
//! in rounded report tables.
//!
//! The clean, uncached 1-thread pass is the baseline, computed once per
//! test binary. The flaky pair and the cached pair run at 1 thread and at
//! `N = max(2, cores)` threads, so every comparison also covers the worker
//! count. Each pass writes to a scratch directory of its own: the tests of
//! this binary run concurrently in one process.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use sann_bench::cli::SubFlags;
use sann_bench::BenchContext;
use sann_engine::FaultProfile;
use sann_obs::export::{chrome_trace, jsonl};
use sann_obs::TraceLevel;
use sann_vdb::SetupKind;

type Result<T> = std::result::Result<T, Box<dyn Error + Send + Sync>>;

/// Dataset the passes sweep (smallest in the catalog).
const DATASET: &str = "cohere-s";

/// Scale factor: tiny, the passes are about determinism, not fidelity.
const SCALE: f64 = 0.001;

/// Simulated duration per cell, µs.
const DURATION_US: f64 = 0.2e6;

/// Fig. 2-style concurrency sweep points.
const CONCURRENCIES: [usize; 2] = [1, 8];

/// Clients of each traced run.
const TRACED_CLIENTS: usize = 8;

/// Setups exercised: one storage-based (DiskANN beams through the SSD
/// model) and one memory-based (IVF through the CPU path).
const KINDS: [SetupKind; 2] = [SetupKind::MilvusDiskann, SetupKind::MilvusIvf];

/// What one pass yields.
struct Pass {
    /// `(label, bytes)` per cell, in sweep order.
    cells: Vec<(String, Vec<u8>)>,
    /// The artifact cache's counters, for a cached pass.
    cache: Option<sann_bench::cache::CacheStats>,
}

/// The worker count of the multi-threaded passes.
fn many_threads() -> usize {
    sann_core::par::default_threads().max(2)
}

/// A scratch directory for `tag`, unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sann-determinism-{}-{tag}", std::process::id()))
}

/// A fresh, uncached context at the tiny fixed scale on `threads` workers.
fn context(threads: usize) -> BenchContext {
    let mut ctx = BenchContext::new(SCALE);
    ctx.only_dataset = Some(DATASET.to_string());
    ctx.duration_us = DURATION_US;
    ctx.threads = threads;
    ctx
}

/// The clean, uncached 1-thread pass every other pass is held to.
fn baseline() -> &'static Result<Pass> {
    static BASELINE: OnceLock<Result<Pass>> = OnceLock::new();
    BASELINE.get_or_init(|| sweep("baseline", None, FaultProfile::none(), 1))
}

/// One full pass on a fresh context at `threads` workers under
/// `fault_profile`, writing its reports to `scratch(tag)`. `cache_dir`
/// enables the persistent artifact cache for the pass. The plans and query
/// traces are fault-agnostic; only the simulated runs react to faults.
fn sweep(
    tag: &str,
    cache_dir: Option<&Path>,
    fault_profile: FaultProfile,
    threads: usize,
) -> Result<Pass> {
    let mut ctx = context(threads);
    ctx.fault_profile = fault_profile;
    if let Some(dir) = cache_dir {
        ctx.enable_cache(dir);
    }
    let spec = ctx.first_spec()?;
    let mut cells = Vec::new();

    let pairs: Vec<_> = KINDS.iter().map(|&kind| (&spec, kind)).collect();
    // Each setup's tuned knob and measured recall, which a warm pass loads
    // from the cache instead of measuring.
    for p in ctx.prepare(&pairs)? {
        let tuned = format!("knob {} recall {:?}", p.setup.knob(), p.recall);
        cells.push((
            format!("{}/{}/tuned", spec.name, p.setup.kind.name()),
            tuned.into_bytes(),
        ));
    }
    for kind in KINDS {
        let plans = ctx.plans(&spec, kind)?;
        let point = ctx.point(kind, &plans, TRACED_CLIENTS);
        let traced = ctx.run_traced(&point, TraceLevel::Io)?;
        traced
            .trace
            .validate()
            .map_err(|e| format!("{} traced run: {e}", kind.name()))?;
        let label = |what: &str| format!("{}/{}/trace-{what}", spec.name, kind.name());
        cells.extend([
            (label("json"), chrome_trace(&traced.trace).into_bytes()),
            (label("jsonl"), jsonl(&traced.trace).into_bytes()),
            (label("registry"), traced.registry.canonical_bytes()),
        ]);
    }

    // Every (setup × concurrency) cell in one replay across the pass's
    // worker threads.
    let grid: Vec<_> = pairs
        .iter()
        .flat_map(|&(spec, kind)| CONCURRENCIES.map(|c| (spec, kind, c)))
        .collect();
    let runs = ctx.run_tuned(&grid)?;
    for ((_, kind, clients), metrics) in grid.into_iter().zip(runs) {
        let metrics = metrics.ok_or_else(|| format!("{} refused {clients}", kind.name()))?;
        let label = format!("{}/{}/c{clients}", spec.name, kind.name());
        cells.push((label, metrics.canonical_bytes()));
    }

    // The iostat report (provenance breakdown, device telemetry, the
    // $/query ledger under healthy and aging devices) and the explore
    // report (the layout × prefetch × pipelining sweep): texts and CSVs.
    let results_dir = scratch(tag);
    ctx.results_dir.clone_from(&results_dir);
    let flags = SubFlags::with_clients(4);
    let reports = [
        (
            "iostat",
            sann_bench::iostat::run(&mut ctx, &flags)?,
            &[
                "iostat_provenance.csv",
                "iostat_characterization.csv",
                "iostat_cost.csv",
                "iostat_timeline.csv",
            ][..],
        ),
        (
            "explore",
            sann_bench::explore::run(&mut ctx, &flags)?,
            &["explore_sweep.csv", "explore_phases.csv"][..],
        ),
    ];
    for (report, text, csvs) in reports {
        cells.push((format!("{}/{report}/report", spec.name), text.into_bytes()));
        for name in csvs {
            let bytes = std::fs::read(results_dir.join(name))?;
            cells.push((format!("{}/{report}/{name}", spec.name), bytes));
        }
    }
    std::fs::remove_dir_all(&results_dir).ok();
    Ok(Pass {
        cells,
        cache: ctx.cache_stats(),
    })
}

/// Asserts `pass` yields the same cells as `base`, byte for byte.
fn assert_same(what: &str, base: &Pass, pass: &Pass) {
    let labels = |p: &Pass| p.cells.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>();
    assert_eq!(
        labels(base),
        labels(pass),
        "{what}: the sweep's shape diverged"
    );
    for ((label, a), (_, b)) in base.cells.iter().zip(&pass.cells) {
        let first = a.iter().zip(b).position(|(x, y)| x != y);
        assert!(
            a == b,
            "{what}: {label} diverged, first difference at byte {first:?} of {}",
            a.len()
        );
    }
}

/// The structural invariants of every query trace of every setup
/// ([`sann_index::QueryTrace::validate`]: sector-aligned, sector-sized
/// reads; storage beams within `beam_width`) and of each setup's traced run
/// ([`sann_obs::Trace::validate`]: balanced, nested, in-horizon spans).
#[test]
fn every_prepared_trace_validates() {
    let mut ctx = context(many_threads());
    let spec = ctx.first_spec().unwrap();
    let pairs = SetupKind::all().map(|kind| (&spec, kind));
    let prepared = ctx.prepare(&pairs).unwrap();
    let jobs: Vec<_> = prepared
        .iter()
        .map(|p| (p, p.setup.params.search_params()))
        .collect();
    let traced = ctx.sweep(&jobs, &[], |traces| traces).unwrap();
    for ((prepared, params), traced) in jobs.iter().zip(&traced) {
        let kind = prepared.setup.kind;
        // A storage setup issues one beam of at most `beam_width` sector
        // reads per hop; memory-based setups have no beam bound.
        let max_beam = if kind.is_storage_based() {
            params.beam_width
        } else {
            0
        };
        assert!(!traced.digest.is_empty(), "{}: no traces", kind.name());
        for (qi, trace) in traced.digest.iter().enumerate() {
            if let Err(e) = trace.validate(max_beam) {
                panic!("{} query {qi}: {e}", kind.name());
            }
        }
    }
    for kind in SetupKind::all() {
        let plans = ctx.plans(&spec, kind).unwrap();
        let point = ctx.point(kind, &plans, TRACED_CLIENTS);
        let traced = ctx.run_traced(&point, TraceLevel::Io).unwrap();
        if let Err(e) = traced.trace.validate() {
            panic!("{} traced run: {e}", kind.name());
        }
    }
}

/// A faulted run is byte-reproducible under a fixed seed at any worker
/// count, and the faults really perturb it: a flaky pass identical to the
/// clean one means injection silently turned itself off.
#[test]
fn a_flaky_sweep_replays_byte_for_byte_at_any_thread_count() {
    let one = sweep("flaky-1", None, FaultProfile::flaky(), 1).unwrap();
    let many = sweep("flaky-n", None, FaultProfile::flaky(), many_threads()).unwrap();
    assert_same("flaky pass at N threads", &one, &many);
    let base = baseline().as_ref().unwrap();
    assert!(
        one.cells.iter().zip(&base.cells).any(|(f, c)| f != c),
        "the flaky fault profile left every cell untouched"
    );
}

/// A cold cached pass (filling a scratch cache at N threads) and a warm one
/// (replaying prep from it at 1 thread) both match the uncached pass: a
/// cache that changes any simulated number is a bug, not an optimization.
#[test]
fn cached_passes_match_the_uncached_pass() {
    let cache = scratch("cache");
    std::fs::remove_dir_all(&cache).ok();
    let cold = sweep("cold", Some(&cache), FaultProfile::none(), many_threads());
    let warm = sweep("warm", Some(&cache), FaultProfile::none(), 1);
    std::fs::remove_dir_all(&cache).ok();
    let base = baseline().as_ref().unwrap();
    assert_same("cold cached pass", base, &cold.unwrap());
    let warm = warm.unwrap();
    assert_same("warm cached pass", base, &warm);
    let stats = warm.cache.unwrap();
    assert!(stats.hits > 0 && stats.misses == 0, "{stats:?}");
}
