//! The runtime determinism audit: run a small sweep twice, demand
//! byte-identical metrics.
//!
//! The audit builds two completely fresh [`BenchContext`]s (nothing shared,
//! not even caches), prepares the same storage-based and memory-based setups
//! on the same seeded dataset, validates every query trace against the
//! structural invariants ([`sann_index::QueryTrace::validate`]), and then
//! compares [`sann_engine::RunMetrics::canonical_bytes`] of every
//! (setup × concurrency) cell byte for byte. Any drift — a stray wall-clock
//! read, an unordered
//! iteration, a NaN-order flip — shows up as a byte diff long before it
//! would be visible in rounded report tables. The first pass runs on one
//! worker thread and the second fans every prep build, search and replay
//! out over two, so the thread count is part of what the diff covers.
//!
//! The audit also replays one fully-traced run per setup and byte-diffs
//! the observability outputs across the two passes: the Chrome/Perfetto
//! `trace.json`, the JSONL stream, and the counter/histogram registry's
//! canonical encoding. Exported traces are part of the determinism
//! contract — a timeline that changes between identical-seed runs is as
//! much a bug as a drifting QPS number.
//!
//! Each pass also renders the `vdbbench iostat` report (per-provenance
//! breakdown, queue-depth/utilization timelines, $/query ledger under
//! healthy and aging devices) and the `vdbbench explore` report (the I/O
//! design-space sweep over layout × prefetch × pipelining) and byte-diffs
//! the report texts plus every CSV export across passes.
//!
//! Finally the audit sweeps twice more with the persistent artifact cache
//! enabled against a scratch directory — once cold (populating it) and once
//! warm (replaying prep from disk) — and demands both match the uncached
//! baseline byte for byte. A cache that changes any simulated number is a
//! correctness bug, not an optimization.

use sann_bench::cli::SubFlags;
use sann_bench::BenchContext;
use sann_engine::FaultProfile;
use sann_obs::export::{chrome_trace, jsonl};
use sann_obs::TraceLevel;
use sann_vdb::SetupKind;

/// Dataset the audit sweeps (smallest in the catalog).
const DATASET: &str = "cohere-s";

/// Scale factor: tiny, the audit is about determinism, not fidelity.
const SCALE: f64 = 0.001;

/// Simulated duration per cell, µs.
const DURATION_US: f64 = 0.2e6;

/// Fig. 2-style concurrency sweep points.
const CONCURRENCIES: &[usize] = &[1, 8];

/// Setups exercised: one storage-based (DiskANN beams through the SSD
/// model) and one memory-based (IVF through the CPU path).
const KINDS: &[SetupKind] = &[SetupKind::MilvusDiskann, SetupKind::MilvusIvf];

/// One measured cell of the sweep.
struct Cell {
    label: String,
    bytes: Vec<u8>,
}

/// Runs the audit.
///
/// # Errors
///
/// Returns a description of the first trace-invariant violation or metric
/// byte-divergence found.
pub fn run() -> Result<String, String> {
    // Every replay fans out over the pass's worker threads: the output must
    // not depend on how many there are.
    let first = sweep(None, FaultProfile::none(), 1)?;
    let second = sweep(None, FaultProfile::none(), 2)?;
    let mut audited = compare_passes("second run (2 threads)", &first, &second)?;
    // Artifact-cache invariance: a cold cached pass (populating a scratch
    // directory) and a warm pass (replaying prep from it) must both match
    // the uncached baseline exactly.
    let cache_dir =
        std::env::temp_dir().join(format!("sann-determinism-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cold = sweep(Some(&cache_dir), FaultProfile::none(), 2)?;
    let warm = sweep(Some(&cache_dir), FaultProfile::none(), 1)?;
    let _ = std::fs::remove_dir_all(&cache_dir);
    audited += compare_passes("cache-cold run", &first, &cold)?;
    audited += compare_passes("cache-warm run", &first, &warm)?;
    // Fault injection is part of the determinism contract: a faulted run is
    // byte-reproducible under a fixed seed, and it must actually perturb
    // the storage-based cells (a flaky sweep identical to the clean one
    // means injection silently turned itself off).
    let flaky_a = sweep(None, FaultProfile::flaky(), 1)?;
    let flaky_b = sweep(None, FaultProfile::flaky(), 2)?;
    audited += compare_passes("flaky fault-profile replay", &flaky_a, &flaky_b)?;
    if flaky_a.iter().zip(&first).all(|(f, c)| f.bytes == c.bytes) {
        return Err("flaky fault profile left every cell untouched".into());
    }
    Ok(format!(
        "determinism: PASS — {} cells byte-identical across two seeded runs at 1 and 2 threads plus cold/warm artifact-cache replays, and a flaky fault-profile sweep replayed byte-for-byte ({audited} metric bytes compared)",
        first.len()
    ))
}

/// Byte-diffs one pass against the baseline; returns bytes compared.
fn compare_passes(what: &str, baseline: &[Cell], pass: &[Cell]) -> Result<usize, String> {
    if baseline.len() != pass.len() {
        return Err(format!(
            "sweep shape diverged on {what}: {} cells vs {}",
            baseline.len(),
            pass.len()
        ));
    }
    let mut audited = 0usize;
    for (a, b) in baseline.iter().zip(pass) {
        if a.label != b.label {
            return Err(format!(
                "cell order diverged on {what}: {} vs {}",
                a.label, b.label
            ));
        }
        if a.bytes != b.bytes {
            let byte = a.bytes.iter().zip(&b.bytes).position(|(x, y)| x != y);
            return Err(format!(
                "metrics diverged on {what} at {}: first difference at byte {:?} of {}",
                a.label,
                byte,
                a.bytes.len()
            ));
        }
        audited += a.bytes.len();
    }
    Ok(audited)
}

/// One full pass: fresh context, validated traces, canonical metrics.
/// `cache_dir` enables the persistent artifact cache for the pass;
/// `fault_profile` injects SSD faults for the pass (the plans and traces
/// are fault-agnostic, only the simulated runs react).
fn sweep(
    cache_dir: Option<&std::path::Path>,
    fault_profile: FaultProfile,
    threads: usize,
) -> Result<Vec<Cell>, String> {
    let mut ctx = BenchContext::new(SCALE);
    ctx.only_dataset = Some(DATASET.to_string());
    ctx.duration_us = DURATION_US;
    ctx.fault_profile = fault_profile;
    ctx.threads = threads;
    if let Some(dir) = cache_dir {
        ctx.enable_cache(dir);
    }
    let spec = ctx
        .dataset_specs()
        .into_iter()
        .next()
        .ok_or_else(|| format!("dataset {DATASET} missing from catalog"))?;

    let pairs: Vec<_> = KINDS.iter().map(|&kind| (&spec, kind)).collect();
    let prepared = ctx
        .prepare(&pairs)
        .map_err(|e| format!("prepare {KINDS:?}: {e}"))?;
    let jobs: Vec<_> = prepared
        .iter()
        .map(|p| (p, p.setup.params.search_params()))
        .collect();
    let traced = ctx
        .sweep(&jobs, &[], |traces| traces)
        .map_err(|e| format!("trace {KINDS:?}: {e}"))?;
    for ((prepared, params), traced) in jobs.iter().zip(&traced) {
        let kind = prepared.setup.kind;
        // DiskANN promises one beam of at most `beam_width` sector reads per
        // hop; memory-based setups have no beam bound.
        let max_beam = if kind.is_storage_based() {
            params.beam_width
        } else {
            0
        };
        for (qi, trace) in traced.digest.iter().enumerate() {
            trace
                .validate(max_beam)
                .map_err(|e| format!("{} query {qi}: invalid trace: {e}", kind.name()))?;
        }
    }
    let concurrency = *CONCURRENCIES
        .last()
        .ok_or_else(|| "empty concurrency sweep".to_string())?;
    let mut cells = Vec::new();
    for &kind in KINDS {
        // One fully-traced run per setup: both exporters plus the
        // registry must be byte-identical across the two passes.
        let plans = ctx
            .plans(&spec, kind)
            .map_err(|e| format!("plans {kind:?}: {e}"))?;
        let point = ctx.point(kind, &plans, concurrency);
        let Ok(traced) = ctx.run_traced(&point, TraceLevel::Io) else {
            continue; // profile rejects this concurrency; fine, both passes skip it
        };
        traced
            .trace
            .validate()
            .map_err(|e| format!("{} traced run: invalid trace: {e}", kind.name()))?;
        let label = |what: &str| format!("{}/{}/trace-{}", spec.name, kind.name(), what);
        cells.push(Cell {
            label: label("json"),
            bytes: chrome_trace(&traced.trace).into_bytes(),
        });
        cells.push(Cell {
            label: label("jsonl"),
            bytes: jsonl(&traced.trace).into_bytes(),
        });
        cells.push(Cell {
            label: label("registry"),
            bytes: traced.registry.canonical_bytes(),
        });
    }
    // Every (setup × concurrency) cell in one replay across the pass's
    // worker threads.
    let grid: Vec<_> = pairs
        .iter()
        .flat_map(|&(spec, kind)| CONCURRENCIES.iter().map(move |&c| (spec, kind, c)))
        .collect();
    let runs = ctx
        .run_tuned(&grid)
        .map_err(|e| format!("run {KINDS:?} x {CONCURRENCIES:?}: {e}"))?;
    for ((_, kind, concurrency), metrics) in grid.into_iter().zip(runs) {
        let Some(metrics) = metrics else {
            continue; // as above
        };
        cells.push(Cell {
            label: format!("{}/{}/c{}", spec.name, kind.name(), concurrency),
            bytes: metrics.canonical_bytes(),
        });
    }
    // The iostat report — provenance breakdown, device telemetry, and the
    // $/query ledger under healthy + aging devices — is part of the
    // determinism contract too: the rendered text and every CSV export
    // must replay byte-for-byte across passes.
    let results_dir =
        std::env::temp_dir().join(format!("sann-determinism-iostat-{}", std::process::id()));
    ctx.results_dir.clone_from(&results_dir);
    let flags = SubFlags::with_clients(4);
    let report = sann_bench::iostat::run(&mut ctx, &flags).map_err(|e| format!("iostat: {e}"))?;
    cells.push(Cell {
        label: format!("{}/iostat/report", spec.name),
        bytes: report.into_bytes(),
    });
    for name in [
        "iostat_provenance.csv",
        "iostat_characterization.csv",
        "iostat_cost.csv",
        "iostat_timeline.csv",
    ] {
        let bytes = std::fs::read(results_dir.join(name))
            .map_err(|e| format!("iostat export {name}: {e}"))?;
        cells.push(Cell {
            label: format!("{}/iostat/{name}", spec.name),
            bytes,
        });
    }
    // The explore report — the I/O design-space sweep over layout ×
    // prefetch × pipelining — folds in the same way: eight strategies'
    // traces, plans, and simulated runs, all replayed byte-for-byte.
    let report = sann_bench::explore::run(&mut ctx, &flags).map_err(|e| format!("explore: {e}"))?;
    cells.push(Cell {
        label: format!("{}/explore/report", spec.name),
        bytes: report.into_bytes(),
    });
    for name in ["explore_sweep.csv", "explore_phases.csv"] {
        let bytes = std::fs::read(results_dir.join(name))
            .map_err(|e| format!("explore export {name}: {e}"))?;
        cells.push(Cell {
            label: format!("{}/explore/{name}", spec.name),
            bytes,
        });
    }
    let _ = std::fs::remove_dir_all(&results_dir);
    Ok(cells)
}
