//! `vdbbench explore` — the I/O design-space sweep (DESIGN.md §13).
//!
//! Runs one tuned setup's query set under every [`IoStrategy`] in
//! {naive, paged} × {no-prefetch, look-ahead} × {phased, pipelined} and
//! reports what each point of the design space buys: planned I/Os per
//! query, device reads per query, read amplification, recall@10, and
//! tail latency. The tuned search knobs are held fixed across the sweep
//! (every strategy returns identical top-k — the equivalence property
//! tests in `sann-index` enshrine this), so the deltas between rows are
//! purely the I/O policy. Everything derives from deterministic
//! simulation state, so the report — and the `explore_*.csv` files
//! written under `--results` — is byte-identical across identical
//! invocations.

use crate::cli::SubFlags;
use crate::context::{BenchContext, Search};
use crate::report::{num, Table};
use sann_core::{cast, Result};
use sann_datagen::DatasetSpec;
use sann_engine::RunMetrics;
use sann_index::{IoStrategy, TraceStep};
use sann_obs::Phase;
use sann_vdb::SetupKind;

/// One point of the design space, fully measured.
pub struct SweepRow {
    /// The strategy this row measured.
    pub strat: IoStrategy,
    /// Recall@10 at the tuned knobs under this strategy.
    pub recall: f64,
    /// Mean trace-level read requests per query (before plan compilation).
    pub trace_ios: f64,
    /// Mean trace-level bytes read per query.
    pub trace_bytes: f64,
    /// Mean overlapped (in-flight-under-compute) steps per query.
    pub overlap_steps: f64,
    /// The engine run at the sweep's concurrency.
    pub metrics: RunMetrics,
}

impl SweepRow {
    /// Device reads per completed query (after the page cache).
    pub fn device_reads_per_query(&self) -> f64 {
        if self.metrics.completed == 0 {
            0.0
        } else {
            cast::f64_from_u64(self.metrics.io_stats.reads)
                / cast::f64_from_u64(self.metrics.completed)
        }
    }
}

/// Measures every strategy in [`IoStrategy::all`] on `spec`: one pass over
/// the query set per strategy at the setup's tuned knobs yields both recall
/// and traces, whose compiled plans are executed under the setup's DB
/// profile at `clients` closed-loop clients.
///
/// # Errors
///
/// Propagates build/tune/search errors, and rejects concurrencies the
/// setup's profile does not support.
pub fn sweep(
    ctx: &mut BenchContext,
    spec: &DatasetSpec,
    kind: SetupKind,
    clients: usize,
) -> Result<Vec<SweepRow>> {
    let prepared = ctx.prepare(&[(spec, kind)])?.remove(0);
    let tuned = prepared.setup.params.search_params();
    let jobs: Vec<Search> = IoStrategy::all()
        .into_iter()
        .map(|strat| (&prepared, tuned.with_io(strat)))
        .collect();
    // Keep each strategy's mean trace-level reads, bytes and overlapped
    // steps per query.
    let swept = ctx.sweep(&jobs, &[clients], |traces| {
        let n = cast::f64_from_usize(traces.len().max(1));
        let ios = traces.iter().map(|t| t.io_count()).sum::<u64>();
        let bytes = traces.iter().map(|t| t.read_bytes()).sum::<u64>();
        let steps = traces.iter().flat_map(|t| &t.steps);
        let overlapped = steps.filter(|s| matches!(s, TraceStep::Overlapped { .. }));
        let mean = |total: u64| cast::f64_from_u64(total) / n;
        (
            mean(ios),
            mean(bytes),
            cast::f64_from_usize(overlapped.count()) / n,
        )
    })?;
    let rows = jobs.iter().zip(swept).flat_map(|(&(_, params), s)| {
        let (trace_ios, trace_bytes, overlap_steps) = s.digest;
        s.runs.into_iter().map(move |metrics| SweepRow {
            strat: params.io,
            recall: s.recall,
            trace_ios,
            trace_bytes,
            overlap_steps,
            metrics,
        })
    });
    Ok(rows.collect())
}

/// Runs the subcommand on `flags.setup` at `flags.clients` clients.
///
/// # Errors
///
/// Rejects a client count the setup's profile does not support and
/// propagates build/search/filesystem errors.
pub fn run(ctx: &mut BenchContext, flags: &SubFlags) -> Result<String> {
    let (kind, clients) = (flags.setup, flags.clients);
    let spec = ctx.first_spec()?;
    let rows = sweep(ctx, &spec, kind, clients)?;

    let mut table = Table::new([
        "strategy",
        "trace_ios_q",
        "overlap_steps_q",
        "recall",
        "ios_q",
        "device_reads_q",
        "read_amp",
        "qps",
        "mean_us",
        "p99_us",
    ]);
    for r in &rows {
        let m = &r.metrics;
        table.row([
            r.strat.label(),
            format!("{:.2}", r.trace_ios),
            format!("{:.2}", r.overlap_steps),
            format!("{:.4}", r.recall),
            format!("{:.2}", m.ios_per_query),
            format!("{:.2}", r.device_reads_per_query()),
            format!("{:.4}", m.read_amplification()),
            num(m.qps),
            num(m.mean_latency_us),
            num(m.p99_latency_us),
        ]);
    }

    // Where each strategy's time goes: the pipelined rows shift flash
    // service into compute (I/O hidden under distance evaluation) — the
    // attribution the executor asserts sums to latency exactly.
    let mut phases = Table::new([
        "strategy",
        "queue_wait_us",
        "compute_us",
        "beam_issue_us",
        "flash_service_us",
        "cache_hit_us",
        "rerank_us",
        "delay_us",
    ]);
    for r in &rows {
        let b = &r.metrics.phase_breakdown;
        let mut cells = vec![r.strat.label()];
        cells.extend(Phase::ALL.iter().map(|p| format!("{:.2}", b.mean_us(*p))));
        phases.row(cells);
    }

    ctx.write_csv("explore_sweep.csv", &table.to_csv())?;
    ctx.write_csv("explore_phases.csv", &phases.to_csv())?;

    let mut out = format!(
        "I/O design-space sweep: {} on {} at {clients} clients\n\
         (layout x prefetch x pipelining; tuned knobs held fixed)\n\n",
        kind.name(),
        spec.name,
    );
    out.push_str(&table.to_text());
    out.push_str("\nPer-query phase attribution (mean µs):\n");
    out.push_str(&phases.to_text());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_index::LayoutKind;

    fn test_ctx() -> BenchContext {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.2e6;
        ctx
    }

    /// The full sweep of the default setup at four clients.
    fn sweep4(ctx: &mut BenchContext) -> Vec<SweepRow> {
        let spec = ctx.first_spec().unwrap();
        sweep(ctx, &spec, SubFlags::default().setup, 4).unwrap()
    }

    #[test]
    fn sweep_covers_all_strategies_and_holds_recall() {
        let mut ctx = test_ctx();
        let rows = sweep4(&mut ctx);
        assert_eq!(rows.len(), 8, "the full 2x2x2 design space");
        let baseline = &rows[0];
        assert_eq!(baseline.strat, IoStrategy::default(), "baseline first");
        for r in &rows {
            // Identical top-k => identical recall, bit for bit.
            assert_eq!(
                r.recall,
                baseline.recall,
                "{} changed what the search answers",
                r.strat.label()
            );
            assert!(r.metrics.completed > 0, "{} ran", r.strat.label());
        }
    }

    #[test]
    fn full_stack_beats_baseline_on_device_reads() {
        // The acceptance criterion: paged + look-ahead + pipelined reaches
        // baseline recall with measurably fewer device reads per query.
        let mut ctx = test_ctx();
        let rows = sweep4(&mut ctx);
        let baseline = rows
            .iter()
            .find(|r| r.strat == IoStrategy::default())
            .unwrap();
        let full = rows
            .iter()
            .find(|r| {
                r.strat.layout == LayoutKind::Paged && r.strat.look_ahead && r.strat.pipelined
            })
            .unwrap();
        assert!(full.recall >= baseline.recall);
        assert!(
            full.device_reads_per_query() < baseline.device_reads_per_query(),
            "paged+la+pipe must read less: {} vs naive {}",
            full.device_reads_per_query(),
            baseline.device_reads_per_query()
        );
        assert!(
            full.trace_ios < baseline.trace_ios,
            "co-location must shrink the planned request stream"
        );
    }

    #[test]
    fn report_is_byte_stable_and_exports_csvs() {
        let mut ctx = test_ctx();
        let dir = std::env::temp_dir().join(format!("sann-explore-{}", std::process::id()));
        ctx.results_dir = dir.clone();
        let text = run(&mut ctx, &SubFlags::with_clients(4)).unwrap();
        for label in ["naive", "paged+la+pipe", "flash_service_us"] {
            assert!(text.contains(label), "report must mention {label}");
        }
        for csv in ["explore_sweep.csv", "explore_phases.csv"] {
            let body = std::fs::read_to_string(dir.join(csv)).unwrap();
            assert_eq!(body.lines().count(), 9, "{csv}: 8 strategies + header");
        }
        let mut again = test_ctx();
        again.results_dir = dir.clone();
        let text2 = run(&mut again, &SubFlags::with_clients(4)).unwrap();
        assert_eq!(text, text2, "explore must be byte-identical across runs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_rows_shift_time_from_flash_service_to_overlap() {
        let mut ctx = test_ctx();
        let rows = sweep4(&mut ctx);
        let phased = rows
            .iter()
            .find(|r| r.strat == IoStrategy::default())
            .unwrap();
        let piped = rows
            .iter()
            .find(|r| {
                r.strat.layout == LayoutKind::Naive && !r.strat.look_ahead && r.strat.pipelined
            })
            .unwrap();
        assert!(piped.overlap_steps > 0.0, "pipelined traces must overlap");
        assert_eq!(phased.overlap_steps, 0.0, "phased traces never overlap");
        let fs = |r: &SweepRow| r.metrics.phase_breakdown.mean_us(Phase::FlashService);
        assert!(
            fs(piped) < fs(phased),
            "pipelining must hide flash time under compute: {} vs {}",
            fs(piped),
            fs(phased)
        );
    }
}
