//! Figures 7–15: the effect of DiskANN's two search-time knobs on
//! throughput, P99 latency, recall, and I/O traffic (§VI) — `search_list`
//! (Figs. 7–11, §VI-A) and `beam_width` (Figs. 12–15, §VI-B). Both are the
//! same sweep over one DiskANN search loop, rendered panel by panel; the
//! `beam_width` figures simply have no recall panel.
//!
//! Following the paper's methodology, the `beam_width` sweep pins
//! `search_list` to 100 so the candidate list never starves the beam. The
//! paper observes *fluctuation without a clear trend* (O-22) on Milvus
//! because its BeamWidthRatio couples the knob to core count; our
//! simulation exposes the underlying trade cleanly (fewer, wider beams →
//! fewer round trips), so expect a mild monotone trend here instead — noted
//! in EXPERIMENTS.md.

use crate::cli::SubFlags;
use crate::context::{BenchContext, Search};
use crate::report::{num, Table};
use sann_core::Result;
use sann_datagen::DatasetSpec;
use sann_engine::RunMetrics;
use sann_index::SearchParams;
use sann_vdb::SetupKind;

/// The `search_list` ladder of the paper's Fig. 7–11 x-axis.
pub const SEARCH_LIST_LADDER: &[usize] = &[10, 20, 40, 60, 80, 100];

/// The `beam_width` ladder of the paper's Fig. 12–15 x-axis.
pub const BEAM_WIDTH_LADDER: &[usize] = &[1, 2, 4, 8, 16];

/// `search_list` used throughout the beam-width sweep (paper: 100).
pub const SEARCH_LIST: usize = 100;

/// One measured point of the sweep.
pub struct SweepPoint {
    /// The dataset swept.
    pub dataset: String,
    /// The search knobs at this point.
    pub params: SearchParams,
    /// Recall@10 at these knobs.
    pub recall: f64,
    /// Metrics at each of [`CLIENTS`].
    pub runs: Vec<RunMetrics>,
}

/// The concurrencies each point replays at: one thread, and the ladder's top.
pub const CLIENTS: [usize; 2] = [1, 256];

/// Measures Milvus-DiskANN on every dataset of `specs` at each
/// `(search_list, beam_width)` in `values`, dataset-major: one search of
/// the query set per point yields its recall and plans, replayed at each of
/// [`CLIENTS`].
///
/// # Errors
///
/// Propagates build/search errors.
pub fn sweep_diskann(
    ctx: &mut BenchContext,
    specs: &[DatasetSpec],
    values: &[(usize, usize)],
) -> Result<Vec<SweepPoint>> {
    let kind = SetupKind::MilvusDiskann;
    let prepared = ctx.prepare(&specs.iter().map(|s| (s, kind)).collect::<Vec<_>>())?;
    let mut jobs: Vec<Search> = Vec::new();
    for p in &prepared {
        for &knobs in values {
            // Override the knobs on a copy; reuse the cached index.
            let mut params = p.setup.params.search_params();
            (params.search_list, params.beam_width) = knobs;
            jobs.push((p, params));
        }
    }
    let swept = ctx.sweep(&jobs, &CLIENTS, drop)?;
    Ok(jobs
        .iter()
        .zip(swept)
        .map(|(&(p, params), s)| SweepPoint {
            dataset: p.data.spec.name.clone(),
            params,
            recall: s.recall,
            runs: s.runs,
        })
        .collect())
}

/// What a panel plots: its value columns and one sweep point's cells.
type Series = (&'static [&'static str], fn(&SweepPoint) -> Vec<String>);

const QPS: Series = (&["qps_c1", "qps_c256"], |p| {
    p.runs.iter().map(|m| num(m.qps)).collect()
});
const P99: Series = (&["p99_us_c1"], |p| vec![num(p.runs[0].p99_latency_us)]);
const RECALL: Series = (&["recall@10"], |p| vec![format!("{:.3}", p.recall)]);
const BANDWIDTH: Series = (&["MiB/s_c1", "MiB/s_c256"], |p| {
    p.runs.iter().map(|m| num(m.mean_bandwidth_mib)).collect()
});
const PER_QUERY: Series = (&["per_query_MiB/s_c1", "per_query_MiB/s_c256"], |p| {
    let cell = |m: &RunMetrics| format!("{:.3}", m.per_query_bandwidth_mib());
    p.runs.iter().map(cell).collect()
});

/// Sweeps `values` on every dataset and renders one table per panel —
/// figure number, what it plots, series — keyed by the `knob` column, whose
/// value `x` reads off a point's search knobs.
fn render(
    ctx: &mut BenchContext,
    (knob, x): (&str, fn(&SearchParams) -> usize),
    values: &[(usize, usize)],
    panels: &[(usize, &str, Series)],
) -> Result<String> {
    let header = |(_, _, (columns, _)): &(usize, &str, Series)| {
        Table::new(["dataset", knob].into_iter().chain(columns.iter().copied()))
    };
    let mut tables: Vec<Table> = panels.iter().map(header).collect();
    let specs = ctx.dataset_specs();
    for point in sweep_diskann(ctx, &specs, values)? {
        for (table, (_, _, (_, cells))) in tables.iter_mut().zip(panels) {
            let key = [point.dataset.clone(), x(&point.params).to_string()];
            table.row(key.into_iter().chain(cells(&point)));
        }
    }
    let mut out = Vec::with_capacity(panels.len());
    for (table, (fig, what, _)) in tables.iter().zip(panels) {
        ctx.write_csv(&format!("fig{fig}.csv"), &table.to_csv())?;
        out.push(format!(
            "Figure {fig}: milvus-diskann {what}\n{}",
            table.to_text()
        ));
    }
    Ok(out.join("\n"))
}

/// Renders Figs. 7–11 from one `search_list` sweep over all datasets.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn search_list(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let values: Vec<(usize, usize)> = SEARCH_LIST_LADDER.iter().map(|&l| (l, 4)).collect();
    let panels = [
        (7, "throughput vs search_list", QPS),
        (8, "P99 latency vs search_list (1 thread)", P99),
        (9, "recall@10 vs search_list", RECALL),
        (10, "total read bandwidth vs search_list", BANDWIDTH),
        (11, "per-query read bandwidth vs search_list", PER_QUERY),
    ];
    render(ctx, ("search_list", |p| p.search_list), &values, &panels)
}

/// Renders Figs. 12–15 from one `beam_width` sweep over all datasets.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn beam_width(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let values: Vec<(usize, usize)> = BEAM_WIDTH_LADDER
        .iter()
        .map(|&w| (SEARCH_LIST, w))
        .collect();
    let throughput = format!("throughput vs beam_width (search_list={SEARCH_LIST})");
    let panels = [
        (12, throughput.as_str(), QPS),
        (13, "P99 latency vs beam_width (1 thread)", P99),
        (14, "total read bandwidth vs beam_width", BANDWIDTH),
        (15, "per-query read bandwidth vs beam_width", PER_QUERY),
    ];
    render(ctx, ("beam_width", |p| p.beam_width), &values, &panels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> (BenchContext, Vec<DatasetSpec>) {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.5e6;
        let specs = ctx.dataset_specs();
        (ctx, specs)
    }

    #[test]
    fn sweep_shows_monotone_io_growth() {
        let (mut ctx, specs) = tiny_ctx();
        let points = sweep_diskann(&mut ctx, &specs, &[(10, 4), (100, 4)]).unwrap();
        assert!(
            points[1].recall >= points[0].recall - 0.01,
            "recall must not drop"
        );
        assert!(
            points[1].runs[0].read_bytes_per_query > 1.5 * points[0].runs[0].read_bytes_per_query,
            "larger search_list must read much more"
        );
        assert!(
            points[1].runs[0].qps < points[0].runs[0].qps,
            "and cost throughput"
        );
    }

    #[test]
    fn wider_beams_cut_single_thread_latency() {
        let (mut ctx, specs) = tiny_ctx();
        let points =
            sweep_diskann(&mut ctx, &specs, &[(SEARCH_LIST, 1), (SEARCH_LIST, 8)]).unwrap();
        assert!(
            points[1].runs[0].p99_latency_us < points[0].runs[0].p99_latency_us,
            "W=8 {} should beat W=1 {}",
            points[1].runs[0].p99_latency_us,
            points[0].runs[0].p99_latency_us
        );
    }
}
