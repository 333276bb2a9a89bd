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
use crate::context::{search_all, BenchContext, K};
use crate::report::{num, Table};
use sann_core::Result;
use sann_datagen::DatasetSpec;
use sann_engine::RunMetrics;
use sann_vdb::SetupKind;

/// The `search_list` ladder of the paper's Fig. 7–11 x-axis.
pub const SEARCH_LIST_LADDER: &[usize] = &[10, 20, 40, 60, 80, 100];

/// The `beam_width` ladder of the paper's Fig. 12–15 x-axis.
pub const BEAM_WIDTH_LADDER: &[usize] = &[1, 2, 4, 8, 16];

/// `search_list` used throughout the beam-width sweep (paper: 100).
pub const SEARCH_LIST: usize = 100;

/// One measured point of the sweep.
pub struct SweepPoint {
    /// `search_list` at this point.
    pub search_list: usize,
    /// `beam_width` at this point.
    pub beam_width: usize,
    /// Recall@10 at this value.
    pub recall: f64,
    /// Metrics at concurrency 1.
    pub c1: RunMetrics,
    /// Metrics at concurrency 256.
    pub c256: RunMetrics,
}

/// Runs Milvus-DiskANN on `spec` for each `(search_list, beam_width)` in
/// `values`, at concurrency 1 and 256. Each point searches the query set
/// once: recall and the replayed traces come from the same calls.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn sweep_diskann(
    ctx: &mut BenchContext,
    spec: &DatasetSpec,
    values: &[(usize, usize)],
) -> Result<Vec<SweepPoint>> {
    let kind = SetupKind::MilvusDiskann;
    let builder = ctx.plan_builder_for(spec, kind);
    let (data, prepared) = ctx.dataset_and_setup(spec, kind)?;
    let mut points = Vec::with_capacity(values.len());
    for &(search_list, beam_width) in values {
        // Override the knobs on a copy; reuse the cached index.
        let mut params = prepared.setup.params;
        params.search_list = search_list;
        params.beam_width = beam_width;
        let index = prepared.index.as_ref();
        let (recall, traces) = search_all(
            index,
            &data.queries,
            &data.truth,
            K,
            &params.search_params(),
        )?;
        let plans = builder.build_all(&traces);
        points.push(SweepPoint {
            search_list,
            beam_width,
            recall,
            c1: ctx.run(kind, &plans, 1)?,
            c256: ctx.run(kind, &plans, 256)?,
        });
    }
    Ok(points)
}

/// What a panel plots: its value columns and one sweep point's cells.
type Series = (&'static [&'static str], fn(&SweepPoint) -> Vec<String>);

const QPS: Series = (&["qps_c1", "qps_c256"], |p| {
    vec![num(p.c1.qps), num(p.c256.qps)]
});
const P99: Series = (&["p99_us_c1"], |p| vec![num(p.c1.p99_latency_us)]);
const RECALL: Series = (&["recall@10"], |p| vec![format!("{:.3}", p.recall)]);
const BANDWIDTH: Series = (&["MiB/s_c1", "MiB/s_c256"], |p| {
    vec![num(p.c1.mean_bandwidth_mib), num(p.c256.mean_bandwidth_mib)]
});
const PER_QUERY: Series = (&["per_query_MiB/s_c1", "per_query_MiB/s_c256"], |p| {
    let cell = |m: &RunMetrics| format!("{:.3}", m.per_query_bandwidth_mib());
    vec![cell(&p.c1), cell(&p.c256)]
});

/// Sweeps `values` on every dataset and renders one table per panel —
/// figure number, what it plots, series — keyed by the `knob` column, whose
/// value `x` reads off a point.
fn render(
    ctx: &mut BenchContext,
    (knob, x): (&str, fn(&SweepPoint) -> usize),
    values: &[(usize, usize)],
    panels: &[(usize, &str, Series)],
) -> Result<String> {
    let header = |(_, _, (columns, _)): &(usize, &str, Series)| {
        Table::new(["dataset", knob].into_iter().chain(columns.iter().copied()))
    };
    let mut tables: Vec<Table> = panels.iter().map(header).collect();
    for spec in ctx.dataset_specs() {
        for point in sweep_diskann(ctx, &spec, values)? {
            for (table, (_, _, (_, cells))) in tables.iter_mut().zip(panels) {
                let key = [spec.name.clone(), x(&point).to_string()];
                table.row(key.into_iter().chain(cells(&point)));
            }
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

    fn tiny_ctx() -> (BenchContext, DatasetSpec) {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.5e6;
        let spec = ctx.dataset_specs().remove(0);
        (ctx, spec)
    }

    #[test]
    fn sweep_shows_monotone_io_growth() {
        let (mut ctx, spec) = tiny_ctx();
        let points = sweep_diskann(&mut ctx, &spec, &[(10, 4), (100, 4)]).unwrap();
        assert!(
            points[1].recall >= points[0].recall - 0.01,
            "recall must not drop"
        );
        assert!(
            points[1].c1.read_bytes_per_query > 1.5 * points[0].c1.read_bytes_per_query,
            "larger search_list must read much more"
        );
        assert!(points[1].c1.qps < points[0].c1.qps, "and cost throughput");
    }

    #[test]
    fn wider_beams_cut_single_thread_latency() {
        let (mut ctx, spec) = tiny_ctx();
        let points = sweep_diskann(&mut ctx, &spec, &[(SEARCH_LIST, 1), (SEARCH_LIST, 8)]).unwrap();
        assert!(
            points[1].c1.p99_latency_us < points[0].c1.p99_latency_us,
            "W=8 {} should beat W=1 {}",
            points[1].c1.p99_latency_us,
            points[0].c1.p99_latency_us
        );
    }
}
