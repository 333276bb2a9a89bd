//! Figures 2, 3, and 4: throughput, P99 tail latency, and CPU usage of all
//! seven setups as query concurrency grows from 1 to 256 (§IV).

use crate::cli::SubFlags;
use crate::context::BenchContext;
use crate::report::{num, Table};
use sann_core::Result;
use sann_engine::RunMetrics;
use sann_vdb::SetupKind;

/// The concurrency ladder used in Figs. 2–4 (1..256 query threads).
pub const CONCURRENCY_LADDER: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Fig. 2: throughput (QPS).
///
/// # Errors
///
/// Propagates build/search errors.
pub fn fig2(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let title = "Figure 2: throughput (QPS) vs query threads";
    render(ctx, "", "fig2.csv", title, |m| num(m.qps))
}

/// Fig. 3: P99 tail latency (µs).
///
/// # Errors
///
/// Propagates build/search errors.
pub fn fig3(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let title = "Figure 3: P99 tail latency (us) vs query threads";
    render(ctx, "", "fig3.csv", title, |m| num(m.p99_latency_us))
}

/// Fig. 4: global CPU usage (%); the paper shows the two large datasets
/// only.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn fig4(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let title = "Figure 4: global CPU usage (%) vs query threads";
    render(ctx, "-l", "fig4.csv", title, |m| {
        format!("{:.1}", m.cpu_utilization * 100.0)
    })
}

/// Runs the concurrency sweep (cached across the three figures) over the
/// datasets whose name ends in `suffix` and renders one metric of it.
fn render(
    ctx: &mut BenchContext,
    suffix: &str,
    file: &str,
    title: &str,
    cell: fn(&RunMetrics) -> String,
) -> Result<String> {
    let mut header = vec!["dataset".to_owned(), "setup".to_owned()];
    header.extend(CONCURRENCY_LADDER.iter().map(|c| format!("c{c}")));
    let mut table = Table::new(header);

    for spec in &ctx.dataset_specs_ending(suffix) {
        for kind in SetupKind::all() {
            let mut cells = vec![spec.name.clone(), kind.name().to_owned()];
            for &concurrency in CONCURRENCY_LADDER {
                match ctx.run_tuned(spec, kind, concurrency)? {
                    // LanceDB-HNSW beyond its client limit: the paper shows
                    // no point (out-of-memory).
                    None => cells.push("oom".to_owned()),
                    Some(m) => cells.push(cell(&m)),
                }
            }
            table.row(cells);
        }
    }
    ctx.write_csv(file, &table.to_csv())?;
    let mut out = format!("{title}\n");
    out.push_str("(storage-based setups: milvus-diskann, lancedb-ivf)\n");
    out.push_str(&table.to_text());
    Ok(out)
}
