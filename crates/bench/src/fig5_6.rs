//! Figures 5 and 6: block-level I/O characterization of Milvus-DiskANN
//! during search (§V) — bandwidth timelines, per-query bandwidth, and the
//! request-size distribution (O-15).

use crate::cli::SubFlags;
use crate::context::BenchContext;
use crate::fig2_4::{ladder, CONCURRENCY_LADDER};
use crate::report::{num, Table};
use sann_core::{cast, Result};
use sann_engine::RunMetrics;
use sann_vdb::SetupKind;

/// The index of the ladder point at which throughput stops improving
/// materially (the paper's "throughput plateaus" level): the smallest
/// ladder point within 10% of the ladder maximum.
fn plateau(ladder: &[Option<RunMetrics>]) -> usize {
    let qps: Vec<f64> = ladder
        .iter()
        .map(|m| m.as_ref().map_or(0.0, |m| m.qps))
        .collect();
    let max = qps.iter().copied().fold(0.0, f64::max);
    let last = qps.len().saturating_sub(1);
    qps.iter().position(|&q| q >= 0.9 * max).unwrap_or(last)
}

/// Fig. 5: read-bandwidth timeline of Milvus-DiskANN at concurrency 1, the
/// plateau level, and 256, read off the Figs. 2-4 ladder.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn fig5(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let mut out =
        String::from("Figure 5: read bandwidth (MiB/s) of milvus-diskann during search\n");
    let mut csv = Table::new(["dataset", "concurrency", "second", "mib_per_s"]);
    let mut summary = Table::new(["dataset", "concurrency", "mean", "min", "max"]);
    let mut faults = Table::new([
        "dataset", "conc", "errors", "retries", "hedges", "skips", "served",
    ]);
    let specs = ctx.dataset_specs();
    let runs = ctx.run_tuned(&ladder(&specs, &[SetupKind::MilvusDiskann]))?;
    for (spec, runs) in specs.iter().zip(runs.chunks(CONCURRENCY_LADDER.len())) {
        let last = CONCURRENCY_LADDER.len() - 1;
        for (label, i) in [("1", 0), ("plateau", plateau(runs)), ("256", last)] {
            let (concurrency, Some(m)) = (CONCURRENCY_LADDER[i], &runs[i]) else {
                continue;
            };
            if ctx.fault_profile.active() {
                let f = &m.fault;
                faults.row([
                    spec.name.clone(),
                    concurrency.to_string(),
                    f.injected_errors.to_string(),
                    f.retries.to_string(),
                    f.hedges_issued.to_string(),
                    f.deadline_skips.to_string(),
                    format!("{:.4}", f.served_fraction()),
                ]);
            }
            let series = &m.bandwidth_timeline_mib;
            for (sec, &bw) in series.iter().enumerate() {
                csv.row([
                    spec.name.clone(),
                    concurrency.to_string(),
                    sec.to_string(),
                    format!("{bw:.3}"),
                ]);
            }
            // Steady region: skip the first second of ramp-up.
            let steady = if series.len() > 1 {
                &series[1..]
            } else {
                &series[..]
            };
            let mean = steady.iter().sum::<f64>() / cast::f64_from_usize(steady.len().max(1));
            let min = steady.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = steady.iter().cloned().fold(0.0, f64::max);
            summary.row([
                spec.name.clone(),
                format!("{concurrency} ({label})"),
                num(mean),
                num(if min.is_finite() { min } else { 0.0 }),
                num(max),
            ]);
        }
    }
    ctx.write_csv("fig5.csv", &csv.to_csv())?;
    out.push_str("(steady-state over the run; full per-second series in results/fig5.csv)\n");
    out.push_str(&summary.to_text());
    if ctx.fault_profile.active() {
        ctx.write_csv("fig5_faults.csv", &faults.to_csv())?;
        out.push_str(&format!(
            "Fault ledger under profile `{}` (injected errors, host reactions, served I/O fraction):\n",
            ctx.fault_profile.name
        ));
        out.push_str(&faults.to_text());
    }
    Ok(out)
}

/// Fig. 6: per-query average read bandwidth at concurrency 1 and 256, plus
/// the O-15 request-size check.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn fig6(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let mut table = Table::new([
        "dataset",
        "conc",
        "per_query_MiB/s",
        "bytes/query",
        "ios/query",
        "4KiB_fraction",
        "max_req_B",
    ]);
    let specs = ctx.dataset_specs();
    let cells: Vec<_> = specs
        .iter()
        .flat_map(|s| [1, 256].map(|c| (s, SetupKind::MilvusDiskann, c)))
        .collect();
    let runs = ctx.run_tuned(&cells)?;
    for (&(spec, _, concurrency), m) in cells.iter().zip(&runs) {
        let Some(m) = m else { continue };
        // Request sizes through the log-bucketed histogram shared with
        // sann-obs (same bucket boundaries as every other size metric).
        let sizes = m.io_stats.size_log_histogram();
        table.row([
            spec.name.clone(),
            concurrency.to_string(),
            format!("{:.3}", m.per_query_bandwidth_mib()),
            num(m.read_bytes_per_query),
            num(m.ios_per_query),
            format!("{:.5}", m.io_stats.size_fraction(4096)),
            sizes.max().to_string(),
        ]);
    }
    ctx.write_csv("fig6.csv", &table.to_csv())?;
    let mut out = String::from(
        "Figure 6: per-query average read bandwidth of milvus-diskann\n(O-15: the 4KiB fraction of block requests should exceed 0.9999)\n",
    );
    out.push_str(&table.to_text());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_fault_ledger_appears_only_under_a_profile() {
        let mut clean = BenchContext::new(0.001);
        clean.only_dataset = Some("cohere-s".into());
        clean.duration_us = 0.2e6;
        clean.results_dir = std::env::temp_dir().join("sann-fig5-clean-test");
        let text = fig5(&mut clean, &SubFlags::default()).unwrap();
        assert!(!text.contains("Fault ledger"), "none profile stays silent");
        std::fs::remove_dir_all(&clean.results_dir).ok();

        let mut faulty = BenchContext::new(0.001);
        faulty.only_dataset = Some("cohere-s".into());
        faulty.duration_us = 0.2e6;
        faulty.fault_profile = sann_engine::FaultProfile::gc_heavy();
        faulty.results_dir = std::env::temp_dir().join("sann-fig5-fault-test");
        let text = fig5(&mut faulty, &SubFlags::default()).unwrap();
        assert!(text.contains("Fault ledger under profile `gc-heavy`"));
        assert!(faulty.results_dir.join("fig5_faults.csv").exists());
        std::fs::remove_dir_all(&faulty.results_dir).ok();
    }
}
