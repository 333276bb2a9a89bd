//! Table II: build/search-time parameters and achieved recall@10 of every
//! index on every dataset.

use crate::cli::SubFlags;
use crate::context::{BenchContext, PreparedSetup, K};
use crate::report::Table;
use sann_core::Result;
use sann_vdb::SetupKind;

/// Reproduces Table II; returns the rendered table.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn run(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let mut table = Table::new([
        "dataset",
        "index",
        "nlist",
        "nprobe",
        "M",
        "efC",
        "efSearch",
        "search_list",
        "recall@10",
    ]);
    // The three Table II index families, represented by the setups that tune
    // them on Milvus (plus LanceDB's separately tuned variants).
    let kinds = [
        SetupKind::MilvusIvf,
        SetupKind::MilvusHnsw,
        SetupKind::LancedbHnsw,
        SetupKind::MilvusDiskann,
        SetupKind::LancedbIvf,
    ];
    let specs = ctx.dataset_specs();
    let pairs: Vec<_> = specs.iter().flat_map(|s| kinds.map(|k| (s, k))).collect();
    let prepared = ctx.prepare(&pairs)?;
    for prepared in &prepared {
        let (kind, p) = (prepared.setup.kind, &prepared.setup.params);
        let ivf = matches!(kind, SetupKind::MilvusIvf | SetupKind::LancedbIvf);
        let diskann = kind == SetupKind::MilvusDiskann;
        let hnsw = !ivf && !diskann;
        // Each family shows the knobs it has and leaves the others blank.
        let knob = |has: bool, v: usize| if has { v.to_string() } else { String::new() };
        table.row([
            prepared.data.spec.name.clone(),
            kind.name().to_owned(),
            knob(ivf, p.nlist),
            knob(ivf, p.nprobe),
            knob(hnsw, p.m),
            knob(hnsw, p.ef_construction),
            knob(hnsw, p.ef_search),
            knob(diskann, p.search_list),
            format!("{:.3}", prepared.recall),
        ]);
    }
    ctx.write_csv("table2.csv", &table.to_csv())?;
    let mut out = String::from("Table II: index parameters and achieved recall@10\n");
    out.push_str(&format!(
        "(k = {K}, target recall >= 0.9; LanceDB-IVF's nprobe ladder is capped as in the paper)\n"
    ));
    out.push_str(&table.to_text());
    if ctx.fault_profile.active() {
        out.push_str(&degraded_recall_section(ctx, &prepared)?);
    }
    Ok(out)
}

/// Degraded-recall addendum for `--fault-profile`: one engine run per setup
/// measures the fraction of planned reads actually served, and the honest
/// recall bound is `recall × served_fraction` (abandoned reads can only
/// remove true neighbors from the candidate set).
fn degraded_recall_section(ctx: &mut BenchContext, prepared: &[PreparedSetup]) -> Result<String> {
    const FAULT_CONCURRENCY: usize = 8;
    let mut table = Table::new(["dataset", "index", "recall@10", "served", "degraded@10"]);
    let cells: Vec<_> = prepared
        .iter()
        .map(|p| (&p.data.spec, p.setup.kind, FAULT_CONCURRENCY))
        .collect();
    let runs = ctx.run_tuned(&cells)?;
    for (p, m) in prepared.iter().zip(runs) {
        let Some(m) = m else { continue };
        let (healthy, f) = (p.recall, &m.fault);
        table.row([
            p.data.spec.name.clone(),
            p.setup.kind.name().to_owned(),
            format!("{healthy:.3}"),
            format!("{:.3}", f.served_fraction()),
            format!("{:.3}", f.degraded_recall(healthy)),
        ]);
    }
    ctx.write_csv("table2_faults.csv", &table.to_csv())?;
    Ok(format!(
        "Degraded recall under fault profile `{}` (concurrency {FAULT_CONCURRENCY}):\n\
         (degraded@10 = recall@10 x served I/O fraction - a bound, not a re-measurement)\n{}",
        ctx.fault_profile.name,
        table.to_text()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_profile_adds_degraded_recall_addendum() {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.2e6;
        ctx.fault_profile = sann_engine::FaultProfile::flaky();
        ctx.results_dir = std::env::temp_dir().join("sann-table2-fault-test");
        let text = run(&mut ctx, &SubFlags::default()).unwrap();
        assert!(text.contains("Degraded recall under fault profile `flaky`"));
        assert!(text.contains("degraded@10"));
        assert!(ctx.results_dir.join("table2_faults.csv").exists());
        std::fs::remove_dir_all(&ctx.results_dir).ok();
    }
}
