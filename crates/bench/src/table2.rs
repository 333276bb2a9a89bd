//! Table II: build/search-time parameters and achieved recall@10 of every
//! index on every dataset.

use crate::cli::SubFlags;
use crate::context::{BenchContext, K};
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
    for spec in ctx.dataset_specs() {
        for kind in kinds {
            let prepared = ctx.setup(&spec, kind)?;
            let p = &prepared.setup.params;
            let (nlist, nprobe, m, efc, efs, sl) = match kind {
                SetupKind::MilvusIvf | SetupKind::LancedbIvf => (
                    p.nlist.to_string(),
                    p.nprobe.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ),
                SetupKind::MilvusDiskann => (
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    p.search_list.to_string(),
                ),
                _ => (
                    String::new(),
                    String::new(),
                    p.m.to_string(),
                    p.ef_construction.to_string(),
                    p.ef_search.to_string(),
                    String::new(),
                ),
            };
            table.row([
                spec.name.clone(),
                kind.name().to_owned(),
                nlist,
                nprobe,
                m,
                efc,
                efs,
                sl,
                format!("{:.3}", prepared.recall),
            ]);
        }
    }
    ctx.write_csv("table2.csv", &table.to_csv())?;
    let mut out = String::from("Table II: index parameters and achieved recall@10\n");
    out.push_str(&format!(
        "(k = {K}, target recall >= 0.9; LanceDB-IVF's nprobe ladder is capped as in the paper)\n"
    ));
    out.push_str(&table.to_text());
    if ctx.fault_profile.active() {
        out.push_str(&degraded_recall_section(ctx, &kinds)?);
    }
    Ok(out)
}

/// Degraded-recall addendum for `--fault-profile`: one engine run per setup
/// measures the fraction of planned reads actually served, and the honest
/// recall bound is `recall × served_fraction` (abandoned reads can only
/// remove true neighbors from the candidate set).
fn degraded_recall_section(ctx: &mut BenchContext, kinds: &[SetupKind]) -> Result<String> {
    const FAULT_CONCURRENCY: usize = 8;
    let profile = ctx.fault_profile;
    let mut table = Table::new(["dataset", "index", "recall@10", "served", "degraded@10"]);
    for spec in ctx.dataset_specs() {
        for &kind in kinds {
            let healthy = ctx.setup(&spec, kind)?.recall;
            let Some(m) = ctx.run_tuned(&spec, kind, FAULT_CONCURRENCY)? else {
                continue;
            };
            let f = &m.fault;
            table.row([
                spec.name.clone(),
                kind.name().to_owned(),
                format!("{healthy:.3}"),
                format!("{:.3}", f.served_fraction()),
                format!("{:.3}", f.degraded_recall(healthy)),
            ]);
        }
    }
    ctx.write_csv("table2_faults.csv", &table.to_csv())?;
    Ok(format!(
        "Degraded recall under fault profile `{}` (concurrency {FAULT_CONCURRENCY}):\n\
         (degraded@10 = recall@10 x served I/O fraction - a bound, not a re-measurement)\n{}",
        profile.name,
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
