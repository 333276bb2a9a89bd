//! Extension experiment: graph-based vs. cluster-based storage indexes.
//!
//! The paper's §II-B lays out the storage-index dilemma — graph indexes
//! (DiskANN) issue many *dependent* 4 KiB reads; cluster indexes (SPANN)
//! issue a few *large* sequential reads but replicate border vectors up to
//! 8× on the device — and cites a companion study ([30]) that measures it.
//! This experiment quantifies the dilemma on equal footing: both indexes are
//! tuned to recall@10 ≥ 0.9 on the same dataset, then compared on I/O shape,
//! latency, throughput, and space.

use crate::cli::SubFlags;
use crate::context::{BenchContext, K, RECALL_TARGET};
use crate::report::{num, Table};
use sann_core::{Metric, Result};
use sann_index::{SearchParams, SpannConfig, SpannIndex, VectorIndex};
use sann_vdb::SetupKind;

/// Queries whose traces feed the I/O-shape columns.
const SHAPE_QUERIES: usize = 64;

/// Runs the DiskANN-vs-SPANN comparison on each dataset's small variant.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn run(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let mut table = Table::new([
        "dataset",
        "index",
        "recall@10",
        "reads/query",
        "mean_req_KiB",
        "hops",
        "qps_c64",
        "p99_us_c64",
        "space_amp",
    ]);
    let kind = SetupKind::MilvusDiskann;
    for spec in ctx.dataset_specs_ending("-s") {
        // DiskANN side: reuse the tuned setup.
        let builder = ctx.plan_builder_for(&spec, kind);
        let (data, prepared) = ctx.dataset_and_setup(&spec, kind)?;
        let raw_bytes = (data.base.len() * data.base.row_bytes()) as u64;

        // SPANN side: build + tune nprobe on the same data.
        eprintln!("[prep] building spann index on {}", spec.name);
        let spann = SpannIndex::build(&data.base, Metric::L2, SpannConfig::default())?;
        let mut nprobe = 4usize;
        let mut s_recall = 0.0;
        while nprobe <= 128 {
            let params = SearchParams::default().with_nprobe(nprobe);
            let ids = sann_index::search_ids(&spann, &data.tune_queries, K, &params)?;
            s_recall = data.tune_truth.mean_recall(&ids);
            if s_recall >= RECALL_TARGET {
                break;
            }
            nprobe *= 2;
        }

        // Both indexes are measured the same way: one pass over the query
        // set, whose traces give the I/O shape (first `SHAPE_QUERIES`) and,
        // compiled under the same Milvus profile for an apples-to-apples
        // run, the engine metrics at 64 clients.
        let sides: [(&str, f64, &dyn VectorIndex, SearchParams); 2] = [
            (
                "diskann",
                prepared.recall,
                prepared.index.as_ref(),
                prepared.setup.params.search_params(),
            ),
            (
                "spann",
                s_recall,
                &spann,
                SearchParams::default().with_nprobe(nprobe),
            ),
        ];
        for (name, recall, index, params) in sides {
            let traces = prepared
                .setup
                .traces_with(index, &data.queries, K, &params)?;
            let run = ctx.run(kind, &builder.build_all(&traces), 64)?;
            let shape = &traces[..traces.len().min(SHAPE_QUERIES)];
            let n = shape.len().max(1) as f64;
            let ios: u64 = shape.iter().map(|t| t.io_count()).sum();
            let bytes: u64 = shape.iter().map(|t| t.read_bytes()).sum();
            let hops: u64 = shape.iter().map(|t| t.hops()).sum();
            let space = index.storage_bytes() as f64 / raw_bytes as f64;
            table.row([
                spec.name.clone(),
                name.to_owned(),
                format!("{recall:.3}"),
                num(ios as f64 / n),
                num(bytes as f64 / ios.max(1) as f64 / 1024.0),
                num(hops as f64 / n),
                num(run.qps),
                num(run.p99_latency_us),
                format!("{space:.2}x"),
            ]);
        }
    }
    ctx.write_csv("ext_spann.csv", &table.to_csv())?;
    let mut out = String::from(
        "Extension: graph-based (DiskANN) vs cluster-based (SPANN) storage \
         indexes at equal recall\n(SII-B's dilemma: request size vs space \
         amplification vs dependency chains)\n",
    );
    out.push_str(&table.to_text());
    Ok(out)
}
