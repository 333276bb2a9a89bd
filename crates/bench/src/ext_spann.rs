//! Extension experiment: graph-based vs. cluster-based storage indexes.
//!
//! The paper's §II-B lays out the storage-index dilemma — graph indexes
//! (DiskANN) issue many *dependent* 4 KiB reads; cluster indexes (SPANN)
//! issue a few *large* sequential reads but replicate border vectors up to
//! 8× on the device — and cites a companion study (its reference \[30\])
//! that measures it.
//! This experiment quantifies the dilemma on equal footing: both indexes are
//! tuned to recall@10 ≥ 0.9 on the same dataset, then compared on I/O shape,
//! latency, throughput, and space.

use crate::cli::SubFlags;
use crate::context::{BenchContext, Search, K, RECALL_TARGET};
use crate::report::{num, Table};
use sann_core::{cast, Metric, Result};
use sann_index::{SearchParams, SpannConfig, SpannIndex};
use sann_vdb::SetupKind;
use std::sync::Arc;

/// Queries whose traces feed the I/O-shape columns.
const SHAPE_QUERIES: usize = 64;

/// Closed-loop clients of the engine columns.
const CLIENTS: usize = 64;

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
    let specs = ctx.dataset_specs_ending("-s");
    // DiskANN side: the tuned setup's 64-client point, which Figs. 2-3 ran.
    let cells: Vec<_> = specs.iter().map(|s| (s, kind, CLIENTS)).collect();
    let diskann_runs = ctx.run_tuned(&cells)?;
    let prepared = ctx.prepare(&specs.iter().map(|s| (s, kind)).collect::<Vec<_>>())?;
    for spec in &specs {
        eprintln!("[prep] building spann index on {}", spec.name);
    }
    // SPANN side: build + tune nprobe on the same data. Both indexes are
    // measured the same way: the traces of the first `SHAPE_QUERIES` queries
    // give the I/O shape, and the query set's traces, compiled under the
    // same Milvus profile for an apples-to-apples run, the engine metrics.
    let spann = ctx.fan_out(&prepared, |diskann| {
        let data = &diskann.data;
        let index = SpannIndex::build(&data.base, Metric::L2, SpannConfig::default())?;
        let (mut nprobe, mut recall) = (4, 0.0);
        while nprobe <= 128 {
            let params = SearchParams::default().with_nprobe(nprobe);
            let ids = sann_index::search_ids(&index, &data.tune_queries, K, &params)?;
            recall = data.tune_truth.mean_recall(&ids);
            if recall >= RECALL_TARGET {
                break;
            }
            nprobe *= 2;
        }
        let head = data.queries.truncated(SHAPE_QUERIES);
        let shape = diskann.setup.traces(diskann.index.as_ref(), &head, K)?;
        let mut spann = diskann.clone();
        (spann.index, spann.recall) = (Arc::new(index), recall);
        Ok((spann, SearchParams::default().with_nprobe(nprobe), shape))
    })?;
    let jobs: Vec<Search> = spann.iter().map(|(p, params, _)| (p, *params)).collect();
    let swept = ctx.sweep(&jobs, &[CLIENTS], |mut traces| {
        traces.truncate(SHAPE_QUERIES);
        traces
    })?;
    let per_spec = prepared
        .iter()
        .zip(&diskann_runs)
        .zip(spann.iter().zip(&swept));
    for ((diskann, diskann_run), ((spann, _, diskann_shape), s)) in per_spec {
        let sides = [
            ("diskann", diskann, diskann_shape, diskann_run.as_ref()),
            ("spann", spann, &s.digest, s.runs.first()),
        ];
        for (name, p, shape, run) in sides {
            let Some(run) = run else { continue };
            let data = &p.data;
            let n = cast::f64_from_usize(shape.len().max(1));
            let ios: u64 = shape.iter().map(|t| t.io_count()).sum();
            let bytes: u64 = shape.iter().map(|t| t.read_bytes()).sum();
            let hops: u64 = shape.iter().map(|t| t.hops()).sum();
            let raw_bytes = (data.base.len() * data.base.row_bytes()) as u64;
            let space = cast::f64_from_u64(p.index.storage_bytes()) / cast::f64_from_u64(raw_bytes);
            table.row([
                data.spec.name.clone(),
                name.to_owned(),
                format!("{:.3}", p.recall),
                num(cast::f64_from_u64(ios) / n),
                num(cast::f64_from_u64(bytes) / cast::f64_from_u64(ios.max(1)) / 1024.0),
                num(cast::f64_from_u64(hops) / n),
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
