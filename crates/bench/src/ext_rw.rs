//! Extension experiment (paper §VIII, future work): hybrid read-write
//! workloads.
//!
//! The paper characterizes pure vector-search traffic and explicitly leaves
//! "performance and I/O characteristics under such hybrid read-write
//! workloads" to future work, noting that NAND read-write interference
//! should degrade search. This experiment runs Milvus-DiskANN search clients
//! alongside insert clients whose work comes from **real FreshDiskANN-style
//! streaming inserts** ([`sann_index::FreshDiskAnnIndex`]): each insert's
//! placement-search reads and dirtied-node-record writes are replayed
//! against the shared device.

use crate::cli::SubFlags;
use crate::context::{BenchContext, PreparedDataset};
use crate::report::{num, Table};
use sann_core::{cast, Metric, Result};
use sann_engine::{QueryPlan, Segment};
use sann_index::{FreshConfig, FreshDiskAnnIndex, VamanaConfig};
use sann_vdb::SetupKind;
use std::sync::Arc;

/// Number of search clients held constant while writers are added.
const SEARCH_CLIENTS: usize = 64;

/// Writer-client counts swept on the x-axis after the search-only row.
const WRITERS: &[usize] = &[8, 32, 128];

/// Real insert operations replayed per dataset.
const INSERT_PLANS: usize = 100;

/// Collects real insert plans: build a mutable index on the base set, insert
/// a fresh stream, and compile each insert's reads + writes under the Milvus
/// profile.
fn insert_plans(ctx: &BenchContext, data: &PreparedDataset) -> Result<Vec<QueryPlan>> {
    let spec = &data.spec;
    let mut index = FreshDiskAnnIndex::build(
        &data.base,
        Metric::L2,
        FreshConfig {
            graph: VamanaConfig {
                r: 32,
                l_build: 50,
                ..Default::default()
            },
            l_insert: 50,
            pq_m: 0,
            pq_ksub: 128,
        },
    )?;
    let stream = spec.model().generate_stream(INSERT_PLANS, 42);
    let builder = ctx.plan_builder_for(spec, SetupKind::MilvusDiskann);
    let mut plans = Vec::with_capacity(INSERT_PLANS);
    for row in stream.iter() {
        let (_, trace) = index.insert(row)?;
        let writes = index.take_insert_writes();
        let mut segments = builder.build(&trace).segments().to_vec();
        segments.push(Segment::write(writes));
        plans.push(QueryPlan::new(segments));
    }
    Ok(plans)
}

/// Runs the hybrid read-write sweep.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn run(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let mut table = Table::new([
        "dataset",
        "writers",
        "ops_per_s",
        "p99_us",
        "read_MiB/s",
        "write_MiB/s",
    ]);
    let kind = SetupKind::MilvusDiskann;
    // The small datasets suffice to show the interference effect. With no
    // writers, a row is the tuned search-only point Figs. 2-3 ran already.
    let specs = ctx.dataset_specs_ending("-s");
    let cells: Vec<_> = specs.iter().map(|s| (s, kind, SEARCH_CLIENTS)).collect();
    let search_only = ctx.run_tuned(&cells)?;
    let prepared = ctx.prepare(&specs.iter().map(|s| (s, kind)).collect::<Vec<_>>())?;
    for spec in &specs {
        eprintln!("[prep] collecting real insert traces on {}", spec.name);
    }
    let inserts = ctx.fan_out(&prepared, |p| insert_plans(ctx, &p.data))?;
    let mut points = Vec::new();
    for (spec, inserts) in specs.iter().zip(&inserts) {
        let search = ctx.plans(spec, kind)?;
        for &writers in WRITERS {
            // Interleave insert plans so `writers : SEARCH_CLIENTS` of the
            // closed-loop client mix inserts at any time.
            let stride = (SEARCH_CLIENTS / writers).max(1);
            let plans = search.iter().enumerate().flat_map(|(i, p)| {
                let insert = (i % stride == 0).then(|| &inserts[i / stride % inserts.len()]);
                std::iter::once(p).chain(insert).cloned()
            });
            points.push(ctx.point(kind, &Arc::new(plans.collect()), SEARCH_CLIENTS + writers));
        }
    }
    let mixed = ctx.replay_all(&points)?;
    let per_spec = search_only.iter().zip(mixed.chunks(WRITERS.len()));
    for (spec, (search_only, mixed)) in specs.iter().zip(per_spec) {
        let rows = [0].iter().zip(search_only).chain(WRITERS.iter().zip(mixed));
        for (writers, m) in rows {
            table.row([
                spec.name.clone(),
                writers.to_string(),
                num(m.qps),
                num(m.p99_latency_us),
                num(m.mean_bandwidth_mib),
                num(cast::f64_from_u64(m.io_stats.write_bytes)
                    / (1 << 20) as f64
                    / (ctx.duration_us / 1e6)),
            ]);
        }
    }
    ctx.write_csv("ext_rw.csv", &table.to_csv())?;
    let mut out = String::from(
        "Extension: hybrid read-write workload (paper SVIII future work)\n\
         (64 closed-loop search clients on milvus-diskann + N insert clients \
         replaying real FreshDiskANN insert traces on the shared SSD)\n",
    );
    out.push_str(&table.to_text());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_plans_mix_reads_and_writes() {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.3e6;
        ctx.results_dir = std::env::temp_dir().join("sann-extrw-test");
        let spec = ctx.dataset_specs().remove(0);
        let data = ctx.dataset(&spec);
        let inserts = insert_plans(&ctx, &data).unwrap();
        assert_eq!(inserts.len(), INSERT_PLANS);
        let sample = &inserts[0];
        assert!(sample.io_count() > 0, "placement search reads");
        let has_write = sample
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Write { reqs } if !reqs.is_empty()));
        assert!(has_write, "insert must write node records");

        // Search-only vs mixed: writes appear and tails inflate.
        let kind = SetupKind::MilvusDiskann;
        let search_plans = ctx.plans(&spec, kind).unwrap();
        let mut mixed: Vec<QueryPlan> = search_plans.to_vec();
        mixed.extend(inserts.iter().cloned());
        let points = [
            ctx.point(kind, &search_plans, SEARCH_CLIENTS),
            ctx.point(kind, &Arc::new(mixed), SEARCH_CLIENTS + 64),
        ];
        let runs = ctx.replay_all(&points).unwrap();
        assert_eq!(runs[0].io_stats.write_bytes, 0);
        assert!(runs[1].io_stats.write_bytes > 0);
        std::fs::remove_dir_all(&ctx.results_dir).ok();
    }
}
