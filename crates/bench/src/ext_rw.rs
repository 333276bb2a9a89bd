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
use crate::context::BenchContext;
use crate::report::{num, Table};
use sann_core::{Metric, Result};
use sann_engine::{QueryPlan, Segment};
use sann_index::{FreshConfig, FreshDiskAnnIndex, VamanaConfig};
use sann_vdb::SetupKind;

/// Number of search clients held constant while writers are added.
const SEARCH_CLIENTS: usize = 64;

/// Writer-client counts swept on the x-axis.
const WRITER_LADDER: &[usize] = &[0, 8, 32, 128];

/// Real insert operations replayed per dataset.
const INSERT_PLANS: usize = 100;

/// Collects real insert plans: build a mutable index on the base set, insert
/// a fresh stream, and compile each insert's reads + writes under the Milvus
/// profile.
fn insert_plans(
    ctx: &mut BenchContext,
    spec: &sann_datagen::DatasetSpec,
) -> Result<Vec<QueryPlan>> {
    let mut index = FreshDiskAnnIndex::build(
        &ctx.dataset(spec).base,
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
    // The small datasets suffice to show the interference effect.
    for spec in ctx.dataset_specs_ending("-s") {
        let search_plans = ctx.plans(&spec, SetupKind::MilvusDiskann)?;
        eprintln!("[prep] collecting real insert traces on {}", spec.name);
        let inserts = insert_plans(ctx, &spec)?;
        for &writers in WRITER_LADDER {
            // Interleave insert plans so `writers : SEARCH_CLIENTS` of the
            // closed-loop client mix inserts at any time.
            let mut plans: Vec<QueryPlan> = Vec::new();
            let stride = if writers == 0 {
                usize::MAX
            } else {
                (search_plans.len() * SEARCH_CLIENTS / (writers * search_plans.len().max(1))).max(1)
            };
            let mut wi = 0usize;
            for (i, p) in search_plans.iter().enumerate() {
                plans.push(p.clone());
                if stride != usize::MAX && i % stride == 0 {
                    plans.push(inserts[wi % inserts.len()].clone());
                    wi += 1;
                }
            }
            let m = ctx.run(SetupKind::MilvusDiskann, &plans, SEARCH_CLIENTS + writers)?;
            table.row([
                spec.name.clone(),
                writers.to_string(),
                num(m.qps),
                num(m.p99_latency_us),
                num(m.mean_bandwidth_mib),
                num(m.io_stats.write_bytes as f64 / (1 << 20) as f64 / (ctx.duration_us / 1e6)),
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
        let inserts = insert_plans(&mut ctx, &spec).unwrap();
        assert_eq!(inserts.len(), INSERT_PLANS);
        let sample = &inserts[0];
        assert!(sample.io_count() > 0, "placement search reads");
        let has_write = sample
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Write { reqs } if !reqs.is_empty()));
        assert!(has_write, "insert must write node records");

        // Search-only vs mixed: writes appear and tails inflate.
        let search_plans = ctx.plans(&spec, SetupKind::MilvusDiskann).unwrap();
        let base = ctx
            .run(SetupKind::MilvusDiskann, &search_plans, SEARCH_CLIENTS)
            .unwrap();
        let mut mixed: Vec<QueryPlan> = search_plans.to_vec();
        mixed.extend(inserts.iter().cloned());
        let m = ctx
            .run(SetupKind::MilvusDiskann, &mixed, SEARCH_CLIENTS + 64)
            .unwrap();
        assert!(m.io_stats.write_bytes > 0);
        assert_eq!(base.io_stats.write_bytes, 0);
        std::fs::remove_dir_all(&ctx.results_dir).ok();
    }
}
