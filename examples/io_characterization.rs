//! I/O characterization of a storage-based search — a miniature of the
//! paper's Figs. 5 and 6: run a closed-loop DiskANN workload through the
//! execution engine and inspect the block-layer trace.
//!
//! Run with: `cargo run --release --example io_characterization`

use sann::core::Metric;
use sann::datagen::EmbeddingModel;
use sann::engine::{Executor, RunConfig};
use sann::index::{DiskAnnConfig, SearchParams, VectorIndex};
use sann::vdb::setup::{calibrated_plan_builder, SetupKind};

fn main() -> sann::core::Result<()> {
    let model = EmbeddingModel::new(768, 16, 11);
    let base = model.generate(10_000);
    let queries = model.generate_queries(100);
    let index = sann::index::DiskAnnIndex::build(&base, Metric::L2, DiskAnnConfig::default())?;

    // Collect real query traces.
    let params = SearchParams::default().with_search_list(20);
    let mut traces = Vec::new();
    for q in queries.iter() {
        traces.push(index.search(q, 10, &params)?.trace);
    }

    // Compile them under the Milvus profile (scale 1.0: no extrapolation)
    // and replay at three concurrency levels for a simulated 5 seconds each.
    let builder = calibrated_plan_builder(SetupKind::MilvusDiskann, 1.0, 1.0);
    let plans = builder.build_all(&traces);
    println!("concurrency   QPS     P99(us)   MiB/s    4KiB-frac  per-query-MiB/s");
    for concurrency in [1usize, 16, 256] {
        let config = RunConfig {
            cores: 20,
            concurrency,
            duration_us: 5e6,
            ..RunConfig::default()
        };
        let m = Executor::new(config).run(&plans);
        println!(
            "{concurrency:>11}   {:<7.0} {:<9.0} {:<8.1} {:<10.5} {:.3}",
            m.qps,
            m.p99_latency_us,
            m.mean_bandwidth_mib,
            m.io_stats.size_fraction(4096),
            m.per_query_bandwidth_mib(),
        );
        if concurrency == 256 {
            println!("\nper-second bandwidth timeline at 256 threads (MiB/s):");
            let bars: Vec<String> = m
                .bandwidth_timeline_mib
                .iter()
                .map(|b| format!("{b:.0}"))
                .collect();
            println!("  [{}]", bars.join(", "));
            println!("\nrequest-size histogram:");
            for (size, count) in &m.io_stats.size_histogram {
                println!("  {size:>7} B : {count}");
            }
        }
    }
    Ok(())
}
