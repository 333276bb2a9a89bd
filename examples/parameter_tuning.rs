//! Tuning the accuracy/performance trade-off — the paper's §VI in
//! miniature: sweep DiskANN's `search_list` and HNSW's `efSearch` and print
//! the recall/latency/I-O frontier so you can pick an operating point.
//!
//! Run with: `cargo run --release --example parameter_tuning`

#![allow(
    clippy::cast_precision_loss,
    reason = "printed rates divide small counts"
)]

use sann::core::Metric;
use sann::datagen::{EmbeddingModel, GroundTruth};
use sann::index::{DiskAnnConfig, DiskAnnIndex, HnswConfig, HnswIndex, SearchParams, VectorIndex};

fn main() -> sann::core::Result<()> {
    let model = EmbeddingModel::new(128, 16, 99);
    let base = model.generate(20_000);
    let queries = model.generate_queries(200);
    let truth = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);

    let diskann = DiskAnnIndex::build(&base, Metric::L2, DiskAnnConfig::default())?;
    println!("DiskANN: search_list sweep (k=10)");
    println!("search_list  recall@10  mean-dists  mean-hops  mean-KiB-read");
    for l in [10usize, 20, 40, 60, 80, 100] {
        let params = SearchParams::default().with_search_list(l);
        let (recall, dists, hops, kib) = evaluate(&diskann, &queries, &truth, &params)?;
        println!("{l:>11}  {recall:>9.3}  {dists:>10.0}  {hops:>9.1}  {kib:>13.1}");
    }

    let hnsw = HnswIndex::build(&base, Metric::L2, HnswConfig::default())?;
    println!("\nHNSW: efSearch sweep (k=10)");
    println!("   efSearch  recall@10  mean-dists");
    for ef in [10usize, 20, 40, 80, 160] {
        let params = SearchParams::default().with_ef_search(ef);
        let (recall, dists, _, _) = evaluate(&hnsw, &queries, &truth, &params)?;
        println!("{ef:>11}  {recall:>9.3}  {dists:>10.0}");
    }

    println!(
        "\nNote the paper's KF-3: recall saturates quickly while cost keeps \
         growing — tune the smallest value that meets your recall target."
    );
    Ok(())
}

/// Mean (recall, distance evals, hops, KiB read) of an index over a query set.
fn evaluate(
    index: &dyn VectorIndex,
    queries: &sann::core::Dataset,
    truth: &GroundTruth,
    params: &SearchParams,
) -> sann::core::Result<(f64, f64, f64, f64)> {
    let n = queries.len() as f64;
    let (mut recall, mut dists, mut hops, mut kib) = (0.0, 0.0, 0.0, 0.0);
    for (i, q) in queries.iter().enumerate() {
        let out = index.search(q, 10, params)?;
        recall += sann::core::recall::recall_at_k(truth.neighbors(i), &out.ids(), 10);
        dists += (out.trace.compute_count() + out.trace.pq_lookup_count()) as f64;
        hops += out.trace.hops() as f64;
        kib += out.trace.read_bytes() as f64 / 1024.0;
    }
    Ok((recall / n, dists / n, hops / n, kib / n))
}
