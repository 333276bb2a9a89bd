//! Quickstart: generate vectors, build an index, and search — the
//! five-minute tour of the `sann` API.
//!
//! Run with: `cargo run --release --example quickstart`

use sann::core::Metric;
use sann::index::{HnswConfig, SearchParams};
use sann::vdb::IndexSpec;

fn main() -> sann::core::Result<()> {
    // A few thousand synthetic 64-dimensional "document embeddings".
    let model = sann::datagen::EmbeddingModel::new(64, 8, 42);
    let vectors = model.generate(5_000);
    println!("generated {} vectors", vectors.len());

    // Build a memory-based HNSW index under squared-L2 distance (the
    // paper's Table II parameters: M=16, efConstruction=200).
    let index = IndexSpec::Hnsw(HnswConfig::default()).build(&vectors, Metric::L2)?;
    println!("built {} index", index.kind());

    // Search with a stored vector: it is its own nearest neighbor.
    let out = index.search(vectors.row(123), 5, &SearchParams::default())?;
    println!("\ntop-5 for vector #123 (expect itself first):");
    for hit in &out.neighbors {
        println!("  id={:<6} dist={:.4}", hit.id, hit.dist);
    }
    assert_eq!(out.neighbors[0].id, 123);
    println!(
        "\nthe search computed {} distances",
        out.trace.compute_count()
    );
    Ok(())
}
