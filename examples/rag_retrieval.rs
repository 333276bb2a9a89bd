//! A retrieval-augmented-generation (RAG) retrieval tier on a storage-based
//! index — the scenario motivating the paper's study.
//!
//! A knowledge base too large for memory is indexed with DiskANN: compressed
//! codes stay in RAM while full vectors and the graph live on the (simulated)
//! NVMe SSD. The example retrieves supporting chunks for questions, then
//! reports what the retrieval cost in I/O — the paper's core measurement.
//!
//! Run with: `cargo run --release --example rag_retrieval`

#![allow(
    clippy::cast_precision_loss,
    reason = "printed rates divide small counts"
)]

use sann::core::Metric;
use sann::datagen::EmbeddingModel;
use sann::index::{DiskAnnConfig, DiskAnnIndex, SearchParams, VectorIndex};

fn main() -> sann::core::Result<()> {
    // "Embed" a 20k-chunk knowledge base (768-d, the Cohere embedding size).
    let model = EmbeddingModel::new(768, 32, 7);
    let chunks = model.generate(20_000);
    println!(
        "knowledge base: {} chunks x {}-d",
        chunks.len(),
        chunks.dim()
    );

    // Build the storage-based index.
    let index = DiskAnnIndex::build(&chunks, Metric::L2, DiskAnnConfig::default())?;
    let raw_mib = (chunks.len() * chunks.row_bytes()) as f64 / (1 << 20) as f64;
    println!(
        "diskann built: {:.1} MiB raw vectors -> {:.1} MiB resident (PQ codes), {:.1} MiB on disk",
        raw_mib,
        index.memory_bytes() as f64 / (1 << 20) as f64,
        index.storage_bytes() as f64 / (1 << 20) as f64,
    );

    // Retrieve for a batch of questions with the paper's default
    // search-time parameters (search_list=10, beam_width=4).
    let questions = model.generate_queries(8);
    let params = SearchParams::default();
    println!(
        "\nretrieval (k=5, search_list={}, beam_width={}):",
        params.search_list, params.beam_width
    );
    let mut total_bytes = 0u64;
    let mut total_hops = 0u64;
    for (i, q) in questions.iter().enumerate() {
        let out = index.search(q, 5, &params)?;
        total_bytes += out.trace.read_bytes();
        total_hops += out.trace.hops();
        let ids: Vec<u32> = out.ids();
        println!(
            "  q{i}: chunks {:?}  ({} graph hops, {} KiB read)",
            ids,
            out.trace.hops(),
            out.trace.read_bytes() / 1024
        );
    }
    println!(
        "\nmean per question: {:.1} KiB read over {:.1} hops — every request 4 KiB, as the paper's O-15 observes",
        total_bytes as f64 / 1024.0 / questions.len() as f64,
        total_hops as f64 / questions.len() as f64,
    );

    // The RAG answer step would now stuff the retrieved chunks into an LLM
    // prompt; that part is out of scope for a storage characterization.
    Ok(())
}
