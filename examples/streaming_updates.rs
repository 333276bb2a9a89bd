//! Streaming updates on a storage-based index — the paper's §VIII future
//! work, using the FreshDiskANN-style mutable index: inserts that read
//! (placement search) and write (dirtied node records), lazy deletes, and
//! delete consolidation.
//!
//! Run with: `cargo run --release --example streaming_updates`

#![allow(
    clippy::cast_precision_loss,
    reason = "printed rates divide small counts"
)]

use sann::core::Metric;
use sann::datagen::EmbeddingModel;
use sann::index::{FreshConfig, FreshDiskAnnIndex, SearchParams, VamanaConfig, VectorIndex};

fn main() -> sann::core::Result<()> {
    let model = EmbeddingModel::new(128, 16, 2024);
    let base = model.generate(8_000);
    let mut index = FreshDiskAnnIndex::build(
        &base,
        Metric::L2,
        FreshConfig {
            graph: VamanaConfig {
                r: 32,
                l_build: 60,
                ..Default::default()
            },
            l_insert: 60,
            pq_m: 0,
            pq_ksub: 256,
        },
    )?;
    println!(
        "built mutable diskann: {} vectors, {:.1} MiB on disk",
        index.live_len(),
        index.storage_bytes() as f64 / (1 << 20) as f64
    );

    // Stream 500 inserts, tracking their I/O cost.
    let fresh = model.generate_stream(500, 77);
    let (mut read_kib, mut write_kib) = (0u64, 0u64);
    for row in fresh.iter() {
        let (_, trace) = index.insert(row)?;
        read_kib += trace.read_bytes() / 1024;
        write_kib += index
            .take_insert_writes()
            .iter()
            .map(|r| r.len as u64)
            .sum::<u64>()
            / 1024;
    }
    println!(
        "inserted 500: mean {:.1} KiB read + {:.1} KiB written per insert",
        read_kib as f64 / 500.0,
        write_kib as f64 / 500.0
    );

    // Verify the stream is searchable.
    let probe = fresh.row(499);
    let hit = index.search(probe, 1, &SearchParams::default().with_search_list(50))?;
    println!(
        "latest insert found at distance {:.4}",
        hit.neighbors[0].dist
    );

    // Delete a third of the original corpus, then consolidate.
    for id in (0..8_000u32).step_by(3) {
        index.delete(id)?;
    }
    println!(
        "after deletes: {} live of {} slots",
        index.live_len(),
        index.slots()
    );
    let repaired = index.consolidate();
    println!("consolidation repaired {repaired} nodes' edges");

    let out = index.search(probe, 10, &SearchParams::default().with_search_list(50))?;
    assert!(out.neighbors.iter().all(|n| n.id >= 8_000 || n.id % 3 != 0));
    println!("post-consolidation search returns only live vectors");
    Ok(())
}
