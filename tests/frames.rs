//! Golden-file test for every persisted and canonical byte string: one line
//! per codec, with its byte length and FNV-1a hash, over one fixed tiny
//! input. The artifact cache (DESIGN.md §9) reloads datasets, ground truths
//! and index builds from exactly these frames, and the determinism audit
//! diffs `RunMetrics::canonical_bytes`, so a codec edit that moves a single
//! byte shows up here. Every frame with a decoder must also decode and
//! re-encode to the same bytes. Regenerate after an intentional format
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test frames
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "test helpers fail the test on a setup error"
)]

use sann::core::buf::{ByteReader, ByteWriter};
use sann::core::hash::fnv1a64;
use sann::core::{Dataset, Metric};
use sann::datagen::{EmbeddingModel, GroundTruth};
use sann::engine::{Executor, QueryPlan, RunConfig, Segment};
use sann::index::{
    persist, DiskAnnConfig, DiskAnnIndex, HnswConfig, HnswIndex, HnswSqIndex, IoReq, IvfConfig,
    IvfIndex, IvfPqIndex, VamanaConfig, VamanaGraph, VectorIndex,
};
use sann::obs::LogHistogram;
use sann::quant::{KMeans, KMeansModel, ProductQuantizer, ScalarQuantizer};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The bytes `encode` writes.
fn encoded(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode(&mut w);
    w.into_bytes()
}

/// Decodes the whole of `bytes` and re-encodes the result.
fn round_trip<T>(
    bytes: &[u8],
    decode: impl FnOnce(&mut ByteReader<'_>) -> sann::core::Result<T>,
    encode: impl FnOnce(&T, &mut ByteWriter),
) -> Vec<u8> {
    let mut r = ByteReader::new(bytes, "frames");
    let value = decode(&mut r).unwrap();
    r.finish().unwrap();
    encoded(|w| encode(&value, w))
}

/// A short closed-loop run whose metrics carry every canonical section:
/// reads of two sizes, bandwidth, queue-depth and utilization timelines.
fn short_run_bytes() -> Vec<u8> {
    let plan = QueryPlan::new(vec![
        Segment::cpu(400.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(1 << 20, 8192)]),
        Segment::cpu(100.0),
    ]);
    let config = RunConfig {
        cores: 2,
        concurrency: 4,
        duration_us: 2.5e6,
        ..RunConfig::default()
    };
    let metrics = Executor::new(config).run(&[plan]);
    assert!(metrics.bandwidth_timeline_mib.len() > 1);
    metrics.canonical_bytes()
}

#[test]
fn every_frame_matches_golden() {
    let model = EmbeddingModel::new(16, 4, 7);
    let data = model.generate(300);
    let queries = model.generate_queries(5);
    let graph = VamanaConfig {
        r: 16,
        l_build: 40,
        ..VamanaConfig::default()
    };
    let ivf = IvfConfig::default().with_nlist(8);
    let mut frames: Vec<(&str, Vec<u8>)> = Vec::new();

    let bytes = encoded(|w| data.encode_into(w));
    assert_eq!(
        round_trip(&bytes, Dataset::decode_from, Dataset::encode_into),
        bytes
    );
    frames.push(("dataset", bytes));

    let truth = GroundTruth::bruteforce(&data, &queries, Metric::L2, 5);
    let bytes = encoded(|w| truth.encode_into(w));
    let back = round_trip(&bytes, GroundTruth::decode_from, GroundTruth::encode_into);
    assert_eq!(back, bytes);
    frames.push(("groundtruth", bytes));

    let pq = ProductQuantizer::train(&data, 4, 16, 1).unwrap();
    let bytes = encoded(|w| pq.encode_into(w));
    let back = round_trip(
        &bytes,
        ProductQuantizer::decode_from,
        ProductQuantizer::encode_into,
    );
    assert_eq!(back, bytes);
    frames.push(("pq", bytes));

    let sq = ScalarQuantizer::train(&data).unwrap();
    let bytes = encoded(|w| sq.encode_into(w));
    let back = round_trip(
        &bytes,
        ScalarQuantizer::decode_from,
        ScalarQuantizer::encode_into,
    );
    assert_eq!(back, bytes);
    frames.push(("sq", bytes));

    let kmeans = KMeans::new(8).with_seed(3).fit(&data).unwrap();
    let bytes = encoded(|w| kmeans.encode_into(w));
    let back = round_trip(&bytes, KMeansModel::decode_from, KMeansModel::encode_into);
    assert_eq!(back, bytes);
    frames.push(("kmeans", bytes));

    let vamana = VamanaGraph::build(&data, Metric::L2, graph).unwrap();
    let bytes = encoded(|w| vamana.encode_into(w));
    let back = round_trip(&bytes, VamanaGraph::decode_from, VamanaGraph::encode_into);
    assert_eq!(back, bytes);
    frames.push(("vamana", bytes));

    let diskann = DiskAnnConfig {
        graph,
        pq_m: 4,
        pq_ksub: 16,
    };
    let indexes: Vec<Box<dyn VectorIndex>> = vec![
        Box::new(IvfIndex::build(&data, Metric::L2, ivf).unwrap()),
        Box::new(IvfPqIndex::build(&data, ivf, 4, 16).unwrap()),
        Box::new(HnswIndex::build(&data, Metric::L2, HnswConfig::default()).unwrap()),
        Box::new(HnswSqIndex::build(&data, Metric::L2, HnswConfig::default()).unwrap()),
        Box::new(DiskAnnIndex::build(&data, Metric::L2, diskann).unwrap()),
    ];
    for index in &indexes {
        let bytes = index.persist_encode().unwrap();
        let back = persist::decode(&bytes).unwrap().persist_encode().unwrap();
        assert_eq!(back, bytes, "{}", index.kind());
        frames.push((index.kind(), bytes));
    }

    let mut hist = LogHistogram::new();
    for v in [0, 1, 5, 5, 4096, u64::MAX / 2] {
        hist.record(v);
    }
    frames.push(("histogram", hist.canonical_bytes()));
    frames.push(("run-metrics", short_run_bytes()));

    let mut out = String::new();
    for (name, bytes) in &frames {
        let _ = writeln!(out, "{name} {} {:016x}", bytes.len(), fnv1a64(bytes));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frames.txt");
    sann::core::check::golden(&path, &out);
}
