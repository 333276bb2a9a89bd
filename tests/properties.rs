//! Property-based tests over the workspace's core invariants, driven by the
//! seeded [`sann::core::check`] harness (deterministic: the same property
//! always sees the same case stream, so failures reproduce exactly).

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    reason = "generators narrow and convert small sampled values"
)]

use sann::core::check::{run, Gen};
use sann::core::{stats, Dataset, Metric, TopK};
use sann::index::{layout::DiskLayout, IoReq, QueryTrace};
use sann::ssdsim::{DeviceSim, PageCache, SsdModel};

/// TopK returns exactly the k smallest distances, sorted.
#[test]
fn topk_matches_sort() {
    run("topk_matches_sort", 200, |g: &mut Gen| {
        let dists = g.vec_f32(1, 200, 0.0, 1e6);
        let k = g.usize_in(1, 50);
        let mut topk = TopK::new(k);
        for (i, &d) in dists.iter().enumerate() {
            topk.push(i as u32, d);
        }
        let got: Vec<f32> = topk.into_sorted_vec().iter().map(|n| n.dist).collect();
        let mut expect = dists.clone();
        expect.sort_by(f32::total_cmp);
        expect.truncate(k);
        assert_eq!(got, expect);
    });
}

/// Distance metrics: non-negative self-identity and symmetry (L2).
#[test]
fn l2_is_a_semimetric() {
    run("l2_is_a_semimetric", 200, |g: &mut Gen| {
        let a = g.vec_f32(1, 64, -100.0, 100.0);
        let d_self = sann::core::distance::l2_squared(&a, &a);
        assert!(d_self.abs() < 1e-3);
        let b: Vec<f32> = a.iter().map(|x| x + 1.0).collect();
        let ab = sann::core::distance::l2_squared(&a, &b);
        let ba = sann::core::distance::l2_squared(&b, &a);
        assert!((ab - ba).abs() < 1e-3 * ab.max(1.0));
        assert!(ab >= 0.0);
    });
}

/// recall@k is always within [0, 1] and 1 when found == truth.
#[test]
fn recall_bounds() {
    run("recall_bounds", 200, |g: &mut Gen| {
        let truth = g.vec_with(1, 30, |g| g.u32_in(0, 1000));
        let k = g.usize_in(1, 30);
        let r = sann::core::recall::recall_at_k(&truth, &truth, k);
        assert!((0.0..=1.0).contains(&r));
        if truth.len() >= k {
            assert!((r - 1.0).abs() < 1e-12);
        }
        let empty: Vec<u32> = vec![];
        assert_eq!(sann::core::recall::recall_at_k(&truth, &empty, k), 0.0);
    });
}

/// Percentiles are monotone in p and bounded by the extremes.
#[test]
fn percentile_monotone() {
    run("percentile_monotone", 200, |g: &mut Gen| {
        let xs = g.vec_with(1, 100, |g| g.f64_in(-1e6, 1e6));
        let p50 = stats::percentile(&xs, 50.0);
        let p99 = stats::percentile(&xs, 99.0);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(p50 <= p99);
        assert!(p50 >= min && p99 <= max);
    });
}

/// Every DiskANN node read is one or more whole, aligned 4 KiB sectors.
#[test]
fn layout_requests_are_aligned() {
    run("layout_requests_are_aligned", 300, |g: &mut Gen| {
        let n_nodes = g.u64_in(1, 10_000);
        let node_bytes = g.u64_in(1, 20_000);
        let layout = DiskLayout::new(n_nodes, node_bytes);
        let id = g.u64_in(0, n_nodes);
        let reqs = layout
            .node_reqs(id, sann::obs::IoProvenance::GraphAdjacency)
            .expect("in-range id");
        assert!(!reqs.is_empty());
        assert!(
            layout
                .node_reqs(n_nodes, sann::obs::IoProvenance::GraphAdjacency)
                .is_err(),
            "out-of-range id must surface as an error, not a panic"
        );
        let mut covered = 0u64;
        let mut needed = 0u64;
        for r in &reqs {
            assert_eq!(r.offset % 4096, 0);
            assert_eq!(r.len, 4096);
            assert_eq!(r.provenance, sann::obs::IoProvenance::GraphAdjacency);
            covered += r.len as u64;
            needed += u64::from(r.needed);
        }
        assert!(covered >= node_bytes, "requests must cover the record");
        assert!(
            needed <= covered,
            "needed bytes cannot exceed fetched bytes"
        );
        let first = layout.node_offset(id).expect("in-range id");
        assert!(first + covered <= layout.total_bytes());
    });
}

/// Two distinct node ids never overlap on disk... unless they share a
/// packed sector, in which case their offsets are identical.
#[test]
fn layout_nodes_do_not_tear() {
    run("layout_nodes_do_not_tear", 300, |g: &mut Gen| {
        let node_bytes = g.u64_in(1, 20_000);
        let a = g.u64_in(0, 1000);
        let b = g.u64_in(0, 1000);
        let layout = DiskLayout::new(1000, node_bytes);
        let oa = layout.node_offset(a).expect("in-range id");
        let ob = layout.node_offset(b).expect("in-range id");
        if a != b && node_bytes > 4096 {
            assert!(oa != ob);
        }
        if oa != ob {
            let span = layout.sectors_per_node().max(1) * 4096;
            assert!(oa.abs_diff(ob) >= span.min(4096));
        }
    });
}

/// The device never completes a request before its minimum service time,
/// and completion times are non-decreasing for simultaneous arrivals.
#[test]
fn device_respects_physics() {
    run("device_respects_physics", 200, |g: &mut Gen| {
        let lens = g.vec_with(1, 50, |g| g.u32_in(512, 262_144));
        let model = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(model);
        let mut last_done = 0.0f64;
        for &len in &lens {
            let done = dev.schedule(0.0, len);
            assert!(
                done + 1e-6 >= model.base_latency_us,
                "faster than media: {done}"
            );
            assert!(done + 1e-6 >= last_done, "bus must be FIFO");
            last_done = done;
        }
        // Total bytes can never beat the bus bandwidth.
        let total: u64 = lens.iter().map(|&l| l as u64).sum();
        assert!(total as f64 / last_done <= model.device_bw * 1.01);
    });
}

/// A page cache never holds more pages than its capacity, and re-access
/// of a just-inserted page always hits.
#[test]
fn pagecache_capacity_invariant() {
    run("pagecache_capacity_invariant", 100, |g: &mut Gen| {
        let cap_pages = g.usize_in(1, 64);
        let accesses = g.vec_with(1, 200, |g| g.u64_in(0, 100));
        let mut cache = PageCache::new(cap_pages as u64 * 4096);
        for &page in &accesses {
            cache.access(page * 4096, 4096);
            assert!(cache.len() <= cap_pages);
            assert_eq!(cache.access(page * 4096, 4096), 0, "MRU page must hit");
        }
    });
}

/// Trace aggregate counters equal a manual fold over the steps.
#[test]
fn trace_counters_consistent() {
    run("trace_counters_consistent", 200, |g: &mut Gen| {
        let ops = g.vec_with(0, 50, |g| g.u32_in(0, 3) as u8);
        let mut trace = QueryTrace::new();
        let (mut reads, mut bytes) = (0u64, 0u64);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                0 => trace.push_compute(i as u64 + 1, 768),
                1 => trace.push_pq_lookup(i as u64 + 1, 48),
                _ => {
                    let reqs: Vec<IoReq> = (0..(i % 4) + 1)
                        .map(|j| IoReq::new(j as u64 * 4096, 4096))
                        .collect();
                    reads += reqs.len() as u64;
                    bytes += reqs.iter().map(|r| r.len as u64).sum::<u64>();
                    trace.push_read(reqs);
                }
            }
        }
        assert_eq!(trace.io_count(), reads);
        assert_eq!(trace.read_bytes(), bytes);
    });
}

/// Scalar quantization round-trips within one quantization step per
/// dimension.
#[test]
fn sq_error_bounded() {
    run("sq_error_bounded", 100, |g: &mut Gen| {
        let rows = g.vec_with(2, 40, |g| g.vec_f32(8, 9, -10.0, 10.0));
        let data = Dataset::from_rows(rows.clone()).unwrap();
        let sq = sann::quant::ScalarQuantizer::train(&data).unwrap();
        for row in &rows {
            let rec = sq.decode(&sq.encode(row));
            for (orig, dec) in row.iter().zip(&rec) {
                // One step = (max-min)/255 <= 20/255.
                assert!((orig - dec).abs() <= 20.0 / 255.0 + 1e-4);
            }
        }
    });
}

/// Every storage-resident read a DiskANN or SPANN search issues is whole,
/// 4 KiB-aligned sectors — and DiskANN graph-node fetches are exactly one
/// page each (the paper's O-15: storage-based indexes speak 4 KiB).
#[test]
fn storage_index_reads_are_page_aligned() {
    use sann::core::rng::SplitMix64;
    use sann::index::{
        DiskAnnConfig, DiskAnnIndex, SearchParams, SpannConfig, SpannIndex, TraceStep, VectorIndex,
    };

    let gen_rows = |seed: u64, n: usize, dim: usize| {
        let mut rng = SplitMix64::new(seed);
        Dataset::from_rows(
            (0..n)
                .map(|_| (0..dim).map(|_| rng.next_f32()).collect())
                .collect::<Vec<_>>(),
        )
        .unwrap()
    };
    let data = gen_rows(7, 400, 64);
    let queries = gen_rows(8, 12, 64);
    let params = SearchParams::default();

    let diskann = DiskAnnIndex::build(&data, Metric::L2, DiskAnnConfig::default()).unwrap();
    let spann = SpannIndex::build(&data, Metric::L2, SpannConfig::default()).unwrap();
    for q in queries.iter() {
        let out = diskann.search(q, 10, &params).unwrap();
        out.trace.validate(params.beam_width).unwrap();
        for step in &out.trace.steps {
            if let TraceStep::Read { reqs } = step {
                assert!(!reqs.is_empty());
                assert!(
                    reqs.len() <= params.beam_width,
                    "beam wider than beam_width"
                );
                for r in reqs {
                    assert_eq!(r.offset % 4096, 0, "unaligned DiskANN read");
                    assert_eq!(r.len, 4096, "graph-node fetch must be one page");
                }
            }
        }
        let out = spann.search(q, 10, &params).unwrap();
        // SPANN reads whole posting lists, not beams — no beam bound.
        out.trace.validate(0).unwrap();
        for step in &out.trace.steps {
            if let TraceStep::Read { reqs } = step {
                for r in reqs {
                    assert_eq!(r.offset % 4096, 0, "unaligned SPANN read");
                    assert_eq!(r.len % 4096, 0, "SPANN read must be whole sectors");
                }
            }
        }
    }
}

/// Identically-seeded builds and runs are bit-identical end to end, for
/// every graph family at its default configuration: the persisted bytes and
/// the traces match step for step, and the executor's metrics match byte
/// for byte (the invariant `sann-bench`'s `determinism` tests hold across
/// worker counts, cache states and fault replays).
#[test]
fn identically_seeded_runs_are_byte_identical() {
    use sann::core::rng::SplitMix64;
    use sann::engine::{Executor, QueryPlan, RunConfig, Segment};
    use sann::index::{
        DiskAnnConfig, DiskAnnIndex, FreshConfig, FreshDiskAnnIndex, HnswConfig, HnswIndex,
        HnswSqIndex, IoReq, SearchParams, VectorIndex,
    };

    let build_traces = || {
        let mut rng = SplitMix64::new(42);
        let mut row = || (0..48).map(|_| rng.next_f32()).collect::<Vec<f32>>();
        let data = Dataset::from_rows((0..300).map(|_| row()).collect::<Vec<_>>()).unwrap();
        let mut fresh =
            FreshDiskAnnIndex::build(&data, Metric::L2, FreshConfig::default()).unwrap();
        for _ in 0..4 {
            fresh.insert(&row()).unwrap();
        }
        let hnsw = HnswConfig::default();
        let families: [Box<dyn VectorIndex>; 4] = [
            Box::new(DiskAnnIndex::build(&data, Metric::L2, DiskAnnConfig::default()).unwrap()),
            Box::new(HnswIndex::build(&data, Metric::L2, hnsw).unwrap()),
            Box::new(HnswSqIndex::build(&data, Metric::L2, hnsw).unwrap()),
            Box::new(fresh),
        ];
        families.map(|index| {
            let traces = (0..8)
                .map(|i| {
                    index
                        .search(data.row(i * 7), 5, &SearchParams::default())
                        .unwrap()
                        .trace
                })
                .collect::<Vec<_>>();
            (index.persist_encode(), traces)
        })
    };
    let a = build_traces();
    let b = build_traces();
    assert_eq!(
        a, b,
        "identically-seeded builds must produce identical bytes and traces"
    );

    let plan = QueryPlan::new(vec![
        Segment::cpu(25.0),
        Segment::io(vec![IoReq::new(0, 4096), IoReq::new(16384, 4096)]),
        Segment::cpu(5.0),
    ]);
    let config = RunConfig {
        cores: 4,
        concurrency: 8,
        duration_us: 0.3e6,
        ..RunConfig::default()
    };
    let m1 = Executor::new(config).run(std::slice::from_ref(&plan));
    let m2 = Executor::new(config).run(&[plan]);
    assert_eq!(
        m1.canonical_bytes(),
        m2.canonical_bytes(),
        "identically-seeded runs must have byte-identical metrics"
    );
}

/// Flat index search equals ground truth for arbitrary data.
#[test]
fn flat_index_is_exact() {
    run("flat_index_is_exact", 100, |g: &mut Gen| {
        use sann::index::{FlatIndex, SearchParams, VectorIndex};
        let rows = g.vec_with(2, 50, |g| g.vec_f32(4, 5, -5.0, 5.0));
        let qi = g.usize_in(0, rows.len());
        let data = Dataset::from_rows(rows).unwrap();
        let index = FlatIndex::build(&data, Metric::L2);
        let out = index
            .search(data.row(qi), 1, &SearchParams::default())
            .unwrap();
        let best = out.neighbors[0];
        // The query vector itself must be at distance 0 (ties allowed).
        assert!(best.dist <= 1e-6);
    });
}
