//! Cross-crate integration tests: dataset generation → index build →
//! trace collection → engine replay, asserting the paper's headline *shapes*
//! at miniature scale.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "test helpers fail the test on a setup error"
)]

use sann::core::{Metric, Result};
use sann::datagen::{catalog, GroundTruth};
use sann::engine::{Executor, RunConfig};
use sann::index::{search_ids, VectorIndex};
use sann::vdb::{Setup, SetupKind};
use std::sync::{Once, OnceLock};

const K: usize = 10;

struct World {
    base: sann::core::Dataset,
    queries: sann::core::Dataset,
    truth: GroundTruth,
}

/// The one world every test shares: generated and ground-truthed once.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        // cohere-s at 1/500 scale: 2,000 × 768-d.
        let spec = catalog::cohere_s().scaled(0.002);
        let bundle = spec.generate();
        let queries = bundle.queries.truncated(50);
        let truth = GroundTruth::bruteforce(&bundle.base, &queries, spec.metric, K);
        World {
            base: bundle.base,
            queries,
            truth,
        }
    })
}

type Prepared = (Setup, Box<dyn VectorIndex>, f64);

/// The setups the tests prepare, slowest build first.
const KINDS: [SetupKind; 3] = [
    SetupKind::MilvusDiskann,
    SetupKind::MilvusHnsw,
    SetupKind::MilvusIvf,
];

/// The tuned setup, built index and achieved recall of `kind` on the shared
/// world, prepared once per kind however many tests ask. The first asker
/// starts every build in the background, so the builds overlap each other
/// and the tests whatever order the harness runs them in; each asker then
/// waits for the one it needs. `Setup` is `Copy`: a test that moves a knob
/// does so on its own copy.
fn prepare(w: &'static World, kind: SetupKind) -> &'static Prepared {
    static PREPARED: [OnceLock<Prepared>; 3] = [const { OnceLock::new() }; 3];
    static STARTED: Once = Once::new();
    fn get(w: &World, kind: SetupKind) -> &'static Prepared {
        let slot = KINDS
            .iter()
            .position(|&k| k == kind)
            .expect("a shared kind");
        PREPARED[slot].get_or_init(|| {
            let mut setup = Setup::new(kind, w.base.len());
            let index = setup.build_index(&w.base, Metric::L2).unwrap();
            let recall = setup
                .tune(index.as_ref(), &w.queries, &w.truth, 0.9)
                .unwrap();
            (setup, index, recall)
        })
    }
    STARTED.call_once(|| {
        for kind in KINDS {
            std::thread::spawn(move || get(w, kind));
        }
    });
    get(w, kind)
}

fn run_at(
    w: &World,
    setup: &Setup,
    index: &dyn VectorIndex,
    kind: SetupKind,
    concurrency: usize,
) -> Result<sann::engine::RunMetrics> {
    let traces = setup.traces(index, &w.queries, K)?;
    // The world is cohere-s at 1/500 of the paper's size; compile plans with
    // the same calibrated scale extrapolation the benchmark harness uses.
    let plans = sann::vdb::setup::calibrated_plan_builder(kind, 1.0, 0.002).build_all(&traces);
    let config = RunConfig {
        cores: 20,
        concurrency,
        duration_us: 2e6,
        ..RunConfig::default()
    };
    Ok(Executor::new(config).run(&plans))
}

/// KF-1 precondition: every tunable setup reaches the paper's recall target.
#[test]
fn all_milvus_setups_reach_recall_target() {
    let w = world();
    for kind in [
        SetupKind::MilvusIvf,
        SetupKind::MilvusHnsw,
        SetupKind::MilvusDiskann,
    ] {
        let &(_, _, recall) = prepare(w, kind);
        assert!(recall >= 0.9, "{kind} recall {recall}");
    }
}

/// KF-1: storage-based DiskANN outperforms memory-based IVF in throughput
/// (the paper's headline counterintuitive); memory-based HNSW beats both.
#[test]
fn kf1_throughput_ordering_at_high_concurrency() {
    let w = world();
    let mut qps = std::collections::BTreeMap::new();
    for kind in [
        SetupKind::MilvusIvf,
        SetupKind::MilvusHnsw,
        SetupKind::MilvusDiskann,
    ] {
        let (setup, index, _) = prepare(w, kind);
        let m = run_at(w, setup, index.as_ref(), kind, 64).unwrap();
        qps.insert(kind, m.qps);
    }
    assert!(
        qps[&SetupKind::MilvusHnsw] > qps[&SetupKind::MilvusDiskann],
        "hnsw {} must beat diskann {}",
        qps[&SetupKind::MilvusHnsw],
        qps[&SetupKind::MilvusDiskann]
    );
    assert!(
        qps[&SetupKind::MilvusDiskann] > qps[&SetupKind::MilvusIvf],
        "diskann {} must beat ivf {} (KF-1)",
        qps[&SetupKind::MilvusDiskann],
        qps[&SetupKind::MilvusIvf]
    );
}

/// O-1/O-7: the storage-based index pays a latency premium over HNSW at
/// low concurrency, and only the storage-based setups issue device reads.
#[test]
fn storage_setups_read_memory_setups_do_not() {
    let w = world();
    let (hnsw_setup, hnsw_index, _) = prepare(w, SetupKind::MilvusHnsw);
    let (dann_setup, dann_index, _) = prepare(w, SetupKind::MilvusDiskann);
    let m_hnsw = run_at(w, hnsw_setup, hnsw_index.as_ref(), SetupKind::MilvusHnsw, 1).unwrap();
    let m_dann = run_at(
        w,
        dann_setup,
        dann_index.as_ref(),
        SetupKind::MilvusDiskann,
        1,
    )
    .unwrap();
    assert_eq!(
        m_hnsw.io_stats.read_bytes, 0,
        "memory-based setup must not read"
    );
    assert!(
        m_dann.io_stats.read_bytes > 0,
        "storage-based setup must read"
    );
    assert!(
        m_dann.p99_latency_us > m_hnsw.p99_latency_us,
        "diskann p99 {} should exceed hnsw p99 {} at qd1",
        m_dann.p99_latency_us,
        m_hnsw.p99_latency_us
    );
}

/// O-15: the storage-based graph index issues only 4 KiB requests.
#[test]
fn o15_requests_are_4k() {
    let w = world();
    let (setup, index, _) = prepare(w, SetupKind::MilvusDiskann);
    let m = run_at(w, setup, index.as_ref(), SetupKind::MilvusDiskann, 16).unwrap();
    assert!(m.io_stats.size_fraction(4096) > 0.9999);
}

/// KF-3 shape: raising search_list raises recall and I/O, and costs
/// throughput.
#[test]
fn kf3_search_list_tradeoff() {
    let w = world();
    let (setup, index, _) = prepare(w, SetupKind::MilvusDiskann);
    let mut setup = *setup;
    setup.params.search_list = 10;
    let r10 = setup
        .recall(index.as_ref(), &w.queries, &w.truth, K)
        .unwrap();
    let m10 = run_at(w, &setup, index.as_ref(), SetupKind::MilvusDiskann, 16).unwrap();
    setup.params.search_list = 100;
    let r100 = setup
        .recall(index.as_ref(), &w.queries, &w.truth, K)
        .unwrap();
    let m100 = run_at(w, &setup, index.as_ref(), SetupKind::MilvusDiskann, 16).unwrap();
    assert!(r100 >= r10 - 1e-9, "recall {r10} -> {r100}");
    assert!(m100.qps < m10.qps, "qps {} -> {}", m10.qps, m100.qps);
    assert!(
        m100.read_bytes_per_query > 2.0 * m10.read_bytes_per_query,
        "bytes/query {} -> {}",
        m10.read_bytes_per_query,
        m100.read_bytes_per_query
    );
}

/// Closed-loop scaling: more clients cannot reduce throughput, and the
/// device never reports more bandwidth than its bus limit.
#[test]
fn concurrency_scaling_is_sane() {
    let w = world();
    let (setup, index, _) = prepare(w, SetupKind::MilvusDiskann);
    let mut last_qps = 0.0;
    for conc in [1usize, 8, 64] {
        let m = run_at(w, setup, index.as_ref(), SetupKind::MilvusDiskann, conc).unwrap();
        assert!(
            m.qps >= last_qps * 0.95,
            "qps regressed at {conc}: {} -> {}",
            last_qps,
            m.qps
        );
        assert!(
            m.mean_bandwidth_mib < 7.2 * 1024.0,
            "exceeded device bandwidth"
        );
        last_qps = m.qps;
    }
}

/// Every prepared index survives the round trip the artifact cache makes:
/// `persist_encode` to a file, read back, and `persist::decode_onto` over
/// the shared base, answering the world's queries with the same top-k ids.
#[test]
fn collection_round_trip_with_persistence() {
    let w = world();
    let dir = std::env::temp_dir().join(format!("sann-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for kind in KINDS {
        let (setup, index, _) = prepare(w, kind);
        let path = dir.join(format!("{kind}.idx"));
        std::fs::write(&path, index.persist_encode().unwrap()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let loaded = sann::index::persist::decode_onto(&bytes, Some(&w.base)).unwrap();
        let ids = |index: &dyn VectorIndex| {
            search_ids(index, &w.queries, K, &setup.params.search_params()).unwrap()
        };
        assert_eq!(ids(index.as_ref()), ids(loaded.as_ref()), "{kind}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
