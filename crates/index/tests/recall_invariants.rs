//! Recall invariants that must hold regardless of engine or fault-layer
//! changes: exact search is exact on every catalog dataset, and DiskANN
//! recall never degrades when the caller pays for a larger search list.

#![allow(clippy::cast_precision_loss, reason = "fixtures convert small counts")]

use sann_datagen::{catalog, GroundTruth};
use sann_index::{search_ids, DiskAnnConfig, DiskAnnIndex, FlatIndex, SearchParams};

const K: usize = 10;

/// Shrinks a catalog spec to a size where brute-force ground truth is
/// cheap while keeping the generator's cluster structure.
fn small(spec: &sann_datagen::DatasetSpec, n_queries: usize) -> sann_datagen::DatasetSpec {
    let mut s = spec.scaled(2_000.0 / spec.n_base as f64);
    s.n_queries = n_queries;
    s
}

#[test]
fn flat_index_recall_is_exactly_one_on_every_catalog_dataset() {
    for spec in catalog::all() {
        let spec = small(&spec, 50);
        let bundle = spec.generate();
        let index = FlatIndex::build(&bundle.base, spec.metric);
        let ids = search_ids(&index, &bundle.queries, K, &SearchParams::default())
            .expect("flat search cannot fail");
        let truth = GroundTruth::bruteforce(&bundle.base, &bundle.queries, spec.metric, K);
        let recall = truth.mean_recall(&ids);
        assert_eq!(
            recall, 1.0,
            "flat index is exact by construction, got {recall} on {}",
            spec.name
        );
    }
}

#[test]
fn diskann_recall_is_non_decreasing_in_search_list() {
    // The vdb tuner's search-list ladder: recall must be monotone in the
    // candidate-list size at fixed beam width, otherwise "pay more, get
    // less" tuning curves (fig. 7) would be meaningless.
    let spec = small(&catalog::all()[0], 100);
    let bundle = spec.generate();
    let index = DiskAnnIndex::build(&bundle.base, spec.metric, DiskAnnConfig::default())
        .expect("build must succeed");
    let truth = GroundTruth::bruteforce(&bundle.base, &bundle.queries, spec.metric, K);

    let ladder = [10usize, 15, 20, 30, 40, 60, 80, 100];
    let mut last = -1.0f64;
    for &l in &ladder {
        let params = SearchParams::default()
            .with_search_list(l)
            .with_beam_width(4);
        let ids = search_ids(&index, &bundle.queries, K, &params).expect("search must succeed");
        let recall = truth.mean_recall(&ids);
        assert!(
            recall >= last,
            "recall regressed along the ladder: {recall} at L={l} after {last}"
        );
        last = recall;
    }
    assert!(
        last > 0.9,
        "L=100 on a 2k-vector set must reach high recall, got {last}"
    );
}

#[test]
fn diskann_recall_is_deterministic_across_builds() {
    // Same spec, same config: two independent builds answer identically.
    let spec = small(&catalog::all()[0], 20);
    let bundle = spec.generate();
    let params = SearchParams::default()
        .with_search_list(40)
        .with_beam_width(4);
    let run = || {
        let index = DiskAnnIndex::build(&bundle.base, spec.metric, DiskAnnConfig::default())
            .expect("build must succeed");
        search_ids(&index, &bundle.queries, K, &params).expect("search must succeed")
    };
    assert_eq!(run(), run());
}
