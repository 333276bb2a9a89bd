//! The I/O design space changes *how* DiskANN reads, never *what* it
//! answers: every strategy in {naive, paged} x {no-prefetch, look-ahead} x
//! {phased, pipelined} must return identical top-k ids at equal
//! `search_list`/`beam_width`, and every strategy's traces must satisfy
//! the trace well-formedness invariants.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    reason = "fixtures convert small counts and sizes"
)]

use sann_datagen::catalog;
use sann_index::{DiskAnnConfig, DiskAnnIndex, IoStrategy, SearchParams, TraceStep, VectorIndex};

const K: usize = 10;

/// Shrinks a catalog spec to a size where graph builds are cheap while
/// keeping the generator's cluster structure and true record shapes.
fn small(spec: &sann_datagen::DatasetSpec, n_queries: usize) -> sann_datagen::DatasetSpec {
    let mut s = spec.scaled(1_500.0 / spec.n_base as f64);
    s.n_queries = n_queries;
    s
}

#[test]
fn every_strategy_returns_identical_topk_on_every_catalog_dataset() {
    for spec in catalog::all() {
        let spec = small(&spec, 25);
        let bundle = spec.generate();
        let index = DiskAnnIndex::build(&bundle.base, spec.metric, DiskAnnConfig::default())
            .expect("build must succeed");
        // A beam under the naive layout is at most W nodes x the sectors
        // each record spans; overlapped steps get 2x that inside validate.
        let spn = index.layout().sectors_per_node() as usize;
        let strategies = IoStrategy::all();
        assert_eq!(strategies.len(), 8);
        for (qi, q) in bundle.queries.iter().enumerate() {
            let mut baseline: Option<Vec<u32>> = None;
            for strat in &strategies {
                let params = SearchParams::default()
                    .with_search_list(40)
                    .with_beam_width(4)
                    .with_io(*strat);
                let out = index.search(q, K, &params).expect("search must succeed");
                out.trace
                    .validate(params.beam_width * spn)
                    .unwrap_or_else(|e| {
                        panic!("{} trace invalid on {}: {e}", strat.label(), spec.name)
                    });
                let ids: Vec<u32> = out.neighbors.iter().map(|n| n.id).collect();
                match &baseline {
                    None => baseline = Some(ids),
                    Some(b) => assert_eq!(
                        &ids,
                        b,
                        "strategy {} diverged from baseline on {} query {qi}",
                        strat.label(),
                        spec.name
                    ),
                }
            }
        }
    }
}

#[test]
fn paged_layout_issues_fewer_requests_than_naive() {
    // Neighbor co-location must actually pay: over a query set, the paged
    // layout's demand path issues no more requests than the naive layout,
    // and strictly fewer in aggregate (some hops hit co-resident pages).
    let spec = small(&catalog::cohere_s(), 25);
    let bundle = spec.generate();
    let index = DiskAnnIndex::build(&bundle.base, spec.metric, DiskAnnConfig::default())
        .expect("build must succeed");
    let count = |strat: IoStrategy| -> u64 {
        let params = SearchParams::default()
            .with_search_list(40)
            .with_beam_width(4)
            .with_io(strat);
        bundle
            .queries
            .iter()
            .map(|q| index.search(q, K, &params).unwrap().trace.io_count())
            .sum()
    };
    let naive = count(IoStrategy::default());
    let paged = count(IoStrategy {
        layout: sann_index::LayoutKind::Paged,
        ..IoStrategy::default()
    });
    assert!(
        paged < naive,
        "co-location must eliminate some reads: paged {paged} vs naive {naive}"
    );
}

#[test]
fn pipelined_strategies_emit_overlapped_steps_and_phased_never_do() {
    let spec = small(&catalog::cohere_s(), 10);
    let bundle = spec.generate();
    let index = DiskAnnIndex::build(&bundle.base, spec.metric, DiskAnnConfig::default())
        .expect("build must succeed");
    for strat in IoStrategy::all() {
        let params = SearchParams::default()
            .with_search_list(40)
            .with_beam_width(4)
            .with_io(strat);
        let overlapped: usize = bundle
            .queries
            .iter()
            .map(|q| {
                index
                    .search(q, K, &params)
                    .unwrap()
                    .trace
                    .steps
                    .iter()
                    .filter(|s| matches!(s, TraceStep::Overlapped { .. }))
                    .count()
            })
            .sum();
        if strat.pipelined || strat.look_ahead {
            assert!(
                overlapped > 0,
                "{} must overlap reads with compute",
                strat.label()
            );
        } else {
            assert_eq!(
                overlapped,
                0,
                "{} is strictly phased and may not overlap",
                strat.label()
            );
        }
    }
}

#[test]
fn default_strategy_traces_are_unchanged_by_the_design_space() {
    // The explorer must not perturb the baseline: searching with the
    // default `IoStrategy` produces the same trace as the plain default
    // parameters (which golden files across the workspace depend on).
    let spec = small(&catalog::cohere_s(), 10);
    let bundle = spec.generate();
    let index = DiskAnnIndex::build(&bundle.base, spec.metric, DiskAnnConfig::default())
        .expect("build must succeed");
    let plain = SearchParams::default()
        .with_search_list(40)
        .with_beam_width(4);
    let explicit = plain.with_io(IoStrategy::default());
    for q in bundle.queries.iter() {
        let a = index.search(q, K, &plain).unwrap();
        let b = index.search(q, K, &explicit).unwrap();
        assert_eq!(a.trace.steps, b.trace.steps);
        assert_eq!(a.neighbors, b.neighbors);
    }
}
