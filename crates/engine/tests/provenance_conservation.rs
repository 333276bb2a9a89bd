//! Property tests for provenance conservation: every planned read lands in
//! exactly one (tag, cache-hit-or-device) cell, and the per-tag totals sum
//! back to the untyped totals — on clean and on faulty devices alike.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    reason = "fixtures scale small counts by a ratio"
)]

use sann_engine::{Executor, FaultConfig, FaultProfile, QueryPlan, RunConfig, Segment};
use sann_index::IoReq;
use sann_obs::IoProvenance;

/// A plan mixing every non-default tag plus an untagged (metadata) read,
/// with offsets spread so the small test cache keeps a working set.
fn tagged_plan(salt: u64) -> QueryPlan {
    let tag = |i: u64, p| IoReq::tagged((salt * 97 + i) % 32 * 4096, 4096, 3332, p);
    QueryPlan::new(vec![
        Segment::cpu(10.0),
        Segment::io(vec![
            tag(0, IoProvenance::GraphAdjacency),
            tag(1, IoProvenance::GraphAdjacency),
            tag(2, IoProvenance::VectorBlock),
        ]),
        Segment::cpu(5.0),
        Segment::io(vec![
            tag(3, IoProvenance::IvfPostingList),
            tag(4, IoProvenance::PqCodes),
            IoReq::new((salt * 31) % 16 * 4096 + (1 << 24), 4096),
        ]),
        Segment::cpu(5.0),
    ])
}

/// Like [`tagged_plan`] but with the second beam issued as a pipelined
/// [`Segment::Overlapped`]: reads in flight under CPU work, the shape the
/// I/O design-space explorer's `+pipe` strategies compile to.
fn overlapped_plan(salt: u64) -> QueryPlan {
    let tag = |i: u64, p| IoReq::tagged((salt * 89 + i) % 32 * 4096, 4096, 3332, p);
    QueryPlan::new(vec![
        Segment::cpu(10.0),
        Segment::io(vec![
            tag(0, IoProvenance::GraphAdjacency),
            tag(1, IoProvenance::VectorBlock),
        ]),
        Segment::overlapped(
            8.0,
            2,
            vec![
                tag(2, IoProvenance::IvfPostingList),
                tag(3, IoProvenance::PqCodes),
                IoReq::new((salt * 37) % 16 * 4096 + (1 << 24), 4096),
            ],
        ),
        Segment::cpu(5.0),
    ])
}

fn config(cache_bytes: u64, profile: FaultProfile) -> RunConfig {
    RunConfig {
        cores: 4,
        concurrency: 8,
        duration_us: 0.2e6,
        cache_bytes,
        faults: FaultConfig {
            profile,
            ..FaultConfig::default()
        },
        ..RunConfig::default()
    }
}

fn check_conservation(cache_bytes: u64, profile: FaultProfile) {
    check_conservation_of(cache_bytes, profile, tagged_plan);
}

fn check_conservation_of(cache_bytes: u64, profile: FaultProfile, plan: fn(u64) -> QueryPlan) {
    let plans: Vec<QueryPlan> = (0..4).map(plan).collect();
    let run =
        Executor::new(config(cache_bytes, profile)).run_traced(&plans, sann_obs::TraceLevel::Off);
    let m = &run.metrics;
    let s = &m.io_stats;
    assert!(s.reads > 0, "runs must actually read");

    // Every device read carries exactly one tag: the per-tag partitions
    // sum back to the untyped totals with no remainder.
    assert_eq!(s.prov_reads.iter().sum::<u64>(), s.reads);
    assert_eq!(s.prov_read_bytes.iter().sum::<u64>(), s.read_bytes);
    assert!(s.needed_read_bytes <= s.read_bytes);

    // Cache hits partition the same way, and hits + device reads account
    // for every logical read the plans issued (device reads can exceed
    // that under faults — retries and hedges re-read — never undershoot).
    let hits: u64 = m.prov_cache_hits.iter().sum();
    assert_eq!(hits, run.registry.counter("engine.reads_cache_hit"));
    let logical =
        (m.ios_per_query * run.registry.counter("engine.queries_issued") as f64).round() as u64;
    assert!(
        s.reads + hits >= logical,
        "reads {} + hits {hits} must cover {logical} planned",
        s.reads
    );
    if !profile.active() {
        assert_eq!(
            s.reads + hits,
            logical,
            "clean runs read each plan entry once"
        );
    }

    // The tags the plans used (and only those) show up in the breakdown.
    for p in [
        IoProvenance::GraphAdjacency,
        IoProvenance::VectorBlock,
        IoProvenance::IvfPostingList,
        IoProvenance::PqCodes,
        IoProvenance::Metadata,
    ] {
        let touched = s.prov_reads[p.index()] + m.prov_cache_hits[p.index()];
        assert!(touched > 0, "tag {p} must appear in every plan's beam");
    }
    // Needed bytes reflect the tagged payloads: 3332 of every tagged 4096.
    assert!(m.read_amplification() >= 1.0);
}

#[test]
fn conservation_direct_io_clean() {
    check_conservation(0, FaultProfile::none());
}

#[test]
fn conservation_with_page_cache() {
    check_conservation(1 << 20, FaultProfile::none());
}

#[test]
fn conservation_under_aging_faults() {
    check_conservation(0, FaultProfile::parse("aging").unwrap());
}

#[test]
fn conservation_under_flaky_faults_with_cache() {
    check_conservation(1 << 20, FaultProfile::parse("flaky").unwrap());
}

#[test]
fn conservation_overlapped_clean() {
    check_conservation_of(0, FaultProfile::none(), overlapped_plan);
}

#[test]
fn conservation_overlapped_with_page_cache() {
    check_conservation_of(1 << 20, FaultProfile::none(), overlapped_plan);
}

#[test]
fn conservation_overlapped_under_flaky_faults() {
    check_conservation_of(0, FaultProfile::parse("flaky").unwrap(), overlapped_plan);
}

#[test]
fn amplification_reflects_sector_padding() {
    // 3332 needed of every 4096-byte sector: amplification = 4096/3332.
    let plans: Vec<QueryPlan> = (0..4).map(tagged_plan).collect();
    let m = Executor::new(config(0, FaultProfile::none())).run(&plans);
    let expect = 4096.0 / 3332.0;
    // One untagged (needed == len) read per 6 tagged ones pulls the mean
    // below the pure-padding ratio but above 1.
    assert!(m.read_amplification() > 1.05 && m.read_amplification() < expect + 1e-9);
    assert!(m.hot_page_skew > 0.0, "a finite working set has hot pages");
}
