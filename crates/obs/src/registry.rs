//! Named counters/histograms and the per-phase latency breakdown.
//!
//! The [`Registry`] replaces ad-hoc `Vec<f64>` plumbing: the engine
//! records exact per-query latencies (nanoseconds, as `u64`) plus named
//! counters and log-bucketed histograms here, and folds the per-query
//! phase attribution into a [`PhaseBreakdown`]. Both are mergeable across
//! worker shards and carry exact canonical byte encodings for the
//! determinism audit.

use std::collections::BTreeMap;

use sann_core::buf::ByteWriter;
use sann_core::cast;

use crate::hist::LogHistogram;
use crate::span::Phase;

/// Per-phase attribution of simulated time across a whole run.
///
/// For each query the engine accumulates one `[u64; Phase::COUNT]` of
/// nanoseconds and adds it here. In-latency phases partition the query's
/// `[activation, completion]` interval, so per query
/// `sum(in-latency phases) == reported latency` holds *exactly* — the
/// engine asserts it (the ISSUE's 1 µs budget is met with 0 ns error).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Number of queries folded in.
    pub queries: u64,
    /// Total nanoseconds attributed to each phase, indexed by
    /// [`Phase::index`].
    pub ns: [u64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> PhaseBreakdown {
        PhaseBreakdown::default()
    }

    /// Folds one query's per-phase nanoseconds in.
    pub fn add_query(&mut self, phase_ns: &[u64; Phase::COUNT]) {
        self.queries += 1;
        for (total, ns) in self.ns.iter_mut().zip(phase_ns) {
            *total += ns;
        }
    }

    /// Total nanoseconds attributed to `phase` across the run.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.ns[phase.index()]
    }

    /// Total in-latency nanoseconds — equals the sum of all reported
    /// per-query latencies.
    pub fn latency_ns(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter(|p| p.in_latency())
            .map(|p| self.phase_ns(*p))
            .sum()
    }

    /// Mean microseconds per query spent in `phase`; `0.0` when empty.
    pub fn mean_us(&self, phase: Phase) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            cast::f64_from_u64(self.phase_ns(phase)) / cast::f64_from_u64(self.queries) / 1_000.0
        }
    }

    /// Fraction of total in-latency time spent in `phase`; `0.0` when the
    /// run recorded no latency (queue wait reports its share of the same
    /// denominator, so fractions of in-latency phases sum to 1).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.latency_ns();
        if total == 0 {
            0.0
        } else {
            cast::f64_from_u64(self.phase_ns(phase)) / cast::f64_from_u64(total)
        }
    }

    /// Folds another shard's breakdown in (exact).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.queries += other.queries;
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            *a += b;
        }
    }

    /// Appends the canonical little-endian encoding.
    pub fn encode(&self, buf: &mut ByteWriter) {
        buf.put_u64_le(self.queries);
        buf.put_u64s(self.ns.iter().copied());
    }

    /// Canonical little-endian encoding (queries, then per-phase totals
    /// in [`Phase::ALL`] order).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = ByteWriter::new();
        self.encode(&mut buf);
        buf.into_bytes()
    }
}

/// A run-scoped registry of named counters and histograms, plus the exact
/// per-query latency samples the metric layer consumes.
///
/// Names are `&'static str` and stored in `BTreeMap`s so iteration order
/// — and therefore every export — is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, LogHistogram>,
    latencies_ns: Vec<u64>,
    breakdown: PhaseBreakdown,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `v` to the counter `name`, creating it at zero.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into the histogram `name`, creating it empty.
    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// The histogram `name`, if any value was ever recorded.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Folds a pre-aggregated histogram into the named slot (one map
    /// touch for a whole run's worth of samples).
    pub fn hist_merge(&mut self, name: &'static str, h: &LogHistogram) {
        self.hists.entry(name).or_default().merge(h);
    }

    /// Records one completed query: its exact latency and its per-phase
    /// attribution (which must sum to `latency_ns` over in-latency
    /// phases; the engine asserts this before calling).
    pub fn record_query(&mut self, latency_ns: u64, phase_ns: &[u64; Phase::COUNT]) {
        self.latencies_ns.push(latency_ns);
        self.breakdown.add_query(phase_ns);
    }

    /// Exact per-query latencies in completion order, microseconds —
    /// the shape `RunMetrics` historically consumed. The conversion is
    /// the same `ns / 1000.0` f64 arithmetic the executor used, so
    /// metric values are bit-identical to the pre-registry plumbing.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.latencies_ns
            .iter()
            .map(|&ns| cast::f64_from_u64(ns) / 1_000.0)
            .collect()
    }

    /// The run's per-phase breakdown.
    pub fn breakdown(&self) -> &PhaseBreakdown {
        &self.breakdown
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Folds another shard's registry in. Counters and histograms merge
    /// by name; the other shard's latency samples are appended in order.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.breakdown.merge(&other.breakdown);
    }

    /// Canonical little-endian encoding of everything in the registry:
    /// counters (name-ordered), histograms (name-ordered), exact latency
    /// samples, and the phase breakdown.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = ByteWriter::new();
        buf.put_count_u32(self.counters.len());
        for (name, v) in &self.counters {
            buf.put_str(name);
            buf.put_u64_le(*v);
        }
        buf.put_count_u32(self.hists.len());
        for (name, h) in &self.hists {
            buf.put_str(name);
            h.encode(&mut buf);
        }
        buf.put_count_u32(self.latencies_ns.len());
        buf.put_u64s(self.latencies_ns.iter().copied());
        self.breakdown.encode(&mut buf);
        buf.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_vec(pairs: &[(Phase, u64)]) -> [u64; Phase::COUNT] {
        let mut v = [0u64; Phase::COUNT];
        for (p, ns) in pairs {
            v[p.index()] = *ns;
        }
        v
    }

    #[test]
    fn breakdown_attributes_and_sums() {
        let mut b = PhaseBreakdown::new();
        b.add_query(&phase_vec(&[
            (Phase::QueueWait, 500),
            (Phase::Compute, 1_000),
            (Phase::FlashService, 3_000),
        ]));
        b.add_query(&phase_vec(&[(Phase::Compute, 2_000), (Phase::Rerank, 500)]));
        assert_eq!(b.queries, 2);
        assert_eq!(b.phase_ns(Phase::Compute), 3_000);
        // Queue wait is excluded from latency.
        assert_eq!(b.latency_ns(), 1_000 + 3_000 + 2_000 + 500);
        assert!((b.mean_us(Phase::Compute) - 1.5).abs() < 1e-12);
        let in_latency_total: f64 = Phase::ALL
            .iter()
            .filter(|p| p.in_latency())
            .map(|p| b.fraction(*p))
            .sum();
        assert!((in_latency_total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_merge_is_exact() {
        let mut a = PhaseBreakdown::new();
        a.add_query(&phase_vec(&[(Phase::Compute, 10)]));
        let mut b = PhaseBreakdown::new();
        b.add_query(&phase_vec(&[(Phase::Delay, 20)]));
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = PhaseBreakdown::new();
        direct.add_query(&phase_vec(&[(Phase::Compute, 10)]));
        direct.add_query(&phase_vec(&[(Phase::Delay, 20)]));
        assert_eq!(merged, direct);
        assert_eq!(merged.canonical_bytes(), direct.canonical_bytes());
    }

    #[test]
    fn registry_counters_hists_latencies() {
        let mut r = Registry::new();
        r.counter_add("cache.hits", 3);
        r.counter_add("cache.hits", 2);
        r.hist_record("io.read_bytes", 4096);
        r.record_query(1_500, &phase_vec(&[(Phase::Compute, 1_500)]));
        assert_eq!(r.counter("cache.hits"), 5);
        assert_eq!(r.counter("never"), 0);
        assert_eq!(r.hist("io.read_bytes").unwrap().count(), 1);
        assert!(r.hist("never").is_none());
        assert_eq!(r.latencies_ns, [1_500]);
        assert_eq!(r.latencies_us(), vec![1.5]);
        assert_eq!(r.breakdown().queries, 1);
    }

    #[test]
    fn registry_merge_matches_single_shard() {
        let mut a = Registry::new();
        a.counter_add("x", 1);
        a.hist_record("h", 10);
        a.record_query(100, &phase_vec(&[(Phase::Compute, 100)]));
        let mut b = Registry::new();
        b.counter_add("x", 2);
        b.counter_add("y", 7);
        b.hist_record("h", 20);
        b.record_query(200, &phase_vec(&[(Phase::Rerank, 200)]));
        let mut merged = a.clone();
        merged.merge(&b);

        let mut direct = Registry::new();
        direct.counter_add("x", 3);
        direct.counter_add("y", 7);
        direct.hist_record("h", 10);
        direct.hist_record("h", 20);
        direct.record_query(100, &phase_vec(&[(Phase::Compute, 100)]));
        direct.record_query(200, &phase_vec(&[(Phase::Rerank, 200)]));
        assert_eq!(merged.canonical_bytes(), direct.canonical_bytes());
    }
}
