//! Metrics of one simulated run — the quantities the paper reports.

use sann_core::buf::ByteWriter;
use sann_core::cast;
use sann_obs::{IoProvenance, PhaseBreakdown};
use sann_ssdsim::IoStats;

/// Device-level telemetry the executor samples inside the DES event loop
/// (never gated on the trace level, so traced and untraced runs agree).
#[derive(Debug, Clone, Default)]
pub struct DeviceTelemetry {
    /// Mean device queue depth over all request arrivals (busy flash
    /// units seen by each arriving request).
    pub mean_queue_depth: f64,
    /// Fraction of total flash-unit time spent serving media work, 0..1.
    pub utilization: f64,
    /// Per-second mean queue depth (same 1 s windows as the bandwidth
    /// timeline).
    pub queue_depth_timeline: Vec<f64>,
    /// Per-second device utilization, 0..1 per window.
    pub utilization_timeline: Vec<f64>,
}

/// Fault-injection and resilience accounting for one run.
///
/// All-zero on a fault-free run ([`FaultStats::is_clean`]): the executor
/// counts on every run — its read-conservation audit needs the ledger — but
/// reports it only under an active fault profile, so the `none` profile
/// stays byte-identical to a build without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Read attempts that failed with an injected transient error.
    pub injected_errors: u64,
    /// Read attempts that suffered an injected latency spike.
    pub latency_spikes: u64,
    /// Total simulated time reads stalled behind GC pauses, ns.
    pub gc_stall_ns: u64,
    /// Retry attempts issued after a failed read.
    pub retries: u64,
    /// Planned reads abandoned after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// Hedged duplicate reads issued.
    pub hedges_issued: u64,
    /// Attempts abandoned because a sibling resolved the read first
    /// (the loser of a hedge race — cancelled exactly once per race).
    pub hedges_cancelled: u64,
    /// Planned reads abandoned because the per-query IO deadline passed.
    pub deadline_skips: u64,
    /// Queries that completed with at least one planned read abandoned
    /// (their top-k is partial; see [`FaultStats::degraded_recall`]).
    pub degraded_queries: u64,
    /// Reads the activated queries' plans called for.
    pub ios_planned: u64,
    /// Planned reads served (from device or page cache).
    pub ios_completed: u64,
    /// Planned reads abandoned (retry exhaustion or deadline).
    pub ios_abandoned: u64,
}

impl FaultStats {
    /// Whether the run saw no fault activity at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Fraction of planned reads actually served, 0..1 (1.0 when no reads
    /// were planned). The executor guarantees
    /// `ios_planned == ios_completed + ios_abandoned` at run end.
    pub fn served_fraction(&self) -> f64 {
        if self.ios_planned == 0 {
            1.0
        } else {
            cast::f64_from_u64(self.ios_completed) / cast::f64_from_u64(self.ios_planned)
        }
    }

    /// Honest upper bound on the recall of a degraded run: each abandoned
    /// read removes its candidates from the search frontier, so recall can
    /// be no better than the healthy recall scaled by the fraction of
    /// reads served.
    pub fn degraded_recall(&self, healthy_recall: f64) -> f64 {
        healthy_recall * self.served_fraction()
    }

    /// The ledger as `(registry counter, value)` pairs in encoding order:
    /// the one list that the executor's registry and
    /// [`FaultStats::encode`] both read.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("engine.faults_injected", self.injected_errors),
            ("engine.fault_spikes", self.latency_spikes),
            ("engine.fault_gc_stall_ns", self.gc_stall_ns),
            ("engine.retries", self.retries),
            ("engine.retry_exhausted", self.retry_exhausted),
            ("engine.hedges_issued", self.hedges_issued),
            ("engine.hedges_cancelled", self.hedges_cancelled),
            ("engine.deadline_skips", self.deadline_skips),
            ("engine.queries_degraded", self.degraded_queries),
            ("engine.ios_planned", self.ios_planned),
            ("engine.ios_completed", self.ios_completed),
            ("engine.ios_abandoned", self.ios_abandoned),
        ]
    }

    /// Appends every field to the canonical encoding (fixed order).
    pub fn encode(&self, buf: &mut ByteWriter) {
        buf.put_u64s(self.counters().map(|(_, value)| value));
    }
}

/// Results of one closed-loop measurement run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Queries per second completed within the measurement window.
    pub qps: f64,
    /// Mean query latency, µs.
    pub mean_latency_us: f64,
    /// Median query latency, µs.
    pub p50_latency_us: f64,
    /// P99 tail latency, µs (the paper's latency metric).
    pub p99_latency_us: f64,
    /// Fraction of total core time spent busy (0..1); the paper's Fig. 4
    /// plots this as "global CPU usage".
    pub cpu_utilization: f64,
    /// Queries completed within the window.
    pub completed: u64,
    /// Mean bytes read per query (logical, before page cache).
    pub read_bytes_per_query: f64,
    /// Mean I/O requests per query (logical, before page cache).
    pub ios_per_query: f64,
    /// Mean device read bandwidth over the window, MiB/s.
    pub mean_bandwidth_mib: f64,
    /// Per-second device read bandwidth, MiB/s (Fig. 5's series).
    pub bandwidth_timeline_mib: Vec<f64>,
    /// Request-size histogram and counts at the block layer.
    pub io_stats: IoStats,
    /// Per-phase attribution of query time (queue wait, compute, beam
    /// issue, flash service, cache hit, rerank, delay). In-latency phases
    /// sum to the total reported latency exactly — the executor asserts
    /// this per query.
    pub phase_breakdown: PhaseBreakdown,
    /// Fault-injection and resilience accounting (all-zero on fault-free
    /// runs).
    pub fault: FaultStats,
    /// Measurement-window length, µs (needed to amortize time-based costs
    /// in [`crate::ledger`]).
    pub duration_us: f64,
    /// Page-cache hits per provenance tag (indexed by
    /// [`IoProvenance::index`]); together with
    /// [`IoStats::prov_reads`] this partitions every planned read by what
    /// it fetched and where it was served.
    pub prov_cache_hits: [u64; IoProvenance::COUNT],
    /// Bytes served from the page cache per provenance tag.
    pub prov_cache_hit_bytes: [u64; IoProvenance::COUNT],
    /// Device telemetry sampled inside the DES (queue depth, utilization).
    pub device: DeviceTelemetry,
    /// Fraction of device page accesses served by the hottest 10 % of
    /// touched 4 KiB pages (0.1 = uniform, → 1.0 = fully skewed).
    pub hot_page_skew: f64,
}

impl RunMetrics {
    /// Serializes every field to a canonical little-endian byte string.
    ///
    /// Two runs are *bit-identical* iff their canonical byte strings are
    /// equal — floats are encoded by their exact bit patterns, so this is
    /// strictly stronger than comparing rounded report values. The
    /// `sann-bench` `determinism` tests run the same sweep at different
    /// worker counts, cache states and fault replays and diff these strings
    /// byte for byte.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = ByteWriter::new();
        buf.put_f64_le(self.qps);
        buf.put_f64_le(self.mean_latency_us);
        buf.put_f64_le(self.p50_latency_us);
        buf.put_f64_le(self.p99_latency_us);
        buf.put_f64_le(self.cpu_utilization);
        buf.put_u64_le(self.completed);
        buf.put_f64_le(self.read_bytes_per_query);
        buf.put_f64_le(self.ios_per_query);
        // Bytes transferred from the device, after the page cache.
        buf.put_u64_le(self.io_stats.read_bytes);
        buf.put_f64_le(self.mean_bandwidth_mib);
        put_timeline(&mut buf, &self.bandwidth_timeline_mib);
        buf.put_u64_le(self.io_stats.reads);
        buf.put_u64_le(self.io_stats.writes);
        buf.put_u64_le(self.io_stats.read_bytes);
        buf.put_u64_le(self.io_stats.write_bytes);
        buf.put_count_u32(self.io_stats.size_histogram.len());
        for (&size, &count) in &self.io_stats.size_histogram {
            buf.put_u32_le(size);
            buf.put_u64_le(count);
        }
        self.phase_breakdown.encode(&mut buf);
        self.fault.encode(&mut buf);
        // I/O-characterization fields (appended after the legacy layout so
        // pre-existing prefixes stay byte-stable).
        buf.put_u64_le(self.io_stats.needed_read_bytes);
        for i in 0..IoProvenance::COUNT {
            buf.put_u64_le(self.io_stats.prov_reads[i]);
            buf.put_u64_le(self.io_stats.prov_read_bytes[i]);
            buf.put_u64_le(self.prov_cache_hits[i]);
            buf.put_u64_le(self.prov_cache_hit_bytes[i]);
        }
        buf.put_f64_le(self.duration_us);
        buf.put_f64_le(self.hot_page_skew);
        buf.put_f64_le(self.device.mean_queue_depth);
        buf.put_f64_le(self.device.utilization);
        put_timeline(&mut buf, &self.device.queue_depth_timeline);
        put_timeline(&mut buf, &self.device.utilization_timeline);
        buf.into_bytes()
    }

    /// Device read amplification: bytes fetched over bytes the planner
    /// actually needed (0.0 when nothing was needed). Cache-served reads
    /// count in neither term — this characterizes device traffic.
    pub fn read_amplification(&self) -> f64 {
        self.io_stats.read_amplification()
    }

    /// Mean read bandwidth one query sustains over its own lifetime, MiB/s —
    /// the paper's Fig. 6/11/15 metric. Computed as mean bytes per query over
    /// mean query latency: it grows with dataset size (more bytes per query,
    /// O-14) and shrinks with concurrency (latency inflates while bytes stay
    /// fixed, O-13).
    pub fn per_query_bandwidth_mib(&self) -> f64 {
        if self.mean_latency_us <= 0.0 {
            return 0.0;
        }
        self.read_bytes_per_query / 1_048_576.0 / (self.mean_latency_us / 1e6)
    }
}

/// A per-second timeline in the canonical encoding: its `u32` length, then
/// each sample's bit pattern.
fn put_timeline(buf: &mut ByteWriter, samples: &[f64]) {
    buf.put_count_u32(samples.len());
    buf.put_f64s(samples.iter().copied());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, QueryPlan, RunConfig, Segment};
    use sann_index::IoReq;
    use sann_obs::Phase;

    /// The metrics of a short real run with reads, to perturb one field at
    /// a time.
    fn sample() -> RunMetrics {
        let plan = QueryPlan::new(vec![
            Segment::cpu(20.0),
            Segment::io(vec![IoReq::new(0, 4096)]),
        ]);
        let config = RunConfig {
            cores: 2,
            concurrency: 2,
            duration_us: 10_000.0,
            ..RunConfig::default()
        };
        Executor::new(config).run(&[plan])
    }

    #[test]
    fn canonical_bytes_distinguishes_metric_changes() {
        let a = sample();
        assert_eq!(a.canonical_bytes(), sample().canonical_bytes());
        let mut b = a.clone();
        b.qps += 0.5;
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        let mut b = a.clone();
        b.bandwidth_timeline_mib.push(3.0);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        let mut b = a.clone();
        b.io_stats.read_bytes += 1;
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        // Moving a nanosecond between phases changes the encoding even
        // though every legacy metric stays identical.
        let mut c = a.clone();
        c.phase_breakdown.ns[Phase::Compute.index()] -= 1;
        c.phase_breakdown.ns[Phase::FlashService.index()] += 1;
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn per_query_bandwidth_is_bytes_over_latency() {
        // 1 MiB per query, 0.5 s latency → 2 MiB/s.
        let mut m = sample();
        m.read_bytes_per_query = (1 << 20) as f64;
        m.mean_latency_us = 0.5e6;
        assert!((m.per_query_bandwidth_mib() - 2.0).abs() < 1e-9);
        m.mean_latency_us = 0.0;
        assert_eq!(m.per_query_bandwidth_mib(), 0.0);
    }

    #[test]
    fn fault_stats_served_fraction_and_degraded_recall() {
        let clean = FaultStats::default();
        assert!(clean.is_clean());
        assert_eq!(clean.served_fraction(), 1.0);
        assert_eq!(clean.degraded_recall(0.95), 0.95);
        let f = FaultStats {
            ios_planned: 200,
            ios_completed: 150,
            ios_abandoned: 50,
            retry_exhausted: 50,
            degraded_queries: 10,
            ..FaultStats::default()
        };
        assert!(!f.is_clean());
        assert!((f.served_fraction() - 0.75).abs() < 1e-12);
        assert!((f.degraded_recall(0.9) - 0.675).abs() < 1e-12);
    }

    /// The counter table names every field of the ledger exactly once,
    /// under a distinct registry name.
    #[test]
    fn fault_counters_name_each_field_once() {
        let f = FaultStats {
            injected_errors: 1,
            latency_spikes: 2,
            gc_stall_ns: 3,
            retries: 4,
            retry_exhausted: 5,
            hedges_issued: 6,
            hedges_cancelled: 7,
            deadline_skips: 8,
            degraded_queries: 9,
            ios_planned: 10,
            ios_completed: 11,
            ios_abandoned: 12,
        };
        let counters = f.counters();
        let mut values: Vec<u64> = counters.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=12).collect::<Vec<u64>>());
        let names: std::collections::BTreeSet<&str> = counters.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), counters.len());
    }

    #[test]
    fn canonical_bytes_distinguishes_fault_stats() {
        let clean = sample();
        assert!(clean.fault.is_clean());
        let mut faulted = clean.clone();
        faulted.fault.retries = 1;
        assert_ne!(clean.canonical_bytes(), faulted.canonical_bytes());
    }
}
