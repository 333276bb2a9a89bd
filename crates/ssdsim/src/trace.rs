//! Block-layer I/O accounting — the simulator's analog of the paper's
//! bpftrace probe on `block_rq_issue` (§III-A). The probe sees every
//! request issued to the device (timestamp, operation, offset, size); the
//! tracer folds each one into its aggregates as it is recorded and keeps no
//! per-request log, so its memory follows the distinct request sizes and
//! pages touched, not the number of requests.

use crate::pagemap::PageMap;
use sann_core::cast;
use sann_obs::{IoProvenance, Timeline};
use std::collections::BTreeMap;

/// Type of a block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Block read.
    Read,
    /// Block write.
    Write,
}

const MIB: f64 = 1_048_576.0;

/// Folds block requests into the paper's I/O statistics as they are issued.
///
/// Every exported number is an integer sum, or an `f64` sum whose operands
/// are added in issue order, so the result equals a post-hoc walk over a
/// request log bit for bit (the tests keep that walk as their reference).
#[derive(Debug, Clone)]
pub struct IoTracer {
    duration_us: f64,
    stats: IoStats,
    /// Read bytes per 1 s window of `[0, duration_us)`; `None` when the
    /// horizon is not positive.
    read_bytes_per_s: Option<Timeline>,
    /// Device reads per 4 KiB page (page index = byte offset / 4096).
    page_heat: PageMap<u64>,
}

impl IoTracer {
    /// Creates an empty tracer for a run of `duration_us` simulated
    /// microseconds — the horizon of the bandwidth series.
    pub fn new(duration_us: f64) -> IoTracer {
        IoTracer {
            duration_us,
            stats: IoStats::default(),
            // The trailing-partial-bucket width lives in `sann_obs::Timeline`,
            // shared with the iostat queue-depth/utilization series.
            read_bytes_per_s: Timeline::new(duration_us, 1e6),
            page_heat: PageMap::new(),
        }
    }

    /// Records an untagged read issue (default provenance, every byte
    /// needed).
    pub fn record_read(&mut self, time_us: f64, offset: u64, len: u32) {
        self.record_read_tagged(time_us, offset, len, len, IoProvenance::default());
    }

    /// Records an untagged write issue.
    pub fn record_write(&mut self, time_us: f64, offset: u64, len: u32) {
        self.record_write_tagged(time_us, offset, len, len, IoProvenance::default());
    }

    /// Records a fully tagged read issue: provenance plus the payload
    /// bytes the issuer needs out of the fetched `len`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn record_read_tagged(
        &mut self,
        time_us: f64,
        offset: u64,
        len: u32,
        needed: u32,
        provenance: IoProvenance,
    ) {
        self.fold(IoOp::Read, time_us, offset, len, needed, provenance);
    }

    /// Records a fully tagged write issue.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn record_write_tagged(
        &mut self,
        time_us: f64,
        offset: u64,
        len: u32,
        needed: u32,
        provenance: IoProvenance,
    ) {
        self.fold(IoOp::Write, time_us, offset, len, needed, provenance);
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn fold(
        &mut self,
        op: IoOp,
        time_us: f64,
        offset: u64,
        len: u32,
        needed: u32,
        provenance: IoProvenance,
    ) {
        let s = &mut self.stats;
        *s.size_histogram.entry(len).or_insert(0) += 1;
        if op == IoOp::Write {
            s.writes += 1;
            s.write_bytes += u64::from(len);
            return;
        }
        s.reads += 1;
        s.read_bytes += u64::from(len);
        s.needed_read_bytes += u64::from(needed);
        if let (Some(n), Some(bytes)) = (
            s.prov_reads.get_mut(provenance.index()),
            s.prov_read_bytes.get_mut(provenance.index()),
        ) {
            *n += 1;
            *bytes += u64::from(len);
        }
        // Requests issued at or past the horizon belong to the run's totals
        // but to no bandwidth window.
        if let Some(tl) = &mut self.read_bytes_per_s {
            if time_us >= 0.0 && time_us < self.duration_us {
                tl.record(time_us, f64::from(len));
            }
        }
        let first = offset / 4096;
        let last = (offset + u64::from(len.max(1)) - 1) / 4096;
        for page in first..=last {
            if let Some(reads) = self.page_heat.entry(page) {
                *reads += 1;
            }
        }
    }

    /// The summary statistics so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Per-second read bandwidth series in MiB/s — the series plotted in the
    /// paper's Fig. 5. The run's duration fixes the number of buckets (a
    /// trailing partial second is scaled by its actual width); empty for a
    /// non-positive duration.
    pub fn bandwidth_timeline(&self) -> Vec<f64> {
        self.read_bytes_per_s
            .as_ref()
            .map(|tl| tl.rates_per_s().iter().map(|b| b / MIB).collect())
            .unwrap_or_default()
    }

    /// Per-4-KiB-page device-read access counts (a 128 KiB request touches
    /// 32 pages), copied out in page order. The raw heat map behind the
    /// hot-page-skew metric.
    pub fn page_heat(&self) -> BTreeMap<u64, u64> {
        self.page_heat.iter().collect()
    }

    /// Hot-page skew: the fraction of page accesses served by the hottest
    /// 10 % of touched pages (0.1 = perfectly uniform, → 1.0 = a few pages
    /// absorb everything). 0.0 when no reads were traced.
    pub fn hot_page_skew(&self) -> f64 {
        if self.page_heat.len() == 0 {
            return 0.0;
        }
        let mut counts: Vec<u64> = self.page_heat.iter().map(|(_, reads)| reads).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top = counts.len().div_ceil(10);
        let hot: u64 = counts.iter().take(top).sum();
        cast::f64_from_u64(hot) / cast::f64_from_u64(total)
    }

    /// Mean read bandwidth in MiB/s over the run's duration (0.0 for a
    /// non-positive duration).
    pub fn mean_read_bandwidth(&self) -> f64 {
        if self.duration_us <= 0.0 {
            return 0.0;
        }
        cast::f64_from_u64(self.stats.read_bytes) / MIB / (self.duration_us / 1e6)
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Number of read requests.
    pub reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Total bytes read.
    pub read_bytes: u64,
    /// Total bytes written.
    pub write_bytes: u64,
    /// Payload bytes the issuers actually needed out of `read_bytes`
    /// (read amplification denominator).
    pub needed_read_bytes: u64,
    /// Read-request counts per provenance tag, indexed by
    /// [`IoProvenance::index`]. Sums to `reads` exactly (the engine's
    /// provenance-conservation tests audit this end to end).
    pub prov_reads: [u64; IoProvenance::COUNT],
    /// Read bytes per provenance tag; sums to `read_bytes` exactly.
    pub prov_read_bytes: [u64; IoProvenance::COUNT],
    /// Request-size histogram (size → count), both ops combined.
    pub size_histogram: BTreeMap<u32, u64>,
}

impl IoStats {
    /// Read amplification: bytes fetched from the device over bytes the
    /// searches actually needed (≥ 1 for any tagged workload; 0.0 when no
    /// bytes were needed, i.e. no reads were traced).
    pub fn read_amplification(&self) -> f64 {
        if self.needed_read_bytes == 0 {
            return 0.0;
        }
        cast::f64_from_u64(self.read_bytes) / cast::f64_from_u64(self.needed_read_bytes)
    }

    /// Fraction of requests with size exactly `len` (the paper's O-15 checks
    /// this for 4 KiB).
    pub fn size_fraction(&self, len: u32) -> f64 {
        let total: u64 = self.size_histogram.values().sum();
        if total == 0 {
            return 0.0;
        }
        cast::f64_from_u64(*self.size_histogram.get(&len).unwrap_or(&0)) / cast::f64_from_u64(total)
    }

    /// The exact size→count map folded into the shared log₂ bucketing
    /// ([`sann_obs::hist::bucket_index`]). Because Fig. 6 and every
    /// exported trace derive their buckets from this one scheme, they
    /// cannot drift apart.
    pub fn size_log_histogram(&self) -> sann_obs::LogHistogram {
        let mut h = sann_obs::LogHistogram::new();
        for (&size, &count) in &self.size_histogram {
            h.record_n(size as u64, count);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::rng::SplitMix64;

    fn sample_tracer(duration_us: f64) -> IoTracer {
        let mut t = IoTracer::new(duration_us);
        t.record_read(100.0, 0, 4096);
        t.record_read(1_500_000.0, 4096, 4096);
        t.record_read(1_600_000.0, 8192, 8192);
        t.record_write(2_000_000.0, 0, 4096);
        t
    }

    #[test]
    fn stats_aggregate_correctly() {
        let t = sample_tracer(3e6);
        let stats = t.stats();
        assert_eq!(stats.reads, 3);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.read_bytes, 4096 + 4096 + 8192);
        assert_eq!(stats.write_bytes, 4096);
        assert_eq!(stats.size_histogram[&4096], 3);
        assert_eq!(stats.size_histogram[&8192], 1);
    }

    #[test]
    fn size_fraction_matches() {
        let t = sample_tracer(3e6);
        assert!((t.stats().size_fraction(4096) - 0.75).abs() < 1e-12);
        assert_eq!(t.stats().size_fraction(1234), 0.0);
    }

    #[test]
    fn timeline_buckets_by_second() {
        let tl = sample_tracer(3e6).bandwidth_timeline();
        assert_eq!(tl.len(), 3);
        assert!((tl[0] - 4096.0 / MIB).abs() < 1e-9);
        assert!((tl[1] - (4096.0 + 8192.0) / MIB).abs() < 1e-9);
        assert_eq!(tl[2], 0.0, "writes are excluded from read bandwidth");
    }

    #[test]
    fn timeline_partial_last_bucket_scales() {
        let mut t = IoTracer::new(0.5e6);
        t.record_read(0.0, 0, 1 << 20); // 1 MiB in the first half-second
        let tl = t.bandwidth_timeline();
        assert_eq!(tl.len(), 1);
        assert!(
            (tl[0] - 2.0).abs() < 1e-9,
            "1 MiB in 0.5 s = 2 MiB/s, got {}",
            tl[0]
        );
    }

    #[test]
    fn mean_bandwidth() {
        let mean = sample_tracer(2e6).mean_read_bandwidth();
        let expect = (4096.0 + 4096.0 + 8192.0) / MIB / 2.0;
        assert!((mean - expect).abs() < 1e-9);
    }

    #[test]
    fn size_log_histogram_uses_shared_buckets() {
        let t = sample_tracer(3e6);
        let h = t.stats().size_log_histogram();
        assert_eq!(h.count(), 4);
        // All three 4096-byte requests share the bucket whose floor is
        // 4096 under the scheme defined once in sann-obs.
        assert_eq!(
            sann_obs::hist::bucket_floor(sann_obs::hist::bucket_index(4096)),
            4096
        );
        assert_eq!(h.nonzero_buckets(), vec![(4096, 3), (8192, 1)]);
    }

    #[test]
    fn zero_event_size_fraction_is_zero() {
        // Satellite guard: an empty trace must not divide by zero.
        let t = IoTracer::new(1e6);
        assert_eq!(t.stats().size_fraction(4096), 0.0);
        assert_eq!(t.stats().reads, 0);
        assert_eq!(t.stats().read_amplification(), 0.0);
    }

    #[test]
    fn zero_duration_bandwidth_is_guarded() {
        // Satellite guard: zero / negative duration yields 0.0 and an
        // empty timeline instead of a NaN or a panic.
        for duration_us in [0.0, -5.0] {
            let t = sample_tracer(duration_us);
            assert_eq!(t.mean_read_bandwidth(), 0.0);
            assert!(t.bandwidth_timeline().is_empty());
            assert_eq!(t.stats().reads, 3, "totals do not need a horizon");
        }
        // And an empty tracer over a real window reads 0 MiB/s.
        assert_eq!(IoTracer::new(1e6).mean_read_bandwidth(), 0.0);
    }

    #[test]
    fn provenance_tags_aggregate_per_tag() {
        let mut t = IoTracer::new(1e6);
        t.record_read_tagged(0.0, 0, 4096, 3332, IoProvenance::GraphAdjacency);
        t.record_read_tagged(1.0, 4096, 4096, 3332, IoProvenance::GraphAdjacency);
        t.record_read_tagged(2.0, 8192, 8192, 6000, IoProvenance::PqCodes);
        t.record_write_tagged(3.0, 0, 4096, 4096, IoProvenance::GraphAdjacency);
        let stats = t.stats();
        assert_eq!(stats.prov_reads[IoProvenance::GraphAdjacency.index()], 2);
        assert_eq!(stats.prov_reads[IoProvenance::PqCodes.index()], 1);
        assert_eq!(
            stats.prov_read_bytes[IoProvenance::GraphAdjacency.index()],
            8192
        );
        // Conservation: per-tag totals sum exactly to the raw totals.
        assert_eq!(stats.prov_reads.iter().sum::<u64>(), stats.reads);
        assert_eq!(stats.prov_read_bytes.iter().sum::<u64>(), stats.read_bytes);
        // Writes do not leak into the read breakdown.
        assert_eq!(stats.write_bytes, 4096);
        // Read amplification: fetched / needed.
        let expect = (4096.0 + 4096.0 + 8192.0) / (3332.0 + 3332.0 + 6000.0);
        assert!((stats.read_amplification() - expect).abs() < 1e-12);
    }

    #[test]
    fn untagged_reads_default_to_metadata_with_full_need() {
        let t = sample_tracer(3e6);
        let stats = t.stats();
        assert_eq!(
            stats.prov_reads[IoProvenance::Metadata.index()],
            stats.reads
        );
        assert_eq!(stats.needed_read_bytes, stats.read_bytes);
        assert!((stats.read_amplification() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn page_heat_counts_every_touched_page() {
        let mut t = IoTracer::new(1e6);
        t.record_read(0.0, 0, 4096);
        t.record_read(1.0, 0, 4096);
        t.record_read(2.0, 8192, 8192); // pages 2 and 3
        t.record_write(3.0, 0, 4096); // writes are not read heat
        let heat = t.page_heat();
        assert_eq!(heat[&0], 2);
        assert_eq!(heat[&2], 1);
        assert_eq!(heat[&3], 1);
        assert_eq!(heat.len(), 3);
    }

    #[test]
    fn hot_page_skew_separates_uniform_from_skewed() {
        // Uniform: 20 pages touched once each → top 10% holds 2/20.
        let mut uniform = IoTracer::new(1e6);
        for i in 0..20u64 {
            uniform.record_read(i as f64, i * 4096, 4096);
        }
        assert!((uniform.hot_page_skew() - 0.1).abs() < 1e-12);
        // Skewed: one page absorbs most accesses.
        let mut skewed = IoTracer::new(1e6);
        for i in 0..20u64 {
            skewed.record_read(i as f64, 0, 4096);
        }
        for i in 0..5u64 {
            skewed.record_read(100.0 + i as f64, (i + 1) * 4096, 4096);
        }
        assert!(skewed.hot_page_skew() > 0.7);
        // Empty trace: no skew, not NaN.
        assert_eq!(IoTracer::new(1e6).hot_page_skew(), 0.0);
    }

    #[test]
    fn out_of_window_events_are_ignored_by_timeline() {
        let mut t = IoTracer::new(1e6);
        t.record_read(5e6, 0, 4096);
        assert_eq!(t.bandwidth_timeline(), vec![0.0]);
        assert_eq!(t.stats().reads, 1, "but still counted in the totals");
    }

    /// One logged block request, as the pre-streaming tracer kept it.
    #[derive(Clone, Copy)]
    struct IoEvent {
        time_us: f64,
        op: IoOp,
        offset: u64,
        len: u32,
        needed: u32,
        provenance: IoProvenance,
    }

    /// The pre-streaming tracer, verbatim: keep every request, derive each
    /// statistic afterwards by walking the log. The behavioural reference.
    #[derive(Default)]
    struct LogTracer {
        events: Vec<IoEvent>,
    }

    impl LogTracer {
        fn stats(&self) -> IoStats {
            let mut size_histogram = BTreeMap::new();
            let mut read_bytes = 0u64;
            let mut write_bytes = 0u64;
            let mut reads = 0u64;
            let mut writes = 0u64;
            let mut needed_read_bytes = 0u64;
            let mut prov_reads = [0u64; IoProvenance::COUNT];
            let mut prov_read_bytes = [0u64; IoProvenance::COUNT];
            for e in &self.events {
                *size_histogram.entry(e.len).or_insert(0u64) += 1;
                match e.op {
                    IoOp::Read => {
                        reads += 1;
                        read_bytes += e.len as u64;
                        needed_read_bytes += u64::from(e.needed);
                        prov_reads[e.provenance.index()] += 1;
                        prov_read_bytes[e.provenance.index()] += u64::from(e.len);
                    }
                    IoOp::Write => {
                        writes += 1;
                        write_bytes += e.len as u64;
                    }
                }
            }
            IoStats {
                reads,
                writes,
                read_bytes,
                write_bytes,
                needed_read_bytes,
                prov_reads,
                prov_read_bytes,
                size_histogram,
            }
        }

        fn bandwidth_timeline(&self, duration_us: f64) -> Vec<f64> {
            let Some(mut tl) = Timeline::new(duration_us, 1e6) else {
                return Vec::new();
            };
            for e in &self.events {
                if e.op != IoOp::Read || e.time_us < 0.0 || e.time_us >= duration_us {
                    continue;
                }
                tl.record(e.time_us, e.len as f64);
            }
            tl.rates_per_s()
                .iter()
                .map(|b| b / (1 << 20) as f64)
                .collect()
        }

        fn page_heat(&self) -> BTreeMap<u64, u64> {
            let mut heat = BTreeMap::new();
            for e in &self.events {
                if e.op != IoOp::Read {
                    continue;
                }
                let first = e.offset / 4096;
                let last = (e.offset + u64::from(e.len.max(1)) - 1) / 4096;
                for page in first..=last {
                    *heat.entry(page).or_insert(0u64) += 1;
                }
            }
            heat
        }

        fn hot_page_skew(&self) -> f64 {
            let heat = self.page_heat();
            if heat.is_empty() {
                return 0.0;
            }
            let mut counts: Vec<u64> = heat.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let total: u64 = counts.iter().sum();
            let top = counts.len().div_ceil(10);
            let hot: u64 = counts[..top].iter().sum();
            hot as f64 / total as f64
        }

        fn mean_read_bandwidth(&self, duration_us: f64) -> f64 {
            if duration_us <= 0.0 {
                return 0.0;
            }
            let bytes: u64 = self
                .events
                .iter()
                .filter(|e| e.op == IoOp::Read)
                .map(|e| e.len as u64)
                .sum();
            bytes as f64 / (1 << 20) as f64 / (duration_us / 1e6)
        }
    }

    /// The streaming folds equal the post-hoc walks bit for bit over random
    /// request streams: reads and writes, multi-page and zero-length
    /// requests, every provenance tag, and arrivals before, at and past a
    /// horizon that ends in a partial bucket.
    #[test]
    fn streaming_folds_match_the_logged_walks() {
        for (seed, duration_us) in [(1u64, 2.5e6), (2, 3e6), (3, 0.4e6), (4, 0.0)] {
            let mut rng = SplitMix64::new(seed);
            let mut fast = IoTracer::new(duration_us);
            let mut slow = LogTracer::default();
            let mut time_us = 0.0;
            for i in 0..5_000u64 {
                // Issue order is time order, as in the DES; every 500th
                // request lands exactly on the horizon.
                time_us += rng.next_bounded(1_500) as f64 + 0.25;
                let t = if i % 500 == 499 { duration_us } else { time_us };
                let e = IoEvent {
                    time_us: t,
                    op: if rng.next_bounded(5) == 0 {
                        IoOp::Write
                    } else {
                        IoOp::Read
                    },
                    offset: rng.next_bounded(300) * 4096 + rng.next_bounded(4096),
                    len: [0u32, 512, 4096, 4096, 4096, 12_288, 131_072]
                        [rng.next_bounded(7) as usize],
                    needed: rng.next_bounded(4097) as u32,
                    provenance: IoProvenance::ALL[rng.next_bounded(5) as usize],
                };
                slow.events.push(e);
                match e.op {
                    IoOp::Read => {
                        fast.record_read_tagged(e.time_us, e.offset, e.len, e.needed, e.provenance)
                    }
                    IoOp::Write => {
                        fast.record_write_tagged(e.time_us, e.offset, e.len, e.needed, e.provenance)
                    }
                }
            }
            assert!(time_us > 3e6, "the stream must run past every horizon");
            assert_eq!(fast.stats(), &slow.stats());
            assert_eq!(fast.page_heat(), slow.page_heat());
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(fast.bandwidth_timeline()),
                bits(slow.bandwidth_timeline(duration_us))
            );
            assert_eq!(
                fast.mean_read_bandwidth().to_bits(),
                slow.mean_read_bandwidth(duration_us).to_bits()
            );
            assert_eq!(
                fast.hot_page_skew().to_bits(),
                slow.hot_page_skew().to_bits()
            );
        }
    }

    /// What the tracer keeps follows the distinct pages and sizes it saw,
    /// not the requests it folded.
    #[test]
    fn retained_state_is_independent_of_requests_folded() {
        let retained = |requests: u64| {
            let mut t = IoTracer::new(5e6);
            for i in 0..requests {
                t.record_read(
                    i as f64 * 3.0,
                    (i % 300) * 4096,
                    [4096, 8192][(i % 2) as usize],
                );
            }
            assert_eq!(t.stats().reads, requests);
            let windows = t.read_bytes_per_s.as_ref().unwrap().n_buckets();
            (t.page_heat.len(), t.stats.size_histogram.len(), windows)
        };
        assert_eq!(retained(1_000), retained(100_000));
        assert_eq!(retained(1_000), (301, 2, 5));
    }
}
