//! The SSD service model.

use sann_core::cast;
use sann_obs::Timeline;
use std::collections::BinaryHeap;

/// Parameters describing an SSD's performance envelope.
///
/// Times are microseconds; bandwidths are bytes per microsecond (= MB/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdModel {
    /// Internal parallelism: number of independent flash units.
    pub units: usize,
    /// Media access latency per read request, µs (independent of size).
    pub base_latency_us: f64,
    /// Media program latency per write request, µs. NAND programs are
    /// slower than reads even through the SLC cache; concurrent writes
    /// therefore inflate read latency by occupying flash units longer
    /// (the read-write interference the paper's §VIII points at).
    pub write_latency_us: f64,
    /// Shared-bus bandwidth, bytes/µs.
    pub device_bw: f64,
    /// Host CPU time consumed per I/O (submission + completion path), µs.
    /// Charged by the execution engine to the submitting core.
    pub submit_cpu_us: f64,
}

impl SsdModel {
    /// A model calibrated to the paper's Samsung 990 Pro 4 TiB measurements:
    ///
    /// * peak 4 KiB random-read IOPS ≈ `units / base_latency_us` ≈ 1.33 M
    ///   (paper: 1.3 M at QD 64),
    /// * sequential 128 KiB bandwidth ≈ `device_bw` = 7,730 B/µs ≈ 7.2 GiB/s,
    /// * single-core 4 KiB IOPS ≈ `1 / submit_cpu_us` ≈ 325 K (paper: 324.3 K,
    ///   CPU-bound on the Linux storage stack),
    /// * QD1 4 KiB latency ≈ `base_latency_us` + transfer ≈ 49 µs.
    pub fn samsung_990_pro() -> SsdModel {
        SsdModel {
            units: 64,
            base_latency_us: 48.0,
            write_latency_us: 130.0,
            device_bw: 7730.0,
            submit_cpu_us: 3.08,
        }
    }

    /// A slower SATA-class model (the paper's OS drive, Samsung MZ7L31T9);
    /// useful for contrast experiments.
    pub fn sata_ssd() -> SsdModel {
        SsdModel {
            units: 8,
            base_latency_us: 90.0,
            write_latency_us: 250.0,
            device_bw: 550.0,
            submit_cpu_us: 4.0,
        }
    }

    /// Theoretical peak 4 KiB random-read IOPS of the model (media-limited).
    pub fn peak_iops_4k(&self) -> f64 {
        let media = cast::f64_from_usize(self.units) / self.base_latency_us;
        let bus = self.device_bw / 4096.0;
        media.min(bus) * 1e6
    }

    /// Theoretical peak sequential bandwidth in bytes/second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.device_bw * 1e6
    }

    /// Service time of one request in an otherwise idle device, µs.
    pub fn idle_latency_us(&self, len: u32) -> f64 {
        self.base_latency_us + f64::from(len) / self.device_bw
    }
}

impl Default for SsdModel {
    fn default() -> Self {
        SsdModel::samsung_990_pro()
    }
}

/// Applies an [`SsdModel`] to a stream of requests.
///
/// Requests must be scheduled in non-decreasing arrival order (the engine's
/// event loop guarantees this). Each request:
///
/// 1. waits for the earliest-free flash unit (media stage,
///    `base_latency_us`),
/// 2. then transfers its payload over the shared bus in FIFO order
///    (`len / device_bw`).
///
/// The returned completion time is when the data is in host memory.
#[derive(Debug, Clone)]
pub struct DeviceSim {
    model: SsdModel,
    /// Min-heap of unit free times (stored negated in a max-heap).
    units: BinaryHeap<std::cmp::Reverse<u64>>,
    /// Bus free time, in nanoseconds (integer for determinism).
    bus_free_ns: u64,
    /// Completed request count.
    completed: u64,
    /// Total bytes transferred.
    bytes: u64,
    /// Flash units busy at arrival, summed over every scheduled request
    /// (one sample per request — DES event granularity).
    queue_depth_sum: u64,
    /// Total media-busy nanoseconds accumulated across all units.
    busy_ns_total: u64,
    /// The windowed series, when [`DeviceSim::with_timelines`] set a window.
    timelines: Option<Timelines>,
}

/// Per-window folds of the two telemetry samples each request yields.
#[derive(Debug, Clone)]
struct Timelines {
    /// (arrival, flash units busy at arrival).
    queue_depth: Timeline,
    /// (media start, media busy µs): occupancy is billed to the window the
    /// media stage starts in.
    media_busy: Timeline,
}

const NS_PER_US: f64 = 1_000.0;

impl DeviceSim {
    /// Creates an idle device.
    pub fn new(model: SsdModel) -> DeviceSim {
        let mut units = BinaryHeap::with_capacity(model.units);
        for _ in 0..model.units.max(1) {
            units.push(std::cmp::Reverse(0));
        }
        DeviceSim {
            model,
            units,
            bus_free_ns: 0,
            completed: 0,
            bytes: 0,
            queue_depth_sum: 0,
            busy_ns_total: 0,
            timelines: None,
        }
    }

    /// Also folds queue depth and media occupancy into `bucket_us`-wide
    /// windows over `[0, duration_us)` as requests are scheduled, for
    /// [`DeviceSim::queue_depth_timeline`] and
    /// [`DeviceSim::utilization_timeline`]. A non-positive span leaves both
    /// series empty.
    pub fn with_timelines(mut self, duration_us: f64, bucket_us: f64) -> DeviceSim {
        self.timelines = Timeline::new(duration_us, bucket_us).map(|tl| Timelines {
            queue_depth: tl.clone(),
            media_busy: tl,
        });
        self
    }

    /// The model in use.
    pub fn model(&self) -> &SsdModel {
        &self.model
    }

    /// Schedules a read arriving at `arrival_us`; returns its completion
    /// time in µs.
    pub fn schedule(&mut self, arrival_us: f64, len: u32) -> f64 {
        self.schedule_op(arrival_us, len, self.model.base_latency_us)
    }

    /// Schedules a write arriving at `arrival_us`; returns its completion
    /// time in µs. Writes share the flash units and the bus with reads, so
    /// mixed workloads interfere.
    pub fn schedule_write(&mut self, arrival_us: f64, len: u32) -> f64 {
        self.schedule_op(arrival_us, len, self.model.write_latency_us)
    }

    /// Schedules a read whose media stage is inflated by `extra_media_us`
    /// (a fault-injected spike, GC stall, or throttle penalty from
    /// [`crate::faults`]); returns its completion time in µs. With
    /// `extra_media_us == 0.0` this is exactly [`DeviceSim::schedule`].
    pub fn schedule_faulted(&mut self, arrival_us: f64, len: u32, extra_media_us: f64) -> f64 {
        self.schedule_op(arrival_us, len, self.model.base_latency_us + extra_media_us)
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn schedule_op(&mut self, arrival_us: f64, len: u32, media_us: f64) -> f64 {
        let arrival_ns = cast::u64_from_f64((arrival_us * NS_PER_US).round().max(0.0));
        // Telemetry: queue depth at arrival = units still busy past this
        // instant. Heap iteration order is irrelevant to a count, and the
        // heap never exceeds `model.units` (≤ 64 for every preset).
        let busy_units = self
            .units
            .iter()
            .filter(|std::cmp::Reverse(t)| *t > arrival_ns)
            .count();
        self.queue_depth_sum += cast::u64_from_usize(busy_units);
        // Media stage on the earliest-free unit. The constructor guarantees
        // at least one flash unit; if that invariant ever broke, treating
        // the unit as immediately free keeps the completion path panic-free
        // instead of aborting a sweep mid-run.
        let unit_free = match self.units.pop() {
            Some(std::cmp::Reverse(t)) => t,
            None => {
                debug_assert!(false, "DeviceSim built with zero flash units");
                arrival_ns
            }
        };
        let media_start = arrival_ns.max(unit_free);
        let media_done = media_start + cast::u64_from_f64(media_us * NS_PER_US);
        self.units.push(std::cmp::Reverse(media_done));
        let busy_ns = media_done - media_start;
        self.busy_ns_total += busy_ns;
        if let Some(tl) = &mut self.timelines {
            tl.queue_depth.record(
                cast::f64_from_u64(arrival_ns) / NS_PER_US,
                cast::f64_from_usize(busy_units),
            );
            tl.media_busy.record(
                cast::f64_from_u64(media_start) / NS_PER_US,
                cast::f64_from_u64(busy_ns) / NS_PER_US,
            );
        }
        // Bus stage, FIFO.
        let transfer_ns =
            cast::u64_from_f64((f64::from(len) / self.model.device_bw * NS_PER_US).ceil());
        let bus_start = media_done.max(self.bus_free_ns);
        let done = bus_start + transfer_ns;
        self.bus_free_ns = done;
        self.completed += 1;
        self.bytes += u64::from(len);
        cast::f64_from_u64(done) / NS_PER_US
    }

    /// Number of requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total bytes transferred so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Media-busy nanoseconds summed over every flash unit so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns_total
    }

    /// Mean queue depth over every scheduled request: how many flash
    /// units were already busy when each request arrived (0 with no
    /// traffic).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        cast::f64_from_u64(self.queue_depth_sum) / cast::f64_from_u64(self.completed)
    }

    /// Mean device utilization over `duration_us`: media-busy time summed
    /// across all flash units divided by total unit-time (0.0 for a
    /// non-positive duration).
    pub fn utilization(&self, duration_us: f64) -> f64 {
        if duration_us <= 0.0 {
            return 0.0;
        }
        let unit_time_ns = cast::f64_from_usize(self.model.units.max(1)) * duration_us * NS_PER_US;
        cast::f64_from_u64(self.busy_ns_total) / unit_time_ns
    }

    /// Windowed mean queue depth, one value per window (empty unless
    /// [`DeviceSim::with_timelines`] set one).
    pub fn queue_depth_timeline(&self) -> Vec<f64> {
        self.timelines
            .as_ref()
            .map(|tl| tl.queue_depth.means())
            .unwrap_or_default()
    }

    /// Windowed device utilization: busy fraction of total unit-time per
    /// window (empty unless [`DeviceSim::with_timelines`] set one). Each
    /// request's media occupancy is billed to the window it starts in.
    pub fn utilization_timeline(&self) -> Vec<f64> {
        let units = cast::f64_from_usize(self.model.units.max(1));
        self.timelines
            .as_ref()
            .map(|tl| {
                let fractions = tl.media_busy.fractions_of_window();
                fractions.iter().map(|f| f / units).collect()
            })
            .unwrap_or_default()
    }

    /// Resets the device to idle (keeps the model and the timeline windows).
    pub fn reset(&mut self) {
        let timelines = self.timelines.take().map(|mut tl| {
            tl.queue_depth.clear();
            tl.media_busy.clear();
            tl
        });
        *self = DeviceSim {
            timelines,
            ..DeviceSim::new(self.model)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_envelope() {
        let m = SsdModel::samsung_990_pro();
        let iops = m.peak_iops_4k();
        assert!((1.25e6..1.45e6).contains(&iops), "peak IOPS {iops}");
        let bw_gib = m.peak_bandwidth() / (1 << 30) as f64;
        assert!(
            (7.0..7.4).contains(&bw_gib),
            "peak bandwidth {bw_gib} GiB/s"
        );
        let lat = m.idle_latency_us(4096);
        assert!((40.0..80.0).contains(&lat), "QD1 latency {lat}");
        let single_core_iops = 1e6 / m.submit_cpu_us;
        assert!((300e3..350e3).contains(&single_core_iops));
    }

    #[test]
    fn qd1_latency_matches_idle_model() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m);
        let done = dev.schedule(100.0, 4096);
        assert!((done - 100.0 - m.idle_latency_us(4096)).abs() < 0.01);
    }

    #[test]
    fn parallel_requests_overlap_on_units() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m);
        // 64 concurrent 4 KiB requests: all fit in the units, so they finish
        // within ~one media latency of each other (bus transfer is fast).
        let mut last = 0.0f64;
        for _ in 0..64 {
            last = last.max(dev.schedule(0.0, 4096));
        }
        assert!(
            last < m.base_latency_us * 2.0,
            "64 parallel reads took {last} µs"
        );
    }

    #[test]
    fn excess_requests_queue() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m);
        let mut last = 0.0f64;
        for _ in 0..128 {
            last = last.max(dev.schedule(0.0, 4096));
        }
        // Second wave waits one extra media latency.
        assert!(last >= m.base_latency_us * 2.0);
        assert_eq!(dev.completed(), 128);
        assert_eq!(dev.bytes(), 128 * 4096);
    }

    #[test]
    fn bus_serializes_large_transfers() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m);
        // 32 concurrent 128 KiB reads: media overlaps, bus serializes.
        let n = 32u32;
        let mut last = 0.0f64;
        for _ in 0..n {
            last = last.max(dev.schedule(0.0, 128 * 1024));
        }
        let total_bytes = (n as f64) * 128.0 * 1024.0;
        let achieved_bw = total_bytes / last; // bytes per µs
        assert!(
            achieved_bw <= m.device_bw * 1.01,
            "achieved {achieved_bw} exceeds bus {}",
            m.device_bw
        );
        assert!(
            achieved_bw > m.device_bw * 0.8,
            "bus underutilized: {achieved_bw}"
        );
    }

    #[test]
    fn sustained_random_iops_approaches_peak() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m);
        // Closed feedback: keep 64 in flight for a simulated 100 ms.
        let mut completions: Vec<f64> = (0..64).map(|_| dev.schedule(0.0, 4096)).collect();
        let horizon = 100_000.0;
        let mut done = 0u64;
        loop {
            // Find earliest completion and immediately resubmit.
            let (i, &t) = completions
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            if t > horizon {
                break;
            }
            done += 1;
            completions[i] = dev.schedule(t, 4096);
        }
        let iops = done as f64 / (horizon / 1e6);
        assert!(iops > 0.85 * m.peak_iops_4k(), "sustained IOPS {iops}");
    }

    #[test]
    fn writes_are_slower_and_interfere_with_reads() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m);
        let write_done = dev.schedule_write(0.0, 4096);
        assert!(
            write_done > m.base_latency_us,
            "writes cost more than reads"
        );
        // Saturate the units with writes, then a read queues behind them.
        let mut dev = DeviceSim::new(m);
        for _ in 0..m.units {
            dev.schedule_write(0.0, 4096);
        }
        let read_done = dev.schedule(0.0, 4096);
        assert!(
            read_done > m.write_latency_us,
            "read {read_done} must wait for a unit busy writing"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut dev = DeviceSim::new(SsdModel::samsung_990_pro()).with_timelines(1e6, 1e6);
        dev.schedule(0.0, 4096);
        dev.reset();
        assert_eq!(dev.completed(), 0);
        assert_eq!(dev.mean_queue_depth(), 0.0);
        assert_eq!(dev.utilization(1e6), 0.0);
        assert_eq!(dev.utilization_timeline(), vec![0.0], "windows survive");
        let done = dev.schedule(0.0, 4096);
        assert!(done < 100.0);
    }

    #[test]
    fn queue_depth_samples_at_arrival() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m).with_timelines(1e6, 1e6);
        // First arrival sees an idle device; the next 63 each see one more
        // busy unit.
        for _ in 0..64 {
            dev.schedule(0.0, 4096);
        }
        // 0 + 1 + ... + 63 over 64 samples = 31.5.
        assert!((dev.mean_queue_depth() - 31.5).abs() < 1e-9);
        let tl = dev.queue_depth_timeline();
        assert_eq!(tl.len(), 1);
        assert!((tl[0] - 31.5).abs() < 1e-9);
    }

    #[test]
    fn idle_device_reports_zero_telemetry() {
        let dev = DeviceSim::new(SsdModel::samsung_990_pro());
        assert_eq!(dev.mean_queue_depth(), 0.0);
        assert_eq!(dev.utilization(1e6), 0.0);
        assert_eq!(dev.utilization(0.0), 0.0, "zero duration guarded");
        assert!(dev.queue_depth_timeline().is_empty());
        assert!(dev.utilization_timeline().is_empty());
        let mut unwindowed = DeviceSim::new(dev.model).with_timelines(-1.0, 1e6);
        unwindowed.schedule(0.0, 4096);
        assert!(unwindowed.queue_depth_timeline().is_empty());
        assert!(unwindowed.utilization_timeline().is_empty());
    }

    #[test]
    fn utilization_tracks_media_occupancy() {
        let m = SsdModel::samsung_990_pro();
        let mut dev = DeviceSim::new(m).with_timelines(4800.0, 4800.0);
        // One read occupies one of 64 units for base_latency_us out of a
        // 4800 µs window: utilization = 48 / (64 * 4800).
        dev.schedule(0.0, 4096);
        let expect = m.base_latency_us / (64.0 * 4800.0);
        assert!((dev.utilization(4800.0) - expect).abs() < 1e-9);
        let tl = dev.utilization_timeline();
        assert_eq!(tl.len(), 1);
        assert!((tl[0] - expect).abs() < 1e-9);
        // Saturating all units for the whole window approaches 1.0.
        let mut busy = DeviceSim::new(m);
        let horizon = 10_000.0;
        let mut completions: Vec<f64> = (0..64).map(|_| busy.schedule(0.0, 4096)).collect();
        loop {
            let (i, &t) = completions
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            if t > horizon {
                break;
            }
            completions[i] = busy.schedule(t, 4096);
        }
        let util = busy.utilization(horizon);
        assert!(util > 0.9, "saturated device reads {util}");
    }

    /// The pre-streaming telemetry, verbatim: one queue-depth and one
    /// media-occupancy sample kept per request, every figure derived
    /// afterwards by walking them. The behavioural reference; the
    /// scheduling arithmetic is the device's own.
    struct LoggedDevice {
        model: SsdModel,
        units: BinaryHeap<std::cmp::Reverse<u64>>,
        bus_free_ns: u64,
        qd_samples: Vec<(u64, u32)>,
        busy_samples: Vec<(u64, u64)>,
    }

    impl LoggedDevice {
        fn new(model: SsdModel) -> LoggedDevice {
            LoggedDevice {
                model,
                units: (0..model.units.max(1))
                    .map(|_| std::cmp::Reverse(0))
                    .collect(),
                bus_free_ns: 0,
                qd_samples: Vec::new(),
                busy_samples: Vec::new(),
            }
        }

        fn schedule_op(&mut self, arrival_us: f64, len: u32, media_us: f64) -> f64 {
            let arrival_ns = (arrival_us * NS_PER_US).round().max(0.0) as u64;
            let busy_units = self
                .units
                .iter()
                .filter(|std::cmp::Reverse(t)| *t > arrival_ns)
                .count();
            self.qd_samples.push((arrival_ns, busy_units as u32));
            let unit_free = self.units.pop().unwrap().0;
            let media_start = arrival_ns.max(unit_free);
            let media_done = media_start + (media_us * NS_PER_US) as u64;
            self.units.push(std::cmp::Reverse(media_done));
            self.busy_samples
                .push((media_start, media_done - media_start));
            let transfer_ns = (f64::from(len) / self.model.device_bw * NS_PER_US).ceil() as u64;
            let done = media_done.max(self.bus_free_ns) + transfer_ns;
            self.bus_free_ns = done;
            done as f64 / NS_PER_US
        }

        fn mean_queue_depth(&self) -> f64 {
            if self.qd_samples.is_empty() {
                return 0.0;
            }
            let sum: u64 = self.qd_samples.iter().map(|&(_, d)| u64::from(d)).sum();
            sum as f64 / self.qd_samples.len() as f64
        }

        fn utilization(&self, duration_us: f64) -> f64 {
            if duration_us <= 0.0 {
                return 0.0;
            }
            let busy: u64 = self.busy_samples.iter().map(|&(_, b)| b).sum();
            busy as f64 / (self.model.units.max(1) as f64 * duration_us * NS_PER_US)
        }

        fn queue_depth_timeline(&self, duration_us: f64, bucket_us: f64) -> Vec<f64> {
            let Some(mut tl) = Timeline::new(duration_us, bucket_us) else {
                return Vec::new();
            };
            for &(t_ns, depth) in &self.qd_samples {
                tl.record(t_ns as f64 / NS_PER_US, f64::from(depth));
            }
            tl.means()
        }

        fn utilization_timeline(&self, duration_us: f64, bucket_us: f64) -> Vec<f64> {
            let Some(mut tl) = Timeline::new(duration_us, bucket_us) else {
                return Vec::new();
            };
            for &(t_ns, busy_ns) in &self.busy_samples {
                tl.record(t_ns as f64 / NS_PER_US, busy_ns as f64 / NS_PER_US);
            }
            let units = self.model.units.max(1) as f64;
            tl.fractions_of_window().iter().map(|f| f / units).collect()
        }
    }

    /// Scalars and both windowed series equal the sample-log walks bit for
    /// bit over random streams of reads, writes and fault-inflated reads
    /// that run past a horizon ending in a partial bucket.
    #[test]
    fn streaming_telemetry_matches_the_sample_logs() {
        use sann_core::rng::SplitMix64;
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for (seed, model, duration_us, bucket_us) in [
            (1u64, SsdModel::samsung_990_pro(), 2.5e6, 1e6),
            (2, SsdModel::sata_ssd(), 3e6, 1e6),
            (3, SsdModel::samsung_990_pro(), 0.3e6, 0.07e6),
        ] {
            let mut rng = SplitMix64::new(seed);
            let mut fast = DeviceSim::new(model).with_timelines(duration_us, bucket_us);
            let mut slow = LoggedDevice::new(model);
            let mut arrival_us = 0.0;
            for i in 0..20_000u64 {
                arrival_us += rng.next_bounded(800) as f64 * 0.5;
                let at = if i % 2_000 == 1_999 {
                    duration_us
                } else {
                    arrival_us
                };
                let len = [0u32, 4096, 4096, 16_384, 131_072][rng.next_bounded(5) as usize];
                let (done, media_us) = match rng.next_bounded(4) {
                    0 => (fast.schedule_write(at, len), model.write_latency_us),
                    1 => {
                        let extra = rng.next_bounded(2_000) as f64 * 0.37;
                        (
                            fast.schedule_faulted(at, len, extra),
                            model.base_latency_us + extra,
                        )
                    }
                    _ => (fast.schedule(at, len), model.base_latency_us),
                };
                let expect = slow.schedule_op(at, len, media_us);
                assert_eq!(done.to_bits(), expect.to_bits(), "request {i} diverged");
            }
            assert!(arrival_us > duration_us, "the stream must pass the horizon");
            assert_eq!(
                fast.mean_queue_depth().to_bits(),
                slow.mean_queue_depth().to_bits()
            );
            assert_eq!(
                fast.utilization(duration_us).to_bits(),
                slow.utilization(duration_us).to_bits()
            );
            assert_eq!(
                bits(fast.queue_depth_timeline()),
                bits(slow.queue_depth_timeline(duration_us, bucket_us))
            );
            assert_eq!(
                bits(fast.utilization_timeline()),
                bits(slow.utilization_timeline(duration_us, bucket_us))
            );
        }
    }

    /// What the device keeps does not grow with the requests it served.
    #[test]
    fn retained_state_is_independent_of_requests_served() {
        let retained = |requests: u64| {
            let mut dev = DeviceSim::new(SsdModel::samsung_990_pro()).with_timelines(5e6, 1e6);
            for i in 0..requests {
                dev.schedule(i as f64 * 3.0, 4096);
            }
            let tl = dev.timelines.as_ref().unwrap();
            (
                dev.units.len(),
                tl.queue_depth.n_buckets(),
                tl.media_busy.n_buckets(),
            )
        };
        assert_eq!(retained(1_000), retained(100_000));
        assert_eq!(retained(1_000), (64, 5, 5));
    }
}
