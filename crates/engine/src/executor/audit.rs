//! The executor's self-checks: conservation laws that hold for a correct
//! run on any input, and the operational laws of a closed queueing network
//! (Denning & Buzen, "The Operational Analysis of Queueing Network Models",
//! ACM Computing Surveys 1978). A violation is a simulator bug, not a
//! property of the workload, so each check panics with what it found.

use crate::metrics::FaultStats;
use sann_obs::Phase;
use sann_ssdsim::{DeviceSim, IoStats};

/// One operational law of a closed-loop run (see [`OperationalLaws`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// Little's law over the window `[0, T]`: `N·T` equals the response
    /// time of the queries completed in it plus `T − issue` of the at most
    /// `N` still in flight at the horizon, so `N − X·R ∈ [0, in flight]`.
    Little,
    /// Utilization law, CPU: the integral over the event clock of cores in
    /// use equals subtask completions times their mean service, as billed
    /// at dispatch.
    CpuUtilization,
    /// Utilization law, device: media busy time equals device operations
    /// times the model's media time per read or write. Only a healthy
    /// device is checked: a fault profile inflates each read by its draw.
    DeviceUtilization,
    /// Forced flow: the device's reads are the queries' visits to it, i.e.
    /// planned reads that missed the page cache, plus retries and hedges.
    ForcedFlow,
    /// Bandwidth stays at or below the device's bus cap over the run.
    BandwidthCap,
    /// `X ≤ min(N/D, c_k/D_k)` over the run, per station `k` (CPU: `cores`
    /// servers; device: its flash units), with `D_k` the run's busy time
    /// per completed query. With `D = max_k D_k/c_k`, which is what a query
    /// that spreads over every server and overlaps stations can take,
    /// `N/D ≥ c_k/D_k`, so the station terms bind: busy `≤ c_k ×` the run.
    ThroughputBound,
    /// `R ≥ max(D, N·D_k/c_k)`: every query's work at a station fits in
    /// its own latency on `c_k` servers, so `c_k · ΣR ≥ B_k`; the `N` term
    /// is the throughput bound through Little's law. The device term is
    /// checked only when no hedge was cancelled: a cancelled attempt's media
    /// time outlives its query.
    ResponseBound,
}

impl Law {
    /// How far the law's two sides may be apart, relative: zero for every
    /// law measured in integer ns or counts; the bandwidth cap compares
    /// bytes against transfer times the device rounds up from `f64`.
    pub fn tolerance(self) -> f64 {
        match self {
            Law::BandwidthCap => 1e-9,
            _ => 0.0,
        }
    }
}

/// What the operational laws are evaluated on: one drained run's totals,
/// each as the executor measured it. The laws relate quantities counted in
/// different places — the event clock, dispatch, completion, the block
/// layer, the device — so a law that fails names two counts that disagree.
/// Nothing here reaches a byte-stable output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationalLaws {
    pub(super) clients: u64,
    pub(super) window_ns: u64,
    /// Summed response time (issue to completion, admission wait
    /// included) of the queries completed in the window.
    pub(super) response_ns: u64,
    /// Queries in flight at the horizon, and their summed `T − issue`.
    pub(super) in_flight: u64,
    pub(super) in_flight_ns: u64,
    /// Summed latency (activation to completion) of every query of the
    /// run; each completes before the events drain.
    pub(super) latency_ns: u64,
    /// The last event's time: every station is idle from here on.
    pub(super) end_ns: u64,
    pub(super) cores: u64,
    pub(super) cpu_busy_ns: u64,
    pub(super) cpu_clock_busy_ns: u64,
    pub(super) units: u64,
    pub(super) device_busy_ns: u64,
    /// The model's media time for every device operation of the run, when
    /// no fault profile can change it.
    pub(super) device_service_ns: Option<u64>,
    pub(super) device_reads: u64,
    pub(super) reads_asked: u64,
    pub(super) device_bytes: u64,
    /// Bus bandwidth, bytes per µs.
    pub(super) device_bw: f64,
    pub(super) hedges_cancelled: u64,
}

impl OperationalLaws {
    /// Each law's gap: how far its two sides are apart relative to the
    /// larger, `0.0` when it holds exactly (`None` when the run gives the
    /// law nothing to check).
    pub fn gaps(&self) -> [(Law, Option<f64>); 7] {
        let n = u128::from(self.clients);
        let end = u128::from(self.end_ns);
        let (cores, units) = (u128::from(self.cores), u128::from(self.units));
        let (cpu, device) = (
            u128::from(self.cpu_busy_ns),
            u128::from(self.device_busy_ns),
        );
        let little = mismatch(
            n * u128::from(self.window_ns),
            u128::from(self.response_ns) + u128::from(self.in_flight_ns),
        )
        .max(excess(u128::from(self.in_flight), n));
        // The event clock truncates the device's completion µs to whole
        // ns, so the bus may finish up to 1 ns after the last event.
        let bus_ns = sann_core::cast::f64_from_u64(self.end_ns + 1);
        let bytes_ns = 1e3 * sann_core::cast::f64_from_u64(self.device_bytes);
        let bandwidth = (bytes_ns / (self.device_bw * bus_ns) - 1.0).max(0.0);
        let latency = u128::from(self.latency_ns);
        let device_response = (self.hedges_cancelled == 0).then(|| excess(device, units * latency));
        [
            (Law::Little, Some(little)),
            (
                Law::CpuUtilization,
                Some(mismatch(u128::from(self.cpu_clock_busy_ns), cpu)),
            ),
            (
                Law::DeviceUtilization,
                self.device_service_ns
                    .map(|service| mismatch(device, u128::from(service))),
            ),
            (
                Law::ForcedFlow,
                Some(mismatch(
                    u128::from(self.device_reads),
                    u128::from(self.reads_asked),
                )),
            ),
            (Law::BandwidthCap, Some(bandwidth)),
            (
                Law::ThroughputBound,
                Some(excess(cpu, cores * end).max(excess(device, units * end))),
            ),
            (
                Law::ResponseBound,
                Some(excess(cpu, cores * latency).max(device_response.unwrap_or(0.0))),
            ),
        ]
    }
}

/// The operational laws, per [`Law::tolerance`]: a run that breaks one has
/// a bug in the event loop or in one of the counts the law relates.
pub(super) fn laws_hold(laws: &OperationalLaws) {
    for (law, gap) in laws.gaps() {
        if let Some(gap) = gap {
            assert!(
                gap <= law.tolerance(),
                "operational law {law:?} violated: gap {gap:e} over tolerance {:e} in {laws:?}",
                law.tolerance()
            );
        }
    }
}

/// How far `lhs <= rhs` is from holding, relative to `rhs`.
fn excess(lhs: u128, rhs: u128) -> f64 {
    ratio(lhs.saturating_sub(rhs), rhs)
}

/// How far `a == b` is from holding, relative to the larger.
fn mismatch(a: u128, b: u128) -> f64 {
    ratio(a.abs_diff(b), a.max(b))
}

/// `num / den` for a report; zero stays exactly zero.
#[allow(
    clippy::cast_precision_loss,
    reason = "a ratio to compare with a tolerance; rounding cannot turn a nonzero gap into zero"
)]
fn ratio(num: u128, den: u128) -> f64 {
    if num == 0 {
        return 0.0;
    }
    (num as f64) / (den.max(1) as f64)
}

/// I/O conservation: every byte and every request the block-layer tracer
/// counted was scheduled on the device exactly once, and vice versa —
/// cache hits bypass both, misses go through both. A mismatch means a code
/// path recorded traffic without simulating it (or simulated it untraced),
/// which would corrupt every bandwidth figure.
pub(super) fn io_conserved(traced: &IoStats, device: &DeviceSim) {
    assert_eq!(
        traced.read_bytes + traced.write_bytes,
        device.bytes(),
        "I/O conservation violated: tracer saw {} read + {} written bytes \
         but the device transferred {}",
        traced.read_bytes,
        traced.write_bytes,
        device.bytes()
    );
    assert_eq!(
        traced.reads + traced.writes,
        device.completed(),
        "I/O conservation violated: tracer saw {} requests but the device \
         completed {}",
        traced.reads + traced.writes,
        device.completed()
    );
}

/// Read conservation: every planned read of every activated query was
/// settled exactly once — served (device or cache) or honestly abandoned. A
/// mismatch means the read lifecycle dropped or double-counted a read,
/// which would corrupt the degraded-recall accounting.
pub(super) fn reads_conserved(f: &FaultStats) {
    assert_eq!(
        f.ios_planned,
        f.ios_completed + f.ios_abandoned,
        "read conservation violated: {} planned reads vs {} completed + {} abandoned",
        f.ios_planned,
        f.ios_completed,
        f.ios_abandoned
    );
}

/// Phase attribution, per query: the in-latency phases partition
/// [activation, completion], so their sum equals the reported latency
/// exactly. A mismatch means some interval was double-billed or dropped.
pub(super) fn phases_partition(phase_ns: &[u64; Phase::COUNT], latency_ns: u64) {
    let attributed: u64 = Phase::ALL
        .iter()
        .filter(|p| p.in_latency())
        .map(|p| phase_ns[p.index()])
        .sum();
    assert_eq!(
        attributed, latency_ns,
        "phase attribution leaked: {attributed} ns across phases vs {latency_ns} ns latency"
    );
}
