//! The executor's self-checks: conservation laws that hold for a correct
//! run on any input. A violation is a simulator bug, not a property of the
//! workload, so each check panics with what it found.

use crate::metrics::FaultStats;
use sann_obs::Phase;
use sann_ssdsim::{DeviceSim, IoStats};

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
