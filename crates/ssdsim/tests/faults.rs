//! Property tests for the deterministic fault-injection layer: schedule
//! reproducibility, clean-profile transparency, and device conservation
//! with faulted (including failed) requests.

#![allow(
    clippy::cast_precision_loss,
    reason = "assertions compare small request counts as ratios"
)]

use sann_ssdsim::{DeviceSim, FaultInjector, FaultProfile, IoTracer, SsdModel, HEDGE_TAG};

/// Replays a deterministic pseudo-workload through the injector and
/// returns the resulting fault schedule.
fn schedule(profile: FaultProfile, seed: u64) -> Vec<(u64, u64, f64, bool)> {
    let inj = FaultInjector::new(profile, seed, SsdModel::samsung_990_pro().base_latency_us);
    let mut out = Vec::new();
    for uid in 0..20u64 {
        for req in 0..8u64 {
            let arrival = (uid * 137 + req * 53) as f64;
            let f = inj.draw(uid, req, 0, arrival);
            out.push((uid, req, f.extra_us, f.error));
        }
    }
    out
}

#[test]
fn same_seed_gives_identical_fault_schedule() {
    for profile in [
        FaultProfile::aging(),
        FaultProfile::gc_heavy(),
        FaultProfile::flaky(),
    ] {
        assert_eq!(
            schedule(profile, 0xBE7C4),
            schedule(profile, 0xBE7C4),
            "profile {} is not seed-deterministic",
            profile.name
        );
        assert_ne!(
            schedule(profile, 1),
            schedule(profile, 2),
            "profile {} ignores the seed",
            profile.name
        );
    }
}

#[test]
fn none_profile_injects_nothing_for_any_seed() {
    for seed in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF] {
        for (_, _, extra, error) in schedule(FaultProfile::none(), seed) {
            assert_eq!(extra, 0.0);
            assert!(!error);
        }
    }
}

#[test]
fn zero_extra_schedule_faulted_is_bit_identical_to_schedule() {
    // The faulted entry point with no perturbation must be *exactly* the
    // plain read path — this is what keeps `--fault-profile none` runs
    // byte-identical to a pre-fault build.
    let model = SsdModel::samsung_990_pro();
    let mut plain = DeviceSim::new(model);
    let mut faulted = DeviceSim::new(model);
    for i in 0..500u64 {
        let arrival = i as f64 * 1.7;
        let len = if i % 3 == 0 { 4096 } else { 128 * 1024 };
        let a = plain.schedule(arrival, len);
        let b = faulted.schedule_faulted(arrival, len, 0.0);
        assert_eq!(a.to_bits(), b.to_bits(), "request {i} diverged");
    }
    assert_eq!(plain.completed(), faulted.completed());
    assert_eq!(plain.bytes(), faulted.bytes());
}

#[test]
fn injected_latency_only_delays_never_drops() {
    // Conservation: every issued request completes on the device, faults
    // included — errors surface at the host, not as lost device work.
    let model = SsdModel::samsung_990_pro();
    let inj = FaultInjector::new(FaultProfile::flaky(), 7, model.base_latency_us);
    let mut dev = DeviceSim::new(model);
    let mut tracer = IoTracer::new(1e6);
    let n = 400u64;
    let mut issued_bytes = 0u64;
    for i in 0..n {
        let arrival = i as f64 * 2.0;
        let fault = inj.draw(i, 0, 0, arrival);
        tracer.record_read(arrival, i * 4096, 4096);
        let done = dev.schedule_faulted(arrival, 4096, fault.extra_us);
        assert!(
            done >= arrival + model.base_latency_us + fault.extra_us,
            "request {i} completed before its media stage could finish"
        );
        issued_bytes += 4096;
    }
    assert_eq!(dev.completed(), n, "every issued request must complete");
    assert_eq!(dev.bytes(), issued_bytes);
    let stats = tracer.stats();
    assert_eq!(stats.reads, n);
    assert_eq!(stats.read_bytes, dev.bytes());
}

#[test]
fn faulted_service_dominates_clean_service() {
    // Under any profile, a request's completion time is never earlier
    // than the same request on a healthy device (faults only add time).
    let model = SsdModel::samsung_990_pro();
    let inj = FaultInjector::new(FaultProfile::gc_heavy(), 3, model.base_latency_us);
    let mut clean = DeviceSim::new(model);
    let mut faulty = DeviceSim::new(model);
    for i in 0..300u64 {
        let arrival = i as f64 * 10.0;
        let fault = inj.draw(i, 0, 0, arrival);
        let a = clean.schedule(arrival, 4096);
        let b = faulty.schedule_faulted(arrival, 4096, fault.extra_us);
        assert!(b >= a, "fault made request {i} faster: {b} < {a}");
    }
}

#[test]
fn retry_attempts_draw_independent_outcomes() {
    // A retry must not replay the failed attempt's coin flips: with a
    // high error rate, some primary failures are followed by a retry
    // success (otherwise retrying would be pointless).
    let inj = FaultInjector::new(
        FaultProfile {
            read_error_prob: 0.5,
            ..FaultProfile::flaky()
        },
        11,
        48.0,
    );
    let mut recovered = 0;
    for uid in 0..500u64 {
        let primary = inj.draw(uid, 0, 0, 0.0);
        let retry = inj.draw(uid, 0, 1, 0.0);
        if primary.error && !retry.error {
            recovered += 1;
        }
    }
    assert!(
        recovered > 50,
        "retries never recover: {recovered}/500 primary failures recovered"
    );
}

#[test]
fn hedge_stream_is_decorrelated_from_primary() {
    let inj = FaultInjector::new(FaultProfile::flaky(), 23, 48.0);
    let mut diverged = 0;
    for uid in 0..500u64 {
        let primary = inj.draw(uid, 0, 0, 0.0);
        let hedge = inj.draw(uid, 0, HEDGE_TAG, 0.0);
        if primary != hedge {
            diverged += 1;
        }
    }
    assert!(diverged > 100, "hedge stream mirrors primary: {diverged}");
}

#[test]
fn gc_pause_shapes_the_arrival_timeline() {
    // Requests arriving inside the GC window stall to its end; requests
    // outside pass untouched — so completion order can invert around the
    // window edge, deterministically.
    let p = FaultProfile::gc_heavy();
    let inj = FaultInjector::new(p, 0, 48.0);
    let inside = inj.draw(0, 0, 0, p.gc_period_us + 10.0);
    let outside = inj.draw(0, 1, 0, p.gc_period_us + p.gc_pause_us + 10.0);
    assert!(inside.gc_stall_us > 0.0);
    assert_eq!(outside.gc_stall_us, 0.0);
    assert!((inside.gc_stall_us - (p.gc_pause_us - 10.0)).abs() < 1e-9);
}
