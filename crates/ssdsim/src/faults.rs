//! Deterministic fault injection for the SSD service model.
//!
//! A [`FaultProfile`] names a device-misbehavior envelope (transient read
//! errors, latency spikes, periodic GC pauses, sustained throttling). A
//! [`FaultInjector`] turns the profile plus the run's seed into per-request
//! fault outcomes.
//!
//! Determinism is the whole point: the outcome of a read attempt depends
//! only on `(seed, query uid, request index, attempt tag)` — never on the
//! global order in which I/Os reach the device. Two runs with the same seed
//! produce byte-identical fault schedules, and a request retried at a
//! different simulated time still observes the same per-attempt coin flips.
//! This is what lets the `sann-bench` `determinism` tests byte-diff faulted
//! runs and what makes deadline/retry sweeps comparable across
//! configurations.

use sann_core::rng::SplitMix64;

/// A named device-misbehavior envelope.
///
/// `none()` disables every perturbation: every draw is clean and takes no
/// random number, so a `none` run is byte-identical to a build without the
/// fault layer at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Short name used by `--fault-profile` and reports.
    pub name: &'static str,
    /// Probability that a read attempt fails with a transient error after
    /// consuming its (possibly inflated) service time.
    pub read_error_prob: f64,
    /// Probability that a read attempt suffers a latency spike.
    pub spike_prob: f64,
    /// Minimum extra media latency of a spike, µs.
    pub spike_min_us: f64,
    /// Maximum extra media latency of a spike, µs.
    pub spike_max_us: f64,
    /// Period of the background garbage-collection cycle, µs (0 = no GC).
    pub gc_period_us: f64,
    /// Duration of the GC pause at the start of each cycle, µs. Reads
    /// arriving inside the pause window stall until it ends.
    pub gc_pause_us: f64,
    /// Sustained media-latency multiplier (1.0 = healthy). Models an aging
    /// or thermally throttled device; applied to every read attempt.
    pub throttle_factor: f64,
}

impl FaultProfile {
    /// The healthy device: no perturbation of any kind.
    pub fn none() -> FaultProfile {
        FaultProfile {
            name: "none",
            read_error_prob: 0.0,
            spike_prob: 0.0,
            spike_min_us: 0.0,
            spike_max_us: 0.0,
            gc_period_us: 0.0,
            gc_pause_us: 0.0,
            throttle_factor: 1.0,
        }
    }

    /// A worn device: sustained 1.6× media slowdown plus occasional mild
    /// spikes, no errors.
    pub fn aging() -> FaultProfile {
        FaultProfile {
            name: "aging",
            read_error_prob: 0.0,
            spike_prob: 0.02,
            spike_min_us: 100.0,
            spike_max_us: 400.0,
            gc_period_us: 0.0,
            gc_pause_us: 0.0,
            throttle_factor: 1.6,
        }
    }

    /// Aggressive background garbage collection: every 5 ms the device
    /// stalls new reads for 800 µs, with mild spiking in between.
    pub fn gc_heavy() -> FaultProfile {
        FaultProfile {
            name: "gc-heavy",
            read_error_prob: 0.0,
            spike_prob: 0.01,
            spike_min_us: 150.0,
            spike_max_us: 600.0,
            gc_period_us: 5_000.0,
            gc_pause_us: 800.0,
            throttle_factor: 1.0,
        }
    }

    /// A misbehaving device: transient read errors, frequent heavy spikes,
    /// and mild throttling. Exercises the full retry/hedge/deadline path.
    pub fn flaky() -> FaultProfile {
        FaultProfile {
            name: "flaky",
            read_error_prob: 0.05,
            spike_prob: 0.08,
            spike_min_us: 200.0,
            spike_max_us: 2_000.0,
            gc_period_us: 0.0,
            gc_pause_us: 0.0,
            throttle_factor: 1.2,
        }
    }

    /// All built-in profiles, in documentation order.
    pub fn all() -> [FaultProfile; 4] {
        [
            FaultProfile::none(),
            FaultProfile::aging(),
            FaultProfile::gc_heavy(),
            FaultProfile::flaky(),
        ]
    }

    /// Looks up a built-in profile by name.
    pub fn parse(name: &str) -> Option<FaultProfile> {
        FaultProfile::all().into_iter().find(|p| p.name == name)
    }

    /// Whether the profile can perturb any request. `false` means every
    /// [`FaultInjector::draw`] returns [`ReadFault::clean`].
    pub fn active(&self) -> bool {
        self.read_error_prob > 0.0
            || self.spike_prob > 0.0
            || (self.gc_period_us > 0.0 && self.gc_pause_us > 0.0)
            || self.throttle_factor != 1.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// The fault outcome of one read attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadFault {
    /// Extra media latency to add to the device's base read latency, µs
    /// (throttle + spike + GC stall combined).
    pub extra_us: f64,
    /// Whether a latency spike fired.
    pub spiked: bool,
    /// Whether the attempt fails with a transient read error. The attempt
    /// still consumes device time; the host sees the error only at
    /// completion.
    pub error: bool,
    /// Portion of `extra_us` owed to a GC pause, µs.
    pub gc_stall_us: f64,
}

impl ReadFault {
    /// The no-fault outcome.
    pub fn clean() -> ReadFault {
        ReadFault {
            extra_us: 0.0,
            spiked: false,
            error: false,
            gc_stall_us: 0.0,
        }
    }
}

/// Tag space reserved for hedged (duplicate) attempts so a hedge never
/// replays the primary attempt's coin flips.
pub const HEDGE_TAG: u64 = 0x8000_0000;

/// Derives per-attempt fault outcomes from a profile and the run seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    /// [`FaultProfile::active`] of `profile`, taken once: `draw` runs per
    /// read attempt.
    active: bool,
    /// Root RNG; children are split off per (uid, req, attempt), never
    /// advanced in place, so outcomes are order-independent.
    base: SplitMix64,
    /// The device's healthy media read latency, µs (throttle baseline).
    base_media_us: f64,
}

impl FaultInjector {
    /// Creates an injector for `profile` under the run's `seed`.
    /// `base_media_us` is the device's healthy read media latency (the
    /// throttle multiplier applies to it).
    pub fn new(profile: FaultProfile, seed: u64, base_media_us: f64) -> FaultInjector {
        FaultInjector {
            profile,
            active: profile.active(),
            base: SplitMix64::new(seed ^ 0xFA17_5EED_D15C_0BAD),
            base_media_us,
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Extra stall for a read arriving at `arrival_us` caused by the
    /// periodic GC pause, µs. Pure function of arrival time: requests
    /// arriving `pos` µs into a cycle stall until the pause window
    /// (`gc_pause_us` long) ends.
    pub fn gc_stall_us(&self, arrival_us: f64) -> f64 {
        let (period, pause) = (self.profile.gc_period_us, self.profile.gc_pause_us);
        if period <= 0.0 || pause <= 0.0 {
            return 0.0;
        }
        let pos = arrival_us.rem_euclid(period);
        if pos < pause {
            pause - pos
        } else {
            0.0
        }
    }

    /// Draws the fault outcome for one read attempt.
    ///
    /// * `uid` — the engine-wide query uid,
    /// * `req` — the request's index within its query plan,
    /// * `attempt` — retry ordinal (0 = first try); hedged duplicates pass
    ///   `HEDGE_TAG | attempt` so they draw from a disjoint stream,
    /// * `arrival_us` — when the attempt reaches the device (GC phase).
    #[inline]
    pub fn draw(&self, uid: u64, req: u64, attempt: u64, arrival_us: f64) -> ReadFault {
        if !self.active {
            return ReadFault::clean();
        }
        let mut rng = self.base.split(uid).split(req).split(attempt);
        let mut fault = ReadFault::clean();
        fault.extra_us += self.base_media_us * (self.profile.throttle_factor - 1.0);
        if self.profile.spike_prob > 0.0 && rng.next_f64() < self.profile.spike_prob {
            fault.spiked = true;
            let span = self.profile.spike_max_us - self.profile.spike_min_us;
            fault.extra_us += self.profile.spike_min_us + rng.next_f64() * span;
        }
        if self.profile.read_error_prob > 0.0 && rng.next_f64() < self.profile.read_error_prob {
            fault.error = true;
        }
        fault.gc_stall_us = self.gc_stall_us(arrival_us);
        fault.extra_us += fault.gc_stall_us;
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_preset() {
        for p in FaultProfile::all() {
            assert_eq!(FaultProfile::parse(p.name), Some(p));
        }
        assert_eq!(FaultProfile::parse("bogus"), None);
    }

    #[test]
    fn none_is_inactive_and_others_are_active() {
        assert!(!FaultProfile::none().active());
        assert!(FaultProfile::aging().active());
        assert!(FaultProfile::gc_heavy().active());
        assert!(FaultProfile::flaky().active());
    }

    #[test]
    fn none_profile_draws_clean() {
        let inj = FaultInjector::new(FaultProfile::none(), 42, 48.0);
        for req in 0..100 {
            assert_eq!(inj.draw(7, req, 0, req as f64 * 13.0), ReadFault::clean());
        }
    }

    #[test]
    fn draws_are_order_independent_and_seed_deterministic() {
        let a = FaultInjector::new(FaultProfile::flaky(), 99, 48.0);
        let b = FaultInjector::new(FaultProfile::flaky(), 99, 48.0);
        // Same identities, drawn in different orders, give the same faults.
        let fwd: Vec<ReadFault> = (0..64).map(|r| a.draw(3, r, 1, 0.0)).collect();
        let rev: Vec<ReadFault> = (0..64).rev().map(|r| b.draw(3, r, 1, 0.0)).collect();
        let rev: Vec<ReadFault> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultInjector::new(FaultProfile::flaky(), 1, 48.0);
        let b = FaultInjector::new(FaultProfile::flaky(), 2, 48.0);
        let fa: Vec<ReadFault> = (0..256).map(|r| a.draw(0, r, 0, 0.0)).collect();
        let fb: Vec<ReadFault> = (0..256).map(|r| b.draw(0, r, 0, 0.0)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn hedge_tag_gives_a_distinct_stream() {
        let inj = FaultInjector::new(FaultProfile::flaky(), 5, 48.0);
        let primary: Vec<ReadFault> = (0..256).map(|r| inj.draw(1, r, 0, 0.0)).collect();
        let hedged: Vec<ReadFault> = (0..256).map(|r| inj.draw(1, r, HEDGE_TAG, 0.0)).collect();
        assert_ne!(primary, hedged);
    }

    #[test]
    fn gc_window_is_periodic_and_pure() {
        let inj = FaultInjector::new(FaultProfile::gc_heavy(), 0, 48.0);
        let p = FaultProfile::gc_heavy();
        // Inside the pause: stalls to the end of the window.
        assert!((inj.gc_stall_us(0.0) - p.gc_pause_us).abs() < 1e-9);
        assert!((inj.gc_stall_us(100.0) - (p.gc_pause_us - 100.0)).abs() < 1e-9);
        // Outside: no stall.
        assert_eq!(inj.gc_stall_us(p.gc_pause_us + 1.0), 0.0);
        // Periodic.
        assert_eq!(
            inj.gc_stall_us(37.0),
            inj.gc_stall_us(37.0 + 3.0 * p.gc_period_us)
        );
    }

    #[test]
    fn throttle_adds_constant_extra() {
        let inj = FaultInjector::new(FaultProfile::aging(), 11, 48.0);
        let expected = 48.0 * (FaultProfile::aging().throttle_factor - 1.0);
        // Draw until one without a spike; its extra is pure throttle.
        let f = (0..1000)
            .map(|r| inj.draw(0, r, 0, 0.0))
            .find(|f| !f.spiked)
            .expect("some draw without a spike");
        assert!((f.extra_us - expected).abs() < 1e-9, "extra {}", f.extra_us);
    }

    #[test]
    fn error_rate_tracks_probability() {
        let inj = FaultInjector::new(FaultProfile::flaky(), 1234, 48.0);
        let n = 20_000u64;
        let errors = (0..n).filter(|&r| inj.draw(0, r, 0, 0.0).error).count();
        let rate = errors as f64 / n as f64;
        let p = FaultProfile::flaky().read_error_prob;
        assert!(
            (rate - p).abs() < 0.01,
            "observed error rate {rate}, want ~{p}"
        );
    }

    #[test]
    fn spike_extra_stays_in_bounds() {
        let p = FaultProfile::flaky();
        let inj = FaultInjector::new(p, 77, 48.0);
        let throttle = 48.0 * (p.throttle_factor - 1.0);
        let mut spikes = 0;
        for r in 0..5_000 {
            let f = inj.draw(2, r, 0, 0.0);
            if f.spiked {
                spikes += 1;
                let spike = f.extra_us - throttle;
                assert!(
                    spike >= p.spike_min_us && spike <= p.spike_max_us,
                    "spike {spike} outside [{}, {}]",
                    p.spike_min_us,
                    p.spike_max_us
                );
            }
        }
        assert!(spikes > 0, "flaky profile never spiked in 5000 draws");
    }
}
