//! Fixed-width windowed aggregation over simulated time.
//!
//! Device telemetry (queue depth, utilization, bandwidth) is sampled at
//! DES event granularity — one sample per scheduled request — and then
//! folded into fixed windows for reporting. This module owns that fold,
//! including the one subtle piece every timeline needs: the **trailing
//! partial bucket**. A 2.5 s run at 1 s windows has buckets of width
//! 1 s, 1 s, 0.5 s; rates computed against a full-width final bucket
//! would silently understate the tail. `ssdsim`'s Fig. 5 bandwidth
//! series and the iostat queue-depth/utilization timelines all divide by
//! [`Timeline::bucket_width_us`] so the logic can never drift apart.
//!
//! All arithmetic is plain `f64` over simulated microseconds, recorded in
//! DES event order, so every derived series is bit-reproducible.

/// An accumulator folding `(time, value)` samples into fixed windows.
#[derive(Debug, Clone)]
pub struct Timeline {
    duration_us: f64,
    bucket_us: f64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl Timeline {
    /// Creates a timeline covering `[0, duration_us)` in `bucket_us`-wide
    /// windows (the final window may be partial). Returns `None` when
    /// either span is non-positive — the degenerate cases a zero-duration
    /// run produces.
    pub fn new(duration_us: f64, bucket_us: f64) -> Option<Timeline> {
        if duration_us <= 0.0 || bucket_us <= 0.0 {
            return None;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "positive finite ratio, far below usize::MAX for any simulated run"
        )]
        let n = (duration_us / bucket_us).ceil() as usize;
        let n = n.max(1);
        Some(Timeline {
            duration_us,
            bucket_us,
            sums: vec![0.0; n],
            counts: vec![0; n],
        })
    }

    /// Number of windows (≥ 1).
    pub fn n_buckets(&self) -> usize {
        self.sums.len()
    }

    /// Width of window `i` in microseconds: `bucket_us` for all but the
    /// last, which covers only the remainder of the run.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_width_us(&self, i: usize) -> f64 {
        assert!(i < self.n_buckets(), "bucket index out of range");
        if i + 1 == self.n_buckets() {
            self.duration_us - sann_core::cast::f64_from_usize(i) * self.bucket_us
        } else {
            self.bucket_us
        }
    }

    /// Folds one sample in. Samples at or beyond `duration_us` land in the
    /// final window (a request scheduled exactly at the horizon still
    /// belongs to the run).
    pub fn record(&mut self, t_us: f64, value: f64) {
        debug_assert!(t_us >= 0.0, "negative sample time");
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "non-negative, and the min() clamp bounds the index"
        )]
        let i = if t_us >= 0.0 && self.bucket_us > 0.0 {
            ((t_us / self.bucket_us) as usize).min(self.n_buckets() - 1)
        } else {
            0
        };
        // sann-lint: allow(panic-path) -- i is clamped to n_buckets()-1 above
        self.sums[i] += value;
        // sann-lint: allow(panic-path) -- i is clamped to n_buckets()-1 above
        self.counts[i] += 1;
    }

    /// Forgets every sample; the windows stay.
    pub fn clear(&mut self) {
        self.sums.fill(0.0);
        self.counts.fill(0);
    }

    /// Per-window sums, in window order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Per-window sample counts, in window order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-window rates: sum divided by the window width in seconds
    /// (partial-width-aware, so the tail window is not understated).
    pub fn rates_per_s(&self) -> Vec<f64> {
        self.sums
            .iter()
            .enumerate()
            .map(|(i, s)| s / (self.bucket_width_us(i) / 1e6))
            .collect()
    }

    /// Per-window means: sum divided by sample count (0 for empty windows).
    pub fn means(&self) -> Vec<f64> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(s, &c)| {
                if c == 0 {
                    0.0
                } else {
                    s / sann_core::cast::f64_from_u64(c)
                }
            })
            .collect()
    }

    /// Per-window fractions of the window itself: sum (in µs) divided by
    /// the window width (in µs) — the shape device-utilization series use.
    pub fn fractions_of_window(&self) -> Vec<f64> {
        self.sums
            .iter()
            .enumerate()
            .map(|(i, s)| s / self.bucket_width_us(i))
            .collect()
    }

    /// Mean over every sample in the run (0 with no samples).
    pub fn mean(&self) -> f64 {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            0.0
        } else {
            self.sums.iter().sum::<f64>() / sann_core::cast::f64_from_u64(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_spans_yield_no_timeline() {
        assert!(Timeline::new(0.0, 1e6).is_none());
        assert!(Timeline::new(-1.0, 1e6).is_none());
        assert!(Timeline::new(1e6, 0.0).is_none());
    }

    #[test]
    fn trailing_partial_bucket_width() {
        let tl = Timeline::new(2.5e6, 1e6).unwrap();
        assert_eq!(tl.n_buckets(), 3);
        assert_eq!(tl.bucket_width_us(0), 1e6);
        assert_eq!(tl.bucket_width_us(1), 1e6);
        assert!((tl.bucket_width_us(2) - 0.5e6).abs() < 1e-9);
    }

    #[test]
    fn exact_multiple_has_no_partial_bucket() {
        let tl = Timeline::new(3e6, 1e6).unwrap();
        assert_eq!(tl.n_buckets(), 3);
        assert_eq!(tl.bucket_width_us(2), 1e6);
    }

    #[test]
    fn rates_divide_by_partial_width() {
        let mut tl = Timeline::new(1.5e6, 1e6).unwrap();
        tl.record(0.2e6, 10.0);
        tl.record(1.2e6, 10.0);
        let rates = tl.rates_per_s();
        assert!((rates[0] - 10.0).abs() < 1e-9);
        // Same sum over half the window: double the rate.
        assert!((rates[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn means_and_empty_windows() {
        let mut tl = Timeline::new(2e6, 1e6).unwrap();
        tl.record(0.1e6, 4.0);
        tl.record(0.9e6, 8.0);
        let means = tl.means();
        assert!((means[0] - 6.0).abs() < 1e-9);
        assert_eq!(means[1], 0.0, "empty window means 0, not NaN");
        assert!((tl.mean() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_samples_land_in_final_window() {
        let mut tl = Timeline::new(2e6, 1e6).unwrap();
        tl.record(2e6, 1.0);
        tl.record(5e6, 1.0); // stragglers clamp rather than panic
        assert_eq!(tl.counts()[1], 2);
    }

    #[test]
    fn fractions_of_window() {
        let mut tl = Timeline::new(1.5e6, 1e6).unwrap();
        tl.record(0.0, 0.25e6);
        tl.record(1.0e6, 0.25e6);
        let f = tl.fractions_of_window();
        assert!((f[0] - 0.25).abs() < 1e-9);
        assert!((f[1] - 0.5).abs() < 1e-9, "partial window: 0.25s of 0.5s");
    }

    #[test]
    fn mean_of_empty_timeline_is_zero() {
        let tl = Timeline::new(1e6, 1e6).unwrap();
        assert_eq!(tl.mean(), 0.0);
    }
}
