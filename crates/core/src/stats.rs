//! Summary statistics used by the benchmark harness (the mean and the P99
//! tail latency the paper reports).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `p`-th percentile (0.0–100.0) by linear interpolation between the
/// two closest ranks on a sorted copy, clamped at p0 (minimum) and p100
/// (maximum).
///
/// Returns `0.0` for an empty slice and the sample itself for a single
/// sample — never panics or produces NaN for well-formed inputs.
/// `percentile(xs, 99.0)` is the paper's P99 tail latency;
/// `percentile(xs, 50.0)` of an even-length slice is the midpoint of the
/// two middle samples.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let last = sorted.len() - 1;
    // Fractional rank over [0, last]; p0 clamps to the minimum and p100
    // to the maximum by construction.
    let rank = (p / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // rank = p/100 * 99 over samples 1..=100, so value = 1 + rank.
        assert!((percentile(&xs, 99.0) - 99.01).abs() < 1e-9);
        assert!((percentile(&xs, 50.0) - 50.5).abs() < 1e-9);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn percentile_small_inputs_never_panic_or_nan() {
        // n = 0.
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(percentile(&[], p), 0.0);
        }
        // n = 1: every percentile is the sample itself.
        for p in [0.0, 37.5, 99.0, 100.0] {
            let v = percentile(&[42.0], p);
            assert_eq!(v, 42.0);
            assert!(!v.is_nan());
        }
        // n = 2: clamped at the ends, interpolated between.
        assert_eq!(percentile(&[10.0, 20.0], 0.0), 10.0);
        assert_eq!(percentile(&[10.0, 20.0], 100.0), 20.0);
        assert!((percentile(&[10.0, 20.0], 50.0) - 15.0).abs() < 1e-12);
        assert!((percentile(&[10.0, 20.0], 25.0) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_even_length_median_is_midpoint() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        let xs6 = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((percentile(&xs6, 50.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_p0_p100_clamp_to_extremes() {
        let xs = [9.0, -3.0, 7.0];
        assert_eq!(percentile(&xs, 0.0), -3.0);
        assert_eq!(percentile(&xs, 100.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }
}
