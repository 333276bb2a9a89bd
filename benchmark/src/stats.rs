//! Order statistics over host-clock samples.

/// Sorted copy of `values` (total order, so a stray NaN cannot panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; `NaN` when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Largest of `values`; `NaN` when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), because
/// that is what the acceptance check of this benchmark uses. Needs two
/// samples; with fewer every quartile is the median.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return [median(values); 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median: the spread the
/// benchmark's bounds are compared with.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Nearest-rank percentile `p` (0..=100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that
/// still has at least ten of `samples` beyond it — the tail a sample of
/// this size supports. `None` below 20 samples (not even a median with ten
/// beyond it).
pub fn supported_tail(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!((min(&[3.0, 1.0, 2.0]), max(&[3.0, 1.0, 2.0])), (1.0, 3.0));
        assert!(min(&[]).is_nan() && max(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            [15.0, 30.0, 45.0]
        );
        // Two points extrapolate like Python does: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(12_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }
}
