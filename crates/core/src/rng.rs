//! A tiny deterministic RNG used across the workspace.
//!
//! Experiments must be reproducible bit-for-bit across crates and runs, so
//! the workspace seeds everything from [`SplitMix64`] (Steele et al.,
//! "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014) rather than
//! threading `rand` generics through every API.

use crate::cast;

/// SplitMix64 pseudorandom number generator.
///
/// # Examples
///
/// ```
/// use sann_core::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child stream. Streams derived with different
    /// `tag`s from the same parent are decorrelated.
    pub fn split(&self, tag: u64) -> SplitMix64 {
        let mut probe = SplitMix64 {
            state: self.state ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Burn one output so adjacent tags diverge immediately.
        probe.next_u64();
        probe
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        cast::f64_from_u64(self.next_u64() >> 11) / cast::f64_from_u64(1 << 53)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        cast::f32_rounded_from_u64(self.next_u64() >> 40) / cast::f32_rounded_from_u64(1 << 24)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free variant is unnecessary here;
        // plain modulo bias is < 2^-40 for the bounds used in this workspace.
        self.next_u64() % bound
    }

    /// Standard normal sample via Box–Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        // Draw until u1 is nonzero so ln() is finite.
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffles a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = cast::usize_from_u64(self.next_bounded(i as u64 + 1));
            items.swap(i, j);
        }
    }

    /// Samples `n` distinct indices from `[0, len)` (reservoir sampling).
    /// Returns fewer than `n` when `len < n`.
    pub fn sample_indices(&mut self, len: usize, n: usize) -> Vec<usize> {
        let mut reservoir: Vec<usize> = (0..len.min(n)).collect();
        for i in n..len {
            let j = cast::usize_from_u64(self.next_bounded(i as u64 + 1));
            if j < n {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_diverge() {
        let root = SplitMix64::new(7);
        let mut a = root.split(1);
        let mut b = root.split(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_bounded(10) < 10);
        }
    }

    #[test]
    fn gaussian_has_sane_moments() {
        let mut r = SplitMix64::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<u32>>(),
            "shuffle left slice unchanged"
        );
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SplitMix64::new(9);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_small_universe() {
        let mut r = SplitMix64::new(9);
        let s = r.sample_indices(3, 10);
        assert_eq!(s, vec![0, 1, 2]);
    }
}
