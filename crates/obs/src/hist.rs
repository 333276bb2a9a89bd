//! Log₂-bucketed histograms with an exact canonical byte encoding.
//!
//! One bucketing scheme serves every consumer — per-phase latencies, I/O
//! request sizes, per-query byte counts — so figures derived from
//! `IoStats` (Fig. 6's request-size distribution) and exported traces
//! bucket identically by construction: both go through [`bucket_index`] /
//! [`bucket_floor`].

use sann_core::buf::ByteWriter;
use sann_core::cast;

/// Number of buckets: bucket 0 holds the value `0`, bucket `i ≥ 1` holds
/// values `v` with `2^(i-1) <= v < 2^i` (i.e. `i` significant bits).
pub const BUCKETS: usize = 65;

/// The bucket a value falls into (shared by Fig. 6's request-size
/// histogram and every exported trace histogram).
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower bound of a bucket: `0` for bucket 0, `2^(i-1)` for
/// bucket `i ≥ 1`.
pub fn bucket_floor(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// A log₂-bucketed histogram over `u64` samples.
///
/// Mergeable across worker shards ([`LogHistogram::merge`] is exact: the
/// merged histogram equals the histogram of the concatenated samples) and
/// encodable to a canonical little-endian byte string for the determinism
/// audit.
///
/// # Examples
///
/// ```
/// use sann_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1, 5, 5, 4096] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.sum(), 4107);
/// assert_eq!(h.percentile_floor(50.0), 4); // bucket [4, 8)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value (used when folding an exact
    /// size→count map into buckets).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample; `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample; `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            cast::f64_from_u64(self.sum) / cast::f64_from_u64(self.count)
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The floor of the bucket containing the `p`-th percentile sample
    /// (nearest-rank over buckets); `0` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_floor(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = cast::u64_from_f64(
            ((p / 100.0) * cast::f64_from_u64(self.count))
                .ceil()
                .max(1.0),
        );
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(BUCKETS - 1)
    }

    /// Folds another histogram into this one (exact shard merge).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket_floor, count)` pairs in ascending
    /// order — the shape exporters serialize.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
            .collect()
    }

    /// Canonical little-endian encoding: count, sum, min, max, then a
    /// length-prefixed list of `(bucket_index, count)` pairs for non-empty
    /// buckets. Two histograms are bit-identical iff their encodings are.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = ByteWriter::new();
        self.encode(&mut buf);
        buf.into_bytes()
    }

    /// Appends the canonical encoding to an existing writer.
    pub fn encode(&self, buf: &mut ByteWriter) {
        buf.put_u64_le(self.count);
        buf.put_u64_le(self.sum);
        buf.put_u64_le(self.min());
        buf.put_u64_le(self.max);
        let nonzero = || self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        buf.put_count_u32(nonzero().count());
        for (i, &c) in nonzero() {
            buf.put_u32_le(cast::u32_from_usize(i));
            buf.put_u64_le(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(4095), 12);
        assert_eq!(bucket_index(4096), 13);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(13), 4096);
        // Every value lands in the bucket whose floor is <= it.
        for v in [0u64, 1, 7, 4096, u64::MAX] {
            assert!(bucket_floor(bucket_index(v)) <= v.max(1));
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile_floor(50.0), 0);
        h.record(100);
        h.record(200);
        h.record_n(4096, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100 + 200 + 8192);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 4096);
        assert!((h.mean() - 2123.0).abs() < 1e-9);
        assert_eq!(h.percentile_floor(99.0), 4096);
        assert_eq!(h.nonzero_buckets(), vec![(64, 1), (128, 1), (4096, 2)]);
    }

    #[test]
    fn merge_equals_concatenation() {
        let samples_a = [1u64, 5, 4096, 4096];
        let samples_b = [0u64, 3, 100_000];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for &v in &samples_a {
            a.record(v);
            both.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.canonical_bytes(), both.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_distinguish() {
        let mut a = LogHistogram::new();
        a.record(7);
        let mut b = LogHistogram::new();
        b.record(8);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        let mut c = LogHistogram::new();
        c.record(7);
        assert_eq!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
        let mut empty = LogHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
