//! CPU cost model: converts trace work items into core-occupancy time.

/// Microsecond costs of the primitive operations a query performs.
///
/// Defaults approximate one core of the paper's Xeon Silver 4416+ running
/// vectorized distance kernels; database engine profiles scale them with
/// [`CostModel::scaled`] (e.g. a Go-based engine pays a higher factor than a
/// C++ one — the paper's O-2/O-8 show up to 7.1× throughput differences
/// between databases using the *same* index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// µs per full-precision distance evaluation, per vector dimension.
    pub dist_us_per_dim: f64,
    /// µs per PQ ADC lookup, per code byte.
    pub pq_us_per_byte: f64,
    /// Fixed per-query CPU overhead (parsing, planning, result assembly), µs.
    pub query_overhead_us: f64,
    /// Multiplier on all per-operation costs (engine/runtime efficiency).
    pub cpu_factor: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // ~0.19 µs per 768-d L2 distance (AVX2-class throughput). The
            // model's, not this host's: the batched kernels measure
            // 0.11-0.15 ns/dim (DESIGN.md §14), the single-pair kernel
            // 0.55. The constant feeds simulated output and stays put.
            dist_us_per_dim: 0.00025,
            // ~0.1 µs per 48-byte PQ code.
            pq_us_per_byte: 0.002,
            query_overhead_us: 30.0,
            cpu_factor: 1.0,
        }
    }
}

impl CostModel {
    /// CPU time of `count` full-precision distance evaluations at `dim`.
    pub fn compute_us(&self, count: u64, dim: u32) -> f64 {
        count as f64 * dim as f64 * self.dist_us_per_dim * self.cpu_factor
    }

    /// CPU time of `count` PQ lookups with `m`-byte codes.
    pub fn pq_us(&self, count: u64, m: u32) -> f64 {
        count as f64 * m as f64 * self.pq_us_per_byte * self.cpu_factor
    }

    /// Fixed per-query overhead.
    pub fn overhead_us(&self) -> f64 {
        self.query_overhead_us * self.cpu_factor
    }

    /// Returns a copy with every cost multiplied by `factor` (stacking on any
    /// existing factor).
    pub fn scaled(mut self, factor: f64) -> CostModel {
        self.cpu_factor *= factor;
        self
    }

    /// Returns a copy with the fixed per-query overhead replaced.
    pub fn with_overhead_us(mut self, overhead_us: f64) -> CostModel {
        self.query_overhead_us = overhead_us;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly() {
        let c = CostModel::default();
        assert!((c.compute_us(1000, 768) - 1000.0 * 768.0 * 0.00025).abs() < 1e-9);
        assert!((c.pq_us(100, 48) - 100.0 * 48.0 * 0.002).abs() < 1e-9);
    }

    #[test]
    fn scaled_stacks() {
        let c = CostModel::default().scaled(2.0).scaled(3.0);
        assert!((c.cpu_factor - 6.0).abs() < 1e-12);
        assert!((c.compute_us(1, 100) - 6.0 * 100.0 * 0.00025).abs() < 1e-9);
        assert!((c.overhead_us() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_override() {
        let c = CostModel::default().with_overhead_us(5.0);
        assert_eq!(c.overhead_us(), 5.0);
    }

    #[test]
    fn default_distance_is_submicrosecond_per_768d() {
        let c = CostModel::default();
        let one = c.compute_us(1, 768);
        assert!((0.05..1.0).contains(&one), "768-d distance {one} µs");
    }
}
