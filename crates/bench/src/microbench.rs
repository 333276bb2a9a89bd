//! A minimal, criterion-shaped microbenchmark harness.
//!
//! The workspace carries no external dependencies, so the `benches/` targets
//! run on this shim instead of criterion. It reproduces the slice of the
//! criterion API the benches use — `Criterion::default()` with the builder
//! knobs, `benchmark_group`/`bench_function`, `Bencher::iter`, `black_box`,
//! and the `criterion_group!`/`criterion_main!` macros — and reports
//! mean/min ns-per-iteration on stdout. Wall-clock timing is exactly what a
//! microbenchmark is for, hence the `#[allow(clippy::disallowed_types)]` on
//! its three `Instant` sites; the root `clippy.toml` still denies `Instant`
//! to every simulation crate.

pub use std::hint::black_box;
#[allow(
    clippy::disallowed_types,
    reason = "microbenchmark harness measures real elapsed time"
)]
use std::time::{Duration, Instant};

/// Top-level harness handle (criterion-compatible subset).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Number of measured samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time spent warming up before measurement.
    #[must_use]
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Total time budget for the measured samples.
    #[must_use]
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs a single benchmark, returning its measured statistics so a
    /// bench target can compare two configurations (e.g. the tracing
    /// overhead check in `benches/obs_overhead.rs`).
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        f: impl FnMut(&mut Bencher),
    ) -> BenchStats {
        run_one(self, name.as_ref(), f)
    }
}

/// Summary of one benchmark's measured samples, ns per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchStats {
    /// Mean over the measured samples.
    pub mean_ns: f64,
    /// Fastest sample (least noise-contaminated).
    pub min_ns: f64,
}

/// A named group of benchmarks sharing the harness configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        f: impl FnMut(&mut Bencher),
    ) -> BenchStats {
        let full = format!("{}/{}", self.name, name.as_ref());
        run_one(self.criterion, &full, f)
    }

    /// Ends the group (kept for criterion API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the body.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Iterations to run this sample.
    iters: u64,
    /// Measured duration of the sample, filled in by [`Bencher::iter`].
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` executions of `body`.
    pub fn iter<T>(&mut self, mut body: impl FnMut() -> T) {
        #[allow(
            clippy::disallowed_types,
            reason = "the timed region of the microbenchmark"
        )]
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(body());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one(criterion: &Criterion, name: &str, mut f: impl FnMut(&mut Bencher)) -> BenchStats {
    // Warm-up: discover a per-sample iteration count that fills roughly one
    // sample slot, starting from a single iteration.
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    #[allow(clippy::disallowed_types, reason = "harness warm-up budget")]
    let warm_up_start = Instant::now();
    let mut per_iter = loop {
        f(&mut bencher);
        let per_iter = bencher.elapsed.as_secs_f64() / bencher.iters as f64;
        if warm_up_start.elapsed() >= criterion.warm_up_time || per_iter > 0.05 {
            break per_iter;
        }
        bencher.iters = (bencher.iters * 2).min(1 << 24);
    };
    if per_iter <= 0.0 {
        per_iter = 1e-9;
    }

    let sample_budget = criterion.measurement_time.as_secs_f64() / criterion.sample_size as f64;
    // per_iter is floored at 1e-9 above, so the quotient is finite and
    // non-negative; the saturating cast plus the clamp bound iters even for
    // degenerate budgets.
    let iters = ((sample_budget / per_iter) as u64).clamp(1, 1 << 24);

    let mut samples_ns: Vec<f64> = Vec::with_capacity(criterion.sample_size);
    for _ in 0..criterion.sample_size {
        let mut sample = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut sample);
        samples_ns.push(sample.elapsed.as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(f64::total_cmp);
    let min = samples_ns.first().copied().unwrap_or(0.0);
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    println!(
        "{name:<40} {mean:>12.1} ns/iter (min {min:.1}, {iters} iters x {} samples)",
        samples_ns.len()
    );
    BenchStats {
        mean_ns: mean,
        min_ns: min,
    }
}

/// Declares a benchmark entry function from targets (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::microbench::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main` (criterion-compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(10));
        let mut runs = 0u64;
        let stats = c.bench_function("smoke/add", |b| {
            runs += 1;
            b.iter(|| black_box(1u64) + black_box(2u64))
        });
        assert!(runs >= 3, "warm-up plus samples must call the closure");
        assert!(stats.mean_ns >= stats.min_ns);
        assert!(stats.min_ns >= 0.0);
        let mut group = c.benchmark_group("g");
        group.bench_function("inner", |b| b.iter(|| black_box(7u32)));
        group.finish();
    }
}
