//! Distance-kernel microbenchmarks at the paper's two embedding
//! dimensionalities (768 and 1536). These kernels are the unit of the
//! engine's [`sann_engine::PlanBuilder`] price; the measured numbers
//! justify its `dist_us_per_dim` default. Every batched row sits next to
//! the single-pair loop over the same rows, so the pair reads side by side.

use sann_bench::microbench::{black_box, criterion_group, criterion_main, Criterion};
use sann_core::distance::{cosine_distance, dot, dot_x4, l2_squared, l2_squared_x4};
use sann_core::rng::SplitMix64;
use sann_core::Metric;

fn random_vec(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..dim).map(|_| rng.next_f32() - 0.5).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for dim in [768usize, 1536] {
        let a = random_vec(dim, 1);
        let b = random_vec(dim, 2);
        group.bench_function(format!("l2_squared/{dim}"), |bencher| {
            bencher.iter(|| l2_squared(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("dot/{dim}"), |bencher| {
            bencher.iter(|| dot(black_box(&a), black_box(&b)))
        });
        group.bench_function(format!("cosine/{dim}"), |bencher| {
            bencher.iter(|| cosine_distance(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_x4(c: &mut Criterion) {
    // One query against four rows: four single-pair calls vs one batched call.
    let mut group = c.benchmark_group("distance");
    for dim in [768usize, 1536] {
        let q = random_vec(dim, 5);
        let rows: Vec<Vec<f32>> = (0..4).map(|i| random_vec(dim, 6 + i)).collect();
        let rows: [&[f32]; 4] = [&rows[0], &rows[1], &rows[2], &rows[3]];
        group.bench_function(format!("l2_squared_4rows/single/{dim}"), |bencher| {
            bencher.iter(|| black_box(rows).map(|r| l2_squared(black_box(&q), r)))
        });
        group.bench_function(format!("l2_squared_4rows/x4/{dim}"), |bencher| {
            bencher.iter(|| l2_squared_x4(black_box(&q), black_box(rows)))
        });
        group.bench_function(format!("dot_4rows/single/{dim}"), |bencher| {
            bencher.iter(|| black_box(rows).map(|r| dot(black_box(&q), r)))
        });
        group.bench_function(format!("dot_4rows/x4/{dim}"), |bencher| {
            bencher.iter(|| dot_x4(black_box(&q), black_box(rows)))
        });
    }
    group.finish();
}

fn bench_rows(c: &mut Criterion) {
    // Contiguous rows at the shape of one ADC-table sub-space: an 8-d
    // sub-query against a 256-row codebook.
    let (dim, n) = (8, 256);
    let book = random_vec(n * dim, 11);
    let q = random_vec(dim, 12);
    let mut out = vec![0.0f32; n];
    c.bench_function("distance/rows_256x8d/single", |bencher| {
        bencher.iter(|| {
            for (slot, row) in out.iter_mut().zip(black_box(&book).chunks_exact(dim)) {
                *slot = l2_squared(black_box(&q), row);
            }
            out[n - 1]
        })
    });
    c.bench_function("distance/rows_256x8d/batched", |bencher| {
        bencher.iter(|| {
            Metric::L2.distance_rows(black_box(&q), black_box(&book), &mut out);
            out[n - 1]
        })
    });
}

fn bench_batch_scan(c: &mut Criterion) {
    // A 1,000-vector scan: the IVF posting-list inner loop.
    let dim = 768;
    let n = 1_000;
    let mut rng = SplitMix64::new(3);
    let data: Vec<f32> = (0..n * dim).map(|_| rng.next_f32()).collect();
    let q = random_vec(dim, 4);
    c.bench_function("distance/scan_1k_768d/single", |bencher| {
        bencher.iter(|| {
            let mut best = f32::INFINITY;
            for i in 0..n {
                let d = l2_squared(black_box(&q), &data[i * dim..(i + 1) * dim]);
                if d < best {
                    best = d;
                }
            }
            best
        })
    });
    let mut dists = vec![0.0f32; n];
    c.bench_function("distance/scan_1k_768d/batched", |bencher| {
        bencher.iter(|| {
            Metric::L2.distance_rows(black_box(&q), black_box(&data), &mut dists);
            dists.iter().copied().fold(f32::INFINITY, f32::min)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_kernels, bench_x4, bench_rows, bench_batch_scan
);
criterion_main!(benches);
