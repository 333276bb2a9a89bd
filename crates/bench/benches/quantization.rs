//! Quantization microbenchmarks: PQ encode, ADC table construction, ADC
//! lookups (one code at a time and four at a time), scalar quantization —
//! the in-memory costs of the storage-based indexes — and PQ training at the
//! shape DiskANN and IVF-PQ train (96 sub-spaces x 256 sub-centroids of
//! 8-d), which the repo benchmark's `ksub = 64` probe does not see.

#![allow(
    clippy::expect_used,
    reason = "a benchmark that cannot build its fixture should stop"
)]

use sann_bench::microbench::{black_box, criterion_group, criterion_main, Criterion};
use sann_datagen::EmbeddingModel;
use sann_quant::{KMeans, ProductQuantizer, ScalarQuantizer};

fn bench_pq(c: &mut Criterion) {
    let model = EmbeddingModel::new(768, 16, 7);
    let data = model.generate(2_000);
    let pq = ProductQuantizer::train(&data, 96, 64, 1).expect("pq trains");
    let codes = pq.encode_all(&data);
    let q = data.row(0).to_vec();
    let code = pq.encode(&q);
    let table = pq.distance_table(&q);

    c.bench_function("pq/encode_768d_m96", |b| {
        b.iter(|| pq.encode(black_box(&q)))
    });
    c.bench_function("pq/distance_table_768d_m96", |b| {
        b.iter(|| pq.distance_table(black_box(&q)))
    });
    c.bench_function("pq/adc_single", |b| {
        b.iter(|| table.distance(black_box(&code)))
    });
    c.bench_function("pq/adc_scan_1k_m96/single", |b| {
        b.iter(|| {
            let mut best = f32::INFINITY;
            for i in 0..1_000 {
                let d = table.distance_at(black_box(&codes), i);
                if d < best {
                    best = d;
                }
            }
            best
        })
    });
    let scanned = &codes[..1_000 * pq.m()];
    let mut dists = vec![0.0f32; 1_000];
    c.bench_function("pq/adc_scan_1k_m96/batched", |b| {
        b.iter(|| {
            table.distance_rows(black_box(scanned), &mut dists);
            dists.iter().copied().fold(f32::INFINITY, f32::min)
        })
    });
}

fn bench_train(c: &mut Criterion) {
    let model = EmbeddingModel::new(768, 16, 7);
    for n in [500, 2_000] {
        let data = model.generate(n);
        c.bench_function(format!("pq_train_96x256/{n}_rows"), |b| {
            b.iter(|| ProductQuantizer::train(black_box(&data), 96, 256, 1).expect("pq trains"))
        });
    }
    // One of the 96 fits of such a training, assignments included.
    let sub = EmbeddingModel::new(8, 16, 7).generate(500);
    c.bench_function("kmeans_fit_256x8d", |b| {
        b.iter(|| {
            KMeans::new(256)
                .with_max_iters(15)
                .fit(black_box(&sub))
                .expect("kmeans fits")
        })
    });
}

fn bench_sq(c: &mut Criterion) {
    let model = EmbeddingModel::new(768, 16, 8);
    let data = model.generate(1_000);
    let sq = ScalarQuantizer::train(&data).expect("sq trains");
    let q = data.row(0).to_vec();
    let code = sq.encode(&q);
    c.bench_function("sq/encode_768d", |b| b.iter(|| sq.encode(black_box(&q))));
    c.bench_function("sq/asymmetric_distance_768d", |b| {
        b.iter(|| sq.distance(black_box(&q), black_box(&code)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pq, bench_train, bench_sq
);
criterion_main!(benches);
