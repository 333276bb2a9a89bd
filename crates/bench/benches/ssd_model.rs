//! Device-model microbenchmarks: the simulator must schedule millions of
//! requests per second of host time for 256-thread sweeps to be cheap.

#![allow(
    clippy::cast_precision_loss,
    reason = "reported rates divide small request counts"
)]

use sann_bench::microbench::{black_box, criterion_group, criterion_main, Criterion};
use sann_obs::IoProvenance;
use sann_ssdsim::{Calibrator, DeviceSim, IoTracer, PageCache, SsdModel};

fn bench_device(c: &mut Criterion) {
    c.bench_function("ssd/schedule_4k", |b| {
        let mut dev = DeviceSim::new(SsdModel::samsung_990_pro());
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            black_box(dev.schedule(t, 4096))
        })
    });

    c.bench_function("ssd/calibration_run", |b| {
        let calibrator = Calibrator::new(SsdModel::samsung_990_pro()).with_duration_us(10_000.0);
        b.iter(|| black_box(calibrator.run()))
    });
}

fn bench_tracer(c: &mut Criterion) {
    c.bench_function("tracer/record_read_tagged", |b| {
        let mut tracer = IoTracer::new(30e6);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tracer.record_read_tagged(
                i as f64,
                (i % 4096) * 4096,
                4096,
                3332,
                IoProvenance::GraphAdjacency,
            )
        })
    });
}

fn bench_pagecache(c: &mut Criterion) {
    c.bench_function("pagecache/hit", |b| {
        let mut cache = PageCache::new(1 << 20);
        cache.access(0, 4096);
        b.iter(|| black_box(cache.access(0, 4096)))
    });
    c.bench_function("pagecache/miss_evict", |b| {
        let mut cache = PageCache::new(64 * 4096);
        let mut page = 0u64;
        b.iter(|| {
            page += 1;
            black_box(cache.access(page * 4096, 4096))
        })
    });
    // The two rows above touch one hot page and a 64-page cache, which hides
    // the depth of the page index; these run at 16 Ki resident pages (the
    // 64 MiB cache of the benchmark's page-cached replay).
    const PAGES_16K: u64 = 16 * 1024;
    c.bench_function("pagecache/hit_16k_pages", |b| {
        let mut cache = PageCache::new(PAGES_16K * 4096);
        for page in 0..PAGES_16K {
            cache.access(page * 4096, 4096);
        }
        let mut i = 0u64;
        b.iter(|| {
            // A stride coprime to the page count visits every page.
            i += 7919;
            black_box(cache.access((i % PAGES_16K) * 4096, 4096))
        })
    });
    c.bench_function("pagecache/miss_evict_16k_pages", |b| {
        let mut cache = PageCache::new(PAGES_16K * 4096);
        let mut page = 0u64;
        b.iter(|| {
            page += 1;
            black_box(cache.access(page * 4096, 4096))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_device, bench_tracer, bench_pagecache
);
criterion_main!(benches);
