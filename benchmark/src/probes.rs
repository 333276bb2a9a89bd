//! Fixed-iteration micro-loops over the kernels the workloads spend their
//! time in: `core` distances and top-k, `quant` training and ADC, the
//! `ssdsim` device model and page cache.
//!
//! They run in the traced run only, after the workload's passes, so they
//! never count towards an end-to-end metric; each loop is repeated and the
//! run reports the median repetition.

use crate::pipeline::{Ctx, World, K};
use sann_core::distance::{dot, l2_squared};
use sann_core::{Dataset, TopK};
use sann_datagen::EmbeddingModel;
use sann_quant::kmeans::KMeans;
use sann_quant::{ProductQuantizer, ScalarQuantizer};
use sann_ssdsim::{Calibrator, DeviceSim, PageCache, SsdModel};
use std::hint::black_box;

/// Repetitions of every loop; the median is reported.
const REPS: usize = 5;

/// Runs `body` [`REPS`] times under a span named after `metric`; each
/// repetition samples the metric as `scale x seconds / work`.
fn probe(ctx: &mut Ctx, metric: &str, work: f64, scale: f64, mut body: impl FnMut()) {
    for _ in 0..REPS {
        let open = ctx.rec.enter(metric);
        body();
        let secs = ctx.rec.exit(open);
        ctx.sample(metric, secs * scale / work);
    }
}

/// Sums `kernel` over `iters` pairs of rows of `data`.
fn distance_loop(data: &Dataset, iters: usize, kernel: fn(&[f32], &[f32]) -> f32) {
    let n = data.len();
    let mut acc = 0.0f32;
    for i in 0..iters {
        acc += kernel(black_box(data.row(i % n)), data.row((i * 7 + 1) % n));
    }
    black_box(acc);
}

/// Runs every micro-loop under a root span named `probes`.
pub fn run(ctx: &mut Ctx, world: &World) -> Result<(), String> {
    let open = ctx.rec.enter("probes");
    let done = kernels(ctx, world);
    ctx.rec.exit(open);
    done
}

fn kernels(ctx: &mut Ctx, world: &World) -> Result<(), String> {
    let div = ctx.shape.probe_divisor;
    let base = &world.base;
    let dim = base.dim() as f64;

    // core
    let iters = 200_000 / div;
    probe(
        ctx,
        "core.l2_ns_per_dim.768",
        iters as f64 * dim,
        1e9,
        || {
            distance_loop(base, iters, l2_squared);
        },
    );
    probe(
        ctx,
        "core.dot_ns_per_dim.768",
        iters as f64 * dim,
        1e9,
        || {
            distance_loop(base, iters, dot);
        },
    );
    let wide = EmbeddingModel::new(1536, 8, ctx.derive(5)).generate(256);
    let iters = 100_000 / div;
    probe(
        ctx,
        "core.l2_ns_per_dim.1536",
        iters as f64 * 1536.0,
        1e9,
        || {
            distance_loop(&wide, iters, l2_squared);
        },
    );
    // A descending-then-noisy stream keeps both `push` outcomes exercised.
    let dists: Vec<f32> = base.row(0).iter().map(|x| x.abs()).collect();
    let pushes = 2_000_000 / div;
    probe(ctx, "core.topk_push_ns", pushes as f64, 1e9, || {
        let mut topk = TopK::new(K);
        for i in 0..pushes {
            topk.push(i as u32, black_box(dists[i % dists.len()]));
        }
        black_box(topk.len());
    });

    // quant
    let seed = ctx.derive(6);
    let mut fitted = Ok(());
    probe(ctx, "quant.kmeans_fit_s", 1.0, 1.0, || {
        let model = KMeans::new(32).with_seed(seed).with_max_iters(10).fit(base);
        if let Err(err) = black_box(model) {
            fitted = Err(format!("kmeans fit: {err}"));
        }
    });
    ctx.check(fitted.is_ok(), || "kmeans fit failed".to_owned());
    fitted?;
    let ksub = 64.min(base.len() - 1);
    let mut trained = None;
    probe(ctx, "quant.pq_train_s", 1.0, 1.0, || {
        trained = Some(ProductQuantizer::train(base, 96, ksub, seed));
    });
    let pq = ctx.op(trained.expect("REPS > 0"), "pq train")?;
    let mut codes = Vec::new();
    probe(
        ctx,
        "quant.pq_encode_us_per_vec",
        base.len() as f64,
        1e6,
        || {
            codes = pq.encode_all(black_box(base));
        },
    );
    let query = base.row(1);
    let tables = 200 / div.min(20);
    probe(ctx, "quant.adc_table_us", tables as f64, 1e6, || {
        for _ in 0..tables {
            black_box(pq.distance_table(black_box(query)));
        }
    });
    let table = pq.distance_table(query);
    let scans = 200 / div.min(20);
    let code_bytes = (scans * codes.len()) as f64;
    probe(ctx, "quant.adc_ns_per_code_byte", code_bytes, 1e9, || {
        let mut best = f32::INFINITY;
        for _ in 0..scans {
            for i in 0..base.len() {
                best = best.min(table.distance_at(black_box(&codes), i));
            }
        }
        black_box(best);
    });
    let sq = ctx.op(ScalarQuantizer::train(base), "sq train")?;
    let sq_codes: Vec<Vec<u8>> = base.iter().take(256).map(|row| sq.encode(row)).collect();
    let iters = 100_000 / div;
    probe(
        ctx,
        "quant.sq_dist_ns_per_dim",
        iters as f64 * dim,
        1e9,
        || {
            let mut acc = 0.0f32;
            for i in 0..iters {
                acc += sq.distance(black_box(query), &sq_codes[i % sq_codes.len()]);
            }
            black_box(acc);
        },
    );

    // ssdsim
    let model = SsdModel::samsung_990_pro();
    let ops = 200_000 / div;
    probe(ctx, "ssdsim.schedule_ns", ops as f64, 1e9, || {
        let mut dev = DeviceSim::new(model);
        for i in 0..ops {
            black_box(dev.schedule(i as f64, 4096));
        }
    });
    probe(ctx, "ssdsim.schedule_faulted_ns", ops as f64, 1e9, || {
        let mut dev = DeviceSim::new(model);
        for i in 0..ops {
            black_box(dev.schedule_faulted(i as f64, 4096, 50.0));
        }
    });
    let hits = 1_000_000 / div;
    probe(ctx, "ssdsim.pagecache_hit_ns", hits as f64, 1e9, || {
        let mut cache = PageCache::new(1 << 20);
        cache.access(0, 4096);
        for _ in 0..hits {
            black_box(cache.access(black_box(0), 4096));
        }
    });
    probe(
        ctx,
        "ssdsim.pagecache_miss_evict_ns",
        ops as f64,
        1e9,
        || {
            let mut cache = PageCache::new(64 * 4096);
            for page in 0..ops as u64 {
                black_box(cache.access(page * 4096, 4096));
            }
        },
    );
    let calibrator = Calibrator::new(model).with_duration_us(20_000.0);
    probe(ctx, "ssdsim.calibrate_s", 1.0, 1.0, || {
        black_box(calibrator.run());
    });
    Ok(())
}
