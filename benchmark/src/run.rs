//! One run of one workload: set-up, timed passes, and — in a traced run —
//! the other layers and the micro-loops; then the metrics by name.

use crate::json::Value;
use crate::names::{self, Clock, MetricDef};
use crate::pipeline::{set_up, Ctx, Fixture, Shape};
use crate::workloads::{self, Digests, Work};
use crate::{probes, spans, stats};
use std::path::PathBuf;

/// What `main` parsed from the command line for one workload.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// The benchmark's `out/` directory (traces, scratch).
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub options: Options,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The metrics of this run's mode, in vocabulary order.
    pub metrics: Vec<(MetricDef, f64)>,
    pub digests: Digests,
    pub passes: usize,
    /// Pooled search samples per pass and the tail they support, etc.
    pub notes: Vec<String>,
    /// The per-layer self-time table of a traced run.
    pub self_time_table: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let mut metrics = Value::obj();
        for (def, value) in &self.metrics {
            metrics = metrics.with(
                &def.name,
                Value::obj().with("value", *value).with("unit", def.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_json()
    }

    /// The full record kept in a result file (`--out`).
    pub fn to_value(&self) -> Value {
        let o = &self.options;
        let hex = |d: Option<u64>| d.map_or(Value::Null, |d| Value::from(format!("{d:016x}")));
        let mut metrics = Value::obj();
        for (def, value) in &self.metrics {
            metrics = metrics.with(&def.name, *value);
        }
        Value::obj()
            .with("workload", o.workload.as_str())
            .with("seed", o.seed)
            .with("trace", o.traced)
            .with("smoke", o.smoke)
            .with("passes", self.passes)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with(
                "digests",
                Value::obj()
                    .with("index_digest", hex(self.digests.index))
                    .with("topk_digest", hex(self.digests.topk))
                    .with("sim_digest", hex(self.digests.sim)),
            )
            .with("metrics", metrics)
            .with(
                "env",
                Value::obj()
                    .with("nproc", nproc())
                    .with("rustc", env!("BENCH_RUSTC_VERSION"))
                    .with("rev", env!("BENCH_GIT_REV")),
            )
    }

    /// Every metric by name with its unit, for people.
    pub fn report(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "== {} (seed {}, {} passes, {}{})\n",
            o.workload,
            o.seed,
            self.passes,
            if o.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            },
            if o.smoke {
                ", SMOKE shape - not a measurement"
            } else {
                ""
            },
        );
        for (def, value) in &self.metrics {
            let clock = match def.clock {
                Clock::Host => "host",
                Clock::Exact => "exact",
            };
            out.push_str(&format!(
                "{:<44} {value:>16.6} {:<9} [{clock}]\n",
                def.name, def.unit
            ));
        }
        for (name, digest) in [
            ("index_digest", self.digests.index),
            ("topk_digest", self.digests.topk),
            ("sim_digest", self.digests.sim),
        ] {
            if let Some(d) = digest {
                out.push_str(&format!("{name:<44} {d:>16x} {:<9} [exact]\n", "fnv1a64"));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        if let Some(table) = &self.self_time_table {
            out.push_str(table);
        }
        out.push_str(&format!(
            "ops: {} attempted, {} failed\n",
            self.attempted, self.failed
        ));
        for failure in &self.failures {
            out.push_str(&format!("FAILED: {failure}\n"));
        }
        out
    }
}

/// Cores the library's helpers may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `options.workload` once and reports.
pub fn run(options: &Options) -> Outcome {
    // Several workloads may share one process; start each from a fresh
    // high-water mark (best effort: the file exists on Linux only).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let shape = if options.smoke {
        Shape::SMOKE
    } else {
        Shape::FULL
    };
    let scratch = options
        .out_dir
        .join(format!("scratch-{}", std::process::id()));
    let mut ctx = Ctx::new(options.seed, shape, scratch.clone());
    let mut outcome = Outcome {
        options: options.clone(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        digests: Digests::default(),
        passes: 0,
        notes: Vec::new(),
        self_time_table: None,
    };
    if let Err(err) = measure(&mut ctx, &mut outcome) {
        // Whatever ended the run early is a failed operation of its own.
        ctx.check(false, || err);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    outcome.attempted = ctx.attempted();
    outcome.failed = ctx.failed();
    outcome.failures = ctx.failures().to_vec();
    outcome
}

/// Sets up, runs the passes (and, traced, the other layers and the
/// micro-loops), and fills in `out`'s metrics, digests, notes and table.
fn measure(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let o = out.options.clone();
    let traced = o.traced;
    ctx.rec.set_enabled(traced);
    let needs = workloads::needs(&o.workload, traced);
    let mut reps = workloads::repetitions(&o.workload);
    // A traced run reports no `setup_s`, and a smoke run is no measurement:
    // both set up once. A traced run alternates traced and untraced passes,
    // and needs at least one of each.
    if traced || o.smoke {
        reps.set_ups = 1;
    }
    if o.smoke {
        reps.passes = if traced { 2 } else { 1 };
    }
    let mut setup_s = Vec::with_capacity(reps.set_ups);
    let mut fixture: Option<Fixture> = None;
    for _ in 0..reps.set_ups {
        // Dropped before the next repetition builds its own: two fixtures
        // at once would double the peak resident set.
        drop(fixture.take());
        let open = ctx.rec.enter("setup");
        let built = set_up(ctx, &needs);
        setup_s.push(ctx.rec.exit(open));
        fixture = Some(built?);
    }
    let fx = fixture.expect("at least one set-up");

    // Traced and untraced passes execute the same calls, so their
    // difference is what storing spans costs.
    let mut passes: Vec<(f64, Work)> = Vec::with_capacity(reps.passes);
    for i in 0..reps.passes {
        ctx.rec.set_enabled(traced && i % 2 == 0);
        passes.push(workloads::pass(ctx, &o.workload, &fx)?);
    }
    ctx.rec.set_enabled(traced);
    out.passes = passes.len();
    out.digests = passes[0].1.digests;
    ctx.check(passes.iter().all(|p| p.1.digests == out.digests), || {
        "digests differ between passes of the same work".to_owned()
    });
    let wall_s: Vec<f64> = passes.iter().map(|p| p.0).collect();

    if traced {
        workloads::other_layers(ctx, &o.workload, &fx)?;
        probes::run(ctx, &fx.world)?;
        // Even passes stored their spans, odd ones did not.
        let with_spans: Vec<f64> = wall_s.iter().copied().step_by(2).collect();
        let without: Vec<f64> = wall_s.iter().copied().skip(1).step_by(2).collect();
        let (with, without) = (stats::median(&with_spans), stats::median(&without));
        ctx.sample(
            "bench.trace_overhead_pct",
            100.0 * (with - without) / without,
        );
        let (table, total) = spans::layer_self_seconds(ctx.rec.spans(), "pass");
        let sum: f64 = table.values().sum();
        let traced_wall: f64 = with_spans.iter().sum();
        ctx.check(
            (sum - total).abs() <= 0.01 * total && (total - traced_wall).abs() <= 0.01 * total,
            || format!("self times sum to {sum} s, pass spans to {total} s, traced wall_s to {traced_wall} s"),
        );
        let recorded = ctx.rec.spans();
        out.self_time_table = Some(spans::self_time_table(recorded, "pass"));
        let path = o.out_dir.join(format!("trace-{}.json", o.workload));
        std::fs::create_dir_all(&o.out_dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(recorded, &o.workload)))
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
        out.notes.push(format!(
            "{} spans written to {}",
            recorded.len(),
            path.display()
        ));
    }

    // Exact metrics are simulated statistics and work counts: every sample
    // of one run must be the same number.
    let layer_defs = names::per_layer();
    for def in layer_defs.iter().filter(|d| d.clock == Clock::Exact) {
        if let Some(samples) = ctx.samples().get(&def.name) {
            let first = samples[0];
            let same = samples.iter().all(|s| s.to_bits() == first.to_bits());
            ctx.check(same, || {
                format!("exact metric {} varied within a run", def.name)
            });
        }
    }

    if traced {
        for def in layer_defs {
            let value = ctx.samples().get(&def.name).map(|s| stats::median(s));
            ctx.check(value.is_some_and(f64::is_finite), || {
                format!("per-layer metric {} was not measured", def.name)
            });
            out.metrics.push((def, value.unwrap_or(f64::NAN)));
        }
    } else {
        let ops_per_s: Vec<f64> = passes.iter().map(|p| p.1.ops / p.1.op_s).collect();
        let rss = peak_rss_mib();
        ctx.check(rss.is_some(), || "VmHWM is not readable".to_owned());
        // The best repetition, not the median one: what disturbs a run on
        // a shared machine only ever slows it, so the fastest of a fixed
        // number of repetitions repeats from run to run where their median
        // does not (`README.md`, "Noise on this machine").
        let values = [
            stats::min(&setup_s),
            stats::min(&wall_s),
            stats::max(&ops_per_s),
            rss.unwrap_or(f64::NAN),
        ];
        out.metrics
            .extend(names::end_to_end().into_iter().zip(values));
        // One number per metric hides how much the machine moved meanwhile.
        for (what, secs) in [("set-up", &setup_s), ("pass", &wall_s)] {
            let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
            out.notes
                .push(format!("seconds of each {what}: {}", each.join(" ")));
        }
    }
    if o.workload == "search-trace" || traced {
        let per_pass = fx.world.queries.len();
        out.notes.push(format!(
            "search percentiles: {per_pass} samples per family per pass, highest supported percentile p{}",
            stats::supported_tail(per_pass).map_or("-".to_owned(), |p| p.to_string())
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn outcome(traced: bool) -> Outcome {
        let defs = if traced {
            names::per_layer()
        } else {
            names::end_to_end()
        };
        Outcome {
            options: Options {
                workload: "sim-clean".to_owned(),
                seed: 7,
                traced,
                smoke: false,
                out_dir: PathBuf::from("out"),
            },
            attempted: 116,
            failed: 0,
            failures: Vec::new(),
            metrics: defs.into_iter().map(|d| (d, 1.2034)).collect(),
            digests: Digests {
                sim: Some(0xBEEF),
                ..Digests::default()
            },
            passes: 4,
            notes: Vec::new(),
            self_time_table: None,
        }
    }

    fn keys(value: &Value) -> Vec<&str> {
        value
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// The driver's contract: exactly these keys, every metric of the
    /// run's mode as `{value, unit}`, on one line.
    #[test]
    fn contract_line_has_exactly_the_drivers_keys() {
        for (traced, defs) in [(false, names::end_to_end()), (true, names::per_layer())] {
            let line = outcome(traced).contract_line();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(116.0));
            let metrics = doc.get("metrics").unwrap();
            let names: Vec<String> = defs.iter().map(|d| d.name.clone()).collect();
            assert_eq!(keys(metrics), names);
            for def in &defs {
                let entry = metrics.get(&def.name).unwrap();
                assert_eq!(keys(entry), ["value", "unit"]);
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(entry.get("value").and_then(Value::as_f64), Some(1.2034));
            }
        }
        let mut failed = outcome(false);
        failed.failed = 2;
        let doc = json::parse(&failed.contract_line()).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn result_record_carries_what_compare_reads() {
        let record = outcome(false).to_value();
        assert_eq!(
            keys(&record),
            [
                "workload",
                "seed",
                "trace",
                "smoke",
                "passes",
                "correct",
                "attempted",
                "failed",
                "failures",
                "digests",
                "metrics",
                "env"
            ]
        );
        let digests = record.get("digests").unwrap();
        assert_eq!(
            digests.get("sim_digest").and_then(Value::as_str),
            Some("000000000000beef")
        );
        assert_eq!(digests.get("topk_digest"), Some(&Value::Null));
        assert_eq!(keys(record.get("env").unwrap()), ["nproc", "rustc", "rev"]);
        assert_eq!(
            record
                .get("metrics")
                .unwrap()
                .get("wall_s")
                .and_then(Value::as_f64),
            Some(1.2034)
        );
    }
}
