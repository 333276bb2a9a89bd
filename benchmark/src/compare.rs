//! Result files and their comparison.
//!
//! A result file is `{"schema": 1, "runs": [...]}`; every invocation with
//! `--out FILE` appends its runs, so five invocations make a five-run set.
//! `compare A.json B.json` judges B (the change) against A (the parent):
//! host-clock medians within the benchmark's bounds, everything exact for
//! equality.

use crate::json::{self, Value};
use crate::names::{self, Better, Clock};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const SCHEMA: f64 = 1.0;

/// Appends `runs` to the result file at `path`, creating it if absent.
///
/// # Errors
///
/// Fails when an existing file is not a result file, or on I/O errors.
pub fn append_runs(path: &Path, runs: Vec<Value>) -> Result<(), String> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(text) => load_runs(&text).map_err(|err| format!("{}: {err}", path.display()))?,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(format!("{}: {err}", path.display())),
    };
    all.extend(runs);
    let doc = Value::obj().with("schema", SCHEMA).with("runs", all);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json_pretty()).map_err(|err| format!("{}: {err}", path.display()))
}

fn load_runs(text: &str) -> Result<Vec<Value>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_f64) != Some(SCHEMA) {
        return Err("not a result file (schema 1 expected)".to_owned());
    }
    doc.get("runs")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| "result file has no `runs` array".to_owned())
}

fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
    load_runs(&text).map_err(|err| format!("{path}: {err}"))
}

/// The runs of one side, grouped by workload and seed: another seed is
/// other work, so its times are never pooled.
struct Side {
    /// (workload, seed) -> metric -> values of the untraced runs.
    host: BTreeMap<(String, u64), BTreeMap<String, Vec<f64>>>,
    /// (workload, seed, name) -> every value seen for an exact quantity
    /// (digest strings and exact-clock metrics, as text).
    exact: BTreeMap<(String, u64, String), BTreeSet<String>>,
    /// (workload, seed) -> (attempted, failed) summed over runs.
    ops: BTreeMap<(String, u64), (f64, f64)>,
}

fn group(runs: &[Value]) -> Side {
    let exact_names: BTreeSet<String> = names::per_layer()
        .into_iter()
        .filter(|d| d.clock == Clock::Exact)
        .map(|d| d.name)
        .collect();
    let mut side = Side {
        host: BTreeMap::new(),
        exact: BTreeMap::new(),
        ops: BTreeMap::new(),
    };
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let seed = run.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let traced = run.get("trace").and_then(Value::as_bool).unwrap_or(false);
        let number = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let key = (workload.to_owned(), seed);
        let ops = side.ops.entry(key.clone()).or_insert((0.0, 0.0));
        ops.0 += number("attempted");
        ops.1 += number("failed");
        for (name, value) in run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            let Some(value) = value.as_f64() else {
                continue;
            };
            if exact_names.contains(name) {
                side.exact
                    .entry((workload.to_owned(), seed, name.clone()))
                    .or_default()
                    .insert(value.to_string());
            } else if !traced {
                side.host
                    .entry(key.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
        // A traced pass digests only its own workload's stages, exactly as
        // an untraced one does, so digests compare across both modes.
        for (name, value) in run.get("digests").and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(text) = value.as_str() {
                side.exact
                    .entry((workload.to_owned(), seed, name.clone()))
                    .or_default()
                    .insert(text.to_owned());
            }
        }
    }
    side
}

/// The verdict on one (metric, workload) pair.
///
/// `a` and `b` are the parent's and the change's runs. A metric whose own
/// run-to-run spread in `a` exceeds the bound is `unresolved`, unless every
/// run of `b` reads better than every run of `a`; a single run of `a` has no
/// spread and resolves nothing.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = worse, as a share of the parent's median.
    let worsening = sign * (mb - ma) / ma.abs();
    let spread = stats::iqr_share(a);
    let all_better = match better {
        Better::Lower => stats::percentile(b, 100.0) < stats::percentile(a, 0.0),
        Better::Higher => stats::percentile(b, 0.0) > stats::percentile(a, 100.0),
    };
    if a.len() < 2 {
        return "unresolved";
    }
    if spread > bound {
        return if all_better { "better" } else { "unresolved" };
    }
    if worsening > bound {
        "worse"
    } else if all_better || -worsening > spread {
        "better"
    } else {
        "within-bound"
    }
}

/// Compares two result files; returns the report and whether B is
/// acceptable (no `worse` row, nothing A measured missing from B, nothing
/// exact differs).
///
/// # Errors
///
/// Fails when a file cannot be read or is not a result file.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (group(&read_runs(path_a)?), group(&read_runs(path_b)?));
    let mut ok = true;
    let mut out = format!(
        "{:<13} {:>5} {:<13} {:>12} {:>12} {:>9} {:>6} {:>8}  verdict\n",
        "workload", "seed", "metric", "A median", "B median", "B/A", "bound", "A spread"
    );
    for (key, ha) in &a.host {
        let (workload, seed) = key;
        for def in names::end_to_end() {
            let Some(va) = ha.get(&def.name) else {
                continue;
            };
            // What the parent measured, the change must measure too.
            let Some(vb) = b.host.get(key).and_then(|hb| hb.get(&def.name)) else {
                ok = false;
                out.push_str(&format!(
                    "{workload:<13} {seed:>5} {:<13} {:>12.5} {:>12}  missing from B\n",
                    def.name,
                    stats::median(va),
                    "-"
                ));
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let word = verdict(va, vb, def.better, bound);
            ok &= word != "worse";
            let (ma, mb) = (stats::median(va), stats::median(vb));
            out.push_str(&format!(
                "{workload:<13} {seed:>5} {:<13} {ma:>12.5} {mb:>12.5} {:>9.4} {bound:>6.2} {:>8.4}  {word} (n={}/{}, {} is better, base A)\n",
                def.name,
                mb / ma,
                stats::iqr_share(va),
                va.len(),
                vb.len(),
                def.better.word(),
            ));
        }
        let share = |side: &Side| {
            side.ops
                .get(key)
                .map_or(0.0, |(att, failed)| failed / att.max(1.0))
        };
        let (fa, fb) = (share(&a), share(&b));
        if fa > 0.0 || fb > 0.0 {
            let word = if fb > fa { "worse" } else { "within-bound" };
            ok &= fb <= fa;
            out.push_str(&format!(
                "{workload:<13} {seed:>5} {:<13} {fa:>12.5} {fb:>12.5}  {word} (share of operations that failed)\n",
                "failed_share"
            ));
        }
    }
    // Exact quantities: one value per (workload, seed, name) across both
    // files, or the two commits do not compute the same thing.
    let mut merged = a.exact;
    for (key, values) in b.exact {
        merged.entry(key).or_default().extend(values);
    }
    let differing: Vec<_> = merged.iter().filter(|(_, v)| v.len() > 1).collect();
    out.push_str(&format!(
        "exact: {} digests, simulated statistics and work counts compared, {} differ\n",
        merged.len(),
        differing.len()
    ));
    for ((workload, seed, name), values) in differing {
        ok = false;
        out.push_str(&format!(
            "  DIFFERS {workload} seed {seed} {name}: {values:?}\n"
        ));
    }
    Ok((out, ok))
}

/// Summarizes a result file, seed by seed: per workload and end-to-end
/// metric the run count, median, quartiles and spread; the digests; and
/// the environment of the first run.
///
/// # Errors
///
/// Fails when the file cannot be read or is not a result file.
pub fn summarize(path: &str) -> Result<Value, String> {
    let runs = read_runs(path)?;
    let seed_of = |run: &Value| run.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let seeds: BTreeSet<u64> = runs.iter().map(seed_of).collect();
    let mut by_seed = Value::obj();
    for seed in seeds {
        let of_seed: Vec<Value> = runs
            .iter()
            .filter(|r| seed_of(r) == seed)
            .cloned()
            .collect();
        let side = group(&of_seed);
        let mut workloads = Value::obj();
        for (workload, _) in names::WORKLOADS {
            let mut entry = Value::obj();
            for def in names::end_to_end() {
                let key = ((*workload).to_owned(), seed);
                let Some(values) = side.host.get(&key).and_then(|h| h.get(&def.name)) else {
                    continue;
                };
                let [q1, median, q3] = stats::quartiles(values);
                entry = entry.with(
                    &def.name,
                    Value::obj()
                        .with("unit", def.unit)
                        .with("runs", values.len())
                        .with("median", median)
                        .with("q1", q1)
                        .with("q3", q3)
                        .with("spread", (q3 - q1) / median.abs()),
                );
            }
            for ((w, _, name), values) in &side.exact {
                if w == workload && name.ends_with("_digest") {
                    // More than one value means the digest did not repeat.
                    let text = values.iter().cloned().collect::<Vec<_>>().join("|");
                    entry = entry.with(name, text);
                }
            }
            workloads = workloads.with(workload, entry);
        }
        by_seed = by_seed.with(&seed.to_string(), workloads);
    }
    let env = runs
        .first()
        .and_then(|r| r.get("env"))
        .cloned()
        .unwrap_or(Value::Null);
    Ok(Value::obj()
        .with("source", path)
        .with("env", env)
        .with("seeds", by_seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_parents_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&steady, &[10.2, 10.3, 10.1], Better::Lower, 0.1),
            "within-bound"
        );
        assert_eq!(
            verdict(&steady, &[11.5, 11.6, 11.4], Better::Lower, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9], Better::Lower, 0.1),
            "better"
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(&steady, &[11.5, 11.6, 11.4], Better::Higher, 0.1),
            "better"
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9], Better::Higher, 0.1),
            "worse"
        );
        // A parent noisier than the bound resolves nothing...
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&noisy, &[10.0, 10.5, 9.5], Better::Lower, 0.1),
            "unresolved"
        );
        assert_eq!(
            verdict(&noisy, &[13.0, 13.5, 12.5], Better::Lower, 0.1),
            "unresolved"
        );
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(
            verdict(&noisy, &[7.0, 7.5, 6.5], Better::Lower, 0.1),
            "better"
        );
        // One run of the parent has no spread to judge by.
        for b in [8.0, 12.0] {
            assert_eq!(verdict(&[10.0], &[b], Better::Lower, 0.1), "unresolved");
        }
    }

    fn run(workload: &str, wall: f64, digest: &str, failed: u64) -> Value {
        Value::obj()
            .with("workload", workload)
            .with("seed", 1u64)
            .with("trace", false)
            .with("attempted", 100u64)
            .with("failed", failed)
            .with("digests", Value::obj().with("sim_digest", digest))
            .with(
                "metrics",
                Value::obj().with("wall_s", wall).with("setup_s", 1.0),
            )
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        dir.join(format!("test-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn result_files_append_compare_and_summarize() {
        let (pa, pb) = (scratch("a"), scratch("b"));
        for p in [&pa, &pb] {
            let _ = std::fs::remove_file(p);
        }
        for wall in [2.0, 2.02, 1.98] {
            append_runs(&pa, vec![run("sim-clean", wall, "00ff", 0)]).unwrap();
        }
        append_runs(
            &pb,
            vec![
                run("sim-clean", 2.01, "00ff", 0),
                run("sim-clean", 2.0, "00ff", 0),
            ],
        )
        .unwrap();
        let (a, b) = (pa.to_str().unwrap(), pb.to_str().unwrap());
        let (report, ok) = compare(a, b).unwrap();
        assert!(ok, "{report}");
        assert!(
            report.contains("wall_s") && report.contains("within-bound"),
            "{report}"
        );
        assert!(report.contains("0 differ"), "{report}");

        let summary = summarize(a).unwrap();
        let seed_1 = summary.get("seeds").unwrap().get("1").unwrap();
        let entry = seed_1.get("sim-clean").unwrap();
        assert_eq!(
            entry.get("sim_digest").and_then(Value::as_str),
            Some("00ff")
        );
        let wall = entry.get("wall_s").unwrap();
        assert_eq!(wall.get("runs").and_then(Value::as_f64), Some(3.0));
        assert_eq!(wall.get("median").and_then(Value::as_f64), Some(2.0));

        // A slower change with another digest and a failed op is refused.
        std::fs::remove_file(&pb).unwrap();
        append_runs(&pb, vec![run("sim-clean", 2.5, "beef", 1)]).unwrap();
        let (report, ok) = compare(a, b).unwrap();
        assert!(!ok);
        assert!(
            report.contains("worse") && report.contains("DIFFERS"),
            "{report}"
        );
        assert!(report.contains("failed_share"), "{report}");

        // A change that did not run what the parent ran is refused too.
        std::fs::remove_file(&pb).unwrap();
        append_runs(&pb, vec![run("sim-hybrid", 2.0, "00ff", 0)]).unwrap();
        let (report, ok) = compare(a, b).unwrap();
        assert!(!ok && report.contains("missing from B"), "{report}");

        std::fs::write(&pb, "{\"schema\": 2}").unwrap();
        assert!(compare(a, b).is_err());
        assert!(
            append_runs(&pb, vec![]).is_err(),
            "refuses to overwrite a foreign file"
        );
        for p in [&pa, &pb] {
            let _ = std::fs::remove_file(p);
        }
    }
}
