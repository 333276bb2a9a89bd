//! The repo benchmark: four host-clock workloads over the `sann` crates,
//! per-layer metrics, and a traced run. See `README.md` beside this
//! package for the vocabulary and how to read the numbers.

mod compare;
mod json;
mod names;
mod pipeline;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// `run_seconds` of `BENCHMARK.json`: about how long the timed region of a
/// run lasts. The pass counts in `workloads::repetitions` are sized to it.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "\
usage: sann-benchmark [--workload NAME]... [--seed N] [--trace 0|1] [--smoke] [--out FILE]
       sann-benchmark compare A.json B.json
       sann-benchmark summarize A.json
       sann-benchmark manifest

Runs the named workloads (default: all four) in this one process and prints
every metric by name with its unit, then one JSON line per workload.
--trace 0 reports the end-to-end metrics; --trace 1 records host-clock spans,
writes out/trace-<workload>.json and reports the per-layer metrics.
--out FILE appends the runs to a result file for `compare` and `summarize`.
The work of a run is fixed, so `--seconds S`, which the benchmark driver puts on
every command line, is accepted and changes nothing.";

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !names::WORKLOADS.iter().any(|(w, _)| w == name) {
                    let known: Vec<&str> = names::WORKLOADS.iter().map(|(w, _)| *w).collect();
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        known.join(", ")
                    ));
                }
                cli.workloads.push(name.clone());
            }
            "--seed" => {
                let text = value()?;
                cli.seed = text.parse().map_err(|_| format!("bad --seed `{text}`"))?;
            }
            // The driver's command line carries `run_seconds`; the pass
            // counts are constants, so there is nothing for it to set.
            "--seconds" => {
                value()?;
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                };
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = names::WORKLOADS
            .iter()
            .map(|(w, _)| (*w).to_owned())
            .collect();
    }
    Ok(cli)
}

/// `BENCHMARK.json`, generated from the vocabulary in `names`.
fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads: Vec<Value> = names::WORKLOADS
        .iter()
        .map(|(name, why)| Value::obj().with("name", *name).with("why", *why))
        .collect();
    let entry = |d: &names::MetricDef| {
        assert!(
            names::valid_name(&d.name) && names::valid_unit(d.unit),
            "{} [{}] is outside the manifest's character set",
            d.name,
            d.unit
        );
        Value::obj()
            .with("name", d.name.as_str())
            .with("unit", d.unit)
            .with("better", d.better.word())
    };
    let end_to_end: Vec<Value> = names::end_to_end()
        .iter()
        .map(|d| entry(d).with("bound", d.bound.expect("end-to-end metrics carry a bound")))
        .collect();
    let per_layer: Vec<Value> = names::per_layer().iter().map(entry).collect();
    Value::obj()
        .with("command", command.map(Value::from).to_vec())
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

fn run_workloads(cli: &Cli) -> Result<bool, String> {
    // `cargo run` exports the package directory; fall back to the path from
    // the repo root, where the documented command is run.
    let out_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out");
    let mut outcomes = Vec::new();
    for workload in &cli.workloads {
        let outcome = run::run(&run::Options {
            workload: workload.clone(),
            seed: cli.seed,
            traced: cli.traced,
            smoke: cli.smoke,
            out_dir: out_dir.clone(),
        });
        print!("{}", outcome.report());
        outcomes.push(outcome);
    }
    if let Some(path) = &cli.out {
        compare::append_runs(path, outcomes.iter().map(run::Outcome::to_value).collect())?;
    }
    // The machine-readable lines come last, one per workload, so the last
    // line of a single-workload run is that workload's result.
    for outcome in &outcomes {
        println!("{}", outcome.contract_line());
    }
    Ok(outcomes.iter().all(run::Outcome::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", manifest().to_json_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|(report, ok)| {
                print!("{report}");
                ok
            }),
            _ => Err("compare takes exactly two result files".to_owned()),
        },
        Some("summarize") => match &args[1..] {
            [a] => compare::summarize(a).map(|summary| {
                print!("{}", summary.to_json_pretty());
                true
            }),
            _ => Err("summarize takes exactly one result file".to_owned()),
        },
        _ => parse_cli(&args).and_then(|cli| run_workloads(&cli)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("sann-benchmark: {err}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` is what the driver reads; it must be exactly the
    /// document `manifest` prints from the vocabulary the program reports.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).unwrap();
        assert_eq!(crate::json::parse(&file).unwrap(), super::manifest());
    }
}
