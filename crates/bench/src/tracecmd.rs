//! `vdbbench trace` — one fully-traced run of a tuned setup, exported for
//! timeline inspection.
//!
//! Runs the setup's tuned plans once with span tracing enabled, writes the
//! Chrome/Perfetto `trace.json` (and a JSONL sibling) to `--trace-out`,
//! and prints the per-phase latency breakdown table. The run is the same
//! deterministic simulation the figures use, so the exported bytes are
//! identical across identical-seed invocations — `sann-xtask
//! determinism` audits exactly that.

use crate::context::BenchContext;
use crate::report::{self, num};
use sann_core::Result;
use sann_obs::export::{chrome_trace, jsonl};
use sann_obs::TraceLevel;
use sann_vdb::SetupKind;

/// Default setup to trace: the paper's storage-resident headline index.
const DEFAULT_SETUP: SetupKind = SetupKind::MilvusDiskann;

/// Default closed-loop clients for the traced run.
const DEFAULT_CLIENTS: usize = 8;

/// Runs the subcommand. `rest` holds flags `from_args` did not consume:
/// `--setup NAME` and `--clients N`.
///
/// # Errors
///
/// Returns [`sann_core::Error::InvalidParameter`] on malformed flags and
/// propagates build/search/filesystem errors.
pub fn run(ctx: &mut BenchContext, rest: &[String]) -> Result<String> {
    let (kind, clients) = parse_flags(rest)?;
    // `trace` is pointless at `off`; default to the full ladder unless the
    // user pinned a level explicitly.
    let level = if ctx.trace_level == TraceLevel::Off {
        TraceLevel::Io
    } else {
        ctx.trace_level
    };
    let spec = ctx
        .dataset_specs()
        .into_iter()
        .next()
        .ok_or_else(|| sann_core::Error::invalid_parameter("args", "no dataset matches"))?;
    let plans = ctx.plans(&spec, kind)?;
    let traced = ctx
        .run_traced(kind, &plans, clients, level)
        .ok_or_else(|| {
            sann_core::Error::invalid_parameter(
                "args",
                format!("{} does not support {clients} clients", kind.name()),
            )
        })?;
    traced
        .trace
        .validate()
        .map_err(|e| sann_core::Error::invalid_parameter("trace", e))?;

    let mut out = format!(
        "Trace: {} on {} at {clients} clients, level {level}\n",
        kind.name(),
        spec.name
    );
    out.push_str(&format!(
        "{} queries, {} spans, {} io events, horizon {} us\n",
        traced.metrics.completed,
        traced.trace.spans.len(),
        traced.trace.io.len(),
        num(traced.trace.end_ns as f64 / 1_000.0),
    ));
    if let Some(path) = ctx.trace_out.clone() {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, chrome_trace(&traced.trace))?;
        let jsonl_path = path.with_extension("jsonl");
        std::fs::write(&jsonl_path, jsonl(&traced.trace))?;
        out.push_str(&format!(
            "wrote {} (load in https://ui.perfetto.dev) and {}\n",
            path.display(),
            jsonl_path.display()
        ));
    } else {
        out.push_str("(pass --trace-out PATH to export the timeline)\n");
    }
    out.push_str("\nLatency breakdown (simulated time per query):\n");
    out.push_str(&report::latency_breakdown(&traced.metrics.phase_breakdown).to_text());
    Ok(out)
}

fn parse_flags(rest: &[String]) -> Result<(SetupKind, usize)> {
    let mut kind = DEFAULT_SETUP;
    let mut clients = DEFAULT_CLIENTS;
    let mut it = rest.iter().skip_while(|a| a.as_str() != "trace").skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--setup" => {
                let name = it.next().ok_or_else(|| {
                    sann_core::Error::invalid_parameter("args", "--setup needs a value")
                })?;
                kind = SetupKind::parse(name).ok_or_else(|| {
                    sann_core::Error::invalid_parameter("args", format!("unknown setup `{name}`"))
                })?;
            }
            "--clients" => {
                let value = it.next().ok_or_else(|| {
                    sann_core::Error::invalid_parameter("args", "--clients needs a value")
                })?;
                clients = value.parse().map_err(|_| {
                    sann_core::Error::invalid_parameter(
                        "args",
                        format!("bad value for --clients: `{value}`"),
                    )
                })?;
            }
            other => {
                return Err(sann_core::Error::invalid_parameter(
                    "args",
                    format!("unknown trace flag `{other}`"),
                ));
            }
        }
    }
    Ok((kind, clients))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let (kind, clients) = parse_flags(&strings(&["trace"])).unwrap();
        assert_eq!(kind, DEFAULT_SETUP);
        assert_eq!(clients, DEFAULT_CLIENTS);
        let (kind, clients) = parse_flags(&strings(&[
            "trace",
            "--setup",
            "qdrant-hnsw",
            "--clients",
            "4",
        ]))
        .unwrap();
        assert_eq!(kind, SetupKind::QdrantHnsw);
        assert_eq!(clients, 4);
        assert!(parse_flags(&strings(&["trace", "--setup", "pinecone"])).is_err());
        assert!(parse_flags(&strings(&["trace", "--bogus"])).is_err());
    }

    #[test]
    fn traced_run_exports_and_reports_breakdown() {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.2e6;
        let dir = std::env::temp_dir().join("sann-tracecmd-test");
        ctx.trace_out = Some(dir.join("run.json"));
        let text = run(&mut ctx, &strings(&["trace", "--clients", "4"])).unwrap();
        assert!(text.contains("Latency breakdown"));
        assert!(text.contains("flash_service"));
        let json = std::fs::read_to_string(dir.join("run.json")).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        let lines = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
        assert!(lines.lines().next().unwrap().contains("\"type\":\"meta\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
