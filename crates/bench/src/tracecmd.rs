//! `vdbbench trace` — one fully-traced run of a tuned setup, exported for
//! timeline inspection.
//!
//! Runs the setup's tuned plans once with span tracing enabled, writes the
//! Chrome/Perfetto `trace.json` (and a JSONL sibling) to `--trace-out`,
//! and prints the per-phase latency breakdown table. The run is the same
//! deterministic simulation the figures use, so the exported bytes are
//! identical across identical-seed invocations — `tests/determinism.rs`
//! checks exactly that.

use crate::cli::SubFlags;
use crate::context::BenchContext;
use crate::report::{self, num};
use sann_core::{cast, Result};
use sann_obs::export::{chrome_trace, jsonl};
use sann_obs::TraceLevel;

/// Runs the subcommand on `flags.setup` at `flags.clients` clients.
///
/// # Errors
///
/// Rejects a client count the setup's profile does not support and
/// propagates build/search/filesystem errors.
pub fn run(ctx: &mut BenchContext, flags: &SubFlags) -> Result<String> {
    let (kind, clients) = (flags.setup, flags.clients);
    // `trace` is pointless at `off`; default to the full ladder unless the
    // user pinned a level explicitly.
    let level = if ctx.trace_level == TraceLevel::Off {
        TraceLevel::Io
    } else {
        ctx.trace_level
    };
    let spec = ctx.first_spec()?;
    let plans = ctx.plans(&spec, kind)?;
    let traced = ctx.run_traced(&ctx.point(kind, &plans, clients), level)?;
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
        num(cast::f64_from_u64(traced.trace.end_ns) / 1_000.0),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_exports_and_reports_breakdown() {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.2e6;
        let dir = std::env::temp_dir().join("sann-tracecmd-test");
        ctx.trace_out = Some(dir.join("run.json"));
        let text = run(&mut ctx, &SubFlags::with_clients(4)).unwrap();
        assert!(text.contains("Latency breakdown"));
        assert!(text.contains("flash_service"));
        let json = std::fs::read_to_string(dir.join("run.json")).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        let lines = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
        assert!(lines.lines().next().unwrap().contains("\"type\":\"meta\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
