//! The `vdbbench` command line as a library entry point: [`run`] takes the
//! arguments and returns everything the binary prints on stdout, so tests
//! (and the `all` golden) drive exactly what a user runs.
//!
//! `SUBCOMMANDS` is the only list of subcommands: dispatch, `all` and
//! `vdbbench help` are all read off it. Each subcommand preps what its own
//! points name, so a row says nothing about prep. The grammar is global
//! flags anywhere ([`BenchContext::from_args`]), then one subcommand, then
//! the flags that subcommand's row accepts ([`SubFlags`]); anything else is
//! an error.

use crate::context::{bad_value, flag_value, positive_usize, BenchContext, GLOBAL_FLAGS};
use crate::{
    explore, ext_filter, ext_rw, ext_spann, fig2_4, fig5_6, fig7_15, iostat, table1, table2,
    tracecmd,
};
use sann_core::{Error, Result};
use sann_engine::{DeviceCostModel, MAX_CLIENTS};
use sann_vdb::SetupKind;

/// The flags a subcommand may take after its name, parsed once by the
/// dispatcher. Every one has a default, so a subcommand that accepts none
/// simply sees the defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubFlags {
    /// `--setup NAME`: the setup to run. Defaults to the storage-resident
    /// headline index — the only one whose search consults the on-disk
    /// graph, hence the only one the I/O design space perturbs.
    pub setup: SetupKind,
    /// `--clients N`: closed-loop clients (default 8).
    pub clients: usize,
    /// `--device 990-pro|sata`: the device cost model `iostat` prices on.
    pub device: DeviceCostModel,
}

impl SubFlags {
    /// The defaults at `clients` closed-loop clients.
    pub fn with_clients(clients: usize) -> SubFlags {
        SubFlags {
            clients,
            ..SubFlags::default()
        }
    }
}

impl Default for SubFlags {
    fn default() -> SubFlags {
        SubFlags {
            setup: SetupKind::MilvusDiskann,
            clients: 8,
            device: DeviceCostModel::samsung_990_pro(),
        }
    }
}

/// One row of the subcommand table.
struct Subcommand {
    /// Space-separated names; figures that print together share a row.
    names: &'static str,
    help: &'static str,
    /// The [`SubFlags`] it accepts, each spelled as help shows it.
    flags: &'static [&'static str],
    run: fn(&mut BenchContext, &SubFlags) -> Result<String>,
}

const fn sub(
    names: &'static str,
    flags: &'static [&'static str],
    run: fn(&mut BenchContext, &SubFlags) -> Result<String>,
) -> Subcommand {
    Subcommand {
        names,
        help: "",
        flags,
        run,
    }
}

impl Subcommand {
    /// Sets the help line — a trailing call, so that rustfmt leaves a table
    /// row on one or two lines.
    const fn help(mut self, help: &'static str) -> Subcommand {
        self.help = help;
        self
    }
}

const RUN_FLAGS: &[&str] = &["--setup NAME", "--clients N"];
const IOSTAT_FLAGS: &[&str] = &["--setup NAME", "--clients N", "--device 990-pro|sata"];

/// The subcommand that runs every row above its own.
const ALL: &str = "all";

/// Every subcommand, in help order.
static SUBCOMMANDS: &[Subcommand] = &[
    sub("table1", &[], table1::run).help("device envelope (fio-equivalent calibration)"),
    sub("table2", &[], table2::run).help("index parameters and achieved recall@10"),
    sub("fig2", &[], fig2_4::fig2).help("throughput vs concurrency, all setups"),
    sub("fig3", &[], fig2_4::fig3).help("P99 latency vs concurrency, all setups"),
    sub("fig4", &[], fig2_4::fig4).help("CPU usage vs concurrency (large datasets)"),
    sub("fig5", &[], fig5_6::fig5).help("DiskANN bandwidth timelines"),
    sub("fig6", &[], fig5_6::fig6).help("DiskANN per-query bandwidth + request sizes"),
    sub("fig7 fig8 fig9 fig10 fig11", &[], fig7_15::search_list)
        .help("search_list sweeps (printed together)"),
    sub("fig12 fig13 fig14 fig15", &[], fig7_15::beam_width)
        .help("beam_width sweeps (printed together)"),
    sub("ext-rw", &[], ext_rw::run).help("extension: hybrid read-write workloads (SVIII)"),
    sub("ext-filter", &[], ext_filter::run).help("extension: payload-filtered search (SVIII)"),
    sub("ext-spann", &[], ext_spann::run)
        .help("extension: DiskANN vs SPANN storage indexes (SII-B)"),
    sub(ALL, &[], run_all).help("everything above, in order"),
    sub("trace", RUN_FLAGS, tracecmd::run)
        .help("one traced run: Perfetto trace.json/JSONL + latency breakdown"),
    sub("iostat", IOSTAT_FLAGS, iostat::run)
        .help("I/O characterization: provenance breakdown, telemetry, $/query"),
    sub("explore", RUN_FLAGS, explore::run)
        .help("I/O design-space sweep: layout x prefetch x pipelining"),
];

fn run_all(ctx: &mut BenchContext, flags: &SubFlags) -> Result<String> {
    let above = SUBCOMMANDS.iter().take_while(|s| s.names != ALL);
    let reports: Result<Vec<String>> = above.map(|s| (s.run)(ctx, flags)).collect();
    Ok(reports?.join("\n"))
}

/// A parsed invocation; `None` asks for help.
type Invocation = Option<(BenchContext, &'static Subcommand, SubFlags)>;

/// Parses a whole argument list.
fn parse(args: &[String]) -> Result<Invocation> {
    let (ctx, rest) = BenchContext::from_args(args)?;
    let Some((name, words)) = rest.split_first() else {
        return Ok(None);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(None);
    }
    let row = SUBCOMMANDS
        .iter()
        .find(|s| s.names.split(' ').any(|n| n == name));
    let row = row.ok_or_else(|| {
        let msg = format!("unknown subcommand `{name}` (see `vdbbench help`)");
        Error::invalid_parameter("subcommand", msg)
    })?;
    let mut flags = SubFlags::default();
    let mut it = words.iter();
    while let Some(word) = it.next() {
        let accepted = |f: &&str| f.split(' ').next() == Some(word.as_str());
        if !row.flags.iter().any(accepted) {
            return Err(Error::invalid_parameter(
                "args",
                format!("unknown {name} flag `{word}`"),
            ));
        }
        let value = flag_value(word, it.next())?;
        match word.as_str() {
            "--setup" => {
                flags.setup = SetupKind::parse(value)
                    .ok_or_else(|| bad_value(word, value, "a setup name, e.g. milvus-diskann"))?;
            }
            "--clients" => {
                flags.clients = positive_usize(word, value)?;
                if flags.clients > MAX_CLIENTS {
                    return Err(bad_value(word, value, &format!("at most {MAX_CLIENTS}")));
                }
            }
            // The row accepted the word, so what is left is `--device`.
            _ => {
                flags.device = DeviceCostModel::parse(value)
                    .ok_or_else(|| bad_value(word, value, "990-pro|sata"))?;
            }
        }
    }
    Ok(Some((ctx, row, flags)))
}

fn help() -> String {
    let mut out = format!("usage: vdbbench {GLOBAL_FLAGS} <subcommand> [its flags]\n\n");
    for s in SUBCOMMANDS {
        let flags: String = s.flags.iter().map(|f| format!(" [{f}]")).collect();
        out.push_str(&format!(
            "  {}{flags}\n      {}\n",
            s.names.replace(' ', "|"),
            s.help
        ));
    }
    out.push_str(
        "\nprep artifacts (datasets, index builds, tuned knobs) persist under --cache-dir \
         (default .sann-cache); warm runs skip prep entirely\n\
         --fault-profile injects deterministic SSD faults (read errors, latency spikes, GC \
         pauses, throttling); each database reacts with its own retry/hedge/deadline policy \
         and reports degraded-recall accounting\n",
    );
    out
}

/// Runs `vdbbench <args>` and returns its stdout. Progress, the `[cache]`
/// summary and the `[done]` timer go to stderr as they happen.
///
/// # Errors
///
/// Returns [`sann_core::Error::InvalidParameter`] on malformed arguments and
/// propagates build/search/filesystem errors.
pub fn run(args: &[String]) -> Result<String> {
    let Some((mut ctx, row, flags)) = parse(args)? else {
        return Ok(help());
    };
    // sann-lint: allow(wall-clock) -- harness-side progress timer; never feeds simulated metrics
    let started = std::time::Instant::now();
    let out = (row.run)(&mut ctx, &flags)? + "\n";
    if let Some(stats) = ctx.cache_stats() {
        eprintln!(
            "[cache] {} hits, {} misses ({} corrupt entries rebuilt)",
            stats.hits, stats.misses, stats.corrupt
        );
    }
    let name = row.names.split(' ').next().unwrap_or_default();
    eprintln!("[done] {name} in {:.1}s", started.elapsed().as_secs_f64());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a command line parses to, as one line a table row can quote.
    fn parsed(argv: &[&str]) -> std::result::Result<String, String> {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let Some((ctx, row, flags)) = parse(&args).map_err(|e| e.to_string())? else {
            return Ok("help".into());
        };
        let path = |p: Option<&std::path::Path>| p.map_or("-".into(), |p| p.display().to_string());
        Ok(format!(
            "{} scale={} cores={} secs={} dataset={} results={} cache={} threads={} trace={}@{} \
             fault={} setup={} clients={} device={}",
            row.names,
            ctx.scale,
            ctx.cores,
            ctx.duration_us / 1e6,
            ctx.only_dataset.as_deref().unwrap_or("*"),
            ctx.results_dir.display(),
            path(ctx.disk.as_ref().map(|c| c.dir())),
            ctx.threads,
            path(ctx.trace_out.as_deref()),
            ctx.trace_level,
            ctx.fault_profile.name,
            flags.setup,
            flags.clients,
            flags.device.name,
        ))
    }

    /// The whole grammar, one command line per row: `argv => fragments of
    /// what it parses to` (separated by ` ... `), or `argv => error: fragment
    /// of the one line it exits 1 with`.
    const GRAMMAR: &str = "\
        table1 => table1 scale=0.002 cores=20 secs=5 dataset=* results=results cache=.sann-cache ... trace=-@off fault=none setup=milvus-diskann clients=8 device=990-pro
        => help
        help => help
        -h --scale 0.5 => help
        --scale 0.01 --cores 8 fig2 --dataset cohere-s => fig2 scale=0.01 cores=8 ... dataset=cohere-s
        --duration-secs 0.2 --results out fig6 => secs=0.2 ... results=out
        --cache-dir /tmp/alt --threads 3 table2 => cache=/tmp/alt threads=3
        --cache-dir /tmp/alt --no-cache table2 => cache=- threads
        --trace-out run.json --trace-level query trace => trace=run.json@query
        --fault-profile gc-heavy table2 => fault=gc-heavy
        fig9 => fig7 fig8 fig9 fig10 fig11 scale
        fig15 => fig12 fig13 fig14 fig15 scale
        trace --setup qdrant-hnsw --clients 4 => trace scale ... setup=qdrant-hnsw clients=4 device=990-pro
        iostat --setup milvus-ivf --clients 4 --device sata => setup=milvus-ivf clients=4 device=sata
        explore --clients 2 --scale 0.001 => explore scale=0.001 ... clients=2
        trace --device sata => error: unknown trace flag `--device`
        trace --setup pinecone => error: bad value for --setup: `pinecone`
        iostat --device floppy => error: bad value for --device: `floppy` (990-pro|sata)
        explore --clients many => error: bad value for --clients: `many`
        explore --clients => error: --clients needs a value
        trace --clients 65537 => error: bad value for --clients: `65537` (at most 65536)
        explore --bogus => error: unknown explore flag `--bogus`
        --scale banana table1 => error: bad value for --scale: `banana`
        table1 --scale => error: --scale needs a value
        --trace-level verbose trace => error: bad value for --trace-level: `verbose` (off|query|io)
        --trace-level run trace => error: bad value for --trace-level: `run` (off|query|io)
        --fault-profile catastrophic fig5 => error: `catastrophic` (none|aging|gc-heavy|flaky)
        --threads 0 table2 => error: bad value for --threads: `0`
        --prep-threads 3 table2 => error: unknown subcommand `--prep-threads`
        frobnicate => error: unknown subcommand `frobnicate`
        table1 --bogus => error: unknown table1 flag `--bogus`
        --cores 0 fig6 => error: bad value for --cores: `0` (a positive integer)
        trace --clients 0 => error: bad value for --clients: `0` (a positive integer)
        --cores -3 table1 => error: bad value for --cores: `-3`
        --scale nan table1 => error: bad value for --scale: `nan` (a positive number)
        --duration-secs -1 table1 => error: bad value for --duration-secs: `-1`
        --dataset nope fig6 => error: no dataset matches `nope` (cohere-s|cohere-l|openai-s|openai-l)";

    /// The last seven rows are the invocations that used to exit 0 or panic.
    #[test]
    fn command_lines_parse_or_fail_with_one_line() {
        for row in GRAMMAR.lines() {
            let (argv, expected) = row.split_once("=>").unwrap();
            let argv: Vec<&str> = argv.split_whitespace().collect();
            match (parsed(&argv), expected.trim().strip_prefix("error: ")) {
                (Ok(line), None) => {
                    for fragment in expected.split(" ... ") {
                        assert!(line.contains(fragment.trim()), "`{row}` parsed to `{line}`");
                    }
                }
                (Err(msg), Some(fragment)) => {
                    assert!(msg.contains(fragment), "`{row}` failed with `{msg}`");
                    assert!(!msg.contains('\n'), "`{row}`: not one line: {msg}");
                }
                (got, _) => panic!("`{row}`: got {got:?}"),
            }
        }
    }

    #[test]
    fn help_is_read_off_the_table() {
        let text = run(&[]).unwrap();
        for name in [
            "table1",
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "ext-rw",
            "ext-filter",
            "ext-spann",
            "all",
            "trace",
            "iostat",
            "explore",
        ] {
            let listed = text
                .lines()
                .any(|l| l.trim().split(['|', ' ']).any(|w| w == name));
            assert!(listed, "help must list `{name}`:\n{text}");
        }
        for flag in GLOBAL_FLAGS
            .split(['[', ']'])
            .filter(|f| f.starts_with("--"))
        {
            assert!(text.contains(flag), "help must show `{flag}`");
        }
        assert!(text.contains("iostat [--setup NAME] [--clients N] [--device 990-pro|sata]"));
        assert!(text.contains("trace [--setup NAME] [--clients N]\n"));
    }
}
