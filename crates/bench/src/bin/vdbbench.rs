//! `vdbbench` — reproduces every table and figure of the paper.
//!
//! ```text
//! vdbbench [--scale X] [--cores N] [--duration-secs S] [--dataset NAME] [--results DIR] <subcommand>
//!
//! subcommands:
//!   table1        device envelope (fio-equivalent calibration)
//!   table2        index parameters and achieved recall@10
//!   fig2          throughput vs concurrency, all setups
//!   fig3          P99 latency vs concurrency, all setups
//!   fig4          CPU usage vs concurrency (large datasets)
//!   fig5          DiskANN bandwidth timelines
//!   fig6          DiskANN per-query bandwidth + request sizes
//!   fig7..fig11   search_list sweeps (run together as `fig7`)
//!   fig12..fig15  beam_width sweeps (run together as `fig12`)
//!   ext-rw        extension: hybrid read-write workloads (SVIII)
//!   ext-filter    extension: payload-filtered search (SVIII)
//!   ext-spann     extension: DiskANN vs SPANN storage indexes (SII-B)
//!   trace         one traced run: Perfetto trace.json/JSONL + latency breakdown
//!   iostat        I/O characterization: provenance breakdown, telemetry, $/query
//!   explore       I/O design-space sweep: layout x prefetch x pipelining
//!   all           everything above in order
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sann_bench::cli::run(&args) {
        Ok(out) => print!("{out}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
