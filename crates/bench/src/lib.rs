//! The IISWC'25 characterization harness.
//!
//! One module per experiment family; [`cli`] holds the one table of
//! subcommands that dispatches to them and is the `vdbbench` binary behind a
//! library entry point. Every table and figure of the paper has a
//! reproduction entry point (see DESIGN.md §3 for the full index):
//!
//! | Paper artifact | Module | Subcommand |
//! |---|---|---|
//! | Table I (device envelope) | [`table1`] | `table1` |
//! | Table II (parameters & recall) | [`table2`] | `table2` |
//! | Fig. 2/3/4 (throughput/latency/CPU scalability) | [`fig2_4`] | `fig2`, `fig3`, `fig4` |
//! | Fig. 5/6 (I/O bandwidth & per-query I/O) | [`fig5_6`] | `fig5`, `fig6` |
//! | Fig. 7–15 (`search_list` and `beam_width` sweeps) | [`fig7_15`] | `fig7` … `fig15` |
//! | §VIII ext.: hybrid read-write workloads | [`ext_rw`] | `ext-rw` |
//! | §VIII ext.: filtered search | [`ext_filter`] | `ext-filter` |
//! | §II-B ext.: DiskANN vs SPANN | [`ext_spann`] | `ext-spann` |
//! | — (timeline inspection, DESIGN.md §8) | [`tracecmd`] | `trace` |
//! | — (I/O characterization & $/query, DESIGN.md §12) | [`iostat`] | `iostat` |
//! | — (I/O design-space sweep, DESIGN.md §13) | [`explore`] | `explore` |
//!
//! Results print as aligned text tables and are also written as CSV under
//! `results/`. [`context`] holds what the modules share: prepared datasets,
//! built and tuned indexes, compiled plans and cached runs.

pub mod cache;
pub mod cli;
pub mod context;
pub mod explore;
pub mod ext_filter;
pub mod ext_rw;
pub mod ext_spann;
pub mod fig2_4;
pub mod fig5_6;
pub mod fig7_15;
pub mod iostat;
pub mod microbench;
pub mod report;
pub mod table1;
pub mod table2;
pub mod tracecmd;

pub use context::BenchContext;
pub use report::Table;
