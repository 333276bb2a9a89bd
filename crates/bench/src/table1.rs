//! Table I: the benchmarking environment, including the SSD envelope the
//! paper establishes with fio before any database experiments (§III-A).

use crate::cli::SubFlags;
use crate::context::BenchContext;
use crate::report::Table;
use sann_core::Result;
use sann_ssdsim::{Calibrator, SsdModel};

/// Prints the simulated environment and the fio-equivalent device envelope;
/// returns the rendered table.
///
/// # Errors
///
/// Propagates CSV write errors.
pub fn run(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let model = SsdModel::samsung_990_pro();
    let report = Calibrator::new(model).run();

    let mut out = String::new();
    out.push_str("Table I: benchmarking environment (simulated)\n");
    out.push_str(&format!(
        "  CPU            : {} simulated cores\n",
        ctx.cores
    ));
    out.push_str(&format!(
        "  Storage device : modeled Samsung 990 Pro class NVMe ({} flash units, {:.0} us media, {:.1} GiB/s bus)\n",
        model.units,
        model.base_latency_us,
        model.device_bw * 1e6 / f64::from(1u32 << 30)
    ));
    out.push_str(&format!(
        "  Run duration   : {} s simulated per measurement\n\n",
        ctx.duration_us / 1e6
    ));
    out.push_str(&report.to_string());
    out.push('\n');

    let mut table = Table::new(["workload", "paper", "measured"]);
    table.row([
        "4KiB randread, 1 core".to_owned(),
        "324.3 KIOPS".to_owned(),
        format!("{:.1} KIOPS", report.single_core_iops / 1e3),
    ]);
    table.row([
        "4KiB randread, QD64 x 4 cores".to_owned(),
        "1.3 MIOPS".to_owned(),
        format!("{:.2} MIOPS", report.peak_iops / 1e6),
    ]);
    table.row([
        "128KiB seqread, 32 threads".to_owned(),
        "7.2 GiB/s".to_owned(),
        format!("{:.2} GiB/s", report.seq_bandwidth_gib),
    ]);
    out.push_str("\npaper-vs-measured:\n");
    out.push_str(&table.to_text());
    ctx.write_csv("table1.csv", &table.to_csv())?;
    Ok(out)
}
