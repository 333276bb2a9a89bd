//! `vdbbench iostat` — the I/O-characterization and cost report.
//!
//! Runs one tuned setup under a healthy device and under the `aging`
//! fault profile, and reports what the paper's bpftrace + price-sheet
//! methodology would: the per-provenance I/O breakdown (what each read
//! fetched and where it was served), device telemetry (queue depth,
//! utilization, read amplification, hot-page skew), per-second timelines,
//! and the $/query ledger on a concrete device cost model. Everything
//! derives from always-on simulation state, so the report — and the
//! `iostat_*.csv` files written under `--results` — is byte-identical
//! across identical invocations at any `--trace-level`.

use crate::cli::SubFlags;
use crate::context::BenchContext;
use crate::report::{num, Table};
use sann_core::{cast, Result};
use sann_engine::{FaultProfile, RunMetrics};
use sann_obs::IoProvenance;

/// Dollar figures span ~1e-9..1 USD; a fixed scientific mantissa keeps
/// them readable and byte-stable.
fn usd(x: f64) -> String {
    format!("{x:.3e}")
}

/// Runs the subcommand on `flags.setup` at `flags.clients` clients, priced
/// on `flags.device`.
///
/// # Errors
///
/// Rejects a client count the setup's profile does not support and
/// propagates build/search/filesystem errors.
pub fn run(ctx: &mut BenchContext, flags: &SubFlags) -> Result<String> {
    let (kind, clients, device) = (flags.setup, flags.clients, flags.device);
    let spec = ctx.first_spec()?;
    let plans = ctx.plans(&spec, kind)?;

    // One run per device-health profile; the tuned plans are shared, so
    // the delta between rows is purely the device's behaviour.
    let profiles = [FaultProfile::none(), FaultProfile::aging()];
    let saved = ctx.fault_profile;
    let mut runs: Vec<(&'static str, RunMetrics)> = Vec::new();
    for profile in profiles {
        ctx.fault_profile = profile;
        runs.push((profile.name, ctx.run(kind, &plans, clients)?));
    }
    ctx.fault_profile = saved;

    let mut prov = Table::new([
        "profile",
        "provenance",
        "device_reads",
        "device_mib",
        "cache_hit_mib",
        "cache_hits",
        "byte_share",
    ]);
    for (label, m) in &runs {
        let total_bytes = m.io_stats.read_bytes.max(1);
        for p in IoProvenance::ALL {
            let i = p.index();
            prov.row([
                (*label).to_owned(),
                p.name().to_owned(),
                m.io_stats.prov_reads[i].to_string(),
                format!("{:.3}", mib(m.io_stats.prov_read_bytes[i])),
                format!("{:.3}", mib(m.prov_cache_hit_bytes[i])),
                m.prov_cache_hits[i].to_string(),
                format!(
                    "{:.4}",
                    cast::f64_from_u64(m.io_stats.prov_read_bytes[i])
                        / cast::f64_from_u64(total_bytes)
                ),
            ]);
        }
    }

    let mut chars = Table::new([
        "profile",
        "qps",
        "read_amp",
        "hot_page_skew",
        "mean_queue_depth",
        "device_util",
        "usd_per_query",
        "usd_per_1m_queries",
    ]);
    let mut cost = Table::new([
        "profile",
        "capacity_usd",
        "wear_usd",
        "energy_usd",
        "cpu_usd",
        "total_usd",
        "usd_per_query",
        "usd_per_1m_queries",
    ]);
    for (label, m) in &runs {
        let ledger = device.price(m, ctx.cores);
        chars.row([
            (*label).to_owned(),
            num(m.qps),
            format!("{:.4}", m.read_amplification()),
            format!("{:.4}", m.hot_page_skew),
            format!("{:.3}", m.device.mean_queue_depth),
            format!("{:.4}", m.device.utilization),
            usd(ledger.usd_per_query()),
            usd(ledger.usd_per_million()),
        ]);
        cost.row([
            (*label).to_owned(),
            usd(ledger.capacity_usd),
            usd(ledger.wear_usd),
            usd(ledger.energy_usd),
            usd(ledger.cpu_usd),
            usd(ledger.total_usd()),
            usd(ledger.usd_per_query()),
            usd(ledger.usd_per_million()),
        ]);
    }

    let mut timeline = Table::new(["profile", "t_s", "queue_depth", "device_util", "read_mib_s"]);
    for (label, m) in &runs {
        for (t, ((qd, util), bw)) in m
            .device
            .queue_depth_timeline
            .iter()
            .zip(&m.device.utilization_timeline)
            .zip(&m.bandwidth_timeline_mib)
            .enumerate()
        {
            timeline.row([
                (*label).to_owned(),
                t.to_string(),
                format!("{qd:.3}"),
                format!("{util:.4}"),
                format!("{bw:.3}"),
            ]);
        }
    }

    ctx.write_csv("iostat_provenance.csv", &prov.to_csv())?;
    ctx.write_csv("iostat_characterization.csv", &chars.to_csv())?;
    ctx.write_csv("iostat_cost.csv", &cost.to_csv())?;
    ctx.write_csv("iostat_timeline.csv", &timeline.to_csv())?;

    let mut out = format!(
        "I/O characterization: {} on {} at {clients} clients, device model {}\n\n",
        kind.name(),
        spec.name,
        device.name
    );
    out.push_str("Read provenance (what each device read fetched):\n");
    out.push_str(&prov.to_text());
    out.push_str("\nDevice characterization and unit cost:\n");
    out.push_str(&chars.to_text());
    out.push_str("\nCost ledger (per measurement window):\n");
    out.push_str(&cost.to_text());
    out.push_str("\nPer-second telemetry timeline:\n");
    out.push_str(&timeline.to_text());
    Ok(out)
}

fn mib(bytes: u64) -> f64 {
    cast::f64_from_u64(bytes) / f64::from(1u32 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    use sann_engine::DeviceCostModel;
    use sann_vdb::SetupKind;

    const DEFAULT_SETUP: SetupKind = SetupKind::MilvusDiskann;

    #[test]
    fn report_covers_both_profiles_and_restores_context() {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.2e6;
        let dir = std::env::temp_dir().join(format!("sann-iostat-{}", std::process::id()));
        ctx.results_dir = dir.clone();
        let before = ctx.fault_profile;
        let text = run(&mut ctx, &SubFlags::with_clients(4)).unwrap();
        assert_eq!(ctx.fault_profile, before, "iostat must restore the profile");
        assert!(text.contains("graph-adjacency"), "diskann reads are tagged");
        assert!(text.contains("none") && text.contains("aging"));
        assert!(text.contains("usd_per_query"));
        for csv in [
            "iostat_provenance.csv",
            "iostat_characterization.csv",
            "iostat_cost.csv",
            "iostat_timeline.csv",
        ] {
            let body = std::fs::read_to_string(dir.join(csv)).unwrap();
            assert!(body.lines().count() > 1, "{csv} must have data rows");
        }
        // Double-run byte-stability of the full report and every export.
        let mut again = BenchContext::new(0.001);
        again.only_dataset = Some("cohere-s".into());
        again.duration_us = 0.2e6;
        again.results_dir = dir.clone();
        let text2 = run(&mut again, &SubFlags::with_clients(4)).unwrap();
        assert_eq!(text, text2, "iostat must be byte-identical across runs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aging_profile_degrades_throughput_and_unit_cost() {
        let mut ctx = BenchContext::new(0.001);
        ctx.only_dataset = Some("cohere-s".into());
        ctx.duration_us = 0.2e6;
        let spec = ctx.dataset_specs().remove(0);
        let plans = ctx.plans(&spec, DEFAULT_SETUP).unwrap();
        let healthy = ctx.run(DEFAULT_SETUP, &plans, 4).unwrap();
        ctx.fault_profile = FaultProfile::aging();
        let aging = ctx.run(DEFAULT_SETUP, &plans, 4).unwrap();
        let device = DeviceCostModel::samsung_990_pro();
        let h = device.price(&healthy, ctx.cores);
        let a = device.price(&aging, ctx.cores);
        assert!(aging.completed < healthy.completed);
        assert!(a.usd_per_query() > h.usd_per_query());
    }
}
