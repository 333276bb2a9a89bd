//! The operational laws of a closed queueing network (`sann_engine::Law`)
//! at every point of the Figs. 2-4 concurrency ladder, for every setup, at
//! the `vdbbench all` golden scale. Debug builds assert the same laws at
//! the end of every run; this test holds them in any build, and states the
//! tolerance each is held to.

use sann_bench::context::BenchContext;
use sann_bench::fig2_4::CONCURRENCY_LADDER;
use sann_engine::Law;
use sann_obs::TraceLevel;
use sann_vdb::SetupKind;

/// How far each law's two sides may be apart, relative to the larger.
fn tolerance(law: Law) -> f64 {
    match law {
        // Both sides are integer ns or counts of the same run: exact.
        // Little's law counts `T - issue` of each query in flight at the
        // horizon, so no boundary slack is left to allow for.
        Law::Little
        | Law::CpuUtilization
        | Law::DeviceUtilization
        | Law::ForcedFlow
        | Law::ThroughputBound
        | Law::ResponseBound => 0.0,
        // Bytes against bus time, which the device rounds up from `f64`
        // per request: a few ulps.
        Law::BandwidthCap => 1e-9,
    }
}

#[test]
fn every_ladder_point_obeys_the_operational_laws() {
    let args: Vec<String> = "--scale 0.001 --dataset cohere-s --duration-secs 0.2 --no-cache"
        .split(' ')
        .map(str::to_owned)
        .collect();
    let (mut ctx, _) = BenchContext::from_args(&args).unwrap();
    let (mut checked, mut idle) = (0, Vec::new());
    for spec in ctx.dataset_specs_ending("") {
        for kind in SetupKind::all() {
            let plans = ctx.plans(&spec, kind).unwrap();
            for &clients in CONCURRENCY_LADDER {
                if !kind.profile().supports_clients(clients) {
                    continue;
                }
                let point = format!("{} / {} / c{clients}", spec.name, kind.name());
                let replay = ctx.point(kind, &plans, clients);
                let run = ctx.run_traced(&replay, TraceLevel::Off).unwrap();
                // A run with no query completed in the window has no
                // throughput to relate: the laws skip it.
                let Some(laws) = run.laws else {
                    assert_eq!(run.metrics.completed, 0, "{point}");
                    idle.push(point);
                    continue;
                };
                for (law, gap) in laws.gaps() {
                    let Some(gap) = gap else {
                        // Only the healthy-device and no-cancelled-hedge
                        // terms are conditional, and the ladder runs on a
                        // healthy device.
                        panic!("{point}: {law:?} had nothing to check");
                    };
                    assert!(
                        gap <= tolerance(law),
                        "{point}: {law:?} gap {gap:e} over {:e}: {laws:?}",
                        tolerance(law)
                    );
                }
                checked += 1;
            }
        }
    }
    // Seven setups of nine points, less the two the profiles refuse
    // (both LanceDB setups are out of memory at c256); LanceDB-IVF has no query
    // completed in the window at c32-c128, as the all golden shows.
    assert_eq!(
        checked, 58,
        "points checked; no query completed at {idle:?}"
    );
    assert_eq!(idle.len(), 3, "no query completed at {idle:?}");
}
