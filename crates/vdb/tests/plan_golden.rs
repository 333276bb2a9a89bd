//! Golden-file test for the plan every setup compiles: each of the seven
//! setups at both dataset sizes and at the four scales the repo runs
//! (benchmark, goldens, `vdbbench` default, paper), over one trace that
//! holds every step kind. One line per plan pins each segment's kind,
//! fan-out, request offsets and exact CPU time, so any change to the price
//! a plan pays, or to its shape, shows up as a golden diff. Regenerate
//! after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sann-vdb --test plan_golden
//! ```

use sann_engine::{Beam, Segment};
use sann_index::{CpuOp, IoReq, QueryTrace};
use sann_vdb::setup::{calibrated_plan_builder, SetupKind};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Compute, PQ lookups, a blocking beam, an overlapped beam carrying CPU
/// ops, and trailing compute.
fn trace() -> QueryTrace {
    let mut t = QueryTrace::new();
    t.push_compute(100, 768);
    t.push_pq_lookup(64, 48);
    t.push_read(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]);
    t.push_overlapped(
        vec![IoReq::new(16384, 4096)],
        &[
            CpuOp::Compute { count: 8, dim: 768 },
            CpuOp::PqLookup { count: 32, m: 48 },
        ],
    );
    t.push_compute(10, 768);
    t
}

/// The offsets of every request, a beam's replicas expanded in the order
/// the executor issues them.
fn offsets(reqs: impl Iterator<Item = IoReq>) -> String {
    let offsets: Vec<String> = reqs.map(|r| r.offset.to_string()).collect();
    offsets.join(",")
}

fn render(segment: &Segment) -> String {
    let reads = || offsets(segment.beam().into_iter().flat_map(Beam::iter));
    match segment {
        Segment::Cpu { total_us, fanout } => format!("cpu/{fanout}:{:016x}", total_us.to_bits()),
        Segment::Io { .. } => format!("io[{}]", reads()),
        Segment::Delay { us } => format!("delay:{:016x}", us.to_bits()),
        Segment::Write { reqs } => format!("write[{}]", offsets(reqs.iter().copied())),
        Segment::Overlapped {
            total_us, fanout, ..
        } => format!(
            "overlapped/{fanout}:{:016x}[{}]",
            total_us.to_bits(),
            reads()
        ),
    }
}

#[test]
fn every_setups_plan_matches_golden() {
    let trace = trace();
    let mut out = String::new();
    for kind in SetupKind::all() {
        for size_ratio in [1.0, 10.0] {
            for scale in [0.0005, 0.001, 0.002, 1.0] {
                let plan = calibrated_plan_builder(kind, size_ratio, scale).build(&trace);
                let segments: Vec<String> = plan.segments().iter().map(render).collect();
                let _ = writeln!(
                    out,
                    "{kind} x{size_ratio} scale={scale}: {}",
                    segments.join(" ")
                );
            }
        }
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans.txt");
    sann_core::check::golden(&path, &out);
}
