//! A parametric NVMe SSD model with block-layer tracing.
//!
//! The paper benchmarks a Samsung 990 Pro 4 TiB: 324.3 KIOPS of 4 KiB random
//! reads on a single CPU core, 1.3 MIOPS at 64-deep queues over four cores,
//! and 7.2 GiB/s of 128 KiB sequential reads (Table I / §III-A, measured with
//! fio). This crate substitutes that physical device with a service model
//! whose envelope matches those numbers:
//!
//! * `units` parallel flash channels, each serving one request's media access
//!   at a time (`base_latency_us` per access),
//! * a shared bus that serializes data transfer at `device_bw` bytes/µs,
//! * a per-request host CPU cost (`submit_cpu_us`) that the execution engine
//!   charges to the submitting core — which is what caps single-core IOPS.
//!
//! [`DeviceSim`] applies the model to a stream of timed requests;
//! [`trace::IoTracer`] folds every request issued at the block layer (the
//! bpftrace `block_rq_issue` analog) into the paper's I/O statistics without
//! keeping a log; [`calibrate`] re-runs the paper's fio
//! workloads against the model and prints the achieved envelope;
//! [`pagecache::PageCache`] models the OS page cache the paper flushes
//! before each run.
//!
//! # Examples
//!
//! ```
//! use sann_ssdsim::{DeviceSim, SsdModel};
//!
//! let mut dev = DeviceSim::new(SsdModel::samsung_990_pro());
//! let done = dev.schedule(0.0, 4096);
//! assert!(done > 0.0 && done < 200.0, "a lone 4 KiB read takes tens of µs");
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        reason = "unit tests build fixtures and expected values with `as`; the non-test build denies these casts"
    )
)]

pub mod calibrate;
pub mod faults;
pub mod model;
pub mod pagecache;
mod pagemap;
pub mod trace;

pub use calibrate::{CalibrationReport, Calibrator};
pub use faults::{FaultInjector, FaultProfile, ReadFault, HEDGE_TAG};
pub use model::{DeviceSim, SsdModel};
pub use pagecache::PageCache;
pub use trace::{IoStats, IoTracer};
