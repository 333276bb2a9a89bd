//! Discrete-event execution engine: replays query traces against a core
//! pool and the simulated SSD, reproducing the paper's measurement setup.
//!
//! # Why simulation
//!
//! The paper measures wall-clock behaviour of four databases on a 20-core
//! Xeon with a Samsung 990 Pro. We substitute that testbed with a
//! deterministic discrete-event simulation (see DESIGN.md §1): the *work* of
//! each query is computed by the real index implementations
//! ([`sann_index::QueryTrace`]), and this engine models *how long* that work
//! takes on a machine with `C` cores and the modeled SSD:
//!
//! * compute steps occupy a core for a duration the [`PlanBuilder`] prices,
//! * read beams charge per-request submission CPU, then block the query
//!   (not the core) until the slowest request completes on the
//!   [`sann_ssdsim::DeviceSim`],
//! * closed-loop clients (the paper's "query threads") keep exactly one
//!   query in flight each,
//! * an optional admission cap models database-internal scheduler limits,
//! * optional intra-query fan-out models engines (Milvus) that parallelize
//!   one query across cores.
//!
//! Outputs are the paper's metrics: QPS, P99 latency, CPU utilization, and
//! the block-level I/O trace.
//!
//! # Examples
//!
//! ```
//! use sann_engine::{Executor, QueryPlan, RunConfig, Segment};
//!
//! // One query = 100 µs of CPU, repeated by 4 closed-loop clients for 1 s.
//! let plan = QueryPlan::new(vec![Segment::cpu(100.0)]);
//! let config = RunConfig { cores: 2, concurrency: 4, duration_us: 1e6, ..RunConfig::default() };
//! let metrics = Executor::new(config).run(&[plan]);
//! // Two cores at 100 µs/query → ~20k queries per second.
//! assert!((metrics.qps - 20_000.0).abs() / 20_000.0 < 0.05);
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

pub mod executor;
pub mod ledger;
pub mod metrics;
pub mod plan;

pub use executor::{
    Executor, FaultConfig, Law, OperationalLaws, RetryPolicy, RunConfig, TracedRun,
    DEFAULT_FAULT_SEED, MAX_CLIENTS,
};
pub use ledger::{DeviceCostModel, QueryLedger};
pub use metrics::{DeviceTelemetry, FaultStats, RunMetrics};
pub use plan::{Beam, PlanBuilder, QueryPlan, Segment};
pub use sann_ssdsim::FaultProfile;
