//! Simulation-time observability for the whole query path.
//!
//! The paper's contribution is *characterization*: Figs. 5–6 and
//! O-10..O-16 exist because the authors could see inside the query path
//! with bpftrace and per-stage timers. This crate is the simulator-side
//! equivalent — a span tracer, a latency-breakdown profiler, and trace
//! exporters — built entirely on the discrete-event simulation's virtual
//! clock so every trace is bit-reproducible:
//!
//! * [`span`] — [`Span`]s with [`SpanId`]s collected by a [`Tracer`]
//!   whose [`TraceLevel`] decides what is recorded; the execution engine
//!   opens one span per query and one child span per [`Phase`] (queue
//!   wait, distance compute, beam issue, flash service, page-cache hit,
//!   rerank, delay), plus nested I/O spans for individual device requests
//!   at [`TraceLevel::Io`]. A trace stores its spans and I/O spans in
//!   [`Column`]s: append-only chunks of a fixed size that never move.
//! * [`hist`] — log₂-bucketed [`LogHistogram`]s with an exact
//!   little-endian [`LogHistogram::canonical_bytes`] encoding, mergeable
//!   across worker shards. The request-size bucketing used by Fig. 6 and
//!   by exported traces is defined once here ([`hist::bucket_index`] /
//!   [`hist::bucket_floor`]) so they can never drift apart.
//! * [`registry`] — a named counter/histogram [`Registry`] and the
//!   per-phase [`PhaseBreakdown`] that the engine folds into `RunMetrics`;
//!   every nanosecond of a query's reported latency is attributed to
//!   exactly one in-latency phase (the engine asserts the sum).
//! * [`export`] — two deterministic exporters: Chrome/Perfetto
//!   `trace.json` ([`export::chrome_trace`]) and line-oriented JSONL
//!   ([`export::jsonl`]). Byte-identical across identical-seed runs; the
//!   `sann-bench` `determinism` tests diff them byte for byte.
//! * [`provenance`] — the [`IoProvenance`] tag every index-layer read
//!   request carries (graph adjacency, vector block, posting list, PQ
//!   codes, metadata), threaded through the engine and device model so
//!   I/Os-per-query can be broken down by *what the read fetched*.
//! * [`timeline`] — fixed-window aggregation ([`Timeline`]) over the
//!   simulated clock, with the trailing-partial-bucket width defined
//!   once for every rate/mean/utilization series (Fig. 5 bandwidth,
//!   iostat queue depth and device utilization).
//!
//! All timestamps are `u64` nanoseconds of *simulated* time — this crate
//! never reads the wall clock, uses no randomness, and iterates only
//! ordered containers, so it passes the root `clippy.toml`'s determinism
//! bans with no `#[allow]`.
//!
//! # Examples
//!
//! ```
//! use sann_obs::{Phase, SpanId, SpanName, TraceLevel, Tracer};
//!
//! let mut tracer = Tracer::new(TraceLevel::Query);
//! let q = tracer.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 3 }, 100);
//! let c = tracer.begin_span(q, 0, SpanName::Phase(Phase::Compute), 100);
//! tracer.end_span(c, 250);
//! tracer.end_span(q, 250);
//! let trace = tracer.finish(1_000);
//! assert_eq!(trace.spans.len(), 2);
//! trace.validate().unwrap();
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

pub mod column;
pub mod export;
pub mod hist;
pub mod provenance;
pub mod registry;
pub mod span;
pub mod timeline;

pub use column::Column;
pub use hist::LogHistogram;
pub use provenance::IoProvenance;
pub use registry::{PhaseBreakdown, Registry};
pub use span::{IoOutcome, IoSpan, Phase, Span, SpanId, SpanName, Trace, TraceLevel, Tracer};
pub use timeline::Timeline;
