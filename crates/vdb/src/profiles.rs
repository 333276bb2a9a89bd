//! Engine profiles of the four benchmarked databases.
//!
//! The paper's central observation (O-2, O-8, KF-*) is that databases using
//! the *same index* differ by up to 7.1× in throughput and 96.1% in latency:
//! the database architecture — not just the index — determines performance.
//! A [`DbProfile`] captures the architectural properties responsible, as a
//! small set of parameters applied on top of the real index traces:
//!
//! | Parameter | Models |
//! |---|---|
//! | `cpu_factor` | engine efficiency: SIMD kernels, language runtime (C++ Milvus vs Rust Qdrant vs Go Weaviate vs embedded-Python LanceDB) |
//! | `overhead_us` | per-query fixed cost: RPC/HTTP handling, planning, result assembly |
//! | `intra_fanout` | intra-query parallelism (Milvus executes one query across segments on multiple cores; the others are one-core-per-query) |
//! | `scale_exponent` | how per-query cost grows with dataset size beyond the index's own growth (segment-per-query execution makes Milvus degrade ~linearly; Weaviate is nearly flat — paper O-6) |
//! | `max_clients` | client-side limits (LanceDB-HNSW runs out of memory above 128 query threads in the paper) |
//!
//! Values are calibrated so the *relative shapes* of Figs. 2–4 hold; see
//! EXPERIMENTS.md for the calibration notes.

use sann_engine::{CostModel, FaultConfig, FaultProfile, PlanBuilder, RetryPolicy};

/// Execution-architecture model of one database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbProfile {
    /// Database name as used in the paper's figures.
    pub name: &'static str,
    /// Multiplier on all per-operation CPU costs.
    pub cpu_factor: f64,
    /// Fixed per-query CPU overhead, µs.
    pub overhead_us: f64,
    /// Number of cores one query's compute fans out over.
    pub intra_fanout: usize,
    /// Exponent γ: per-query cost gains an extra `size_ratio^γ` factor when
    /// the dataset grows by `size_ratio` (1.0 for the family's small
    /// dataset, 10.0 for the large one).
    pub scale_exponent: f64,
    /// Exponent for I/O growth with dataset size: read beams are replicated
    /// `size_ratio^io_scale_exponent` times. Milvus executes one beam per
    /// data segment and segment count grows with the dataset (which is how
    /// the paper's per-query read bytes grow 8.4–10.1× at 10× data, O-14).
    pub io_scale_exponent: f64,
    /// CPU charged per read beam beyond raw submission (storage-engine I/O
    /// path: async context switches, polling, result handling), µs.
    pub hop_overhead_us: f64,
    /// Core-free per-query latency floor (client RPC round trip and
    /// scheduler hand-offs), µs.
    pub latency_floor_us: f64,
    /// Admission cap on concurrently executing queries (0 = unlimited).
    pub max_concurrent: usize,
    /// Maximum supported client threads (0 = unlimited). Exceeding it fails
    /// the run (LanceDB's out-of-memory behaviour at high concurrency).
    pub max_clients: usize,
    /// Page-cache bytes available to storage reads (0 = direct I/O).
    pub cache_bytes: u64,
    /// Per-read retry budget when the device reports a transient error
    /// (storage-layer resilience; only observable under `--fault-profile`).
    pub max_retries: u32,
    /// Initial retry backoff, µs (doubles per attempt).
    pub retry_backoff_us: f64,
    /// Issue a hedged duplicate read after this many µs in flight
    /// (0 = never hedge).
    pub hedge_after_us: f64,
    /// Per-query I/O deadline, µs: reads still unresolved past it are
    /// abandoned and the query returns a partial top-k (0 = no deadline).
    pub io_deadline_us: f64,
}

impl DbProfile {
    /// Milvus: C++ engine with highly optimized (SIMD) kernels and
    /// segment-parallel query execution — fastest single-thread latency,
    /// early throughput plateau, and the steepest degradation as datasets
    /// grow (paper O-5/O-6: drops to 8–15% at 10× data).
    pub fn milvus() -> DbProfile {
        DbProfile {
            name: "milvus",
            cpu_factor: 1.0,
            overhead_us: 40.0,
            intra_fanout: 6,
            scale_exponent: 1.0,
            io_scale_exponent: 1.0,
            hop_overhead_us: 420.0,
            latency_floor_us: 400.0,
            max_concurrent: 0,
            max_clients: 0,
            cache_bytes: 0,
            max_retries: 3,
            retry_backoff_us: 100.0,
            hedge_after_us: 5_000.0,
            io_deadline_us: 0.0,
        }
    }

    /// Qdrant: Rust engine, inter-query parallelism only; moderate kernels,
    /// better scaling with dataset size (drops to ~30–60% at 10×).
    pub fn qdrant() -> DbProfile {
        DbProfile {
            name: "qdrant",
            cpu_factor: 2.6,
            overhead_us: 60.0,
            intra_fanout: 1,
            scale_exponent: 0.4,
            io_scale_exponent: 0.0,
            hop_overhead_us: 0.0,
            latency_floor_us: 500.0,
            max_concurrent: 0,
            max_clients: 0,
            cache_bytes: 0,
            max_retries: 2,
            retry_backoff_us: 200.0,
            hedge_after_us: 0.0,
            io_deadline_us: 0.0,
        }
    }

    /// Weaviate: Go engine — the slowest kernels of the three servers, but
    /// throughput that is nearly flat in dataset size (paper O-6 even shows
    /// small increases).
    pub fn weaviate() -> DbProfile {
        DbProfile {
            name: "weaviate",
            cpu_factor: 4.5,
            overhead_us: 80.0,
            intra_fanout: 1,
            scale_exponent: 0.0,
            io_scale_exponent: 0.0,
            hop_overhead_us: 0.0,
            latency_floor_us: 900.0,
            max_concurrent: 0,
            max_clients: 0,
            cache_bytes: 0,
            max_retries: 2,
            retry_backoff_us: 500.0,
            hedge_after_us: 0.0,
            io_deadline_us: 0.0,
        }
    }

    /// LanceDB: embedded Python library — large per-call overhead, quantized
    /// kernels, and an out-of-memory failure above 128 concurrent query
    /// threads (paper §IV-A).
    pub fn lancedb() -> DbProfile {
        DbProfile {
            name: "lancedb",
            cpu_factor: 5.0,
            overhead_us: 2_500.0,
            intra_fanout: 1,
            scale_exponent: 0.4,
            io_scale_exponent: 0.4,
            hop_overhead_us: 400.0,
            latency_floor_us: 3000.0,
            max_concurrent: 0,
            max_clients: 128,
            cache_bytes: 0,
            max_retries: 1,
            retry_backoff_us: 1_000.0,
            hedge_after_us: 0.0,
            io_deadline_us: 0.0,
        }
    }

    /// The plan compiler for this profile at a given dataset `size_ratio`
    /// (1.0 = the family's small dataset, 10.0 = the large one).
    pub fn plan_builder(&self, size_ratio: f64) -> PlanBuilder {
        let factor = self.cpu_factor * size_ratio.max(1e-9).powf(self.scale_exponent);
        let io_fanout = size_ratio.max(1.0).powf(self.io_scale_exponent).round() as usize;
        let cost = CostModel::default()
            .scaled(factor)
            .with_overhead_us(self.overhead_us);
        PlanBuilder::new(cost)
            .with_intra_parallelism(self.intra_fanout)
            .with_io_fanout(io_fanout)
            .with_read_overhead_us(self.hop_overhead_us * self.cpu_factor)
            .with_latency_floor_us(self.latency_floor_us)
    }

    /// Whether `concurrency` client threads are supported.
    pub fn supports_clients(&self, concurrency: usize) -> bool {
        self.max_clients == 0 || concurrency <= self.max_clients
    }

    /// The engine fault configuration for this database under an injected
    /// SSD fault profile: the profile decides *what the device does*, the
    /// database decides *how it reacts* (retry budget, backoff, hedging,
    /// deadline). With [`FaultProfile::none`] the result is inert: nothing
    /// fails, and the engine resolves the hedge and the deadline to "off".
    pub fn fault_config(&self, profile: FaultProfile) -> FaultConfig {
        FaultConfig {
            profile,
            retry: RetryPolicy {
                max_retries: self.max_retries,
                backoff_us: self.retry_backoff_us,
                backoff_mult: 2.0,
            },
            hedge_after_us: self.hedge_after_us,
            io_deadline_us: self.io_deadline_us,
            ..FaultConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_index::QueryTrace;

    fn unit_trace() -> QueryTrace {
        let mut t = QueryTrace::new();
        t.push_compute(1000, 768);
        t
    }

    #[test]
    fn milvus_is_fastest_per_query_on_small_data() {
        let trace = unit_trace();
        let cpu = |p: DbProfile| p.plan_builder(1.0).build(&trace).cpu_us();
        let m = cpu(DbProfile::milvus());
        let q = cpu(DbProfile::qdrant());
        let w = cpu(DbProfile::weaviate());
        let l = cpu(DbProfile::lancedb());
        assert!(m < q && q < w, "milvus {m} < qdrant {q} < weaviate {w}");
        assert!(l > w, "lancedb {l} slowest");
    }

    #[test]
    fn milvus_degrades_most_with_dataset_size() {
        let trace = unit_trace();
        let ratio = |p: DbProfile| {
            let small = p.plan_builder(1.0).build(&trace).cpu_us();
            let large = p.plan_builder(10.0).build(&trace).cpu_us();
            large / small
        };
        let m = ratio(DbProfile::milvus());
        let q = ratio(DbProfile::qdrant());
        let w = ratio(DbProfile::weaviate());
        assert!(m > 8.0, "milvus 10x-data cost ratio {m}");
        assert!((1.5..5.0).contains(&q), "qdrant ratio {q}");
        assert!(w < 1.5, "weaviate ratio {w}");
    }

    #[test]
    fn only_milvus_fans_out() {
        assert!(DbProfile::milvus().intra_fanout > 1);
        assert_eq!(DbProfile::qdrant().intra_fanout, 1);
        assert_eq!(DbProfile::weaviate().intra_fanout, 1);
        assert_eq!(DbProfile::lancedb().intra_fanout, 1);
    }

    #[test]
    fn fault_config_carries_each_databases_policy() {
        let fc = DbProfile::milvus().fault_config(FaultProfile::flaky());
        assert_eq!(fc.profile, FaultProfile::flaky());
        assert_eq!(fc.retry.max_retries, 3);
        assert_eq!(fc.hedge_after_us, 5_000.0);
        assert_eq!(
            DbProfile::lancedb()
                .fault_config(FaultProfile::none())
                .retry
                .max_retries,
            1
        );
        // The none profile leaves every policy inert.
        assert!(!DbProfile::qdrant()
            .fault_config(FaultProfile::none())
            .profile
            .active());
    }

    #[test]
    fn aging_device_prices_worse_per_query() {
        use sann_engine::{DeviceCostModel, Executor, QueryPlan, RunConfig, Segment};
        use sann_index::IoReq;
        let plan = QueryPlan::new(vec![
            Segment::cpu(20.0),
            Segment::io(vec![IoReq::new(0, 4096), IoReq::new(8192, 4096)]),
        ]);
        let profile = DbProfile::milvus();
        let run = |fp: FaultProfile| {
            let config = RunConfig {
                cores: 4,
                concurrency: 4,
                duration_us: 0.2e6,
                faults: profile.fault_config(fp),
                ..RunConfig::default()
            };
            Executor::new(config).run(std::slice::from_ref(&plan))
        };
        let healthy = run(FaultProfile::none());
        let aging = run(FaultProfile::aging());
        let device = DeviceCostModel::samsung_990_pro();
        let healthy_ledger = device.price(&healthy, 4);
        let aging_ledger = device.price(&aging, 4);
        assert!(aging.completed < healthy.completed, "aging throttles reads");
        assert!(
            aging_ledger.usd_per_query() > healthy_ledger.usd_per_query(),
            "fewer queries over the same amortized window must cost more \
             per query: {} vs {}",
            aging_ledger.usd_per_query(),
            healthy_ledger.usd_per_query()
        );
    }

    #[test]
    fn lancedb_rejects_256_clients() {
        assert!(!DbProfile::lancedb().supports_clients(256));
        assert!(DbProfile::lancedb().supports_clients(128));
        assert!(DbProfile::milvus().supports_clients(256));
    }
}
