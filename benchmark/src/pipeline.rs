//! The stages every workload is assembled from — dataset, index builds,
//! tuning, trace collection — and the run context that times them.
//!
//! A stage is set-up for one workload and the timed region of another
//! (`prep-cold` times the builds that the other three only need done), so
//! each stage is one function that opens a span, calls into the layer,
//! and records the per-layer sample; the workload decides which clock
//! window the call falls into.

use crate::names::{self, family_of};
use crate::spans::Recorder;
use sann_core::rng::SplitMix64;
use sann_core::{Dataset, Metric};
use sann_datagen::{catalog, DatasetSpec, GroundTruth};
use sann_engine::{PlanBuilder, QueryPlan, Segment};
use sann_index::{
    FreshConfig, FreshDiskAnnIndex, IoStrategy, LayoutKind, QueryTrace, VamanaConfig, VectorIndex,
};
use sann_vdb::{Setup, SetupKind};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `k` of every search (the paper reports recall@10).
pub const K: usize = 10;

/// Recall@10 every setup is tuned to.
pub const RECALL_TARGET: f64 = 0.9;

/// How much work one pass of each workload does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Base vectors (768-d, `cohere-s` generator).
    pub n_base: usize,
    /// Query vectors: searches per family per pass, and plans per setup.
    pub n_queries: usize,
    /// Prefix of the queries used by `Setup::tune`.
    pub tune_queries: usize,
    /// Simulated seconds of each `sim-clean` replay.
    pub clean_sim_s: f64,
    /// Simulated seconds of each `sim-hybrid` replay.
    pub hybrid_sim_s: f64,
    /// Simulated seconds of the `TraceLevel::Io` replay and its base.
    pub traced_sim_s: f64,
    /// Real FreshDiskANN inserts compiled into write plans.
    pub inserts: usize,
    /// Divisor on the micro-loop iteration counts.
    pub probe_divisor: usize,
}

impl Shape {
    /// The measured shape: 500 x 768-d vectors from the `cohere-s`
    /// generator and 1,000 queries. Half the smallest point of the repo's
    /// catalog: a pass must be a few seconds long for a run to repeat it
    /// often enough to tell the work from the machine's noise. The clean
    /// replays simulate 15 s, not the paper's 30 s: the executor's per-query
    /// records then outgrow the fixture, and `peak_rss_mib` of `sim-clean`
    /// swings by 16 % from seed to seed (381-450 MiB) instead of 4 %.
    pub const FULL: Shape = Shape {
        n_base: 500,
        n_queries: 1_000,
        tune_queries: 200,
        clean_sim_s: 15.0,
        hybrid_sim_s: 5.0,
        traced_sim_s: 1.0,
        inserts: 100,
        probe_divisor: 1,
    };

    /// A sanity-check shape: not a measurement.
    pub const SMOKE: Shape = Shape {
        n_base: 300,
        n_queries: 100,
        tune_queries: 50,
        clean_sim_s: 0.5,
        hybrid_sim_s: 0.5,
        traced_sim_s: 0.25,
        inserts: 20,
        probe_divisor: 20,
    };

    /// The dataset scale relative to the paper's 1M-vector `cohere-s`,
    /// which the plan compiler's extrapolation model takes.
    pub fn scale(&self) -> f64 {
        self.n_base as f64 / 1e6
    }
}

/// What one run carries from stage to stage: the seed, the span recorder,
/// the per-layer samples and the tally of checked operations.
pub struct Ctx {
    pub seed: u64,
    pub shape: Shape,
    pub rec: Recorder,
    /// Scratch directory inside the benchmark's `out/` (artifact cache
    /// round trips); removed when the run ends.
    pub scratch: PathBuf,
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ctx {
    pub fn new(seed: u64, shape: Shape, scratch: PathBuf) -> Ctx {
        Ctx {
            seed,
            shape,
            rec: Recorder::new(),
            scratch,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A seed for one purpose (`tag`), derived from `--seed`.
    pub fn derive(&self, tag: u64) -> u64 {
        SplitMix64::new(self.seed).split(tag).next_u64()
    }

    /// Records one sample of a per-layer metric.
    pub fn sample(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// All samples recorded so far, by metric name.
    pub fn samples(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.samples
    }

    /// Counts one checked operation; a false `ok` counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The first few messages explain a failure; thousands of
            // identical ones would not.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts one fallible library call; an `Err` counts as failed and
    /// ends the run, because later stages need the value.
    pub fn op<T>(&mut self, result: sann_core::Result<T>, what: &str) -> Result<T, String> {
        self.check(result.is_ok(), || what.to_owned());
        result.map_err(|err| format!("{what}: {err}"))
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a over a sequence of byte strings: each part is hashed on its own
/// and the part digests are hashed together, so multi-megabyte artifacts
/// are never concatenated.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        self.0
            .extend_from_slice(&sann_core::hash::fnv1a64(bytes).to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        sann_core::hash::fnv1a64(&self.0)
    }
}

/// The generated inputs: base vectors, queries in seeded order, and exact
/// ground truth for the full and the tuning query sets.
pub struct World {
    pub spec: DatasetSpec,
    pub base: Dataset,
    pub queries: Dataset,
    pub truth: GroundTruth,
    pub tune_queries: Dataset,
    pub tune_truth: GroundTruth,
}

/// Generates the dataset and its ground truth from the run's seed.
pub fn generate(ctx: &mut Ctx) -> World {
    let shape = ctx.shape;
    let mut spec = catalog::cohere_s().scaled(shape.scale());
    spec.n_base = shape.n_base;
    spec.n_queries = shape.n_queries;
    spec.seed = ctx.derive(1);
    let open = ctx.rec.enter("datagen.generate");
    let bundle = spec.generate();
    let secs = ctx.rec.exit(open);
    ctx.sample("datagen.generate_s", secs);

    // The query order is part of the input: shuffle it with the seed.
    let mut order: Vec<usize> = (0..bundle.queries.len()).collect();
    SplitMix64::new(ctx.derive(3)).shuffle(&mut order);
    let flat: Vec<f32> = order
        .iter()
        .flat_map(|&i| bundle.queries.row(i).iter().copied())
        .collect();
    let queries = Dataset::from_flat(flat, spec.dim).expect("rows keep their dimension");
    let tune_queries = queries.truncated(shape.tune_queries);

    let truth_of = |ctx: &mut Ctx, q: &Dataset| {
        let open = ctx.rec.enter("datagen.groundtruth");
        let truth = GroundTruth::bruteforce(&bundle.base, q, spec.metric, K);
        let secs = ctx.rec.exit(open);
        ctx.sample(
            "datagen.groundtruth_ns_per_dist",
            secs * 1e9 / (q.len() * bundle.base.len()) as f64,
        );
        truth
    };
    let truth = truth_of(ctx, &queries);
    let tune_truth = truth_of(ctx, &tune_queries);
    World {
        spec,
        base: bundle.base,
        queries,
        truth,
        tune_queries,
        tune_truth,
    }
}

/// A setup at the paper's starting parameters, with the run's build seed.
pub fn new_setup(ctx: &Ctx, kind: SetupKind) -> Setup {
    let mut setup = Setup::new(kind, ctx.shape.n_base);
    setup.seed = ctx.derive(2);
    setup
}

/// Builds the index of `kind`'s family; returns it with the build's seconds.
pub fn build(
    ctx: &mut Ctx,
    world: &World,
    kind: SetupKind,
) -> Result<(Box<dyn VectorIndex>, f64), String> {
    let family = family_of(kind);
    let setup = new_setup(ctx, kind);
    let open = ctx.rec.enter(&format!("index.build.{family}"));
    let built = setup.build_index(&world.base, Metric::L2);
    let secs = ctx.rec.exit(open);
    ctx.sample(format!("index.build_s.{family}"), secs);
    Ok((ctx.op(built, &format!("build {family}"))?, secs))
}

/// Tunes `kind`'s search knob to the recall target on the tuning queries.
pub fn tune(
    ctx: &mut Ctx,
    world: &World,
    index: &dyn VectorIndex,
    kind: SetupKind,
) -> Result<Setup, String> {
    let mut setup = new_setup(ctx, kind);
    let open = ctx.rec.enter(&format!("vdb.tune.{kind}"));
    let tuned = setup.tune(index, &world.tune_queries, &world.tune_truth, RECALL_TARGET);
    let secs = ctx.rec.exit(open);
    ctx.sample(format!("vdb.tune_s.{kind}"), secs);
    ctx.op(tuned, &format!("tune {kind}"))?;
    Ok(setup)
}

/// The plan compiler of `kind` at this run's dataset scale.
pub fn plan_builder(ctx: &Ctx, kind: SetupKind) -> PlanBuilder {
    sann_vdb::setup::calibrated_plan_builder(kind, 1.0, ctx.shape.scale())
}

/// Collects the query traces of the whole query set under `strategy`.
pub fn collect_traces(
    ctx: &mut Ctx,
    world: &World,
    index: &dyn VectorIndex,
    setup: &Setup,
    strategy: IoStrategy,
) -> Result<Vec<QueryTrace>, String> {
    let params = setup.params.search_params().with_io(strategy);
    let label = names::strategy_name(strategy);
    let open = ctx
        .rec
        .enter(&format!("index.traces.{}.{label}", setup.kind));
    let traces = setup.traces_with(index, &world.queries, K, &params);
    ctx.rec.exit(open);
    ctx.op(traces, &format!("traces {} {label}", setup.kind))
}

/// The look-ahead + pipelined point of the I/O design space: its traces
/// carry `TraceStep::Overlapped`, which lowers to `Segment::Overlapped`.
pub const PIPELINED: IoStrategy = IoStrategy {
    layout: LayoutKind::Naive,
    look_ahead: true,
    pipelined: true,
};

/// Compiles real FreshDiskANN inserts into plans: each insert's placement
/// reads and compute, then one `Segment::write` of the records it dirtied.
pub fn insert_plans(ctx: &mut Ctx, world: &World) -> Result<Vec<QueryPlan>, String> {
    let config = FreshConfig {
        graph: VamanaConfig {
            r: 32,
            l_build: 50,
            seed: ctx.derive(2),
            // One build thread: a multi-threaded Vamana build is not
            // byte-deterministic, and the digests must repeat.
            threads: 1,
            ..VamanaConfig::default()
        },
        l_insert: 50,
        pq_m: 0,
        pq_ksub: 128,
    };
    let open = ctx.rec.enter("index.build.fresh-diskann");
    let built = FreshDiskAnnIndex::build(&world.base, Metric::L2, config);
    ctx.rec.exit(open);
    let mut index = ctx.op(built, "build fresh-diskann")?;
    let stream = world
        .spec
        .model()
        .generate_stream(ctx.shape.inserts, ctx.derive(4));
    let builder = plan_builder(ctx, SetupKind::MilvusDiskann);
    let mut plans = Vec::with_capacity(stream.len());
    for row in stream.iter() {
        let open = ctx.rec.enter("index.fresh_insert");
        let inserted = index.insert(row);
        let secs = ctx.rec.exit(open);
        ctx.sample("index.fresh_insert_us", secs * 1e6);
        let (_, trace) = ctx.op(inserted, "fresh insert")?;
        let mut segments = builder.build(&trace).segments().to_vec();
        segments.push(Segment::write(index.take_insert_writes()));
        plans.push(QueryPlan::new(segments));
    }
    Ok(plans)
}

/// Which stages a workload needs done before its timed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Needs {
    /// Setups whose family is built.
    pub build: Vec<SetupKind>,
    /// Setups that are tuned and whose default-strategy traces are
    /// collected; their families must be among the built ones.
    pub trace: Vec<SetupKind>,
    /// The `sim-hybrid` extras: pipelined DiskANN traces and insert plans.
    pub hybrid: bool,
}

/// Everything a workload's set-up produced.
pub struct Fixture {
    pub world: World,
    /// Built indexes by family.
    pub indexes: BTreeMap<&'static str, Box<dyn VectorIndex>>,
    /// Tuned setups with their default-strategy traces.
    pub tuned: BTreeMap<SetupKind, (Setup, Vec<QueryTrace>)>,
    /// Pipelined DiskANN traces.
    pub pipelined: Vec<QueryTrace>,
    /// Real insert plans.
    pub inserts: Vec<QueryPlan>,
}

impl Fixture {
    /// The built index of `kind`'s family.
    ///
    /// # Panics
    ///
    /// Panics when the workload's [`Needs`] did not list the family — a
    /// bug in the workload table, not a run-time condition.
    pub fn index(&self, kind: SetupKind) -> &dyn VectorIndex {
        self.indexes
            .get(family_of(kind))
            .map(|index| index.as_ref())
            .unwrap_or_else(|| panic!("set-up did not build {}", family_of(kind)))
    }
}

/// Runs the set-up stages `needs` lists.
pub fn set_up(ctx: &mut Ctx, needs: &Needs) -> Result<Fixture, String> {
    let world = generate(ctx);
    let mut fixture = Fixture {
        world,
        indexes: BTreeMap::new(),
        tuned: BTreeMap::new(),
        pipelined: Vec::new(),
        inserts: Vec::new(),
    };
    for &kind in &needs.build {
        let (index, _) = build(ctx, &fixture.world, kind)?;
        fixture.indexes.insert(family_of(kind), index);
    }
    for &kind in &needs.trace {
        let setup = tune(ctx, &fixture.world, fixture.index(kind), kind)?;
        let traces = collect_traces(
            ctx,
            &fixture.world,
            fixture.index(kind),
            &setup,
            IoStrategy::default(),
        )?;
        fixture.tuned.insert(kind, (setup, traces));
    }
    if needs.hybrid {
        let kind = SetupKind::MilvusDiskann;
        let setup = fixture.tuned[&kind].0;
        fixture.pipelined =
            collect_traces(ctx, &fixture.world, fixture.index(kind), &setup, PIPELINED)?;
        fixture.inserts = insert_plans(ctx, &fixture.world)?;
    }
    Ok(fixture)
}
