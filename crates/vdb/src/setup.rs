//! The paper's seven benchmark setups (§III-C / §IV):
//! five memory-based — Milvus-IVF, Milvus-HNSW, Qdrant-HNSW, Weaviate-HNSW,
//! LanceDB-HNSW — and two storage-based — Milvus-DiskANN and LanceDB-IVF(PQ).

use crate::collection::IndexSpec;
use crate::profiles::DbProfile;
use sann_core::{Dataset, Metric, Result};
use sann_datagen::{DatasetSpec, GroundTruth};
use sann_index::{
    default_pq_m, DiskAnnConfig, HnswConfig, IoStrategy, IvfConfig, SearchParams, VamanaConfig,
    VectorIndex,
};

/// One of the paper's seven (database × index) configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SetupKind {
    /// Milvus with memory-based IVF-Flat.
    MilvusIvf,
    /// Milvus with memory-based HNSW.
    MilvusHnsw,
    /// Milvus with storage-based DiskANN.
    MilvusDiskann,
    /// Qdrant with memory-based HNSW.
    QdrantHnsw,
    /// Weaviate with memory-based HNSW.
    WeaviateHnsw,
    /// LanceDB with memory-based HNSW (scalar-quantized).
    LancedbHnsw,
    /// LanceDB with storage-based IVF + product quantization.
    LancedbIvf,
}

impl SetupKind {
    /// All seven setups in the paper's presentation order.
    pub fn all() -> [SetupKind; 7] {
        [
            SetupKind::MilvusIvf,
            SetupKind::MilvusHnsw,
            SetupKind::MilvusDiskann,
            SetupKind::QdrantHnsw,
            SetupKind::WeaviateHnsw,
            SetupKind::LancedbHnsw,
            SetupKind::LancedbIvf,
        ]
    }

    /// The figure-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            SetupKind::MilvusIvf => "milvus-ivf",
            SetupKind::MilvusHnsw => "milvus-hnsw",
            SetupKind::MilvusDiskann => "milvus-diskann",
            SetupKind::QdrantHnsw => "qdrant-hnsw",
            SetupKind::WeaviateHnsw => "weaviate-hnsw",
            SetupKind::LancedbHnsw => "lancedb-hnsw",
            SetupKind::LancedbIvf => "lancedb-ivf",
        }
    }

    /// Parses a setup from its [`name`](SetupKind::name).
    pub fn parse(name: &str) -> Option<SetupKind> {
        SetupKind::all().into_iter().find(|k| k.name() == name)
    }

    /// The database profile behind the setup.
    pub fn profile(&self) -> DbProfile {
        match self {
            SetupKind::MilvusIvf | SetupKind::MilvusHnsw | SetupKind::MilvusDiskann => {
                DbProfile::milvus()
            }
            SetupKind::QdrantHnsw => DbProfile::qdrant(),
            SetupKind::WeaviateHnsw => DbProfile::weaviate(),
            SetupKind::LancedbHnsw | SetupKind::LancedbIvf => DbProfile::lancedb(),
        }
    }

    /// Whether the index reads from storage during search (dashed lines in
    /// the paper's figures).
    pub fn is_storage_based(&self) -> bool {
        matches!(self, SetupKind::MilvusDiskann | SetupKind::LancedbIvf)
    }
}

impl std::fmt::Display for SetupKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build- and search-time parameters for one (setup × dataset) cell of the
/// paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedParams {
    /// IVF: number of clusters (`4√n`, the faiss guideline).
    pub nlist: usize,
    /// IVF: clusters probed per query.
    pub nprobe: usize,
    /// HNSW: degree parameter `M`.
    pub m: usize,
    /// HNSW: `efConstruction`.
    pub ef_construction: usize,
    /// HNSW: `efSearch`.
    pub ef_search: usize,
    /// DiskANN: graph degree bound `R`.
    pub r: usize,
    /// DiskANN: `search_list`.
    pub search_list: usize,
    /// DiskANN: `beam_width`.
    pub beam_width: usize,
}

impl TunedParams {
    /// Starting parameters for a dataset of `n` vectors, following the
    /// paper's §III-C rules (`nlist = 4√n`, `M = 16`, `efConstruction = 200`,
    /// `search_list = 10`). Search-time values are starting points for
    /// [`Setup::tune`].
    pub fn for_dataset(n: usize) -> TunedParams {
        TunedParams {
            nlist: IvfConfig::nlist_for(n),
            nprobe: 16,
            m: 16,
            ef_construction: 200,
            ef_search: 27,
            r: 64,
            search_list: 10,
            beam_width: 4,
        }
    }

    /// The [`SearchParams`] view of the tuned values.
    pub fn search_params(&self) -> SearchParams {
        SearchParams {
            nprobe: self.nprobe,
            ef_search: self.ef_search,
            search_list: self.search_list,
            beam_width: self.beam_width,
            io: IoStrategy::default(),
        }
    }
}

/// A runnable (database × index) setup bound to tuned parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Which of the seven configurations this is.
    pub kind: SetupKind,
    /// Tuned parameters.
    pub params: TunedParams,
    /// Build seed (varied for repeat-run error bars).
    pub seed: u64,
}

impl Setup {
    /// Creates a setup with parameters initialized from the dataset size.
    pub fn new(kind: SetupKind, n: usize) -> Setup {
        Setup {
            kind,
            params: TunedParams::for_dataset(n),
            seed: 0xBE7C4,
        }
    }

    /// The index this setup builds over `base` (the PQ shape of LanceDB-IVF
    /// follows the data). The benchmark harness shares one build among the
    /// setups whose specs have the same [`family`](IndexSpec::family).
    pub fn index_spec(&self, base: &Dataset) -> IndexSpec {
        let p = &self.params;
        let ivf = IvfConfig {
            nlist: p.nlist,
            seed: self.seed,
            ..IvfConfig::default()
        };
        let hnsw = HnswConfig {
            m: p.m,
            ef_construction: p.ef_construction,
            seed: self.seed,
        };
        match self.kind {
            SetupKind::MilvusIvf => IndexSpec::Ivf(ivf),
            // A graph build inserts its nodes in order, so a seed fixes the
            // artifact bytes on any machine — what the artifact cache and
            // the determinism audit rely on. Parallelism is one level up,
            // across whole (dataset × index) builds.
            SetupKind::MilvusHnsw | SetupKind::QdrantHnsw | SetupKind::WeaviateHnsw => {
                IndexSpec::Hnsw(hnsw)
            }
            // LanceDB's HNSW is scalar-quantized (paper §III-C), which is
            // why its efSearch tunes higher than the other databases'.
            SetupKind::LancedbHnsw => IndexSpec::HnswSq(hnsw),
            SetupKind::MilvusDiskann => IndexSpec::DiskAnn(DiskAnnConfig {
                graph: VamanaConfig {
                    r: p.r,
                    seed: self.seed,
                    ..VamanaConfig::default()
                },
                ..DiskAnnConfig::default()
            }),
            SetupKind::LancedbIvf => IndexSpec::IvfPq {
                config: ivf,
                m: default_pq_m(base.dim()),
                ksub: 256.min(base.len().saturating_sub(1)).max(2),
            },
        }
    }

    /// Builds the setup's index over `base`.
    ///
    /// # Errors
    ///
    /// Propagates index build errors.
    pub fn build_index(&self, base: &Dataset, metric: Metric) -> Result<Box<dyn VectorIndex>> {
        self.index_spec(base).build(base, metric)
    }

    /// Tunes the setup's search-time parameter upward until mean recall@10
    /// reaches `target` on the query set (or the parameter ladder is
    /// exhausted — LanceDB-IVF stops early exactly as in the paper, which
    /// reports its sub-target accuracy in parentheses). Returns the achieved
    /// recall.
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn tune(
        &mut self,
        index: &dyn VectorIndex,
        queries: &Dataset,
        truth: &GroundTruth,
        target: f64,
    ) -> Result<f64> {
        let k = truth.k();
        let ladder: Vec<usize> = match self.kind {
            SetupKind::MilvusIvf => vec![4, 8, 12, 16, 20, 25, 32, 40, 48, 64, 96, 128],
            SetupKind::LancedbIvf => vec![4, 8, 12, 16, 20, 25],
            SetupKind::MilvusDiskann => vec![10, 15, 20, 30, 40, 60, 80, 100],
            _ => vec![10, 14, 20, 27, 34, 41, 48, 56, 64, 80, 100, 128],
        };
        let mut achieved = 0.0;
        for &value in &ladder {
            self.apply_knob(value);
            achieved = self.recall(index, queries, truth, k)?;
            if achieved >= target {
                break;
            }
        }
        Ok(achieved)
    }

    /// Sets the setup's primary search knob (`nprobe`, `efSearch`, or
    /// `search_list`).
    pub fn apply_knob(&mut self, value: usize) {
        match self.kind {
            SetupKind::MilvusIvf | SetupKind::LancedbIvf => self.params.nprobe = value,
            SetupKind::MilvusDiskann => self.params.search_list = value,
            _ => self.params.ef_search = value,
        }
    }

    /// The current value of the primary search knob.
    pub fn knob(&self) -> usize {
        match self.kind {
            SetupKind::MilvusIvf | SetupKind::LancedbIvf => self.params.nprobe,
            SetupKind::MilvusDiskann => self.params.search_list,
            _ => self.params.ef_search,
        }
    }

    /// Mean recall@`k` of the setup on a query set.
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn recall(
        &self,
        index: &dyn VectorIndex,
        queries: &Dataset,
        truth: &GroundTruth,
        k: usize,
    ) -> Result<f64> {
        let ids = sann_index::search_ids(index, queries, k, &self.params.search_params())?;
        Ok(truth.mean_recall(&ids))
    }

    /// Collects the query traces of the whole query set at the current
    /// parameters (the input to the execution engine).
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn traces(
        &self,
        index: &dyn VectorIndex,
        queries: &Dataset,
        k: usize,
    ) -> Result<Vec<sann_index::QueryTrace>> {
        self.traces_with(index, queries, k, &self.params.search_params())
    }

    /// Like [`Setup::traces`] but with explicit [`SearchParams`] — the
    /// I/O design-space explorer collects traces per [`IoStrategy`].
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn traces_with(
        &self,
        index: &dyn VectorIndex,
        queries: &Dataset,
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<sann_index::QueryTrace>> {
        let mut traces = Vec::with_capacity(queries.len());
        for q in queries.iter() {
            traces.push(index.search(q, k, params)?.trace);
        }
        Ok(traces)
    }

    /// The dataset-size ratio fed to
    /// [`DbProfile::plan_builder`]: 1.0 for the family's small variant,
    /// 10.0 for the large one.
    pub fn size_ratio(spec: &DatasetSpec) -> f64 {
        if spec.name.ends_with("-l") {
            10.0
        } else {
            1.0
        }
    }
}

/// The plan compiler for a setup: the DB profile's architecture model
/// composed with the **scale-extrapolation** model.
///
/// Traces are collected on datasets `scale`× smaller than the paper's, but
/// per-query work in the measured systems does not shrink linearly with the
/// dataset. The compiled plans therefore multiply the data-dependent work by
/// `(1/scale)^γ` with a per-index-family exponent (IVF scans shrink slowest,
/// graph searches fastest), and LanceDB's on-disk posting lists replicate
/// reads by `(1/scale)^0.5` (list length ∝ n/nlist ∝ √n). Exponents are
/// fitted once against the paper's reported throughput/latency ratios (see
/// EXPERIMENTS.md) and are not re-tuned per figure.
///
/// `size_ratio` is 1.0 for a family's small dataset and 10.0 for the large
/// one; `scale` is the dataset scale relative to the paper (1.0 = paper
/// size, at which the extrapolation is the identity).
pub fn calibrated_plan_builder(
    kind: SetupKind,
    size_ratio: f64,
    scale: f64,
) -> sann_engine::PlanBuilder {
    let mut builder = kind.profile().plan_builder(size_ratio);
    let inv = (1.0 / scale.max(1e-12)).max(1.0);
    let (work, io) = match kind {
        SetupKind::MilvusIvf => (inv.powf(0.8), 1.0),
        SetupKind::LancedbIvf => (inv.powf(0.75), inv.powf(0.5)),
        SetupKind::MilvusDiskann => (inv.powf(0.5), 1.0),
        _ => (inv.powf(0.69), 1.0), // the HNSW setups
    };
    if kind == SetupKind::MilvusIvf {
        // Milvus parallelizes IVF scans more coarsely than graph searches;
        // modeled as a smaller fan-out (fitted so IVF tail latency sits
        // above DiskANN's, as in Fig. 3).
        builder = builder.with_intra_parallelism(2);
    }
    let fanout = builder.io_fanout() * (io.round().max(1.0) as usize);
    builder.with_work_multiplier(work).with_io_fanout(fanout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_datagen::EmbeddingModel;

    fn small_world() -> (Dataset, Dataset, GroundTruth) {
        let model = EmbeddingModel::new(32, 8, 123);
        let base = model.generate(2_000);
        let queries = model.generate_queries(25);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        (base, queries, gt)
    }

    #[test]
    fn names_round_trip() {
        for kind in SetupKind::all() {
            assert_eq!(SetupKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SetupKind::parse("pinecone"), None);
    }

    #[test]
    fn exactly_two_setups_are_storage_based() {
        let n = SetupKind::all()
            .iter()
            .filter(|k| k.is_storage_based())
            .count();
        assert_eq!(n, 2);
        assert!(SetupKind::MilvusDiskann.is_storage_based());
        assert!(SetupKind::LancedbIvf.is_storage_based());
    }

    #[test]
    fn memory_setups_tune_to_target() {
        let (base, queries, gt) = small_world();
        for kind in [
            SetupKind::MilvusIvf,
            SetupKind::MilvusHnsw,
            SetupKind::MilvusDiskann,
        ] {
            let mut setup = Setup::new(kind, base.len());
            let index = setup.build_index(&base, Metric::L2).unwrap();
            let recall = setup.tune(index.as_ref(), &queries, &gt, 0.9).unwrap();
            assert!(recall >= 0.9, "{kind} reached only {recall}");
        }
    }

    #[test]
    fn lancedb_ivf_stops_below_target() {
        // The paper reports LanceDB-IVF below the 0.9 target (0.64–0.73)
        // because its ladder is cut short for cost reasons.
        let (base, queries, gt) = small_world();
        let mut setup = Setup::new(SetupKind::LancedbIvf, base.len());
        let index = setup.build_index(&base, Metric::L2).unwrap();
        let recall = setup.tune(index.as_ref(), &queries, &gt, 0.9).unwrap();
        assert!(
            recall < 0.95,
            "PQ-without-rerank should not be near-perfect: {recall}"
        );
        assert!(recall > 0.2, "but should be usable: {recall}");
    }

    #[test]
    fn traces_cover_every_query() {
        let (base, queries, _) = small_world();
        let setup = Setup::new(SetupKind::MilvusDiskann, base.len());
        let index = setup.build_index(&base, Metric::L2).unwrap();
        let traces = setup.traces(index.as_ref(), &queries, 10).unwrap();
        assert_eq!(traces.len(), queries.len());
        assert!(
            traces.iter().all(|t| t.io_count() > 0),
            "DiskANN queries must read"
        );
    }

    #[test]
    fn knob_maps_to_the_right_parameter() {
        let mut ivf = Setup::new(SetupKind::MilvusIvf, 1000);
        ivf.apply_knob(42);
        assert_eq!(ivf.params.nprobe, 42);
        assert_eq!(ivf.knob(), 42);
        let mut hnsw = Setup::new(SetupKind::QdrantHnsw, 1000);
        hnsw.apply_knob(77);
        assert_eq!(hnsw.params.ef_search, 77);
        let mut dann = Setup::new(SetupKind::MilvusDiskann, 1000);
        dann.apply_knob(55);
        assert_eq!(dann.params.search_list, 55);
    }

    #[test]
    fn size_ratio_distinguishes_families() {
        assert_eq!(Setup::size_ratio(&sann_datagen::catalog::cohere_s()), 1.0);
        assert_eq!(Setup::size_ratio(&sann_datagen::catalog::cohere_l()), 10.0);
    }

    #[test]
    fn nlist_follows_faiss_rule() {
        let p = TunedParams::for_dataset(1_000_000);
        assert_eq!(p.nlist, 4_000);
    }

    #[test]
    fn build_index_is_deterministic_and_persistable() {
        // Every setup's index must build byte-identically run over run —
        // the invariant the artifact cache and determinism audit rest on —
        // and be the family the cache files it under.
        let model = EmbeddingModel::new(16, 4, 321);
        let base = model.generate(600);
        for kind in SetupKind::all() {
            let setup = Setup::new(kind, base.len());
            let a = setup.build_index(&base, Metric::L2).unwrap();
            let b = setup.build_index(&base, Metric::L2).unwrap();
            assert_eq!(a.kind(), setup.index_spec(&base).family(), "{kind}");
            let (ab, bb) = (a.persist_encode(), b.persist_encode());
            assert!(ab.is_some(), "{kind} must be persistable");
            assert_eq!(ab, bb, "{kind} build is not deterministic");
        }
    }
}
