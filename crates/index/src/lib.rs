//! Vector indexes: Flat, IVF, HNSW, and DiskANN — each built from scratch.
//!
//! Every index implements [`VectorIndex`]: searches return both the
//! approximate neighbors *and* a [`QueryTrace`] recording the work performed
//! (distance computations, PQ lookups, and — for storage-based indexes — the
//! exact block I/O requests with their dependency structure). The trace is
//! what the discrete-event engine in `sann-engine` replays to predict
//! latency, throughput, and device bandwidth; the neighbors are what recall
//! is scored on. Results are always exact algorithm outputs, never modeled.
//!
//! # Index inventory (paper §II-B)
//!
//! | Index | Placement | Paper usage |
//! |---|---|---|
//! | [`FlatIndex`] | memory | ground-truth / baseline |
//! | [`IvfIndex`] | memory | Milvus-IVF |
//! | [`IvfPqIndex`] | storage | LanceDB-IVF (product-quantized, posting lists on disk) |
//! | [`HnswIndex`] | memory | Milvus/Qdrant/Weaviate-HNSW |
//! | [`HnswSqIndex`] | memory | LanceDB-HNSW (scalar-quantized) |
//! | [`DiskAnnIndex`] | storage | Milvus-DiskANN (PQ in memory, graph + vectors on disk) |
//! | [`SpannIndex`] | storage | SPANN (§II-B's cluster-based alternative: centroids in memory, replicated posting lists on disk) |
//!
//! # Examples
//!
//! ```
//! use sann_index::{HnswConfig, HnswIndex, SearchParams, VectorIndex};
//! use sann_datagen::EmbeddingModel;
//!
//! let data = EmbeddingModel::new(32, 4, 9).generate(500);
//! let index = HnswIndex::build(&data, sann_core::Metric::L2, HnswConfig::default())?;
//! let out = index.search(data.row(3), 1, &SearchParams::default())?;
//! assert_eq!(out.neighbors[0].id, 3);
//! # Ok::<(), sann_core::Error>(())
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

mod batch;
pub mod diskann;
pub mod flat;
pub mod fresh;
pub mod hnsw;
pub mod hnsw_sq;
pub mod ivf;
pub mod layout;
pub mod paged;
pub mod persist;
pub mod spann;
pub mod trace;
pub mod vamana;

pub use diskann::{default_pq_m, DiskAnnConfig, DiskAnnIndex};
pub use flat::FlatIndex;
pub use fresh::{FreshConfig, FreshDiskAnnIndex};
pub use hnsw::{HnswConfig, HnswIndex};
pub use hnsw_sq::HnswSqIndex;
pub use ivf::{IvfConfig, IvfIndex, IvfPqIndex};
pub use layout::DiskLayout;
pub use paged::PagedLayout;
pub use spann::{SpannConfig, SpannIndex};
pub use trace::{CpuOp, IoReq, QueryTrace, SearchOutput, TraceStep};
pub use vamana::{VamanaConfig, VamanaGraph};

use sann_core::{Neighbor, Result};

/// Which on-device placement a storage-based search reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutKind {
    /// Sequential-by-id node records ([`DiskLayout`], today's default).
    #[default]
    Naive,
    /// Neighbor co-location into multi-sector pages ([`PagedLayout`]),
    /// with in-page duplicate-visit elimination.
    Paged,
}

/// One point of the I/O design space for storage-based beam search:
/// {naive, page-aligned} x {no-prefetch, look-ahead} x {phased, pipelined}.
///
/// The default (`Naive` / no look-ahead / phased) reproduces today's
/// behavior byte-for-byte; the other seven combinations are the design
/// points the `vdbbench explore` sweep measures against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStrategy {
    /// On-device placement of node records.
    pub layout: LayoutKind,
    /// Speculatively issue reads for the likely next-hop nodes while the
    /// current beam's distances are being computed.
    pub look_ahead: bool,
    /// Software-pipelined beam search: submit the whole beam
    /// asynchronously and compute on records as they arrive, so a hop
    /// costs max(beam flight, hop compute) instead of their sum.
    pub pipelined: bool,
}

impl IoStrategy {
    /// Short stable label (`naive+la+pipe` style) for tables and CSVs.
    pub fn label(&self) -> String {
        format!(
            "{}{}{}",
            match self.layout {
                LayoutKind::Naive => "naive",
                LayoutKind::Paged => "paged",
            },
            if self.look_ahead { "+la" } else { "" },
            if self.pipelined { "+pipe" } else { "" },
        )
    }

    /// All eight design points, baseline first, in a stable report order.
    pub fn all() -> Vec<IoStrategy> {
        let mut out = Vec::with_capacity(8);
        for layout in [LayoutKind::Naive, LayoutKind::Paged] {
            for look_ahead in [false, true] {
                for pipelined in [false, true] {
                    out.push(IoStrategy {
                        layout,
                        look_ahead,
                        pipelined,
                    });
                }
            }
        }
        out
    }
}

/// Search-time parameters, a superset across index families.
///
/// Indexes read the fields relevant to them and ignore the rest:
///
/// * IVF reads [`nprobe`](SearchParams::nprobe),
/// * HNSW reads [`ef_search`](SearchParams::ef_search),
/// * DiskANN reads [`search_list`](SearchParams::search_list),
///   [`beam_width`](SearchParams::beam_width) (the paper's §VI parameters)
///   and the [`io`](SearchParams::io) strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchParams {
    /// IVF: number of candidate clusters scanned.
    pub nprobe: usize,
    /// HNSW: candidate queue length (`efSearch`).
    pub ef_search: usize,
    /// DiskANN: candidate list size (`search_list` / `L`).
    pub search_list: usize,
    /// DiskANN: number of node reads issued in parallel per hop (`W`).
    pub beam_width: usize,
    /// Storage-based indexes: layout / prefetch / pipelining strategy.
    pub io: IoStrategy,
}

impl Default for SearchParams {
    /// The paper's Table II defaults: `nprobe` tuned per dataset (16 here),
    /// `efSearch` 27, `search_list` 10, `beam_width` 4, and the naive
    /// phased I/O strategy.
    fn default() -> Self {
        SearchParams {
            nprobe: 16,
            ef_search: 27,
            search_list: 10,
            beam_width: 4,
            io: IoStrategy::default(),
        }
    }
}

impl SearchParams {
    /// Sets `nprobe`.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe;
        self
    }

    /// Sets `ef_search`.
    pub fn with_ef_search(mut self, ef: usize) -> Self {
        self.ef_search = ef;
        self
    }

    /// Sets `search_list`.
    pub fn with_search_list(mut self, l: usize) -> Self {
        self.search_list = l;
        self
    }

    /// Sets `beam_width`.
    pub fn with_beam_width(mut self, w: usize) -> Self {
        self.beam_width = w;
        self
    }

    /// Sets the I/O strategy.
    pub fn with_io(mut self, io: IoStrategy) -> Self {
        self.io = io;
        self
    }
}

/// The interface every index implements.
///
/// The trait is object-safe; `sann-vdb`'s `IndexSpec::build` returns every
/// family as a `Box<dyn VectorIndex>`.
pub trait VectorIndex: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// A short name for reports (e.g. `"hnsw"`, `"diskann"`).
    fn kind(&self) -> &'static str;

    /// Whether searches touch simulated storage (true for DiskANN / IVF-PQ
    /// disk layouts).
    fn is_storage_based(&self) -> bool;

    /// Approximate `k`-nearest-neighbor search.
    ///
    /// Returns the neighbors closest-first plus the [`QueryTrace`] of the
    /// work performed.
    ///
    /// # Errors
    ///
    /// Returns [`sann_core::Error::DimensionMismatch`] when the query has the
    /// wrong dimensionality and [`sann_core::Error::InvalidParameter`] when
    /// parameters are out of range (e.g. `search_list < k`).
    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput>;

    /// Bytes of main memory the index occupies (used for the paper's
    /// memory-cost comparisons).
    fn memory_bytes(&self) -> u64;

    /// Bytes of storage the index occupies (0 for memory-based indexes).
    fn storage_bytes(&self) -> u64;

    /// Serializes the index into the self-describing artifact frame decoded
    /// by [`persist::decode`], or `None` for kinds that do not support
    /// persistence (those are rebuilt instead of cached).
    fn persist_encode(&self) -> Option<Vec<u8>> {
        None
    }

    /// The full-precision vectors the index holds, for the tests that check
    /// an index shares its dataset's buffer rather than copying it.
    #[cfg(test)]
    fn vectors(&self) -> Option<&sann_core::Dataset> {
        None
    }
}

/// Convenience: runs `search` for a batch of queries, returning ids per query
/// (the shape recall scoring expects).
///
/// # Errors
///
/// Propagates the first search error.
pub fn search_ids(
    index: &dyn VectorIndex,
    queries: &sann_core::Dataset,
    k: usize,
    params: &SearchParams,
) -> Result<Vec<Vec<u32>>> {
    let mut out = Vec::with_capacity(queries.len());
    for q in queries.iter() {
        let hits = index.search(q, k, params)?;
        out.push(hits.neighbors.iter().map(|n: &Neighbor| n.id).collect());
    }
    Ok(out)
}

/// The argument check every [`VectorIndex::search`] starts with: the query
/// has the index's dimensionality and `k` is positive.
pub(crate) fn check_query(query: &[f32], dim: usize, k: usize) -> Result<()> {
    if query.len() != dim {
        return Err(sann_core::Error::DimensionMismatch {
            expected: dim,
            actual: query.len(),
        });
    }
    if k == 0 {
        return Err(sann_core::Error::invalid_parameter("k", "must be positive"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::{Error, Metric};

    const DIM: usize = 16;

    fn fresh_config() -> FreshConfig {
        FreshConfig {
            graph: VamanaConfig {
                r: 16,
                ..VamanaConfig::default()
            },
            pq_m: 4,
            pq_ksub: 16,
            ..FreshConfig::default()
        }
    }

    /// One index of every family, built from `data`.
    fn families(data: &sann_core::Dataset) -> Vec<Box<dyn VectorIndex>> {
        let hnsw = HnswConfig::default();
        let ivf = IvfConfig::default().with_nlist(8);
        let fresh = fresh_config();
        let diskann = DiskAnnConfig {
            graph: fresh.graph,
            pq_m: 4,
            pq_ksub: 16,
        };
        vec![
            Box::new(FlatIndex::build(data, Metric::L2)),
            Box::new(IvfIndex::build(data, Metric::L2, ivf).unwrap()),
            Box::new(IvfPqIndex::build(data, ivf, 4, 16).unwrap()),
            Box::new(HnswIndex::build(data, Metric::L2, hnsw).unwrap()),
            Box::new(HnswSqIndex::build(data, Metric::L2, hnsw).unwrap()),
            Box::new(DiskAnnIndex::build(data, Metric::L2, diskann).unwrap()),
            Box::new(SpannIndex::build(data, Metric::L2, SpannConfig::default()).unwrap()),
            Box::new(FreshDiskAnnIndex::build(data, Metric::L2, fresh).unwrap()),
        ]
    }

    fn data() -> sann_core::Dataset {
        sann_datagen::EmbeddingModel::new(DIM, 4, 7).generate(300)
    }

    #[test]
    fn every_family_rejects_bad_queries_alike() {
        let data = data();
        let families = families(&data);
        let mut kinds: Vec<&str> = families.iter().map(|ix| ix.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 8, "one index per family: {kinds:?}");

        let params = SearchParams::default();
        let mismatch = |actual| Error::DimensionMismatch {
            expected: DIM,
            actual,
        };
        let zero_k = Error::invalid_parameter("k", "must be positive");
        for index in &families {
            let kind = index.kind();
            let err = |query: &[f32], k| index.search(query, k, &params).unwrap_err();
            assert_eq!(err(&[0.0; DIM - 1], 10), mismatch(DIM - 1), "{kind}: short");
            assert_eq!(err(&[0.0; DIM + 1], 10), mismatch(DIM + 1), "{kind}: long");
            assert_eq!(err(data.row(0), 0), zero_k, "{kind}: k = 0");
        }
    }

    /// Every family that keeps full-precision vectors keeps the buffer of
    /// the dataset it was built from, not a copy of it. IVF-PQ keeps only
    /// codes.
    #[test]
    fn every_family_shares_the_dataset_it_is_built_from() {
        let data = data();
        let ptr = data.as_flat().as_ptr();
        for index in families(&data) {
            let held = index.vectors().map(|v| v.as_flat().as_ptr());
            let expect = (index.kind() != "ivf-pq").then_some(ptr);
            assert_eq!(held, expect, "{}", index.kind());
        }
    }

    /// FreshDiskANN copies the rows on its first insert, not at build, and
    /// leaves the dataset it was built from as it was.
    #[test]
    fn fresh_diskann_stops_sharing_at_its_first_insert() {
        let data = data();
        let before = data.clone();
        let mut index = FreshDiskAnnIndex::build(&data, Metric::L2, fresh_config()).unwrap();
        let held = |ix: &FreshDiskAnnIndex| ix.vectors().unwrap().as_flat().as_ptr();
        assert_eq!(held(&index), data.as_flat().as_ptr());
        index.insert(&[0.5; DIM]).unwrap();
        assert_ne!(held(&index), data.as_flat().as_ptr());
        assert_eq!(index.vectors().unwrap().len(), data.len() + 1);
        let bits =
            |d: &sann_core::Dataset| d.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&data), bits(&before));
        assert_eq!(data.len(), 300);
    }
}
