//! SPANN — the cluster-based storage index (Chen et al., NeurIPS 2021),
//! described in the paper's §II-B as DiskANN's main storage-based
//! alternative.
//!
//! Memory holds the cluster centroids, themselves indexed by an HNSW graph
//! for fast candidate-cluster selection; the full-precision vectors live in
//! per-cluster *posting lists* on the device. Two design points distinguish
//! SPANN from IVF/DiskANN, and both shape its I/O profile:
//!
//! * **closure assignment**: a vector near a cluster border is replicated
//!   into every cluster whose centroid is within `(1 + epsilon)` of its
//!   nearest centroid distance (capped at [`SpannConfig::max_replicas`],
//!   8 in the SPANN paper) — recall improves, at the cost of space
//!   amplification on the device;
//! * **posting lists sized for one disk read**: lists are read sequentially
//!   in large requests, so SPANN issues *few large* reads where DiskANN
//!   issues *many dependent 4 KiB* reads.

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::layout::PostingLayout;
use crate::trace::{QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::{cast, Dataset, Error, Metric, Result, TopK};
use sann_quant::KMeans;

/// Build-time configuration for [`SpannIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannConfig {
    /// Target vectors per posting list before replication (controls
    /// `nlist = n / target_list_len`).
    pub target_list_len: usize,
    /// Closure-assignment slack: a vector joins every cluster with
    /// `d(v, c) <= (1 + epsilon) * d(v, nearest c)`.
    pub epsilon: f32,
    /// Replication cap per vector (SPANN uses 8).
    pub max_replicas: usize,
    /// Query-time pruning slack: skip candidate clusters farther than
    /// `(1 + query_epsilon)` times the nearest candidate.
    pub query_epsilon: f32,
    /// HNSW configuration for the in-memory centroid index.
    pub centroid_index: HnswConfig,
    /// K-means seed.
    pub seed: u64,
}

impl Default for SpannConfig {
    fn default() -> Self {
        SpannConfig {
            target_list_len: 32,
            epsilon: 0.15,
            max_replicas: 8,
            query_epsilon: 0.6,
            centroid_index: HnswConfig::default(),
            seed: 0x0005_9A44,
        }
    }
}

/// The SPANN index: centroids (+ HNSW over them) in memory, replicated
/// posting lists of full vectors on the device.
pub struct SpannIndex {
    data: Dataset,
    metric: Metric,
    centroids: Dataset,
    centroid_index: HnswIndex,
    /// Per-cluster member ids (with replication).
    lists: Vec<Vec<u32>>,
    /// Where the posting lists sit on the device.
    postings: PostingLayout,
    config: SpannConfig,
}

impl std::fmt::Debug for SpannIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpannIndex")
            .field("len", &self.data.len())
            .field("dim", &self.data.dim())
            .field("nlist", &self.lists.len())
            .field("replication", &self.replication_factor())
            .finish()
    }
}

impl SpannIndex {
    /// Builds the index: K-means centroids, closure assignment with
    /// replication, HNSW over centroids, and the on-device layout.
    ///
    /// # Errors
    ///
    /// Propagates clustering and centroid-index build errors.
    pub fn build(data: &Dataset, metric: Metric, config: SpannConfig) -> Result<SpannIndex> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if config.max_replicas == 0 {
            return Err(Error::invalid_parameter("max_replicas", "must be positive"));
        }
        if config.epsilon < 0.0 {
            return Err(Error::invalid_parameter("epsilon", "must be non-negative"));
        }
        let nlist = (data.len() / config.target_list_len.max(1)).max(1);
        let kmeans = KMeans::new(nlist)
            .with_seed(config.seed)
            .with_sample_limit(100_000)
            .with_max_iters(10)
            .fit(data)?;
        let centroids = kmeans.centroids.clone();

        // Closure assignment: replicate border vectors. Distances here are
        // squared L2, so the slack applies to the squared threshold.
        let slack = (1.0 + config.epsilon) * (1.0 + config.epsilon);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        let mut to_centroids = vec![0.0f32; nlist];
        for (id, row) in data.iter().enumerate() {
            Metric::L2.distance_rows(row, centroids.as_flat(), &mut to_centroids);
            let mut dists: Vec<(f32, usize)> = to_centroids
                .iter()
                .enumerate()
                .map(|(c, &d)| (d, c))
                .collect();
            dists.sort_by(|a, b| a.0.total_cmp(&b.0));
            let nearest = dists[0].0;
            for &(d, c) in dists.iter().take(config.max_replicas) {
                if d <= nearest * slack || c == dists[0].1 {
                    lists[c].push(cast::u32_from_usize(id));
                } else {
                    break;
                }
            }
        }

        let centroid_index = HnswIndex::build(&centroids, metric, config.centroid_index)?;

        // Posting-list entries are an id and a full vector.
        let entry_bytes = 4 + cast::u64_from_usize(data.row_bytes());
        let postings = PostingLayout::new(lists.iter().map(Vec::len), entry_bytes);
        Ok(SpannIndex {
            data: data.clone(),
            metric,
            centroids,
            centroid_index,
            lists,
            postings,
            config,
        })
    }

    /// Number of posting lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Mean copies per vector on the device (≥ 1; the space-amplification
    /// factor the paper's §II-B warns about).
    pub fn replication_factor(&self) -> f64 {
        let stored: usize = self.lists.iter().map(Vec::len).sum();
        cast::f64_from_usize(stored) / cast::f64_from_usize(self.data.len().max(1))
    }

    /// The build configuration.
    pub fn config(&self) -> &SpannConfig {
        &self.config
    }
}

impl VectorIndex for SpannIndex {
    #[cfg(test)]
    fn vectors(&self) -> Option<&Dataset> {
        Some(&self.data)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn kind(&self) -> &'static str {
        "spann"
    }

    fn is_storage_based(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.data.dim(), k)?;
        let nprobe = params.nprobe.clamp(1, self.lists.len());
        let mut trace = QueryTrace::new();

        // Stage 1: candidate clusters via the in-memory HNSW over centroids.
        let centroid_out = self.centroid_index.search(
            query,
            nprobe,
            &SearchParams::default().with_ef_search((2 * nprobe).max(32)),
        )?;
        trace.steps.extend(centroid_out.trace.steps);

        // Stage 2: query-time pruning (skip clusters much farther than the
        // nearest candidate), then read + scan the surviving posting lists.
        let nearest = centroid_out
            .neighbors
            .first()
            .map(|n| n.dist)
            .unwrap_or(0.0);
        let prune = (1.0 + self.config.query_epsilon) * (1.0 + self.config.query_epsilon);
        let mut topk = TopK::new(k);
        let mut scanned = 0u64;
        let mut dists = Vec::new();
        for cand in &centroid_out.neighbors {
            if cand.dist > nearest * prune {
                continue;
            }
            let c = cand.id as usize;
            if self.lists[c].is_empty() {
                continue;
            }
            let prov = sann_obs::IoProvenance::IvfPostingList;
            trace.push_read(self.postings.reqs(c, prov));
            let list = &self.lists[c];
            self.metric
                .distance_gather(query, &self.data, list, &mut dists);
            for (&id, &d) in list.iter().zip(&dists) {
                topk.push(id, d);
            }
            scanned += list.len() as u64;
        }
        trace.push_compute(scanned, cast::u32_from_usize(self.data.dim()));

        Ok(SearchOutput {
            neighbors: topk.into_sorted_vec(),
            trace,
        })
    }

    fn memory_bytes(&self) -> u64 {
        // Centroids + their HNSW graph.
        self.centroid_index.memory_bytes()
            + (self.centroids.len() * self.centroids.row_bytes()) as u64
    }

    fn storage_bytes(&self) -> u64 {
        self.postings.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_datagen::{EmbeddingModel, GroundTruth};

    fn build_small() -> (Dataset, Dataset, GroundTruth, SpannIndex) {
        let model = EmbeddingModel::new(64, 8, 123);
        let base = model.generate(3_000);
        let queries = model.generate_queries(30);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let index = SpannIndex::build(&base, Metric::L2, SpannConfig::default()).unwrap();
        (base, queries, gt, index)
    }

    fn recall(index: &SpannIndex, queries: &Dataset, gt: &GroundTruth, nprobe: usize) -> f64 {
        let params = SearchParams::default().with_nprobe(nprobe);
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, &params).unwrap();
            total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
        }
        total / queries.len() as f64
    }

    #[test]
    fn search_matches_per_pair_reference() {
        let (base, queries, _, index) = build_small();
        for q in queries.iter() {
            let got = index
                .search(q, 10, &SearchParams::default().with_nprobe(8))
                .unwrap();
            // Stage 1 is an HNSW search, pinned by that module's own test.
            let stage1 = index
                .centroid_index
                .search(q, 8, &SearchParams::default().with_ef_search(32))
                .unwrap();
            let mut trace = QueryTrace::new();
            trace.steps.extend(stage1.trace.steps);
            let slack = (1.0 + index.config.query_epsilon) * (1.0 + index.config.query_epsilon);
            let mut topk = TopK::new(10);
            let mut scanned = 0u64;
            for cand in &stage1.neighbors {
                let c = cand.id as usize;
                if cand.dist > stage1.neighbors[0].dist * slack || index.lists[c].is_empty() {
                    continue;
                }
                let prov = sann_obs::IoProvenance::IvfPostingList;
                trace.push_read(index.postings.reqs(c, prov));
                for &id in &index.lists[c] {
                    topk.push(id, Metric::L2.distance(q, base.row(id as usize)));
                    scanned += 1;
                }
            }
            trace.push_compute(scanned, 64);
            let want = SearchOutput {
                neighbors: topk.into_sorted_vec(),
                trace,
            };
            crate::batch::assert_identical(&got, &want);
        }
    }

    #[test]
    fn closure_assignment_matches_per_pair_reference() {
        // Every vector sits in the list of its nearest centroid, found one
        // centroid at a time.
        let (base, _, _, index) = build_small();
        for (id, row) in base.iter().enumerate().step_by(37) {
            let mut nearest = 0usize;
            let mut nearest_d = f32::INFINITY;
            for (c, centroid) in index.centroids.iter().enumerate() {
                let d = sann_core::distance::l2_squared(row, centroid);
                if d < nearest_d {
                    nearest_d = d;
                    nearest = c;
                }
            }
            assert!(index.lists[nearest].contains(&(id as u32)), "vector {id}");
        }
    }

    #[test]
    fn reaches_high_recall() {
        let (_, queries, gt, index) = build_small();
        let r = recall(&index, &queries, &gt, 16);
        assert!(r > 0.9, "recall {r} at nprobe=16");
    }

    #[test]
    fn replication_amplifies_space() {
        let (base, _, _, index) = build_small();
        let factor = index.replication_factor();
        assert!(factor > 1.05, "closure assignment must replicate: {factor}");
        assert!(factor <= 8.0, "replication is capped at 8: {factor}");
        let raw = (base.len() * base.row_bytes()) as u64;
        assert!(
            index.storage_bytes() > raw,
            "space amplification on the device"
        );
    }

    #[test]
    fn reads_are_large_and_few_compared_to_diskann() {
        // The paper's §II-B contrast: cluster-based indexes fit the access
        // granularity (few large sequential reads); graph-based indexes
        // issue many dependent 4 KiB reads.
        let (base, queries, _, spann) = build_small();
        let diskann = crate::DiskAnnIndex::build(
            &base,
            Metric::L2,
            crate::DiskAnnConfig {
                graph: crate::VamanaConfig {
                    r: 32,
                    ..Default::default()
                },
                pq_m: 16,
                pq_ksub: 64,
            },
        )
        .unwrap();
        let q = queries.row(0);
        let s_out = spann
            .search(q, 10, &SearchParams::default().with_nprobe(8))
            .unwrap();
        let d_out = diskann
            .search(q, 10, &SearchParams::default().with_search_list(30))
            .unwrap();
        let s_mean_req = s_out.trace.read_bytes() as f64 / s_out.trace.io_count().max(1) as f64;
        let d_mean_req = d_out.trace.read_bytes() as f64 / d_out.trace.io_count().max(1) as f64;
        assert!(
            s_mean_req > 2.0 * d_mean_req,
            "spann mean request {s_mean_req} should dwarf diskann {d_mean_req}"
        );
        assert!(
            s_out.trace.hops() < d_out.trace.hops(),
            "spann has no read-after-read dependency chain"
        );
    }

    #[test]
    fn memory_holds_centroids_not_vectors() {
        let (base, _, _, index) = build_small();
        let raw = (base.len() * base.row_bytes()) as u64;
        assert!(
            index.memory_bytes() < raw / 4,
            "only centroids stay in memory"
        );
    }

    #[test]
    fn more_probes_help_recall() {
        let (_, queries, gt, index) = build_small();
        let low = recall(&index, &queries, &gt, 2);
        let high = recall(&index, &queries, &gt, 32);
        assert!(high >= low, "{low} -> {high}");
    }

    #[test]
    fn rejects_bad_build_configs() {
        let tiny = EmbeddingModel::new(8, 2, 1).generate(50);
        assert!(SpannIndex::build(
            &tiny,
            Metric::L2,
            SpannConfig {
                max_replicas: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(SpannIndex::build(
            &tiny,
            Metric::L2,
            SpannConfig {
                epsilon: -1.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(
            SpannIndex::build(&Dataset::with_dim(4), Metric::L2, SpannConfig::default()).is_err()
        );
    }
}
