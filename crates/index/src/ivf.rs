//! IVF (inverted file) indexes: memory-based IVF-Flat and the storage-based
//! IVF-PQ layout used by LanceDB in the paper.
//!
//! Build-time parameter `nlist` (number of K-means clusters) and search-time
//! parameter `nprobe` (clusters scanned per query) follow the paper's §II-B:
//! the query is compared against every centroid, the `nprobe` nearest
//! clusters are selected, and all vectors in those clusters are scored.

use crate::layout::range_reqs;
use crate::trace::{QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::buf::{ByteReader, ByteWriter};
use sann_core::{Dataset, Error, Metric, Result, TopK};
use sann_quant::{KMeans, KMeansModel, ProductQuantizer};

/// Build-time configuration for IVF indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of clusters. The paper follows the faiss guideline
    /// `nlist = 4 * sqrt(n)`; [`IvfConfig::nlist_for`] computes that.
    pub nlist: usize,
    /// K-means training sample cap (build cost control).
    pub train_sample: usize,
    /// K-means iterations.
    pub kmeans_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            nlist: 1024,
            train_sample: 100_000,
            kmeans_iters: 12,
            seed: 0x11F,
        }
    }
}

impl IvfConfig {
    /// The faiss guideline the paper uses: `nlist = 4 * sqrt(n)`.
    pub fn nlist_for(n: usize) -> usize {
        ((4.0 * (n as f64).sqrt()) as usize).max(1)
    }

    /// Returns a copy with `nlist` set.
    pub fn with_nlist(mut self, nlist: usize) -> Self {
        self.nlist = nlist;
        self
    }
}

/// Memory-based IVF-Flat index (the paper's Milvus-IVF setup).
#[derive(Debug)]
pub struct IvfIndex {
    data: Dataset,
    metric: Metric,
    kmeans: KMeansModel,
    lists: Vec<Vec<u32>>,
}

impl IvfIndex {
    /// Builds the index: K-means clustering plus inverted lists.
    ///
    /// # Errors
    ///
    /// Propagates clustering errors (empty dataset, `nlist > n`).
    pub fn build(data: &Dataset, metric: Metric, config: IvfConfig) -> Result<IvfIndex> {
        let nlist = config.nlist.min(data.len().max(1));
        let kmeans = KMeans::new(nlist)
            .with_seed(config.seed)
            .with_sample_limit(config.train_sample)
            .with_max_iters(config.kmeans_iters)
            .fit(data)?;
        let lists = lists_from_assignments(&kmeans.assignments, nlist);
        Ok(IvfIndex {
            data: data.clone(),
            metric,
            kmeans,
            lists,
        })
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    pub(crate) fn persist_payload(&self, w: &mut ByteWriter) {
        w.put_u8(self.metric.tag());
        self.data.encode_into(w);
        self.kmeans.encode_into(w);
    }

    pub(crate) fn from_persist(r: &mut ByteReader<'_>) -> Result<IvfIndex> {
        let metric = Metric::from_tag(r.get_u8()?)
            .ok_or_else(|| Error::Corrupt("ivf: unknown metric tag".into()))?;
        let data = Dataset::decode_from(r)?;
        let kmeans = KMeansModel::decode_from(r)?;
        if kmeans.assignments.len() != data.len() {
            return Err(Error::Corrupt("ivf: assignment count mismatch".into()));
        }
        let lists = lists_from_assignments(&kmeans.assignments, kmeans.centroids.len());
        Ok(IvfIndex {
            data,
            metric,
            kmeans,
            lists,
        })
    }
}

/// Rebuilds the inverted lists from k-means assignments (ids in id order per
/// list, exactly as the build path produces them).
fn lists_from_assignments(assignments: &[u32], nlist: usize) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); nlist];
    for (id, &c) in assignments.iter().enumerate() {
        lists[c as usize].push(id as u32);
    }
    lists
}

impl VectorIndex for IvfIndex {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn kind(&self) -> &'static str {
        "ivf"
    }

    fn is_storage_based(&self) -> bool {
        false
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.data.dim(), k)?;
        let nprobe = params.nprobe.clamp(1, self.lists.len());
        let mut trace = QueryTrace::new();

        // Stage 1: rank centroids.
        let probes = self.kmeans.nearest_n(query, nprobe);
        trace.push_compute(self.nlist() as u64, self.data.dim() as u32);

        // Stage 2: scan the selected posting lists.
        let mut topk = TopK::new(k);
        let mut scanned = 0u64;
        let mut dists = Vec::new();
        for &c in &probes {
            let list = &self.lists[c as usize];
            self.metric
                .distance_gather(query, &self.data, list, &mut dists);
            for (&id, &d) in list.iter().zip(&dists) {
                topk.push(id, d);
            }
            scanned += list.len() as u64;
        }
        trace.push_compute(scanned, self.data.dim() as u32);
        Ok(SearchOutput {
            neighbors: topk.into_sorted_vec(),
            trace,
        })
    }

    fn memory_bytes(&self) -> u64 {
        let vectors = (self.data.len() * self.data.row_bytes()) as u64;
        let centroids = (self.kmeans.centroids.len() * self.kmeans.centroids.row_bytes()) as u64;
        let lists = 4 * self.data.len() as u64;
        vectors + centroids + lists
    }

    fn storage_bytes(&self) -> u64 {
        0
    }

    fn persist_encode(&self) -> Option<Vec<u8>> {
        Some(crate::persist::frame(self.kind(), |w| {
            self.persist_payload(w)
        }))
    }
}

/// Storage-based IVF with product quantization (the paper's LanceDB-IVF
/// setup): centroids stay in memory, product-quantized posting lists live on
/// the simulated device and are read sequentially at query time.
///
/// Matching LanceDB's behaviour in the paper, results are ranked by ADC
/// distance without a full-precision rerank — which is why this setup tops
/// out at lower recall (Table II reports 0.64–0.73).
#[derive(Debug)]
pub struct IvfPqIndex {
    dim: usize,
    kmeans: KMeansModel,
    pq: ProductQuantizer,
    /// Per-list vector ids.
    lists: Vec<Vec<u32>>,
    /// Per-list PQ codes, parallel to `lists`.
    codes: Vec<Vec<u8>>,
    /// Byte offset of each posting list on the device.
    list_offsets: Vec<u64>,
    /// Bytes of each posting list on the device.
    list_bytes: Vec<u64>,
    total_storage: u64,
}

impl IvfPqIndex {
    /// Builds the index: K-means + PQ training + on-device posting lists.
    ///
    /// `pq_m` must divide the dataset dimensionality.
    ///
    /// # Errors
    ///
    /// Propagates clustering/PQ training errors.
    pub fn build(
        data: &Dataset,
        config: IvfConfig,
        pq_m: usize,
        pq_ksub: usize,
    ) -> Result<IvfPqIndex> {
        let nlist = config.nlist.min(data.len().max(1));
        let kmeans = KMeans::new(nlist)
            .with_seed(config.seed)
            .with_sample_limit(config.train_sample)
            .with_max_iters(config.kmeans_iters)
            .fit(data)?;
        let pq = ProductQuantizer::train(data, pq_m, pq_ksub, config.seed ^ 0x9AF1)?;
        let lists = lists_from_assignments(&kmeans.assignments, nlist);
        let m = pq.code_bytes();
        let encoded = pq.encode_all(data);
        let mut codes = Vec::with_capacity(nlist);
        for list in &lists {
            let mut c = Vec::with_capacity(list.len() * m);
            for &id in list {
                c.extend_from_slice(&encoded[id as usize * m..][..m]);
            }
            codes.push(c);
        }
        Ok(IvfPqIndex::assemble(data.dim(), kmeans, pq, lists, codes))
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Computes the on-device placement of the posting lists (stored back to
    /// back, each starting on a sector boundary) and assembles the index.
    fn assemble(
        dim: usize,
        kmeans: KMeansModel,
        pq: ProductQuantizer,
        lists: Vec<Vec<u32>>,
        codes: Vec<Vec<u8>>,
    ) -> IvfPqIndex {
        let entry_bytes = 4 + pq.code_bytes() as u64; // id + code
        let mut list_offsets = Vec::with_capacity(lists.len());
        let mut list_bytes = Vec::with_capacity(lists.len());
        let mut offset = 0u64;
        for list in &lists {
            let bytes = list.len() as u64 * entry_bytes;
            list_offsets.push(offset);
            list_bytes.push(bytes);
            offset += bytes.div_ceil(crate::layout::SECTOR_BYTES) * crate::layout::SECTOR_BYTES;
        }
        IvfPqIndex {
            dim,
            kmeans,
            pq,
            lists,
            codes,
            list_offsets,
            list_bytes,
            total_storage: offset,
        }
    }

    pub(crate) fn persist_payload(&self, w: &mut ByteWriter) {
        w.put_u32_le(self.dim as u32);
        self.kmeans.encode_into(w);
        self.pq.encode_into(w);
        for codes in &self.codes {
            w.put_u64_le(codes.len() as u64);
            w.put_slice(codes);
        }
    }

    pub(crate) fn from_persist(r: &mut ByteReader<'_>) -> Result<IvfPqIndex> {
        let dim = r.get_u32_le()? as usize;
        let kmeans = KMeansModel::decode_from(r)?;
        let pq = ProductQuantizer::decode_from(r)?;
        if pq.dim() != dim || kmeans.centroids.dim() != dim {
            return Err(Error::Corrupt("ivf-pq: dimension mismatch".into()));
        }
        let lists = lists_from_assignments(&kmeans.assignments, kmeans.centroids.len());
        let mut codes = Vec::with_capacity(lists.len());
        for list in &lists {
            let len = r.get_u64_le()? as usize;
            if len != list.len() * pq.code_bytes() {
                return Err(Error::Corrupt("ivf-pq: code block length mismatch".into()));
            }
            codes.push(r.take(len)?.to_vec());
        }
        Ok(IvfPqIndex::assemble(dim, kmeans, pq, lists, codes))
    }
}

impl VectorIndex for IvfPqIndex {
    fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn kind(&self) -> &'static str {
        "ivf-pq"
    }

    fn is_storage_based(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.dim, k)?;
        let nprobe = params.nprobe.clamp(1, self.lists.len());
        let mut trace = QueryTrace::new();

        let probes = self.kmeans.nearest_n(query, nprobe);
        trace.push_compute(self.nlist() as u64, self.dim as u32);

        // Building the ADC table costs ksub * m sub-distance evaluations,
        // equivalent to ksub full-dimension distances.
        let table = self.pq.distance_table(query);
        trace.push_compute(self.pq.ksub() as u64, self.dim as u32);

        let mut topk = TopK::new(k);
        let mut dists = Vec::new();
        for &c in &probes {
            let c = c as usize;
            // Read the posting list from the device (sequential requests).
            // IVF-PQ posting lists hold (id + PQ code) entries.
            trace.push_read(range_reqs(
                self.list_offsets[c],
                self.list_bytes[c],
                sann_obs::IoProvenance::PqCodes,
            ));
            let list = &self.lists[c];
            dists.resize(list.len(), 0.0);
            table.distance_rows(&self.codes[c], &mut dists);
            for (&id, &d) in list.iter().zip(&dists) {
                topk.push(id, d);
            }
            trace.push_pq_lookup(list.len() as u64, self.pq.m() as u32);
        }
        Ok(SearchOutput {
            neighbors: topk.into_sorted_vec(),
            trace,
        })
    }

    fn memory_bytes(&self) -> u64 {
        // Centroids only; codes live on the device.
        (self.kmeans.centroids.len() * self.kmeans.centroids.row_bytes()) as u64
    }

    fn storage_bytes(&self) -> u64 {
        self.total_storage
    }

    fn persist_encode(&self) -> Option<Vec<u8>> {
        Some(crate::persist::frame(self.kind(), |w| {
            self.persist_payload(w)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_datagen::{EmbeddingModel, GroundTruth};

    fn setup() -> (Dataset, Dataset, GroundTruth) {
        let model = EmbeddingModel::new(48, 12, 21);
        let base = model.generate(3_000);
        let queries = model.generate_queries(30);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        (base, queries, gt)
    }

    /// The probe ranking, one centroid at a time.
    fn probes_per_pair(kmeans: &KMeansModel, q: &[f32], nprobe: usize) -> Vec<u32> {
        let mut topk = TopK::new(nprobe);
        for (c, row) in kmeans.centroids.iter().enumerate() {
            topk.push(c as u32, sann_core::distance::l2_squared(q, row));
        }
        topk.into_sorted_vec().into_iter().map(|n| n.id).collect()
    }

    #[test]
    fn ivf_search_matches_per_pair_reference() {
        let (base, queries, _) = setup();
        let index =
            IvfIndex::build(&base, Metric::L2, IvfConfig::default().with_nlist(50)).unwrap();
        for q in queries.iter() {
            let got = index
                .search(q, 10, &SearchParams::default().with_nprobe(7))
                .unwrap();
            let mut trace = QueryTrace::new();
            trace.push_compute(50, 48);
            let mut topk = TopK::new(10);
            let mut scanned = 0u64;
            for c in probes_per_pair(&index.kmeans, q, 7) {
                for &id in &index.lists[c as usize] {
                    topk.push(id, Metric::L2.distance(q, base.row(id as usize)));
                    scanned += 1;
                }
            }
            trace.push_compute(scanned, 48);
            let want = SearchOutput {
                neighbors: topk.into_sorted_vec(),
                trace,
            };
            crate::batch::assert_identical(&got, &want);
        }
    }

    #[test]
    fn ivf_pq_search_matches_per_pair_reference() {
        let (base, queries, _) = setup();
        let index = IvfPqIndex::build(&base, IvfConfig::default().with_nlist(50), 8, 32).unwrap();
        for q in queries.iter() {
            let got = index
                .search(q, 10, &SearchParams::default().with_nprobe(7))
                .unwrap();
            let mut trace = QueryTrace::new();
            trace.push_compute(50, 48);
            let table = index.pq.distance_table(q);
            trace.push_compute(32, 48);
            let mut topk = TopK::new(10);
            for c in probes_per_pair(&index.kmeans, q, 7) {
                let c = c as usize;
                trace.push_read(range_reqs(
                    index.list_offsets[c],
                    index.list_bytes[c],
                    sann_obs::IoProvenance::PqCodes,
                ));
                for (i, &id) in index.lists[c].iter().enumerate() {
                    topk.push(id, table.distance_at(&index.codes[c], i));
                }
                trace.push_pq_lookup(index.lists[c].len() as u64, 8);
            }
            let want = SearchOutput {
                neighbors: topk.into_sorted_vec(),
                trace,
            };
            crate::batch::assert_identical(&got, &want);
        }
    }

    #[test]
    fn ivf_flat_reaches_high_recall_with_enough_probes() {
        let (base, queries, gt) = setup();
        let config = IvfConfig::default().with_nlist(IvfConfig::nlist_for(base.len()));
        let index = IvfIndex::build(&base, Metric::L2, config).unwrap();
        let params = SearchParams::default().with_nprobe(40);
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, &params).unwrap();
            total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
        }
        let recall = total / queries.len() as f64;
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn more_probes_cannot_reduce_recall() {
        let (base, queries, gt) = setup();
        let index =
            IvfIndex::build(&base, Metric::L2, IvfConfig::default().with_nlist(64)).unwrap();
        let mut last = 0.0;
        for nprobe in [1, 4, 16, 64] {
            let params = SearchParams::default().with_nprobe(nprobe);
            let mut total = 0.0;
            for (i, q) in queries.iter().enumerate() {
                let out = index.search(q, 10, &params).unwrap();
                total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
            }
            let recall = total / queries.len() as f64;
            assert!(
                recall >= last - 1e-9,
                "recall decreased: {last} -> {recall}"
            );
            last = recall;
        }
        assert!((last - 1.0).abs() < 1e-9, "nprobe == nlist must be exact");
    }

    #[test]
    fn ivf_trace_counts_probed_fraction() {
        let (base, queries, _) = setup();
        let index =
            IvfIndex::build(&base, Metric::L2, IvfConfig::default().with_nlist(100)).unwrap();
        let out = index
            .search(queries.row(0), 10, &SearchParams::default().with_nprobe(10))
            .unwrap();
        // Scanned vectors should be roughly nprobe/nlist of the dataset.
        let scanned = out.trace.compute_count() - 100; // minus centroid stage
        assert!(scanned > 0);
        assert!(
            (scanned as f64) < 0.6 * base.len() as f64,
            "scanned {scanned} of {}",
            base.len()
        );
        assert_eq!(out.trace.io_count(), 0, "memory index must not issue I/O");
    }

    #[test]
    fn ivf_pq_issues_sequential_reads() {
        let (base, queries, _) = setup();
        let config = IvfConfig::default().with_nlist(50);
        let index = IvfPqIndex::build(&base, config, 8, 64).unwrap();
        assert!(index.is_storage_based());
        let out = index
            .search(queries.row(0), 10, &SearchParams::default().with_nprobe(5))
            .unwrap();
        assert_eq!(out.trace.hops(), 5, "one read beam per probed list");
        assert!(out.trace.read_bytes() >= 5 * 4096);
        assert!(out.trace.pq_lookup_count() > 0);
        assert_eq!(index.len(), base.len());
    }

    #[test]
    fn ivf_pq_recall_is_lower_than_flat() {
        // PQ without rerank loses recall — the effect the paper reports for
        // LanceDB-IVF (0.64–0.73 vs 0.9 target).
        let (base, queries, gt) = setup();
        let config = IvfConfig::default().with_nlist(50);
        let flat = IvfIndex::build(&base, Metric::L2, config).unwrap();
        let pq = IvfPqIndex::build(&base, config, 16, 64).unwrap();
        let params = SearchParams::default().with_nprobe(50); // exhaustive probes
        let (mut r_flat, mut r_pq) = (0.0, 0.0);
        for (i, q) in queries.iter().enumerate() {
            r_flat += recall_at_k(
                gt.neighbors(i),
                &flat.search(q, 10, &params).unwrap().ids(),
                10,
            );
            r_pq += recall_at_k(
                gt.neighbors(i),
                &pq.search(q, 10, &params).unwrap().ids(),
                10,
            );
        }
        assert!(r_flat > r_pq, "flat {r_flat} should beat pq {r_pq}");
        assert!(r_pq / queries.len() as f64 > 0.3, "pq recall collapsed");
    }

    #[test]
    fn nlist_guideline_matches_faiss() {
        assert_eq!(IvfConfig::nlist_for(1_000_000), 4_000);
        assert_eq!(IvfConfig::nlist_for(10_000_000), 12_649);
    }

    #[test]
    fn memory_accounting_differs_by_placement() {
        let (base, _, _) = setup();
        let config = IvfConfig::default().with_nlist(50);
        let flat = IvfIndex::build(&base, Metric::L2, config).unwrap();
        let pq = IvfPqIndex::build(&base, config, 16, 64).unwrap();
        assert!(flat.memory_bytes() > pq.memory_bytes());
        assert_eq!(flat.storage_bytes(), 0);
        assert!(pq.storage_bytes() > 0);
    }
}
