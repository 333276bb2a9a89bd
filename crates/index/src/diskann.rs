//! DiskANN: the storage-based graph index (Subramanya et al., NeurIPS 2019),
//! as deployed by Milvus in the paper.
//!
//! Memory holds only product-quantized codes (used to rank candidates);
//! the Vamana graph *and* the full-precision vectors live on the device in
//! sector-aligned node records ([`crate::layout::DiskLayout`]). Search is
//! *beam search*: each hop fetches the `W` (`beam_width`) closest unvisited
//! candidates' node records in one batch of parallel 4 KiB reads, reranks
//! the fetched vectors exactly, and expands their neighbors via PQ lookups
//! into a candidate list of length `L` (`search_list`). `W = 1` degenerates
//! to classic best-first search; the paper's §VI studies both parameters.

use crate::batch::Batch;
use crate::layout::DiskLayout;
use crate::paged::PagedLayout;
use crate::trace::{CpuOp, IoReq, QueryTrace, SearchOutput};
use crate::vamana::{VamanaConfig, VamanaGraph};
use crate::{IoStrategy, LayoutKind, SearchParams, VectorIndex};
use sann_core::buf::{ByteReader, ByteWriter};
use sann_core::{cast, Dataset, Error, Metric, Result, TopK};
use sann_quant::ProductQuantizer;

/// Build-time configuration for [`DiskAnnIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskAnnConfig {
    /// Vamana graph parameters.
    pub graph: VamanaConfig,
    /// PQ sub-spaces; 0 means `dim / 8` (96-byte codes for 768-d vectors —
    /// denser than DiskANN's typical 32–64 bytes because the synthetic
    /// datasets have tighter clusters than SIFT/Cohere, see DESIGN.md).
    /// Must divide `dim` when nonzero.
    pub pq_m: usize,
    /// PQ centroids per sub-space.
    pub pq_ksub: usize,
}

impl Default for DiskAnnConfig {
    fn default() -> Self {
        DiskAnnConfig {
            graph: VamanaConfig::default(),
            pq_m: 0,
            pq_ksub: 256,
        }
    }
}

/// The word of the persisted frame that once carried the index region's
/// device offset. Every build placed the region at 0, so 0 is what is
/// written and the only value read back.
const RESERVED_WORD: u64 = 0;

/// The storage-based DiskANN index.
pub struct DiskAnnIndex {
    /// Full-precision vectors: conceptually on disk inside the node records;
    /// kept here so "reading a node" can return real data.
    data: Dataset,
    metric: Metric,
    graph: VamanaGraph,
    pq: ProductQuantizer,
    /// In-memory PQ codes, `n × pq_m` bytes (the index's memory footprint).
    codes: Vec<u8>,
    layout: DiskLayout,
    /// Alternative page-aligned placement of the same records
    /// ([`LayoutKind::Paged`]); rebuilt deterministically from the graph, so
    /// the persisted artifact format is unchanged.
    paged: PagedLayout,
}

impl std::fmt::Debug for DiskAnnIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskAnnIndex")
            .field("len", &self.data.len())
            .field("dim", &self.data.dim())
            .field("r", &self.graph.r())
            .field("pq_m", &self.pq.m())
            .field("node_bytes", &self.layout.node_bytes())
            .finish()
    }
}

impl DiskAnnIndex {
    /// Builds the index: Vamana graph, PQ codebooks + codes, disk layout.
    ///
    /// # Errors
    ///
    /// Propagates graph and PQ training errors; rejects a `pq_m` that does
    /// not divide the dataset dimensionality.
    pub fn build(data: &Dataset, metric: Metric, config: DiskAnnConfig) -> Result<DiskAnnIndex> {
        let (pq_m, ksub) = pq_shape(data, config.pq_m, config.pq_ksub)?;
        let graph = VamanaGraph::build(data, metric, config.graph)?;
        let (pq, codes) =
            ProductQuantizer::train_and_encode(data, pq_m, ksub, config.graph.seed ^ 0xD1)?;
        Ok(DiskAnnIndex::assemble(
            data.clone(),
            metric,
            graph,
            pq,
            codes,
        ))
    }

    /// Places the node records on the device, in both layouts, and
    /// assembles the index.
    fn assemble(
        data: Dataset,
        metric: Metric,
        graph: VamanaGraph,
        pq: ProductQuantizer,
        codes: Vec<u8>,
    ) -> DiskAnnIndex {
        let node_bytes = node_record_bytes(data.dim(), graph.r());
        let layout = DiskLayout::new(cast::u64_from_usize(data.len()), node_bytes);
        let paged = PagedLayout::new(&graph, node_bytes);
        DiskAnnIndex {
            data,
            metric,
            graph,
            pq,
            codes,
            layout,
            paged,
        }
    }

    /// The on-device layout (offsets/requests of node records).
    pub fn layout(&self) -> &DiskLayout {
        &self.layout
    }

    /// The underlying Vamana graph.
    pub fn graph(&self) -> &VamanaGraph {
        &self.graph
    }

    /// PQ code length in bytes.
    pub fn pq_m(&self) -> usize {
        self.pq.m()
    }

    /// The search entry point (graph medoid).
    pub fn medoid(&self) -> u32 {
        self.graph.medoid()
    }

    pub(crate) fn persist_payload(&self, w: &mut ByteWriter) {
        w.put_u8(self.metric.tag());
        w.put_u64_le(RESERVED_WORD);
        self.data.encode_into(w);
        self.graph.encode_into(w);
        self.pq.encode_into(w);
        w.put_count_u64(self.codes.len());
        w.put_slice(&self.codes);
    }

    pub(crate) fn from_persist(
        r: &mut ByteReader<'_>,
        base: Option<&Dataset>,
    ) -> Result<DiskAnnIndex> {
        let metric = Metric::from_tag(r.get_u8()?)
            .ok_or_else(|| Error::Corrupt("diskann: unknown metric tag".into()))?;
        if r.get_u64_le()? != RESERVED_WORD {
            return Err(Error::Corrupt("diskann: reserved word is not 0".into()));
        }
        let data = Dataset::decode_onto(r, base)?;
        let graph = VamanaGraph::decode_from(r)?;
        let pq = ProductQuantizer::decode_from(r)?;
        let len = r.get_count_u64("diskann codes", 1)?;
        if graph.len() != data.len() || pq.dim() != data.dim() || len != data.len() * pq.m() {
            return Err(Error::Corrupt("diskann: component shape mismatch".into()));
        }
        let codes = r.take(len)?.to_vec();
        Ok(DiskAnnIndex::assemble(data, metric, graph, pq, codes))
    }
}

/// The default PQ code length: one byte per 8 dimensions, rounded down to a
/// divisor of `dim`.
pub fn default_pq_m(dim: usize) -> usize {
    let target = (dim / 8).max(1);
    (1..=target)
        .rev()
        .find(|&m| dim.is_multiple_of(m))
        .unwrap_or(1)
}

/// The PQ shape `(m, ksub)` of a DiskANN-family build over `data`: `pq_m`
/// of 0 selects [`default_pq_m`], and `pq_ksub` is clamped to what the
/// dataset can train.
///
/// # Errors
///
/// Rejects a `pq_m` that does not divide the dataset dimensionality.
pub(crate) fn pq_shape(data: &Dataset, pq_m: usize, pq_ksub: usize) -> Result<(usize, usize)> {
    let dim = data.dim();
    let m = if pq_m == 0 { default_pq_m(dim) } else { pq_m };
    if !dim.is_multiple_of(m) {
        return Err(Error::invalid_parameter(
            "pq_m",
            format!("{m} must divide dim {dim}"),
        ));
    }
    Ok((m, pq_ksub.min(data.len().max(2) - 1).clamp(2, 256)))
}

/// Bytes of one node record: full vector + degree + `r` neighbor slots.
pub(crate) fn node_record_bytes(dim: usize, r: usize) -> u64 {
    cast::u64_from_usize(dim * 4 + 4 + r * 4)
}

/// Candidate list entry during beam search.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: u32,
    pq_dist: f32,
    visited: bool,
}

/// Per-query record of what is already in memory, at the granularity of the
/// active layout: node records for [`LayoutKind::Naive`], whole pages for
/// [`LayoutKind::Paged`]. This is where the paged layout's in-page
/// duplicate-visit elimination and the look-ahead prefetcher's re-served
/// fetches are decided.
struct FetchedSet {
    kind: LayoutKind,
    set: Vec<bool>,
}

impl FetchedSet {
    fn new(ix: &DiskAnnIndex, strat: IoStrategy) -> FetchedSet {
        match strat.layout {
            LayoutKind::Naive => FetchedSet {
                kind: LayoutKind::Naive,
                set: vec![false; ix.data.len()],
            },
            LayoutKind::Paged => FetchedSet {
                kind: LayoutKind::Paged,
                set: vec![false; cast::usize_from_u64(ix.paged.n_pages())],
            },
        }
    }

    /// Marks record or page `slot` fetched, and returns whether it was not
    /// fetched before. The caller got `slot` from the layout, which rejects
    /// an id past the last node, so it is always in the set.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn first_fetch(&mut self, slot: u64) -> bool {
        let fetched = usize::try_from(slot).ok().and_then(|i| self.set.get_mut(i));
        debug_assert!(fetched.is_some(), "slot {slot} past the fetched set");
        fetched.is_some_and(|f| !std::mem::replace(f, true))
    }

    /// Queues the reads that must complete before node `id` can be visited
    /// this hop. Already-fetched records cost nothing; under the paged
    /// layout a second frontier node on a page already queued *this beam*
    /// only bumps that request's needed bytes.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn demand(&mut self, ix: &DiskAnnIndex, id: u64, reqs: &mut Vec<IoReq>) -> Result<()> {
        let prov = sann_obs::IoProvenance::GraphAdjacency;
        match self.kind {
            LayoutKind::Naive => {
                let node_reqs = ix.layout.node_reqs(id, prov)?;
                if self.first_fetch(id) {
                    reqs.extend(node_reqs);
                }
            }
            LayoutKind::Paged => {
                let page = ix.paged.page_of(id)?;
                if self.first_fetch(u64::from(page)) {
                    reqs.push(ix.paged.page_req(page, 1, prov));
                } else if let Some(r) = reqs
                    .iter_mut()
                    .find(|r| r.offset == ix.paged.page_offset(page))
                {
                    // Queued earlier in this very beam: one fetch serves
                    // both visits, and both records' bytes are needed.
                    r.needed = r
                        .needed
                        .saturating_add(sann_core::cast::u32_from_u64(ix.paged.node_bytes()))
                        .min(r.len);
                }
                // Otherwise the page arrived on an earlier hop (or by
                // prefetch): the visit is free — the elimination case.
            }
        }
        Ok(())
    }

    /// Queues a speculative read for node `id` unless its record (or page)
    /// is already in memory or already queued.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn speculate(&mut self, ix: &DiskAnnIndex, id: u64, out: &mut Vec<IoReq>) -> Result<()> {
        let prov = sann_obs::IoProvenance::GraphAdjacency;
        match self.kind {
            LayoutKind::Naive => {
                let node_reqs = ix.layout.node_reqs(id, prov)?;
                if self.first_fetch(id) {
                    out.extend(node_reqs);
                }
            }
            LayoutKind::Paged => {
                let page = ix.paged.page_of(id)?;
                if self.first_fetch(u64::from(page)) {
                    out.push(ix.paged.page_req(page, 1, prov));
                }
            }
        }
        Ok(())
    }
}

impl VectorIndex for DiskAnnIndex {
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
        "diskann"
    }

    fn is_storage_based(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        let dim = self.data.dim();
        crate::check_query(query, dim, k)?;
        let l = params.search_list.max(k);
        let w = params.beam_width.max(1);
        let strat = params.io;
        let mut trace = QueryTrace::new();

        // Building the ADC table costs ksub sub-distance rows ≈ ksub
        // full-dimension distance evaluations.
        let table = self.pq.distance_table(query);
        trace.push_compute(self.pq.ksub() as u64, cast::u32_from_usize(dim));

        let mut cands: Vec<Candidate> = Vec::with_capacity(l + self.graph.r());
        let start = self.graph.medoid();
        cands.push(Candidate {
            id: start,
            pq_dist: table.distance_at(&self.codes, start as usize),
            visited: false,
        });
        trace.push_pq_lookup(1, cast::u32_from_usize(self.pq.m()));

        // Exact distances of every fetched (visited) node, for final rerank.
        let mut exact = TopK::new(l.max(k));
        let mut exact_dists = Vec::new();
        let mut batch = Batch::default();
        batch.mark.reset(self.data.len());
        batch.mark.insert(start);

        // What is already in memory from earlier (possibly speculative)
        // fetches. Paged layout tracks whole pages — the co-location win;
        // the naive layout only ever re-serves look-ahead prefetches.
        let mut fetched = FetchedSet::new(self, strat);

        loop {
            // Frontier: up to W closest unvisited candidates within the top-L.
            let mut frontier: Vec<u32> = Vec::with_capacity(w);
            for c in cands.iter_mut().take(l) {
                if !c.visited {
                    c.visited = true;
                    frontier.push(c.id);
                    if frontier.len() == w {
                        break;
                    }
                }
            }
            if frontier.is_empty() {
                break;
            }

            // One beam: every frontier record not already in memory, fetched
            // in parallel (page-granular and in-beam-deduplicated under the
            // paged layout).
            let mut reqs = Vec::with_capacity(frontier.len());
            for &id in &frontier {
                fetched.demand(self, u64::from(id), &mut reqs)?;
            }

            // Look-ahead: predict the next frontier and issue its reads
            // speculatively while this hop's distances are computed. A
            // speculated node only wastes its read if it is later displaced
            // from the top-L (anything that stays gets visited before the
            // loop ends), so prediction is confidence-gated: wait until the
            // candidate list is full (early hops churn the most) and only
            // trust unvisited candidates ranked in the top half — a
            // displacement from there needs L/2 closer nodes to arrive.
            let mut prefetch: Vec<IoReq> = Vec::new();
            if strat.look_ahead && cands.len() >= l {
                let mut predicted = 0usize;
                for c in cands.iter().take(l / 2) {
                    if c.visited {
                        continue;
                    }
                    fetched.speculate(self, u64::from(c.id), &mut prefetch)?;
                    predicted += 1;
                    if predicted == w {
                        break;
                    }
                }
            }

            // Pipelined search submits the whole beam asynchronously and
            // computes on records as they arrive, so the hop costs
            // max(beam flight, hop compute) instead of their sum; phased
            // search blocks on the whole beam before any compute. Prefetch
            // requests always ride in the overlapped portion.
            let mut inflight = if strat.pipelined {
                std::mem::take(&mut reqs)
            } else {
                Vec::new()
            };
            inflight.append(&mut prefetch);
            trace.push_read(reqs);

            // The fetched records contain the full vectors (exact rerank) and
            // the adjacency lists (expansion via PQ).
            let mut pq_lookups = 0u64;
            self.metric
                .distance_gather(query, &self.data, &frontier, &mut exact_dists);
            for (&id, &exact_d) in frontier.iter().zip(&exact_dists) {
                exact.push(id, exact_d);
                // Replace the candidate's PQ estimate with the exact distance
                // so subsequent frontier picks rank against sharp values.
                if let Some(pos) = cands.iter().position(|c| c.id == id) {
                    cands.remove(pos);
                    let at = cands.partition_point(|x| x.pq_dist <= exact_d);
                    cands.insert(
                        at,
                        Candidate {
                            id,
                            pq_dist: exact_d,
                            visited: true,
                        },
                    );
                }
                batch.take_unseen(self.graph.neighbors(id));
                table.distance_gather(&self.codes, &batch.ids, &mut batch.dists);
                pq_lookups += batch.ids.len() as u64;
                for (nb, d) in batch.scored() {
                    insert_candidate(
                        &mut cands,
                        Candidate {
                            id: nb,
                            pq_dist: d,
                            visited: false,
                        },
                        l,
                    );
                }
            }
            // Phased with nothing in flight, this is two plain CPU steps.
            trace.push_overlapped(
                inflight,
                &[
                    CpuOp::Compute {
                        count: frontier.len() as u64,
                        dim: cast::u32_from_usize(dim),
                    },
                    CpuOp::PqLookup {
                        count: pq_lookups,
                        m: cast::u32_from_usize(self.pq.m()),
                    },
                ],
            );
        }

        let mut neighbors = exact.into_sorted_vec();
        neighbors.truncate(k);
        Ok(SearchOutput { neighbors, trace })
    }

    fn memory_bytes(&self) -> u64 {
        // PQ codes + codebooks; full vectors and the graph live on disk.
        let codes = self.codes.len() as u64;
        let codebooks = (self.pq.m() * self.pq.ksub() * (self.data.dim() / self.pq.m()) * 4) as u64;
        codes + codebooks
    }

    fn storage_bytes(&self) -> u64 {
        self.layout.total_bytes()
    }

    fn persist_encode(&self) -> Option<Vec<u8>> {
        Some(crate::persist::frame(self.kind(), |w| {
            self.persist_payload(w)
        }))
    }
}

/// Inserts into a distance-sorted bounded candidate list. Keeps at most
/// `l` *unvisited-or-visited* entries beyond which the tail is truncated
/// (with a small slack so visited entries do not immediately evict fresh
/// candidates).
fn insert_candidate(cands: &mut Vec<Candidate>, c: Candidate, l: usize) {
    let pos = cands.partition_point(|x| x.pq_dist <= c.pq_dist);
    cands.insert(pos, c);
    let cap = l + l / 2 + 1;
    if cands.len() > cap {
        cands.truncate(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_datagen::{EmbeddingModel, GroundTruth};

    fn build_small() -> (Dataset, Dataset, GroundTruth, DiskAnnIndex) {
        let model = EmbeddingModel::new(64, 8, 55);
        let base = model.generate(2_000);
        let queries = model.generate_queries(30);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let config = DiskAnnConfig {
            graph: VamanaConfig {
                r: 32,
                ..VamanaConfig::default()
            },
            pq_m: 32,
            pq_ksub: 64,
        };
        let index = DiskAnnIndex::build(&base, Metric::L2, config).unwrap();
        (base, queries, gt, index)
    }

    #[test]
    fn build_persists_what_training_then_encoding_persists() {
        // The codes come from the PQ fits' last assignments: the index must
        // be byte for byte the one `train` then `encode_all` assembles.
        let data = EmbeddingModel::new(32, 4, 7).generate(300);
        for (pq_m, pq_ksub) in [(4, 16), (8, 256), (0, 5)] {
            let config = DiskAnnConfig {
                graph: VamanaConfig {
                    r: 16,
                    l_build: 32,
                    ..VamanaConfig::default()
                },
                pq_m,
                pq_ksub,
            };
            let got = DiskAnnIndex::build(&data, Metric::L2, config).unwrap();
            let (m, ksub) = pq_shape(&data, pq_m, pq_ksub).unwrap();
            let graph = VamanaGraph::build(&data, Metric::L2, config.graph).unwrap();
            let pq = ProductQuantizer::train(&data, m, ksub, config.graph.seed ^ 0xD1).unwrap();
            let codes = pq.encode_all(&data);
            let want = DiskAnnIndex::assemble(data.clone(), Metric::L2, graph, pq, codes);
            assert!(
                got.persist_encode() == want.persist_encode(),
                "pq_m={pq_m} pq_ksub={pq_ksub}"
            );
        }
    }

    fn mean_recall(
        index: &DiskAnnIndex,
        queries: &Dataset,
        gt: &GroundTruth,
        params: &SearchParams,
    ) -> f64 {
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, params).unwrap();
            total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
        }
        total / queries.len() as f64
    }

    /// The search as it was before the batched kernels: one exact distance
    /// and one PQ lookup at a time, in frontier and adjacency order.
    fn search_per_pair(
        ix: &DiskAnnIndex,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> SearchOutput {
        let dim = ix.data.dim();
        let l = params.search_list.max(k);
        let w = params.beam_width.max(1);
        let strat = params.io;
        let mut trace = QueryTrace::new();
        let table = ix.pq.distance_table(query);
        trace.push_compute(ix.pq.ksub() as u64, dim as u32);
        let mut seen = vec![false; ix.data.len()];
        let start = ix.graph.medoid();
        seen[start as usize] = true;
        let mut cands = vec![Candidate {
            id: start,
            pq_dist: table.distance_at(&ix.codes, start as usize),
            visited: false,
        }];
        trace.push_pq_lookup(1, ix.pq.m() as u32);
        let mut exact = TopK::new(l.max(k));
        let mut fetched = FetchedSet::new(ix, strat);
        loop {
            let mut frontier: Vec<u32> = Vec::new();
            for c in cands.iter_mut().take(l) {
                if !c.visited {
                    c.visited = true;
                    frontier.push(c.id);
                    if frontier.len() == w {
                        break;
                    }
                }
            }
            if frontier.is_empty() {
                break;
            }
            let mut reqs = Vec::new();
            for &id in &frontier {
                fetched.demand(ix, u64::from(id), &mut reqs).unwrap();
            }
            let mut prefetch: Vec<IoReq> = Vec::new();
            if strat.look_ahead && cands.len() >= l {
                for c in cands.iter().take(l / 2).filter(|c| !c.visited).take(w) {
                    fetched
                        .speculate(ix, u64::from(c.id), &mut prefetch)
                        .unwrap();
                }
            }
            let mut inflight = if strat.pipelined {
                std::mem::take(&mut reqs)
            } else {
                Vec::new()
            };
            inflight.append(&mut prefetch);
            trace.push_read(reqs);
            let mut pq_lookups = 0u64;
            for &id in &frontier {
                let exact_d = ix.metric.distance(query, ix.data.row(id as usize));
                exact.push(id, exact_d);
                if let Some(pos) = cands.iter().position(|c| c.id == id) {
                    cands.remove(pos);
                    let at = cands.partition_point(|x| x.pq_dist <= exact_d);
                    let visited = Candidate {
                        id,
                        pq_dist: exact_d,
                        visited: true,
                    };
                    cands.insert(at, visited);
                }
                for &nb in ix.graph.neighbors(id) {
                    if std::mem::replace(&mut seen[nb as usize], true) {
                        continue;
                    }
                    let unvisited = Candidate {
                        id: nb,
                        pq_dist: table.distance_at(&ix.codes, nb as usize),
                        visited: false,
                    };
                    pq_lookups += 1;
                    insert_candidate(&mut cands, unvisited, l);
                }
            }
            let compute = CpuOp::Compute {
                count: frontier.len() as u64,
                dim: dim as u32,
            };
            let lookup = CpuOp::PqLookup {
                count: pq_lookups,
                m: ix.pq.m() as u32,
            };
            if inflight.is_empty() {
                trace.push_compute(frontier.len() as u64, dim as u32);
                trace.push_pq_lookup(pq_lookups, ix.pq.m() as u32);
            } else {
                trace.push_overlapped(inflight, &[compute, lookup]);
            }
        }
        let mut neighbors = exact.into_sorted_vec();
        neighbors.truncate(k);
        SearchOutput { neighbors, trace }
    }

    #[test]
    fn search_matches_per_pair_reference() {
        // Every I/O strategy: the reads a hop issues depend on the order
        // candidates were ranked in, so this also pins the read order.
        let (_, queries, _, index) = build_small();
        for io in IoStrategy::all() {
            let params = SearchParams {
                io,
                ..SearchParams::default().with_search_list(40)
            };
            for q in queries.iter().take(10) {
                let got = index.search(q, 10, &params).unwrap();
                crate::batch::assert_identical(&got, &search_per_pair(&index, q, 10, &params));
            }
        }
    }

    #[test]
    fn reaches_target_recall() {
        let (_, queries, gt, index) = build_small();
        let params = SearchParams::default().with_search_list(30);
        let recall = mean_recall(&index, &queries, &gt, &params);
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn larger_search_list_improves_recall_and_io() {
        // The paper's KF-3: search_list up => accuracy up, I/O up.
        let (_, queries, gt, index) = build_small();
        let p10 = SearchParams::default().with_search_list(10);
        let p100 = SearchParams::default().with_search_list(100);
        let r10 = mean_recall(&index, &queries, &gt, &p10);
        let r100 = mean_recall(&index, &queries, &gt, &p100);
        assert!(r100 >= r10, "recall must not drop: {r10} -> {r100}");
        let t10 = index.search(queries.row(0), 10, &p10).unwrap().trace;
        let t100 = index.search(queries.row(0), 10, &p100).unwrap().trace;
        assert!(
            t100.read_bytes() > 2 * t10.read_bytes(),
            "read bytes should grow markedly: {} -> {}",
            t10.read_bytes(),
            t100.read_bytes()
        );
    }

    #[test]
    fn every_request_is_4kib() {
        // O-15: >99.99% of requests are 4 KiB. In our layout: all of them.
        let (_, queries, _, index) = build_small();
        let out = index
            .search(
                queries.row(0),
                10,
                &SearchParams::default().with_search_list(50),
            )
            .unwrap();
        for step in &out.trace.steps {
            if let crate::trace::TraceStep::Read { reqs } = step {
                for r in reqs {
                    assert_eq!(r.len, 4096);
                    assert_eq!(r.offset % 4096, 0);
                }
            }
        }
        assert!(out.trace.io_count() > 0);
    }

    #[test]
    fn beam_width_trades_hops_for_parallel_reads() {
        let (_, queries, _, index) = build_small();
        let narrow = index
            .search(
                queries.row(1),
                10,
                &SearchParams::default()
                    .with_search_list(50)
                    .with_beam_width(1),
            )
            .unwrap();
        let wide = index
            .search(
                queries.row(1),
                10,
                &SearchParams::default()
                    .with_search_list(50)
                    .with_beam_width(8),
            )
            .unwrap();
        assert!(
            wide.trace.hops() < narrow.trace.hops(),
            "wider beams must mean fewer round trips: {} vs {}",
            wide.trace.hops(),
            narrow.trace.hops()
        );
        // Wider beams may read somewhat more in total (wasted fetches).
        assert!(wide.trace.read_bytes() >= narrow.trace.read_bytes());
    }

    #[test]
    fn beam_width_one_matches_best_first_recall() {
        let (_, queries, gt, index) = build_small();
        let p = SearchParams::default()
            .with_search_list(30)
            .with_beam_width(1);
        let recall = mean_recall(&index, &queries, &gt, &p);
        assert!(recall > 0.9, "best-first recall {recall}");
    }

    #[test]
    fn memory_is_compressed_storage_is_full() {
        let (base, _, _, index) = build_small();
        let raw_bytes = (base.len() * base.row_bytes()) as u64;
        assert!(
            index.memory_bytes() < raw_bytes / 4,
            "PQ memory {} should be far below raw {}",
            index.memory_bytes(),
            raw_bytes
        );
        assert!(
            index.storage_bytes() >= raw_bytes,
            "device holds full vectors + graph"
        );
    }

    #[test]
    fn search_list_below_k_is_clamped() {
        let (_, queries, _, index) = build_small();
        let p = SearchParams::default().with_search_list(1);
        let out = index.search(queries.row(0), 10, &p).unwrap();
        assert_eq!(out.neighbors.len(), 10);
    }

    #[test]
    fn rejects_bad_build_configs() {
        let data = EmbeddingModel::new(60, 2, 1).generate(100);
        let bad = DiskAnnConfig {
            pq_m: 7,
            ..DiskAnnConfig::default()
        };
        assert!(DiskAnnIndex::build(&data, Metric::L2, bad).is_err());
    }

    #[test]
    fn default_pq_m_divides_dim() {
        for dim in [768usize, 1536, 100, 60] {
            let model = EmbeddingModel::new(dim, 2, 1);
            let base = model.generate(300);
            let config = DiskAnnConfig {
                graph: VamanaConfig {
                    r: 8,
                    l_build: 20,
                    ..VamanaConfig::default()
                },
                pq_ksub: 16,
                ..DiskAnnConfig::default()
            };
            let index = DiskAnnIndex::build(&base, Metric::L2, config).unwrap();
            assert_eq!(dim % index.pq_m(), 0, "dim {dim}");
        }
    }
}
