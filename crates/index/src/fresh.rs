//! FreshDiskANN-style streaming mutations (Singh et al., 2021) — the
//! hybrid-workload substrate the paper's §VIII leaves to future work.
//!
//! [`FreshDiskAnnIndex`] is a DiskANN index that additionally supports
//! **in-place inserts** (greedy search → robust prune → back-edges, with the
//! modified node records written back to the device), **lazy deletes**
//! (tombstones filtered from results), and **consolidation** (the
//! FreshDiskANN delete-repair pass that reroutes edges around tombstoned
//! nodes). Insert operations return a [`QueryTrace`] containing both the
//! reads of the placement search and the *writes* of the dirtied node
//! records, so the execution engine can replay realistic read-write mixes.

use crate::batch::Batch;
use crate::diskann::{node_record_bytes, pq_shape};
use crate::layout::DiskLayout;
use crate::pairs::RowDistances;
use crate::trace::{IoReq, QueryTrace, SearchOutput};
use crate::vamana::{robust_prune, VamanaConfig, VamanaGraph};
use crate::{SearchParams, VectorIndex};
use sann_core::{cast, Dataset, Error, Metric, Neighbor, Result, TopK};
use sann_quant::{DistanceTable, ProductQuantizer};

/// Build-time configuration for [`FreshDiskAnnIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreshConfig {
    /// Static Vamana parameters, also used for insert-time pruning.
    pub graph: VamanaConfig,
    /// Insert-time placement search list length.
    pub l_insert: usize,
    /// PQ sub-spaces (0 = `dim / 8`, as in [`crate::DiskAnnConfig`]).
    pub pq_m: usize,
    /// PQ centroids per sub-space.
    pub pq_ksub: usize,
}

impl Default for FreshConfig {
    fn default() -> Self {
        FreshConfig {
            graph: VamanaConfig::default(),
            l_insert: 75,
            pq_m: 0,
            pq_ksub: 256,
        }
    }
}

/// A mutable DiskANN index.
pub struct FreshDiskAnnIndex {
    data: Dataset,
    metric: Metric,
    /// Out-adjacency, mutated by inserts/deletes.
    adj: Vec<Vec<u32>>,
    medoid: u32,
    deleted: Vec<bool>,
    live: usize,
    pq: ProductQuantizer,
    codes: Vec<u8>,
    config: FreshConfig,
    r: usize,
    node_bytes: u64,
    /// Device writes of the most recent insert, until taken.
    pending_writes: Vec<crate::IoReq>,
}

impl std::fmt::Debug for FreshDiskAnnIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreshDiskAnnIndex")
            .field("len", &self.data.len())
            .field("live", &self.live)
            .field("dim", &self.data.dim())
            .finish()
    }
}

impl FreshDiskAnnIndex {
    /// Builds from an initial dataset. PQ codebooks are trained once here
    /// and frozen; later inserts are encoded with the same codebooks
    /// (FreshDiskANN's approach).
    ///
    /// # Errors
    ///
    /// Propagates graph and PQ build errors; rejects a `pq_m` that does not
    /// divide the dataset dimensionality.
    pub fn build(data: &Dataset, metric: Metric, config: FreshConfig) -> Result<FreshDiskAnnIndex> {
        let (pq_m, ksub) = pq_shape(data, config.pq_m, config.pq_ksub)?;
        let graph = VamanaGraph::build(data, metric, config.graph)?;
        let pq = ProductQuantizer::train(data, pq_m, ksub, config.graph.seed ^ 0xF8E5)?;
        let codes = pq.encode_all(data);
        let r = graph.r();
        let adj = (0..cast::u32_from_usize(data.len()))
            .map(|i| graph.neighbors(i).to_vec())
            .collect();
        let node_bytes = node_record_bytes(data.dim(), r);
        Ok(FreshDiskAnnIndex {
            data: data.clone(),
            metric,
            adj,
            medoid: graph.medoid(),
            deleted: vec![false; data.len()],
            live: data.len(),
            pq,
            codes,
            config,
            r,
            node_bytes,
            pending_writes: Vec::new(),
        })
    }

    /// Total slots (including tombstones).
    pub fn slots(&self) -> usize {
        self.data.len()
    }

    /// Live (non-deleted) vectors.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// The current device layout (grows as inserts append records).
    pub fn layout(&self) -> DiskLayout {
        DiskLayout::new(cast::u64_from_usize(self.data.len()), self.node_bytes)
    }

    /// Inserts a vector, returning its id and the trace of the operation:
    /// the placement search's reads plus the writes of every node record the
    /// insert dirtied (the new node and its back-edge targets).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on a wrong-sized vector.
    pub fn insert(&mut self, vector: &[f32]) -> Result<(u32, QueryTrace)> {
        if vector.len() != self.data.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.data.dim(),
                actual: vector.len(),
            });
        }
        let mut trace = QueryTrace::new();
        // Placement search: beam over the graph, reads as in a query; every
        // fetched node joins the pruning pool with its exact distance.
        let mut visited: Vec<Neighbor> = Vec::new();
        let table = self.pq.distance_table(vector);
        let l = self.config.l_insert.max(8);
        self.beam(vector, &table, l, 4, |reqs, frontier, exact, _| {
            trace.push_read(reqs);
            let fetched = frontier.iter().zip(exact);
            visited.extend(fetched.map(|(&id, &d)| Neighbor::new(id, d)));
        })?;

        let id = cast::u32_from_usize(self.data.len());
        self.data.push(vector)?;
        self.deleted.push(false);
        self.live += 1;
        self.codes.extend_from_slice(&self.pq.encode(vector));

        let alpha = self.config.graph.alpha;
        let mut batch = Batch::default();
        let pairs = RowDistances::on_demand(self.metric, &self.data);
        let out = robust_prune(&pairs, id, visited, alpha, self.r, &mut batch);
        trace.push_compute(
            (out.len() * self.r) as u64,
            cast::u32_from_usize(self.data.dim()),
        );
        self.adj.push(out.clone());

        // Write the new record plus every dirtied in-neighbor record.
        let layout = self.layout();
        let mut writes = Vec::new();
        writes.extend(layout.node_reqs(id as u64, sann_obs::IoProvenance::GraphAdjacency)?);
        for nb in out {
            let adj = &mut self.adj[nb as usize];
            if !adj.contains(&id) {
                adj.push(id);
                if adj.len() > self.r + self.r / 2 {
                    let cands = batch.neighbors_of(&pairs, nb, adj);
                    *adj = robust_prune(&pairs, nb, cands, alpha, self.r, &mut batch);
                }
                writes.extend(layout.node_reqs(nb as u64, sann_obs::IoProvenance::GraphAdjacency)?);
            }
        }
        // Traces carry read/compute work; the dirtied records are exposed
        // separately so callers can build `Segment::write` batches from them.
        self.pending_writes = writes;
        Ok((id, trace))
    }

    /// The device writes performed by the most recent
    /// [`insert`](FreshDiskAnnIndex::insert) (new + dirtied node records).
    /// Consumed by the caller.
    pub fn take_insert_writes(&mut self) -> Vec<crate::IoReq> {
        std::mem::take(&mut self.pending_writes)
    }

    /// Tombstones a vector: it vanishes from results immediately but keeps
    /// routing traffic until [`consolidate`](FreshDiskAnnIndex::consolidate).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IdOutOfBounds`] for unknown ids and
    /// [`Error::NotFound`] for already-deleted ones.
    pub fn delete(&mut self, id: u32) -> Result<()> {
        let slot = self
            .deleted
            .get_mut(id as usize)
            .ok_or(Error::IdOutOfBounds {
                id: id as u64,
                len: self.adj.len() as u64,
            })?;
        if *slot {
            return Err(Error::NotFound(format!("vector {id} already deleted")));
        }
        *slot = true;
        self.live -= 1;
        Ok(())
    }

    /// FreshDiskANN's delete-consolidation pass: every node that points at a
    /// tombstone re-routes through the tombstone's out-neighbors and is
    /// re-pruned. Returns the number of nodes repaired.
    pub fn consolidate(&mut self) -> usize {
        let alpha = self.config.graph.alpha;
        let mut batch = Batch::default();
        let pairs = RowDistances::on_demand(self.metric, &self.data);
        let mut repaired = 0usize;
        for p in 0..self.adj.len() {
            if self.deleted[p] {
                continue;
            }
            let has_dead = self.adj[p].iter().any(|&n| self.deleted[n as usize]);
            if !has_dead {
                continue;
            }
            // Live neighbours stay candidates; a tombstone is replaced by
            // its own live out-neighbours.
            batch.ids.clear();
            for &n in &self.adj[p] {
                if self.deleted[n as usize] {
                    let rerouted = self.adj[n as usize]
                        .iter()
                        .filter(|&&nn| !self.deleted[nn as usize] && nn as usize != p);
                    batch.ids.extend(rerouted);
                } else {
                    batch.ids.push(n);
                }
            }
            let p = cast::u32_from_usize(p);
            pairs.gather(p, &batch.ids, &mut batch.dists);
            let cands = batch.neighbors();
            self.adj[p as usize] = robust_prune(&pairs, p, cands, alpha, self.r, &mut batch);
            repaired += 1;
        }
        // Make sure the medoid survives.
        if self.deleted[self.medoid as usize] {
            if let Some(alive) = (0..self.deleted.len()).find(|&i| !self.deleted[i]) {
                self.medoid = cast::u32_from_usize(alive);
            }
        }
        repaired
    }

    /// The beam search behind both queries and insert placement. Each hop
    /// takes the `w` closest unfetched candidates within the top `l` (by PQ
    /// distance), reads their node records, scores the fetched vectors
    /// exactly and expands their unseen neighbours into the candidate list
    /// by PQ lookup. `hop(reqs, frontier, exact, lookups)` is told, once per
    /// hop, the reads issued, the nodes fetched with their exact distances,
    /// and the PQ lookups spent; what to trace and what to keep is the
    /// caller's business.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for out-of-range graph edges.
    fn beam(
        &self,
        query: &[f32],
        table: &DistanceTable,
        l: usize,
        w: usize,
        mut hop: impl FnMut(Vec<IoReq>, &[u32], &[f32], u64),
    ) -> Result<()> {
        let layout = self.layout();
        let start = self.medoid;
        let mut cands: Vec<(f32, u32, bool)> =
            vec![(table.distance_at(&self.codes, start as usize), start, false)];
        let mut exact = Vec::new();
        let mut batch = Batch::default();
        batch.mark.reset(self.adj.len());
        batch.mark.insert(start);
        loop {
            let mut frontier = Vec::with_capacity(w);
            for c in cands.iter_mut().take(l) {
                if !c.2 {
                    c.2 = true;
                    frontier.push(c.1);
                    if frontier.len() == w {
                        break;
                    }
                }
            }
            if frontier.is_empty() {
                return Ok(());
            }
            let mut reqs = Vec::new();
            for &id in &frontier {
                reqs.extend(layout.node_reqs(id as u64, sann_obs::IoProvenance::GraphAdjacency)?);
            }
            self.metric
                .distance_gather(query, &self.data, &frontier, &mut exact);
            let mut lookups = 0u64;
            for &id in &frontier {
                batch.take_unseen(&self.adj[id as usize]);
                table.distance_gather(&self.codes, &batch.ids, &mut batch.dists);
                lookups += batch.ids.len() as u64;
                for (nb, d) in batch.scored() {
                    let pos = cands.partition_point(|x| x.0 <= d);
                    cands.insert(pos, (d, nb, false));
                    if cands.len() > l + l / 2 + 1 {
                        cands.truncate(l + l / 2 + 1);
                    }
                }
            }
            hop(reqs, &frontier, &exact, lookups);
        }
    }
}

impl VectorIndex for FreshDiskAnnIndex {
    #[cfg(test)]
    fn vectors(&self) -> Option<&Dataset> {
        Some(&self.data)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn kind(&self) -> &'static str {
        "fresh-diskann"
    }

    fn is_storage_based(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.data.dim(), k)?;
        let l = params.search_list.max(k);
        let w = params.beam_width.max(1);
        let (dim, m) = (
            cast::u32_from_usize(self.data.dim()),
            cast::u32_from_usize(self.pq.m()),
        );
        let mut trace = QueryTrace::new();
        let table = self.pq.distance_table(query);
        trace.push_compute(self.pq.ksub() as u64, dim);
        trace.push_pq_lookup(1, m);
        let mut exact = TopK::new(l);
        self.beam(query, &table, l, w, |reqs, frontier, dists, lookups| {
            trace.push_read(reqs);
            for (&id, &d) in frontier.iter().zip(dists) {
                // Tombstoned nodes route but never land in results.
                if !self.deleted[id as usize] {
                    exact.push(id, d);
                }
            }
            trace.push_compute(frontier.len() as u64, dim);
            trace.push_pq_lookup(lookups, m);
        })?;

        let mut neighbors = exact.into_sorted_vec();
        neighbors.truncate(k);
        Ok(SearchOutput { neighbors, trace })
    }

    fn memory_bytes(&self) -> u64 {
        self.codes.len() as u64
    }

    fn storage_bytes(&self) -> u64 {
        self.layout().total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_datagen::{EmbeddingModel, GroundTruth};

    fn config() -> FreshConfig {
        FreshConfig {
            graph: VamanaConfig {
                r: 24,
                l_build: 50,
                ..Default::default()
            },
            l_insert: 50,
            pq_m: 16,
            pq_ksub: 64,
        }
    }

    fn build_small(n: usize) -> (Dataset, Dataset, FreshDiskAnnIndex) {
        let model = EmbeddingModel::new(64, 8, 321);
        let base = model.generate(n);
        let queries = model.generate_queries(25);
        let index = FreshDiskAnnIndex::build(&base, Metric::L2, config()).unwrap();
        (base, queries, index)
    }

    /// The search as it was before the batched kernels: one exact distance
    /// and one PQ lookup at a time.
    fn search_per_pair(
        ix: &FreshDiskAnnIndex,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> SearchOutput {
        let l = params.search_list.max(k);
        let w = params.beam_width.max(1);
        let layout = ix.layout();
        let mut trace = QueryTrace::new();
        let table = ix.pq.distance_table(query);
        trace.push_compute(ix.pq.ksub() as u64, ix.data.dim() as u32);
        let mut seen = vec![false; ix.adj.len()];
        seen[ix.medoid as usize] = true;
        let start = table.distance_at(&ix.codes, ix.medoid as usize);
        let mut cands: Vec<(f32, u32, bool)> = vec![(start, ix.medoid, false)];
        trace.push_pq_lookup(1, ix.pq.m() as u32);
        let mut exact = TopK::new(l.max(k));
        loop {
            let mut frontier = Vec::new();
            for c in cands.iter_mut().take(l).filter(|c| !c.2).take(w) {
                c.2 = true;
                frontier.push(c.1);
            }
            if frontier.is_empty() {
                break;
            }
            let mut reqs = Vec::new();
            for &id in &frontier {
                let prov = sann_obs::IoProvenance::GraphAdjacency;
                reqs.extend(layout.node_reqs(id as u64, prov).unwrap());
            }
            trace.push_read(reqs);
            let mut lookups = 0u64;
            for &id in &frontier {
                let exact_d = ix.metric.distance(query, ix.data.row(id as usize));
                if !ix.deleted[id as usize] {
                    exact.push(id, exact_d);
                }
                for &nb in &ix.adj[id as usize] {
                    if std::mem::replace(&mut seen[nb as usize], true) {
                        continue;
                    }
                    let d = table.distance_at(&ix.codes, nb as usize);
                    lookups += 1;
                    let pos = cands.partition_point(|x| x.0 <= d);
                    cands.insert(pos, (d, nb, false));
                    cands.truncate(l + l / 2 + 1);
                }
            }
            trace.push_compute(frontier.len() as u64, ix.data.dim() as u32);
            trace.push_pq_lookup(lookups, ix.pq.m() as u32);
        }
        let mut neighbors = exact.into_sorted_vec();
        neighbors.truncate(k);
        SearchOutput { neighbors, trace }
    }

    #[test]
    fn search_matches_per_pair_reference() {
        // After inserts and a delete, so the mutated adjacency and the
        // tombstone filter are on the path too.
        let (_, queries, mut index) = build_small(1_000);
        for row in EmbeddingModel::new(64, 8, 555)
            .generate_stream(10, 7)
            .iter()
        {
            index.insert(row).unwrap();
        }
        index.delete(3).unwrap();
        let params = SearchParams::default().with_search_list(40);
        for q in queries.iter() {
            let got = index.search(q, 10, &params).unwrap();
            crate::batch::assert_identical(&got, &search_per_pair(&index, q, 10, &params));
        }
    }

    #[test]
    fn searches_like_static_diskann() {
        let (base, queries, index) = build_small(2_000);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let params = SearchParams::default().with_search_list(40);
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, &params).unwrap();
            total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
        }
        assert!(total / 25.0 > 0.9, "recall {}", total / 25.0);
    }

    #[test]
    fn inserted_vectors_become_findable() {
        let (_, _, mut index) = build_small(1_000);
        let model = EmbeddingModel::new(64, 8, 555);
        let fresh = model.generate_stream(20, 7);
        for row in fresh.iter() {
            let (id, trace) = index.insert(row).unwrap();
            assert!(trace.io_count() > 0, "placement search must read");
            let writes = index.take_insert_writes();
            assert!(!writes.is_empty(), "insert must dirty node records");
            let out = index
                .search(row, 1, &SearchParams::default().with_search_list(40))
                .unwrap();
            assert_eq!(out.neighbors[0].id, id, "fresh insert must be its own NN");
        }
        assert_eq!(index.live_len(), 1_020);
    }

    #[test]
    fn deleted_vectors_leave_results_immediately() {
        let (base, _, mut index) = build_small(1_000);
        let q = base.row(123).to_vec();
        let before = index
            .search(&q, 1, &SearchParams::default().with_search_list(40))
            .unwrap();
        assert_eq!(before.neighbors[0].id, 123);
        index.delete(123).unwrap();
        let after = index
            .search(&q, 5, &SearchParams::default().with_search_list(40))
            .unwrap();
        assert!(after.neighbors.iter().all(|n| n.id != 123));
        assert!(index.delete(123).is_err(), "double delete");
        assert!(index.delete(9999).is_err(), "unknown id");
    }

    #[test]
    fn consolidation_repairs_routing_after_mass_delete() {
        let (base, queries, mut index) = build_small(2_000);
        // Delete 30% of the dataset.
        for id in (0..2_000u32).step_by(3) {
            index.delete(id).unwrap();
        }
        let repaired = index.consolidate();
        assert!(
            repaired > 0,
            "consolidation must repair in-edges of tombstones"
        );
        // Recall against the surviving ground truth stays high.
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 30);
        let params = SearchParams::default().with_search_list(60);
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, &params).unwrap();
            let truth: Vec<u32> = gt
                .neighbors(i)
                .iter()
                .copied()
                .filter(|&t| !t.is_multiple_of(3))
                .take(10)
                .collect();
            total += recall_at_k(&truth, &out.ids(), 10);
        }
        assert!(
            total / 25.0 > 0.85,
            "post-consolidation recall {}",
            total / 25.0
        );
    }

    #[test]
    fn insert_grows_storage() {
        let (_, _, mut index) = build_small(1_000);
        let before = index.storage_bytes();
        let model = EmbeddingModel::new(64, 8, 777);
        let fresh = model.generate_stream(64, 9);
        for row in fresh.iter() {
            index.insert(row).unwrap();
            index.take_insert_writes();
        }
        assert!(index.storage_bytes() > before);
        assert_eq!(index.slots(), 1_064);
    }
}
