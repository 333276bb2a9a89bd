//! HNSW — Hierarchical Navigable Small World graphs (Malkov & Yashunin,
//! TPAMI 2020).
//!
//! The memory-based index used by every database in the paper. The
//! implementation follows the original algorithm:
//!
//! * geometric level assignment with normalization factor `mL = 1/ln(M)`,
//! * greedy descent through the upper layers,
//! * `ef`-bounded best-first search at each layer,
//! * neighbor selection by the pruning heuristic (Algorithm 4 of the paper),
//! * degree caps `M` on upper layers and `2M` on layer 0.
//!
//! A build inserts the nodes one after another, in id order, into plain
//! adjacency lists: a seed fixes the graph on any machine. Parallelism
//! belongs one level up, across whole builds (DESIGN.md §9).

use crate::batch::{best_first, greedy_descend, Batch};
use crate::trace::{QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::rng::SplitMix64;
use sann_core::{Dataset, Error, Metric, Neighbor, Result};

/// Build-time configuration for [`HnswIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswConfig {
    /// Degree parameter `M` (paper Table II uses 16).
    pub m: usize,
    /// Construction queue length `efConstruction` (paper uses 200).
    pub ef_construction: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    /// The paper's build parameters: `M = 16`, `efConstruction = 200`.
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 200,
            seed: 0x45_4653,
        }
    }
}

/// The word of the persisted frame that once carried a build-thread count.
/// Every artifact ever written by a deterministic build has 1 here, so 1 is
/// what is written and the only value read back.
const RESERVED_WORD: u32 = 1;

/// A built HNSW index.
pub struct HnswIndex {
    data: Dataset,
    metric: Metric,
    /// `links[node][level]` = neighbor ids. `links[node].len() - 1` is the
    /// node's top level.
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    config: HnswConfig,
}

impl std::fmt::Debug for HnswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnswIndex")
            .field("len", &self.data.len())
            .field("dim", &self.data.dim())
            .field("max_level", &self.max_level)
            .field("m", &self.config.m)
            .finish()
    }
}

/// Neighbors of `id` at `level`; none when the node does not reach it.
fn links_at(links: &[Vec<Vec<u32>>], id: u32, level: usize) -> &[u32] {
    links[id as usize]
        .get(level)
        .map(Vec::as_slice)
        .unwrap_or(&[])
}

/// Mutable graph state during construction.
struct Builder<'a> {
    data: &'a Dataset,
    metric: Metric,
    m: usize,
    ef: usize,
    /// `links[node][level]`, one (initially empty) list per level the node
    /// was assigned.
    links: Vec<Vec<Vec<u32>>>,
    /// Entry node and its top level — replaced as taller nodes are inserted.
    entry: (u32, usize),
}

impl Builder<'_> {
    fn max_degree(&self, level: usize) -> usize {
        if level == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Whether some node of `kept` is closer to the candidate `c` than the
    /// query is. `kept` is scored four nodes at a time and the scan stops at
    /// the first group that holds such a node: only the answer is used, and
    /// a dominator is usually among the first kept (the nearest ones).
    fn dominated(&self, c: Neighbor, kept: &[u32], batch: &mut Batch) -> bool {
        #[cfg(not(test))]
        let group = 4;
        // The check this replaced, kept as its reference: score all of
        // `kept` as one group, then ask.
        #[cfg(test)]
        let group = if tests::FULL_SCAN.get() {
            usize::MAX
        } else {
            4
        };
        let cv = self.data.row(c.id as usize);
        kept.chunks(group).any(|group| {
            self.metric
                .distance_gather(cv, self.data, group, &mut batch.dists);
            batch.dists.iter().any(|&d| d < c.dist)
        })
    }

    /// Neighbor-selection heuristic (keep a candidate only if it is closer
    /// to the query than to every already-kept candidate).
    fn select_neighbors(&self, candidates: &[Neighbor], m: usize, batch: &mut Batch) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::with_capacity(m);
        for &c in candidates {
            if kept.len() >= m {
                break;
            }
            if !self.dominated(c, &kept, batch) {
                kept.push(c.id);
            }
        }
        // Fall back to plain nearest if the heuristic pruned too aggressively.
        if kept.len() < m {
            for &c in candidates {
                if kept.len() >= m {
                    break;
                }
                if !kept.contains(&c.id) {
                    kept.push(c.id);
                }
            }
        }
        kept
    }

    fn insert(&mut self, id: u32) {
        let (data, metric) = (self.data, self.metric);
        let q = data.row(id as usize);
        let node_level = self.links[id as usize].len() - 1;
        let (mut ep, top) = self.entry;
        let mut batch = Batch::default();

        // Descend through layers above the node's level.
        for l in (node_level + 1..=top).rev() {
            ep = greedy_descend(
                ep,
                |n| links_at(&self.links, n, l),
                |ids, out| metric.distance_gather(q, data, ids, out),
                &mut batch,
            );
        }

        // Connect on each shared layer.
        for l in (0..=node_level.min(top)).rev() {
            let found = best_first(
                data.len(),
                ep,
                self.ef,
                |n| links_at(&self.links, n, l),
                |ids, out| metric.distance_gather(q, data, ids, out),
                |_| {},
                &mut batch,
            );
            let cap = self.max_degree(l);
            let selected = self.select_neighbors(&found, cap, &mut batch);
            ep = found.first().map(|n| n.id).unwrap_or(ep);
            self.links[id as usize][l] = selected.clone();
            for n in selected {
                let adj = &mut self.links[n as usize][l];
                if !adj.contains(&id) {
                    adj.push(id);
                }
                if adj.len() > cap {
                    // Re-prune the overflowing node with the same heuristic.
                    let mut cands = batch.neighbors_of(metric, data, n, adj);
                    cands.sort_unstable();
                    self.links[n as usize][l] = self.select_neighbors(&cands, cap, &mut batch);
                }
            }
        }

        // Become the entry point if taller than the current one.
        if node_level > top {
            self.entry = (id, node_level);
        }
    }
}

impl HnswIndex {
    /// Builds the index over `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] for an empty dataset and
    /// [`Error::InvalidParameter`] for `m < 2`.
    pub fn build(data: &Dataset, metric: Metric, config: HnswConfig) -> Result<HnswIndex> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if config.m < 2 {
            return Err(Error::invalid_parameter("m", "must be at least 2"));
        }
        let n = data.len();
        let ml = 1.0 / (config.m as f64).ln();
        let mut rng = SplitMix64::new(config.seed);
        let levels: Vec<usize> = (0..n)
            .map(|_| {
                let u = rng.next_f64().max(f64::MIN_POSITIVE);
                ((-u.ln() * ml) as usize).min(31)
            })
            .collect();

        let mut builder = Builder {
            data,
            metric,
            m: config.m,
            ef: config.ef_construction.max(config.m),
            links: levels.iter().map(|&l| vec![Vec::new(); l + 1]).collect(),
            // Node 0 is the first entry, at its own level.
            entry: (0, levels[0]),
        };
        for id in 1..n as u32 {
            builder.insert(id);
        }
        let Builder {
            links,
            entry: (entry, max_level),
            ..
        } = builder;
        Ok(HnswIndex {
            data: data.clone(),
            metric,
            links,
            entry,
            max_level,
            config,
        })
    }

    /// The entry node id.
    pub fn entry_point(&self) -> u32 {
        self.entry
    }

    /// Highest layer in the graph.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Build configuration used.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Degree of `id` at `level` (diagnostics); 0 when the node does not
    /// reach that level.
    pub fn degree(&self, id: u32, level: usize) -> usize {
        self.links
            .get(id as usize)
            .and_then(|l| l.get(level))
            .map(Vec::len)
            .unwrap_or(0)
    }

    /// Query-time graph search with a pluggable distance oracle: greedy
    /// descent through the upper layers, then an `ef`-bounded best-first
    /// search at layer 0. This is the engine behind both full-precision
    /// search ([`HnswIndex::search`]) and quantized search
    /// ([`crate::hnsw_sq::HnswSqIndex`]).
    ///
    /// `dist(ids, out)` replaces the contents of `out` with the distance of
    /// every id, in order. It is handed a node's unvisited neighbours
    /// together so an oracle over plain vectors can use the batched
    /// kernels; the ids of successive calls, concatenated, are exactly the
    /// sequence a one-id-at-a-time search would ask for.
    pub(crate) fn search_graph<F>(&self, mut dist: F, ef: usize) -> Vec<Neighbor>
    where
        F: FnMut(&[u32], &mut Vec<f32>),
    {
        let mut batch = Batch::default();
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = greedy_descend(ep, |n| links_at(&self.links, n, l), &mut dist, &mut batch);
        }
        best_first(
            self.data.len(),
            ep,
            ef,
            |n| links_at(&self.links, n, 0),
            dist,
            |_| {},
            &mut batch,
        )
    }

    pub(crate) fn persist_payload(&self, w: &mut sann_core::buf::ByteWriter) {
        w.put_u8(self.metric.tag());
        w.put_u32_le(self.config.m as u32);
        w.put_u32_le(self.config.ef_construction as u32);
        w.put_u64_le(self.config.seed);
        w.put_u32_le(RESERVED_WORD);
        w.put_u32_le(self.entry);
        w.put_u32_le(self.max_level as u32);
        self.data.encode_into(w);
        for per_level in &self.links {
            w.put_u32_le(per_level.len() as u32);
            for adj in per_level {
                w.put_u32_le(adj.len() as u32);
                for &n in adj {
                    w.put_u32_le(n);
                }
            }
        }
    }

    pub(crate) fn from_persist(r: &mut sann_core::buf::ByteReader<'_>) -> Result<HnswIndex> {
        let metric = Metric::from_tag(r.get_u8()?)
            .ok_or_else(|| Error::Corrupt("hnsw: unknown metric tag".into()))?;
        let config = HnswConfig {
            m: r.get_u32_le()? as usize,
            ef_construction: r.get_u32_le()? as usize,
            seed: r.get_u64_le()?,
        };
        if r.get_u32_le()? != RESERVED_WORD {
            return Err(Error::Corrupt("hnsw: reserved word is not 1".into()));
        }
        let entry = r.get_u32_le()?;
        let max_level = r.get_u32_le()? as usize;
        let data = Dataset::decode_from(r)?;
        let n = data.len();
        if entry as usize >= n || max_level > 32 {
            return Err(Error::Corrupt("hnsw: entry/level out of range".into()));
        }
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            let levels = r.get_u32_le()? as usize;
            if levels == 0 || levels > 33 {
                return Err(Error::Corrupt("hnsw: bad level count".into()));
            }
            let mut per_level = Vec::with_capacity(levels);
            for _ in 0..levels {
                let len = r.get_u32_le()? as usize;
                if r.remaining() < len * 4 {
                    return Err(Error::Corrupt("hnsw: truncated adjacency".into()));
                }
                let mut adj = Vec::with_capacity(len);
                for _ in 0..len {
                    let nb = r.get_u32_le()?;
                    if nb as usize >= n {
                        return Err(Error::Corrupt("hnsw: neighbor out of range".into()));
                    }
                    adj.push(nb);
                }
                per_level.push(adj);
            }
            links.push(per_level);
        }
        Ok(HnswIndex {
            data,
            metric,
            links,
            entry,
            max_level,
            config,
        })
    }

    /// The raw vectors the index was built over.
    pub(crate) fn data(&self) -> &Dataset {
        &self.data
    }

    /// The metric searches use.
    pub fn metric(&self) -> Metric {
        self.metric
    }
}

impl VectorIndex for HnswIndex {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn kind(&self) -> &'static str {
        "hnsw"
    }

    fn is_storage_based(&self) -> bool {
        false
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        if query.len() != self.data.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.data.dim(),
                actual: query.len(),
            });
        }
        if k == 0 {
            return Err(Error::invalid_parameter("k", "must be positive"));
        }
        let ef = params.ef_search.max(k);
        let mut dists = 0u64;
        let mut found = self.search_graph(
            |ids, out| {
                dists += ids.len() as u64;
                self.metric.distance_gather(query, &self.data, ids, out);
            },
            ef,
        );
        found.truncate(k);
        let mut trace = QueryTrace::new();
        trace.push_compute(dists, self.data.dim() as u32);
        Ok(SearchOutput {
            neighbors: found,
            trace,
        })
    }

    fn memory_bytes(&self) -> u64 {
        let vectors = (self.data.len() * self.data.row_bytes()) as u64;
        let edges: u64 = self
            .links
            .iter()
            .map(|per_level| {
                per_level
                    .iter()
                    .map(|adj| 4 * adj.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        vectors + edges
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

#[cfg(test)]
impl HnswIndex {
    /// The one-id-at-a-time graph search [`HnswIndex::search_graph`]
    /// replaced, kept as the reference the batched search is tested
    /// against: same neighbours, same sequence of oracle calls.
    pub(crate) fn search_graph_per_pair<F>(&self, mut dist: F, ef: usize) -> Vec<Neighbor>
    where
        F: FnMut(u32) -> f32,
    {
        use sann_core::TopK;
        use std::collections::BinaryHeap;
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            let mut best = dist(ep);
            loop {
                let mut improved = false;
                let adj = self.links[ep as usize]
                    .get(l)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                for &n in adj {
                    let d = dist(n);
                    if d < best {
                        best = d;
                        ep = n;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        let mut visited = vec![false; self.data.len()];
        visited[ep as usize] = true;
        let d0 = dist(ep);
        let mut frontier: BinaryHeap<std::cmp::Reverse<Neighbor>> = BinaryHeap::new();
        frontier.push(std::cmp::Reverse(Neighbor::new(ep, d0)));
        let mut best = TopK::new(ef);
        best.push(ep, d0);
        while let Some(std::cmp::Reverse(cand)) = frontier.pop() {
            if cand.dist > best.bound() {
                break;
            }
            for &n in &self.links[cand.id as usize][0] {
                if std::mem::replace(&mut visited[n as usize], true) {
                    continue;
                }
                let d = dist(n);
                if d < best.bound() || !best.is_full() {
                    best.push(n, d);
                    frontier.push(std::cmp::Reverse(Neighbor::new(n, d)));
                }
            }
        }
        best.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_datagen::{EmbeddingModel, GroundTruth};

    thread_local! {
        /// Set by a test to build with the full-scan form of
        /// [`Builder::dominated`].
        pub(super) static FULL_SCAN: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    fn build_small() -> (Dataset, Dataset, GroundTruth, HnswIndex) {
        let model = EmbeddingModel::new(48, 8, 31);
        let base = model.generate(2_000);
        let queries = model.generate_queries(30);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let index = HnswIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        (base, queries, gt, index)
    }

    fn mean_recall(index: &HnswIndex, queries: &Dataset, gt: &GroundTruth, ef: usize) -> f64 {
        let params = SearchParams::default().with_ef_search(ef);
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, &params).unwrap();
            total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
        }
        total / queries.len() as f64
    }

    #[test]
    fn reaches_high_recall() {
        let (_, queries, gt, index) = build_small();
        let recall = mean_recall(&index, &queries, &gt, 64);
        assert!(recall > 0.95, "recall {recall} too low");
    }

    #[test]
    fn search_matches_per_pair_reference() {
        let (_, queries, _, index) = build_small();
        for ef in [10, 64] {
            for q in queries.iter() {
                let got = index
                    .search(q, 10, &SearchParams::default().with_ef_search(ef))
                    .unwrap();
                let mut dists = 0u64;
                let mut neighbors = index.search_graph_per_pair(
                    |id| {
                        dists += 1;
                        index.metric.distance(q, index.data.row(id as usize))
                    },
                    ef,
                );
                neighbors.truncate(10);
                let mut trace = QueryTrace::new();
                trace.push_compute(dists, index.data.dim() as u32);
                crate::batch::assert_identical(&got, &SearchOutput { neighbors, trace });
            }
        }
    }

    #[test]
    fn build_matches_per_pair_selection() {
        // The batched heuristic against its definition: a candidate is kept
        // iff no already-kept one is closer to it than the query is.
        let base = EmbeddingModel::new(48, 8, 31).generate(200);
        let builder = Builder {
            data: &base,
            metric: Metric::L2,
            m: 16,
            ef: 200,
            links: Vec::new(),
            entry: (0, 0),
        };
        let dist = |a: &[f32], id: u32| Metric::L2.distance(a, base.row(id as usize));
        let q = base.row(0);
        let mut candidates: Vec<Neighbor> = (1..120u32)
            .map(|id| Neighbor::new(id, dist(q, id)))
            .collect();
        candidates.sort_unstable();
        let mut kept: Vec<Neighbor> = Vec::new();
        for &c in &candidates {
            if kept.len() >= 16 {
                break;
            }
            let cv = base.row(c.id as usize);
            if !kept.iter().any(|r| dist(cv, r.id) < c.dist) {
                kept.push(c);
            }
        }
        // The fallback only appends; the heuristic's picks come first.
        let got = builder.select_neighbors(&candidates, 16, &mut Batch::default());
        let want: Vec<u32> = kept.iter().map(|n| n.id).collect();
        assert_eq!(got[..want.len()], want[..]);
    }

    #[test]
    fn early_exit_selection_persists_the_same_bytes() {
        // Layer 0 keeps up to 32 neighbours, so the early exit skips up to
        // seven groups per candidate; the graph must not notice.
        let base = EmbeddingModel::new(48, 8, 31).generate(1_500);
        let build = || HnswIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        let early = build().persist_encode().unwrap();
        FULL_SCAN.set(true);
        let full = build().persist_encode().unwrap();
        FULL_SCAN.set(false);
        assert!(
            early == full,
            "early-exit build differs from full-scan build"
        );
    }

    #[test]
    fn deterministic_build() {
        let (_, _, _, a) = build_small();
        let (_, _, _, b) = build_small();
        assert_eq!(a.links, b.links);
        assert_eq!(a.entry_point(), b.entry_point());
    }

    #[test]
    fn higher_ef_does_not_hurt_recall_much() {
        let (_, queries, gt, index) = build_small();
        let low = mean_recall(&index, &queries, &gt, 10);
        let high = mean_recall(&index, &queries, &gt, 128);
        assert!(
            high >= low - 0.02,
            "ef=128 recall {high} << ef=10 recall {low}"
        );
        assert!(high > 0.95);
    }

    #[test]
    fn degree_caps_hold() {
        let (_, _, _, index) = build_small();
        let m = index.config().m;
        for id in 0..index.len() as u32 {
            assert!(
                index.degree(id, 0) <= 2 * m,
                "layer-0 degree cap violated at {id}"
            );
            for l in 1..=index.max_level() {
                assert!(
                    index.degree(id, l) <= m,
                    "layer-{l} degree cap violated at {id}"
                );
            }
        }
    }

    #[test]
    fn finds_self_exactly() {
        let (base, _, _, index) = build_small();
        for i in (0..base.len()).step_by(211) {
            let out = index
                .search(base.row(i), 1, &SearchParams::default())
                .unwrap();
            assert_eq!(out.neighbors[0].id, i as u32, "query {i}");
        }
    }

    #[test]
    fn trace_scales_with_ef() {
        let (_, queries, _, index) = build_small();
        let small = index
            .search(
                queries.row(0),
                10,
                &SearchParams::default().with_ef_search(10),
            )
            .unwrap();
        let large = index
            .search(
                queries.row(0),
                10,
                &SearchParams::default().with_ef_search(200),
            )
            .unwrap();
        assert!(large.trace.compute_count() > small.trace.compute_count());
        assert_eq!(small.trace.io_count(), 0);
    }

    #[test]
    fn search_visits_tiny_fraction_of_dataset() {
        let (base, queries, _, index) = build_small();
        let out = index
            .search(
                queries.row(0),
                10,
                &SearchParams::default().with_ef_search(27),
            )
            .unwrap();
        assert!(
            out.trace.compute_count() < (base.len() / 4) as u64,
            "HNSW visited {} of {}",
            out.trace.compute_count(),
            base.len()
        );
    }

    #[test]
    fn rejects_invalid_build_and_search() {
        let empty = Dataset::with_dim(8);
        assert!(HnswIndex::build(&empty, Metric::L2, HnswConfig::default()).is_err());
        let data = EmbeddingModel::new(8, 2, 1).generate(10);
        assert!(HnswIndex::build(
            &data,
            Metric::L2,
            HnswConfig {
                m: 1,
                ..HnswConfig::default()
            }
        )
        .is_err());
        let index = HnswIndex::build(&data, Metric::L2, HnswConfig::default()).unwrap();
        assert!(index
            .search(&[0.0; 4], 1, &SearchParams::default())
            .is_err());
        assert!(index
            .search(&[0.0; 8], 0, &SearchParams::default())
            .is_err());
    }

    #[test]
    fn descent_stops_at_a_node_below_the_level() {
        // Node 1 is listed at level 1 but only reaches level 0 — nothing a
        // build produces, but nothing `from_persist` rules out either.
        let index = HnswIndex {
            data: Dataset::from_rows(vec![vec![0.0], vec![4.0], vec![5.0]]).unwrap(),
            metric: Metric::L2,
            links: vec![vec![vec![1], vec![1]], vec![vec![0, 2]], vec![vec![1]]],
            entry: 0,
            max_level: 1,
            config: HnswConfig::default(),
        };
        let out = index.search(&[5.0], 2, &SearchParams::default()).unwrap();
        assert_eq!(out.ids(), [2, 1]);
    }

    #[test]
    fn single_element_index_works() {
        let data = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        let index = HnswIndex::build(&data, Metric::L2, HnswConfig::default()).unwrap();
        let out = index
            .search(&[1.0, 2.0], 5, &SearchParams::default())
            .unwrap();
        assert_eq!(out.neighbors.len(), 1);
        assert_eq!(out.neighbors[0].id, 0);
    }
}
