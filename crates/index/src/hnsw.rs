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
//! belongs one level up, across whole builds (DESIGN.md §9). Every
//! distance a build asks for is between two of its rows and goes through
//! one build-scoped `RowDistances`, which measures each pair once when the
//! table of all pairs is no larger than the data (DESIGN.md §14, "Each
//! pair measured once").

use crate::batch::{best_first, greedy_descend, Batch};
use crate::pairs::RowDistances;
use crate::trace::{QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::rng::SplitMix64;
use sann_core::{cast, Dataset, Error, Metric, Neighbor, Result};

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

/// What the last selection walk over a list decided about one of its links:
/// kept, pruned by a closer kept link (its *witness*), or nothing yet (a
/// back-link appended since). One word, so that a [`Link`] is eight bytes: a
/// witness is a node id, and the two top values say *kept* and *unseen*
/// ([`HnswIndex::build`] refuses a dataset large enough to use them as ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict(u32);

impl Verdict {
    const KEPT: Verdict = Verdict(u32::MAX);
    const UNSEEN: Verdict = Verdict(u32::MAX - 1);

    fn pruned_by(witness: u32) -> Verdict {
        Verdict(witness)
    }

    /// The link that pruned this one, if it was pruned.
    fn witness(self) -> Option<u32> {
        (self.0 < Verdict::UNSEEN.0).then_some(self.0)
    }
}

/// What a link knows while the graph is built (DESIGN.md §14). `dist` is
/// d(owner, neighbour) as computed when the link was made; the metrics are
/// bitwise symmetric, so a link and its back-link carry the same bits and
/// neither is measured again.
#[derive(Clone, Copy)]
struct Link {
    dist: f32,
    verdict: Verdict,
}

/// One link of an overflowing list during [`Builder::reprune`]'s walk.
#[derive(Clone, Copy)]
struct Cand {
    id: u32,
    link: Link,
    /// The first link kept *for the first time* in this walk that is closer
    /// to this one than the owner is.
    fresh: Option<u32>,
}

/// The distance from node `from` to every node of `ids`, in order: the
/// selection walks' requests, counted under test.
fn distances(pairs: &RowDistances, from: u32, ids: &[u32], out: &mut Vec<f32>) {
    #[cfg(test)]
    tests::EVALUATED.set(tests::EVALUATED.get() + ids.len());
    pairs.gather(from, ids, out);
}

/// The first node of `kept` that is closer to the candidate `c` than the
/// owner of the list is, if there is one. `kept` is scored four nodes at a
/// time and the scan stops at the first group that holds such a node: a
/// dominator is usually among the first kept (the nearest ones).
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn dominator(pairs: &RowDistances, c: Neighbor, kept: &[u32], dists: &mut Vec<f32>) -> Option<u32> {
    kept.chunks(4).find_map(|group| {
        distances(pairs, c.id, group, dists);
        group
            .iter()
            .zip(dists.iter())
            .find_map(|(&k, &d)| (d < c.dist).then_some(k))
    })
}

/// Ends a selection walk: `adj` / `known` hold the kept links, and the
/// closest of the `pruned` ones fill the list up to `cap`, so that the
/// heuristic never leaves a node with fewer links than plain nearest would.
fn fill_up(adj: &mut Vec<u32>, known: &mut Vec<Link>, pruned: &[(u32, Link)], cap: usize) {
    for &(id, link) in pruned.iter().take(cap.saturating_sub(adj.len())) {
        adj.push(id);
        known.push(link);
    }
}

/// Mutable graph state during construction.
struct Builder<'a> {
    /// Every distance the build asks for is between two of its rows.
    pairs: RowDistances<'a>,
    m: usize,
    ef: usize,
    /// `links[node][level]`, one (initially empty) list per level the node
    /// was assigned.
    links: Vec<Vec<Vec<u32>>>,
    /// `known[node][level][i]` is what the build knows about
    /// `links[node][level][i]`; dropped when the build returns.
    known: Vec<Vec<Vec<Link>>>,
    /// Entry node and its top level — replaced as taller nodes are inserted.
    entry: (u32, usize),
    // Scratch, reused by every insertion.
    batch: Batch,
    /// The list `reprune` walks, closest first.
    cands: Vec<Cand>,
    /// `reprune`: the links that were kept before the walk and still are.
    kept: Vec<u32>,
    /// `reprune`: the links that were kept before the walk and no longer are.
    fallen: Vec<u32>,
    /// The links a walk pruned, closest first.
    pruned: Vec<(u32, Link)>,
}

impl<'a> Builder<'a> {
    /// An edgeless graph whose node `i` reaches level `levels[i]`, entered
    /// at node 0.
    fn new(data: &'a Dataset, metric: Metric, m: usize, ef: usize, levels: &[usize]) -> Self {
        Builder {
            pairs: RowDistances::new(metric, data),
            m,
            ef,
            links: levels.iter().map(|&l| vec![Vec::new(); l + 1]).collect(),
            known: levels.iter().map(|&l| vec![Vec::new(); l + 1]).collect(),
            entry: (0, levels.first().copied().unwrap_or(0)),
            batch: Batch::default(),
            cands: Vec::new(),
            kept: Vec::new(),
            fallen: Vec::new(),
            pruned: Vec::new(),
        }
    }

    fn max_degree(&self, level: usize) -> usize {
        if level == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Neighbor-selection heuristic (Algorithm 4) over `candidates`, closest
    /// first, into the empty list `adj` / `known`: a candidate is kept only
    /// if it is closer to the owner than to every candidate kept before it,
    /// until `cap` are kept; the rest of the list is the closest pruned
    /// ones, each with the first dominator found as its witness.
    fn select_neighbors(
        &mut self,
        candidates: &[Neighbor],
        cap: usize,
        adj: &mut Vec<u32>,
        known: &mut Vec<Link>,
    ) {
        self.pruned.clear();
        for &c in candidates {
            if adj.len() >= cap {
                break;
            }
            let witness = dominator(&self.pairs, c, adj, &mut self.batch.dists);
            let link = Link {
                dist: c.dist,
                verdict: witness.map_or(Verdict::KEPT, Verdict::pruned_by),
            };
            if witness.is_none() {
                adj.push(c.id);
                known.push(link);
            } else {
                self.pruned.push((c.id, link));
            }
        }
        fill_up(adj, known, &self.pruned, cap);
    }

    /// Algorithm 4 over the list `adj` / `known`, which a back-link has
    /// grown past `cap`: the same ids in the same order as selecting from
    /// nothing, but deciding each link from what the last walk stored.
    ///
    /// The links are walked closest first, by `(dist, id)`. A link that was
    /// *kept* was not dominated by any link then kept, so only a link kept
    /// for the first time in this walk can prune it; when such a link is
    /// kept, one batched call measures it against everything behind it. A
    /// link that was *pruned* stays pruned while its witness is still kept,
    /// and is decided in full only if the witness fell in this walk. An
    /// *unseen* link is decided in full. The walk stops at `cap` kept.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn reprune(&mut self, adj: &mut Vec<u32>, known: &mut Vec<Link>, cap: usize) {
        let Builder {
            pairs,
            batch,
            cands,
            kept,
            fallen,
            pruned,
            ..
        } = self;
        cands.clear();
        cands.extend(adj.iter().zip(known.iter()).map(|(&id, &link)| Cand {
            id,
            link,
            fresh: None,
        }));
        cands.sort_unstable_by_key(|c| Neighbor::new(c.id, c.link.dist));
        adj.clear();
        known.clear();
        kept.clear();
        fallen.clear();
        pruned.clear();
        let mut rest = cands.as_mut_slice();
        while let Some((c, later)) = std::mem::take(&mut rest).split_first_mut() {
            if adj.len() >= cap {
                break;
            }
            let Link { dist, verdict } = c.link;
            let was_kept = verdict == Verdict::KEPT;
            let witness = if was_kept {
                c.fresh
            } else {
                verdict
                    .witness()
                    .filter(|w| !fallen.contains(w))
                    .or(c.fresh)
                    .or_else(|| dominator(pairs, Neighbor::new(c.id, dist), kept, &mut batch.dists))
            };
            let link = Link {
                dist,
                verdict: witness.map_or(Verdict::KEPT, Verdict::pruned_by),
            };
            if witness.is_some() {
                if was_kept {
                    fallen.push(c.id);
                }
                pruned.push((c.id, link));
            } else {
                if was_kept {
                    kept.push(c.id);
                } else {
                    batch.ids.clear();
                    batch.ids.extend(later.iter().map(|x| x.id));
                    distances(pairs, c.id, &batch.ids, &mut batch.dists);
                    for (x, &d) in later.iter_mut().zip(batch.dists.iter()) {
                        if d < x.link.dist && x.fresh.is_none() {
                            x.fresh = Some(c.id);
                        }
                    }
                }
                adj.push(c.id);
                known.push(link);
            }
            rest = later;
        }
        fill_up(adj, known, pruned, cap);
    }

    fn insert(&mut self, id: u32) {
        let me = id as usize;
        let node_level = self.links[me].len() - 1;
        let (mut ep, top) = self.entry;

        // Descend through layers above the node's level.
        for l in (node_level + 1..=top).rev() {
            ep = greedy_descend(
                ep,
                |n| links_at(&self.links, n, l),
                |ids, out| self.pairs.gather(id, ids, out),
                &mut self.batch,
            );
        }

        // Connect on each shared layer.
        for l in (0..=node_level.min(top)).rev() {
            let found = best_first(
                self.links.len(),
                ep,
                self.ef,
                |n| links_at(&self.links, n, l),
                |ids, out| self.pairs.gather(id, ids, out),
                |_| {},
                &mut self.batch,
            );
            ep = found.first().map(|n| n.id).unwrap_or(ep);
            let cap = self.max_degree(l);
            let mut adj = std::mem::take(&mut self.links[me][l]);
            let mut known = std::mem::take(&mut self.known[me][l]);
            self.select_neighbors(&found, cap, &mut adj, &mut known);
            // No walk has reached `id` at this level, so no list holds it
            // yet: every back-link is new to its list.
            for (&n, link) in adj.iter().zip(&known) {
                let back = n as usize;
                self.links[back][l].push(id);
                self.known[back][l].push(Link {
                    dist: link.dist,
                    verdict: Verdict::UNSEEN,
                });
                if self.links[back][l].len() > cap {
                    #[cfg(test)]
                    if tests::FROM_NOTHING.get() {
                        self.reprune_from_nothing(n, l);
                        continue;
                    }
                    let mut theirs = std::mem::take(&mut self.links[back][l]);
                    let mut their_known = std::mem::take(&mut self.known[back][l]);
                    self.reprune(&mut theirs, &mut their_known, cap);
                    self.links[back][l] = theirs;
                    self.known[back][l] = their_known;
                }
            }
            self.links[me][l] = adj;
            self.known[me][l] = known;
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
    /// [`Error::InvalidParameter`] for `m < 2` or more vectors than `u32`
    /// node ids can name.
    pub fn build(data: &Dataset, metric: Metric, config: HnswConfig) -> Result<HnswIndex> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if config.m < 2 {
            return Err(Error::invalid_parameter("m", "must be at least 2"));
        }
        // Node ids are `u32`, and the two top values are [`Verdict`]'s.
        let Some(n) = u32::try_from(data.len()).ok().filter(|&n| n < u32::MAX) else {
            return Err(Error::invalid_parameter(
                "data",
                "too many vectors for u32 node ids",
            ));
        };
        let ml = 1.0 / cast::f64_from_usize(config.m).ln();
        let mut rng = SplitMix64::new(config.seed);
        let levels: Vec<usize> = (0..n)
            .map(|_| {
                let u = rng.next_f64().max(f64::MIN_POSITIVE);
                cast::usize_from_f64(-u.ln() * ml).min(31)
            })
            .collect();

        let ef = config.ef_construction.max(config.m);
        let mut builder = Builder::new(data, metric, config.m, ef, &levels);
        for id in 1..n {
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
        w.put_count_u32(self.config.m);
        w.put_count_u32(self.config.ef_construction);
        w.put_u64_le(self.config.seed);
        w.put_u32_le(RESERVED_WORD);
        w.put_u32_le(self.entry);
        w.put_count_u32(self.max_level);
        self.data.encode_into(w);
        for per_level in &self.links {
            w.put_count_u32(per_level.len());
            for adj in per_level {
                w.put_count_u32(adj.len());
                w.put_u32s(adj.iter().copied());
            }
        }
    }

    pub(crate) fn from_persist(
        r: &mut sann_core::buf::ByteReader<'_>,
        base: Option<&Dataset>,
    ) -> Result<HnswIndex> {
        let metric = Metric::from_tag(r.get_u8()?)
            .ok_or_else(|| Error::Corrupt("hnsw: unknown metric tag".into()))?;
        let config = HnswConfig {
            m: r.get_count_u32("hnsw m", 0)?,
            ef_construction: r.get_count_u32("hnsw ef_construction", 0)?,
            seed: r.get_u64_le()?,
        };
        if r.get_u32_le()? != RESERVED_WORD {
            return Err(Error::Corrupt("hnsw: reserved word is not 1".into()));
        }
        let entry = r.get_u32_le()?;
        let max_level = r.get_count_u32("hnsw max level", 0)?;
        let data = Dataset::decode_onto(r, base)?;
        let n = data.len();
        if entry as usize >= n || max_level > 32 {
            return Err(Error::Corrupt("hnsw: entry/level out of range".into()));
        }
        let mut links: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        // `listed[nb]` is the number of the last list that named `nb`.
        let mut listed = vec![0usize; n];
        let mut lists = 0usize;
        for node in 0..n {
            // Every level's list costs at least its length word.
            let levels = r.get_count_u32("hnsw levels", 4)?;
            if levels == 0 || levels > 33 {
                return Err(Error::Corrupt("hnsw: bad level count".into()));
            }
            let mut per_level = Vec::with_capacity(levels);
            for _ in 0..levels {
                let len = r.get_count_u32("hnsw adjacency", 4)?;
                lists += 1;
                let adj: Vec<u32> = r.get_u32s(len)?.collect();
                for &nb in &adj {
                    let at = nb as usize;
                    let Some(last) = listed.get_mut(at) else {
                        return Err(Error::Corrupt("hnsw: neighbor out of range".into()));
                    };
                    if at == node {
                        return Err(Error::Corrupt("hnsw: node links to itself".into()));
                    }
                    if std::mem::replace(last, lists) == lists {
                        return Err(Error::Corrupt("hnsw: neighbor listed twice".into()));
                    }
                }
                per_level.push(adj);
            }
            links.push(per_level);
        }
        // What every build guarantees and the frame states twice: a link at
        // a level joins two nodes that both reach it, and the graph is as
        // tall as its entry node.
        for per_level in &links {
            for (level, adj) in per_level.iter().enumerate() {
                if adj.iter().any(|&nb| links[nb as usize].len() <= level) {
                    return Err(Error::Corrupt(
                        "hnsw: neighbor does not reach the level".into(),
                    ));
                }
            }
        }
        if links[entry as usize].len() != max_level + 1 {
            return Err(Error::Corrupt(
                "hnsw: max level is not the entry node's".into(),
            ));
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
}

impl VectorIndex for HnswIndex {
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
        "hnsw"
    }

    fn is_storage_based(&self) -> bool {
        false
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.data.dim(), k)?;
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
        trace.push_compute(dists, cast::u32_from_usize(self.data.dim()));
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
        /// Set by a test to build with [`Builder::reprune_from_nothing`] in
        /// place of [`Builder::reprune`].
        pub(super) static FROM_NOTHING: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
        /// Distances the build's selection walks have evaluated.
        pub(super) static EVALUATED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    impl Builder<'_> {
        /// The back-link branch [`Builder::reprune`] replaced, kept verbatim as
        /// its reference: measure every link of the overflowing list again,
        /// sort, and select from nothing.
        pub(super) fn reprune_from_nothing(&mut self, n: u32, l: usize) {
            let cap = self.max_degree(l);
            let adj = &self.links[n as usize][l];
            let mut cands = self.batch.neighbors_of(&self.pairs, n, adj);
            cands.sort_unstable();
            self.links[n as usize][l] = self.select_from_nothing(&cands, cap);
        }

        /// Algorithm 4 as first written: every candidate scored against all of
        /// `kept` as one group, and a fallback that asks `kept` what it holds.
        fn select_from_nothing(&mut self, candidates: &[Neighbor], m: usize) -> Vec<u32> {
            let mut kept: Vec<u32> = Vec::with_capacity(m);
            for &c in candidates {
                if kept.len() >= m {
                    break;
                }
                self.pairs.gather(c.id, &kept, &mut self.batch.dists);
                if !self.batch.dists.iter().any(|&d| d < c.dist) {
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
        // iff no already-kept one is closer to it than the query is, and the
        // closest pruned ones fill the list.
        let base = EmbeddingModel::new(48, 8, 31).generate(200);
        let mut builder = Builder::new(&base, Metric::L2, 16, 200, &[0; 200]);
        let dist = |a: &[f32], id: u32| Metric::L2.distance(a, base.row(id as usize));
        let q = base.row(0);
        let mut candidates: Vec<Neighbor> = (1..120u32)
            .map(|id| Neighbor::new(id, dist(q, id)))
            .collect();
        candidates.sort_unstable();
        // The heuristic keeps six of these: 4 is reached by it alone, 16
        // only with the fallback.
        for cap in [4, 16] {
            let (mut kept, mut pruned) = (Vec::new(), Vec::new());
            for &c in &candidates {
                if kept.len() >= cap {
                    break;
                }
                let cv = base.row(c.id as usize);
                match kept.iter().find(|&&k| dist(cv, k) < c.dist) {
                    None => kept.push(c.id),
                    Some(&w) => pruned.push((c.id, w)),
                }
            }
            pruned.truncate(cap - kept.len());
            let (mut adj, mut known) = (Vec::new(), Vec::new());
            builder.select_neighbors(&candidates, cap, &mut adj, &mut known);
            let want: Vec<u32> = kept
                .iter()
                .chain(pruned.iter().map(|(c, _)| c))
                .copied()
                .collect();
            assert_eq!(adj, want, "cap {cap}");
            assert_eq!(pruned.is_empty(), cap == 4, "cap {cap}");
            let verdicts = kept
                .iter()
                .map(|_| Verdict::KEPT)
                .chain(pruned.iter().map(|&(_, w)| Verdict::pruned_by(w)));
            for ((&id, link), verdict) in adj.iter().zip(&known).zip(verdicts) {
                assert_eq!(link.dist.to_bits(), dist(q, id).to_bits());
                assert_eq!(link.verdict, verdict, "cap {cap}, link {id}");
            }
        }
    }

    /// Builds `data` with `reprune` and with the from-nothing reference, and
    /// requires the same persisted bytes.
    fn assert_builds_like_from_nothing(data: &Dataset, metric: Metric, config: HnswConfig) {
        let build = || {
            let index = HnswIndex::build(data, metric, config).unwrap();
            index.persist_encode().unwrap()
        };
        let got = build();
        FROM_NOTHING.set(true);
        let want = build();
        FROM_NOTHING.set(false);
        assert!(
            got == want,
            "{metric:?} {config:?} over {} x {}-d: not the from-nothing graph",
            data.len(),
            data.dim()
        );
    }

    #[test]
    fn reprune_persists_the_same_bytes_as_selecting_from_nothing() {
        // n = 1, 2 (and 33 at m = 16) never fill a list; m = 2 overflows
        // lists of four from the fifth node on.
        for dim in [1, 8, 48] {
            let model = EmbeddingModel::new(dim, 8, 31);
            for n in [1, 2, 33, 300, 1_500] {
                let data = model.generate(n);
                for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                    for m in [2, 4, 16] {
                        for ef_construction in [m, 40, 200] {
                            let config = HnswConfig {
                                m,
                                ef_construction,
                                seed: 7,
                            };
                            assert_builds_like_from_nothing(&data, metric, config);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reprune_breaks_distance_ties_like_selecting_from_nothing() {
        // Every row twice: zero distances, and links that differ only in id.
        let mut data = Dataset::with_dim(8);
        for row in EmbeddingModel::new(8, 4, 5).generate(150).iter() {
            data.push(row).unwrap();
            data.push(row).unwrap();
        }
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            for m in [2, 16] {
                let config = HnswConfig {
                    m,
                    ef_construction: 40,
                    seed: 7,
                };
                assert_builds_like_from_nothing(&data, metric, config);
            }
        }
    }

    const KEPT: Verdict = Verdict::KEPT;
    const UNSEEN: Verdict = Verdict::UNSEEN;

    fn by(witness: u32) -> Verdict {
        Verdict::pruned_by(witness)
    }

    /// Runs `reprune` over the list `stored` of node 0 of `points` (in the
    /// plane, under L2; every link gets its true length), checks the ids
    /// against selecting from nothing, and returns the new list and the
    /// number of distances the walk evaluated.
    fn repruned(
        points: &[[f32; 2]],
        stored: &[(u32, Verdict)],
        cap: usize,
    ) -> (Vec<(u32, Verdict)>, usize) {
        let data = Dataset::from_rows(points.iter().map(|p| p.to_vec()).collect()).unwrap();
        let mut builder = Builder::new(&data, Metric::L2, 2, 2, &vec![0; data.len()]);
        let length = |id: u32| Metric::L2.distance(data.row(0), data.row(id as usize));
        let mut cands: Vec<Neighbor> = stored
            .iter()
            .map(|&(id, _)| Neighbor::new(id, length(id)))
            .collect();
        cands.sort_unstable();
        let want = builder.select_from_nothing(&cands, cap);

        let mut adj: Vec<u32> = stored.iter().map(|&(id, _)| id).collect();
        let mut known: Vec<Link> = stored
            .iter()
            .map(|&(id, verdict)| Link {
                dist: length(id),
                verdict,
            })
            .collect();
        let before = EVALUATED.get();
        builder.reprune(&mut adj, &mut known, cap);
        let evaluated = EVALUATED.get() - before;
        assert_eq!(adj, want, "not the from-nothing list");
        for (&id, link) in adj.iter().zip(&known) {
            assert_eq!(link.dist.to_bits(), length(id).to_bits(), "link {id}");
        }
        let list = adj.into_iter().zip(known.iter().map(|link| link.verdict));
        (list.collect(), evaluated)
    }

    #[test]
    fn a_pruned_newcomer_changes_nothing_behind_it() {
        // On a line, a link is pruned by any kept link between it and the
        // owner. The newcomer 4 lands behind 1 and is pruned by it: one
        // distance, and every other link keeps its verdict unasked.
        let points = [
            [0., 0.],
            [1., 0.],
            [-2., 0.],
            [3., 0.],
            [1.5, 0.],
            [-7., 0.],
        ];
        let stored = [(1, KEPT), (2, KEPT), (3, by(1)), (5, by(2)), (4, UNSEEN)];
        let (list, evaluated) = repruned(&points, &stored, 4);
        assert_eq!(list, [(1, KEPT), (2, KEPT), (4, by(1)), (3, by(1))]);
        assert_eq!(evaluated, 1);
    }

    #[test]
    fn a_kept_newcomer_fells_a_kept_link_and_its_dependant_becomes_kept() {
        // 2 = (4, 0) pruned 3 = (5, 5). The newcomer 4 = (2, -2) is kept and
        // is closer to 2 than the owner is, so 2 falls; 3 is decided again,
        // and neither 4 nor 1 is close enough to prune it. 5 hangs on 1,
        // which stands. Evaluated: 4 against 1, 4 against the three links
        // behind it, 3 against 1, 3 against the one link behind it.
        let points = [
            [0., 0.],
            [-1., 0.],
            [4., 0.],
            [5., 5.],
            [2., -2.],
            [-9., 1.],
        ];
        let stored = [(1, KEPT), (2, KEPT), (3, by(2)), (5, by(1)), (4, UNSEEN)];
        let (list, evaluated) = repruned(&points, &stored, 4);
        assert_eq!(list, [(1, KEPT), (4, KEPT), (3, KEPT), (2, by(4))]);
        assert_eq!(evaluated, 6);
    }

    #[test]
    fn a_kept_newcomer_fells_a_witness_and_its_dependant_finds_another() {
        // As above, but 5 = (1, 6) is kept too and is close to 3: once its
        // witness 2 has fallen, 3 is decided again and pruned by 5.
        let points = [
            [0., 0.],
            [-1., 0.],
            [4., 0.],
            [5., 5.],
            [2., -2.],
            [1., 6.],
            [-9., 1.],
        ];
        let stored = [
            (1, KEPT),
            (2, KEPT),
            (5, KEPT),
            (3, by(2)),
            (6, by(1)),
            (4, UNSEEN),
        ];
        let (list, evaluated) = repruned(&points, &stored, 5);
        let want = [(1, KEPT), (4, KEPT), (5, KEPT), (2, by(4)), (3, by(5))];
        assert_eq!(list, want);
        assert_eq!(evaluated, 1 + 4 + 2);
    }

    #[test]
    fn a_standing_witness_keeps_its_links_pruned_without_a_distance() {
        // Three links hang on 1. The newcomer is the farthest: it is scored
        // against 1, the only kept link, and nothing else is scored at all.
        let points = [[0., 0.], [1., 0.], [2., 0.], [3., 0.], [4., 0.], [-9., 0.]];
        let stored = [(1, KEPT), (2, by(1)), (3, by(1)), (4, by(1)), (5, UNSEEN)];
        let (list, evaluated) = repruned(&points, &stored, 4);
        assert_eq!(list, [(1, KEPT), (5, KEPT), (2, by(1)), (3, by(1))]);
        assert_eq!(evaluated, 1);
    }

    #[test]
    fn the_walk_stops_at_cap_kept_and_drops_the_rest_undecided() {
        // 2 was kept and nothing prunes it, but 1 and the newcomer fill the
        // list before the walk reaches it.
        let points = [[0., 0.], [1., 0.], [-2., 0.], [0., 1.5]];
        let stored = [(1, KEPT), (2, KEPT), (3, UNSEEN)];
        let (list, evaluated) = repruned(&points, &stored, 2);
        assert_eq!(list, [(1, KEPT), (3, KEPT)]);
        assert_eq!(evaluated, 2);
    }

    #[test]
    fn the_new_list_is_kept_then_pruned_each_by_distance_then_id() {
        // 3 and 5 are equally far; the stored order is not looked at.
        let points = [
            [0., 0.],
            [1., 0.],
            [-2., 0.],
            [3., 0.],
            [1.5, 0.],
            [-3., 0.],
            [9., 0.],
        ];
        let stored = [
            (6, by(1)),
            (5, by(2)),
            (4, UNSEEN),
            (3, by(1)),
            (2, KEPT),
            (1, KEPT),
        ];
        let (list, _) = repruned(&points, &stored, 5);
        let want = [(1, KEPT), (2, KEPT), (4, by(1)), (3, by(1)), (5, by(2))];
        assert_eq!(list, want);
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
    fn rejects_invalid_build() {
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
    }

    #[test]
    fn descent_stops_at_a_node_below_the_level() {
        // Node 1 is listed at level 1 but only reaches level 0 — nothing a
        // build produces or `from_persist` lets in, but search does not
        // lean on either.
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

    /// The frame of a valid three-node graph — node 2 stops at level 0, the
    /// other two reach level 1 — and where its payload starts. The payload
    /// ends with the adjacency section, 16 words.
    fn valid_frame() -> (Vec<u8>, usize) {
        let index = HnswIndex {
            data: Dataset::from_rows(vec![vec![0.0], vec![4.0], vec![5.0]]).unwrap(),
            metric: Metric::L2,
            links: vec![
                vec![vec![1, 2], vec![1]],
                vec![vec![0, 2], vec![0]],
                vec![vec![0, 1]],
            ],
            entry: 0,
            max_level: 1,
            config: HnswConfig::default(),
        };
        let frame = index.persist_encode().unwrap();
        let mut payload = sann_core::buf::ByteWriter::new();
        index.persist_payload(&mut payload);
        let start = frame.len() - payload.as_slice().len();
        (frame, start)
    }

    fn patched(mut frame: Vec<u8>, at: usize, value: u32) -> Vec<u8> {
        frame[at..at + 4].copy_from_slice(&value.to_le_bytes());
        frame
    }

    /// The valid frame with word `word` of its adjacency section replaced.
    fn with_adjacency_word(word: usize, value: u32) -> Vec<u8> {
        let (frame, _) = valid_frame();
        let at = frame.len() - 4 * (16 - word);
        patched(frame, at, value)
    }

    /// Decoding `frame` fails naming `what`, with no hint and onto the
    /// vectors the frame embeds alike.
    fn assert_corrupt(frame: &[u8], what: &str) {
        let base = Dataset::from_rows(vec![vec![0.0], vec![4.0], vec![5.0]]).unwrap();
        for hint in [None, Some(&base)] {
            match crate::persist::decode_onto(frame, hint) {
                Err(Error::Corrupt(message)) => assert!(message.contains(what), "{message}"),
                other => panic!("expected Corrupt({what}), got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn from_persist_takes_the_frame_the_patches_start_from() {
        let back = crate::persist::decode(&valid_frame().0).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn from_persist_rejects_a_neighbor_below_the_level() {
        // Node 0's level-1 list names node 2, which has no level 1.
        assert_corrupt(&with_adjacency_word(5, 2), "does not reach the level");
    }

    #[test]
    fn from_persist_rejects_a_self_link() {
        assert_corrupt(&with_adjacency_word(2, 0), "links to itself");
    }

    #[test]
    fn from_persist_rejects_a_neighbor_listed_twice() {
        // Node 0's level-0 list becomes [2, 2].
        assert_corrupt(&with_adjacency_word(2, 2), "listed twice");
    }

    #[test]
    fn from_persist_rejects_a_max_level_that_is_not_the_entry_nodes() {
        // The payload opens: metric u8, m, ef u32, seed u64, reserved,
        // entry, max_level u32. A lower max_level, then a shorter entry.
        let (frame, payload) = valid_frame();
        assert_corrupt(&patched(frame.clone(), payload + 25, 0), "max level");
        assert_corrupt(&patched(frame, payload + 21, 2), "max level");
    }

    #[test]
    fn from_persist_refuses_a_count_beyond_the_frame() {
        // The dataset's row count (a u64 after its u32 dim, which follows the
        // 29-byte header above) becomes 2^62; then a level's list length.
        let (mut huge, payload) = valid_frame();
        huge[payload + 33..payload + 41].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert_corrupt(&huge, "dataset rows");
        assert_corrupt(&with_adjacency_word(1, u32::MAX), "hnsw adjacency");
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
