//! Vamana graph construction — the in-memory half of DiskANN (Subramanya et
//! al., NeurIPS 2019).
//!
//! Vamana builds a flat proximity graph with bounded degree `R` using
//! *robust pruning*: a candidate edge is kept only if no already-kept
//! neighbor is `alpha`× closer to the candidate than the node itself. With
//! `alpha > 1` the graph keeps a few long-range edges, which is what bounds
//! the number of hops (and therefore round trips to storage) per search.
//!
//! A build refines the nodes one after another, in the seeded order, over
//! plain adjacency lists: a seed fixes the graph on any machine. Only the
//! closing degree-bound pass, where every node prunes its own list against
//! the data alone, is fanned out over threads.
//!
//! Every distance a build asks for is between two rows of its own dataset,
//! and it asks for each pair many times (6.6 on average at 500 x 768-d).
//! The build's searches and prunes all ask one build-scoped `RowDistances`.
//! Up to `2 * dim - 1` rows, where the table of every pair is no larger
//! than the data, it measures each pair once and answers by lookup; above,
//! it runs the batched kernel per request (DESIGN.md §14, "Each pair
//! measured once"). The sequential passes share one `Batch`, whose
//! epoch-stamped mark is both the searches' visited set and the prunes'
//! de-duplication, so neither allocates one per node.

use crate::batch::{best_first, Batch};
use crate::pairs::RowDistances;
use sann_core::par;
use sann_core::rng::SplitMix64;
use sann_core::{cast, Dataset, Error, Metric, Neighbor, Result};

/// Build-time configuration for [`VamanaGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VamanaConfig {
    /// Maximum out-degree `R` (DiskANN default 64).
    pub r: usize,
    /// Build-time candidate list size `L` (DiskANN default 100).
    pub l_build: usize,
    /// Pruning slack `alpha` (DiskANN default 1.2). `1.0` yields a plain
    /// relative-neighborhood-style graph with longer search paths.
    pub alpha: f32,
    /// RNG seed for the initial random graph and insertion order.
    pub seed: u64,
    /// Worker threads of the closing degree-bound pass; 0 means all cores.
    /// Speed only: the graph does not depend on it.
    pub threads: usize,
}

impl Default for VamanaConfig {
    fn default() -> Self {
        VamanaConfig {
            r: 64,
            l_build: 100,
            alpha: 1.2,
            seed: 0xD15C,
            threads: 0,
        }
    }
}

/// A built Vamana graph: bounded-degree adjacency plus the medoid entry
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct VamanaGraph {
    adj: Vec<Vec<u32>>,
    medoid: u32,
    r: usize,
}

impl VamanaGraph {
    /// Builds the graph over `data` with two passes (alpha = 1.0, then the
    /// configured alpha), as in the DiskANN paper.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] for an empty dataset and
    /// [`Error::InvalidParameter`] for `r == 0` or `alpha < 1.0`.
    pub fn build(data: &Dataset, metric: Metric, config: VamanaConfig) -> Result<VamanaGraph> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if config.r == 0 {
            return Err(Error::invalid_parameter("r", "must be positive"));
        }
        if config.alpha < 1.0 {
            return Err(Error::invalid_parameter("alpha", "must be >= 1.0"));
        }
        let n = data.len();
        let r = config.r.min(n.saturating_sub(1)).max(1);
        let medoid = find_medoid(data);
        let mut rng = SplitMix64::new(config.seed);

        // Random initial graph.
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut nbrs = Vec::with_capacity(r);
                while nbrs.len() < r && n > 1 {
                    let cand = cast::u32_from_u64(rng.next_bounded(n as u64));
                    if cand as usize != i && !nbrs.contains(&cand) {
                        nbrs.push(cand);
                    }
                }
                nbrs
            })
            .collect();

        let mut builder = GraphBuilder {
            pairs: RowDistances::new(metric, data),
            adj,
            medoid,
            r,
            l_build: config.l_build,
            batch: Batch::default(),
        };

        // Random insertion order, shared by both passes.
        let mut order: Vec<u32> = (0..cast::u32_from_usize(n)).collect();
        rng.shuffle(&mut order);
        for alpha in [1.0f32, config.alpha] {
            for &id in &order {
                builder.refine(id, alpha);
            }
        }
        let threads = if config.threads == 0 {
            par::default_threads()
        } else {
            config.threads
        };
        builder.enforce_degree_bound(config.alpha, threads);

        Ok(VamanaGraph {
            adj: builder.adj,
            medoid,
            r,
        })
    }

    /// Entry point for searches (the dataset medoid).
    pub fn medoid(&self) -> u32 {
        self.medoid
    }

    /// Degree bound `R`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Out-neighbors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: u32) -> &[u32] {
        &self.adj[id as usize]
    }

    /// Appends the canonical little-endian encoding (degree bound, medoid,
    /// then per-node adjacency lists) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        buf.put_count_u32(self.r);
        buf.put_u32_le(self.medoid);
        buf.put_count_u64(self.adj.len());
        for nbrs in &self.adj {
            buf.put_count_u32(nbrs.len());
            buf.put_u32s(nbrs.iter().copied());
        }
    }

    /// Reads a graph previously written by [`VamanaGraph::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, an out-of-range medoid or
    /// neighbor id, and the three shapes no build writes: a node that links
    /// to itself, an id twice in one list, a list longer than the degree
    /// bound.
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<VamanaGraph> {
        let degree = r.get_count_u32("vamana r", 0)?;
        let medoid = r.get_u32_le()?;
        // Every list costs at least its length word.
        let n = r.get_count_u64("vamana adjacency", 4)?;
        if medoid as usize >= n {
            return Err(Error::Corrupt("vamana: medoid out of range".into()));
        }
        let mut adj = Vec::with_capacity(n);
        // `listed[nb]` is one more than the last node whose list named `nb`.
        let mut listed = vec![0usize; n];
        for node in 0..n {
            let len = r.get_count_u32("vamana adjacency", 4)?;
            if len > degree {
                return Err(Error::Corrupt("vamana: list longer than r".into()));
            }
            let nbrs: Vec<u32> = r.get_u32s(len)?.collect();
            for &nb in &nbrs {
                let at = nb as usize;
                let Some(last) = listed.get_mut(at) else {
                    return Err(Error::Corrupt("vamana: neighbor out of range".into()));
                };
                if at == node {
                    return Err(Error::Corrupt("vamana: node links to itself".into()));
                }
                if std::mem::replace(last, node + 1) == node + 1 {
                    return Err(Error::Corrupt("vamana: neighbor listed twice".into()));
                }
            }
            adj.push(nbrs);
        }
        Ok(VamanaGraph {
            adj,
            medoid,
            r: degree,
        })
    }

    /// Greedy best-first search over the graph in memory (used by tests and
    /// as the reference for DiskANN's beam search). Returns the `l` best
    /// candidates found plus the number of distance evaluations.
    pub fn greedy_search(
        &self,
        data: &Dataset,
        metric: Metric,
        query: &[f32],
        l: usize,
    ) -> (Vec<Neighbor>, u64) {
        let mut dists = 0u64;
        let found = best_first(
            self.adj.len(),
            self.medoid,
            l,
            |n| self.neighbors(n),
            |ids, out| {
                dists += ids.len() as u64;
                metric.distance_gather(query, data, ids, out);
            },
            |_| {},
            &mut Batch::default(),
        );
        (found, dists)
    }
}

struct GraphBuilder<'a> {
    /// Every distance the build asks for is between two of its rows.
    pairs: RowDistances<'a>,
    adj: Vec<Vec<u32>>,
    medoid: u32,
    r: usize,
    l_build: usize,
    /// Scratch of the sequential passes, reused by every refinement.
    batch: Batch,
}

impl GraphBuilder<'_> {
    /// Best-first search from the medoid for node `id`, collecting every
    /// expanded node.
    fn search_visited(&mut self, id: u32) -> Vec<Neighbor> {
        let mut expanded = Vec::with_capacity(self.l_build * 4);
        best_first(
            self.adj.len(),
            self.medoid,
            self.l_build,
            |n| &self.adj[n as usize],
            |ids, out| self.pairs.gather(id, ids, out),
            |cand| expanded.push(cand),
            &mut self.batch,
        );
        expanded
    }

    /// One refinement step for node `id` (DiskANN Algorithm 1 body).
    fn refine(&mut self, id: u32, alpha: f32) {
        let r = self.r;
        let mut pool = self.search_visited(id);
        let GraphBuilder {
            pairs, adj, batch, ..
        } = self;
        // Merge current out-neighbors into the candidate pool.
        pool.extend(batch.neighbors_of(pairs, id, &adj[id as usize]));
        let new_out = robust_prune(pairs, id, pool, alpha, r, batch);
        adj[id as usize] = new_out.clone();

        // Insert back-edges. Overflowing nodes are allowed r/2 slack before
        // being re-pruned (amortizes the O(R·|C|) prune; the final build
        // pass in `VamanaGraph::build` restores the strict bound).
        for nb in new_out {
            let adj = &mut adj[nb as usize];
            if adj.contains(&id) {
                continue;
            }
            adj.push(id);
            if adj.len() > r + r / 2 {
                let cands = batch.neighbors_of(pairs, nb, adj);
                *adj = robust_prune(pairs, nb, cands, alpha, r, batch);
            }
        }
    }

    /// Restores the strict degree bound after the slack-tolerant passes.
    /// Each node prunes its own list against the data alone (every thread
    /// reads the one `pairs`), so how the nodes are split over `threads`
    /// cannot change the graph.
    fn enforce_degree_bound(&mut self, alpha: f32, threads: usize) {
        let (pairs, r) = (&self.pairs, self.r);
        par::par_chunks_mut(&mut self.adj, 1, threads, |first, lists| {
            let mut batch = Batch::default();
            for (id, adj) in (cast::u32_from_usize(first)..).zip(lists) {
                if adj.len() > r {
                    let cands = batch.neighbors_of(pairs, id, adj);
                    *adj = robust_prune(pairs, id, cands, alpha, r, &mut batch);
                }
            }
        });
    }
}

/// Robust prune (DiskANN Algorithm 2): keeps at most `r` of `candidates`
/// as out-neighbors of `p`; after keeping a candidate `p*`, drops every
/// later candidate `p'` with `alpha * d(p*, p') <= d(p, p')`. Shared by the
/// static build and the streaming (FreshDiskANN-style) mutations.
pub(crate) fn robust_prune(
    pairs: &RowDistances,
    p: u32,
    mut candidates: Vec<Neighbor>,
    alpha: f32,
    r: usize,
    batch: &mut Batch,
) -> Vec<u32> {
    candidates.retain(|c| c.id != p);
    candidates.sort_unstable();
    // Sorting by (dist, id) can leave same-id entries non-adjacent when
    // stored dists differ; keep the first of each id via the batch's mark.
    batch.mark.reset(pairs.rows());
    candidates.retain(|c| batch.mark.insert(c.id));

    // `candidates[next..]` is the pool still in the running, closest first.
    let mut kept: Vec<u32> = Vec::with_capacity(r);
    let mut next = 0;
    while let Some(&pstar) = candidates.get(next) {
        next += 1;
        kept.push(pstar.id);
        if kept.len() >= r {
            break;
        }
        batch.ids.clear();
        batch.ids.extend(candidates[next..].iter().map(|c| c.id));
        pairs.gather(pstar.id, &batch.ids, &mut batch.dists);
        // Drop every pool member `pstar` occludes; the rest keep their order.
        let mut live = next;
        for (j, &d_between) in (next..candidates.len()).zip(&batch.dists) {
            let cand = candidates[j];
            if alpha * d_between <= cand.dist {
                continue;
            }
            candidates[live] = cand;
            live += 1;
        }
        candidates.truncate(live);
    }
    kept
}

/// The vector closest to the dataset mean (sampled scan for very large sets).
fn find_medoid(data: &Dataset) -> u32 {
    let dim = data.dim();
    let mut centroid = vec![0.0f32; dim];
    for row in data.iter() {
        for (acc, &x) in centroid.iter_mut().zip(row) {
            *acc += x;
        }
    }
    let inv = 1.0 / cast::f32_rounded_from_usize(data.len());
    for x in centroid.iter_mut() {
        *x *= inv;
    }
    let mut dists = vec![0.0f32; data.len()];
    Metric::L2.distance_rows(&centroid, data.as_flat(), &mut dists);
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for (i, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = cast::u32_from_usize(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_core::TopK;
    use sann_datagen::{EmbeddingModel, GroundTruth};
    use std::collections::BinaryHeap;

    fn build_small(config: VamanaConfig) -> (Dataset, Dataset, GroundTruth, VamanaGraph) {
        let model = EmbeddingModel::new(48, 8, 77);
        let base = model.generate(2_000);
        let queries = model.generate_queries(30);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let graph = VamanaGraph::build(&base, Metric::L2, config).unwrap();
        (base, queries, gt, graph)
    }

    fn graph_recall(
        base: &Dataset,
        queries: &Dataset,
        gt: &GroundTruth,
        graph: &VamanaGraph,
        l: usize,
    ) -> f64 {
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let (found, _) = graph.greedy_search(base, Metric::L2, q, l);
            let ids: Vec<u32> = found.iter().take(10).map(|n| n.id).collect();
            total += recall_at_k(gt.neighbors(i), &ids, 10);
        }
        total / queries.len() as f64
    }

    /// Robust prune as it was before the batched kernels: removal flags,
    /// one distance at a time.
    fn robust_prune_per_pair(
        data: &Dataset,
        p: u32,
        mut candidates: Vec<Neighbor>,
        alpha: f32,
        r: usize,
    ) -> Vec<u32> {
        candidates.retain(|c| c.id != p);
        candidates.sort_unstable();
        let mut seen = std::collections::BTreeSet::new();
        candidates.retain(|c| seen.insert(c.id));
        let mut kept = Vec::new();
        let mut removed = vec![false; candidates.len()];
        for i in 0..candidates.len() {
            if removed[i] {
                continue;
            }
            kept.push(candidates[i].id);
            if kept.len() >= r {
                break;
            }
            let pv = data.row(candidates[i].id as usize);
            for j in i + 1..candidates.len() {
                let cand = candidates[j];
                let d_between = Metric::L2.distance(pv, data.row(cand.id as usize));
                if !removed[j] && alpha * d_between <= cand.dist {
                    removed[j] = true;
                }
            }
        }
        kept
    }

    #[test]
    fn robust_prune_matches_per_pair_reference() {
        let data = EmbeddingModel::new(32, 6, 9).generate(400);
        let mut batch = Batch::default();
        for (p, alpha, r) in [
            (0u32, 1.0f32, 8usize),
            (17, 1.2, 16),
            (399, 1.2, 500),
            (5, 2.0, 3),
        ] {
            // Duplicates and `p` itself are in the pool, as in a build.
            let pool: Vec<Neighbor> = (0..300u32)
                .map(|i| (i * 7 + p) % 400)
                .map(|id| {
                    Neighbor::new(
                        id,
                        Metric::L2.distance(data.row(p as usize), data.row(id as usize)),
                    )
                })
                .collect();
            let want = robust_prune_per_pair(&data, p, pool.clone(), alpha, r);
            for table in [false, true] {
                crate::pairs::FORCE_TABLE.set(Some(table));
                let pairs = RowDistances::new(Metric::L2, &data);
                crate::pairs::FORCE_TABLE.set(None);
                let got = robust_prune(&pairs, p, pool.clone(), alpha, r, &mut batch);
                assert_eq!(got, want, "table {table}");
            }
        }
    }

    #[test]
    fn greedy_search_matches_per_pair_reference() {
        let (base, queries, _, graph) = build_small(VamanaConfig {
            r: 16,
            l_build: 40,
            ..VamanaConfig::default()
        });
        for q in queries.iter() {
            let (got, got_dists) = graph.greedy_search(&base, Metric::L2, q, 30);
            let mut dists = 0u64;
            let mut dist = |id: u32| {
                dists += 1;
                Metric::L2.distance(q, base.row(id as usize))
            };
            let mut visited = vec![false; graph.len()];
            visited[graph.medoid() as usize] = true;
            let d0 = dist(graph.medoid());
            let mut best = TopK::new(30);
            best.push(graph.medoid(), d0);
            let mut frontier =
                BinaryHeap::from([std::cmp::Reverse(Neighbor::new(graph.medoid(), d0))]);
            while let Some(std::cmp::Reverse(cand)) = frontier.pop() {
                if cand.dist > best.bound() {
                    break;
                }
                for &nb in graph.neighbors(cand.id) {
                    if std::mem::replace(&mut visited[nb as usize], true) {
                        continue;
                    }
                    let d = dist(nb);
                    if d < best.bound() || !best.is_full() {
                        best.push(nb, d);
                        frontier.push(std::cmp::Reverse(Neighbor::new(nb, d)));
                    }
                }
            }
            let key = |ns: Vec<Neighbor>| -> Vec<(u32, u32)> {
                ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
            };
            assert_eq!(key(got), key(best.into_sorted_vec()));
            assert_eq!(got_dists, dists);
        }
    }

    #[test]
    fn degree_bound_holds() {
        let config = VamanaConfig {
            r: 24,
            ..VamanaConfig::default()
        };
        let (_, _, _, graph) = build_small(config);
        for id in 0..graph.len() as u32 {
            assert!(
                graph.neighbors(id).len() <= 24,
                "degree bound violated at {id}"
            );
        }
    }

    #[test]
    fn greedy_search_reaches_high_recall() {
        let (base, queries, gt, graph) = build_small(VamanaConfig {
            r: 32,
            ..VamanaConfig::default()
        });
        let recall = graph_recall(&base, &queries, &gt, &graph, 50);
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn alpha_reduces_hops_vs_plain_rng() {
        // The DESIGN.md ablation: alpha > 1 keeps long edges, shortening
        // search paths (fewer distance evaluations to converge).
        let plain = VamanaConfig {
            alpha: 1.0,
            r: 32,
            ..VamanaConfig::default()
        };
        let slack = VamanaConfig {
            alpha: 1.3,
            r: 32,
            ..VamanaConfig::default()
        };
        let (base, queries, gt, g_plain) = build_small(plain);
        let (_, _, _, g_slack) = build_small(slack);
        let r_plain = graph_recall(&base, &queries, &gt, &g_plain, 50);
        let r_slack = graph_recall(&base, &queries, &gt, &g_slack, 50);
        assert!(
            r_slack >= r_plain - 0.05,
            "alpha-pruned graph should not lose recall: {r_slack} vs {r_plain}"
        );
    }

    #[test]
    fn medoid_is_central() {
        let (base, _, _, graph) = build_small(VamanaConfig::default());
        // The medoid's mean distance to 100 sampled points must be below the
        // dataset-wide average pairwise distance.
        let m = base.row(graph.medoid() as usize);
        let mean_from_medoid: f32 = (0..100)
            .map(|i| Metric::L2.distance(m, base.row(i * 7)))
            .sum::<f32>()
            / 100.0;
        let mean_pairwise: f32 = (0..100)
            .map(|i| Metric::L2.distance(base.row(i), base.row(i * 7 % base.len())))
            .sum::<f32>()
            / 100.0;
        assert!(mean_from_medoid <= mean_pairwise * 1.1);
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        use crate::{DiskAnnConfig, DiskAnnIndex, VectorIndex};
        let base = EmbeddingModel::new(48, 8, 77).generate(2_000);
        let build = |threads: usize| {
            let config = DiskAnnConfig {
                graph: VamanaConfig {
                    r: 24,
                    threads,
                    ..VamanaConfig::default()
                },
                pq_ksub: 32,
                ..DiskAnnConfig::default()
            };
            let index = DiskAnnIndex::build(&base, Metric::L2, config).unwrap();
            (index.graph().clone(), index.persist_encode().unwrap())
        };
        let want = build(1);
        for threads in [2, 8, 0] {
            assert!(build(threads) == want, "threads={threads}");
        }
    }

    /// The frame of a valid three-node graph, `r = 2`. In 4-byte words: `r`,
    /// the medoid, the node count (two words), then `[2, 1, 2]`, `[2, 0, 2]`
    /// and `[2, 0, 1]` — each list behind its length.
    fn valid_frame() -> Vec<u8> {
        let graph = VamanaGraph {
            adj: vec![vec![1, 2], vec![0, 2], vec![0, 1]],
            medoid: 0,
            r: 2,
        };
        let mut w = sann_core::buf::ByteWriter::new();
        graph.encode_into(&mut w);
        w.into_bytes()
    }

    fn decode(frame: &[u8]) -> Result<VamanaGraph> {
        VamanaGraph::decode_from(&mut sann_core::buf::ByteReader::new(frame, "test"))
    }

    /// Decodes the valid frame with `word` replaced and expects `Corrupt`.
    fn assert_corrupt(word: usize, value: u32, what: &str) {
        let mut frame = valid_frame();
        frame[word * 4..word * 4 + 4].copy_from_slice(&value.to_le_bytes());
        match decode(&frame) {
            Err(Error::Corrupt(message)) => assert!(message.contains(what), "{message}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    #[test]
    fn decode_takes_the_frame_the_patches_start_from() {
        let frame = valid_frame();
        let graph = decode(&frame).unwrap();
        assert_eq!(graph.neighbors(2), [0, 1]);
        let mut w = sann_core::buf::ByteWriter::new();
        graph.encode_into(&mut w);
        assert_eq!(w.into_bytes(), frame);
    }

    #[test]
    fn decode_bounds_the_node_count_before_sizing_by_it() {
        // 2^62 nodes (the count's high word), then a list of 2^32 - 1:
        // refused, not allocated.
        assert_corrupt(3, 1 << 30, "vamana adjacency");
        assert_corrupt(4, u32::MAX, "vamana adjacency");
    }

    #[test]
    fn decode_rejects_a_self_link() {
        assert_corrupt(5, 0, "links to itself");
    }

    #[test]
    fn decode_rejects_a_neighbor_listed_twice() {
        // Node 0's list becomes [2, 2].
        assert_corrupt(5, 2, "listed twice");
    }

    #[test]
    fn decode_rejects_a_list_longer_than_r() {
        assert_corrupt(0, 1, "longer than r");
    }

    #[test]
    fn rejects_invalid_config() {
        let data = EmbeddingModel::new(8, 2, 1).generate(10);
        assert!(VamanaGraph::build(
            &data,
            Metric::L2,
            VamanaConfig {
                r: 0,
                ..VamanaConfig::default()
            }
        )
        .is_err());
        assert!(VamanaGraph::build(
            &data,
            Metric::L2,
            VamanaConfig {
                alpha: 0.5,
                ..VamanaConfig::default()
            }
        )
        .is_err());
        assert!(
            VamanaGraph::build(&Dataset::with_dim(8), Metric::L2, VamanaConfig::default()).is_err()
        );
    }

    #[test]
    fn graph_is_connected_enough_to_find_self() {
        let (base, _, _, graph) = build_small(VamanaConfig::default());
        let mut found_self = 0;
        for i in (0..base.len()).step_by(97) {
            let (found, _) = graph.greedy_search(&base, Metric::L2, base.row(i), 20);
            if found.first().map(|n| n.id) == Some(i as u32) {
                found_self += 1;
            }
        }
        let total = (0..base.len()).step_by(97).count();
        assert!(
            found_self >= total * 9 / 10,
            "{found_self}/{total} self-lookups succeeded"
        );
    }
}
