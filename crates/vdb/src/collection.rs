//! Collections: vectors + payloads + an optional index.

use crate::payload::{Filter, Payload};
use sann_core::{Dataset, Error, Metric, Neighbor, Result};
use sann_index::{
    DiskAnnConfig, DiskAnnIndex, FlatIndex, HnswConfig, HnswIndex, HnswSqIndex, IvfConfig,
    IvfIndex, IvfPqIndex, QueryTrace, SearchParams, VectorIndex,
};

/// Which index to build over a collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexSpec {
    /// Exact scan (no approximate index).
    Flat,
    /// Memory-based IVF-Flat.
    Ivf(IvfConfig),
    /// Storage-based IVF with product quantization (`m` sub-spaces of
    /// `ksub` centroids).
    IvfPq {
        /// Clustering configuration.
        config: IvfConfig,
        /// PQ sub-spaces.
        m: usize,
        /// PQ centroids per sub-space.
        ksub: usize,
    },
    /// Memory-based HNSW.
    Hnsw(HnswConfig),
    /// Memory-based HNSW over scalar-quantized vectors (smaller memory
    /// footprint, slightly lower recall at equal `efSearch`).
    HnswSq(HnswConfig),
    /// Storage-based DiskANN.
    DiskAnn(DiskAnnConfig),
}

impl IndexSpec {
    /// The [`VectorIndex::kind`] of the index [`IndexSpec::build`] returns.
    pub fn family(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::Ivf(_) => "ivf",
            IndexSpec::IvfPq { .. } => "ivf-pq",
            IndexSpec::Hnsw(_) => "hnsw",
            IndexSpec::HnswSq(_) => "hnsw-sq",
            IndexSpec::DiskAnn(_) => "diskann",
        }
    }

    /// Builds the described index over `data`. IVF-PQ ignores `metric`: it
    /// ranks by L2 ADC distance.
    ///
    /// # Errors
    ///
    /// Propagates the index family's build errors.
    pub fn build(&self, data: &Dataset, metric: Metric) -> Result<Box<dyn VectorIndex>> {
        Ok(match *self {
            IndexSpec::Flat => Box::new(FlatIndex::build(data, metric)),
            IndexSpec::Ivf(config) => Box::new(IvfIndex::build(data, metric, config)?),
            IndexSpec::IvfPq { config, m, ksub } => {
                Box::new(IvfPqIndex::build(data, config, m, ksub)?)
            }
            IndexSpec::Hnsw(config) => Box::new(HnswIndex::build(data, metric, config)?),
            IndexSpec::HnswSq(config) => Box::new(HnswSqIndex::build(data, metric, config)?),
            IndexSpec::DiskAnn(config) => Box::new(DiskAnnIndex::build(data, metric, config)?),
        })
    }
}

/// One result of a collection search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Vector id within the collection.
    pub id: u32,
    /// Distance to the query.
    pub dist: f32,
    /// The vector's payload (cloned).
    pub payload: Payload,
}

/// A named set of vectors with payloads, deletions, and an optional index.
///
/// Deletes are tombstones: the index keeps the vector until the next
/// [`Collection::build_index`], but search results exclude it immediately
/// (the strategy Milvus/Qdrant use between compactions).
pub struct Collection {
    name: String,
    metric: Metric,
    vectors: Dataset,
    payloads: Vec<Payload>,
    deleted: Vec<bool>,
    index: Option<Box<dyn VectorIndex>>,
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("len", &self.vectors.len())
            .field("dim", &self.vectors.dim())
            .field("indexed", &self.index.is_some())
            .finish()
    }
}

impl Collection {
    /// Creates an empty collection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dim` is zero.
    pub fn new(name: impl Into<String>, dim: usize, metric: Metric) -> Result<Collection> {
        if dim == 0 {
            return Err(Error::invalid_parameter("dim", "must be positive"));
        }
        let empty = Dataset::with_dim(dim);
        Ok(Collection::from_dataset(name, &empty, metric))
    }

    /// Creates a collection pre-populated from a dataset (payloads empty).
    pub fn from_dataset(name: impl Into<String>, data: &Dataset, metric: Metric) -> Collection {
        let n = data.len();
        let payloads = vec![Payload::default(); n];
        Collection::from_parts(name.into(), metric, data.clone(), payloads, vec![false; n])
    }

    /// An unindexed collection; `payloads` and `deleted` hold one entry per
    /// row of `vectors`.
    pub(crate) fn from_parts(
        name: String,
        metric: Metric,
        vectors: Dataset,
        payloads: Vec<Payload>,
        deleted: Vec<bool>,
    ) -> Collection {
        Collection {
            name,
            metric,
            vectors,
            payloads,
            deleted,
            index: None,
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.vectors.dim()
    }

    /// The search metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Total vectors ever inserted (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the collection has no vectors at all.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Number of live (non-deleted) vectors.
    pub fn live_len(&self) -> usize {
        self.deleted.iter().filter(|&&d| !d).count()
    }

    /// Read-only access to the built index.
    pub fn index(&self) -> Option<&dyn VectorIndex> {
        self.index.as_deref()
    }

    /// Borrow of the raw vectors.
    pub fn vectors(&self) -> &Dataset {
        &self.vectors
    }

    /// Every stored payload in id order, tombstoned rows' included.
    pub(crate) fn payloads(&self) -> &[Payload] {
        &self.payloads
    }

    /// Inserts a vector with its payload; returns the assigned id.
    ///
    /// Inserting invalidates a previously built index (it must be rebuilt to
    /// cover the new vector; searches fall back to the stale index plus a
    /// brute-force scan of the tail — see [`Collection::search`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on a wrong-sized vector.
    pub fn insert(&mut self, vector: &[f32], payload: Payload) -> Result<u32> {
        self.vectors.push(vector)?;
        self.payloads.push(payload);
        self.deleted.push(false);
        Ok((self.vectors.len() - 1) as u32)
    }

    /// Tombstones a vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IdOutOfBounds`] for unknown ids.
    pub fn delete(&mut self, id: u32) -> Result<()> {
        let slot = self
            .deleted
            .get_mut(id as usize)
            .ok_or(Error::IdOutOfBounds {
                id: id as u64,
                len: self.vectors.len() as u64,
            })?;
        *slot = true;
        Ok(())
    }

    /// Whether `id` exists and is not tombstoned.
    pub fn is_live(&self, id: u32) -> bool {
        self.deleted.get(id as usize).map(|&d| !d).unwrap_or(false)
    }

    /// Reads a vector and its payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IdOutOfBounds`] for unknown ids and
    /// [`Error::NotFound`] for tombstoned ones.
    pub fn get(&self, id: u32) -> Result<(&[f32], &Payload)> {
        let i = id as usize;
        if i >= self.vectors.len() {
            return Err(Error::IdOutOfBounds {
                id: id as u64,
                len: self.vectors.len() as u64,
            });
        }
        if self.deleted[i] {
            return Err(Error::NotFound(format!("vector {id} is deleted")));
        }
        Ok((self.vectors.row(i), &self.payloads[i]))
    }

    /// Builds (or rebuilds) the index over all live vectors currently in the
    /// collection. Tombstoned vectors are still indexed but filtered from
    /// results; rebuilding after heavy deletion is the caller's compaction
    /// policy.
    ///
    /// # Errors
    ///
    /// Propagates index construction errors; fails on an empty collection.
    pub fn build_index(&mut self, spec: IndexSpec) -> Result<()> {
        if self.vectors.is_empty() {
            return Err(Error::Empty("collection"));
        }
        self.index = Some(spec.build(&self.vectors, self.metric)?);
        Ok(())
    }

    /// Searches the collection, honoring tombstones and an optional payload
    /// filter. Returns up to `k` hits with payloads, closest first, plus the
    /// I/O trace of the underlying index search.
    ///
    /// Filtered searches over-fetch from the index (4× `k`, growing if
    /// needed) and post-filter — the strategy the benchmarked databases use
    /// for low-selectivity filters. Vectors inserted after the last
    /// [`Collection::build_index`] are covered by a brute-force scan of the
    /// tail, merged with index results.
    ///
    /// # Errors
    ///
    /// Propagates index errors; fails on an empty collection.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Filter>,
    ) -> Result<Vec<SearchHit>> {
        Ok(self.search_traced(query, k, params, filter)?.0)
    }

    /// Like [`Collection::search`] but also returns the query trace.
    ///
    /// # Errors
    ///
    /// See [`Collection::search`].
    pub fn search_traced(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
        filter: Option<&Filter>,
    ) -> Result<(Vec<SearchHit>, QueryTrace)> {
        if self.vectors.is_empty() {
            return Err(Error::Empty("collection"));
        }
        if k == 0 {
            return Err(Error::invalid_parameter("k", "must be positive"));
        }
        let accepts = |id: u32| -> bool {
            !self.deleted[id as usize]
                && filter
                    .map(|f| f.matches(&self.payloads[id as usize]))
                    .unwrap_or(true)
        };

        let (mut pool, trace) = match &self.index {
            None => (
                self.bruteforce(query, 0, self.vectors.len())?,
                QueryTrace::new(),
            ),
            Some(index) => {
                // Over-fetch for post-filtering, growing until enough hits
                // survive or the whole collection was requested. The trace
                // accumulates across retries — a selective filter costs real
                // work, and the caller should see it.
                let mut full_trace = QueryTrace::new();
                let mut fetch = if filter.is_some() { 4 * k } else { k };
                loop {
                    let out = index.search(query, fetch.min(index.len()), params)?;
                    full_trace.steps.extend(out.trace.steps);
                    let mut pool: Vec<Neighbor> = out
                        .neighbors
                        .iter()
                        .copied()
                        .filter(|n| accepts(n.id))
                        .collect();
                    let exhausted = fetch >= index.len();
                    if pool.len() >= k || exhausted {
                        // Cover vectors appended after the index was built.
                        if index.len() < self.vectors.len() {
                            pool.extend(self.bruteforce(query, index.len(), self.vectors.len())?);
                        }
                        break (pool, full_trace);
                    }
                    fetch *= 2;
                }
            }
        };

        pool.retain(|n| accepts(n.id));
        pool.sort_unstable();
        pool.dedup_by_key(|n| n.id);
        pool.truncate(k);
        let hits = pool
            .into_iter()
            .map(|n| SearchHit {
                id: n.id,
                dist: n.dist,
                payload: self.payloads[n.id as usize].clone(),
            })
            .collect();
        Ok((hits, trace))
    }

    /// Exact scan over id range `[from, to)`.
    fn bruteforce(&self, query: &[f32], from: usize, to: usize) -> Result<Vec<Neighbor>> {
        if query.len() != self.vectors.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.vectors.dim(),
                actual: query.len(),
            });
        }
        Ok((from..to)
            .map(|i| Neighbor::new(i as u32, self.metric.distance(query, self.vectors.row(i))))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Value;
    use sann_datagen::EmbeddingModel;

    fn filled(n: usize) -> Collection {
        let data = EmbeddingModel::new(16, 4, 3).generate(n);
        let mut c = Collection::new("test", 16, Metric::L2).unwrap();
        for (i, row) in data.iter().enumerate() {
            let p = Payload::new().with("parity", Value::Int((i % 2) as i64));
            c.insert(row, p).unwrap();
        }
        c
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let mut c = Collection::new("t", 2, Metric::L2).unwrap();
        let id = c
            .insert(&[1.0, 2.0], Payload::new().with("x", 1i64))
            .unwrap();
        assert_eq!(c.get(id).unwrap().0, &[1.0, 2.0]);
        assert_eq!(c.live_len(), 1);
        c.delete(id).unwrap();
        assert!(matches!(c.get(id), Err(Error::NotFound(_))));
        assert_eq!(c.live_len(), 0);
        assert_eq!(c.len(), 1);
        assert!(matches!(c.delete(99), Err(Error::IdOutOfBounds { .. })));
    }

    #[test]
    fn unindexed_search_is_exact() {
        let c = filled(200);
        let q = c.vectors().row(42).to_vec();
        let hits = c.search(&q, 1, &SearchParams::default(), None).unwrap();
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn deleted_vectors_vanish_from_results() {
        let mut c = filled(100);
        let q = c.vectors().row(7).to_vec();
        c.delete(7).unwrap();
        let hits = c.search(&q, 5, &SearchParams::default(), None).unwrap();
        assert!(hits.iter().all(|h| h.id != 7));
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let mut c = filled(300);
        c.build_index(IndexSpec::Hnsw(HnswConfig::default()))
            .unwrap();
        let q = c.vectors().row(0).to_vec();
        let filter = Filter::eq("parity", Value::Int(1));
        let hits = c
            .search(&q, 10, &SearchParams::default(), Some(&filter))
            .unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|h| h.id % 2 == 1));
    }

    #[test]
    fn highly_selective_filter_overfetches_until_satisfied() {
        let mut c = filled(256);
        // Mark a single vector with a unique field.
        c.insert(&[9.0; 16], Payload::new().with("rare", true))
            .unwrap();
        c.build_index(IndexSpec::Flat).unwrap();
        let hits = c
            .search(
                &[0.0; 16],
                1,
                &SearchParams::default(),
                Some(&Filter::eq("rare", true)),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].payload.get("rare").is_some());
    }

    #[test]
    fn inserts_after_index_build_are_found() {
        let mut c = filled(200);
        c.build_index(IndexSpec::Hnsw(HnswConfig::default()))
            .unwrap();
        let id = c.insert(&[5.0; 16], Payload::new()).unwrap();
        let hits = c
            .search(&[5.0; 16], 1, &SearchParams::default(), None)
            .unwrap();
        assert_eq!(hits[0].id, id);
    }

    #[test]
    fn all_index_kinds_build_and_search() {
        let specs = [
            IndexSpec::Flat,
            IndexSpec::Ivf(IvfConfig::default().with_nlist(16)),
            IndexSpec::IvfPq {
                config: IvfConfig::default().with_nlist(16),
                m: 8,
                ksub: 16,
            },
            IndexSpec::Hnsw(HnswConfig::default()),
            IndexSpec::HnswSq(HnswConfig::default()),
            IndexSpec::DiskAnn(DiskAnnConfig {
                graph: sann_index::VamanaConfig {
                    r: 16,
                    l_build: 40,
                    ..Default::default()
                },
                pq_m: 8,
                pq_ksub: 16,
                base_offset: 0,
            }),
        ];
        for spec in specs {
            let mut c = filled(400);
            c.build_index(spec).unwrap();
            assert_eq!(c.index().unwrap().kind(), spec.family());
            let q = c.vectors().row(11).to_vec();
            let hits = c
                .search(&q, 1, &SearchParams::default().with_search_list(20), None)
                .unwrap();
            assert_eq!(hits[0].id, 11, "spec {spec:?}");
        }
    }

    #[test]
    fn traced_search_reports_io_for_storage_index() {
        let mut c = filled(400);
        c.build_index(IndexSpec::DiskAnn(DiskAnnConfig {
            graph: sann_index::VamanaConfig {
                r: 16,
                l_build: 40,
                ..Default::default()
            },
            pq_m: 8,
            pq_ksub: 16,
            base_offset: 0,
        }))
        .unwrap();
        let q = c.vectors().row(0).to_vec();
        let (_, trace) = c
            .search_traced(&q, 5, &SearchParams::default(), None)
            .unwrap();
        assert!(trace.io_count() > 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Collection::new("x", 0, Metric::L2).is_err());
        let c = Collection::new("x", 4, Metric::L2).unwrap();
        assert!(
            c.search(&[0.0; 4], 1, &SearchParams::default(), None)
                .is_err(),
            "empty"
        );
        let c = filled(10);
        assert!(c
            .search(&[0.0; 3], 1, &SearchParams::default(), None)
            .is_err());
        assert!(c
            .search(&[0.0; 16], 0, &SearchParams::default(), None)
            .is_err());
    }

    #[test]
    fn from_dataset_populates() {
        let data = EmbeddingModel::new(8, 2, 9).generate(50);
        let c = Collection::from_dataset("d", &data, Metric::L2);
        assert_eq!(c.len(), 50);
        assert_eq!(c.live_len(), 50);
        assert_eq!(c.dim(), 8);
    }
}
