//! HNSW over memory-mapped vectors — Qdrant's storage-based mode.
//!
//! The paper (§III-C) evaluates Qdrant "with mmap and limited memory
//! resources" and finds *no statistically different performance* from the
//! memory-based setup — because the testbed's 256 GiB of RAM kept every
//! vector page cached. This index models that mechanism: the graph stays in
//! memory, vectors live in a packed file accessed through an LRU page cache,
//! and every page miss during graph traversal becomes a blocking 4 KiB read
//! (a major page fault). With a cache at least as large as the vector file,
//! searches after warm-up do no I/O at all — reproducing the paper's
//! observation; with a constrained cache, the dependent-read pattern of
//! graph traversal appears.
//!
//! Unlike the other indexes, the page cache is *stateful across queries*
//! (that is the point of mmap), so the index is `Sync` via an internal lock
//! and traces depend on query order.

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::layout::SECTOR_BYTES;
use crate::trace::{IoReq, QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::sync::Mutex;
use sann_core::{Dataset, Metric, Result};
use sann_ssdsim::PageCache;

/// Device byte offset of the packed vector file.
const VECTOR_FILE_BASE: u64 = 4 << 40;

/// An HNSW index whose vectors are memory-mapped from storage.
pub struct MmapHnswIndex {
    inner: HnswIndex,
    cache: Mutex<PageCache>,
    row_bytes: u64,
}

impl std::fmt::Debug for MmapHnswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapHnswIndex")
            .field("len", &self.inner.len())
            .field("dim", &self.inner.dim())
            .finish()
    }
}

impl MmapHnswIndex {
    /// Builds the graph and attaches a page cache of `cache_bytes` for the
    /// vector file (`0` disables caching — every access faults).
    ///
    /// # Errors
    ///
    /// Propagates HNSW build errors.
    pub fn build(
        data: &Dataset,
        metric: Metric,
        config: HnswConfig,
        cache_bytes: u64,
    ) -> Result<MmapHnswIndex> {
        let inner = HnswIndex::build(data, metric, config)?;
        Ok(MmapHnswIndex {
            inner,
            cache: Mutex::new(PageCache::new(cache_bytes)),
            row_bytes: data.row_bytes() as u64,
        })
    }

    /// Bytes of the packed vector file on storage.
    pub fn vector_file_bytes(&self) -> u64 {
        self.inner.len() as u64 * self.row_bytes
    }

    /// Page-cache hit/miss counters so far.
    pub fn cache_counters(&self) -> (u64, u64) {
        let cache = self.cache.lock();
        (cache.hits(), cache.misses())
    }

    /// Drops every cached page (the paper's between-run
    /// `echo 1 > /proc/sys/vm/drop_caches`).
    pub fn drop_caches(&self) {
        self.cache.lock().drop_caches();
    }

    /// Touches the pages of row `id`; returns the faulted reads (one 4 KiB
    /// request per missed page).
    fn touch_row(&self, id: u32) -> Vec<IoReq> {
        let start = VECTOR_FILE_BASE + id as u64 * self.row_bytes;
        let end = start + self.row_bytes;
        let mut cache = self.cache.lock();
        let mut faults = Vec::new();
        let mut page = start / SECTOR_BYTES * SECTOR_BYTES;
        while page < end {
            if cache.access(page, SECTOR_BYTES as u32) > 0 {
                // The vector file holds packed full-precision rows; the page's
                // needed bytes are its overlap with this row.
                let needed = end.min(page + SECTOR_BYTES) - start.max(page);
                faults.push(IoReq::tagged(
                    page,
                    SECTOR_BYTES as u32,
                    needed as u32,
                    sann_obs::IoProvenance::VectorBlock,
                ));
            }
            page += SECTOR_BYTES;
        }
        faults
    }
}

impl VectorIndex for MmapHnswIndex {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn kind(&self) -> &'static str {
        "hnsw-mmap"
    }

    fn is_storage_based(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.inner.dim(), k)?;
        let ef = params.ef_search.max(k);
        let trace = std::cell::RefCell::new(QueryTrace::new());
        let data = self.inner.data();
        let metric = self.metric();
        let mut found = self.inner.search_graph(
            |ids, out| {
                // A page fault blocks the traversal: each missed page is a
                // dependent 4 KiB read before the distance can be computed,
                // so the trace still takes the rows one by one, in id order.
                let mut t = trace.borrow_mut();
                for &id in ids {
                    t.push_read(self.touch_row(id));
                    t.push_compute(1, data.dim() as u32);
                }
                metric.distance_gather(query, data, ids, out);
            },
            ef,
        );
        found.truncate(k);
        Ok(SearchOutput {
            neighbors: found,
            trace: into_inner(trace),
        })
    }

    fn memory_bytes(&self) -> u64 {
        // Graph edges only; vectors are file-backed.
        self.inner.memory_bytes() - self.vector_file_bytes()
    }

    fn storage_bytes(&self) -> u64 {
        self.vector_file_bytes().div_ceil(SECTOR_BYTES) * SECTOR_BYTES
    }
}

impl MmapHnswIndex {
    fn metric(&self) -> Metric {
        // The inner index owns the metric; re-derive it from a probe search
        // is overkill — expose it directly.
        self.inner.metric()
    }
}

fn into_inner(trace: std::cell::RefCell<QueryTrace>) -> QueryTrace {
    trace.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_datagen::EmbeddingModel;

    fn world() -> (Dataset, Dataset) {
        let model = EmbeddingModel::new(64, 8, 44);
        (model.generate(2_000), model.generate_queries(20))
    }

    #[test]
    fn ample_cache_means_no_io_after_warmup() {
        // The paper's Qdrant observation: with enough RAM, the mmap setup
        // performs identically to the memory setup (no device traffic).
        let (base, queries) = world();
        let cache = 2 * base.len() as u64 * base.row_bytes() as u64;
        let index = MmapHnswIndex::build(&base, Metric::L2, HnswConfig::default(), cache).unwrap();
        // Warm-up pass.
        let mut cold_reads = 0u64;
        for q in queries.iter() {
            cold_reads += index
                .search(q, 10, &SearchParams::default())
                .unwrap()
                .trace
                .io_count();
        }
        assert!(cold_reads > 0, "cold cache must fault");
        // Repeat pass: everything cached.
        let mut warm_reads = 0u64;
        for q in queries.iter() {
            warm_reads += index
                .search(q, 10, &SearchParams::default())
                .unwrap()
                .trace
                .io_count();
        }
        assert_eq!(warm_reads, 0, "warm cache must not fault");
    }

    #[test]
    fn search_matches_per_pair_reference() {
        // A cache that thrashes, so which rows fault depends on the order
        // rows are touched in: the batched oracle must touch them in exactly
        // the order the one-id-at-a-time search did.
        let (base, queries) = world();
        let cache = base.len() as u64 * base.row_bytes() as u64 / 20;
        let index = MmapHnswIndex::build(&base, Metric::L2, HnswConfig::default(), cache).unwrap();
        let params = SearchParams::default().with_ef_search(40);
        let got: Vec<SearchOutput> = queries
            .iter()
            .map(|q| index.search(q, 10, &params).unwrap())
            .collect();
        index.drop_caches();
        for (q, got) in queries.iter().zip(&got) {
            let mut trace = QueryTrace::new();
            let mut neighbors = index.inner.search_graph_per_pair(
                |id| {
                    trace.push_read(index.touch_row(id));
                    trace.push_compute(1, base.dim() as u32);
                    Metric::L2.distance(q, base.row(id as usize))
                },
                40,
            );
            neighbors.truncate(10);
            crate::batch::assert_identical(got, &SearchOutput { neighbors, trace });
        }
    }

    #[test]
    fn constrained_cache_keeps_faulting() {
        let (base, queries) = world();
        // Cache fits 5% of the vector file.
        let cache = base.len() as u64 * base.row_bytes() as u64 / 20;
        let index = MmapHnswIndex::build(&base, Metric::L2, HnswConfig::default(), cache).unwrap();
        for q in queries.iter() {
            index.search(q, 10, &SearchParams::default()).unwrap();
        }
        let mut steady = 0u64;
        for q in queries.iter() {
            steady += index
                .search(q, 10, &SearchParams::default())
                .unwrap()
                .trace
                .io_count();
        }
        assert!(steady > 0, "a thrashing cache keeps reading");
        let (hits, misses) = index.cache_counters();
        assert!(hits > 0 && misses > 0);
    }

    #[test]
    fn results_match_memory_hnsw() {
        let (base, queries) = world();
        let mmap = MmapHnswIndex::build(&base, Metric::L2, HnswConfig::default(), 1 << 30).unwrap();
        let mem = HnswIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        for q in queries.iter().take(5) {
            let a = mmap.search(q, 5, &SearchParams::default()).unwrap();
            let b = mem.search(q, 5, &SearchParams::default()).unwrap();
            assert_eq!(a.ids(), b.ids(), "placement must not change results");
        }
    }

    #[test]
    fn drop_caches_restores_cold_behaviour() {
        let (base, queries) = world();
        let index =
            MmapHnswIndex::build(&base, Metric::L2, HnswConfig::default(), 1 << 30).unwrap();
        for q in queries.iter() {
            index.search(q, 10, &SearchParams::default()).unwrap();
        }
        index.drop_caches();
        let reads = index
            .search(queries.row(0), 10, &SearchParams::default())
            .unwrap()
            .trace
            .io_count();
        assert!(reads > 0, "dropped caches must fault again");
    }

    #[test]
    fn reads_are_4k_sector_aligned() {
        let (base, queries) = world();
        let index = MmapHnswIndex::build(&base, Metric::L2, HnswConfig::default(), 0).unwrap();
        let out = index
            .search(queries.row(0), 10, &SearchParams::default())
            .unwrap();
        for step in &out.trace.steps {
            if let crate::trace::TraceStep::Read { reqs } = step {
                for r in reqs {
                    assert_eq!(r.len as u64, SECTOR_BYTES);
                    assert_eq!(r.offset % SECTOR_BYTES, 0);
                }
            }
        }
    }
}
