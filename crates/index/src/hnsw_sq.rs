//! HNSW over scalar-quantized vectors — the paper's LanceDB-HNSW setup
//! ("HNSW index with scalar quantization", §III-C).
//!
//! The graph is a regular HNSW build over the full-precision vectors; at
//! query time distances are computed *asymmetrically* against the u8 codes.
//! Quantization error costs recall, which is why the paper tunes LanceDB's
//! `efSearch` higher than the other databases' for the same target (the
//! `efSearch (LanceDB)` column of Table II).

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::trace::{QueryTrace, SearchOutput};
use crate::{SearchParams, VectorIndex};
use sann_core::distance::by_fours;
use sann_core::{cast, Dataset, Error, Metric, Result};
use sann_quant::ScalarQuantizer;

/// A scalar-quantized HNSW index.
pub struct HnswSqIndex {
    inner: HnswIndex,
    sq: ScalarQuantizer,
    /// Flat `n × dim` u8 code matrix.
    codes: Vec<u8>,
}

impl std::fmt::Debug for HnswSqIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnswSqIndex")
            .field("len", &self.inner.len())
            .field("dim", &self.inner.dim())
            .finish()
    }
}

impl HnswSqIndex {
    /// Builds the graph (full precision) and the per-vector codes.
    ///
    /// # Errors
    ///
    /// Propagates HNSW build and quantizer training errors.
    pub fn build(data: &Dataset, metric: Metric, config: HnswConfig) -> Result<HnswSqIndex> {
        let inner = HnswIndex::build(data, metric, config)?;
        let sq = ScalarQuantizer::train(data)?;
        let dim = data.dim();
        let mut codes = vec![0u8; data.len() * dim];
        for (i, row) in data.iter().enumerate() {
            codes[i * dim..(i + 1) * dim].copy_from_slice(&sq.encode(row));
        }
        Ok(HnswSqIndex { inner, sq, codes })
    }

    pub(crate) fn persist_payload(&self, w: &mut sann_core::buf::ByteWriter) {
        self.inner.persist_payload(w);
        self.sq.encode_into(w);
        w.put_count_u64(self.codes.len());
        w.put_slice(&self.codes);
    }

    pub(crate) fn from_persist(
        r: &mut sann_core::buf::ByteReader<'_>,
        base: Option<&Dataset>,
    ) -> Result<HnswSqIndex> {
        let inner = HnswIndex::from_persist(r, base)?;
        let sq = ScalarQuantizer::decode_from(r)?;
        let len = r.get_count_u64("hnsw-sq codes", 1)?;
        if sq.dim() != inner.dim() || len != inner.len() * inner.dim() {
            return Err(Error::Corrupt("hnsw-sq: code matrix mismatch".into()));
        }
        let codes = r.take(len)?.to_vec();
        Ok(HnswSqIndex { inner, sq, codes })
    }

    fn code(&self, id: u32) -> &[u8] {
        let dim = self.inner.dim();
        &self.codes[id as usize * dim..(id as usize + 1) * dim]
    }
}

impl VectorIndex for HnswSqIndex {
    #[cfg(test)]
    fn vectors(&self) -> Option<&Dataset> {
        self.inner.vectors()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn kind(&self) -> &'static str {
        "hnsw-sq"
    }

    fn is_storage_based(&self) -> bool {
        false
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        crate::check_query(query, self.inner.dim(), k)?;
        let ef = params.ef_search.max(k);
        let mut dists = 0u64;
        let mut found = self.inner.search_graph(
            |ids, out| {
                dists += ids.len() as u64;
                out.clear();
                out.resize(ids.len(), 0.0);
                let codes = ids.iter().map(|&id| self.code(id));
                by_fours(codes, out, |four| self.sq.distance_x4(query, four));
            },
            ef,
        );
        found.truncate(k);
        let mut trace = QueryTrace::new();
        // An asymmetric SQ distance costs about the same as a full-precision
        // distance of the same dimensionality (decode + subtract + FMA).
        trace.push_compute(dists, cast::u32_from_usize(self.inner.dim()));
        Ok(SearchOutput {
            neighbors: found,
            trace,
        })
    }

    fn memory_bytes(&self) -> u64 {
        // Codes replace full-precision vectors at query time; edges stay.
        let edges =
            self.inner.memory_bytes() - (self.inner.len() * self.inner.data().row_bytes()) as u64;
        self.codes.len() as u64 + edges
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
mod tests {
    use super::*;
    use sann_core::recall::recall_at_k;
    use sann_datagen::{EmbeddingModel, GroundTruth};

    fn build_small() -> (Dataset, Dataset, GroundTruth, HnswSqIndex, HnswIndex) {
        let model = EmbeddingModel::new(48, 8, 91);
        let base = model.generate(2_000);
        let queries = model.generate_queries(40);
        let gt = GroundTruth::bruteforce(&base, &queries, Metric::L2, 10);
        let sq = HnswSqIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        let full = HnswIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        (base, queries, gt, sq, full)
    }

    fn recall(index: &dyn VectorIndex, queries: &Dataset, gt: &GroundTruth, ef: usize) -> f64 {
        let params = SearchParams::default().with_ef_search(ef);
        let mut total = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let out = index.search(q, 10, &params).unwrap();
            total += recall_at_k(gt.neighbors(i), &out.ids(), 10);
        }
        total / queries.len() as f64
    }

    #[test]
    fn search_matches_per_pair_reference() {
        let model = EmbeddingModel::new(48, 8, 91);
        let sq = HnswSqIndex::build(&model.generate(1_000), Metric::L2, HnswConfig::default());
        let sq = sq.unwrap();
        for q in model.generate_queries(20).iter() {
            let got = sq
                .search(q, 10, &SearchParams::default().with_ef_search(48))
                .unwrap();
            let mut dists = 0u64;
            let mut neighbors = sq.inner.search_graph_per_pair(
                |id| {
                    dists += 1;
                    sq.sq.distance(q, sq.code(id))
                },
                48,
            );
            neighbors.truncate(10);
            let mut trace = QueryTrace::new();
            trace.push_compute(dists, sq.inner.dim() as u32);
            crate::batch::assert_identical(&got, &SearchOutput { neighbors, trace });
        }
    }

    #[test]
    fn reaches_target_recall_with_higher_ef() {
        let (_, queries, gt, sq, _) = build_small();
        let r = recall(&sq, &queries, &gt, 96);
        assert!(r > 0.9, "sq recall {r} at ef=96");
    }

    #[test]
    fn quantization_costs_recall_at_equal_ef() {
        // The Table II effect: LanceDB needs higher efSearch than the
        // full-precision HNSW setups.
        let (_, queries, gt, sq, full) = build_small();
        let r_sq = recall(&sq, &queries, &gt, 16);
        let r_full = recall(&full, &queries, &gt, 16);
        assert!(
            r_full > r_sq,
            "full-precision {r_full} must beat quantized {r_sq} at equal ef"
        );
    }

    #[test]
    fn memory_is_smaller_than_full_precision() {
        let (_, _, _, sq, full) = build_small();
        // Vectors shrink 4×; graph edges are unchanged, so total savings
        // depend on the edge share.
        assert!(sq.memory_bytes() < (full.memory_bytes() as f64 * 0.75) as u64);
        assert_eq!(sq.storage_bytes(), 0);
        assert_eq!(sq.kind(), "hnsw-sq");
        assert!(!sq.is_storage_based());
    }
}
