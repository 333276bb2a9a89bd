//! Extension experiment (paper §VIII / related work): filtered vector
//! search.
//!
//! The benchmarked databases support payload-filtered search; the paper
//! measures only unfiltered traffic. This experiment characterizes the
//! post-filtering strategy (over-fetch from the index, filter, grow on
//! starvation): as the filter gets more selective, the index must be asked
//! for ever larger candidate sets, multiplying per-query work.

use crate::cli::SubFlags;
use crate::context::{BenchContext, K};
use crate::report::{num, Table};
use sann_core::recall::recall_at_k;
use sann_core::{cast, Dataset, Metric, Neighbor, Result, TopK};
use sann_index::{SearchParams, VectorIndex};
use sann_vdb::IndexSpec;

/// (label, matching buckets of 100) selectivity ladder.
const SELECTIVITY: &[(&str, usize)] = &[("1.00", 100), ("0.50", 50), ("0.10", 10), ("0.01", 1)];

/// Number of queries evaluated per selectivity level.
const QUERIES: usize = 100;

/// Runs the filtered-search characterization on each dataset's small
/// variant.
///
/// # Errors
///
/// Propagates build/search errors.
pub fn run(ctx: &mut BenchContext, _: &SubFlags) -> Result<String> {
    let mut table = Table::new([
        "dataset",
        "selectivity",
        "recall@10",
        "mean_dists",
        "vs_unfiltered",
    ]);
    for spec in ctx.dataset_specs_ending("-s") {
        let data = ctx.dataset(&spec);
        let base = &data.base;
        let queries = data.queries.truncated(QUERIES);
        let index = IndexSpec::Hnsw(Default::default()).build(base, Metric::L2)?;
        // Row i's bucket; a filter of `buckets` passes the rows below it.
        let labels: Vec<usize> = (0..base.len()).map(|i| i % 100).collect();
        let params = SearchParams::default().with_ef_search(48);

        let mut unfiltered_dists = 0.0f64;
        for &(label, buckets) in SELECTIVITY {
            let passes = |id: u32| labels[id as usize] < buckets;
            let fetch = if buckets == 100 { K } else { 4 * K };
            let mut recall_sum = 0.0;
            let mut dists = 0.0f64;
            for q in queries.iter() {
                let (hits, computed) = overfetch(index.as_ref(), q, K, fetch, &params, passes)?;
                dists += cast::f64_from_u64(computed);
                let truth = filtered_truth(base, q, &labels, buckets, K);
                let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
                recall_sum += recall_at_k(&truth, &ids, K);
            }
            let mean_dists = dists / cast::f64_from_usize(QUERIES);
            if buckets == 100 {
                unfiltered_dists = mean_dists;
            }
            table.row([
                spec.name.clone(),
                label.to_owned(),
                format!("{:.3}", recall_sum / cast::f64_from_usize(QUERIES)),
                num(mean_dists),
                format!("{:.1}x", mean_dists / unfiltered_dists.max(1.0)),
            ]);
        }
    }
    ctx.write_csv("ext_filter.csv", &table.to_csv())?;
    let mut out = String::from(
        "Extension: payload-filtered search (post-filtering with over-fetch)\n\
         (HNSW ef=48; selectivity = fraction of vectors passing the filter)\n",
    );
    out.push_str(&table.to_text());
    Ok(out)
}

/// Post-filtered top-`k`: asks `index` for `fetch` candidates and keeps
/// those that pass, doubling `fetch` until `k` pass or the whole index was
/// asked for. Returns the hits, closest first, and the distance
/// computations of every round.
fn overfetch(
    index: &dyn VectorIndex,
    query: &[f32],
    k: usize,
    mut fetch: usize,
    params: &SearchParams,
    passes: impl Fn(u32) -> bool,
) -> Result<(Vec<Neighbor>, u64)> {
    let mut computed = 0;
    loop {
        let out = index.search(query, fetch.min(index.len()), params)?;
        computed += out.trace.compute_count();
        let mut hits: Vec<Neighbor> = out.neighbors.into_iter().filter(|n| passes(n.id)).collect();
        if hits.len() >= k || fetch >= index.len() {
            hits.sort_unstable();
            hits.dedup_by_key(|n| n.id);
            hits.truncate(k);
            return Ok((hits, computed));
        }
        fetch *= 2;
    }
}

/// Exact top-k among rows whose label passes the filter.
fn filtered_truth(
    base: &Dataset,
    q: &[f32],
    labels: &[usize],
    buckets: usize,
    k: usize,
) -> Vec<u32> {
    let mut topk = TopK::new(k);
    for (i, (row, &label)) in base.iter().zip(labels).enumerate() {
        if label < buckets {
            topk.push(cast::u32_from_usize(i), Metric::L2.distance(q, row));
        }
    }
    topk.into_sorted_vec().into_iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_index::FlatIndex;

    /// 1,000 rows, row `i` the point `i` on a line: a query at 0 ranks the
    /// rows by id.
    fn line() -> FlatIndex {
        let points = (0..1_000u16).map(f32::from).collect();
        FlatIndex::build(&Dataset::from_flat(points, 1).unwrap(), Metric::L2)
    }

    fn ids(hits: &[Neighbor]) -> Vec<u32> {
        hits.iter().map(|n| n.id).collect()
    }

    #[test]
    fn selective_filter_doubles_until_k_pass() {
        // 1 % of rows pass; the third passing row, 200, is first returned
        // at fetch 12 · 2^5 = 384, the sixth round.
        let index = line();
        let params = SearchParams::default();
        let (hits, computed) =
            overfetch(&index, &[0.0], 3, 12, &params, |id| id % 100 == 0).unwrap();
        assert_eq!(ids(&hits), [0, 100, 200]);
        // A flat search computes every row, once per round.
        assert_eq!(computed, 6 * 1_000);
    }

    #[test]
    fn starved_filter_stops_at_the_whole_index() {
        // Two rows pass; fetch runs 12, 24, ..., 768, then 1536 searches all
        // 1,000 rows and the helper gives up with fewer than k hits.
        let index = line();
        let params = SearchParams::default();
        let (hits, computed) =
            overfetch(&index, &[0.0], 3, 12, &params, |id| id % 500 == 0).unwrap();
        assert_eq!(ids(&hits), [0, 500]);
        assert_eq!(computed, 8 * 1_000);
    }
}
