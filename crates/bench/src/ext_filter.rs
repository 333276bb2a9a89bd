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
use sann_core::{Metric, Result, TopK};
use sann_index::SearchParams;
use sann_vdb::{Collection, Filter, IndexSpec, Payload, Value};

/// (label, matching buckets of 100) selectivity ladder.
const SELECTIVITY: &[(&str, i64)] = &[("1.00", 100), ("0.50", 50), ("0.10", 10), ("0.01", 1)];

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

        let mut collection = Collection::new(&spec.name, base.dim(), Metric::L2)?;
        for (i, row) in base.iter().enumerate() {
            collection.insert(
                row,
                Payload::new().with("bucket", Value::Int((i % 100) as i64)),
            )?;
        }
        collection.build_index(IndexSpec::Hnsw(Default::default()))?;
        let params = SearchParams::default().with_ef_search(48);

        let mut unfiltered_dists = 0.0f64;
        for (label, buckets) in SELECTIVITY {
            let filter = Filter::range("bucket", 0.0, (*buckets - 1) as f64);
            let filter = if *buckets == 100 { None } else { Some(&filter) };
            let mut recall_sum = 0.0;
            let mut dists = 0.0f64;
            for q in queries.iter() {
                let (hits, trace) = collection.search_traced(q, K, &params, filter)?;
                dists += trace.compute_count() as f64;
                let truth = filtered_truth(base, q, *buckets, K);
                let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
                recall_sum += recall_at_k(&truth, &ids, K);
            }
            let mean_dists = dists / QUERIES as f64;
            if *buckets == 100 {
                unfiltered_dists = mean_dists;
            }
            table.row([
                spec.name.clone(),
                (*label).to_owned(),
                format!("{:.3}", recall_sum / QUERIES as f64),
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

/// Exact top-k among vectors whose bucket passes the filter.
fn filtered_truth(base: &sann_core::Dataset, q: &[f32], buckets: i64, k: usize) -> Vec<u32> {
    let mut topk = TopK::new(k);
    for (i, row) in base.iter().enumerate() {
        if ((i % 100) as i64) < buckets {
            topk.push(i as u32, Metric::L2.distance(q, row));
        }
    }
    topk.into_sorted_vec().into_iter().map(|n| n.id).collect()
}
