//! Distances between two rows of the dataset a graph is being built over.
//!
//! A graph build asks the kernels for d(a, b) between rows of its own
//! dataset, and it asks for the same pairs again and again: at 500 x 768-d
//! the Vamana build requests 822,038 distances over 125,185 distinct pairs
//! (every pair of rows, 6.6 times each on average), and the HNSW build
//! 562,623 over 115,769 (4.9 times). [`RowDistances`] answers all of those
//! requests. When the table of every pair is no larger than the dataset's
//! own floats, it measures each pair once up front and every request is a
//! lookup; otherwise every request runs the batched kernel, as before.
//!
//! The table holds the upper triangle with the diagonal, n(n+1)/2 floats,
//! so it is used while n(n+1)/2 <= n * dim, that is n <= 2 * dim - 1 (1,535
//! rows at 768-d). The rule comes from the data's shape: there is no knob.
//!
//! A lookup returns the bits the kernel would. Row `i` of the table is
//! filled with [`Metric::distance_rows`] over the contiguous rows `i..n`,
//! the same four-lane x4 kernel [`Metric::distance_gather`] runs, and L2,
//! inner product and cosine are bitwise symmetric on finite rows
//! (`(a-b)^2 = (b-a)^2`, `a*b = b*a`, `|a|*|b| = |b|*|a|`, each summed in
//! the same order), so d(b, a) is read from d(a, b)'s slot. The table lives
//! as long as the build that made it: nothing persisted knows of it.

use sann_core::{Dataset, Metric};

#[cfg(test)]
thread_local! {
    /// Set by a test to force the table on (`Some(true)`) or off
    /// (`Some(false)`) whatever the size rule says.
    pub(crate) static FORCE_TABLE: std::cell::Cell<Option<bool>> =
        const { std::cell::Cell::new(None) };
}

/// The build-time distance oracle over the rows of one dataset.
pub(crate) struct RowDistances<'a> {
    metric: Metric,
    data: &'a Dataset,
    /// d(i, j) for `i <= j`: the `n - i` pairs `(i, i..n)` of row `i`
    /// follow those of row `i - 1`. Empty when the pairs are measured on
    /// demand.
    table: Vec<f32>,
}

impl<'a> RowDistances<'a> {
    /// The oracle of a build over `data`: with the table of every pair
    /// when it is no larger than the data (n <= 2 * dim - 1), on demand
    /// otherwise.
    pub fn new(metric: Metric, data: &'a Dataset) -> Self {
        let mut pairs = RowDistances::on_demand(metric, data);
        if table_fits(data) {
            pairs.table = fill(metric, data);
        }
        pairs
    }

    /// An oracle that measures every pair it is asked for, for data that
    /// grows while it is in use.
    pub fn on_demand(metric: Metric, data: &'a Dataset) -> Self {
        RowDistances {
            metric,
            data,
            table: Vec::new(),
        }
    }

    /// The distance from row `from` to every row of `ids`, replacing the
    /// contents of `out`, in `ids` order.
    ///
    /// # Panics
    ///
    /// Panics if `from` or an id is not a row of the data.
    pub fn gather(&self, from: u32, ids: &[u32], out: &mut Vec<f32>) {
        if self.table.is_empty() {
            let query = self.data.row(from as usize);
            self.metric.distance_gather(query, self.data, ids, out);
            return;
        }
        let n = self.data.len();
        out.clear();
        out.extend(ids.iter().map(|&id| {
            let (i, j) = (from.min(id) as usize, from.max(id) as usize);
            assert!(j < n, "row id out of range");
            self.table[i * (2 * n + 1 - i) / 2 + j - i]
        }));
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.data.len()
    }

    /// Whether the pairs are looked up rather than measured.
    #[cfg(test)]
    pub fn has_table(&self) -> bool {
        !self.table.is_empty()
    }
}

/// Whether the table of `data`'s pairs, n(n+1)/2 floats, is no larger
/// than its n * dim.
fn table_fits(data: &Dataset) -> bool {
    #[cfg(test)]
    if let Some(forced) = FORCE_TABLE.get() {
        return forced;
    }
    data.len() < 2 * data.dim()
}

/// The upper triangle, row by row: row `i` against the rows `i..n`.
fn fill(metric: Metric, data: &Dataset) -> Vec<f32> {
    let (n, dim) = (data.len(), data.dim());
    let mut table = vec![0.0f32; n * (n + 1) / 2];
    let mut rest = table.as_mut_slice();
    for i in 0..n {
        let (row, later) = std::mem::take(&mut rest).split_at_mut(n - i);
        metric.distance_rows(data.row(i), &data.as_flat()[i * dim..], row);
        rest = later;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskAnnConfig, DiskAnnIndex, HnswConfig, HnswIndex, HnswSqIndex, VectorIndex};
    use crate::{VamanaConfig, VamanaGraph};
    use sann_datagen::EmbeddingModel;

    const METRICS: [Metric; 3] = [Metric::L2, Metric::InnerProduct, Metric::Cosine];

    /// Runs `f` with the table forced on or off.
    fn forced<T>(on: bool, f: impl FnOnce() -> T) -> T {
        FORCE_TABLE.set(Some(on));
        let out = f();
        FORCE_TABLE.set(None);
        out
    }

    #[test]
    fn table_entries_are_the_kernels_bits_both_ways() {
        for dim in (1..=9).chain([96, 768]) {
            let model = EmbeddingModel::new(dim, 4, 3);
            for n in [1, 2, 3, 2 * dim - 1] {
                let data = model.generate(n);
                for metric in METRICS {
                    // n = 2 and 3 are past the boundary at one dimension.
                    let pairs = forced(true, || RowDistances::new(metric, &data));
                    assert!(pairs.has_table(), "dim {dim}, n {n}");
                    let ids: Vec<u32> = (0..n as u32).collect();
                    let mut got = Vec::new();
                    // Every row against all the others; at 768-d a stride
                    // of rows, the last one included.
                    let stride = n.div_ceil(40);
                    for a in (0..n).step_by(stride).chain([n - 1]) {
                        pairs.gather(a as u32, &ids, &mut got);
                        for (b, d) in got.iter().enumerate() {
                            let (ra, rb) = (data.row(a), data.row(b));
                            let want = [metric.distance(ra, rb), metric.distance(rb, ra)];
                            assert_eq!(
                                [d.to_bits(); 2],
                                want.map(f32::to_bits),
                                "{metric:?}, dim {dim}, n {n}, pair ({a}, {b})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lookups_answer_in_the_order_asked_like_the_kernel() {
        let data = EmbeddingModel::new(24, 4, 5).generate(40);
        let ids = [7, 0, 39, 7, 12, 3, 3];
        for metric in METRICS {
            let table = RowDistances::new(metric, &data);
            let kernel = RowDistances::on_demand(metric, &data);
            assert!(table.has_table() && !kernel.has_table());
            for from in [0, 7, 25, 39] {
                let (mut got, mut want) = (vec![1.0; 3], Vec::new());
                table.gather(from, &ids, &mut got);
                kernel.gather(from, &ids, &mut want);
                let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{metric:?} from {from}");
            }
        }
    }

    #[test]
    fn no_table_above_the_boundary() {
        for dim in [1, 8, 96] {
            let model = EmbeddingModel::new(dim, 4, 3);
            for (n, fits) in [(2 * dim - 1, true), (2 * dim, false), (2 * dim + 7, false)] {
                let data = model.generate(n);
                let pairs = RowDistances::new(Metric::L2, &data);
                assert_eq!(pairs.has_table(), fits, "dim {dim}, n {n}");
                assert_eq!(pairs.table.capacity() > 0, fits, "dim {dim}, n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn a_lookup_past_the_last_row_panics() {
        let data = EmbeddingModel::new(8, 4, 3).generate(5);
        // Slot (0, 5) would be (1, 1)'s; the lookup must refuse it.
        RowDistances::new(Metric::L2, &data).gather(0, &[5], &mut Vec::new());
    }

    /// The persisted bytes of every graph family built over `data`.
    fn graph_bytes(data: &Dataset, metric: Metric, threads: usize) -> Vec<Vec<u8>> {
        let graph = VamanaConfig {
            r: 12,
            l_build: 24,
            threads,
            ..VamanaConfig::default()
        };
        let hnsw = HnswConfig {
            m: 6,
            ef_construction: 32,
            seed: 7,
        };
        let diskann = DiskAnnConfig {
            graph,
            pq_m: 0,
            pq_ksub: 16,
        };
        let mut vamana = sann_core::buf::ByteWriter::new();
        VamanaGraph::build(data, metric, graph)
            .unwrap()
            .encode_into(&mut vamana);
        vec![
            vamana.into_bytes(),
            HnswIndex::build(data, metric, hnsw)
                .unwrap()
                .persist_encode()
                .unwrap(),
            HnswSqIndex::build(data, metric, hnsw)
                .unwrap()
                .persist_encode()
                .unwrap(),
            DiskAnnIndex::build(data, metric, diskann)
                .unwrap()
                .persist_encode()
                .unwrap(),
        ]
    }

    #[test]
    fn graphs_persist_the_same_bytes_with_the_table_on_and_off() {
        // 16-d: the rule's boundary is 31 rows; 200 is far above it.
        let model = EmbeddingModel::new(16, 6, 21);
        for n in [2, 31, 32, 200] {
            let data = model.generate(n);
            for metric in METRICS {
                for threads in [1, 0] {
                    let on = forced(true, || graph_bytes(&data, metric, threads));
                    let off = forced(false, || graph_bytes(&data, metric, threads));
                    let rule = graph_bytes(&data, metric, threads);
                    for (family, ((on, off), rule)) in ["vamana", "hnsw", "hnsw-sq", "diskann"]
                        .iter()
                        .zip(on.iter().zip(&off).zip(&rule))
                    {
                        let what = format!("{family}, {metric:?}, n {n}, threads {threads}");
                        assert!(on == off, "{what}: table on and off differ");
                        assert!(rule == off, "{what}: the rule's choice differs");
                    }
                }
            }
        }
    }
}
