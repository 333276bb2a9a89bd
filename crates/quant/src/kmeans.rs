//! Lloyd's k-means with k-means++ seeding. The seeding's scans are the
//! first assignment pass, and an iteration re-measures only the centroids
//! the last one moved (DESIGN.md §14, "what a Lloyd iteration already
//! knows" and "a PQ build measures each pair once"); the result is the full
//! scan's, bit for bit.

use sann_core::distance::{cols_from_rows, l2_squared, l2_squared_cols};
use sann_core::rng::SplitMix64;
use sann_core::{cast, par, Dataset, Error, Metric, Result};
use std::borrow::Cow;

/// K-means trainer configuration.
///
/// # Examples
///
/// ```
/// use sann_quant::KMeans;
/// use sann_datagen::EmbeddingModel;
///
/// let data = EmbeddingModel::new(16, 4, 7).generate(400);
/// let model = KMeans::new(4).with_max_iters(10).fit(&data)?;
/// assert_eq!(model.centroids.len(), 4);
/// assert_eq!(model.assignments.len(), 400);
/// # Ok::<(), sann_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    seed: u64,
    sample_limit: usize,
}

impl KMeans {
    /// Creates a trainer for `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iters: 20,
            seed: 0x5EED_4B4B,
            sample_limit: usize::MAX,
        }
    }

    /// Sets the maximum number of Lloyd iterations (default 20).
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the RNG seed used for k-means++ seeding.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains on at most `limit` sampled rows (assignments are still computed
    /// for every row afterwards). Use this to cap training cost on large
    /// datasets.
    pub fn with_sample_limit(mut self, limit: usize) -> Self {
        self.sample_limit = limit.max(1);
        self
    }

    /// Runs k-means on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `data` has fewer rows than
    /// `k`, and [`Error::Empty`] when `data` is empty.
    pub fn fit(&self, data: &Dataset) -> Result<KMeansModel> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        if data.len() < self.k {
            return Err(Error::invalid_parameter(
                "k",
                format!(
                    "{} clusters requested but only {} vectors",
                    self.k,
                    data.len()
                ),
            ));
        }
        let mut rng = SplitMix64::new(self.seed);
        let dim = data.dim();
        let threads = par::default_threads();
        let train = self.sample(data.as_flat(), dim, &mut rng);
        let (mut lloyd, mut assigned) = self.train(&train, dim, &mut rng, threads, |v, out| {
            Metric::L2.distance_rows(v, &train, out);
        });
        if matches!(train, Cow::Owned(_)) {
            // The rows outside the sample have met no centroid yet.
            lloyd = Lloyd::new(lloyd.centroids, dim);
            assigned = vec![Assigned::NONE; data.len()];
        }
        // Over the rows the loop trained on this is one more of its passes:
        // free once it has converged.
        lloyd.assign(data.as_flat(), &mut assigned, threads);

        Ok(KMeansModel {
            centroids: Dataset::from_flat(lloyd.centroids, dim)?,
            assignments: assigned.iter().map(|a| a.id).collect(),
        })
    }

    /// The `k` trained centroids (row-major) of the row-major `rows`: what a
    /// PQ codebook is. Unless `codes` is empty, it holds one byte per row
    /// (`k <= 256`), and a fit that trained on every row (no more than the
    /// sample limit) writes each row's nearest centroid there: the row's
    /// code in that sub-space. Runs on the calling thread — a quantizer
    /// trains its sub-spaces side by side — and seeds through the column
    /// kernel, which is the faster on short rows.
    ///
    /// The caller has checked what [`KMeans::fit`] checks: at least `k` rows.
    pub(crate) fn fit_centroids(&self, rows: &[f32], dim: usize, codes: &mut [u8]) -> Vec<f32> {
        debug_assert!(rows.len() / dim >= self.k, "fewer rows than clusters");
        let mut rng = SplitMix64::new(self.seed);
        let train = self.sample(rows, dim, &mut rng);
        let mut cols = Vec::new();
        cols_from_rows(&train, dim, &mut cols);
        let (lloyd, mut assigned) = self.train(&train, dim, &mut rng, 1, |v, out| {
            l2_squared_cols(v, &cols, out);
        });
        if !codes.is_empty() && matches!(train, Cow::Borrowed(_)) {
            debug_assert_eq!(codes.len(), assigned.len(), "one code byte per row");
            // As in `fit`: one more pass, free once the loop has converged.
            lloyd.assign(&train, &mut assigned, 1);
            for (code, a) in codes.iter_mut().zip(&assigned) {
                *code = cast::u8_from_u32(a.id);
            }
        }
        lloyd.centroids
    }

    /// The rows to train on: all of them, or `sample_limit` drawn from `rng`.
    fn sample<'a>(&self, rows: &'a [f32], dim: usize, rng: &mut SplitMix64) -> Cow<'a, [f32]> {
        let n = rows.len() / dim;
        if n <= self.sample_limit {
            return Cow::Borrowed(rows);
        }
        let mut sample = Vec::with_capacity(self.sample_limit * dim);
        for i in rng.sample_indices(n, self.sample_limit) {
            sample.extend_from_slice(&rows[i * dim..(i + 1) * dim]);
        }
        Cow::Owned(sample)
    }

    /// Seeds with k-means++ and runs Lloyd's loop over `train`; `scan(v,
    /// out)` writes the distances from `v` to every row of `train`. Returns
    /// the loop as its last `recompute` left it, and each row's assignment
    /// from the pass before that.
    fn train(
        &self,
        train: &[f32],
        dim: usize,
        rng: &mut SplitMix64,
        threads: usize,
        scan: impl Fn(&[f32], &mut [f32]),
    ) -> (Lloyd, Vec<Assigned>) {
        // The seeding measured every (row, seed) pair: its assignment is the
        // first pass, which changes every row it moves off centroid 0.
        let (seeds, mut assigned) = kmeanspp_init(train, dim, self.k, rng, scan);
        let mut lloyd = Lloyd::new(seeds, dim);
        let mut changed = assigned.iter().filter(|a| a.id != 0).count();
        for pass in 0..self.max_iters {
            if pass > 0 {
                changed = lloyd.assign(train, &mut assigned, threads);
            }
            lloyd.recompute(train, &assigned, rng);
            if changed == 0 {
                break;
            }
        }
        (lloyd, assigned)
    }
}

/// The result of k-means training.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// One centroid per cluster (`k × dim`).
    pub centroids: Dataset,
    /// Cluster id of every input row.
    pub assignments: Vec<u32>,
}

impl KMeansModel {
    /// Id of the centroid closest to `v`.
    pub fn nearest(&self, v: &[f32]) -> u32 {
        let mut dists = vec![0.0; self.centroids.len()];
        Metric::L2.distance_rows(v, self.centroids.as_flat(), &mut dists);
        first_smallest(&dists).id
    }

    /// Ids of the `n` centroids closest to `v`, closest first.
    pub fn nearest_n(&self, v: &[f32], n: usize) -> Vec<u32> {
        let mut dists = vec![0.0; self.centroids.len()];
        Metric::L2.distance_rows(v, self.centroids.as_flat(), &mut dists);
        let mut topk = sann_core::TopK::new(n.max(1).min(self.centroids.len()));
        for (c, &d) in dists.iter().enumerate() {
            topk.push(cast::u32_from_usize(c), d);
        }
        topk.into_sorted_vec().into_iter().map(|nb| nb.id).collect()
    }

    /// Total within-cluster sum of squared distances over `data`.
    pub fn inertia(&self, data: &Dataset) -> f64 {
        data.iter()
            .zip(&self.assignments)
            .map(|(row, &a)| l2_squared(row, self.centroids.row(a as usize)) as f64)
            .sum()
    }

    /// Appends the canonical little-endian encoding (centroids, then the
    /// assignment vector) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        self.centroids.encode_into(buf);
        buf.put_count_u64(self.assignments.len());
        buf.put_u32s(self.assignments.iter().copied());
    }

    /// Reads a model previously written by [`KMeansModel::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, an out-of-range assignment,
    /// or a centroid that is not finite (every distance to it is NaN or
    /// infinite, and a probe order ranked by those is not an order).
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<KMeansModel> {
        let centroids = Dataset::decode_from(r)?;
        if !centroids.as_flat().iter().all(|x| x.is_finite()) {
            return Err(Error::Corrupt("kmeans: non-finite centroid".into()));
        }
        let n = r.get_count_u64("kmeans assignments", 4)?;
        let assignments: Vec<u32> = r.get_u32s(n)?.collect();
        let k = u32::try_from(centroids.len()).unwrap_or(u32::MAX);
        if assignments.iter().any(|&a| a >= k) {
            return Err(Error::Corrupt("kmeans: assignment out of range".into()));
        }
        Ok(KMeansModel {
            centroids,
            assignments,
        })
    }
}

/// A row's nearest centroid (the first of equals) and the distance to it, as
/// last computed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Assigned {
    id: u32,
    dist: f32,
}

impl Assigned {
    /// What [`first_smallest`] starts from, and a row no pass has seen.
    const NONE: Assigned = Assigned {
        id: 0,
        dist: f32::INFINITY,
    };
}

/// The smallest distance and its index (the first of equals).
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn first_smallest(dists: &[f32]) -> Assigned {
    let mut best = Assigned::NONE;
    for (c, &d) in dists.iter().enumerate() {
        if d < best.dist {
            best = Assigned {
                id: cast::u32_from_usize(c),
                dist: d,
            };
        }
    }
    best
}

/// Index of the centroid closest to `v` (the first of equals) among the
/// `dists.len()` stored in `cols` in the column layout of
/// [`cols_from_rows`]; `dists` is scratch.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub(crate) fn nearest_centroid(v: &[f32], cols: &[f32], dists: &mut [f32]) -> u32 {
    l2_squared_cols(v, cols, dists);
    first_smallest(dists).id
}

/// k-means++ seeding (Arthur & Vassilvitskii, SODA 2007) over the row-major
/// `rows`; `scan(v, out)` writes the distances from `v` to every row.
/// Returns the seeds and each row's first nearest of them: what
/// [`Lloyd::assign`] from [`Assigned::NONE`] over the seeds would find, bit
/// for bit, because the seeds' scans measure the same pairs (DESIGN.md §14).
fn kmeanspp_init(
    rows: &[f32],
    dim: usize,
    k: usize,
    rng: &mut SplitMix64,
    scan: impl Fn(&[f32], &mut [f32]),
) -> (Vec<f32>, Vec<Assigned>) {
    let n = rows.len() / dim;
    let row = |i: usize| &rows[i * dim..(i + 1) * dim];
    let mut centroids = Vec::with_capacity(k * dim);
    let mut assigned = vec![Assigned::NONE; n];
    let mut dists = vec![0.0f32; n];
    for id in (0u32..).take(k) {
        let next = if id == 0 {
            cast::usize_from_u64(rng.next_bounded(n as u64))
        } else {
            // The order of this sum and of the walk below decides which rows
            // seed: a reassociated f64 sum picks others.
            let total: f64 = assigned.iter().map(|a| a.dist as f64).sum();
            if total <= 0.0 {
                // All remaining points coincide with a centroid; pick uniformly.
                cast::usize_from_u64(rng.next_bounded(n as u64))
            } else {
                let mut target = rng.next_f64() * total;
                let mut chosen = n - 1;
                for (i, a) in assigned.iter().enumerate() {
                    target -= a.dist as f64;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            }
        };
        centroids.extend_from_slice(row(next));
        scan(row(next), &mut dists);
        for (best, &dist) in assigned.iter_mut().zip(&dists) {
            if dist < best.dist {
                *best = Assigned { id, dist };
            }
        }
    }
    (centroids, assigned)
}

/// Lloyd's loop between two passes: the centroids, and which of them the
/// last [`Lloyd::recompute`] moved. A row whose own centroid stood still
/// has, for every other centroid that stood still, the distance it had last
/// pass — the same bits — and last pass its own was the first smallest of
/// them. Only the moved ones can take it away.
struct Lloyd {
    dim: usize,
    /// Row-major, `k × dim`.
    centroids: Vec<f32>,
    /// The centroids of the pass before (the buffer `recompute` fills next).
    previous: Vec<f32>,
    /// Ascending ids of the centroids whose bits the last `recompute`
    /// changed; all of them before the first.
    moved: Vec<u32>,
    /// `moved` as one flag per centroid.
    is_moved: Vec<bool>,
    /// All centroids, and the moved ones alone, in the column layout.
    cols: Vec<f32>,
    moved_cols: Vec<f32>,
    /// The moved centroids row-major, on their way to `moved_cols`.
    packed: Vec<f32>,
}

impl Lloyd {
    /// Starts from `centroids` (row-major), every one of them new to every
    /// row.
    fn new(centroids: Vec<f32>, dim: usize) -> Lloyd {
        let k = centroids.len() / dim;
        let mut lloyd = Lloyd {
            dim,
            previous: vec![0.0; centroids.len()],
            centroids,
            moved: (0u32..).take(k).collect(),
            is_moved: vec![true; k],
            cols: Vec::new(),
            moved_cols: Vec::new(),
            packed: Vec::new(),
        };
        lloyd.lay_out();
        lloyd
    }

    /// Lays the centroids out the way a pass over `moved` scans them.
    fn lay_out(&mut self) {
        if self.moved.is_empty() {
            return; // the pass scans nothing
        }
        self.cols.clear();
        cols_from_rows(&self.centroids, self.dim, &mut self.cols);
        if self.moved.len() == self.is_moved.len() {
            return; // every row's own centroid moved: no row takes the short scan
        }
        self.packed.clear();
        let centroids = self.centroids.chunks_exact(self.dim);
        for (centroid, _) in centroids.zip(&self.is_moved).filter(|(_, &moved)| moved) {
            self.packed.extend_from_slice(centroid);
        }
        self.moved_cols.clear();
        cols_from_rows(&self.packed, self.dim, &mut self.moved_cols);
    }

    /// Assigns every row of the row-major `rows` to its nearest centroid —
    /// the first smallest over all `k`, whatever `moved` holds — given that
    /// `assigned` is what the pass before `recompute` left (or
    /// [`Assigned::NONE`] with everything moved). Returns the number of
    /// rows whose centroid changed. Row-parallel over `threads`.
    fn assign(&self, rows: &[f32], assigned: &mut [Assigned], threads: usize) -> usize {
        if self.moved.is_empty() {
            return 0;
        }
        let changed = std::sync::atomic::AtomicUsize::new(0);
        par::par_chunks_mut(assigned, 1, threads, |first, chunk| {
            let mut all = vec![0.0; self.is_moved.len()];
            let mut few = vec![0.0; self.moved.len()];
            let rows = rows[first * self.dim..].chunks_exact(self.dim);
            let mut local_changed = 0usize;
            for (slot, v) in chunk.iter_mut().zip(rows) {
                local_changed += usize::from(self.assign_row(v, slot, &mut all, &mut few));
            }
            changed.fetch_add(local_changed, std::sync::atomic::Ordering::Relaxed);
        });
        changed.into_inner()
    }

    /// One row of [`Lloyd::assign`]; `all` and `few` are scratch of `k` and
    /// `moved.len()` slots. Returns whether the row's centroid changed.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn assign_row(&self, v: &[f32], slot: &mut Assigned, all: &mut [f32], few: &mut [f32]) -> bool {
        let own = usize::try_from(slot.id).unwrap_or(usize::MAX);
        let best = if self.is_moved.get(own).copied().unwrap_or(true) {
            #[cfg(test)]
            count_pairs(all.len());
            l2_squared_cols(v, &self.cols, all);
            first_smallest(all)
        } else {
            #[cfg(test)]
            count_pairs(few.len());
            l2_squared_cols(v, &self.moved_cols, few);
            // The lexicographic (dist, id) minimum of the carried winner and
            // the moved centroids is `first_smallest` over all k: the
            // centroids left out are no nearer than the carried one, and
            // those as near have a higher id.
            let mut best = *slot;
            for (&id, &dist) in self.moved.iter().zip(few.iter()) {
                if dist < best.dist || (dist == best.dist && id < best.id) {
                    best = Assigned { id, dist };
                }
            }
            best
        };
        let changed = best.id != slot.id;
        *slot = best;
        changed
    }

    /// Moves every centroid to the mean of its rows and notes which moved:
    /// bits compared, so the reseed of an empty cluster counts and the
    /// unchanged mean of an unchanged cluster does not.
    fn recompute(&mut self, rows: &[f32], assigned: &[Assigned], rng: &mut SplitMix64) {
        std::mem::swap(&mut self.centroids, &mut self.previous);
        let ids = assigned.iter().map(|a| a.id);
        recompute_centroids(rows, self.dim, ids, &mut self.centroids, rng);
        self.note_moved();
    }

    /// Sets `moved` to the centroids that differ from `previous`.
    fn note_moved(&mut self) {
        let pairs = self
            .centroids
            .chunks_exact(self.dim)
            .zip(self.previous.chunks_exact(self.dim));
        self.moved.clear();
        for ((id, is_moved), (new, old)) in (0u32..).zip(&mut self.is_moved).zip(pairs) {
            *is_moved = new.iter().zip(old).any(|(a, b)| a.to_bits() != b.to_bits());
            if *is_moved {
                self.moved.push(id);
            }
        }
        self.lay_out();
    }
}

// Pairs (row, centroid) `Lloyd::assign_row` has measured on this thread.
#[cfg(test)]
thread_local! {
    static PAIRS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_pairs(n: usize) {
    PAIRS.with(|pairs| pairs.set(pairs.get() + n));
}

/// Writes to `centroids` (`k × dim`, row-major) the mean of the rows each id
/// of `assignments` — one per row of the row-major `rows` — names.
fn recompute_centroids(
    rows: &[f32],
    dim: usize,
    assignments: impl Iterator<Item = u32>,
    centroids: &mut [f32],
    rng: &mut SplitMix64,
) {
    let k = centroids.len() / dim;
    let mut counts = vec![0u64; k];
    centroids.fill(0.0);
    for (row, a) in rows.chunks_exact(dim).zip(assignments) {
        let c = a as usize;
        counts[c] += 1;
        for (acc, &x) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(row) {
            *acc += x;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Re-seed an empty cluster at a random data point so k survives.
            let i = cast::usize_from_u64(rng.next_bounded((rows.len() / dim) as u64));
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&rows[i * dim..(i + 1) * dim]);
        } else {
            let inv = 1.0 / cast::f32_rounded_from_u64(counts[c]);
            for x in centroids[c * dim..(c + 1) * dim].iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// The fit as it was before a pass knew what the last one had moved, kept
/// as the from-nothing reference: every row scans every centroid in every
/// iteration, k-means++ scans row-major, and a final pass assigns the whole
/// dataset.
#[cfg(test)]
mod reference {
    use super::*;

    pub(crate) fn fit(config: &KMeans, data: &Dataset) -> KMeansModel {
        let mut rng = SplitMix64::new(config.seed);

        // Train on a sample when the dataset is large.
        let train: Dataset = if data.len() > config.sample_limit {
            let idx = rng.sample_indices(data.len(), config.sample_limit);
            let mut sample = Dataset::with_dim(data.dim());
            for i in idx {
                sample.push(data.row(i)).expect("same dim");
            }
            sample
        } else {
            data.clone()
        };

        let mut centroids = kmeanspp_init(&train, config.k, &mut rng);
        let mut assignments = vec![0u32; train.len()];
        for _ in 0..config.max_iters {
            let changed = assign(&train, &centroids, config.k, &mut assignments);
            recompute(&train, &assignments, &mut centroids, &mut rng);
            if changed == 0 {
                break;
            }
        }

        // Final assignment over the full dataset.
        let mut full_assignments = vec![0u32; data.len()];
        assign(data, &centroids, config.k, &mut full_assignments);

        KMeansModel {
            centroids: Dataset::from_flat(centroids, data.dim()).expect("rectangular"),
            assignments: full_assignments,
        }
    }

    fn kmeanspp_init(data: &Dataset, k: usize, rng: &mut SplitMix64) -> Vec<f32> {
        let dim = data.dim();
        let mut centroids = Vec::with_capacity(k * dim);
        let first = rng.next_bounded(data.len() as u64) as usize;
        centroids.extend_from_slice(data.row(first));

        let mut min_dist = vec![0.0f32; data.len()];
        Metric::L2.distance_rows(data.row(first), data.as_flat(), &mut min_dist);
        let mut dists = vec![0.0f32; data.len()];
        for _ in 1..k {
            let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
            let next = if total <= 0.0 {
                rng.next_bounded(data.len() as u64) as usize
            } else {
                let mut target = rng.next_f64() * total;
                let mut chosen = data.len() - 1;
                for (i, &d) in min_dist.iter().enumerate() {
                    target -= d as f64;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.extend_from_slice(data.row(next));
            Metric::L2.distance_rows(data.row(next), data.as_flat(), &mut dists);
            for (min, &d) in min_dist.iter_mut().zip(&dists) {
                if d < *min {
                    *min = d;
                }
            }
        }
        centroids
    }

    /// Assigns every row to its nearest centroid; returns the number of
    /// rows whose assignment changed.
    pub(crate) fn assign(
        data: &Dataset,
        centroids: &[f32],
        k: usize,
        assignments: &mut [u32],
    ) -> usize {
        let mut cols = Vec::new();
        cols_from_rows(centroids, data.dim(), &mut cols);
        let mut dists = vec![0.0; k];
        let mut changed = 0usize;
        for (row, slot) in data.iter().zip(assignments) {
            let best = nearest_centroid(row, &cols, &mut dists);
            if *slot != best {
                *slot = best;
                changed += 1;
            }
        }
        changed
    }

    /// The mean step is the one the fit runs: its summation order is part
    /// of what both must agree on, not of what changed.
    pub(crate) fn recompute(
        data: &Dataset,
        assignments: &[u32],
        centroids: &mut [f32],
        rng: &mut SplitMix64,
    ) {
        let ids = assignments.iter().copied();
        recompute_centroids(data.as_flat(), data.dim(), ids, centroids, rng);
    }
}

// Tests reach the reference fit through this re-export; the module itself
// stays private.
#[cfg(test)]
pub(crate) use reference::fit as fit_reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n_per: usize) -> Dataset {
        let mut rng = SplitMix64::new(99);
        let mut rows = Vec::new();
        for _ in 0..n_per {
            rows.push(vec![
                10.0 + rng.next_f32() * 0.1,
                10.0 + rng.next_f32() * 0.1,
            ]);
        }
        for _ in 0..n_per {
            rows.push(vec![
                -10.0 + rng.next_f32() * 0.1,
                -10.0 + rng.next_f32() * 0.1,
            ]);
        }
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs(50);
        let model = KMeans::new(2).with_seed(1).fit(&data).unwrap();
        // All of the first blob maps to one cluster, all of the second to the other.
        let first = model.assignments[0];
        assert!(model.assignments[..50].iter().all(|&a| a == first));
        assert!(model.assignments[50..].iter().all(|&a| a != first));
    }

    #[test]
    fn inertia_decreases_vs_random_centroid() {
        let data = two_blobs(50);
        let model = KMeans::new(2).fit(&data).unwrap();
        // Tight blobs: inertia per point must be tiny compared with blob distance.
        assert!(model.inertia(&data) / 100.0 < 1.0);
    }

    #[test]
    fn rejects_k_larger_than_n() {
        let data = two_blobs(1);
        assert!(KMeans::new(5).fit(&data).is_err());
    }

    #[test]
    fn rejects_empty() {
        let data = Dataset::with_dim(4);
        assert!(matches!(KMeans::new(1).fit(&data), Err(Error::Empty(_))));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs(30);
        let a = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        let b = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn nearest_n_returns_sorted_prefix() {
        let data = two_blobs(30);
        let model = KMeans::new(2).fit(&data).unwrap();
        let near = model.nearest_n(&[10.0, 10.0], 2);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0], model.nearest(&[10.0, 10.0]));
    }

    #[test]
    fn nearest_matches_single_pair_scan() {
        // 7 centroids: a padded group of the row kernel and a padded tile of
        // the column kernel; 9: a padded tile after a full one; 16: full
        // tiles only.
        let data = two_blobs(40);
        for k in [7, 9, 16] {
            let model = KMeans::new(k).with_seed(3).fit(&data).unwrap();
            for (row, &assigned) in data.iter().zip(&model.assignments) {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (c, centroid) in model.centroids.iter().enumerate() {
                    let d = l2_squared(row, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assert_eq!(model.nearest(row) as usize, best);
                assert_eq!(assigned as usize, best);
                assert_eq!(model.nearest_n(row, 3)[0] as usize, best);
            }
        }
    }

    #[test]
    fn sample_limit_still_assigns_everything() {
        let data = two_blobs(200);
        let model = KMeans::new(2).with_sample_limit(40).fit(&data).unwrap();
        assert_eq!(model.assignments.len(), 400);
        let first = model.assignments[0];
        assert!(model.assignments[..200].iter().all(|&a| a == first));
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let data = two_blobs(30);
        let model = KMeans::new(2).with_seed(5).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        let back = KMeansModel::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.centroids, model.centroids);
        assert_eq!(back.assignments, model.assignments);
        let mut w2 = sann_core::buf::ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_truncation_and_bad_assignment() {
        let data = two_blobs(10);
        let model = KMeans::new(2).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes[..bytes.len() - 2], "test");
        assert!(KMeansModel::decode_from(&mut r).is_err());
        // Corrupt the last assignment to an out-of-range cluster id.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        assert!(KMeansModel::decode_from(&mut r).is_err());
        // 2^62 assignments: refused before anything is sized by the count.
        let at = n - 4 * model.assignments.len() - 8;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        assert!(matches!(
            KMeansModel::decode_from(&mut r),
            Err(Error::Corrupt(m)) if m.contains("kmeans assignments")
        ));
    }

    #[test]
    fn codec_rejects_a_non_finite_centroid() {
        let data = two_blobs(10);
        let model = KMeans::new(2).fit(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        model.encode_into(&mut w);
        let bytes = w.into_bytes();
        // The centroids follow the dataset header (dim u32, rows u64).
        for (at, x) in [(12, f32::NAN), (12 + 3 * 4, f32::INFINITY)] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&x.to_le_bytes());
            let mut r = sann_core::buf::ByteReader::new(&bad, "test");
            let err = KMeansModel::decode_from(&mut r).unwrap_err();
            assert!(
                matches!(&err, Error::Corrupt(m) if m.contains("non-finite")),
                "{err}"
            );
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_fits_like_the_reference(config: &KMeans, data: &Dataset, what: &str) {
        let got = config.fit(data).unwrap();
        let want = reference::fit(config, data);
        assert_eq!(
            bits(got.centroids.as_flat()),
            bits(want.centroids.as_flat()),
            "centroids: {what}"
        );
        assert_eq!(got.assignments, want.assignments, "assignments: {what}");
        // The centroids-only entry: the column kernel under k-means++, one
        // thread, no final pass.
        let centroids = config.fit_centroids(data.as_flat(), data.dim(), &mut []);
        assert_eq!(
            bits(&centroids),
            bits(want.centroids.as_flat()),
            "fit_centroids: {what}"
        );
    }

    /// `n` rows around five loose blobs.
    fn blobs(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let rows = (0..n).map(|i| {
            let centre = (i % 5) as f32;
            (0..dim).map(|_| centre + rng.next_f32()).collect()
        });
        Dataset::from_rows(rows.collect()).unwrap()
    }

    #[test]
    fn fit_is_bit_identical_to_the_from_nothing_reference() {
        for k in [1usize, 2, 7, 32, 256] {
            let mut sizes = vec![k, k + 1, 500, 3_000];
            sizes.retain(|&n| n >= k);
            sizes.dedup();
            for n in sizes {
                for dim in [1usize, 8, 48] {
                    // Three seeds, the dataset's moving with the trainer's;
                    // the largest shapes take one.
                    let seeds = if n * k * dim > 3_000 * 32 * 48 { 1 } else { 3 };
                    for seed in 0..seeds {
                        let data = blobs(n, dim, seed + 40);
                        for max_iters in [1, 15] {
                            let config = KMeans::new(k).with_seed(seed).with_max_iters(max_iters);
                            let what =
                                format!("k={k} n={n} dim={dim} seed={seed} iters={max_iters}");
                            assert_fits_like_the_reference(&config, &data, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fit_matches_the_reference_on_samples_ties_and_equal_rows() {
        // Trained on a sample: the final pass meets rows the loop never saw.
        let data = blobs(900, 8, 3);
        for k in [7, 32] {
            let config = KMeans::new(k).with_seed(9).with_sample_limit(300);
            assert_fits_like_the_reference(&config, &data, &format!("sampled k={k}"));
        }
        // Every row twice: exact ties, empty clusters, reseeds.
        let half = blobs(150, 4, 5);
        let twice =
            Dataset::from_rows(half.iter().flat_map(|r| [r.to_vec(), r.to_vec()]).collect());
        // All rows equal: k-means++ draws uniformly (`total <= 0`).
        let equal = Dataset::from_rows(vec![vec![0.5, -1.0, 2.0]; 64]);
        for (data, what) in [(twice.unwrap(), "twice"), (equal.unwrap(), "equal")] {
            for k in [2, 7, 32] {
                for max_iters in [0, 1, 15] {
                    let config = KMeans::new(k).with_seed(k as u64).with_max_iters(max_iters);
                    let what = format!("{what} k={k} iters={max_iters}");
                    assert_fits_like_the_reference(&config, &data, &what);
                }
            }
        }
    }

    /// `rows` (row-major, `dim` wide) with each of its first `distinct`
    /// rows repeated until there are `n`: exact ties, and k-means++'s
    /// uniform pick once `k > distinct`.
    fn repeated(rows: &[f32], dim: usize, distinct: usize, n: usize) -> Vec<f32> {
        let pick = rows.chunks_exact(dim).take(distinct).cycle().take(n);
        pick.flatten().copied().collect()
    }

    #[test]
    fn the_seeded_pass_is_the_full_pass() {
        for k in [1usize, 2, 7, 32, 256] {
            let mut sizes = vec![k, k + 1, 500];
            sizes.retain(|&n| n >= k);
            sizes.dedup();
            for n in sizes {
                for dim in [1usize, 8, 48] {
                    let data = blobs(n, dim, 17);
                    // Every row twice ties; three distinct rows leave k > 3
                    // to the uniform pick.
                    let shapes = [
                        ("distinct", data.as_flat().to_vec()),
                        ("twice", repeated(data.as_flat(), dim, n.div_ceil(2), n)),
                        ("three", repeated(data.as_flat(), dim, 3, n)),
                    ];
                    for (what, rows) in shapes {
                        let mut cols = Vec::new();
                        cols_from_rows(&rows, dim, &mut cols);
                        // Both kernels k-means++ scans with: row-major
                        // (`fit`) and column (`fit_centroids`).
                        for column_kernel in [false, true] {
                            let mut rng = SplitMix64::new(k as u64 + 5);
                            let (seeds, got) = if column_kernel {
                                kmeanspp_init(&rows, dim, k, &mut rng, |v, out| {
                                    l2_squared_cols(v, &cols, out);
                                })
                            } else {
                                kmeanspp_init(&rows, dim, k, &mut rng, |v, out| {
                                    Metric::L2.distance_rows(v, &rows, out);
                                })
                            };
                            let lloyd = Lloyd::new(seeds, dim);
                            let mut want = vec![Assigned::NONE; n];
                            let changed = lloyd.assign(&rows, &mut want, 1);
                            let what = format!("{what} k={k} n={n} dim={dim} cols={column_kernel}");
                            let ids = |a: &[Assigned]| a.iter().map(|a| a.id).collect::<Vec<_>>();
                            let dists = |a: &[Assigned]| {
                                a.iter().map(|a| a.dist.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(ids(&got), ids(&want), "ids: {what}");
                            assert_eq!(dists(&got), dists(&want), "dists: {what}");
                            let seeded = got.iter().filter(|a| a.id != 0).count();
                            assert_eq!(seeded, changed, "changed: {what}");
                        }
                    }
                }
            }
        }
    }

    /// `fit_centroids` as it trained before k-means++ handed Lloyd its
    /// assignment: the first pass runs from [`Assigned::NONE`] over every
    /// centroid. Returns the centroids and the final assignment.
    fn fit_centroids_from_nothing(
        config: &KMeans,
        rows: &[f32],
        dim: usize,
    ) -> (Vec<f32>, Vec<u32>) {
        let mut rng = SplitMix64::new(config.seed);
        let mut cols = Vec::new();
        cols_from_rows(rows, dim, &mut cols);
        let (seeds, _) = kmeanspp_init(rows, dim, config.k, &mut rng, |v, out| {
            l2_squared_cols(v, &cols, out);
        });
        let mut lloyd = Lloyd::new(seeds, dim);
        let mut assigned = vec![Assigned::NONE; rows.len() / dim];
        for _ in 0..config.max_iters {
            let changed = lloyd.assign(rows, &mut assigned, 1);
            lloyd.recompute(rows, &assigned, &mut rng);
            if changed == 0 {
                break;
            }
        }
        lloyd.assign(rows, &mut assigned, 1);
        (lloyd.centroids, assigned.iter().map(|a| a.id).collect())
    }

    /// The pairs `Lloyd::assign` measures on this thread while `f` runs.
    fn pairs_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = PAIRS.with(|pairs| pairs.get());
        let out = f();
        (out, PAIRS.with(|pairs| pairs.get()) - before)
    }

    #[test]
    fn a_fit_measures_n_k_pairs_fewer_than_one_that_starts_lloyd_from_nothing() {
        let dim = 8;
        for k in [1usize, 2, 7, 32, 256] {
            let twice = repeated(blobs(150, dim, 5).as_flat(), dim, 150, 300.max(2 * k));
            let shapes = [
                ("n=k", blobs(k, dim, 4).as_flat().to_vec()),
                ("blobs", blobs(500, dim, 23).as_flat().to_vec()),
                ("twice", twice),
            ];
            for (what, rows) in shapes {
                let n = rows.len() / dim;
                for max_iters in [1, 2, 15] {
                    let config = KMeans::new(k).with_seed(3).with_max_iters(max_iters);
                    let mut codes = vec![0u8; n];
                    let (centroids, pairs) =
                        pairs_in(|| config.fit_centroids(&rows, dim, &mut codes));
                    let ((old_centroids, old_ids), old_pairs) =
                        pairs_in(|| fit_centroids_from_nothing(&config, &rows, dim));
                    let what = format!("{what} k={k} n={n} iters={max_iters}");
                    assert_eq!(old_pairs - pairs, n * k, "pairs: {what}");
                    assert_eq!(bits(&centroids), bits(&old_centroids), "{what}");
                    let want =
                        reference::fit(&config, &Dataset::from_flat(rows.clone(), dim).unwrap());
                    assert_eq!(bits(&centroids), bits(want.centroids.as_flat()), "{what}");
                    let codes: Vec<u32> = codes.iter().map(|&c| u32::from(c)).collect();
                    assert_eq!(codes, want.assignments, "codes: {what}");
                    assert_eq!(old_ids, want.assignments, "{what}");
                }
            }
        }
    }

    /// The pairs `assign` measures over `rows`, with what it returns.
    fn counted_assign(lloyd: &Lloyd, rows: &[f32], assigned: &mut [Assigned]) -> (usize, usize) {
        pairs_in(|| lloyd.assign(rows, assigned, 1))
    }

    /// Replaces the centroids the way `recompute` does, by hand.
    fn move_to(lloyd: &mut Lloyd, centroids: &[f32]) {
        std::mem::swap(&mut lloyd.centroids, &mut lloyd.previous);
        lloyd.centroids.copy_from_slice(centroids);
        lloyd.note_moved();
    }

    /// Four 1-d centroids and six rows after their first pass.
    fn after_first_pass() -> (Lloyd, Vec<f32>, Vec<Assigned>) {
        let lloyd = Lloyd::new(vec![0.0, 10.0, 20.0, 30.0], 1);
        let rows = vec![1.0, 9.0, 11.0, 19.0, 22.0, 31.0];
        let mut assigned = vec![Assigned::NONE; rows.len()];
        let (changed, pairs) = counted_assign(&lloyd, &rows, &mut assigned);
        // Everything is new to every row: the full scan. Row 0 stays at 0.
        assert_eq!((changed, pairs), (5, 6 * 4));
        let ids: Vec<u32> = assigned.iter().map(|a| a.id).collect();
        assert_eq!(ids, [0, 1, 1, 2, 2, 3]);
        (lloyd, rows, assigned)
    }

    #[test]
    fn assign_with_nothing_moved_measures_nothing() {
        let (mut lloyd, rows, mut assigned) = after_first_pass();
        move_to(&mut lloyd, &[0.0, 10.0, 20.0, 30.0]);
        assert!(lloyd.moved.is_empty());
        let before = assigned.clone();
        assert_eq!(counted_assign(&lloyd, &rows, &mut assigned), (0, 0));
        assert_eq!(assigned, before);
    }

    #[test]
    fn assign_measures_the_moved_for_a_row_that_stood_still_and_all_for_one_that_moved() {
        let (mut lloyd, rows, mut assigned) = after_first_pass();
        move_to(&mut lloyd, &[0.0, 10.0, 11.5, 23.0]);
        assert_eq!(lloyd.moved, [2, 3]);
        // Rows 0-2 sit on centroids 0 and 1, which stood still: two pairs
        // each. Rows 3-5 sit on moved ones: four each.
        for (i, want) in [2, 2, 2, 4, 4, 4].into_iter().enumerate() {
            let (_, pairs) = counted_assign(&lloyd, &rows[i..=i], &mut assigned[i..=i]);
            assert_eq!(pairs, want, "row {i}");
        }
        // 11.0 went to the centroid that moved next to it on a short scan,
        // 19.0 and 22.0 were left behind by theirs and found another.
        let ids: Vec<u32> = assigned.iter().map(|a| a.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 3, 3]);
        let want = rows.iter().map(|&v| {
            let dists: Vec<f32> = lloyd.centroids.iter().map(|&c| (v - c) * (v - c)).collect();
            first_smallest(&dists)
        });
        assert_eq!(assigned, want.collect::<Vec<_>>());
    }

    #[test]
    fn a_moved_centroid_at_equal_distance_wins_only_with_the_lower_id() {
        // The row is 5 from its own centroid at 0 and the other moves to 10.
        for (centroids, moved_to, own, want) in [
            ([-100.0, 0.0], [10.0, 0.0], 1, 0), // the lower id moves in: takes the row
            ([0.0, -100.0], [0.0, 10.0], 0, 0), // the higher id moves in: does not
        ] {
            let mut lloyd = Lloyd::new(centroids.to_vec(), 1);
            let mut assigned = [Assigned::NONE];
            lloyd.assign(&[5.0], &mut assigned, 1);
            assert_eq!(
                assigned[0],
                Assigned {
                    id: own,
                    dist: 25.0
                }
            );
            move_to(&mut lloyd, &moved_to);
            let (changed, pairs) = counted_assign(&lloyd, &[5.0], &mut assigned);
            assert_eq!(pairs, 1);
            assert_eq!(
                assigned[0],
                Assigned {
                    id: want,
                    dist: 25.0
                }
            );
            assert_eq!(changed, usize::from(own != want));
        }
    }

    #[test]
    fn a_reseeded_empty_cluster_has_moved_and_an_unchanged_mean_has_not() {
        // Every row is 0.0: all land on centroid 0, whose mean is again 0.0,
        // and the empty cluster 1 is reseeded at a row.
        let rows = [0.0f32; 8];
        let mut lloyd = Lloyd::new(vec![0.0, 100.0], 1);
        let mut assigned = vec![Assigned::NONE; rows.len()];
        lloyd.assign(&rows, &mut assigned, 1);
        lloyd.recompute(&rows, &assigned, &mut SplitMix64::new(1));
        assert_eq!(lloyd.centroids, [0.0, 0.0]);
        assert_eq!(lloyd.moved, [1]);
        // As near as the carried centroid, with the higher id: one pair per
        // row, nothing changes.
        assert_eq!(counted_assign(&lloyd, &rows, &mut assigned), (0, 8));
        assert!(assigned.iter().all(|a| *a == Assigned { id: 0, dist: 0.0 }));
    }

    #[test]
    fn every_pass_changes_what_the_reference_changes_and_measures_no_more_than_it_must() {
        let (k, dim) = (16, 4);
        let data = blobs(300, dim, 8);
        let rows = data.as_flat();
        let seeds: Vec<f32> = data.iter().take(k).flatten().copied().collect();
        let mut lloyd = Lloyd::new(seeds.clone(), dim);
        let mut assigned = vec![Assigned::NONE; data.len()];
        let (mut ref_centroids, mut ref_assignments) = (seeds, vec![0u32; data.len()]);
        let (mut rng, mut ref_rng) = (SplitMix64::new(2), SplitMix64::new(2));
        let mut short_scans = 0;
        for pass in 0..40 {
            let must: usize = assigned
                .iter()
                .map(|a| {
                    if lloyd.is_moved[a.id as usize] {
                        k
                    } else {
                        lloyd.moved.len()
                    }
                })
                .sum();
            short_scans += usize::from(must < data.len() * k);
            let (changed, pairs) = counted_assign(&lloyd, rows, &mut assigned);
            assert_eq!(pairs, must, "pass {pass}");
            let want = reference::assign(&data, &ref_centroids, k, &mut ref_assignments);
            assert_eq!(changed, want, "pass {pass}");
            let ids: Vec<u32> = assigned.iter().map(|a| a.id).collect();
            assert_eq!(ids, ref_assignments, "pass {pass}");
            lloyd.recompute(rows, &assigned, &mut rng);
            reference::recompute(&data, &ref_assignments, &mut ref_centroids, &mut ref_rng);
            assert_eq!(bits(&lloyd.centroids), bits(&ref_centroids), "pass {pass}");
            if changed == 0 {
                assert!(lloyd.moved.is_empty(), "converged, yet something moved");
                break;
            }
        }
        assert!(short_scans > 2, "the loop never took the short scan");
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        // All points identical: k-means++ falls back to uniform picks and
        // empty clusters are reseeded.
        let rows = vec![vec![1.0, 1.0]; 20];
        let data = Dataset::from_rows(rows).unwrap();
        let model = KMeans::new(3).fit(&data).unwrap();
        assert_eq!(model.centroids.len(), 3);
    }
}
