//! Product quantization (Jégou, Douze & Schmid, TPAMI 2011).
//!
//! A vector of dimension `d` is split into `m` contiguous sub-vectors; each
//! sub-vector is quantized to the nearest of `ksub` trained sub-centroids.
//! The code is then `m` small integers (stored as bytes). Asymmetric distance
//! computation (ADC) against a query uses one lookup table of
//! `m × ksub` partial distances computed once per query.
//!
//! DiskANN keeps exactly this representation in memory to rank candidates
//! while full-precision vectors stay on disk (§II-B of the paper).

use crate::kmeans::{nearest_centroid, KMeans};
use sann_core::distance::{by_fours, cols_from_rows, cols_len, cols_row, l2_squared_cols};
use sann_core::{cast, par, Dataset, Error, Result};

/// Training rows per sub-space; a larger dataset trains on a sample.
const SAMPLE_LIMIT: usize = 50_000;

/// Lloyd iterations per sub-space.
const MAX_ITERS: usize = 15;

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    ksub: usize,
    sub_dim: usize,
    /// `m` codebooks, each the `ksub` sub-centroids in the column layout
    /// `l2_squared_cols` scans (`cols_from_rows`). This is the only copy;
    /// the persisted form is row-major (`ksub × sub_dim`) and the codec
    /// converts.
    codebooks: Vec<f32>,
}

impl ProductQuantizer {
    /// Trains a quantizer with `m` sub-spaces of `ksub` centroids each.
    ///
    /// Typical configurations use `ksub = 256` so codes are exactly `m`
    /// bytes; smaller `ksub` values train faster on small datasets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `m` does not divide the data
    /// dimensionality, if `ksub` is 0 or > 256, or if there are fewer
    /// training vectors than `ksub`.
    pub fn train(data: &Dataset, m: usize, ksub: usize, seed: u64) -> Result<ProductQuantizer> {
        check_shape(data, m, ksub)?;
        let threads = par::default_threads();
        let pq = Self::train_on(data, m, ksub, seed, MAX_ITERS, threads, &mut []);
        Ok(pq)
    }

    /// [`ProductQuantizer::train`] and then [`ProductQuantizer::encode_all`]
    /// of the same `data`, with the same quantizer and the same codes. A
    /// training on every row (at most 50,000) already knows each row's
    /// nearest sub-centroids: its codes are the fits' last assignments, and
    /// no (row, sub-centroid) pair is measured twice. A sampled training
    /// encodes afterwards.
    ///
    /// # Errors
    ///
    /// As [`ProductQuantizer::train`].
    pub fn train_and_encode(
        data: &Dataset,
        m: usize,
        ksub: usize,
        seed: u64,
    ) -> Result<(ProductQuantizer, Vec<u8>)> {
        check_shape(data, m, ksub)?;
        let n = data.len();
        // A sampled training's assignments cover only the sample.
        let mut by_subspace = vec![0u8; if n > SAMPLE_LIMIT { 0 } else { m * n }];
        let threads = par::default_threads();
        let pq = Self::train_on(data, m, ksub, seed, MAX_ITERS, threads, &mut by_subspace);
        let codes = if by_subspace.is_empty() {
            pq.encode_all(data)
        } else {
            row_major(&by_subspace, n, m)
        };
        Ok((pq, codes))
    }

    /// [`ProductQuantizer::train`] past its checks, at most `max_iters`
    /// Lloyd iterations per sub-space, on `threads` workers: each takes a
    /// run of sub-spaces and trains them one after the other on its own
    /// thread, so a training opens one thread scope, not one per Lloyd
    /// iteration. A sub-space's seed is its own, so the split cannot show in
    /// the codebooks. Unless `codes` is empty, it is `m` runs of one byte
    /// per row, and a training on every row writes each sub-space's codes
    /// to its run.
    fn train_on(
        data: &Dataset,
        m: usize,
        ksub: usize,
        seed: u64,
        max_iters: usize,
        threads: usize,
        codes: &mut [u8],
    ) -> ProductQuantizer {
        let dim = data.dim();
        let sub_dim = dim / m;
        let book_len = cols_len(ksub, sub_dim);
        let mut codebooks = vec![0.0; m * book_len];
        // Each sub-space's codebook beside its run of codes, or beside no
        // codes.
        let mut runs = codes.chunks_exact_mut(data.len());
        let mut subspaces: Vec<(&mut [f32], &mut [u8])> = codebooks
            .chunks_exact_mut(book_len)
            .map(|book| (book, runs.next().unwrap_or_default()))
            .collect();
        par::par_chunks_mut(&mut subspaces, 1, threads, |first, subspaces| {
            // One sub-space of the training rows, and its trained centroids
            // in the column layout; both reused from sub-space to sub-space.
            let mut rows = Vec::with_capacity(data.len() * sub_dim);
            let mut cols = Vec::with_capacity(book_len);
            for (sub, (book, codes)) in (first..).zip(subspaces) {
                rows.clear();
                for row in data.iter() {
                    rows.extend_from_slice(&row[sub * sub_dim..(sub + 1) * sub_dim]);
                }
                let centroids = KMeans::new(ksub)
                    .with_seed(seed.wrapping_add(sub as u64))
                    .with_sample_limit(SAMPLE_LIMIT)
                    .with_max_iters(max_iters)
                    .fit_centroids(&rows, sub_dim, codes);
                cols.clear();
                cols_from_rows(&centroids, sub_dim, &mut cols);
                book.copy_from_slice(&cols);
            }
        });
        ProductQuantizer {
            dim,
            m,
            ksub,
            sub_dim,
            codebooks,
        }
    }

    /// Dimensionality of input vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sub-spaces (bytes per code).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of centroids per sub-space.
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Bytes of one encoded vector.
    pub fn code_bytes(&self) -> usize {
        self.m
    }

    /// The codebooks, one sub-space after the other.
    fn books(&self) -> impl Iterator<Item = &[f32]> {
        self.codebooks
            .chunks_exact(cols_len(self.ksub, self.sub_dim))
    }

    /// Each sub-vector of `v` paired with its sub-space's codebook.
    fn subspaces<'a>(&'a self, v: &'a [f32]) -> impl Iterator<Item = (&'a [f32], &'a [f32])> {
        v.chunks_exact(self.sub_dim).zip(self.books())
    }

    /// Encodes a vector to its `m`-byte code.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut code = vec![0u8; self.m];
        self.encode_row(v, &mut code, &mut vec![0.0; self.ksub]);
        code
    }

    /// Writes the code of `v` to `code`; `dists` is `ksub` scratch slots.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn encode_row(&self, v: &[f32], code: &mut [u8], dists: &mut [f32]) {
        assert_eq!(v.len(), self.dim, "encode dimension mismatch");
        for (slot, (sv, book)) in code.iter_mut().zip(self.subspaces(v)) {
            // ksub <= 256, so the nearest sub-centroid's index fits a byte.
            *slot = cast::u8_from_u32(nearest_centroid(sv, book, dists));
        }
    }

    /// Encodes every row of a dataset, returning a flat `n × m` code matrix.
    /// Encoding is parallelized across all cores.
    pub fn encode_all(&self, data: &Dataset) -> Vec<u8> {
        let mut codes = vec![0u8; data.len() * self.m];
        par::par_chunks_mut(
            &mut codes,
            self.m,
            par::default_threads(),
            |first, chunk| {
                let mut dists = vec![0.0; self.ksub];
                for (i, code) in chunk.chunks_mut(self.m).enumerate() {
                    self.encode_row(data.row(first + i), code, &mut dists);
                }
            },
        );
        codes
    }

    /// Reconstructs the approximate vector for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.m()` or a code byte is not below
    /// `self.ksub()`.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "decode length mismatch");
        let mut v = Vec::with_capacity(self.dim);
        for (book, &c) in self.books().zip(code) {
            // The padding of a last tile is not a sub-centroid.
            assert!(usize::from(c) < self.ksub, "code byte {c} beyond ksub");
            v.extend(cols_row(book, self.sub_dim, usize::from(c)));
        }
        v
    }

    /// Appends the canonical little-endian encoding of the trained quantizer
    /// (shape, then the codebooks flattened `m × ksub × sub_dim`, one
    /// sub-centroid after the other) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        buf.put_count_u32(self.dim);
        buf.put_count_u32(self.m);
        buf.put_count_u32(self.ksub);
        let rows = |book| (0..self.ksub).flat_map(move |c| cols_row(book, self.sub_dim, c));
        buf.put_f32s(self.books().flat_map(rows));
    }

    /// Reads a quantizer previously written by
    /// [`ProductQuantizer::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, an inconsistent shape, or a
    /// codebook entry that is not finite (it would make every ADC table a
    /// NaN table, and a candidate list ordered by NaN is not ordered).
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<ProductQuantizer> {
        let dim = r.get_count_u32("pq dim", 0)?;
        let m = r.get_count_u32("pq m", 0)?;
        let ksub = r.get_count_u32("pq ksub", 0)?;
        if m == 0 || dim == 0 || !dim.is_multiple_of(m) || ksub == 0 || ksub > 256 {
            return Err(Error::Corrupt("pq: inconsistent shape".into()));
        }
        let sub_dim = dim / m;
        let mut floats = r.get_f32s(ksub.saturating_mul(dim))?;
        let mut codebooks = Vec::with_capacity(m * cols_len(ksub, sub_dim));
        let mut rows = Vec::with_capacity(ksub * sub_dim);
        for _ in 0..m {
            rows.clear();
            rows.extend(floats.by_ref().take(ksub * sub_dim));
            if !rows.iter().all(|x| x.is_finite()) {
                return Err(Error::Corrupt("pq: non-finite codebook entry".into()));
            }
            cols_from_rows(&rows, sub_dim, &mut codebooks);
        }
        Ok(ProductQuantizer {
            dim,
            m,
            ksub,
            sub_dim,
            codebooks,
        })
    }

    /// Builds the ADC lookup table for a query.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_table(&self, query: &[f32]) -> DistanceTable {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut table = DistanceTable::zeroed(self.m, self.ksub);
        let rows = table.table.chunks_exact_mut(self.ksub);
        for (row, (qv, book)) in rows.zip(self.subspaces(query)) {
            l2_squared_cols(qv, book, row);
        }
        table
    }
}

/// What [`ProductQuantizer::train`] checks before it trains.
fn check_shape(data: &Dataset, m: usize, ksub: usize) -> Result<()> {
    let dim = data.dim();
    if m == 0 || !dim.is_multiple_of(m) {
        return Err(Error::invalid_parameter(
            "m",
            format!("{m} must be a positive divisor of dim {dim}"),
        ));
    }
    if ksub == 0 || ksub > 256 {
        return Err(Error::invalid_parameter("ksub", "must be in 1..=256"));
    }
    if data.len() < ksub {
        return Err(Error::invalid_parameter(
            "ksub",
            format!("{ksub} sub-centroids need at least that many training vectors"),
        ));
    }
    Ok(())
}

/// The flat `n × m` code matrix of codes stored sub-space-major (`m` runs
/// of `n` bytes).
fn row_major(by_subspace: &[u8], n: usize, m: usize) -> Vec<u8> {
    let mut codes = vec![0u8; n * m];
    for (sub, run) in by_subspace.chunks_exact(n).enumerate() {
        for (code, &c) in codes.chunks_exact_mut(m).zip(run) {
            code[sub] = c;
        }
    }
    codes
}

/// Per-query ADC lookup table produced by
/// [`ProductQuantizer::distance_table`].
#[derive(Debug, Clone)]
pub struct DistanceTable {
    table: Vec<f32>,
    m: usize,
    ksub: usize,
}

/// The table entry for code byte `c` in one sub-space's row of `ksub`
/// partial distances. Only a corrupt code holds a byte beyond `ksub`; it
/// scores `+inf`, so the vector never ranks.
#[inline(always)]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn entry(row: &[f32], c: u8) -> f32 {
    debug_assert!(usize::from(c) < row.len(), "code byte {c} beyond ksub");
    row.get(usize::from(c)).copied().unwrap_or(f32::INFINITY)
}

impl DistanceTable {
    fn zeroed(m: usize, ksub: usize) -> DistanceTable {
        DistanceTable {
            table: vec![0.0; m * ksub],
            m,
            ksub,
        }
    }

    /// Approximate squared L2 distance between the table's query and an
    /// encoded vector: the sum of the code's `m` table entries, in
    /// sub-space order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `code.len()` differs from the quantizer's `m`.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let mut d = 0.0f32;
        for (row, &c) in self.table.chunks_exact(self.ksub).zip(code) {
            d += entry(row, c);
        }
        d
    }

    /// Distances of four codes, each bit-identical to
    /// [`DistanceTable::distance`]: every code keeps its own running sum in
    /// sub-space order, and the four sums advance together so their add
    /// chains overlap.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a code's length differs from the
    /// quantizer's `m`.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_x4(&self, codes: [&[u8]; 4]) -> [f32; 4] {
        debug_assert!(codes.iter().all(|code| code.len() == self.m));
        let [c0, c1, c2, c3] = codes;
        let mut d = [0.0f32; 4];
        let rows = self.table.chunks_exact(self.ksub);
        for ((((row, &a), &b), &c), &e) in rows.zip(c0).zip(c1).zip(c2).zip(c3) {
            for (sum, byte) in d.iter_mut().zip([a, b, c, e]) {
                *sum += entry(row, byte);
            }
        }
        d
    }

    /// Distance of the `i`-th code in a flat code matrix.
    ///
    /// # Panics
    ///
    /// Panics if `codes` holds fewer than `i + 1` codes.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_at(&self, codes: &[u8], i: usize) -> f32 {
        self.distance(self.code_at(codes, i))
    }

    /// Distances of every code in the flat code matrix `codes` — a posting
    /// list — written to `out` in order.
    ///
    /// # Panics
    ///
    /// Panics if `codes` does not hold exactly `out.len()` codes.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_rows(&self, codes: &[u8], out: &mut [f32]) {
        assert_eq!(codes.len(), out.len() * self.m, "code count mismatch");
        by_fours(codes.chunks_exact(self.m), out, |group| {
            self.distance_x4(group)
        });
    }

    /// Distances of the codes `ids` of the flat code matrix `codes` — a
    /// graph node's neighbours — replacing the contents of `out`, in `ids`
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_gather(&self, codes: &[u8], ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(ids.len(), 0.0);
        let picked = ids.iter().map(|&id| self.code_at(codes, id as usize));
        by_fours(picked, out, |group| self.distance_x4(group));
    }

    fn code_at<'a>(&self, codes: &'a [u8], i: usize) -> &'a [u8] {
        &codes[i * self.m..(i + 1) * self.m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::distance::l2_squared;
    use sann_datagen::EmbeddingModel;

    fn train_small() -> (Dataset, ProductQuantizer) {
        let data = EmbeddingModel::new(32, 4, 11).generate(600);
        let pq = ProductQuantizer::train(&data, 4, 16, 1).unwrap();
        (data, pq)
    }

    #[test]
    fn code_shape() {
        let (data, pq) = train_small();
        let code = pq.encode(data.row(0));
        assert_eq!(code.len(), 4);
        assert_eq!(pq.code_bytes(), 4);
        assert!(code.iter().all(|&c| (c as usize) < pq.ksub()));
    }

    #[test]
    fn reconstruction_error_is_bounded() {
        let (data, pq) = train_small();
        let mut total = 0.0f64;
        for row in data.iter().take(100) {
            let rec = pq.decode(&pq.encode(row));
            total += l2_squared(row, &rec) as f64;
        }
        // Unit vectors; squared distance between random unit vectors is ~2.
        let mse = total / 100.0;
        assert!(mse < 0.5, "reconstruction MSE {mse} too large");
    }

    #[test]
    fn adc_approximates_true_distance() {
        let (data, pq) = train_small();
        let q = data.row(0);
        let table = pq.distance_table(q);
        let mut err = 0.0f64;
        for (i, row) in data.iter().enumerate().take(200) {
            let true_d = l2_squared(q, row);
            let approx = table.distance(&pq.encode(row));
            err += (true_d - approx).abs() as f64;
            let _ = i;
        }
        assert!(
            err / 200.0 < 0.5,
            "mean ADC error too large: {}",
            err / 200.0
        );
    }

    #[test]
    fn adc_preserves_ranking_roughly() {
        // The PQ-nearest of a query among 200 points should be within the
        // true top-20 — that is the property DiskANN relies on.
        let (data, pq) = train_small();
        let codes = pq.encode_all(&data);
        let q = data.row(7);
        let table = pq.distance_table(q);
        let pq_best = (0..200).min_by(|&a, &b| {
            table
                .distance_at(&codes, a)
                .total_cmp(&table.distance_at(&codes, b))
        });
        let mut true_dists: Vec<(f32, usize)> =
            (0..200).map(|i| (l2_squared(q, data.row(i)), i)).collect();
        true_dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let top20: Vec<usize> = true_dists.iter().take(20).map(|&(_, i)| i).collect();
        assert!(top20.contains(&pq_best.unwrap()));
    }

    #[test]
    fn batched_adc_is_bit_identical_to_single_lookups() {
        // m = 4 and m = 5 sub-spaces: the running sums must match for any
        // code length, and group sizes 0..=9 take every padded remainder.
        for (dim, m) in [(32, 4), (40, 5)] {
            let data = EmbeddingModel::new(dim, 4, 11).generate(300);
            let pq = ProductQuantizer::train(&data, m, 16, 1).unwrap();
            let codes = pq.encode_all(&data);
            let table = pq.distance_table(data.row(17));
            let bits = |dists: &[f32]| dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            for group in 0..=9usize {
                let ids: Vec<u32> = (0..group).map(|i| (i * 37 + 5) as u32 % 300).collect();
                let want: Vec<f32> = ids
                    .iter()
                    .map(|&id| table.distance_at(&codes, id as usize))
                    .collect();
                let mut got = vec![f32::NAN; 2];
                table.distance_gather(&codes, &ids, &mut got);
                assert_eq!(bits(&got), bits(&want), "gather m={m} x{group}");

                let list = &codes[..group * m];
                let want: Vec<f32> = list.chunks_exact(m).map(|c| table.distance(c)).collect();
                let mut got = vec![f32::NAN; group];
                table.distance_rows(list, &mut got);
                assert_eq!(bits(&got), bits(&want), "rows m={m} x{group}");
            }
            let four = [7usize, 0, 299, 7].map(|i| &codes[i * m..(i + 1) * m]);
            assert_eq!(
                bits(&table.distance_x4(four)),
                bits(&four.map(|c| table.distance(c)))
            );
        }
    }

    /// The codebooks as persisted: `m × ksub` sub-centroids of `sub_dim`
    /// elements, one after the other.
    fn persisted_centroids(pq: &ProductQuantizer) -> Vec<f32> {
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        let floats = w.as_slice()[12..].chunks_exact(4);
        floats
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn table_and_codes_match_single_pair_kernels() {
        // The column-major build paths against the per-pair definition over
        // the persisted (row-major) sub-centroids: entry (sub, c) is the
        // distance to sub-centroid c, a code byte is the first nearest
        // sub-centroid, and decoding a code gathers those sub-centroids.
        // ksub = 16 is two full tiles, 20 a padded one after them, 5 a padded
        // one alone.
        for ksub in [16, 20, 5] {
            let data = EmbeddingModel::new(32, 4, 11).generate(600);
            let pq = ProductQuantizer::train(&data, 4, ksub, 1).unwrap();
            let centroids = persisted_centroids(&pq);
            assert_eq!(centroids.len(), 4 * ksub * 8);
            for q in [data.row(3), data.row(599)] {
                let table = pq.distance_table(q);
                let code = pq.encode(q);
                let mut decoded = Vec::new();
                for (sub, book) in centroids.chunks_exact(ksub * 8).enumerate() {
                    let qv = &q[sub * 8..(sub + 1) * 8];
                    let dists: Vec<f32> = book.chunks_exact(8).map(|c| l2_squared(qv, c)).collect();
                    let row = &table.table[sub * ksub..(sub + 1) * ksub];
                    assert!(row
                        .iter()
                        .zip(&dists)
                        .all(|(a, b)| a.to_bits() == b.to_bits()));
                    let mut best = 0;
                    for (c, &d) in dists.iter().enumerate() {
                        if d < dists[best] {
                            best = c;
                        }
                    }
                    assert_eq!(code[sub] as usize, best, "ksub={ksub} sub={sub}");
                    decoded.extend_from_slice(&book[best * 8..(best + 1) * 8]);
                }
                assert_eq!(pq.decode(&code), decoded);
            }
        }
    }

    /// The quantizer as `train` built it before the sub-spaces shared one
    /// thread scope: one from-nothing k-means after the other.
    fn train_reference(data: &Dataset, m: usize, ksub: usize, seed: u64) -> ProductQuantizer {
        let sub_dim = data.dim() / m;
        let mut codebooks = Vec::new();
        for sub in 0..m {
            let mut subdata = Dataset::with_dim(sub_dim);
            for row in data.iter() {
                subdata
                    .push(&row[sub * sub_dim..(sub + 1) * sub_dim])
                    .unwrap();
            }
            let config = KMeans::new(ksub)
                .with_seed(seed.wrapping_add(sub as u64))
                .with_sample_limit(50_000)
                .with_max_iters(15);
            let model = crate::kmeans::fit_reference(&config, &subdata);
            cols_from_rows(model.centroids.as_flat(), sub_dim, &mut codebooks);
        }
        ProductQuantizer {
            dim: data.dim(),
            m,
            ksub,
            sub_dim,
            codebooks,
        }
    }

    #[test]
    fn training_is_byte_identical_to_the_reference_for_every_worker_count() {
        let data = EmbeddingModel::new(192, 6, 21).generate(300);
        for m in [1, 4, 96] {
            for ksub in [2, 16, 256] {
                let want = persisted(&train_reference(&data, m, ksub, 7));
                for threads in [1, 2, 3, 7] {
                    let got =
                        ProductQuantizer::train_on(&data, m, ksub, 7, MAX_ITERS, threads, &mut []);
                    assert!(
                        persisted(&got) == want,
                        "m={m} ksub={ksub} threads={threads}"
                    );
                }
                let got = ProductQuantizer::train(&data, m, ksub, 7).unwrap();
                assert!(persisted(&got) == want, "m={m} ksub={ksub}");
            }
        }
    }

    fn persisted(pq: &ProductQuantizer) -> Vec<u8> {
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        w.into_bytes()
    }

    #[test]
    fn codes_from_training_are_encode_alls_codes() {
        let data = EmbeddingModel::new(32, 4, 11).generate(600);
        for ksub in [5, 16, 256] {
            let want = ProductQuantizer::train(&data, 4, ksub, 3).unwrap();
            let want_codes = want.encode_all(&data);
            let (got, codes) = ProductQuantizer::train_and_encode(&data, 4, ksub, 3).unwrap();
            assert!(persisted(&got) == persisted(&want), "ksub={ksub}");
            assert!(codes == want_codes, "ksub={ksub}");
            // Capped: the last `recompute` moved centroids the last pass
            // had not met, and one worker against every core.
            for max_iters in [0, 1, 2, MAX_ITERS] {
                for threads in [1, par::default_threads()] {
                    let what = format!("ksub={ksub} iters={max_iters} threads={threads}");
                    let mut by_subspace = vec![0u8; 4 * data.len()];
                    let pq = ProductQuantizer::train_on(
                        &data,
                        4,
                        ksub,
                        3,
                        max_iters,
                        threads,
                        &mut by_subspace,
                    );
                    let codes = row_major(&by_subspace, data.len(), 4);
                    assert!(codes == pq.encode_all(&data), "{what}");
                    if max_iters == MAX_ITERS {
                        assert!(persisted(&pq) == persisted(&want), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_sampled_training_encodes_afterwards() {
        // One row past the sample limit, at 2-d: the fits train on a sample
        // and write no codes.
        let data = EmbeddingModel::new(2, 4, 5).generate(SAMPLE_LIMIT + 1);
        let mut by_subspace = vec![7u8; 2 * data.len()];
        let pq = ProductQuantizer::train_on(&data, 2, 4, 9, MAX_ITERS, 1, &mut by_subspace);
        assert!(by_subspace.iter().all(|&c| c == 7));
        let (got, codes) = ProductQuantizer::train_and_encode(&data, 2, 4, 9).unwrap();
        assert!(persisted(&got) == persisted(&pq));
        assert!(codes == pq.encode_all(&data));
        assert_eq!(codes.len(), data.len() * 2);
    }

    #[test]
    fn train_and_encode_checks_what_train_checks() {
        let data = EmbeddingModel::new(32, 2, 1).generate(100);
        for (m, ksub) in [(0, 16), (3, 16), (4, 0), (4, 257), (4, 128)] {
            assert!(ProductQuantizer::train_and_encode(&data, m, ksub, 1).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "beyond ksub")]
    fn decode_rejects_a_code_byte_beyond_ksub() {
        let (_, pq) = train_small();
        pq.decode(&[0, 16, 0, 0]);
    }

    #[test]
    fn rejects_bad_m() {
        let data = EmbeddingModel::new(30, 2, 1).generate(100);
        assert!(ProductQuantizer::train(&data, 4, 16, 1).is_err());
        assert!(ProductQuantizer::train(&data, 0, 16, 1).is_err());
    }

    #[test]
    fn rejects_bad_ksub() {
        let data = EmbeddingModel::new(32, 2, 1).generate(100);
        assert!(ProductQuantizer::train(&data, 4, 0, 1).is_err());
        assert!(ProductQuantizer::train(&data, 4, 257, 1).is_err());
        assert!(
            ProductQuantizer::train(&data, 4, 128, 1).is_err(),
            "too few training rows"
        );
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let (data, pq) = train_small();
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        let back = ProductQuantizer::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        // The decoded quantizer produces identical codes and distances.
        assert_eq!(back.encode(data.row(0)), pq.encode(data.row(0)));
        let mut w2 = sann_core::buf::ByteWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_corruption() {
        let (_, pq) = train_small();
        let mut w = sann_core::buf::ByteWriter::new();
        pq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes[..bytes.len() - 1], "test");
        assert!(ProductQuantizer::decode_from(&mut r).is_err());
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&3u32.to_le_bytes()); // m=3 does not divide dim=32
        let mut r = sann_core::buf::ByteReader::new(&bad, "test");
        assert!(ProductQuantizer::decode_from(&mut r).is_err());
        // dim = 2^32 - 1 in one sub-space: codebooks the frame cannot hold
        // are refused before anything is sized by them.
        let mut bad = bytes.clone();
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut r = sann_core::buf::ByteReader::new(&bad, "test");
        let err = ProductQuantizer::decode_from(&mut r).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        // A codebook entry that is not a number, first and last.
        for (at, x) in [(12, f32::NAN), (bytes.len() - 4, f32::NEG_INFINITY)] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&x.to_le_bytes());
            let mut r = sann_core::buf::ByteReader::new(&bad, "test");
            let err = ProductQuantizer::decode_from(&mut r).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn encode_all_is_row_major() {
        let (data, pq) = train_small();
        let codes = pq.encode_all(&data);
        assert_eq!(codes.len(), data.len() * pq.m());
        assert_eq!(&codes[..pq.m()], pq.encode(data.row(0)).as_slice());
    }
}
