//! Distance metrics and their kernels.
//!
//! All kernels operate on plain `&[f32]` slices; this is the hot path of
//! every index in the workspace.
//!
//! The single-pair kernels ([`l2_squared`], [`dot`]) keep four partial sums
//! `s0..s3` (lane `l` takes elements `4i + l`) plus a tail sum, and return
//! `s0 + s1 + s2 + s3 + tail`. Four lanes fill one 128-bit register, but
//! every add waits for the previous add of its lane, so a 768-d distance is
//! a chain of 192 dependent adds: the kernel is bound by add latency, not
//! by throughput.
//!
//! The batched kernels ([`l2_squared_x4`], [`dot_x4`], and the forms built
//! on them) score one query against four rows per call. Each row keeps its
//! own four lanes and tail and the same final sum, so every value is
//! **bit-identical** to the single-pair kernel; the speed comes only from
//! four independent add chains in flight at once. Rows are walked in
//! blocks of [`BLOCK`] elements — eight chunks of one row, then of the
//! next — which keeps the inner loop a plain two-slice zip the compiler
//! vectorizes, and short enough that out-of-order execution overlaps the
//! four chains.
//!
//! Both run *along* a row and end it with a horizontal reduction of its
//! four lanes, which on a row of eight elements is most of the work. The
//! column kernel ([`l2_squared_cols`]) takes rows stored column-major, a
//! tile of [`COL_TILE`] rows after the other, and runs *across* them: one
//! register holds the same lane of four neighbouring rows, so a row's
//! lanes, tail and final sum are what they were — the same bits — and the
//! reduction is three vertical adds shared by four rows. It is for rows a
//! caller owns and always scans whole (a PQ codebook, k-means centroids);
//! anything addressed row by row stays row-major. [`cols_from_rows`] and
//! [`cols_row`] are the only other code that knows the layout.
//!
//! Results must not depend on the host, so there is no `target_feature`
//! dispatch and no fused multiply-add.

use crate::vector::Dataset;

/// A vector distance metric.
///
/// All three metrics are expressed as *distances* (lower is closer) so that
/// top-k collection logic is uniform:
///
/// * [`Metric::L2`] is the **squared** Euclidean distance (monotonic in the
///   true Euclidean distance, cheaper to compute — the convention used by
///   faiss and DiskANN),
/// * [`Metric::InnerProduct`] is the negated dot product,
/// * [`Metric::Cosine`] is `1 - cosine_similarity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Squared Euclidean distance.
    L2,
    /// Negated inner product (maximum inner product search).
    InnerProduct,
    /// Cosine distance, `1 - cos(a, b)`.
    Cosine,
}

impl Metric {
    /// Computes the distance between two vectors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slices have different lengths.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_squared(a, b),
            Metric::InnerProduct => -dot(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }

    /// Distances from `query` to four rows, each bit-identical to
    /// [`Metric::distance`]. Cosine distance has no batched kernel (it
    /// needs each row's own norm) and scores the four pairs one by one.
    ///
    /// # Panics
    ///
    /// Panics if a row is shorter than `query`, and (in debug builds) if
    /// one is longer.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_x4(&self, query: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        match self {
            Metric::L2 => l2_squared_x4(query, rows),
            Metric::InnerProduct => dot_x4(query, rows).map(|d| -d),
            Metric::Cosine => rows.map(|row| cosine_distance(query, row)),
        }
    }

    /// Distances from `query` to every row of the row-major matrix `rows`
    /// (`query.len()` elements per row), written to `out` in row order.
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or `rows` does not hold exactly
    /// `out.len()` rows.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_rows(&self, query: &[f32], rows: &[f32], out: &mut [f32]) {
        assert_eq!(rows.len(), out.len() * query.len(), "row count mismatch");
        let rows = rows.chunks_exact(query.len());
        match self {
            // Hoisted so short rows (the 8-d sub-vectors k-means++ scans
            // while a PQ trains), where the dispatch on `self` shows, run
            // the bare kernel.
            Metric::L2 => by_fours(rows, out, |group| l2_squared_x4(query, group)),
            _ => by_fours(rows, out, |group| self.distance_x4(query, group)),
        }
    }

    /// Distances from `query` to the rows `ids` of `data` — a graph node's
    /// neighbours, a posting list — replacing the contents of `out`, in
    /// `ids` order.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_gather(&self, query: &[f32], data: &Dataset, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(ids.len(), 0.0);
        by_fours(data.gather(ids), out, |group| {
            self.distance_x4(query, group)
        });
    }

    /// A short lowercase name, as used in configuration files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::L2 => "l2",
            Metric::InnerProduct => "ip",
            Metric::Cosine => "cosine",
        }
    }

    /// Parses a metric from its [`name`](Metric::name).
    pub fn parse(name: &str) -> Option<Metric> {
        match name {
            "l2" => Some(Metric::L2),
            "ip" => Some(Metric::InnerProduct),
            "cosine" => Some(Metric::Cosine),
            _ => None,
        }
    }

    /// The single-byte wire tag used by every binary codec in the workspace
    /// (index artifacts, cache keys).
    pub fn tag(&self) -> u8 {
        match self {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
            Metric::Cosine => 2,
        }
    }

    /// Inverse of [`Metric::tag`].
    pub fn from_tag(tag: u8) -> Option<Metric> {
        match tag {
            0 => Some(Metric::L2),
            1 => Some(Metric::InnerProduct),
            2 => Some(Metric::Cosine),
            _ => None,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Squared Euclidean distance between `a` and `b`.
///
/// # Examples
///
/// ```
/// let d = sann_core::distance::l2_squared(&[0.0, 0.0], &[3.0, 4.0]);
/// assert_eq!(d, 25.0);
/// ```
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "distance between mismatched dims");
    let n = a.len().min(b.len());
    let (a, a_tail) = a.split_at(n).0.as_chunks::<4>();
    let (b, b_tail) = b.split_at(n).0.as_chunks::<4>();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (&[a0, a1, a2, a3], &[b0, b1, b2, b3]) in a.iter().zip(b) {
        let d0 = a0 - b0;
        let d1 = a1 - b1;
        let d2 = a2 - b2;
        let d3 = a3 - b3;
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        tail += d * d;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Dot product of `a` and `b`.
///
/// # Examples
///
/// ```
/// let d = sann_core::distance::dot(&[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(d, 11.0);
/// ```
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot product of mismatched dims");
    let n = a.len().min(b.len());
    let (a, a_tail) = a.split_at(n).0.as_chunks::<4>();
    let (b, b_tail) = b.split_at(n).0.as_chunks::<4>();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (&[a0, a1, a2, a3], &[b0, b1, b2, b3]) in a.iter().zip(b) {
        s0 += a0 * b0;
        s1 += a1 * b1;
        s2 += a2 * b2;
        s3 += a3 * b3;
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Elements of each row the batched kernels consume before moving to the
/// next row: eight 4-lane chunks.
pub const BLOCK: usize = 32;

/// One row's running sums inside a batched kernel: the same four lanes and
/// tail as the single-pair kernels.
#[derive(Clone, Copy, Default)]
struct Lanes {
    s: [f32; 4],
    tail: f32,
}

impl Lanes {
    /// Adds `term(q[j], r[j])` for one block. Only the last block of a row
    /// can leave a remainder, so the tail sees the same elements in the
    /// same order as in the single-pair kernels.
    #[inline(always)]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn feed(&mut self, q: &[f32], r: &[f32], term: impl Fn(f32, f32) -> f32) {
        let (qc, rc) = (q.chunks_exact(4), r.chunks_exact(4));
        let (qt, rt) = (qc.remainder(), rc.remainder());
        for (qv, rv) in qc.zip(rc) {
            for ((s, &x), &y) in self.s.iter_mut().zip(qv).zip(rv) {
                *s += term(x, y);
            }
        }
        for (&x, &y) in qt.iter().zip(rt) {
            self.tail += term(x, y);
        }
    }

    #[inline(always)]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn sum(self) -> f32 {
        let Lanes {
            s: [s0, s1, s2, s3],
            tail,
        } = self;
        s0 + s1 + s2 + s3 + tail
    }
}

/// `sum_j term(query[j], row[j])` for four rows, block by block.
#[inline(always)]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn sum_x4(query: &[f32], rows: [&[f32]; 4], term: impl Fn(f32, f32) -> f32 + Copy) -> [f32; 4] {
    // Cutting every row to the query's length makes a short row panic
    // instead of silently shortening its sum.
    let [r0, r1, r2, r3] = rows.map(|row| {
        debug_assert_eq!(row.len(), query.len(), "distance between mismatched dims");
        row.split_at(query.len()).0
    });
    let mut lanes = [Lanes::default(); 4];
    let blocks = query
        .chunks(BLOCK)
        .zip(r0.chunks(BLOCK))
        .zip(r1.chunks(BLOCK))
        .zip(r2.chunks(BLOCK))
        .zip(r3.chunks(BLOCK));
    for ((((qb, b0), b1), b2), b3) in blocks {
        for (row, block) in lanes.iter_mut().zip([b0, b1, b2, b3]) {
            row.feed(qb, block, term);
        }
    }
    lanes.map(Lanes::sum)
}

/// Squared Euclidean distances from `query` to four rows; each value is
/// bit-identical to [`l2_squared`]`(query, row)`.
///
/// # Panics
///
/// Panics if a row is shorter than `query`, and (in debug builds) if one is
/// longer.
///
/// # Examples
///
/// ```
/// use sann_core::distance::l2_squared_x4;
/// let d = l2_squared_x4(&[0.0, 0.0], [&[3.0, 4.0], &[1.0, 0.0], &[0.0, 0.0], &[0.0, 2.0]]);
/// assert_eq!(d, [25.0, 1.0, 0.0, 4.0]);
/// ```
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn l2_squared_x4(query: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    sum_x4(query, rows, |x, y| {
        let d = x - y;
        d * d
    })
}

/// Dot products of `query` with four rows; each value is bit-identical to
/// [`dot`]`(query, row)`.
///
/// # Panics
///
/// Panics if a row is shorter than `query`, and (in debug builds) if one is
/// longer.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn dot_x4(query: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    sum_x4(query, rows, |x, y| x * y)
}

/// Rows [`l2_squared_cols`] scores together, and the unit of its layout.
/// Each row owns four lanes, so a tile's lanes are `COL_TILE` registers of
/// four rows each; eight is what fits the sixteen of baseline SSE2 beside
/// the query and two temporaries.
pub const COL_TILE: usize = 8;

/// One value per row of a tile: a column of it, or one of its sums.
type Tile = [f32; COL_TILE];

/// Floats the column layout of `n` rows of `dim` elements takes: whole
/// tiles, the last one padded.
pub fn cols_len(n: usize, dim: usize) -> usize {
    n.div_ceil(COL_TILE) * COL_TILE * dim
}

/// Appends the row-major `rows` (`dim` elements each) to `cols` in the
/// layout [`l2_squared_cols`] scans: tiles of [`COL_TILE`] consecutive rows,
/// each tile column-major — element `j` of row `c` is at
/// `(c / COL_TILE) * COL_TILE * dim + j * COL_TILE + c % COL_TILE` — and the
/// rows missing from the last tile zero. A tile is contiguous, so a scan
/// reads memory front to back whatever `dim` and the row count are.
///
/// # Panics
///
/// Panics if `dim` is zero or `rows` is not whole rows.
pub fn cols_from_rows(rows: &[f32], dim: usize, cols: &mut Vec<f32>) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(rows.len() % dim, 0, "row count mismatch");
    let start = cols.len();
    cols.resize(start + cols_len(rows.len() / dim, dim), 0.0);
    let tiles = cols.split_at_mut(start).1.chunks_exact_mut(COL_TILE * dim);
    for (tile, rows) in tiles.zip(rows.chunks(COL_TILE * dim)) {
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            for (x, col) in row.iter().zip(tile.chunks_exact_mut(COL_TILE)) {
                col[c] = *x;
            }
        }
    }
}

/// Row `c` of a column layout of `dim`-element rows, element by element.
///
/// # Panics
///
/// Panics if `cols` has no tile holding row `c`.
pub fn cols_row(cols: &[f32], dim: usize, c: usize) -> impl Iterator<Item = f32> + '_ {
    let tile = &cols[c / COL_TILE * COL_TILE * dim..][..COL_TILE * dim];
    tile.iter().skip(c % COL_TILE).step_by(COL_TILE).copied()
}

/// Adds `(q - x)^2` to the sum of every row of a tile, for one column.
#[inline(always)]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn feed_col(sums: &mut Tile, q: f32, col: &Tile) {
    for (s, &x) in sums.iter_mut().zip(col) {
        let d = q - x;
        *s += d * d;
    }
}

/// Distances from `query` to the rows of one tile. The query is walked four
/// elements at a time, so the lane an element feeds is fixed in the code and
/// the sums stay in registers.
#[inline(always)]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn cols_tile(query: &[f32], tile: &[f32]) -> Tile {
    let mut lanes = [[0.0f32; COL_TILE]; 4];
    let mut tail = [0.0f32; COL_TILE];
    let mut columns = tile.as_chunks::<COL_TILE>().0.iter();
    let quads = query.chunks_exact(4);
    let rest = quads.remainder();
    for quad in quads {
        for ((lane, &q), col) in lanes.iter_mut().zip(quad).zip(&mut columns) {
            feed_col(lane, q, col);
        }
    }
    for (&q, col) in rest.iter().zip(columns) {
        feed_col(&mut tail, q, col);
    }
    let [s0, s1, s2, s3] = lanes;
    let mut out = [0.0f32; COL_TILE];
    let sums = s0.iter().zip(s1).zip(s2).zip(s3).zip(tail);
    for (slot, ((((a, b), c), d), t)) in out.iter_mut().zip(sums) {
        *slot = a + b + c + d + t;
    }
    out
}

/// [`cols_tile`] for the padded last tile. Out of line: inlined a second
/// time into [`l2_squared_cols`], the tile loop spills its sums and the
/// last tile takes twice as long.
#[inline(never)]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn cols_last_tile(query: &[f32], tile: &[f32]) -> Tile {
    cols_tile(query, tile)
}

/// Squared Euclidean distances from `query` to the `out.len()` rows stored
/// in `cols` in the column layout of [`cols_from_rows`], written to `out` in
/// row order; each value is bit-identical to [`l2_squared`]`(query, row)`.
///
/// Where the row-major kernels run along a row and then reduce its four
/// lanes horizontally, this one runs across rows: four neighbouring rows
/// fill one register, every row still owns lanes `j % 4` and a tail, and
/// the `s0 + s1 + s2 + s3 + tail` reduction is three vertical adds. On rows
/// of a few elements — the 8-element sub-vectors of a PQ codebook — the
/// horizontal reduction is most of the row-major cost.
///
/// # Panics
///
/// Panics if `query` is empty or `cols` is not the layout of exactly
/// `out.len()` rows of `query.len()` elements.
///
/// # Examples
///
/// ```
/// use sann_core::distance::{cols_from_rows, l2_squared_cols};
/// let mut cols = Vec::new();
/// cols_from_rows(&[3.0, 4.0, 1.0, 0.0, 0.0, 2.0], 2, &mut cols);
/// let mut out = [0.0; 3];
/// l2_squared_cols(&[0.0, 0.0], &cols, &mut out);
/// assert_eq!(out, [25.0, 1.0, 4.0]);
/// ```
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn l2_squared_cols(query: &[f32], cols: &[f32], out: &mut [f32]) {
    assert!(!query.is_empty(), "empty query");
    assert_eq!(
        cols.len(),
        cols_len(out.len(), query.len()),
        "row count mismatch"
    );
    let mut tiles = cols.chunks_exact(COL_TILE * query.len());
    let (full, rest) = out.as_chunks_mut::<COL_TILE>();
    for (slots, tile) in full.iter_mut().zip(&mut tiles) {
        *slots = cols_tile(query, tile);
    }
    if let Some(tile) = tiles.next() {
        // The padding's sums are computed and dropped.
        for (slot, dist) in rest.iter_mut().zip(cols_last_tile(query, tile)) {
            *slot = dist;
        }
    }
}

/// Drives a four-at-a-time `kernel` over `items`, writing one result per
/// item to `out`. A final group of one to three items is padded by
/// repeating its last item and the surplus results are dropped: on data
/// already in cache the repeats cost less than leaving the batched kernel
/// for latency-bound single-pair calls.
#[inline(always)]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn by_fours<T: Copy>(
    mut items: impl Iterator<Item = T>,
    out: &mut [f32],
    kernel: impl Fn([T; 4]) -> [f32; 4],
) {
    for slots in out.chunks_mut(4) {
        let Some(a) = items.next() else {
            debug_assert!(false, "fewer items than output slots");
            return;
        };
        let b = items.next().unwrap_or(a);
        let c = items.next().unwrap_or(b);
        let d = items.next().unwrap_or(c);
        for (slot, dist) in slots.iter_mut().zip(kernel([a, b, c, d])) {
            *slot = dist;
        }
    }
}

/// Euclidean norm of `v`.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Cosine distance `1 - cos(a, b)`.
///
/// Returns `1.0` (orthogonal) when either vector has zero norm, so the
/// function is total.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Normalizes `v` to unit length in place. Zero vectors are left unchanged.
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The single-pair kernels as they were written before they dropped
    /// indexing: the values they must keep, bit for bit.
    fn indexed_lanes(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
        let n = a.len().min(b.len());
        let mut s = [0.0f32; 4];
        for i in 0..n / 4 {
            for (l, lane) in s.iter_mut().enumerate() {
                *lane += term(a[4 * i + l], b[4 * i + l]);
            }
        }
        let mut tail = 0.0f32;
        for j in n / 4 * 4..n {
            tail += term(a[j], b[j]);
        }
        s[0] + s[1] + s[2] + s[3] + tail
    }

    fn l2_term(x: f32, y: f32) -> f32 {
        (x - y) * (x - y)
    }

    #[test]
    fn l2_matches_naive_for_odd_lengths() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 768] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (n - i) as f32 * 0.25).collect();
            let fast = l2_squared(&a, &b);
            let naive = naive_l2(&a, &b);
            assert!(
                (fast - naive).abs() < 1e-3 * naive.max(1.0),
                "n={n}: {fast} vs {naive}"
            );
        }
        for dim in identity_dims() {
            let rows = random_rows(2, dim, dim as u64);
            let (a, b) = (rows.row(0), rows.row(1));
            let want = indexed_lanes(a, b, l2_term).to_bits();
            assert_eq!(l2_squared(a, b).to_bits(), want, "{dim}-d");
        }
    }

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        for n in [1usize, 3, 6, 9, 1536] {
            let a: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i % 5) as f32 - 2.0).collect();
            let fast = dot(&a, &b);
            let naive = naive_dot(&a, &b);
            assert!((fast - naive).abs() < 1e-3 * naive.abs().max(1.0));
        }
        for dim in identity_dims() {
            let rows = random_rows(2, dim, dim as u64);
            let (a, b) = (rows.row(0), rows.row(1));
            let want = indexed_lanes(a, b, |x, y| x * y).to_bits();
            assert_eq!(dot(a, b).to_bits(), want, "{dim}-d");
        }
    }

    /// Every dimension below 40 (all tail lengths, with and without a full
    /// block) plus the embedding sizes and their odd neighbours.
    fn identity_dims() -> impl Iterator<Item = usize> {
        (1..=40).chain([96, 128, 767, 768, 1536])
    }

    fn random_rows(rows: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let flat = (0..rows * dim).map(|_| rng.next_f32() - 0.5).collect();
        Dataset::from_flat(flat, dim).unwrap()
    }

    fn bits(dists: &[f32]) -> Vec<u32> {
        dists.iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    fn batched_forms_are_bit_identical_to_single_pairs() {
        // Group sizes 0..=9 cover the empty call, every padded remainder
        // (1, 2, 3 rows) alone and after full groups, and full groups only.
        for dim in identity_dims() {
            let data = random_rows(9, dim, dim as u64);
            let query = random_rows(1, dim, 1_000 + dim as u64);
            let query = query.row(0);
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                for group in 0..=9usize {
                    // Not in storage order, so a gather cannot pass by
                    // scoring rows 0..group.
                    let ids: Vec<u32> = (0..group).map(|i| ((i * 4 + 2) % 9) as u32).collect();
                    let want: Vec<f32> = ids
                        .iter()
                        .map(|&id| metric.distance(query, data.row(id as usize)))
                        .collect();
                    let mut got = vec![f32::NAN; 3];
                    metric.distance_gather(query, &data, &ids, &mut got);
                    assert_eq!(bits(&got), bits(&want), "gather {metric} {dim}-d x{group}");

                    let flat = &data.as_flat()[..group * dim];
                    let want: Vec<f32> = flat
                        .chunks_exact(dim)
                        .map(|row| metric.distance(query, row))
                        .collect();
                    let mut got = vec![f32::NAN; group];
                    metric.distance_rows(query, flat, &mut got);
                    assert_eq!(bits(&got), bits(&want), "rows {metric} {dim}-d x{group}");
                }
                let rows = [data.row(8), data.row(0), data.row(8), data.row(3)];
                assert_eq!(
                    bits(&metric.distance_x4(query, rows)),
                    bits(&rows.map(|row| metric.distance(query, row))),
                    "x4 {metric} {dim}-d"
                );
            }
        }
    }

    #[test]
    fn column_kernel_is_bit_identical_to_single_pairs() {
        // Row counts: none, a padded tile alone, exactly one tile, and a
        // padded tile after one and after two full ones.
        let counts = [0, 1, COL_TILE - 1, COL_TILE, COL_TILE + 1, 2 * COL_TILE + 3];
        for dim in (1..=40).chain([96, 768]) {
            let data = random_rows(2 * COL_TILE + 3, dim, dim as u64);
            let query = random_rows(1, dim, 2_000 + dim as u64);
            let query = query.row(0);
            for n in counts {
                let rows = &data.as_flat()[..n * dim];
                let mut cols = Vec::new();
                cols_from_rows(rows, dim, &mut cols);
                assert_eq!(cols.len(), cols_len(n, dim));
                let want: Vec<f32> = data.iter().take(n).map(|r| l2_squared(query, r)).collect();
                let mut got = vec![f32::NAN; n];
                l2_squared_cols(query, &cols, &mut got);
                assert_eq!(bits(&got), bits(&want), "cols {dim}-d x{n}");
                // The layout gives every row back, and appends.
                for (c, row) in rows.chunks_exact(dim).enumerate() {
                    assert!(cols_row(&cols, dim, c).eq(row.iter().copied()));
                }
                cols_from_rows(rows, dim, &mut cols);
                assert_eq!(cols[..cols_len(n, dim)], cols[cols_len(n, dim)..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn column_kernel_rejects_a_missing_tile() {
        l2_squared_cols(&[0.0; 3], &[0.0; 3 * COL_TILE], &mut [0.0; COL_TILE + 1]);
    }

    #[test]
    #[should_panic]
    fn batched_kernel_rejects_a_short_row() {
        let q = [1.0f32; 8];
        let short = [1.0f32; 7];
        l2_squared_x4(&q, [&q, &q, &short, &q]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mismatched dims")]
    fn single_kernel_rejects_mismatched_lengths_in_debug() {
        l2_squared(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    fn metric_l2_is_squared() {
        assert_eq!(Metric::L2.distance(&[0.0], &[2.0]), 4.0);
    }

    #[test]
    fn metric_ip_is_negated() {
        assert_eq!(
            Metric::InnerProduct.distance(&[1.0, 1.0], &[2.0, 3.0]),
            -5.0
        );
    }

    #[test]
    fn cosine_identity_and_orthogonal() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((Metric::Cosine.distance(&a, &a)).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_total() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn metric_name_round_trips() {
        for m in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            assert_eq!(Metric::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(Metric::parse("hamming"), None);
    }
}
