//! Dense vector storage.

use crate::error::{Error, Result};
use std::sync::Arc;

/// A dense, row-major matrix of `f32` vectors.
///
/// `Dataset` is the universal carrier of base vectors and query vectors in the
/// workspace: generators produce it, indexes are built from it, and ground
/// truth is computed against it. Rows are contiguous so that distance kernels
/// operate on plain slices.
///
/// The rows are shared: a clone holds the same buffer, so an index built
/// from a dataset keeps no second copy of its vectors. [`Dataset::push`]
/// copies the buffer first when another clone still holds it
/// (copy-on-write), so no clone ever sees another's rows change.
///
/// # Examples
///
/// ```
/// use sann_core::Dataset;
///
/// let mut d = Dataset::with_dim(3);
/// d.push(&[1.0, 2.0, 3.0]).unwrap();
/// d.push(&[4.0, 5.0, 6.0]).unwrap();
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Arc<Vec<f32>>,
    dim: usize,
}

impl Dataset {
    /// Creates an empty dataset that will hold vectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn with_dim(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Dataset {
            data: Arc::default(),
            dim,
        }
    }

    /// Creates a dataset from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `data.len()` is not a multiple
    /// of `dim`, or if `dim` is zero.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::invalid_parameter("dim", "must be positive"));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::invalid_parameter(
                "data",
                format!("length {} is not a multiple of dim {}", data.len(), dim),
            ));
        }
        Ok(Dataset {
            data: Arc::new(data),
            dim,
        })
    }

    /// Creates a dataset from a list of rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `rows` is empty and
    /// [`Error::DimensionMismatch`] when rows disagree on length.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        let first = rows.first().ok_or(Error::Empty("rows"))?;
        let dim = first.len();
        if dim == 0 {
            return Err(Error::invalid_parameter("rows", "rows must be non-empty"));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Dataset {
            data: Arc::new(data),
            dim,
        })
    }

    /// Appends one vector, first copying the rows if another clone shares
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        Arc::make_mut(&mut self.data).extend_from_slice(row);
        Ok(())
    }

    /// The dimensionality of every vector in the dataset.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The rows `ids`, in `ids` order: a graph node's neighbours, a
    /// posting list. The buffer is looked up once for all of them, not once
    /// per row as [`Dataset::row`] does.
    ///
    /// # Panics
    ///
    /// The iterator panics on an id `>= self.len()`.
    #[inline]
    pub fn gather<'a>(&'a self, ids: &'a [u32]) -> impl Iterator<Item = &'a [f32]> + 'a {
        let (flat, dim) = (self.as_flat(), self.dim);
        ids.iter().map(move |&id| {
            let at = id as usize * dim;
            &flat[at..at + dim]
        })
    }

    /// Borrow row `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<&[f32]> {
        if i < self.len() {
            Some(self.row(i))
        } else {
            None
        }
    }

    /// Iterate over rows in id order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            dim: self.dim,
            front: 0,
            back: self.data.len() / self.dim,
        }
    }

    /// The underlying flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Returns a new dataset containing the first `n` rows (or all rows, on
    /// the same buffer, if `n >= self.len()`).
    pub fn truncated(&self, n: usize) -> Dataset {
        if n >= self.len() {
            return self.clone();
        }
        Dataset {
            data: Arc::new(self.data[..n * self.dim].to_vec()),
            dim: self.dim,
        }
    }

    /// Bytes needed to store one full-precision vector.
    pub fn row_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    /// Appends the canonical little-endian encoding (`dim`, `n`, then the
    /// flat row-major `f32` bit patterns) to `buf`. Two datasets encode to
    /// the same bytes iff they are bit-identical, so this doubles as a
    /// fingerprintable form for artifact-cache keys.
    pub fn encode_into(&self, buf: &mut crate::buf::ByteWriter) {
        buf.put_count_u32(self.dim);
        buf.put_count_u64(self.len());
        buf.put_f32s(self.data.iter().copied());
    }

    /// Reads a dataset previously written by [`Dataset::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or a zero dimension.
    pub fn decode_from(r: &mut crate::buf::ByteReader<'_>) -> Result<Dataset> {
        Dataset::decode_onto(r, None)
    }

    /// Like [`Dataset::decode_from`], but when the encoded rows are
    /// bit-identical to `base`'s, returns a clone of `base` that shares its
    /// buffer instead of a copy. The rows are compared as they sit in the
    /// encoded bytes, before anything is allocated.
    ///
    /// # Errors
    ///
    /// As [`Dataset::decode_from`].
    pub fn decode_onto(
        r: &mut crate::buf::ByteReader<'_>,
        base: Option<&Dataset>,
    ) -> Result<Dataset> {
        let dim = r.get_count_u32("dataset dim", 0)?;
        let row_bytes = dim.saturating_mul(std::mem::size_of::<f32>());
        let n = r.get_count_u64("dataset rows", row_bytes)?;
        if dim == 0 {
            return Err(Error::Corrupt("dataset: zero dimension".into()));
        }
        let rows = r.get_f32s(n * dim)?;
        let same = |b: &&Dataset| {
            b.dim == dim
                && b.data.len() == rows.len()
                && b.data
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(rows.clone().map(f32::to_bits))
        };
        if let Some(base) = base.filter(same) {
            return Ok(base.clone());
        }
        Ok(Dataset {
            data: Arc::new(rows.collect()),
            dim,
        })
    }
}

/// Iterator over the rows of a [`Dataset`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    data: &'a [f32],
    dim: usize,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<&'a [f32]> {
        if self.front == self.back {
            return None;
        }
        let row = &self.data[self.front * self.dim..(self.front + 1) * self.dim];
        self.front += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.back - self.front;
        (rem, Some(rem))
    }
}

impl DoubleEndedIterator for Rows<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        Some(&self.data[self.back * self.dim..(self.back + 1) * self.dim])
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a [f32];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let d = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(0), &[1.0, 2.0]);
        assert_eq!(d.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert_eq!(
            err,
            Error::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(Dataset::from_rows(vec![]), Err(Error::Empty(_))));
    }

    #[test]
    fn from_flat_validates_multiple() {
        assert!(Dataset::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        let d = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn push_checks_dim() {
        let mut d = Dataset::with_dim(3);
        assert!(d.push(&[1.0, 2.0]).is_err());
        assert!(d.push(&[1.0, 2.0, 3.0]).is_ok());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn get_is_checked() {
        let d = Dataset::from_rows(vec![vec![1.0]]).unwrap();
        assert!(d.get(0).is_some());
        assert!(d.get(1).is_none());
    }

    #[test]
    fn iter_visits_all_rows_in_order() {
        let d = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let ids: Vec<f32> = d.iter().map(|r| r[0]).collect();
        assert_eq!(ids, vec![0.0, 1.0, 2.0]);
        assert_eq!(d.iter().len(), 3);
    }

    #[test]
    fn iter_double_ended() {
        let d = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let ids: Vec<f32> = d.iter().rev().map(|r| r[0]).collect();
        assert_eq!(ids, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn gather_yields_the_rows_named() {
        let d = Dataset::from_rows(vec![vec![0.0, 0.5], vec![1.0, 1.5], vec![2.0, 2.5]]).unwrap();
        let rows: Vec<&[f32]> = d.gather(&[2, 0, 2]).collect();
        assert_eq!(rows, [d.row(2), d.row(0), d.row(2)]);
        assert_eq!(d.gather(&[]).count(), 0);
    }

    #[test]
    #[should_panic]
    fn gather_panics_on_an_id_out_of_range() {
        let d = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        d.gather(&[1, 2]).for_each(drop);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let d = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let t = d.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1), &[1.0]);
        assert_eq!(d.truncated(99).len(), 3);
    }

    #[test]
    fn row_bytes_counts_f32() {
        let d = Dataset::with_dim(768);
        assert_eq!(d.row_bytes(), 3072);
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let d = Dataset::from_rows(vec![vec![1.5, -0.0], vec![f32::MIN_POSITIVE, 3e9]]).unwrap();
        let mut w = crate::buf::ByteWriter::new();
        d.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::buf::ByteReader::new(&bytes, "test");
        let back = Dataset::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.dim(), 2);
        assert_eq!(back.as_flat(), d.as_flat());
        // -0.0 survives as a bit pattern.
        assert!(back.row(0)[1].is_sign_negative());
    }

    fn shares(a: &Dataset, b: &Dataset) -> bool {
        a.as_flat().as_ptr() == b.as_flat().as_ptr()
    }

    #[test]
    fn clones_share_rows_until_one_pushes() {
        let d = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut c = d.clone();
        assert!(shares(&c, &d));
        assert_eq!(c, d);
        c.push(&[5.0, 6.0]).unwrap();
        assert!(!shares(&c, &d), "a push copies a shared buffer first");
        assert_eq!(d.len(), 2);
        assert_eq!(d.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.row(2), &[5.0, 6.0]);
        assert_ne!(c, d);
    }

    #[test]
    fn sharing_changes_no_equality_encoding_or_truncation() {
        let d = Dataset::from_rows(vec![vec![1.5, -0.0], vec![2.5, 3.5]]).unwrap();
        let copy = Dataset::from_flat(d.as_flat().to_vec(), 2).unwrap();
        assert!(!shares(&copy, &d));
        assert_eq!(copy, d, "equality compares rows, not buffers");
        let encode = |d: &Dataset| {
            let mut w = crate::buf::ByteWriter::new();
            d.encode_into(&mut w);
            w.into_bytes()
        };
        assert_eq!(encode(&d.clone()), encode(&copy));
        let whole = d.truncated(2);
        assert!(shares(&whole, &d), "all rows: the same buffer");
        let prefix = d.truncated(1);
        assert_eq!(prefix.as_flat(), &[1.5, -0.0]);
        assert!(!shares(&prefix, &d));
    }

    /// `d` encoded, and decoded with `base` as the hint.
    fn decode_onto(d: &Dataset, base: &Dataset) -> Dataset {
        let mut w = crate::buf::ByteWriter::new();
        d.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::buf::ByteReader::new(&bytes, "test");
        let back = Dataset::decode_onto(&mut r, Some(base)).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn decode_onto_shares_only_bit_identical_rows() {
        let base = Dataset::from_rows(vec![vec![1.5, 0.0], vec![2.5, 3.5]]).unwrap();
        let back = decode_onto(&base, &base);
        assert!(shares(&back, &base));
        // 0.0 and -0.0 compare equal as floats, but not as bits.
        let mut flat = base.as_flat().to_vec();
        flat[1] = -0.0;
        let signed = Dataset::from_flat(flat, 2).unwrap();
        let reshaped = Dataset::from_flat(base.as_flat().to_vec(), 1).unwrap();
        let shorter = base.truncated(1);
        for other in [signed, reshaped, shorter] {
            let back = decode_onto(&other, &base);
            assert!(!shares(&back, &base));
            assert_eq!(back.dim(), other.dim());
            let bits = |d: &Dataset| d.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&other));
        }
    }

    #[test]
    fn codec_rejects_truncation() {
        let d = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        let mut w = crate::buf::ByteWriter::new();
        d.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::buf::ByteReader::new(&bytes[..bytes.len() - 1], "test");
        assert!(matches!(
            Dataset::decode_from(&mut r),
            Err(Error::Corrupt(_))
        ));
        // 2^62 rows: refused before anything is sized by the count.
        let mut huge = bytes.clone();
        huge[4..12].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let mut r = crate::buf::ByteReader::new(&huge, "test");
        assert!(matches!(
            Dataset::decode_from(&mut r),
            Err(Error::Corrupt(_))
        ));
    }
}
