//! Scalar quantization: per-dimension affine mapping of `f32` to `u8`.
//!
//! This is the compression LanceDB applies to its HNSW index in the paper's
//! setup ("HNSW index with scalar quantization", §III-C). Each dimension is
//! independently mapped onto `[0, 255]` using the training min/max.

use sann_core::{cast, Dataset, Error, Result};

/// A trained scalar quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarQuantizer {
    min: Vec<f32>,
    /// Per-dimension scale `(max - min) / 255`, zero for constant dimensions.
    scale: Vec<f32>,
}

impl ScalarQuantizer {
    /// Trains on `data` by recording per-dimension extrema.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `data` has no rows.
    pub fn train(data: &Dataset) -> Result<ScalarQuantizer> {
        if data.is_empty() {
            return Err(Error::Empty("dataset"));
        }
        let dim = data.dim();
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for row in data.iter() {
            for ((mn, mx), &x) in min.iter_mut().zip(max.iter_mut()).zip(row) {
                *mn = mn.min(x);
                *mx = mx.max(x);
            }
        }
        let scale = min
            .iter()
            .zip(&max)
            .map(|(&mn, &mx)| (mx - mn) / 255.0)
            .collect();
        Ok(ScalarQuantizer { min, scale })
    }

    /// Dimensionality of input vectors.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Quantizes a vector to one byte per dimension. Values outside the
    /// training range are clamped.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim(), "encode dimension mismatch");
        v.iter()
            .zip(&self.min)
            .zip(&self.scale)
            .map(|((&x, &mn), &s)| {
                if s == 0.0 {
                    0
                } else {
                    cast::u8_saturating_from_f32(((x - mn) / s).round())
                }
            })
            .collect()
    }

    /// Reconstructs the approximate vector for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.dim()`.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.dim(), "decode length mismatch");
        code.iter()
            .zip(&self.min)
            .zip(&self.scale)
            .map(|((&c, &mn), &s)| mn + c as f32 * s)
            .collect()
    }

    /// Appends the canonical little-endian encoding (per-dimension min and
    /// scale) to `buf`.
    pub fn encode_into(&self, buf: &mut sann_core::buf::ByteWriter) {
        buf.put_count_u32(self.min.len());
        buf.put_f32s(self.min.iter().chain(&self.scale).copied());
    }

    /// Reads a quantizer previously written by
    /// [`ScalarQuantizer::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or a zero dimension.
    pub fn decode_from(r: &mut sann_core::buf::ByteReader<'_>) -> Result<ScalarQuantizer> {
        // Each dimension has a min and a scale.
        let dim = r.get_count_u32("sq tables", 8)?;
        if dim == 0 {
            return Err(Error::Corrupt("sq: zero dimension".into()));
        }
        let min = r.get_f32s(dim)?.collect();
        let scale = r.get_f32s(dim)?.collect();
        Ok(ScalarQuantizer { min, scale })
    }

    /// Approximate squared L2 distance between a full-precision query and an
    /// encoded vector (asymmetric: the query is not quantized).
    pub fn distance(&self, query: &[f32], code: &[u8]) -> f32 {
        let mut d = 0.0f32;
        for ((&q, &c), (&mn, &s)) in query.iter().zip(code).zip(self.min.iter().zip(&self.scale)) {
            let x = mn + c as f32 * s;
            let diff = q - x;
            d += diff * diff;
        }
        d
    }

    /// Distances from `query` to four codes, each bit-identical to
    /// [`ScalarQuantizer::distance`]: every code keeps its own running sum
    /// in dimension order, and the four sums advance together so their add
    /// chains overlap.
    #[inline]
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn distance_x4(&self, query: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        let [c0, c1, c2, c3] = codes;
        let mut d = [0.0f32; 4];
        let dims = query.iter().zip(&self.min).zip(&self.scale);
        for ((((((&q, &mn), &s), &a), &b), &c), &e) in dims.zip(c0).zip(c1).zip(c2).zip(c3) {
            for (sum, byte) in d.iter_mut().zip([a, b, c, e]) {
                let diff = q - (mn + f32::from(byte) * s);
                *sum += diff * diff;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::distance::l2_squared;
    use sann_datagen::EmbeddingModel;

    #[test]
    fn round_trip_error_is_small() {
        let data = EmbeddingModel::new(16, 2, 3).generate(200);
        let sq = ScalarQuantizer::train(&data).unwrap();
        for row in data.iter().take(50) {
            let rec = sq.decode(&sq.encode(row));
            assert!(l2_squared(row, &rec) < 1e-3);
        }
    }

    #[test]
    fn constant_dimension_is_handled() {
        let data = Dataset::from_rows(vec![vec![1.0, 5.0], vec![1.0, 7.0]]).unwrap();
        let sq = ScalarQuantizer::train(&data).unwrap();
        let code = sq.encode(&[1.0, 6.0]);
        let rec = sq.decode(&code);
        assert_eq!(rec[0], 1.0);
        assert!((rec[1] - 6.0).abs() < 0.05);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        let sq = ScalarQuantizer::train(&data).unwrap();
        assert_eq!(sq.encode(&[-5.0]), vec![0]);
        assert_eq!(sq.encode(&[99.0]), vec![255]);
    }

    #[test]
    fn asymmetric_distance_tracks_true_distance() {
        let data = EmbeddingModel::new(16, 2, 4).generate(100);
        let sq = ScalarQuantizer::train(&data).unwrap();
        let q = data.row(0);
        for row in data.iter().take(30) {
            let approx = sq.distance(q, &sq.encode(row));
            let true_d = l2_squared(q, row);
            assert!((approx - true_d).abs() < 0.05 * (true_d + 0.1));
        }
    }

    #[test]
    fn batched_distance_is_bit_identical_to_single_codes() {
        // Group sizes 0..=9 through `by_fours`: the empty call, every padded
        // remainder alone and after full groups, and full groups only.
        let data = EmbeddingModel::new(37, 2, 4).generate(9);
        let sq = ScalarQuantizer::train(&data).unwrap();
        let codes: Vec<Vec<u8>> = data.iter().map(|row| sq.encode(row)).collect();
        let q = EmbeddingModel::new(37, 2, 5).generate(1);
        let q = q.row(0);
        for group in 0..=9usize {
            let picked = (0..group).map(|i| codes[(i * 4 + 2) % 9].as_slice());
            let want: Vec<u32> = picked
                .clone()
                .map(|c| sq.distance(q, c).to_bits())
                .collect();
            let mut got = vec![f32::NAN; group];
            sann_core::distance::by_fours(picked, &mut got, |four| sq.distance_x4(q, four));
            let got: Vec<u32> = got.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, want, "x{group}");
        }
    }

    #[test]
    fn rejects_empty_training_set() {
        let data = Dataset::with_dim(4);
        assert!(ScalarQuantizer::train(&data).is_err());
    }

    #[test]
    fn codec_round_trips_bit_exact() {
        let data = EmbeddingModel::new(16, 2, 5).generate(80);
        let sq = ScalarQuantizer::train(&data).unwrap();
        let mut w = sann_core::buf::ByteWriter::new();
        sq.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = sann_core::buf::ByteReader::new(&bytes, "test");
        let back = ScalarQuantizer::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, sq);
        let mut r = sann_core::buf::ByteReader::new(&bytes[..bytes.len() - 3], "test");
        assert!(ScalarQuantizer::decode_from(&mut r).is_err());
        // 2^32 - 1 dimensions: refused before anything is sized by them.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = sann_core::buf::ByteReader::new(&huge, "test");
        assert!(matches!(
            ScalarQuantizer::decode_from(&mut r),
            Err(Error::Corrupt(_))
        ));
    }
}
