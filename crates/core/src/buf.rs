//! Little-endian byte encoding and decoding.
//!
//! Used by the persisted dataset, model and index frames the artifact cache
//! stores, and by the canonical metric fingerprints the determinism audit
//! compares byte-for-byte. Everything is explicit little-endian so
//! encodings are identical across platforms.
//!
//! A frame states how many items follow with a count prefix, `u32` or
//! `u64` as its layout fixes. [`ByteReader::get_count_u32`] and
//! [`ByteReader::get_count_u64`] are the one way to read one: a count whose
//! items cannot fit in the bytes left is [`Error::Corrupt`] before anything
//! is sized by it, so a stale or hostile frame never drives an allocation.

use crate::cast;
use crate::error::{Error, Result};

/// Append-only little-endian encoder over a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    bytes: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32` bit pattern.
    pub fn put_f32_le(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64` bit pattern.
    pub fn put_f64_le(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` count prefix, read back by
    /// [`ByteReader::get_count_u32`].
    pub fn put_count_u32(&mut self, n: usize) {
        self.put_u32_le(cast::u32_from_usize(n));
    }

    /// Appends a `u64` count prefix, read back by
    /// [`ByteReader::get_count_u64`].
    pub fn put_count_u64(&mut self, n: usize) {
        self.put_u64_le(cast::u64_from_usize(n));
    }

    /// Appends little-endian `u32`s, with no prefix.
    pub fn put_u32s(&mut self, xs: impl IntoIterator<Item = u32>) {
        for x in xs {
            self.put_u32_le(x);
        }
    }

    /// Appends little-endian `u64`s, with no prefix.
    pub fn put_u64s(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.put_u64_le(x);
        }
    }

    /// Appends little-endian `f32` bit patterns, with no prefix.
    pub fn put_f32s(&mut self, xs: impl IntoIterator<Item = f32>) {
        for x in xs {
            self.put_f32_le(x);
        }
    }

    /// Appends little-endian `f64` bit patterns, with no prefix.
    pub fn put_f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.put_f64_le(x);
        }
    }

    /// Appends a `u32` length prefix followed by the UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_count_u32(s.len());
        self.put_slice(s.as_bytes());
    }
}

/// Cursor-style little-endian decoder over a byte slice.
///
/// Every getter checks bounds and returns [`Error::Corrupt`] on truncation,
/// tagged with the reader's `context` string.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `data`; `context` prefixes error messages.
    pub fn new(data: &'a [u8], context: &'static str) -> ByteReader<'a> {
        ByteReader { data, context }
    }

    /// The unconsumed tail.
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    fn corrupt(&self, what: &str) -> Error {
        Error::Corrupt(format!("{}: {what}", self.context))
    }

    /// The end-of-frame check: every byte was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if any bytes remain.
    pub fn finish(&self) -> Result<()> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes"))
        }
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(self.corrupt("truncated"));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, tail) = self
            .data
            .split_first_chunk()
            .ok_or_else(|| self.corrupt("truncated"))?;
        self.data = tail;
        Ok(*head)
    }

    /// Consumes `n` items of `N` bytes each.
    fn arrays<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]]> {
        let bytes = n.checked_mul(N).ok_or_else(|| self.corrupt("truncated"))?;
        Ok(self.take(bytes)?.as_chunks().0)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation.
    pub fn get_u32_le(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation.
    pub fn get_u64_le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation.
    pub fn get_f32_le(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation.
    pub fn get_f64_le(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a `u32` count of items that each take at least
    /// `min_item_bytes` of what follows. `field` names the frame and field
    /// for the error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, or when `count ×
    /// min_item_bytes` exceeds the bytes left.
    pub fn get_count_u32(&mut self, field: &str, min_item_bytes: usize) -> Result<usize> {
        let n = self.get_u32_le()?;
        self.count(u64::from(n), field, min_item_bytes)
    }

    /// Reads a `u64` count; otherwise as [`ByteReader::get_count_u32`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, or when `count ×
    /// min_item_bytes` exceeds the bytes left.
    pub fn get_count_u64(&mut self, field: &str, min_item_bytes: usize) -> Result<usize> {
        let n = self.get_u64_le()?;
        self.count(n, field, min_item_bytes)
    }

    fn count(&self, n: u64, field: &str, min_item_bytes: usize) -> Result<usize> {
        usize::try_from(n)
            .ok()
            .filter(|&n| {
                n.checked_mul(min_item_bytes)
                    .is_some_and(|bytes| bytes <= self.data.len())
            })
            .ok_or_else(|| {
                self.corrupt(&format!(
                    "{field}: {n} items of at least {min_item_bytes} bytes exceed the {} bytes left",
                    self.data.len()
                ))
            })
    }

    /// Reads `n` little-endian `u32`s, decoded straight from the borrowed
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if fewer than `4 × n` bytes remain.
    pub fn get_u32s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = u32> + 'a> {
        Ok(self.arrays(n)?.iter().map(|&b| u32::from_le_bytes(b)))
    }

    /// Reads `n` little-endian `f32`s, decoded straight from the borrowed
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if fewer than `4 × n` bytes remain.
    pub fn get_f32s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = f32> + Clone + 'a> {
        Ok(self.arrays(n)?.iter().map(|&b| f32::from_le_bytes(b)))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_count_u32("string", 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid utf-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        w.put_f32_le(1.5);
        w.put_f64_le(-0.25);
        w.put_str("héllo");
        w.put_count_u32(2);
        w.put_u32s([9, u32::MAX]);
        w.put_count_u64(3);
        w.put_f32s([-0.0, f32::MIN_POSITIVE, 3e9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32_le().unwrap(), 1.5);
        assert_eq!(r.get_f64_le().unwrap(), -0.25);
        assert_eq!(r.get_str().unwrap(), "héllo");
        let n = r.get_count_u32("test u32s", 4).unwrap();
        assert!(r.get_u32s(n).unwrap().eq([9, u32::MAX]));
        let n = r.get_count_u64("test f32s", 4).unwrap();
        let floats: Vec<u32> = r.get_f32s(n).unwrap().map(f32::to_bits).collect();
        assert_eq!(
            floats,
            [
                (-0.0f32).to_bits(),
                f32::MIN_POSITIVE.to_bits(),
                3e9f32.to_bits()
            ]
        );
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_corrupt_with_context() {
        let mut r = ByteReader::new(&[1, 2], "frame");
        match r.get_u32_le() {
            Err(Error::Corrupt(msg)) => assert!(msg.starts_with("frame:")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(matches!(r.get_f32s(1), Err(Error::Corrupt(_))));
        assert!(matches!(r.get_u32s(usize::MAX), Err(Error::Corrupt(_))));
    }

    #[test]
    fn a_count_beyond_the_bytes_left_is_corrupt_with_its_field() {
        let mut w = ByteWriter::new();
        w.put_u64_le(1 << 62);
        w.put_u32_le(3);
        w.put_slice(&[0; 8]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "frame");
        match r.get_count_u64("rows", 1) {
            Err(Error::Corrupt(msg)) => assert!(msg.starts_with("frame: rows:"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Three items of at least three bytes do not fit in eight; of two,
        // they do. Items of no bytes always fit.
        let mut r = ByteReader::new(&bytes[8..], "frame");
        assert!(r.clone().get_count_u32("items", 3).is_err());
        assert_eq!(r.clone().get_count_u32("items", 2).unwrap(), 3);
        assert_eq!(r.get_count_u32("items", 0).unwrap(), 3);
        let huge = (u64::MAX).to_le_bytes();
        let mut r = ByteReader::new(&huge, "frame");
        assert!(
            r.get_count_u64("items", 2).is_err(),
            "count x size overflows"
        );
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = ByteReader::new(&[1, 2], "frame");
        assert!(matches!(r.finish(), Err(Error::Corrupt(m)) if m == "frame: trailing bytes"));
        r.take(2).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn bad_utf8_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u32_le(2);
        w.put_slice(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes, "t").get_str().is_err());
    }

    #[test]
    fn a_string_longer_than_its_frame_is_corrupt() {
        for len in [u32::MAX, 1 << 30, 3] {
            let mut w = ByteWriter::new();
            w.put_u32_le(len);
            w.put_slice(b"ab");
            let bytes = w.into_bytes();
            let got = ByteReader::new(&bytes, "t").get_str();
            assert!(matches!(got, Err(Error::Corrupt(_))), "len={len}");
        }
    }

    #[test]
    fn encodings_are_little_endian() {
        let mut w = ByteWriter::new();
        w.put_u32_le(1);
        assert_eq!(w.as_slice(), &[1, 0, 0, 0]);
    }
}
