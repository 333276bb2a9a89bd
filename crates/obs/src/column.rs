//! An append-only column of records stored in fixed-size chunks.
//!
//! A [`Column`] never moves a record once it is written: each chunk is
//! reserved at [`CHUNK`] records when it is opened and is never regrown,
//! so a growing column costs one allocation per [`CHUNK`] records and no
//! copies, where a doubling `Vec` copies every record on each regrowth and
//! ends up to half empty. Records keep their push order, and position `i`
//! lives at `chunks[i / CHUNK][i % CHUNK]`.

use std::iter::Flatten;
use std::ops::Index;
use std::slice;

/// Records per chunk (a power of two, so positions split with a shift and
/// a mask).
pub const CHUNK: usize = 4_096;

/// Append-only storage: every chunk but the last holds exactly [`CHUNK`]
/// records.
#[derive(Debug, Clone)]
pub struct Column<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Column<T> {
    /// An empty column; it allocates nothing until the first push.
    pub fn new() -> Column<T> {
        Column { chunks: Vec::new() }
    }

    /// Appends a record at position [`len`](Column::len).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(value),
            _ => self.push_chunk(value),
        }
    }

    /// Opens a chunk with `value` as its first record.
    #[cold]
    fn push_chunk(&mut self, value: T) {
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.push(value);
        self.chunks.push(chunk);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Whether the column holds no records.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The record at position `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// The record at position `i`, mutably, or `None` past the end.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)
    }

    /// The records in push order, one chunk slice at a time.
    pub fn slices(&self) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(Vec::as_slice)
    }

    /// The records in push order.
    pub fn iter(&self) -> Flatten<slice::Iter<'_, Vec<T>>> {
        self.chunks.iter().flatten()
    }

    /// The records in push order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.chunks.iter_mut().flatten()
    }
}

impl<T> Default for Column<T> {
    fn default() -> Column<T> {
        Column::new()
    }
}

impl<T> Index<usize> for Column<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<'a, T> IntoIterator for &'a Column<T> {
    type Item = &'a T;
    type IntoIter = Flatten<slice::Iter<'a, Vec<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> From<Vec<T>> for Column<T> {
    fn from(records: Vec<T>) -> Column<T> {
        let mut column = Column::new();
        for r in records {
            column.push(r);
        }
        column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_cross_chunk_boundaries() {
        let mut c = Column::new();
        assert!(c.is_empty());
        assert_eq!(c.get(0), None);
        for i in 0..2 * CHUNK + 3 {
            c.push(i);
            assert_eq!(c.len(), i + 1);
        }
        for i in [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 2] {
            assert_eq!(c.get(i), Some(&i));
            assert_eq!(c[i], i);
        }
        assert_eq!(c.get(2 * CHUNK + 3), None);
        assert!(c.iter().copied().eq(0..2 * CHUNK + 3));
        assert!((&c).into_iter().rev().copied().eq((0..2 * CHUNK + 3).rev()));
        let lens: Vec<usize> = c.slices().map(<[usize]>::len).collect();
        assert_eq!(lens, [CHUNK, CHUNK, 3]);
    }

    #[test]
    fn chunks_are_reserved_once_and_never_move() {
        let mut c = Column::new();
        c.push(0u64);
        let first = c.slices().next().unwrap().as_ptr();
        for i in 1..3 * CHUNK as u64 {
            c.push(i);
        }
        assert_eq!(c.slices().next().unwrap().as_ptr(), first);
        assert!(c.chunks.iter().all(|chunk| chunk.capacity() == CHUNK));
    }

    #[test]
    fn get_mut_and_iter_mut_write_in_place() {
        let mut c = Column::from((0..CHUNK + 2).collect::<Vec<_>>());
        *c.get_mut(CHUNK + 1).unwrap() += 10;
        assert_eq!(c.get_mut(CHUNK + 2), None);
        for x in c.iter_mut().take(2) {
            *x += 100;
        }
        assert_eq!((c[0], c[1], c[2], c[CHUNK + 1]), (100, 101, 2, CHUNK + 11));
    }

    #[test]
    fn from_vec_keeps_order() {
        let c = Column::from(vec![3, 1, 2]);
        assert_eq!(c.len(), 3);
        assert!(c.iter().copied().eq([3, 1, 2]));
        assert!(Column::<u8>::from(Vec::new()).is_empty());
    }
}
