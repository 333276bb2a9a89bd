//! Minimal data-parallel helper built on std scoped threads.
//!
//! The workspace deliberately avoids a work-stealing runtime dependency;
//! the only parallel shape it needs is "fill this row-major output on all
//! cores", for work whose rows are independent (k-means assignment, PQ
//! sub-space training — one row per codebook — PQ encoding, ground truth,
//! Vamana's closing degree-bound pass). Graph construction itself is
//! sequential: see `sann_index::hnsw` / `vamana`.

/// Splits `out` — `stride` elements per row — into one contiguous run of
/// rows per worker thread and runs `f(first_row, rows)` on each. What a row
/// receives must not depend on how the rows were split.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn par_chunks_mut<T, F>(out: &mut [T], stride: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let rows = out.len() / stride;
    let threads = threads.max(1).min(rows.max(1));
    if threads <= 1 {
        f(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, chunk) in out.chunks_mut(chunk_rows * stride).enumerate() {
            let f = &f;
            scope.spawn(move || f(t * chunk_rows, chunk));
        }
    });
}

/// Number of worker threads to use for builds: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_mut_hands_every_row_its_index() {
        for threads in [1, 3, 16] {
            let mut out = vec![0usize; 10 * 2];
            par_chunks_mut(&mut out, 2, threads, |first, rows| {
                for (i, row) in rows.chunks_mut(2).enumerate() {
                    row.fill(first + i);
                }
            });
            let want: Vec<usize> = (0..10).flat_map(|r| [r, r]).collect();
            assert_eq!(out, want, "threads={threads}");
        }
        par_chunks_mut(&mut [0u8; 0], 4, 4, |first, rows| {
            assert_eq!((first, rows.len()), (0, 0));
        });
    }
}
