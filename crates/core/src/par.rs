//! Minimal data-parallel helpers built on std scoped threads.
//!
//! The workspace deliberately avoids a work-stealing runtime dependency;
//! builds only need "run this closure over id ranges on all cores" and
//! "fill this row-major output on all cores".

/// Runs `f(start, end)` over `[0, n)` split into one contiguous range per
/// worker thread. `f` must be safe to run concurrently on disjoint ranges.
pub fn par_ranges<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n == 0 {
        f(0, n);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let f = &f;
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(n);
            if start >= end {
                continue;
            }
            scope.spawn(move || f(start, end));
        }
    });
}

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
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_ranges(n, 7, |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_is_fine() {
        par_ranges(0, 4, |s, e| assert_eq!(s, e));
    }

    #[test]
    fn single_thread_runs_inline() {
        let count = AtomicU64::new(0);
        par_ranges(10, 1, |s, e| {
            count.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

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

    #[test]
    fn more_threads_than_items() {
        let count = AtomicU64::new(0);
        par_ranges(3, 16, |s, e| {
            count.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}
