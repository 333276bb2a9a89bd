//! A poison-free lock wrapper over [`std::sync`].
//!
//! The one lock left in the workspace guards mmap-HNSW's page cache behind
//! `&self`, and is only ever held across pure computation. Lock poisoning
//! carries no extra information there, and propagating `PoisonError`
//! through the search path would bury it in plumbing. The wrapper panics on
//! poison (mirroring the `parking_lot` API shape) so call sites stay
//! `lock()`.

use std::sync::{self, LockResult};

/// A mutual-exclusion lock that panics if a previous holder panicked.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock owning `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.0.lock())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

fn unpoison<G>(result: LockResult<G>) -> G {
    match result {
        Ok(guard) => guard,
        Err(_) => panic!("lock poisoned: a previous holder panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_shared_across_scoped_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 400);
    }
}
