//! Fixture: hot-function indexing carrying a documented-invariant marker.
//! The test's hot-path manifest lists `audited`.

fn audited(v: &[u32]) -> u32 {
    // sann-lint: allow(panic-path) -- caller guarantees non-empty by construction
    v[0]
}
