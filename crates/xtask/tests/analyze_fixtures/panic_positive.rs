//! Fixture: slice indexing inside a hot function: `panic-path` must fire
//! twice. The test's hot-path manifest lists `kernel`.

fn kernel(v: &[u32], i: usize) -> u32 {
    let head = v[..i].len();
    v[i] + u32::try_from(head).unwrap_or(0)
}

fn cold(v: &[u32]) -> u32 {
    // Outside a hot function, indexing is not the lexer's business.
    v[0]
}
