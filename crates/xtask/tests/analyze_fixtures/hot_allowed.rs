//! Fixture: a hot-function allocation with an audited justification.
//! The test's hot-path manifest lists `kernel_with_setup`.

fn kernel_with_setup(xs: &[f32]) -> f32 {
    // sann-lint: allow(hot-alloc) -- one-time setup before the inner loop
    let scratch = xs.to_vec();
    scratch.iter().sum()
}
