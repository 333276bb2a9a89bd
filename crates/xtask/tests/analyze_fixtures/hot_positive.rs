//! Fixture: allocation and NaN-order hazards inside a hot function — both
//! hot-loop rules must fire. The test's hot-path manifest lists `kernel`.

fn kernel(xs: &[f32]) -> f32 {
    let scratch = xs.to_vec();
    let copy = vec![0.0f32; xs.len()];
    let best = scratch
        .iter()
        .zip(&copy)
        .map(|(a, b)| a + b)
        .fold(f32::MIN, f32::max);
    let _ = xs.first().partial_cmp(&xs.last());
    best
}

fn cold(xs: &[f32]) -> Vec<f32> {
    // Outside a hot function, allocation is fine.
    xs.to_vec()
}
