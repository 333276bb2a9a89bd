//! Fixture: a hot kernel with no allocation and total float ordering.
//! The test's hot-path manifest lists `kernel`.

fn kernel(xs: &[f32], scratch: &mut [f32]) -> f32 {
    let mut acc = 0.0f32;
    for (s, x) in scratch.iter_mut().zip(xs) {
        *s = x * x;
        if s.total_cmp(&acc).is_gt() {
            acc = *s;
        }
    }
    acc
}
