//! Fixture: a hot function with no indexing. The test's hot-path manifest
//! lists `four_at_once`, which is found even with array types (`;` inside
//! brackets) in its signature; an array pattern after `let` and an array
//! literal are not indexes.

fn four_at_once(rows: [&[f32]; 4]) -> [f32; 4] {
    let [a, b, c, d] = rows.map(|r| r.first().copied().unwrap_or_default());
    [a, b, c, d]
}
