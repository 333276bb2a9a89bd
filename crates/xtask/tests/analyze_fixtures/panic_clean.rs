//! Fixture: fallible code on typed errors — no panic paths.

fn careful(v: &[u32]) -> Option<u32> {
    let first = v.first()?;
    let second = v.get(1).copied().unwrap_or_default();
    Some(first + second)
}

// A hot function is found even with array types (`;` inside brackets) in
// its signature, and an array pattern after `let` is not an index.
#[sann::hot]
fn four_at_once(rows: [&[f32]; 4]) -> [f32; 4] {
    let [a, b, c, d] = rows.map(|r| r.first().copied().unwrap_or_default());
    [a, b, c, d]
}

#[cfg(test)]
mod tests {
    // Tests may unwrap freely: the ratcheted rules skip #[cfg(test)].
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v = vec![1u32];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
