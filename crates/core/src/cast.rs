//! Checked numeric conversions for sim-time and byte-offset arithmetic.
//!
//! A bare `as` cast between numeric types never fails — it truncates,
//! wraps, saturates, or rounds, and a corrupted byte offset or nanosecond
//! clock surfaces as a plausible-looking wrong figure far from the bug that
//! produced it. The helpers here carry the intent in their names, assert
//! the lossless-ness contract in debug builds, and compile to exactly the
//! same `as` cast in release builds so golden traces and canonical metric
//! encodings stay bit-identical to the open-coded casts they replace.
//!
//! The static analyzer's `cast-truncation` rule ratchets bare casts across
//! the workspace; call sites that switch to these helpers shrink the
//! baseline for good.

/// Largest integer magnitude `f64` represents exactly (2^53).
const F64_EXACT: u64 = 1 << 53;

/// Widens a `usize` to `u64`.
///
/// Lossless on every target this workspace supports (`usize` is at most 64
/// bits); named so byte counters read as intent, not as a silent cast.
#[inline]
#[must_use]
pub fn u64_from_usize(x: usize) -> u64 {
    // sann-lint: allow(cast-truncation) -- usize is at most 64 bits on all supported targets
    x as u64
}

/// Narrows a `usize` to `u32` for values bounded by construction (sector
/// sizes, request lengths).
///
/// Debug builds assert the value fits; release builds keep the exact `as`
/// truncation semantics of the open-coded cast this replaces.
#[inline]
#[must_use]
pub fn u32_from_usize(x: usize) -> u32 {
    debug_assert!(
        u32::try_from(x).is_ok(),
        "value {x} does not fit in u32; the caller's bound is wrong"
    );
    // sann-lint: allow(cast-truncation) -- bound asserted above; `as` keeps release semantics
    x as u32
}

/// Narrows a `u64` to `u32` for values bounded by construction (sector
/// sizes, request lengths capped at `MAX_REQUEST_BYTES`).
///
/// Debug builds assert the value fits; release builds keep the exact `as`
/// truncation semantics of the open-coded cast this replaces.
#[inline]
#[must_use]
pub fn u32_from_u64(x: u64) -> u32 {
    debug_assert!(
        u32::try_from(x).is_ok(),
        "value {x} does not fit in u32; the caller's bound is wrong"
    );
    // sann-lint: allow(cast-truncation) -- bound asserted above; `as` keeps release semantics
    x as u32
}

/// Narrows a `u64` to `usize` for counts and indices bounded by
/// construction.
///
/// Lossless on 64-bit targets; debug builds assert the value fits, release
/// builds keep the exact `as` semantics of the open-coded cast this
/// replaces.
#[inline]
#[must_use]
pub fn usize_from_u64(x: u64) -> usize {
    debug_assert!(
        usize::try_from(x).is_ok(),
        "value {x} does not fit in usize; the caller's bound is wrong"
    );
    // sann-lint: allow(cast-truncation) -- bound asserted above; `as` keeps release semantics
    x as usize
}

/// Splits a `u128` into its high and low 64-bit halves.
///
/// Lossless: the two halves together are the value (a packed key's fields
/// are then masked out of the half that holds them).
#[inline]
#[must_use]
pub fn u64_halves(x: u128) -> (u64, u64) {
    // sann-lint: allow(cast-truncation) -- `>> 64` leaves 64 bits; the low half is the other half
    ((x >> 64) as u64, x as u64)
}

/// Converts a `u64` counter to `f64` for rate/average arithmetic.
///
/// Debug builds assert the value is below 2^53, where every integer is
/// representable exactly — beyond that, averages silently lose ulps.
#[inline]
#[must_use]
pub fn f64_from_u64(x: u64) -> f64 {
    debug_assert!(
        x <= F64_EXACT,
        "{x} exceeds 2^53 and is not exactly representable as f64"
    );
    // sann-lint: allow(cast-truncation) -- exactness asserted above
    x as f64
}

/// Converts a `usize` count to `f64` for rate/average arithmetic.
///
/// Same exactness contract as [`f64_from_u64`].
#[inline]
#[must_use]
pub fn f64_from_usize(x: usize) -> f64 {
    f64_from_u64(u64_from_usize(x))
}

/// Converts a finite, non-negative `f64` to `u64` with `as` semantics
/// (truncation toward zero).
///
/// Debug builds reject NaN and negatives, which `as` would silently map to
/// 0 — corrupting an event clock far from the bug that produced them.
#[inline]
#[must_use]
pub fn u64_from_f64(x: f64) -> u64 {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "expected a finite non-negative value, got {x}"
    );
    // sann-lint: allow(cast-truncation) -- domain asserted above; `as` keeps release semantics
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_exact() {
        assert_eq!(u64_from_usize(0), 0);
        assert_eq!(u64_from_usize(usize::MAX), usize::MAX as u64);
    }

    #[test]
    fn narrowing_in_bounds() {
        assert_eq!(u32_from_usize(4096), 4096);
        assert_eq!(u32_from_usize(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    #[cfg(debug_assertions)]
    fn narrowing_out_of_bounds_asserts() {
        let _ = u32_from_usize(u32::MAX as usize + 1);
    }

    #[test]
    fn halves_rebuild_the_value() {
        for x in [0u128, 1, u128::from(u64::MAX), u128::MAX, (7 << 64) | 9] {
            let (hi, lo) = u64_halves(x);
            assert_eq!(u128::from(hi) << 64 | u128::from(lo), x);
        }
    }

    #[test]
    fn float_conversions_match_open_coded_casts() {
        for x in [0u64, 1, 4096, (1 << 53) - 1, 1 << 53] {
            assert_eq!(f64_from_u64(x), x as f64);
        }
        for x in [0.0f64, 0.4, 1.0, 1e12, 4095.9999] {
            assert_eq!(u64_from_f64(x), x as u64, "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    #[cfg(debug_assertions)]
    fn nan_rejected_in_debug() {
        let _ = u64_from_f64(f64::NAN);
    }
}
