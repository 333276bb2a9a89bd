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
//! The workspace lint table denies clippy's lossy-cast lints
//! (`cast_possible_truncation`, `cast_sign_loss`, `cast_possible_wrap`,
//! `cast_precision_loss`) in every crate, so lib and bin code converts
//! through these helpers: each carries the one reasoned `#[allow]` for its
//! conversion, and no other non-test file may allow a cast lint.

/// Largest integer magnitude `f64` represents exactly (2^53).
const F64_EXACT: u64 = 1 << 53;

/// Widens a `usize` to `u64`.
///
/// Lossless on every target this workspace supports (`usize` is at most 64
/// bits); named so byte counters read as intent, not as a silent cast.
#[inline]
#[must_use]
pub fn u64_from_usize(x: usize) -> u64 {
    x as u64
}

/// Narrows a `usize` to `u32` for values bounded by construction (sector
/// sizes, request lengths).
///
/// Debug builds assert the value fits; release builds keep the exact `as`
/// truncation semantics of the open-coded cast this replaces.
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "bound asserted above; `as` keeps release semantics"
)]
pub fn u32_from_usize(x: usize) -> u32 {
    debug_assert!(
        u32::try_from(x).is_ok(),
        "value {x} does not fit in u32; the caller's bound is wrong"
    );
    x as u32
}

/// Narrows a `u64` to `u32` for values bounded by construction (sector
/// sizes, request lengths capped at `MAX_REQUEST_BYTES`).
///
/// Debug builds assert the value fits; release builds keep the exact `as`
/// truncation semantics of the open-coded cast this replaces.
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "bound asserted above; `as` keeps release semantics"
)]
pub fn u32_from_u64(x: u64) -> u32 {
    debug_assert!(
        u32::try_from(x).is_ok(),
        "value {x} does not fit in u32; the caller's bound is wrong"
    );
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
#[allow(
    clippy::cast_possible_truncation,
    reason = "bound asserted above; `as` keeps release semantics"
)]
pub fn usize_from_u64(x: u64) -> usize {
    debug_assert!(
        usize::try_from(x).is_ok(),
        "value {x} does not fit in usize; the caller's bound is wrong"
    );
    x as usize
}

/// Splits a `u128` into its high and low 64-bit halves.
///
/// Lossless: the two halves together are the value (a packed key's fields
/// are then masked out of the half that holds them).
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "`>> 64` leaves 64 bits; the low half is the other half"
)]
pub fn u64_halves(x: u128) -> (u64, u64) {
    ((x >> 64) as u64, x as u64)
}

/// Converts a `u64` counter to `f64` for rate/average arithmetic.
///
/// Debug builds assert the value is below 2^53, where every integer is
/// representable exactly — beyond that, averages silently lose ulps.
#[inline]
#[must_use]
#[allow(clippy::cast_precision_loss, reason = "exactness asserted above")]
pub fn f64_from_u64(x: u64) -> f64 {
    debug_assert!(
        x <= F64_EXACT,
        "{x} exceeds 2^53 and is not exactly representable as f64"
    );
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
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "domain asserted above; `as` keeps release semantics"
)]
pub fn u64_from_f64(x: f64) -> u64 {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "expected a finite non-negative value, got {x}"
    );
    x as u64
}

/// Converts a finite, non-negative `f64` to `usize` with `as` semantics
/// (truncation toward zero): a rank, a scaled count, a sampled level.
///
/// Same domain contract as [`u64_from_f64`]; debug builds reject NaN and
/// negatives.
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "domain asserted above; `as` keeps release semantics"
)]
pub fn usize_from_f64(x: f64) -> usize {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "expected a finite non-negative value, got {x}"
    );
    x as usize
}

/// Narrows an `f64` to `f32`, rounding to the nearest `f32`: a sampled
/// coordinate stored in a dataset row.
///
/// Debug builds assert that a finite value stays finite, i.e. lies within
/// `f32`'s range; rounding off the low bits is the intent.
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "range asserted above; rounding to f32 precision is the intent"
)]
pub fn f32_from_f64(x: f64) -> f32 {
    let y = x as f32;
    debug_assert!(
        y.is_finite() || !x.is_finite(),
        "{x} is outside f32's range"
    );
    y
}

/// Converts a `u64` count to `f32`, exact up to 2^24 and rounded to the
/// nearest `f32` above it: a reciprocal or a mean computed in `f32`, whose
/// own arithmetic rounds at the same precision. Nothing is asserted.
#[inline]
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    reason = "rounding above 2^24 is within the f32 result's own precision"
)]
pub fn f32_rounded_from_u64(x: u64) -> f32 {
    x as f32
}

/// Converts a `usize` count to `f32`; same rounding as
/// [`f32_rounded_from_u64`].
#[inline]
#[must_use]
pub fn f32_rounded_from_usize(x: usize) -> f32 {
    f32_rounded_from_u64(u64_from_usize(x))
}

/// Converts a `u128` to `f64`, exact up to 2^53 and rounded to the nearest
/// `f64` above it: a wall-clock nanosecond count, or a ratio of sums and
/// products that can legitimately pass 2^53, where relative precision is
/// what matters. Nothing is asserted.
#[inline]
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    reason = "values may pass 2^53; rounding to the nearest f64 is the contract"
)]
pub fn f64_rounded_from_u128(x: u128) -> f64 {
    x as f64
}

/// Narrows a `u32` to `u8` for values bounded by construction (a codebook
/// index below 256).
///
/// Debug builds assert the value fits; release builds keep the exact `as`
/// truncation semantics.
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    reason = "bound asserted above; `as` keeps release semantics"
)]
pub fn u8_from_u32(x: u32) -> u8 {
    debug_assert!(
        u8::try_from(x).is_ok(),
        "value {x} does not fit in u8; the caller's bound is wrong"
    );
    x as u8
}

/// Converts an `f32` to `u8` with `as` saturation as part of the contract:
/// values below 0 map to 0, values above 255 to 255, and NaN to 0. A scalar
/// quantizer's code, where out-of-range inputs clamp to the end codes.
#[inline]
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "saturation and NaN -> 0 are the documented behaviour"
)]
pub fn u8_saturating_from_f32(x: f32) -> u8 {
    x as u8
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

    #[test]
    fn usize_from_f64_truncates_like_as() {
        for x in [0.0f64, 0.9, 1.0, 31.99, 1e12] {
            assert_eq!(usize_from_f64(x), x as usize, "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    #[cfg(debug_assertions)]
    fn usize_from_f64_rejects_negatives_in_debug() {
        let _ = usize_from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    #[cfg(debug_assertions)]
    fn usize_from_f64_rejects_nan_in_debug() {
        let _ = usize_from_f64(f64::NAN);
    }

    #[test]
    fn f32_from_f64_rounds_to_nearest() {
        for x in [0.0f64, -1.5, 0.1, f64::from(f32::MAX), f64::from(f32::MIN)] {
            assert_eq!(f32_from_f64(x).to_bits(), (x as f32).to_bits(), "x={x}");
        }
        assert!(f32_from_f64(f64::NAN).is_nan());
        assert_eq!(f32_from_f64(f64::INFINITY), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "outside f32's range")]
    #[cfg(debug_assertions)]
    fn f32_from_f64_rejects_overflow_in_debug() {
        let _ = f32_from_f64(1e39);
    }

    #[test]
    fn f32_from_integers_is_exact_to_2_pow_24_then_rounds() {
        let exact = 1u64 << 24;
        assert_eq!(f32_rounded_from_u64(exact), 16_777_216.0);
        assert_eq!(f32_rounded_from_u64(exact - 1), 16_777_215.0);
        assert_eq!(f32_rounded_from_u64(exact + 1), exact as f32);
        assert_eq!(f32_rounded_from_u64(u64::MAX), u64::MAX as f32);
        assert_eq!(f32_rounded_from_usize(0), 0.0);
        assert_eq!(f32_rounded_from_usize(4096), 4096.0);
    }

    #[test]
    fn f64_from_u128_is_exact_to_2_pow_53_then_rounds() {
        let exact = 1u128 << 53;
        assert_eq!(f64_rounded_from_u128(0), 0.0);
        assert_eq!(f64_rounded_from_u128(exact), 9_007_199_254_740_992.0);
        assert_eq!(f64_rounded_from_u128(exact - 1), 9_007_199_254_740_991.0);
        assert_eq!(f64_rounded_from_u128(exact + 1), exact as f64);
        assert_eq!(f64_rounded_from_u128(u128::MAX), u128::MAX as f64);
    }

    #[test]
    fn u8_from_u32_in_bounds() {
        assert_eq!(u8_from_u32(0), 0);
        assert_eq!(u8_from_u32(255), u8::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit in u8")]
    #[cfg(debug_assertions)]
    fn u8_from_u32_out_of_bounds_asserts() {
        let _ = u8_from_u32(256);
    }

    #[test]
    fn u8_saturating_from_f32_saturates_and_maps_nan_to_zero() {
        for (x, want) in [
            (0.0f32, 0u8),
            (254.6, 254),
            (255.0, 255),
            (255.5, 255),
            (1e9, 255),
            (-0.5, 0),
            (-1e9, 0),
            (f32::NAN, 0),
            (f32::INFINITY, 255),
        ] {
            assert_eq!(u8_saturating_from_f32(x), want, "x={x}");
        }
    }
}
