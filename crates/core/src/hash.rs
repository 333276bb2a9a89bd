//! FNV-1a content hashing for artifact-cache keys.
//!
//! The artifact cache (`sann-bench`) names every on-disk entry after a hash
//! of the inputs that produced it — dataset spec, build parameters, format
//! version — so a changed input can never be served a stale artifact. FNV-1a
//! is used because it is tiny, dependency-free, and fully deterministic
//! across platforms; it is **not** cryptographic, and the cache treats a key
//! collision like any other corruption: the self-describing entry fails
//! validation and the artifact is rebuilt.

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte string with 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(OFFSET_BASIS, bytes)
}

/// Folds `bytes` into an FNV-1a state, so a hash can be taken over pieces
/// that are never joined: `fnv1a64_extend(fnv1a64(a), b)` is `fnv1a64`
/// of `a` followed by `b`.
pub fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_byte_change_changes_hash() {
        assert_ne!(fnv1a64(b"spec v1"), fnv1a64(b"spec v2"));
    }

    #[test]
    fn extending_piece_by_piece_hashes_the_concatenation() {
        let bytes: Vec<u8> = (0..=255).collect();
        for cut in [0, 1, 17, 255, 256] {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv1a64_extend(fnv1a64(a), b), fnv1a64(&bytes), "cut={cut}");
        }
        assert_eq!(fnv1a64_extend(OFFSET_BASIS, b"foobar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn deterministic_across_calls() {
        let payload: Vec<u8> = (0..=255).collect();
        assert_eq!(fnv1a64(&payload), fnv1a64(&payload));
    }
}
