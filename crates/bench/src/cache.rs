//! Persistent artifact cache: datasets, ground truth, built indexes, and
//! tuned knobs survive across `vdbbench` invocations.
//!
//! The expensive part of every run is *prep* — generating vectors, brute-force
//! ground truth, and graph/IVF builds — not the simulation itself. This module
//! stores each prep artifact under a cache directory (`.sann-cache/` by
//! default) as a checksummed file keyed by a content hash of everything that
//! went into building it, so a warm run replays the prep byte-for-byte from
//! disk:
//!
//! ```text
//! magic "SANC" | format version u32 | key u64 | payload | fnv1a64 checksum u64
//! ```
//!
//! The checksum covers every byte before it. Any mismatch — wrong magic, old
//! format version, foreign key, truncation, bit rot — is treated as a miss and
//! the artifact is rebuilt (and re-stored), never trusted. Keys fold in the
//! dataset's [`DatasetSpec::content_key`], the index family and build seed,
//! and the index persistence format version, so changing any input invalidates
//! exactly the artifacts it affects.
//!
//! Stores are atomic (write to a `.tmp` sibling, then rename) so a crash
//! mid-write leaves no half-written entry behind, and store failures are
//! non-fatal: the cache only ever accelerates, it never gates a run.

use sann_core::buf::ByteWriter;
use sann_core::cast;
use sann_core::hash::{fnv1a64, fnv1a64_extend};
use sann_datagen::DatasetSpec;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Entry magic, first four bytes of every cache file.
pub const MAGIC: [u8; 4] = *b"SANC";

/// Cache entry format version; bump on any layout change so stale entries
/// from older binaries read as misses instead of garbage.
pub const FORMAT_VERSION: u32 = 1;

/// Hit/miss/corruption counters, reported by `vdbbench` after prep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries loaded successfully.
    pub hits: u64,
    /// Entries absent (never built, or evicted by the user).
    pub misses: u64,
    /// Entries present but rejected (truncated, checksum mismatch, stale
    /// format) — counted *in addition to* a miss.
    pub corrupt: u64,
}

/// A directory of checksummed artifact files.
pub struct ArtifactCache {
    dir: PathBuf,
    stats: CacheStats,
}

impl ArtifactCache {
    /// Opens (without touching the filesystem) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactCache {
        ArtifactCache {
            dir: dir.into(),
            stats: CacheStats::default(),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters accumulated by [`load`](ArtifactCache::load) calls.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn entry_path(&self, label: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{label}-{key:016x}.bin"))
    }

    /// Loads the payload stored under (`label`, `key`), or `None` on a miss.
    ///
    /// Every failure mode — missing file, truncation, checksum mismatch,
    /// wrong magic/version/key — is a miss; corrupt entries also bump the
    /// [`CacheStats::corrupt`] counter.
    pub fn load(&mut self, label: &str, key: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(label, key);
        let Ok(mut bytes) = std::fs::read(&path) else {
            self.stats.misses += 1;
            return None;
        };
        if peel_entry(&mut bytes, key) {
            self.stats.hits += 1;
            Some(bytes)
        } else {
            self.stats.misses += 1;
            self.stats.corrupt += 1;
            None
        }
    }

    /// Stores `payload` under (`label`, `key`), atomically (tmp + rename).
    ///
    /// Failures are reported on stderr and otherwise ignored — a read-only or
    /// full disk degrades the cache to a no-op, it never fails the run.
    pub fn store(&mut self, label: &str, key: u64, payload: &[u8]) {
        let path = self.entry_path(label, key);
        if let Err(err) = self.try_store(&path, key, payload) {
            eprintln!("[cache] failed to store {}: {err}", path.display());
        }
    }

    /// Writes the header, the payload and the checksum straight to the tmp
    /// file, folding the checksum over them as they go, so the payload is
    /// never copied into an envelope.
    fn try_store(&self, path: &Path, key: u64, payload: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let header = header(key);
        let checksum = fnv1a64_extend(fnv1a64(&header), payload);
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(payload)?;
        file.write_all(&checksum.to_le_bytes())?;
        drop(file);
        std::fs::rename(&tmp, path)
    }
}

/// Bytes before the payload: magic, format version, key.
const HEADER_LEN: usize = 16;

/// Bytes after the payload: the checksum.
const CHECKSUM_LEN: usize = 8;

/// The entry header for `key`.
fn header(key: u64) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    let (magic, rest) = h.split_at_mut(4);
    let (version, key_bytes) = rest.split_at_mut(4);
    magic.copy_from_slice(&MAGIC);
    version.copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    key_bytes.copy_from_slice(&key.to_le_bytes());
    h
}

/// Validates one entry in place and, if it holds, peels it down to its
/// payload: the header and checksum are cut off the same buffer, so a hit
/// allocates nothing beyond the file read. Returns whether it held; a
/// rejected buffer is left as it was.
fn peel_entry(bytes: &mut Vec<u8>, expected_key: u64) -> bool {
    let Some(payload_len) = bytes.len().checked_sub(HEADER_LEN + CHECKSUM_LEN) else {
        return false;
    };
    let Some((body, tail)) = bytes.split_last_chunk::<CHECKSUM_LEN>() else {
        return false;
    };
    if fnv1a64(body) != u64::from_le_bytes(*tail) || !body.starts_with(&header(expected_key)) {
        return false;
    }
    bytes.copy_within(HEADER_LEN..HEADER_LEN + payload_len, 0);
    bytes.truncate(payload_len);
    true
}

/// Key of a prepared dataset artifact (base + queries + ground truth + tuning
/// truth): everything the generation depends on, via
/// [`DatasetSpec::content_key`], plus the truth parameters.
pub fn dataset_key(spec: &DatasetSpec, k: usize, tune_queries: usize) -> u64 {
    let mut w = ByteWriter::new();
    w.put_str("dataset");
    w.put_u64_le(spec.content_key());
    w.put_u64_le(cast::u64_from_usize(k));
    w.put_u64_le(cast::u64_from_usize(tune_queries));
    fnv1a64(&w.into_bytes())
}

/// Key of a built-index artifact: the dataset it was built on, the structural
/// family, the build seed, and the index persistence format version (so a
/// codec bump invalidates old frames instead of misreading them).
pub fn index_key(dataset_key: u64, family: &str, build_seed: u64) -> u64 {
    let mut w = ByteWriter::new();
    w.put_str("index");
    w.put_u64_le(dataset_key);
    w.put_str(family);
    w.put_u64_le(build_seed);
    w.put_u32_le(sann_index::persist::FORMAT_VERSION);
    fnv1a64(&w.into_bytes())
}

/// Key of a tuned-knob artifact: the index it was tuned on, the setup it was
/// tuned for, and the recall target (as exact bits).
pub fn tuned_key(index_key: u64, setup_name: &str, recall_target: f64) -> u64 {
    let mut w = ByteWriter::new();
    w.put_str("tuned");
    w.put_u64_le(index_key);
    w.put_str(setup_name);
    w.put_u64_le(recall_target.to_bits());
    fnv1a64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sann-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The fixed entry the pin below stores: a payload that is neither
    /// empty nor a power of two long, under a key with every byte distinct.
    const PINNED_KEY: u64 = 0x0123_4567_89ab_cdef;

    fn pinned_payload() -> Vec<u8> {
        (0..1000u32).map(|i| (i * 7 % 251) as u8).collect()
    }

    /// The file bytes of one fixed entry, by length and FNV-1a: a change
    /// to how an entry is written must not move one byte.
    #[test]
    fn stored_entry_bytes_are_pinned() {
        let dir = scratch("pinned");
        let mut cache = ArtifactCache::new(&dir);
        cache.store("index", PINNED_KEY, &pinned_payload());
        let bytes = std::fs::read(cache.entry_path("index", PINNED_KEY)).unwrap();
        assert_eq!(bytes.len(), 1024);
        assert_eq!(fnv1a64(&bytes), 0xb7a7_7d55_1fd7_ce59);
        assert_eq!(cache.load("index", PINNED_KEY), Some(pinned_payload()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_and_counts() {
        let dir = scratch("roundtrip");
        let mut cache = ArtifactCache::new(&dir);
        assert!(cache.load("x", 7).is_none());
        cache.store("x", 7, b"hello artifact");
        assert_eq!(cache.load("x", 7).as_deref(), Some(&b"hello artifact"[..]));
        // A second cache over the same directory sees the entry too.
        let mut warm = ArtifactCache::new(&dir);
        assert_eq!(warm.load("x", 7).as_deref(), Some(&b"hello artifact"[..]));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                corrupt: 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let dir = scratch("corrupt");
        let mut cache = ArtifactCache::new(&dir);
        cache.store("t", 1, b"some payload bytes");
        let path = cache.entry_path("t", 1);
        let good = std::fs::read(&path).unwrap();
        // Truncation anywhere — header, payload, checksum — is a miss.
        for cut in [0, 3, 10, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(cache.load("t", 1).is_none(), "cut={cut}");
        }
        // A single flipped payload bit fails the checksum.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(cache.load("t", 1).is_none());
        assert_eq!(cache.stats().corrupt, 6);
        // Restoring the original bytes makes it a hit again.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(
            cache.load("t", 1).as_deref(),
            Some(&b"some payload bytes"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_corrupt() {
        let dir = scratch("key");
        let mut cache = ArtifactCache::new(&dir);
        cache.store("k", 42, b"payload");
        // Same file renamed under a different key: the embedded key disagrees.
        let from = cache.entry_path("k", 42);
        let to = cache.entry_path("k", 43);
        std::fs::rename(&from, &to).unwrap();
        assert!(cache.load("k", 43).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_payload_is_a_24_byte_entry_that_round_trips() {
        let dir = scratch("empty");
        let mut cache = ArtifactCache::new(&dir);
        cache.store("e", 9, b"");
        let path = cache.entry_path("e", 9);
        let good = std::fs::read(&path).unwrap();
        assert_eq!(good.len(), 24);
        assert_eq!(cache.load("e", 9), Some(Vec::new()));
        // Any other 24 bytes are corrupt, and one byte fewer is too short
        // to hold an entry at all.
        let mut bad = good.clone();
        bad[20] ^= 0x80;
        std::fs::write(&path, &bad).unwrap();
        assert!(cache.load("e", 9).is_none());
        std::fs::write(&path, &good[..23]).unwrap();
        assert!(cache.load("e", 9).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                corrupt: 2
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn other_format_version_is_corrupt() {
        let dir = scratch("version");
        let mut cache = ArtifactCache::new(&dir);
        // A well-formed entry, checksum and all, from another format.
        let mut w = ByteWriter::new();
        w.put_slice(&MAGIC);
        w.put_u32_le(FORMAT_VERSION + 1);
        w.put_u64_le(5);
        w.put_slice(b"payload");
        let mut bytes = w.into_bytes();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path("v", 5), &bytes).unwrap();
        assert!(cache.load("v", 5).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_cover_every_input() {
        let spec = sann_datagen::catalog::cohere_s().scaled(0.01);
        let d = dataset_key(&spec, 10, 200);
        assert_eq!(d, dataset_key(&spec, 10, 200), "stable");
        assert_ne!(d, dataset_key(&spec, 11, 200));
        assert_ne!(d, dataset_key(&spec, 10, 100));
        assert_ne!(d, dataset_key(&spec.scaled(0.5), 10, 200));
        let i = index_key(d, "hnsw", 0xBE7C4);
        assert_eq!(i, index_key(d, "hnsw", 0xBE7C4), "stable");
        assert_ne!(i, index_key(d, "ivf", 0xBE7C4));
        assert_ne!(i, index_key(d, "hnsw", 0xBE7C5));
        assert_ne!(i, index_key(d ^ 1, "hnsw", 0xBE7C4));
        let t = tuned_key(i, "milvus-hnsw", 0.9);
        assert_eq!(t, tuned_key(i, "milvus-hnsw", 0.9), "stable");
        assert_ne!(t, tuned_key(i, "qdrant-hnsw", 0.9));
        assert_ne!(t, tuned_key(i, "milvus-hnsw", 0.95));
        assert_ne!(t, tuned_key(i ^ 1, "milvus-hnsw", 0.9));
    }
}
