//! Serialization of built indexes for the artifact cache.
//!
//! Every persistable index kind encodes to a self-describing frame:
//!
//! ```text
//! magic "SIDX" | format version u32 | kind string | kind-specific payload
//! ```
//!
//! [`VectorIndex::persist_encode`] produces the frame; [`decode`] dispatches
//! on the kind string and rebuilds the concrete index. Encoding is
//! canonical: decoding a frame and re-encoding the result yields the
//! original bytes, which is what lets the determinism audit byte-diff cached
//! artifacts against fresh builds.
//!
//! The kinds that ride on a simulated-storage layout or hold only derived
//! state (`flat`, `mmap-hnsw`, `spann`, `fresh-diskann`) return `None` from
//! `persist_encode` and are simply rebuilt on every run.

use crate::{DiskAnnIndex, HnswIndex, HnswSqIndex, IvfIndex, IvfPqIndex, VectorIndex};
use sann_core::buf::{ByteReader, ByteWriter};
use sann_core::{Error, Result};

/// Frame magic, first four bytes of every index artifact.
pub const MAGIC: [u8; 4] = *b"SIDX";

/// Format version; bump on any payload layout change so stale cache entries
/// are rejected (and rebuilt) instead of misread.
pub const FORMAT_VERSION: u32 = 1;

/// Wraps a kind-specific payload in the self-describing frame.
pub(crate) fn frame(kind: &str, payload: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_slice(&MAGIC);
    w.put_u32_le(FORMAT_VERSION);
    w.put_str(kind);
    payload(&mut w);
    w.into_bytes()
}

/// Decodes an index artifact produced by [`VectorIndex::persist_encode`].
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a bad magic/version/kind, truncation, or
/// internally inconsistent payload — callers treat any error as a cache miss
/// and rebuild.
pub fn decode(bytes: &[u8]) -> Result<Box<dyn VectorIndex>> {
    let mut r = ByteReader::new(bytes, "index-artifact");
    if r.take(4)? != MAGIC {
        return Err(Error::Corrupt("index-artifact: bad magic".into()));
    }
    let version = r.get_u32_le()?;
    if version != FORMAT_VERSION {
        return Err(Error::Corrupt(format!(
            "index-artifact: format version {version} != {FORMAT_VERSION}"
        )));
    }
    let kind = r.get_str()?;
    let index: Box<dyn VectorIndex> = match kind.as_str() {
        "ivf" => Box::new(IvfIndex::from_persist(&mut r)?),
        "ivf-pq" => Box::new(IvfPqIndex::from_persist(&mut r)?),
        "hnsw" => Box::new(HnswIndex::from_persist(&mut r)?),
        "hnsw-sq" => Box::new(HnswSqIndex::from_persist(&mut r)?),
        "diskann" => Box::new(DiskAnnIndex::from_persist(&mut r)?),
        other => {
            return Err(Error::Corrupt(format!(
                "index-artifact: unknown kind {other:?}"
            )))
        }
    };
    if r.remaining() != 0 {
        return Err(Error::Corrupt("index-artifact: trailing bytes".into()));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        search_ids, DiskAnnConfig, FlatIndex, HnswConfig, IvfConfig, SearchParams, VamanaConfig,
    };
    use sann_core::Metric;
    use sann_datagen::EmbeddingModel;

    fn data() -> (sann_core::Dataset, sann_core::Dataset) {
        let model = EmbeddingModel::new(32, 4, 123);
        (model.generate(500), model.generate_queries(10))
    }

    /// Round-trips one index through the frame and checks that the decoded
    /// copy (a) searches identically and (b) re-encodes byte-for-byte.
    fn assert_round_trip(index: &dyn VectorIndex, queries: &sann_core::Dataset) {
        let bytes = index.persist_encode().expect("kind is persistable");
        let back = decode(&bytes).unwrap();
        assert_eq!(back.kind(), index.kind());
        assert_eq!(back.len(), index.len());
        assert_eq!(back.dim(), index.dim());
        assert_eq!(back.is_storage_based(), index.is_storage_based());
        assert_eq!(back.memory_bytes(), index.memory_bytes());
        assert_eq!(back.storage_bytes(), index.storage_bytes());
        let params = SearchParams::default();
        assert_eq!(
            search_ids(index, queries, 5, &params).unwrap(),
            search_ids(back.as_ref(), queries, 5, &params).unwrap(),
            "decoded {} searches differently",
            index.kind()
        );
        assert_eq!(
            back.persist_encode().unwrap(),
            bytes,
            "{} re-encode not canonical",
            index.kind()
        );
    }

    #[test]
    fn ivf_round_trips() {
        let (base, queries) = data();
        let index =
            IvfIndex::build(&base, Metric::L2, IvfConfig::default().with_nlist(16)).unwrap();
        assert_round_trip(&index, &queries);
    }

    #[test]
    fn ivf_pq_round_trips() {
        let (base, queries) = data();
        let index = IvfPqIndex::build(&base, IvfConfig::default().with_nlist(16), 8, 32).unwrap();
        assert_round_trip(&index, &queries);

        // A codebook entry that is not finite is corrupt: it would turn
        // every ADC table into NaNs. The frame ends with the 16 code blocks
        // (a u64 length, then 8 bytes per member), and the codebooks
        // (8 x 32 sub-centroids of 4 floats) sit right before them, after
        // the quantizer's shape.
        let mut bytes = index.persist_encode().unwrap();
        let entry = bytes.len() - (16 * 8 + base.len() * 8) - 8 * 32 * 4 * 4;
        let shape: Vec<u8> = [32u32, 8, 32]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        assert_eq!(bytes[entry - 12..entry], shape);
        bytes[entry..entry + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn hnsw_round_trips() {
        let (base, queries) = data();
        let index = HnswIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        assert_round_trip(&index, &queries);

        // The word after the seed is reserved: anything but the 1 every
        // artifact carries is corrupt (a cache miss), not a build knob.
        let mut bytes = index.persist_encode().unwrap();
        let reserved = 4 + 4 + (4 + "hnsw".len()) + 1 + 4 + 4 + 8;
        assert_eq!(bytes[reserved..reserved + 4], 1u32.to_le_bytes());
        bytes[reserved] = 2;
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn hnsw_sq_round_trips() {
        let (base, queries) = data();
        let index = HnswSqIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        assert_round_trip(&index, &queries);
    }

    #[test]
    fn diskann_round_trips() {
        let (base, queries) = data();
        let config = DiskAnnConfig {
            graph: VamanaConfig {
                r: 16,
                ..VamanaConfig::default()
            },
            pq_m: 8,
            pq_ksub: 32,
            base_offset: 8192,
        };
        let index = DiskAnnIndex::build(&base, Metric::L2, config).unwrap();
        assert_round_trip(&index, &queries);
        // The rebuilt layout preserves the original region placement.
        let back = decode(&index.persist_encode().unwrap()).unwrap();
        assert_eq!(back.storage_bytes(), index.storage_bytes());
    }

    #[test]
    fn unsupported_kinds_return_none() {
        let (base, _) = data();
        let flat = FlatIndex::build(&base, Metric::L2);
        assert!(flat.persist_encode().is_none());
    }

    #[test]
    fn decode_rejects_corruption() {
        let (base, _) = data();
        let index = IvfIndex::build(&base, Metric::L2, IvfConfig::default().with_nlist(8)).unwrap();
        let bytes = index.persist_encode().unwrap();
        // Truncations at every region boundary are corrupt, never a panic.
        for cut in [0, 3, 4, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err());
        // Future format version.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode(&bad).is_err());
    }
}
