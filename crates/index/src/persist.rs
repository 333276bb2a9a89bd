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
//! state (`flat`, `spann`, `fresh-diskann`) return `None` from
//! `persist_encode` and are simply rebuilt on every run.

use crate::{DiskAnnIndex, HnswIndex, HnswSqIndex, IvfIndex, IvfPqIndex, VectorIndex};
use sann_core::buf::{ByteReader, ByteWriter};
use sann_core::{Dataset, Error, Result};

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
    decode_onto(bytes, None)
}

/// Like [`decode`], but an index whose frame embeds vectors bit-identical
/// to `base`'s (the dataset it was built from) shares `base`'s buffer
/// instead of holding a decoded copy ([`Dataset::decode_onto`]). Any other
/// frame decodes exactly as [`decode`] does.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_onto(bytes: &[u8], base: Option<&Dataset>) -> Result<Box<dyn VectorIndex>> {
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
        "ivf" => Box::new(IvfIndex::from_persist(&mut r, base)?),
        "ivf-pq" => Box::new(IvfPqIndex::from_persist(&mut r)?),
        "hnsw" => Box::new(HnswIndex::from_persist(&mut r, base)?),
        "hnsw-sq" => Box::new(HnswSqIndex::from_persist(&mut r, base)?),
        "diskann" => Box::new(DiskAnnIndex::from_persist(&mut r, base)?),
        other => {
            return Err(Error::Corrupt(format!(
                "index-artifact: unknown kind {other:?}"
            )))
        }
    };
    r.finish()?;
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
        let frame = index.persist_encode().unwrap();
        let blocks = frame.len() - (16 * 8 + base.len() * 8);
        let entry = blocks - 8 * 32 * 4 * 4;
        let shape: Vec<u8> = [32u32, 8, 32]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        assert_eq!(frame[entry - 12..entry], shape);
        let mut bytes = frame.clone();
        bytes[entry..entry + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(matches!(decode_err(&bytes), Error::Corrupt(_)));
        // The first code block's length becomes 2^62.
        assert_corrupt(with_count(frame, blocks), "ivf-pq codes");
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
        assert!(matches!(decode_err(&bytes), Error::Corrupt(_)));
    }

    #[test]
    fn hnsw_sq_round_trips() {
        let (base, queries) = data();
        let index = HnswSqIndex::build(&base, Metric::L2, HnswConfig::default()).unwrap();
        assert_round_trip(&index, &queries);
        // The frame ends with the code matrix's u64 length and its bytes,
        // one per dimension; the length becomes 2^62.
        let frame = index.persist_encode().unwrap();
        let at = frame.len() - base.len() * 32 - 8;
        assert_corrupt(with_count(frame, at), "hnsw-sq codes");
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
        };
        let index = DiskAnnIndex::build(&base, Metric::L2, config).unwrap();
        assert_round_trip(&index, &queries);

        // The u64 after the metric tag is reserved: anything but the 0
        // every artifact carries is corrupt.
        let frame = index.persist_encode().unwrap();
        let reserved = 4 + 4 + (4 + "diskann".len()) + 1;
        assert_eq!(frame[reserved..reserved + 8], 0u64.to_le_bytes());
        let mut bytes = frame.clone();
        bytes[reserved + 1] = 0x20;
        assert_corrupt(bytes, "reserved word");
        // The frame ends with the PQ codes' u64 length and 8 bytes per
        // vector; the length becomes 2^62.
        let at = frame.len() - base.len() * 8 - 8;
        assert_corrupt(with_count(frame, at), "diskann codes");
    }

    /// `frame` with the u64 count at byte `at` replaced by 2^62.
    fn with_count(mut frame: Vec<u8>, at: usize) -> Vec<u8> {
        frame[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        frame
    }

    fn assert_corrupt(frame: Vec<u8>, what: &str) {
        match decode_err(&frame) {
            Error::Corrupt(message) => assert!(message.contains(what), "{message}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    /// The error decoding `frame` returns, which must be the same whether
    /// or not it decodes onto the dataset the tests build from: a hint
    /// never turns a corrupt frame into an index.
    fn decode_err(frame: &[u8]) -> Error {
        let Err(plain) = decode(frame) else {
            panic!("a corrupt frame decoded");
        };
        let Err(hinted) = decode_onto(frame, Some(&data().0)) else {
            panic!("a corrupt frame decoded onto a hint");
        };
        assert_eq!(plain, hinted);
        plain
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
            decode_err(&bytes[..cut]);
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        decode_err(&bad);
        // Future format version.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        decode_err(&bad);
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        decode_err(&bad);
    }

    /// Each persistable frame, decoded onto the dataset it was built from
    /// and onto datasets that differ from it by one float's bits, by
    /// dimension or by one row. Only the first shares the hint's buffer
    /// (IVF-PQ embeds no vectors and shares nothing); every decode
    /// re-encodes to the frame and searches as the built index does.
    #[test]
    fn decode_onto_shares_only_bit_identical_vectors() {
        let (base, queries) = data();
        let hnsw = HnswConfig::default();
        let ivf = IvfConfig::default().with_nlist(16);
        let diskann = DiskAnnConfig {
            graph: VamanaConfig {
                r: 16,
                ..VamanaConfig::default()
            },
            pq_m: 8,
            pq_ksub: 32,
        };
        let indexes: Vec<Box<dyn VectorIndex>> = vec![
            Box::new(IvfIndex::build(&base, Metric::L2, ivf).unwrap()),
            Box::new(IvfPqIndex::build(&base, ivf, 8, 32).unwrap()),
            Box::new(HnswIndex::build(&base, Metric::L2, hnsw).unwrap()),
            Box::new(HnswSqIndex::build(&base, Metric::L2, hnsw).unwrap()),
            Box::new(DiskAnnIndex::build(&base, Metric::L2, diskann).unwrap()),
        ];
        let mut flipped = base.as_flat().to_vec();
        let last = flipped.len() - 1;
        flipped[last] = f32::from_bits(flipped[last].to_bits() ^ 1);
        let others = [
            Dataset::from_flat(flipped, base.dim()).unwrap(),
            Dataset::from_flat(base.as_flat().to_vec(), base.dim() / 2).unwrap(),
            base.truncated(base.len() - 1),
        ];
        let ptr = |d: &Dataset| d.as_flat().as_ptr();
        let params = SearchParams::default();
        for index in &indexes {
            let kind = index.kind();
            let frame = index.persist_encode().unwrap();
            let expect = search_ids(index.as_ref(), &queries, 5, &params).unwrap();
            let plain = decode(&frame).unwrap();
            let shared = decode_onto(&frame, Some(&base)).unwrap();
            assert_eq!(
                shared.persist_encode().unwrap(),
                plain.persist_encode().unwrap()
            );
            let held = shared.vectors().map(ptr);
            assert_eq!(held, (kind != "ivf-pq").then_some(ptr(&base)), "{kind}");
            assert_ne!(plain.vectors().map(ptr), Some(ptr(&base)), "{kind}");
            for other in &others {
                let back = decode_onto(&frame, Some(other)).unwrap();
                assert_ne!(back.vectors().map(ptr), Some(ptr(other)), "{kind}");
                assert_ne!(back.vectors().map(ptr), Some(ptr(&base)), "{kind}");
                assert_eq!(back.persist_encode().unwrap(), frame, "{kind}");
                let got = search_ids(back.as_ref(), &queries, 5, &params).unwrap();
                assert_eq!(got, expect, "{kind}");
            }
        }
    }
}
