//! Snapshot persistence for collections.
//!
//! Snapshots capture vectors, payloads, and tombstones in a small
//! hand-rolled binary format (magic `SANN`, version byte). Indexes are *not*
//! serialized — the caller rebuilds one with
//! [`Collection::build_index`] after loading, which is what the benchmarked
//! databases do on segment reload.

use crate::collection::Collection;
use crate::payload::{Payload, Value};
use sann_core::buf::{ByteReader, ByteWriter};
use sann_core::{Dataset, Error, Metric, Result};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SANN";
const VERSION: u8 = 1;

/// Serializes a collection (vectors + payloads + tombstones) to bytes.
pub fn encode(collection: &Collection) -> Vec<u8> {
    let mut buf = ByteWriter::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_str(collection.name());
    buf.put_u8(collection.metric().tag());
    collection.vectors().encode_into(&mut buf);
    for id in 0..collection.len() as u32 {
        buf.put_u8(if collection.is_live(id) { 0 } else { 1 });
    }
    // Tombstoned rows keep their payloads: `get` refuses them, but the
    // bytes round-trip.
    for payload in collection.payloads() {
        put_payload(&mut buf, payload);
    }
    buf.into_bytes()
}

/// Deserializes a collection from bytes.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on any structural problem.
pub fn decode(data: &[u8]) -> Result<Collection> {
    let corrupt = |what: &str| Error::Corrupt(format!("snapshot: {what}"));
    let mut data = ByteReader::new(data, "snapshot");
    if data.remaining() < 5 || &data.rest()[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    data.take(4)?;
    let version = data.get_u8()?;
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let name = data.get_str()?;
    let tag = data.get_u8()?;
    let metric = Metric::from_tag(tag).ok_or_else(|| corrupt(&format!("unknown metric {tag}")))?;
    let vectors = Dataset::decode_from(&mut data)?;
    let n = vectors.len();
    if data.remaining() < n {
        return Err(corrupt("truncated tombstones"));
    }
    let mut deleted = Vec::with_capacity(n);
    for _ in 0..n {
        deleted.push(data.get_u8()? == 1);
    }
    let mut payloads = Vec::with_capacity(n);
    for _ in 0..n {
        payloads.push(get_payload(&mut data)?);
    }
    Ok(Collection::from_parts(
        name, metric, vectors, payloads, deleted,
    ))
}

/// Writes a snapshot file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(collection: &Collection, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode(collection))?;
    Ok(())
}

/// Reads a snapshot file.
///
/// # Errors
///
/// Propagates filesystem errors and [`Error::Corrupt`] on bad content.
pub fn load(path: impl AsRef<Path>) -> Result<Collection> {
    let data = std::fs::read(path)?;
    decode(&data)
}

fn put_payload(buf: &mut ByteWriter, payload: &Payload) {
    buf.put_u32_le(payload.len() as u32);
    for (field, value) in payload.iter() {
        buf.put_str(field);
        match value {
            Value::Str(s) => {
                buf.put_u8(0);
                buf.put_str(s);
            }
            Value::Int(i) => {
                buf.put_u8(1);
                buf.put_i64_le(*i);
            }
            Value::Float(f) => {
                buf.put_u8(2);
                buf.put_f64_le(*f);
            }
            Value::Bool(b) => {
                buf.put_u8(3);
                buf.put_u8(*b as u8);
            }
        }
    }
}

fn get_payload(data: &mut ByteReader<'_>) -> Result<Payload> {
    let n = data.get_u32_le()? as usize;
    let mut payload = Payload::new();
    for _ in 0..n {
        let field = data.get_str()?;
        let tag = data.get_u8()?;
        let value = match tag {
            0 => Value::Str(data.get_str()?),
            1 => Value::Int(data.get_i64_le()?),
            2 => Value::Float(data.get_f64_le()?),
            3 => Value::Bool(data.get_u8()? == 1),
            other => {
                return Err(Error::Corrupt(format!(
                    "snapshot: unknown value tag {other}"
                )))
            }
        };
        payload.set(field, value);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::Metric;

    fn sample() -> Collection {
        let mut c = Collection::new("docs", 3, Metric::Cosine).unwrap();
        c.insert(
            &[1.0, 0.0, 0.0],
            Payload::new().with("lang", "en").with("n", 1i64),
        )
        .unwrap();
        c.insert(
            &[0.0, 1.0, 0.0],
            Payload::new().with("score", 0.5).with("hot", true),
        )
        .unwrap();
        c.insert(&[0.0, 0.0, 1.0], Payload::new().with("k", 7i64))
            .unwrap();
        c.delete(2).unwrap();
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let decoded = decode(&encode(&original)).unwrap();
        assert_eq!(decoded.name(), "docs");
        assert_eq!(decoded.metric(), Metric::Cosine);
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded.live_len(), 2);
        let (v, p) = decoded.get(0).unwrap();
        assert_eq!(v, &[1.0, 0.0, 0.0]);
        assert_eq!(p.get("lang"), Some(&Value::Str("en".into())));
        assert_eq!(p.get("n"), Some(&Value::Int(1)));
        let (_, p1) = decoded.get(1).unwrap();
        assert_eq!(p1.get("score"), Some(&Value::Float(0.5)));
        assert_eq!(p1.get("hot"), Some(&Value::Bool(true)));
        assert!(!decoded.is_live(2));
        assert_eq!(decoded.payloads()[2].get("k"), Some(&Value::Int(7)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sann-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("docs.sann");
        save(&sample(), &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corruption() {
        let good = encode(&sample());
        assert!(matches!(decode(b"JUNK"), Err(Error::Corrupt(_))));
        assert!(matches!(decode(&good[..10]), Err(Error::Corrupt(_))));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(decode(&bad_version), Err(Error::Corrupt(_))));
        let mut bad_metric = good.clone();
        // metric byte sits after magic+version+name(len 4 + "docs")
        bad_metric[4 + 1 + 4 + 4] = 7;
        assert!(matches!(decode(&bad_metric), Err(Error::Corrupt(_))));
        // A bare header (empty name, L2, dim 1) that declares 2^62 rows:
        // the byte count of its vectors overflows usize.
        let mut huge = ByteWriter::new();
        huge.put_slice(MAGIC);
        huge.put_u8(VERSION);
        huge.put_str("");
        huge.put_u8(0);
        huge.put_u32_le(1);
        huge.put_u64_le(1 << 62);
        assert_eq!(huge.as_slice().len(), 22);
        assert!(matches!(decode(huge.as_slice()), Err(Error::Corrupt(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(load("/nonexistent/sann.snap"), Err(Error::Io(_))));
    }
}
