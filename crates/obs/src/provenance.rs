//! Provenance tags: *what* a device read fetched.
//!
//! The paper's I/O characterization (and the design-space-exploration work
//! it cites) hinges on breaking I/Os-per-query down by the data structure
//! the read served — graph adjacency fetches behave nothing like posting
//! list scans, even at identical request sizes. Every [`IoReq`] the index
//! layer emits carries exactly one [`IoProvenance`] tag; the engine threads
//! it through the device model so per-tag byte totals can be audited
//! against the raw I/O totals (they must sum exactly — see the engine's
//! provenance-conservation tests).
//!
//! The tag says what the bytes *are*; whether a read was absorbed by the
//! page cache or reached the device is orthogonal and tracked by the
//! engine's per-provenance cache-hit counters.
//!
//! [`IoReq`]: https://docs.rs/sann-index (the index crate's request type)

use std::fmt;

/// What a block read (or write) fetched, in the paper's taxonomy.
///
/// [`IoProvenance::Metadata`] doubles as the default for requests built
/// without an explicit tag (bootstrap reads, synthetic benchmark plans), so
/// untagged workloads stay representable without an "unknown" hole in the
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum IoProvenance {
    /// Graph node records: adjacency lists plus the co-located
    /// full-precision vector (DiskANN node reads, FreshDiskANN
    /// node reads and writes).
    GraphAdjacency,
    /// Packed full-precision vector blocks with no graph payload (a
    /// separate rerank fetch). No index tags these today.
    VectorBlock,
    /// IVF/SPANN posting lists: (id + full vector) entries scanned
    /// sequentially after centroid routing.
    IvfPostingList,
    /// Product-quantization code blocks (IVF-PQ posting lists of
    /// (id + code) entries).
    PqCodes,
    /// Everything else: index headers, centroid tables, untagged or
    /// synthetic requests.
    #[default]
    Metadata,
}

impl IoProvenance {
    /// All tags, in canonical (encoding and reporting) order.
    pub const ALL: [IoProvenance; 5] = [
        IoProvenance::GraphAdjacency,
        IoProvenance::VectorBlock,
        IoProvenance::IvfPostingList,
        IoProvenance::PqCodes,
        IoProvenance::Metadata,
    ];

    /// Number of tags.
    pub const COUNT: usize = IoProvenance::ALL.len();

    /// Position in [`IoProvenance::ALL`]; stable across the canonical
    /// encoding.
    pub fn index(self) -> usize {
        // sann-lint: allow(cast-truncation) -- fieldless discriminant in 0..COUNT
        self as usize
    }

    /// Short stable name used by exporters and report tables.
    pub fn name(self) -> &'static str {
        match self {
            IoProvenance::GraphAdjacency => "graph-adjacency",
            IoProvenance::VectorBlock => "vector-block",
            IoProvenance::IvfPostingList => "ivf-posting-list",
            IoProvenance::PqCodes => "pq-codes",
            IoProvenance::Metadata => "metadata",
        }
    }

    /// Parses the stable name back into a tag.
    pub fn parse(s: &str) -> Option<IoProvenance> {
        IoProvenance::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl fmt::Display for IoProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_and_indices() {
        for (i, p) in IoProvenance::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(IoProvenance::COUNT, 5);
    }

    #[test]
    fn default_is_metadata() {
        assert_eq!(IoProvenance::default(), IoProvenance::Metadata);
    }

    #[test]
    fn names_round_trip() {
        for p in IoProvenance::ALL {
            assert_eq!(IoProvenance::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(IoProvenance::parse("mystery"), None);
    }
}
