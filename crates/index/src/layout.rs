//! On-"disk" layouts for the storage-based indexes.
//!
//! The simulated device is addressed in 4 KiB sectors — the access granularity
//! the paper observes (O-15: >99.99 % of requests during DiskANN search are
//! 4 KiB). Layout rules follow DiskANN's `disk_index` format:
//!
//! * a node record is the full-precision vector followed by the degree and
//!   the neighbor ids, padded so records never straddle a sector boundary
//!   unless a single record is larger than one sector;
//! * records no larger than a sector are packed `floor(4096 / node_bytes)`
//!   per sector (768-d, R=64 → 3332 B → one node per sector);
//! * records larger than a sector span `ceil(node_bytes / 4096)` sectors and
//!   are fetched as *multiple 4 KiB requests*, one per sector (1536-d → two
//!   4 KiB requests per node) — which is why request size stays 4 KiB even
//!   for 1536-dimensional datasets.

use crate::trace::IoReq;
use sann_core::{cast, Error, Result};
use sann_obs::IoProvenance;

/// Device sector (and page-cache page) size in bytes.
pub const SECTOR_BYTES: u64 = 4096;

/// Maximum size of one sequential read request, mirroring the kernel's
/// `max_sectors_kb` style splitting that the paper's 128 KiB fio runs use.
pub const MAX_REQUEST_BYTES: u64 = 128 * 1024;

/// Sector-aligned placement of fixed-size node records (the DiskANN layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskLayout {
    node_bytes: u64,
    nodes_per_sector: u64,
    sectors_per_node: u64,
    n_nodes: u64,
}

impl DiskLayout {
    /// Creates a layout for `n_nodes` records of `node_bytes` bytes starting
    /// at byte 0 of the device.
    ///
    /// # Panics
    ///
    /// Panics if `node_bytes` is zero.
    pub fn new(n_nodes: u64, node_bytes: u64) -> DiskLayout {
        assert!(node_bytes > 0, "node_bytes must be positive");
        if node_bytes <= SECTOR_BYTES {
            DiskLayout {
                node_bytes,
                nodes_per_sector: SECTOR_BYTES / node_bytes,
                sectors_per_node: 1,
                n_nodes,
            }
        } else {
            DiskLayout {
                node_bytes,
                nodes_per_sector: 0,
                sectors_per_node: node_bytes.div_ceil(SECTOR_BYTES),
                n_nodes,
            }
        }
    }

    /// Bytes of one node record (before padding).
    pub fn node_bytes(&self) -> u64 {
        self.node_bytes
    }

    /// Records per sector (0 when a record spans multiple sectors).
    pub fn nodes_per_sector(&self) -> u64 {
        self.nodes_per_sector
    }

    /// Sectors per record (1 when records pack into sectors).
    pub fn sectors_per_node(&self) -> u64 {
        self.sectors_per_node
    }

    /// First sector (byte offset) of node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `id >= n_nodes` — an id a
    /// corrupt graph or a stale caller handed us, which must surface as a
    /// recoverable error rather than tearing down the whole sweep (the
    /// PR 5 panic-path policy).
    pub fn node_offset(&self, id: u64) -> Result<u64> {
        if id >= self.n_nodes {
            return Err(Error::invalid_parameter(
                "node_id",
                format!("id {id} out of range for layout of {} nodes", self.n_nodes),
            ));
        }
        Ok(
            if let Some(sector) = id.checked_div(self.nodes_per_sector) {
                sector * SECTOR_BYTES
            } else {
                id * self.sectors_per_node * SECTOR_BYTES
            },
        )
    }

    /// The read requests needed to fetch node `id`: one 4 KiB request per
    /// sector the record occupies, tagged with `provenance`. Needed bytes
    /// are the record's `node_bytes` spread over its sectors, so
    /// fetched-vs-needed accounting sees the sector padding exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `id >= n_nodes` (see
    /// [`DiskLayout::node_offset`]).
    pub fn node_reqs(&self, id: u64, provenance: IoProvenance) -> Result<Vec<IoReq>> {
        let first = self.node_offset(id)?;
        Ok((0..self.sectors_per_node.max(1))
            .map(|s| {
                let needed =
                    (self.node_bytes - (s * SECTOR_BYTES).min(self.node_bytes)).min(SECTOR_BYTES);
                IoReq::tagged(
                    first + s * SECTOR_BYTES,
                    cast::u32_from_u64(SECTOR_BYTES),
                    cast::u32_from_u64(needed),
                    provenance,
                )
            })
            .collect())
    }

    /// Total bytes the layout occupies on the device (sector-aligned).
    pub fn total_bytes(&self) -> u64 {
        if self.nodes_per_sector > 0 {
            self.n_nodes.div_ceil(self.nodes_per_sector) * SECTOR_BYTES
        } else {
            self.n_nodes * self.sectors_per_node * SECTOR_BYTES
        }
    }
}

/// Splits a contiguous byte range (e.g. an IVF posting list) into
/// sector-aligned sequential read requests of at most
/// [`MAX_REQUEST_BYTES`] each, tagged with `provenance`. Each request's
/// needed bytes are its overlap with the unaligned `[offset,
/// offset + bytes)` payload, so alignment slop at both ends counts as
/// amplification.
pub fn range_reqs(offset: u64, bytes: u64, provenance: IoProvenance) -> Vec<IoReq> {
    if bytes == 0 {
        return Vec::new();
    }
    let start = offset / SECTOR_BYTES * SECTOR_BYTES;
    let end = (offset + bytes).div_ceil(SECTOR_BYTES) * SECTOR_BYTES;
    let mut reqs = Vec::new();
    let mut at = start;
    while at < end {
        let len = (end - at).min(MAX_REQUEST_BYTES);
        let needed = (offset + bytes).min(at + len) - offset.max(at);
        reqs.push(IoReq::tagged(
            at,
            cast::u32_from_u64(len),
            cast::u32_from_u64(needed),
            provenance,
        ));
        at += len;
    }
    reqs
}

/// Posting lists stored back to back on the device, each starting on a
/// sector boundary (the IVF-PQ and SPANN layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingLayout {
    /// Byte offset and byte length of each list.
    lists: Vec<(u64, u64)>,
    total_bytes: u64,
}

impl PostingLayout {
    /// Places lists of `lens` entries of `entry_bytes` bytes each, in order.
    pub fn new(lens: impl IntoIterator<Item = usize>, entry_bytes: u64) -> PostingLayout {
        let mut end = 0;
        let lists = lens
            .into_iter()
            .map(|len| {
                let (offset, bytes) = (end, cast::u64_from_usize(len) * entry_bytes);
                end += bytes.div_ceil(SECTOR_BYTES) * SECTOR_BYTES;
                (offset, bytes)
            })
            .collect();
        PostingLayout {
            lists,
            total_bytes: end,
        }
    }

    /// The sequential read requests fetching list `c`, tagged with
    /// `provenance` (see [`range_reqs`]).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a list of the layout.
    pub fn reqs(&self, c: usize, provenance: IoProvenance) -> Vec<IoReq> {
        let (offset, bytes) = self.lists[c];
        range_reqs(offset, bytes, provenance)
    }

    /// Total bytes the lists occupy on the device (sector-aligned).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohere_node_fits_one_sector() {
        // 768-d f32 vector + degree u32 + 64 u32 neighbors = 3332 bytes.
        let layout = DiskLayout::new(1000, 768 * 4 + 4 + 64 * 4);
        assert_eq!(layout.nodes_per_sector(), 1);
        assert_eq!(layout.sectors_per_node(), 1);
        let reqs = layout.node_reqs(5, IoProvenance::GraphAdjacency).unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].len, 4096);
        assert_eq!(reqs[0].offset, 5 * 4096);
        assert_eq!(reqs[0].needed, 3332, "needed = record bytes, not sector");
        assert_eq!(reqs[0].provenance, IoProvenance::GraphAdjacency);
    }

    #[test]
    fn openai_node_spans_two_sectors_as_two_4k_requests() {
        // 1536-d f32 vector + degree + 64 neighbors = 6404 bytes.
        let layout = DiskLayout::new(1000, 1536 * 4 + 4 + 64 * 4);
        assert_eq!(layout.sectors_per_node(), 2);
        let reqs = layout.node_reqs(3, IoProvenance::GraphAdjacency).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(
            reqs.iter().map(|r| r.needed as u64).sum::<u64>(),
            6404,
            "needed bytes spread over the record's sectors"
        );
        assert_eq!(reqs[0].needed, 4096);
        assert_eq!(reqs[1].needed, 6404 - 4096);
        assert!(
            reqs.iter().all(|r| r.len == 4096),
            "O-15: requests stay 4 KiB"
        );
        assert_eq!(reqs[0].offset, 3 * 2 * 4096);
        assert_eq!(reqs[1].offset, 3 * 2 * 4096 + 4096);
    }

    #[test]
    fn small_nodes_pack() {
        let layout = DiskLayout::new(10, 1000);
        assert_eq!(layout.nodes_per_sector(), 4);
        assert_eq!(
            layout.node_offset(0).unwrap(),
            layout.node_offset(3).unwrap()
        );
        assert_ne!(
            layout.node_offset(3).unwrap(),
            layout.node_offset(4).unwrap()
        );
        assert_eq!(layout.total_bytes(), 3 * 4096);
    }

    #[test]
    fn posting_lists_sit_back_to_back_on_sector_boundaries() {
        let prov = IoProvenance::PqCodes;
        let layout = PostingLayout::new([3, 0, 1000], 100);
        assert_eq!(layout.reqs(0, prov), range_reqs(0, 300, prov));
        assert!(
            layout.reqs(1, prov).is_empty(),
            "an empty list reads nothing"
        );
        assert_eq!(layout.reqs(2, prov), range_reqs(4096, 100_000, prov));
        assert_eq!(
            layout.total_bytes(),
            4096 + 100_000u64.div_ceil(4096) * 4096
        );
    }

    #[test]
    fn out_of_range_id_is_an_error() {
        // Regression: this used to panic (`assert!(id < n_nodes)`), tearing
        // down a whole sweep on one corrupt graph edge. It must be a
        // recoverable InvalidParameter error instead.
        let layout = DiskLayout::new(4, 128);
        assert!(layout.node_offset(99).is_err());
        assert!(layout.node_reqs(99, IoProvenance::GraphAdjacency).is_err());
        assert!(layout.node_offset(3).is_ok(), "last valid id still works");
    }

    #[test]
    fn range_reqs_split_at_128k() {
        let reqs = range_reqs(0, 300 * 1024, IoProvenance::IvfPostingList);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].len, 128 * 1024);
        assert_eq!(reqs[1].len, 128 * 1024);
        assert_eq!(reqs[2].len as u64, 300 * 1024 - 256 * 1024);
        assert_eq!(reqs[1].offset, 128 * 1024);
        // An aligned range needs every byte it fetches.
        assert!(reqs.iter().all(|r| r.needed == r.len));
    }

    #[test]
    fn range_reqs_tail_needed_is_exact() {
        // Regression: the tail request's needed bytes must be the exact
        // payload overlap, not rounded up to the fetched sector — rounding
        // up silently deflates read-amplification stats for unaligned
        // ranges.
        let reqs = range_reqs(0, 128 * 1024 + 1, IoProvenance::IvfPostingList);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].needed, 128 * 1024);
        assert_eq!(reqs[1].len, 4096, "tail fetches a whole sector");
        assert_eq!(reqs[1].needed, 1, "but needs exactly one payload byte");

        // Unaligned start and tail, spanning a request split: slop at both
        // ends counts as amplification, everything in between is needed.
        let reqs = range_reqs(1000, 200 * 1024, IoProvenance::IvfPostingList);
        let total_needed: u64 = reqs.iter().map(|r| u64::from(r.needed)).sum();
        assert_eq!(total_needed, 200 * 1024, "needed sums to the payload");
        assert_eq!(reqs[0].needed as u64, 128 * 1024 - 1000);
        let tail = reqs.last().unwrap();
        assert_eq!(
            tail.needed as u64,
            200 * 1024 - (128 * 1024 - 1000),
            "tail needed is the remaining payload, not the fetched sectors"
        );
        assert!(u64::from(tail.needed) < u64::from(tail.len));
    }

    #[test]
    fn range_reqs_align_to_sectors() {
        let reqs = range_reqs(100, 200, IoProvenance::IvfPostingList);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].offset, 0);
        assert_eq!(reqs[0].len, 4096);
        assert_eq!(reqs[0].needed, 200, "only the payload overlap is needed");
    }

    #[test]
    fn range_reqs_empty() {
        assert!(range_reqs(4096, 0, IoProvenance::Metadata).is_empty());
    }
}
