//! Page-aligned neighbor co-location: the "page-aligned" point of the I/O
//! design space.
//!
//! The naive [`DiskLayout`](crate::layout::DiskLayout) packs node records
//! sequentially by id, so a beam of `W` frontier nodes costs `W` device
//! reads regardless of how related the nodes are. The design-space papers
//! (Li et al.; LAANN) observe that graph neighbors are overwhelmingly
//! likely to be visited together, and pack a node's record *with its
//! highest-degree neighbors* into one multi-sector page. A page fetch then
//! serves several future visits at once: any co-resident node the search
//! later reaches is already in memory and costs no read at all (in-page
//! duplicate-visit elimination).
//!
//! Catalog shapes (768-d → 3332 B records, 1536-d → 6404 B) fit at most one
//! record per 4 KiB sector, so co-location requires pages of several
//! sectors: the layout picks the smallest page of at most
//! [`MAX_PAGE_SECTORS`] sectors that holds at least two records (8 KiB for
//! 768-d, 16 KiB for 1536-d) and fetches each page as *one* sector-multiple
//! request — larger than the naive 4 KiB requests, but far fewer of them.

use crate::layout::SECTOR_BYTES;
use crate::trace::IoReq;
use crate::vamana::VamanaGraph;
use sann_core::{cast, Error, Result};
use sann_obs::IoProvenance;

/// Upper bound on the page size, in sectors. Pages beyond 16 KiB stop
/// paying for themselves: the extra fetched bytes outgrow the saved
/// requests (and `MAX_REQUEST_BYTES` splitting would re-fragment them).
pub const MAX_PAGE_SECTORS: u64 = 4;

/// Page-aligned placement of node records co-located with their neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedLayout {
    node_bytes: u64,
    /// Page size in bytes (a multiple of [`SECTOR_BYTES`]).
    page_bytes: u64,
    /// Record capacity of one page.
    nodes_per_page: u64,
    /// `page_of[id]` = page index holding node `id`'s record.
    page_of: Vec<u32>,
    /// Number of pages.
    n_pages: u64,
}

impl PagedLayout {
    /// Builds the packing for `graph` with `node_bytes`-byte records
    /// starting at byte 0 of the device.
    ///
    /// Packing is greedy and fully deterministic (it must reproduce
    /// identically from a persisted graph): nodes are seeded in
    /// (degree descending, id ascending) order — high-degree hubs are the
    /// most co-visited — and each seed's page is filled with its still
    /// unassigned neighbors in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `node_bytes` is zero (a construction-time programming
    /// error, exactly as in
    /// [`DiskLayout::new`](crate::layout::DiskLayout::new)).
    pub fn new(graph: &VamanaGraph, node_bytes: u64) -> PagedLayout {
        assert!(node_bytes > 0, "node_bytes must be positive");
        // Smallest page of <= MAX_PAGE_SECTORS sectors holding >= 2 records;
        // if no such page exists the layout degenerates to one record per
        // page (no co-location possible at sane page sizes).
        let (page_bytes, nodes_per_page) = (1..=MAX_PAGE_SECTORS)
            .map(|s| (s * SECTOR_BYTES, s * SECTOR_BYTES / node_bytes))
            .find(|&(_, per)| per >= 2)
            .unwrap_or_else(|| {
                let sectors = node_bytes.div_ceil(SECTOR_BYTES);
                (sectors * SECTOR_BYTES, 1)
            });

        // Degree-descending seed order; id ascending breaks ties so the
        // packing is independent of iteration incidentals.
        let mut order: Vec<u32> = (0..cast::u32_from_usize(graph.len())).collect();
        order.sort_by_key(|&id| (std::cmp::Reverse(graph.neighbors(id).len()), id));

        let mut page_of = vec![u32::MAX; graph.len()];
        let mut next_page = 0u32;
        for &seed in &order {
            if page_of[seed as usize] != u32::MAX {
                continue;
            }
            // Open a fresh page for the seed...
            let page = next_page;
            next_page += 1;
            page_of[seed as usize] = page;
            let slots = nodes_per_page - 1;
            if slots == 0 {
                continue;
            }
            // ...and co-locate its hottest unassigned neighbors.
            let mut nbrs: Vec<u32> = graph
                .neighbors(seed)
                .iter()
                .copied()
                .filter(|&nb| page_of[nb as usize] == u32::MAX)
                .collect();
            nbrs.sort_by_key(|&id| (std::cmp::Reverse(graph.neighbors(id).len()), id));
            for nb in nbrs.into_iter().take(slots as usize) {
                page_of[nb as usize] = page;
            }
        }
        PagedLayout {
            node_bytes,
            page_bytes,
            nodes_per_page,
            page_of,
            n_pages: u64::from(next_page),
        }
    }

    /// Bytes of one node record (before padding).
    pub fn node_bytes(&self) -> u64 {
        self.node_bytes
    }

    /// Page size in bytes (sector multiple).
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Record capacity of one page.
    pub fn nodes_per_page(&self) -> u64 {
        self.nodes_per_page
    }

    /// Number of pages in the packing.
    pub fn n_pages(&self) -> u64 {
        self.n_pages
    }

    /// The page holding node `id`'s record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `id` is out of range (the
    /// PR 5 panic-path policy: a corrupt edge must not tear down a sweep).
    pub fn page_of(&self, id: u64) -> Result<u32> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.page_of.get(i))
            .copied()
            .ok_or_else(|| self.out_of_range(id))
    }

    /// The error [`PagedLayout::page_of`] returns for an `id` past the last
    /// node, built out of line so the hot lookup does not format.
    #[cold]
    fn out_of_range(&self, id: u64) -> Error {
        Error::invalid_parameter(
            "node_id",
            format!(
                "id {id} out of range for paged layout of {} nodes",
                self.page_of.len()
            ),
        )
    }

    /// Device byte offset of `page`.
    pub fn page_offset(&self, page: u32) -> u64 {
        u64::from(page) * self.page_bytes
    }

    /// The single request fetching `page`, with `nodes_used` records'
    /// worth of payload counted as needed (the frontier nodes this fetch
    /// serves; co-resident records used on later hops ride for free and
    /// are not counted — speculative bytes are amplification until used).
    pub fn page_req(&self, page: u32, nodes_used: u64, provenance: IoProvenance) -> IoReq {
        let len = cast::u32_from_u64(self.page_bytes);
        let needed = cast::u32_from_u64((self.node_bytes * nodes_used).min(self.page_bytes));
        IoReq::tagged(self.page_offset(page), len, needed, provenance)
    }

    /// Total bytes the packing occupies on the device.
    pub fn total_bytes(&self) -> u64 {
        self.n_pages * self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vamana::VamanaConfig;
    use sann_core::Metric;
    use sann_datagen::EmbeddingModel;

    fn small_graph() -> VamanaGraph {
        let base = EmbeddingModel::new(32, 4, 9).generate(500);
        VamanaGraph::build(
            &base,
            Metric::L2,
            VamanaConfig {
                r: 16,
                l_build: 40,
                ..VamanaConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn catalog_shapes_get_multi_sector_pages() {
        let graph = small_graph();
        // 768-d record: 3332 B -> 8 KiB page holding 2 records.
        let p768 = PagedLayout::new(&graph, 3332);
        assert_eq!(p768.page_bytes(), 8192);
        assert_eq!(p768.nodes_per_page(), 2);
        // 1536-d record: 6404 B -> 16 KiB page holding 2 records.
        let p1536 = PagedLayout::new(&graph, 6404);
        assert_eq!(p1536.page_bytes(), 16384);
        assert_eq!(p1536.nodes_per_page(), 2);
        // Tiny records pack many to a single sector.
        let tiny = PagedLayout::new(&graph, 1000);
        assert_eq!(tiny.page_bytes(), 4096);
        assert_eq!(tiny.nodes_per_page(), 4);
    }

    #[test]
    fn oversized_records_degenerate_to_singleton_pages() {
        let graph = small_graph();
        let huge = PagedLayout::new(&graph, 20_000);
        assert_eq!(huge.nodes_per_page(), 1);
        assert_eq!(huge.page_bytes(), 20_000u64.div_ceil(4096) * 4096);
    }

    #[test]
    fn every_node_is_placed_and_pages_respect_capacity() {
        let graph = small_graph();
        let layout = PagedLayout::new(&graph, 3332);
        let mut per_page = vec![0u64; layout.n_pages() as usize];
        for id in 0..graph.len() as u64 {
            per_page[layout.page_of(id).unwrap() as usize] += 1;
        }
        assert!(per_page.iter().all(|&c| (1..=2).contains(&c)));
        assert_eq!(per_page.iter().sum::<u64>(), graph.len() as u64);
    }

    #[test]
    fn co_location_pairs_neighbors() {
        // Most pages with 2 occupants must hold a genuine graph edge —
        // that is the whole point of the packing.
        let graph = small_graph();
        let layout = PagedLayout::new(&graph, 3332);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); layout.n_pages() as usize];
        for id in 0..graph.len() as u32 {
            members[layout.page_of(u64::from(id)).unwrap() as usize].push(id);
        }
        let pairs: Vec<&Vec<u32>> = members.iter().filter(|m| m.len() == 2).collect();
        assert!(!pairs.is_empty(), "some pages must be full");
        let linked = pairs
            .iter()
            .filter(|m| {
                graph.neighbors(m[0]).contains(&m[1]) || graph.neighbors(m[1]).contains(&m[0])
            })
            .count();
        assert!(
            linked * 10 >= pairs.len() * 9,
            "{linked}/{} co-located pairs share an edge",
            pairs.len()
        );
    }

    #[test]
    fn packing_is_deterministic() {
        let graph = small_graph();
        let a = PagedLayout::new(&graph, 3332);
        let b = PagedLayout::new(&graph, 3332);
        assert_eq!(a, b);
    }

    #[test]
    fn page_reqs_are_sector_multiples_with_exact_needed() {
        let graph = small_graph();
        let layout = PagedLayout::new(&graph, 3332);
        let req = layout.page_req(3, 2, IoProvenance::GraphAdjacency);
        assert_eq!(req.offset, 3 * 8192);
        assert_eq!(req.len, 8192);
        assert_eq!(req.needed, 2 * 3332);
        assert_eq!(req.offset % 4096, 0);
        // needed never exceeds the fetch, even if a caller over-counts.
        let capped = layout.page_req(0, 10, IoProvenance::GraphAdjacency);
        assert_eq!(capped.needed, capped.len);
    }

    #[test]
    fn out_of_range_id_is_an_error() {
        let graph = small_graph();
        let layout = PagedLayout::new(&graph, 3332);
        assert!(layout.page_of(9999).is_err());
        assert!(layout.page_of(graph.len() as u64 - 1).is_ok());
    }
}
