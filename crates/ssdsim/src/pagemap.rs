//! A small open-addressed map keyed by page index.

/// Marks an empty cell. No device page has this index: page indices are
/// byte offsets divided by 4096.
const EMPTY: u64 = u64::MAX;

/// Linear-probing hash map from page index to a small `Copy` value, for the
/// two per-I/O lookups of the simulator (page → cache slot, page → read
/// count).
///
/// The hash is a fixed multiplicative one, so the table's layout is a
/// function of the insertion history alone and identical from run to run.
/// Callers only ever read it by key, by length, or as an unordered bag of
/// entries.
#[derive(Debug, Clone)]
pub(crate) struct PageMap<V> {
    /// `(page, value)` cells; the length is a power of two and at least
    /// twice `len`, so a probe always meets an empty cell.
    cells: Vec<(u64, V)>,
    len: usize,
}

impl<V: Copy + Default> PageMap<V> {
    pub(crate) fn new() -> PageMap<V> {
        PageMap {
            cells: vec![(EMPTY, V::default()); 16],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.cells.fill((EMPTY, V::default()));
        self.len = 0;
    }

    /// The entries, in table order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.cells
            .iter()
            .copied()
            .filter(|&(page, _)| page != EMPTY)
    }

    fn mask(&self) -> usize {
        self.cells.len() - 1
    }

    /// Where the probe for `page` starts: the top bits of a Fibonacci hash,
    /// so pages a fixed stride apart do not pile into one run.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn home(&self, page: u64) -> usize {
        let bits = self.cells.len().trailing_zeros();
        // The shift leaves `bits` bits: an index below `cells.len()`.
        sann_core::cast::usize_from_u64(page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits))
    }

    /// The cell holding `page`, or the empty cell where it would go.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    fn probe(&self, page: u64) -> usize {
        debug_assert!(page != EMPTY, "page index collides with the empty marker");
        let mut at = self.home(page);
        while let Some(&(held, _)) = self.cells.get(at) {
            if held == page || held == EMPTY {
                break;
            }
            at = (at + 1) & self.mask();
        }
        at
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(crate) fn get(&self, page: u64) -> Option<V> {
        match self.cells.get(self.probe(page)) {
            Some(&(held, value)) if held == page => Some(value),
            _ => None,
        }
    }

    /// The value of `page`, entered as `V::default()` when absent. (`None`
    /// only if a probe left the table, which its mask rules out.)
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(crate) fn entry(&mut self, page: u64) -> Option<&mut V> {
        let mut at = self.probe(page);
        if self.cells.get(at).is_some_and(|cell| cell.0 == EMPTY) {
            if (self.len + 1) * 2 > self.cells.len() {
                self.grow();
                at = self.probe(page);
            }
            self.len += 1;
        }
        let cell = self.cells.get_mut(at)?;
        cell.0 = page;
        Some(&mut cell.1)
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[deny(clippy::indexing_slicing)]
    pub(crate) fn remove(&mut self, page: u64) {
        let mut hole = self.probe(page);
        if self.cells.get(hole).is_none_or(|cell| cell.0 != page) {
            return;
        }
        self.len -= 1;
        // Backward-shift deletion: each later member of the probe run moves
        // into the hole unless that would put it before its home cell.
        let mut at = hole;
        loop {
            at = (at + 1) & self.mask();
            let Some(&(held, value)) = self.cells.get(at) else {
                break;
            };
            if held == EMPTY {
                break;
            }
            let home = self.home(held);
            let stays = if hole <= at {
                hole < home && home <= at
            } else {
                hole < home || home <= at
            };
            if !stays {
                if let Some(cell) = self.cells.get_mut(hole) {
                    *cell = (held, value);
                }
                hole = at;
            }
        }
        if let Some(cell) = self.cells.get_mut(hole) {
            *cell = (EMPTY, V::default());
        }
    }

    fn grow(&mut self) {
        let doubled = vec![(EMPTY, V::default()); self.cells.len() * 2];
        for (page, value) in std::mem::replace(&mut self.cells, doubled) {
            if page != EMPTY {
                let at = self.probe(page);
                if let Some(cell) = self.cells.get_mut(at) {
                    *cell = (page, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sann_core::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Behaves as a `BTreeMap` under random inserts, updates and removals,
    /// on a key range small enough to force long probe runs and wrap-around.
    #[test]
    fn matches_a_btreemap() {
        let mut rng = SplitMix64::new(11);
        let mut fast: PageMap<u64> = PageMap::new();
        let mut slow: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..60_000u64 {
            let page = rng.next_bounded(700) * 17;
            match rng.next_bounded(3) {
                0 => {
                    fast.remove(page);
                    slow.remove(&page);
                }
                _ => {
                    *fast.entry(page).unwrap() += step;
                    *slow.entry(page).or_insert(0) += step;
                }
            }
            assert_eq!(fast.len(), slow.len());
            let probe = rng.next_bounded(700) * 17;
            assert_eq!(fast.get(probe), slow.get(&probe).copied());
        }
        assert_eq!(fast.iter().collect::<BTreeMap<_, _>>(), slow);
        fast.clear();
        assert_eq!(fast.len(), 0);
        assert_eq!(fast.get(17), None);
    }
}
