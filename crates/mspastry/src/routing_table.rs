//! Pastry routing table with proximity-aware slot selection.
//!
//! The table is a matrix with `ceil(128/b)` rows and `2^b` columns. The entry
//! in row `r`, column `c` holds a nodeId that shares the first `r` digits
//! with the local node and has digit `r` equal to `c`. Proximity neighbour
//! selection (PNS) fills each slot with the *closest* qualifying node in the
//! underlying network; an entry is replaced when a closer candidate with a
//! measured distance shows up.
//!
//! Rows are allocated on demand: an overlay of N nodes fills only about
//! `log_{2^b} N` rows, so the table holds storage up to the deepest occupied
//! row only, and a row's slots are allocated when the first of them is
//! filled.

use crate::id::NodeId;

/// Distance value meaning "not measured yet" (treated as infinitely far, so
/// any measured candidate wins the slot).
pub const DIST_UNKNOWN: u64 = u64::MAX;

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtEntry {
    /// The entry's node identifier.
    pub id: NodeId,
    /// Measured round-trip distance to the node, microseconds;
    /// [`DIST_UNKNOWN`] if not measured.
    pub distance_us: u64,
}

/// Outcome of offering a candidate to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The slot was empty; the candidate was inserted.
    InsertedEmpty,
    /// The candidate replaced a farther (or unmeasured) entry.
    Replaced(NodeId),
    /// The candidate is already in the slot (distance possibly refreshed).
    Refreshed,
    /// The existing entry is closer; candidate rejected.
    Rejected,
    /// The candidate is the local node itself; ignored.
    SelfId,
}

/// A Pastry routing table.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    own: NodeId,
    b: u8,
    cols: usize,
    /// Rows up to the deepest occupied one; the last row is never empty. A
    /// row that was never filled is an empty (unallocated) `Vec`, otherwise
    /// it has `cols` slots.
    rows: Vec<Vec<Option<RtEntry>>>,
}

impl RoutingTable {
    /// Creates an empty table for the given local node.
    pub fn new(own: NodeId, b: u8) -> Self {
        RoutingTable {
            own,
            b,
            cols: 1usize << b,
            rows: Vec::new(),
        }
    }

    /// The local node's identifier.
    pub fn own(&self) -> NodeId {
        self.own
    }

    /// Number of columns (2^b).
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// The slot `(row, col)` a given node belongs in, or `None` for the local
    /// node itself.
    pub fn slot_of(&self, id: NodeId) -> Option<(usize, u8)> {
        if id == self.own {
            return None;
        }
        let row = self.own.shared_prefix_len(id, self.b);
        let col = id.digit(row, self.b);
        Some((row, col))
    }

    /// The entry at `(row, col)`, if any.
    pub fn get(&self, row: usize, col: u8) -> Option<RtEntry> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col as usize).copied().flatten())
    }

    /// The entry holding `id`, if present.
    pub fn entry_of(&self, id: NodeId) -> Option<RtEntry> {
        let (row, col) = self.slot_of(id)?;
        self.get(row, col).filter(|e| e.id == id)
    }

    /// `true` if `id` is in the table.
    pub fn contains(&self, id: NodeId) -> bool {
        self.entry_of(id).is_some()
    }

    /// Offers a candidate with a measured (or unknown) distance.
    ///
    /// PNS policy: an empty slot takes any candidate; an occupied slot is
    /// replaced only by a strictly closer candidate. Unmeasured incumbents
    /// are replaced by any measured candidate.
    pub fn offer(&mut self, id: NodeId, distance_us: u64) -> InsertOutcome {
        let Some((row, col)) = self.slot_of(id) else {
            return InsertOutcome::SelfId;
        };
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        let cells = &mut self.rows[row];
        if cells.is_empty() {
            cells.resize(self.cols, None);
        }
        let slot = &mut cells[col as usize];
        match slot {
            None => {
                *slot = Some(RtEntry { id, distance_us });
                InsertOutcome::InsertedEmpty
            }
            Some(e) if e.id == id => {
                // Keep the freshest measurement.
                if distance_us != DIST_UNKNOWN {
                    e.distance_us = distance_us;
                }
                InsertOutcome::Refreshed
            }
            Some(e) => {
                if distance_us < e.distance_us {
                    let old = e.id;
                    *slot = Some(RtEntry { id, distance_us });
                    InsertOutcome::Replaced(old)
                } else {
                    InsertOutcome::Rejected
                }
            }
        }
    }

    /// Removes `id` from the table; returns `true` if it was present. Rows
    /// left empty at the end of the table are released.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let Some((row, col)) = self.slot_of(id) else {
            return false;
        };
        let Some(slot) = self.rows.get_mut(row).and_then(|r| r.get_mut(col as usize)) else {
            return false;
        };
        if slot.map(|e| e.id) != Some(id) {
            return false;
        }
        *slot = None;
        while self
            .rows
            .last()
            .is_some_and(|r| r.iter().all(Option::is_none))
        {
            self.rows.pop();
        }
        true
    }

    /// Iterates over all entries.
    pub fn entries(&self) -> impl Iterator<Item = RtEntry> + '_ {
        self.rows.iter().flatten().flatten().copied()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.rows.iter().flatten().flatten().count()
    }

    /// `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The non-empty entries of row `r` (nodeIds only).
    pub fn row_ids(&self, r: usize) -> Vec<NodeId> {
        self.rows
            .get(r)
            .map(|row| row.iter().flatten().map(|e| e.id).collect())
            .unwrap_or_default()
    }

    /// Indices of rows that contain at least one entry.
    pub fn occupied_rows(&self) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&r| self.rows[r].iter().any(Option::is_some))
            .collect()
    }

    /// `true` if the slot the candidate belongs in is empty or unmeasured
    /// or farther than `distance_us` — i.e. offering with this distance would
    /// change the table. Used to decide whether a distance measurement is
    /// worth starting.
    pub fn would_accept(&self, id: NodeId, distance_us: u64) -> bool {
        match self.slot_of(id) {
            None => false,
            Some((row, col)) => match self.get(row, col) {
                None => true,
                Some(e) => e.id != id && distance_us < e.distance_us,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn own() -> NodeId {
        Id(0x5000_0000_0000_0000_0000_0000_0000_0000)
    }

    #[test]
    fn slot_invariants_hold_for_random_nodes() {
        let mut rng = SmallRng::seed_from_u64(7);
        for b in [1u8, 2, 4] {
            let rt = RoutingTable::new(own(), b);
            for _ in 0..500 {
                let id = Id::random(&mut rng);
                if id == own() {
                    continue;
                }
                let (row, col) = rt.slot_of(id).unwrap();
                assert_eq!(own().shared_prefix_len(id, b), row);
                assert_eq!(id.digit(row, b), col);
            }
        }
    }

    #[test]
    fn offer_fills_empty_slot_and_pns_replaces_farther() {
        let mut rt = RoutingTable::new(own(), 4);
        // Two ids in the same slot: first digit differs from own (5), both
        // start with digit 0x6.
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(rt.offer(a, 100), InsertOutcome::InsertedEmpty);
        assert_eq!(rt.offer(c, 200), InsertOutcome::Rejected);
        assert_eq!(rt.offer(c, 50), InsertOutcome::Replaced(a));
        assert_eq!(rt.entry_of(c).unwrap().distance_us, 50);
        assert!(!rt.contains(a));
    }

    #[test]
    fn measured_candidate_beats_unknown_incumbent() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        rt.offer(a, DIST_UNKNOWN);
        assert_eq!(rt.offer(c, 999), InsertOutcome::Replaced(a));
    }

    #[test]
    fn refresh_updates_distance() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        rt.offer(a, DIST_UNKNOWN);
        assert_eq!(rt.offer(a, 70), InsertOutcome::Refreshed);
        assert_eq!(rt.entry_of(a).unwrap().distance_us, 70);
    }

    #[test]
    fn own_id_is_never_inserted() {
        let mut rt = RoutingTable::new(own(), 4);
        assert_eq!(rt.offer(own(), 1), InsertOutcome::SelfId);
        assert!(rt.is_empty());
    }

    #[test]
    fn remove_only_removes_the_exact_node() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        rt.offer(a, 100);
        assert!(!rt.remove(c), "c occupies the same slot but is not present");
        assert!(rt.remove(a));
        assert!(rt.is_empty());
    }

    #[test]
    fn row_ids_and_occupied_rows() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000); // row 0
        let deep = Id(0x5aaa_0000_0000_0000_0000_0000_0000_0000); // row 1
        rt.offer(a, 10);
        rt.offer(deep, 20);
        assert_eq!(rt.occupied_rows(), vec![0, 1]);
        assert_eq!(rt.row_ids(0), vec![a]);
        assert_eq!(rt.row_ids(1), vec![deep]);
        assert_eq!(rt.len(), 2);
    }

    #[test]
    fn would_accept_matches_offer_semantics() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        assert!(rt.would_accept(a, DIST_UNKNOWN));
        rt.offer(a, 100);
        assert!(!rt.would_accept(a, 50), "already present");
        assert!(rt.would_accept(c, 50));
        assert!(!rt.would_accept(c, 150));
        assert!(!rt.would_accept(own(), 0));
    }

    #[test]
    fn average_occupied_rows_is_logarithmic() {
        // With N random nodes only ~log_{2^b} N rows have entries on average.
        let mut rng = SmallRng::seed_from_u64(8);
        let mut rt = RoutingTable::new(Id::random(&mut rng), 4);
        for _ in 0..1000 {
            rt.offer(Id::random(&mut rng), 100);
        }
        let occ = rt.occupied_rows().len();
        assert!(
            (2..=6).contains(&occ),
            "occupied rows {occ} for N=1000, b=4"
        );
    }

    /// The dense table the on-demand one must behave like: every row
    /// allocated, same PNS rules.
    struct Dense {
        rows: Vec<Vec<Option<RtEntry>>>,
    }

    impl Dense {
        fn offer(&mut self, rt: &RoutingTable, id: NodeId, distance_us: u64) {
            let Some((row, col)) = rt.slot_of(id) else {
                return;
            };
            let slot = &mut self.rows[row][col as usize];
            match slot {
                None => *slot = Some(RtEntry { id, distance_us }),
                Some(e) if e.id == id => {
                    if distance_us != DIST_UNKNOWN {
                        e.distance_us = distance_us;
                    }
                }
                Some(e) if distance_us < e.distance_us => *slot = Some(RtEntry { id, distance_us }),
                Some(_) => {}
            }
        }

        fn remove(&mut self, rt: &RoutingTable, id: NodeId) {
            if let Some((row, col)) = rt.slot_of(id) {
                let slot = &mut self.rows[row][col as usize];
                if slot.map(|e| e.id) == Some(id) {
                    *slot = None;
                }
            }
        }
    }

    /// An id sharing at least the first `depth` digits with `own`, so
    /// offers reach deep rows (`own` itself once `depth` covers the id).
    fn id_at_depth(own: NodeId, b: u8, depth: usize, noise: u128) -> NodeId {
        let keep = (depth * b as usize).min(128) as u32;
        let low_mask = u128::MAX.checked_shr(keep).unwrap_or(0);
        Id((own.0 & !low_mask) | (noise & low_mask))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn on_demand_rows_match_a_dense_table(
            own in any::<u128>(),
            b in prop::sample::select(vec![1u8, 2, 4]),
            pool in prop::collection::vec((0usize..40, any::<u128>()), 1..24),
            ops in prop::collection::vec(
                (0u8..3, 0usize..24, prop::sample::select(vec![DIST_UNKNOWN, 0, 5, 50, 500])),
                0..200,
            ),
        ) {
            let own = Id(own);
            let ids: Vec<NodeId> = pool
                .iter()
                .map(|&(depth, noise)| id_at_depth(own, b, depth, noise))
                .collect();
            let mut rt = RoutingTable::new(own, b);
            let cols = 1usize << b;
            let mut dense = Dense { rows: vec![vec![None; cols]; Id::rows(b)] };
            for (op, idx, dist) in ops {
                let id = ids[idx % ids.len()];
                if op == 0 {
                    dense.remove(&rt, id);
                    rt.remove(id);
                } else {
                    let probe = ids[(idx + 1) % ids.len()];
                    prop_assert_eq!(
                        rt.would_accept(probe, dist),
                        match rt.slot_of(probe) {
                            None => false,
                            Some((r, c)) => match dense.rows[r][c as usize] {
                                None => true,
                                Some(e) => e.id != probe && dist < e.distance_us,
                            },
                        }
                    );
                    dense.offer(&rt, id, dist);
                    rt.offer(id, dist);
                }

                let expected: Vec<RtEntry> = dense.rows.iter().flatten().flatten().copied().collect();
                prop_assert_eq!(rt.entries().collect::<Vec<_>>(), expected.clone());
                prop_assert_eq!(rt.len(), expected.len());
                prop_assert_eq!(rt.is_empty(), expected.is_empty());
                let occupied: Vec<usize> = (0..dense.rows.len())
                    .filter(|&r| dense.rows[r].iter().any(Option::is_some))
                    .collect();
                prop_assert_eq!(rt.occupied_rows(), occupied.clone());
                for (r, row) in dense.rows.iter().enumerate() {
                    let ids: Vec<NodeId> = row.iter().flatten().map(|e| e.id).collect();
                    prop_assert_eq!(rt.row_ids(r), ids);
                    for (c, &e) in row.iter().enumerate() {
                        prop_assert_eq!(rt.get(r, c as u8), e);
                    }
                }
                // Storage never extends past the deepest occupied row.
                let limit = occupied.last().map_or(0, |&r| r + 1);
                prop_assert_eq!(rt.rows.len(), limit);
                prop_assert!(rt.rows.iter().filter(|r| !r.is_empty()).count() <= limit);
                prop_assert!(rt.rows.iter().all(|r| r.is_empty() || r.len() == cols));
            }
        }
    }
}
