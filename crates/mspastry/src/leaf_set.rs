//! The leaf set: the `l/2` closest nodeIds on each side of the local node.
//!
//! Leaf sets connect the overlay nodes in a ring and are the foundation of
//! consistent routing: a key is delivered by the node whose identifier is
//! closest to it, and the leaf set is how a node knows whether that node is
//! itself.

use crate::id::{closer_to, Key, NodeId};

/// The leaf set of a Pastry node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSet {
    own: NodeId,
    half: usize,
    /// Counter-clockwise neighbours, closest first (`left[0]` is the
    /// immediate predecessor; `left.last()` is the leftmost member).
    left: Vec<NodeId>,
    /// Clockwise neighbours, closest first.
    right: Vec<NodeId>,
    /// `true` when some node sits on both sides: the overlay is smaller than
    /// `l` and the leaf set wraps the entire ring.
    overlap: bool,
}

impl LeafSet {
    /// Creates an empty leaf set holding up to `half` nodes per side.
    ///
    /// # Panics
    ///
    /// Panics if `half == 0`.
    pub fn new(own: NodeId, half: usize) -> Self {
        assert!(half > 0, "leaf set half size must be positive");
        LeafSet {
            own,
            half,
            left: Vec::with_capacity(half),
            right: Vec::with_capacity(half),
            overlap: false,
        }
    }

    /// The local node's identifier.
    pub fn own(&self) -> NodeId {
        self.own
    }

    /// Maximum nodes per side (`l/2`).
    pub fn half(&self) -> usize {
        self.half
    }

    /// Current left-side members, closest first.
    pub fn left(&self) -> &[NodeId] {
        &self.left
    }

    /// Current right-side members, closest first.
    pub fn right(&self) -> &[NodeId] {
        &self.right
    }

    /// The immediate counter-clockwise neighbour, if known.
    pub fn left_neighbor(&self) -> Option<NodeId> {
        self.left.first().copied()
    }

    /// The immediate clockwise neighbour, if known.
    pub fn right_neighbor(&self) -> Option<NodeId> {
        self.right.first().copied()
    }

    /// The farthest member on the left side.
    pub fn leftmost(&self) -> Option<NodeId> {
        self.left.last().copied()
    }

    /// The farthest member on the right side.
    pub fn rightmost(&self) -> Option<NodeId> {
        self.right.last().copied()
    }

    /// Iterates over all distinct members without allocating (a node can sit
    /// on both sides in a small overlay; such duplicates are yielded once).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        // A node appears on both sides only when the set wraps the ring
        // (`overlap`), so the dedup scan is skipped entirely in the common
        // large-overlay case.
        self.left.iter().copied().chain(
            self.right
                .iter()
                .copied()
                .filter(move |r| !self.overlap || !self.left.contains(r)),
        )
    }

    /// All distinct members (a node can sit on both sides in a small
    /// overlay).
    pub fn members(&self) -> Vec<NodeId> {
        let mut m = Vec::with_capacity(self.left.len() + self.right.len());
        m.extend(self.iter());
        m
    }

    /// `true` if `id` is a member of either side.
    pub fn contains(&self, id: NodeId) -> bool {
        self.left.contains(&id) || self.right.contains(&id)
    }

    /// Offers `id` for membership; returns `true` if the set changed.
    ///
    /// The caller is responsible for the consistency rule that a node is only
    /// added after a message has been received directly from it (or during
    /// the join bootstrap, where every candidate is probed before the node
    /// becomes active).
    pub fn add(&mut self, id: NodeId) -> bool {
        if id == self.own {
            return false;
        }
        let ccw = self.own.ccw_dist(id);
        let cw = self.own.cw_dist(id);
        let l = Self::insert_side(
            &mut self.left,
            id,
            ccw,
            self.half,
            |o, n| o.ccw_dist(n),
            self.own,
        );
        let r = Self::insert_side(
            &mut self.right,
            id,
            cw,
            self.half,
            |o, n| o.cw_dist(n),
            self.own,
        );
        if l || r {
            self.recompute_overlap();
        }
        l || r
    }

    fn recompute_overlap(&mut self) {
        self.overlap = self.left.iter().any(|l| self.right.contains(l));
    }

    fn insert_side(
        side: &mut Vec<NodeId>,
        id: NodeId,
        dist: u128,
        half: usize,
        dist_of: impl Fn(NodeId, NodeId) -> u128,
        own: NodeId,
    ) -> bool {
        if side.contains(&id) {
            return false;
        }
        let pos = side
            .iter()
            .position(|&m| dist_of(own, m) > dist)
            .unwrap_or(side.len());
        if pos >= half {
            return false;
        }
        side.insert(pos, id);
        side.truncate(half);
        true
    }

    /// Of `candidates` that pass `eligible`, returns those that would belong
    /// to the leaf set if every such candidate were admitted — i.e. the
    /// subset actually worth probing before insertion. The pre-filter lets
    /// callers pass a raw peer leaf set without first collecting the eligible
    /// subset into a temporary vector.
    ///
    /// Probing every admissible candidate would be wasteful: after one member
    /// fails, *all* nodes beyond the span become admissible for the single
    /// open slot, but only the closest one can end up in the set.
    pub fn useful_candidates(
        &self,
        candidates: &[NodeId],
        eligible: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut useful: Vec<NodeId> = Vec::new();
        let ccw = |n: NodeId| self.own.ccw_dist(n);
        let cw = |n: NodeId| self.own.cw_dist(n);
        // Ring distances from a fixed origin are injective and both sides are
        // kept sorted by distance, so membership testing is a binary search,
        // and a candidate beyond the span of both (full) sides cannot join
        // either would-be set and is dropped outright. In a stable overlay
        // almost every candidate is already a member, making this the hot
        // path: no allocation happens until something is actually admissible.
        let left_full = self.left.len() == self.half;
        let right_full = self.right.len() == self.half;
        let mut adm: Vec<(NodeId, u128, u128)> = Vec::new();
        for &c in candidates {
            if c == self.own || !eligible(c) {
                continue;
            }
            let dc = ccw(c);
            let dw = cw(c);
            if left_full
                && right_full
                && dc > ccw(*self.left.last().expect("full side"))
                && dw > cw(*self.right.last().expect("full side"))
            {
                continue;
            }
            if self.left.binary_search_by(|&m| ccw(m).cmp(&dc)).is_ok()
                || self.right.binary_search_by(|&m| cw(m).cmp(&dw)).is_ok()
            {
                continue;
            }
            adm.push((c, dc, dw));
        }
        if adm.is_empty() {
            return useful;
        }
        let mut cand: Vec<(u128, NodeId)> = Vec::with_capacity(adm.len());
        for left_side in [true, false] {
            let side = if left_side { &self.left } else { &self.right };
            cand.clear();
            cand.extend(
                adm.iter()
                    .map(|&(c, dc, dw)| (if left_side { dc } else { dw }, c)),
            );
            // Distinct ids have distinct ring distances from `own`, so the
            // sort order is total and duplicate candidates are adjacent.
            cand.sort_unstable();
            cand.dedup();
            // `side` is kept sorted by distance, so merging it with the
            // sorted candidates enumerates the would-be leaf set in order;
            // candidates among the first `half` merged entries survive.
            let dist_of = |n: NodeId| if left_side { ccw(n) } else { cw(n) };
            let (mut si, mut ci, mut taken) = (0usize, 0usize, 0usize);
            while taken < self.half && ci < cand.len() {
                if si < side.len() && dist_of(side[si]) < cand[ci].0 {
                    si += 1;
                } else {
                    let id = cand[ci].1;
                    if !useful.contains(&id) {
                        useful.push(id);
                    }
                    ci += 1;
                }
                taken += 1;
            }
        }
        useful
    }

    /// Removes `id` from both sides; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let before = self.left.len() + self.right.len();
        self.left.retain(|&m| m != id);
        self.right.retain(|&m| m != id);
        let changed = before != self.left.len() + self.right.len();
        if changed {
            self.recompute_overlap();
        }
        changed
    }

    /// `true` when the leaf set is complete: both sides full, or the sides
    /// overlap (the whole overlay is smaller than `l` and the set wraps the
    /// ring), or the set is empty (singleton overlay).
    pub fn is_complete(&self) -> bool {
        if self.left.is_empty() && self.right.is_empty() {
            return true;
        }
        if self.left.len() == self.half && self.right.len() == self.half {
            return true;
        }
        self.overlap
    }

    /// `true` if the destination key lies between the leftmost and rightmost
    /// leaf-set members (Fig. 2's coverage test). An empty set covers
    /// everything (singleton overlay), as does an overlapping set (the whole
    /// overlay is inside the leaf set); a one-sided set covers nothing.
    pub fn covers(&self, key: Key) -> bool {
        if self.overlap {
            return true;
        }
        match (self.leftmost(), self.rightmost()) {
            (None, None) => true,
            (Some(lm), Some(rm)) => key.on_cw_arc(lm, rm),
            _ => false,
        }
    }

    /// The member (or the local node) closest to `key`, excluding the nodes
    /// for which `excluded` returns `true` (the local node is never
    /// excluded).
    pub fn closest_to(&self, key: Key, excluded: impl Fn(NodeId) -> bool) -> NodeId {
        let members = || self.left.iter().chain(self.right.iter()).copied();
        // `closer_to` is a strict total order (ties break by id), so when the
        // unconstrained winner is admissible it also wins the filtered scan:
        // the common case asks `excluded` once.
        let best = members().fold(self.own, |b, m| closer_to(key, b, m));
        if best == self.own || !excluded(best) {
            return best;
        }
        members()
            .filter(|&m| !excluded(m))
            .fold(self.own, |b, m| closer_to(key, b, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    fn ls(own: u128, half: usize) -> LeafSet {
        LeafSet::new(Id(own), half)
    }

    #[test]
    fn add_orders_sides_by_ring_distance() {
        let mut s = ls(1000, 2);
        assert!(s.add(Id(1100)));
        assert!(s.add(Id(1050)));
        assert!(s.add(Id(900)));
        assert!(s.add(Id(990)));
        assert_eq!(s.right(), &[Id(1050), Id(1100)]);
        assert_eq!(s.left(), &[Id(990), Id(900)]);
        assert_eq!(s.right_neighbor(), Some(Id(1050)));
        assert_eq!(s.left_neighbor(), Some(Id(990)));
        assert_eq!(s.rightmost(), Some(Id(1100)));
        assert_eq!(s.leftmost(), Some(Id(900)));
    }

    #[test]
    fn farther_candidates_are_dropped_when_full() {
        let mut s = ls(1000, 2);
        s.add(Id(1010));
        s.add(Id(1020));
        // 1030 does not fit the right side (1010 and 1020 are closer) but it
        // *is* the closest predecessor going counter-clockwise around the
        // ring, so it lands on the left side.
        assert!(s.add(Id(1030)));
        assert!(!s.right().contains(&Id(1030)));
        assert_eq!(s.left()[0], Id(1030));
        assert!(s.add(Id(1005)), "closer node displaces the farthest");
        assert_eq!(s.right(), &[Id(1005), Id(1010)]);
    }

    #[test]
    fn small_overlay_nodes_appear_on_both_sides() {
        // Overlay of two nodes: the other node is both predecessor and
        // successor.
        let mut s = ls(0, 2);
        s.add(Id(1 << 100));
        assert_eq!(s.left().len(), 1);
        assert_eq!(s.right().len(), 1);
        assert!(s.is_complete(), "overlapping sides mean a complete set");
    }

    #[test]
    fn completeness_full_sides() {
        let mut s = ls(1000, 2);
        for id in [900u128, 950, 1050, 1100] {
            s.add(Id(id));
        }
        assert!(s.is_complete());
        s.remove(Id(900));
        assert!(!s.is_complete());
    }

    #[test]
    fn empty_set_is_complete_and_covers_everything() {
        let s = ls(1000, 2);
        assert!(s.is_complete());
        assert!(s.covers(Id(123)));
    }

    #[test]
    fn coverage_arc() {
        let mut s = ls(1000, 2);
        for id in [900u128, 950, 1050, 1100] {
            s.add(Id(id));
        }
        assert!(s.covers(Id(1000)));
        assert!(s.covers(Id(901)));
        assert!(s.covers(Id(1099)));
        assert!(!s.covers(Id(2000)));
        assert!(!s.covers(Id(0)));
    }

    #[test]
    fn one_sided_set_covers_nothing() {
        let mut s = ls(1000, 2);
        // Nodes so close to own on one side that both sides hold the same
        // two nodes would be overlap; construct a genuinely one-sided view.
        s.right.push(Id(1010));
        assert!(!s.covers(Id(1005)));
    }

    #[test]
    fn closest_to_matches_naive_oracle() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for round in 0..300 {
            let own = Id::random(&mut rng);
            // Small sets wrap the ring, so some members sit on both sides.
            let mut s = LeafSet::new(own, 1 + round % 4);
            for _ in 0..(round % 13) {
                s.add(Id::random(&mut rng));
            }
            let key = Id::random(&mut rng);
            let mut members = s.members();
            members.push(own);
            // Filter, then reduce; the local node is never excluded.
            let naive = |excluded: &dyn Fn(NodeId) -> bool| {
                members
                    .iter()
                    .copied()
                    .filter(|&m| m == own || !excluded(m))
                    .reduce(|a, b| closer_to(key, a, b))
                    .unwrap()
            };
            let winner = naive(&|_| false);
            assert_eq!(s.closest_to(key, |_| false), winner);
            // Excluding the unconstrained winner forces the filtered scan.
            let not_winner = |n: NodeId| n == winner;
            assert_eq!(s.closest_to(key, not_winner), naive(&not_winner));
            // A random subset, sometimes naming the local node too.
            let subset: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let in_subset = |n: NodeId| subset.contains(&n);
            assert_eq!(s.closest_to(key, in_subset), naive(&in_subset));
            let all = |_: NodeId| true;
            assert_eq!(s.closest_to(key, all), own);
        }
    }

    #[test]
    fn closest_to_respects_exclusions() {
        let mut s = ls(1000, 2);
        s.add(Id(1100));
        s.add(Id(900));
        let c = s.closest_to(Id(1090), |n| n == Id(1100));
        assert_eq!(c, Id(1000), "excluded best falls back to own");
    }

    #[test]
    fn useful_candidates_matches_naive_merge_oracle() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        // Reference implementation: merge each side with every admissible
        // candidate, sort, and keep candidates landing in the first `half`.
        fn naive(s: &LeafSet, candidates: &[NodeId]) -> Vec<NodeId> {
            let mut useful: Vec<NodeId> = Vec::new();
            for (side, dist_of) in [
                (
                    &s.left,
                    &(|n: NodeId| s.own.ccw_dist(n)) as &dyn Fn(NodeId) -> u128,
                ),
                (&s.right, &|n: NodeId| s.own.cw_dist(n)),
            ] {
                let mut merged: Vec<(u128, NodeId, bool)> =
                    side.iter().map(|&m| (dist_of(m), m, false)).collect();
                for &c in candidates {
                    if c != s.own && !s.contains(c) && !merged.iter().any(|&(_, m, _)| m == c) {
                        merged.push((dist_of(c), c, true));
                    }
                }
                merged.sort_unstable();
                for &(_, id, is_candidate) in merged.iter().take(s.half) {
                    if is_candidate && !useful.contains(&id) {
                        useful.push(id);
                    }
                }
            }
            useful
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for round in 0..200 {
            let own = Id::random(&mut rng);
            let mut s = LeafSet::new(own, 1 + round % 5);
            for _ in 0..(round % 12) {
                s.add(Id::random(&mut rng));
            }
            let mut candidates: Vec<NodeId> =
                (0..(round % 9)).map(|_| Id::random(&mut rng)).collect();
            // Throw in duplicates, members and the node's own id.
            if let Some(&m) = s.left().first() {
                candidates.push(m);
            }
            if let Some(&c) = candidates.first() {
                candidates.push(c);
            }
            candidates.push(own);
            assert_eq!(
                s.useful_candidates(&candidates, |_| true),
                naive(&s, &candidates)
            );
        }
    }

    #[test]
    fn iter_matches_members() {
        let mut s = ls(0, 2);
        s.add(Id(1 << 100));
        s.add(Id(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), s.members());
    }

    #[test]
    fn remove_clears_both_sides() {
        let mut s = ls(0, 2);
        s.add(Id(1 << 100));
        assert!(s.remove(Id(1 << 100)));
        assert!(s.left().is_empty() && s.right().is_empty());
        assert!(!s.remove(Id(1 << 100)));
    }

    #[test]
    fn members_deduplicates() {
        let mut s = ls(0, 2);
        s.add(Id(1 << 100));
        assert_eq!(s.members().len(), 1);
    }
}
