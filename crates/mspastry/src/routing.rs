//! The Pastry routing function (`route_i` in Figure 2).
//!
//! Routing forwards a message to a node that matches a progressively longer
//! prefix with the destination key; once the key falls within the leaf set,
//! the member numerically closest to the key is selected. Failed or suspected
//! nodes can be excluded, in which case routing falls back to any known node
//! that is strictly closer to the key and preserves the prefix length — this
//! is how MSPastry routes around missing routing-table entries and missed
//! per-hop acks.

use crate::id::{Key, NodeId};
use crate::leaf_set::LeafSet;
use crate::routing_table::RoutingTable;

/// Result of one routing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// This node is the destination (`receive_root` in Figure 2).
    Local,
    /// Forward to `next`.
    Forward {
        /// The selected next hop.
        next: NodeId,
        /// The primary routing-table slot was empty (passive-repair
        /// opportunity: ask `next` for an entry for this slot).
        empty_slot: Option<(usize, u8)>,
    },
}

/// Computes the next hop for `key` at the node owning `rt` and `ls`,
/// excluding nodes for which `excluded` returns `true`.
pub fn route(
    rt: &RoutingTable,
    ls: &LeafSet,
    key: Key,
    excluded: impl Fn(NodeId) -> bool,
) -> NextHop {
    let own = rt.own();
    if ls.covers(key) {
        let next = ls.closest_to(key, &excluded);
        if next == own {
            return NextHop::Local;
        }
        return NextHop::Forward {
            next,
            empty_slot: None,
        };
    }
    let b = key_prefix_b(rt);
    let r = own.shared_prefix_len(key, b);
    let col = key.digit(r, b);
    let mut empty_slot = None;
    match rt.get(r, col) {
        Some(e) if !excluded(e.id) => {
            return NextHop::Forward {
                next: e.id,
                empty_slot: None,
            };
        }
        Some(_) => {}
        None => empty_slot = Some((r, col)),
    }
    // Rare case: route around the missing/excluded entry with any known node
    // strictly closer to the key that preserves the prefix length.
    let own_dist = own.ring_dist(key);
    let mut best: Option<(usize, u128, NodeId)> = None;
    let candidates = rt.entries().map(|e| e.id).chain(ls.iter());
    for j in candidates {
        if excluded(j) || j == own {
            continue;
        }
        let spl = j.shared_prefix_len(key, b);
        if spl < r {
            continue;
        }
        let dist = j.ring_dist(key);
        if dist >= own_dist {
            continue;
        }
        let cand = (spl, dist, j);
        best = Some(match best {
            None => cand,
            Some(cur) => {
                // Prefer longer prefix, then smaller ring distance, then
                // smaller id for determinism.
                if (
                    cand.0,
                    std::cmp::Reverse(cand.1),
                    std::cmp::Reverse(cand.2 .0),
                ) > (cur.0, std::cmp::Reverse(cur.1), std::cmp::Reverse(cur.2 .0))
                {
                    cand
                } else {
                    cur
                }
            }
        });
    }
    match best {
        Some((_, _, next)) => NextHop::Forward { next, empty_slot },
        None => NextHop::Local,
    }
}

fn key_prefix_b(rt: &RoutingTable) -> u8 {
    // Recover b from the table geometry (cols = 2^b).
    rt.col_count().trailing_zeros() as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Builds perfect routing state for `own` given the full membership.
    fn perfect_state(own: NodeId, all: &[NodeId], b: u8, half: usize) -> (RoutingTable, LeafSet) {
        let mut rt = RoutingTable::new(own, b);
        let mut ls = LeafSet::new(own, half);
        for &n in all {
            if n != own {
                rt.offer(n, 100);
                ls.add(n);
            }
        }
        (rt, ls)
    }

    fn true_root(all: &[NodeId], key: Key) -> NodeId {
        all.iter()
            .copied()
            .reduce(|a, b| crate::id::closer_to(key, a, b))
            .unwrap()
    }

    #[test]
    fn routes_reach_the_true_root_with_perfect_state() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 64;
        let all: Vec<NodeId> = (0..n).map(|_| Id::random(&mut rng)).collect();
        let states: Vec<(RoutingTable, LeafSet)> =
            all.iter().map(|&o| perfect_state(o, &all, 4, 8)).collect();
        let index = |id: NodeId| all.iter().position(|&x| x == id).unwrap();
        for k in 0..200 {
            let key = Id::random(&mut rng);
            let mut cur = all[k % n];
            let mut hops = 0;
            loop {
                let (rt, ls) = &states[index(cur)];
                match route(rt, ls, key, |_| false) {
                    NextHop::Local => break,
                    NextHop::Forward { next, .. } => {
                        assert_ne!(next, cur);
                        cur = next;
                        hops += 1;
                        assert!(hops < 64, "routing loop for key {key:?}");
                    }
                }
            }
            assert_eq!(cur, true_root(&all, key), "key {key:?}");
            assert!(hops <= 8, "too many hops: {hops}");
        }
    }

    #[test]
    fn hop_count_is_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(43);
        let n = 256;
        let all: Vec<NodeId> = (0..n).map(|_| Id::random(&mut rng)).collect();
        let states: Vec<(RoutingTable, LeafSet)> =
            all.iter().map(|&o| perfect_state(o, &all, 4, 8)).collect();
        let index = |id: NodeId| all.iter().position(|&x| x == id).unwrap();
        let mut total_hops = 0usize;
        let trials = 200;
        for k in 0..trials {
            let key = Id::random(&mut rng);
            let mut cur = all[k % n];
            loop {
                let (rt, ls) = &states[index(cur)];
                match route(rt, ls, key, |_| false) {
                    NextHop::Local => break,
                    NextHop::Forward { next, .. } => {
                        cur = next;
                        total_hops += 1;
                    }
                }
            }
        }
        let avg = total_hops as f64 / trials as f64;
        // Expected ≈ 15/16 · log16(256) = 1.875; perfect leaf sets shorten
        // the tail, so accept a generous band.
        assert!((1.0..3.0).contains(&avg), "avg hops {avg}");
    }

    #[test]
    fn leaf_set_coverage_short_circuits() {
        let own = Id(1000);
        let all = [own, Id(900), Id(1100)];
        let (rt, ls) = perfect_state(own, &all, 4, 2);
        assert_eq!(route(&rt, &ls, Id(1001), |_| false), NextHop::Local);
        assert_eq!(
            route(&rt, &ls, Id(1099), |_| false),
            NextHop::Forward {
                next: Id(1100),
                empty_slot: None
            }
        );
    }

    #[test]
    fn exclusion_reroutes_to_alternative() {
        let own = Id(1000);
        let all = [own, Id(900), Id(1100)];
        let (rt, ls) = perfect_state(own, &all, 4, 2);
        // Root for 1099 is 1100; with 1100 excluded the closest remaining is
        // own (dist 99 vs 900's dist 199).
        let hop = route(&rt, &ls, Id(1099), |n| n == Id(1100));
        assert_eq!(hop, NextHop::Local);
    }

    #[test]
    fn empty_slot_is_reported_for_passive_repair() {
        let own = Id(0x1000_0000_0000_0000_0000_0000_0000_0000u128);
        let mut rt = RoutingTable::new(own, 4);
        let mut ls = LeafSet::new(own, 1);
        // Non-overlapping leaf set near own so it does not cover the key.
        ls.add(Id(own.0 + 1));
        ls.add(Id(own.0 - 1));
        // Key starts with digit 8; the only known strictly-closer node starts
        // with digit 7, so the primary slot (row 0, col 8) is empty and the
        // fallback must report it for passive repair.
        let key = Id(0x8000_0000_0000_0000_0000_0000_0000_0001u128);
        let closer = Id(0x7fff_ffff_ffff_ffff_ffff_ffff_ffff_ffffu128);
        rt.offer(closer, 50);
        let hop = route(&rt, &ls, key, |_| false);
        match hop {
            NextHop::Forward { next, empty_slot } => {
                assert_eq!(next, closer);
                assert_eq!(empty_slot, Some((0, 8)));
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn no_candidates_means_local() {
        let own = Id(5);
        let rt = RoutingTable::new(own, 4);
        let ls = LeafSet::new(own, 2);
        assert_eq!(
            route(&rt, &ls, Id(u128::MAX / 2), |_| false),
            NextHop::Local
        );
    }

    #[test]
    fn borrowed_exclusion_routes_like_the_cloned_set() {
        use crate::config::Config;
        use crate::fxhash::FxHashSet;
        use crate::reliability::Reliability;
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(46);
        let all: Vec<NodeId> = (0..96).map(|_| Id::random(&mut rng)).collect();
        for round in 0..300 {
            let own = all[round % all.len()];
            // Partial routing state, so both the leaf-set branch and the
            // routing-table branch (with its fallback) are taken.
            let mut rt = RoutingTable::new(own, 4);
            let mut ls = LeafSet::new(own, 1 + round % 8);
            let known: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|&n| n != own && rng.gen_bool(0.5))
                .collect();
            for &n in &known {
                rt.offer(n, 100);
                ls.add(n);
            }
            let mut rel = Reliability::new(&Config::default());
            let pick = |rng: &mut SmallRng, p: f64| -> Vec<NodeId> {
                known.iter().copied().filter(|_| rng.gen_bool(p)).collect()
            };
            rel.suspected.extend(pick(&mut rng, 0.2));
            let extra = pick(&mut rng, 0.1);
            // The set `route_lookup` used to build on every hop.
            let mut cloned: FxHashSet<NodeId> = rel.suspected.clone();
            cloned.extend(extra.iter().copied());
            for _ in 0..8 {
                let key = Id::random(&mut rng);
                assert_eq!(
                    route(&rt, &ls, key, rel.excludes(&extra)),
                    route(&rt, &ls, key, |n| cloned.contains(&n)),
                    "round {round}, key {key:?}"
                );
            }
        }
    }

    #[test]
    fn fallback_never_selects_a_farther_node() {
        let mut rng = SmallRng::seed_from_u64(45);
        for _ in 0..100 {
            let own = Id::random(&mut rng);
            let key = Id::random(&mut rng);
            let mut rt = RoutingTable::new(own, 4);
            let mut ls = LeafSet::new(own, 4);
            for _ in 0..20 {
                let n = Id::random(&mut rng);
                rt.offer(n, 10);
                ls.add(n);
            }
            // Exclude the primary choice to force the fallback path.
            let b = 4;
            let r = own.shared_prefix_len(key, b);
            let primary = rt.get(r, key.digit(r, b)).map(|e| e.id);
            let hop = route(&rt, &ls, key, |n| Some(n) == primary);
            if let NextHop::Forward { next, .. } = hop {
                if !ls.covers(key) {
                    assert!(next.ring_dist(key) < own.ring_dist(key));
                    assert!(next.shared_prefix_len(key, b) >= r);
                }
            }
        }
    }
}
