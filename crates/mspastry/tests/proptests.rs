//! Property-based tests of the protocol's core data structures and
//! invariants.

use mspastry::id::{closer_to, Id};
use mspastry::leaf_set::LeafSet;
use mspastry::messages::{LookupId, Message};
use mspastry::routing::{route, NextHop};
use mspastry::routing_table::RoutingTable;
use mspastry::tuning;
use mspastry::Config;
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    any::<u128>().prop_map(Id)
}

fn arb_b() -> impl Strategy<Value = u8> {
    1u8..=8
}

proptest! {
    // ----- identifier ring --------------------------------------------------

    #[test]
    fn ring_distance_is_a_symmetric_bounded_metric(a in arb_id(), b in arb_id()) {
        let d = a.ring_dist(b);
        prop_assert_eq!(d, b.ring_dist(a));
        prop_assert!(d <= u128::MAX / 2 + 1);
        prop_assert_eq!(a.ring_dist(a), 0);
        if a != b {
            prop_assert!(d > 0);
        }
    }

    #[test]
    fn cw_and_ccw_distances_complement(a in arb_id(), b in arb_id()) {
        if a != b {
            prop_assert_eq!(a.cw_dist(b).wrapping_add(a.ccw_dist(b)), 0u128);
        } else {
            prop_assert_eq!(a.cw_dist(b), 0);
        }
    }

    #[test]
    fn digits_reconstruct_the_id(a in arb_id(), b in prop::sample::select(vec![1u8, 2, 4, 8])) {
        let mut acc: u128 = 0;
        for r in 0..Id::rows(b) {
            acc = (acc << b) | a.digit(r, b) as u128;
        }
        prop_assert_eq!(acc, a.0);
    }

    #[test]
    fn shared_prefix_matches_digit_comparison(a in arb_id(), x in arb_id(), b in arb_b()) {
        let l = a.shared_prefix_len(x, b);
        for r in 0..l {
            prop_assert_eq!(a.digit(r, b), x.digit(r, b));
        }
        if a != x {
            prop_assert!(l < Id::rows(b));
            prop_assert_ne!(a.digit(l, b), x.digit(l, b));
        }
    }

    #[test]
    fn closer_to_is_commutative_and_picks_a_minimum(key in arb_id(), a in arb_id(), b in arb_id()) {
        let w = closer_to(key, a, b);
        prop_assert_eq!(w, closer_to(key, b, a));
        prop_assert!(w.ring_dist(key) <= a.ring_dist(key));
        prop_assert!(w.ring_dist(key) <= b.ring_dist(key));
    }

    // ----- routing table ----------------------------------------------------

    #[test]
    fn routing_table_slot_invariant(own in arb_id(), ids in prop::collection::vec(arb_id(), 1..80), b in prop::sample::select(vec![1u8, 2, 4])) {
        let mut rt = RoutingTable::new(own, b);
        for (i, &id) in ids.iter().enumerate() {
            rt.offer(id, i as u64);
        }
        for e in rt.entries() {
            let (row, col) = rt.slot_of(e.id).unwrap();
            prop_assert_eq!(own.shared_prefix_len(e.id, b), row);
            prop_assert_eq!(e.id.digit(row, b), col);
        }
        prop_assert!(rt.len() <= ids.len());
    }

    #[test]
    fn routing_table_keeps_the_closest_candidate(own in arb_id(), ids in prop::collection::vec((arb_id(), 1u64..1_000_000), 1..60)) {
        let mut rt = RoutingTable::new(own, 4);
        for &(id, d) in &ids {
            rt.offer(id, d);
        }
        // For every slot, the stored entry has the minimum distance among
        // all offered candidates for that slot.
        for e in rt.entries() {
            let slot = rt.slot_of(e.id).unwrap();
            let best = ids
                .iter()
                .filter(|(id, _)| *id != own && rt.slot_of(*id) == Some(slot))
                .map(|&(_, d)| d)
                .min()
                .unwrap();
            prop_assert_eq!(e.distance_us, best);
        }
    }

    // ----- leaf set -----------------------------------------------------------

    #[test]
    fn leaf_set_holds_the_closest_neighbours(own in arb_id(), ids in prop::collection::vec(arb_id(), 0..50), half in 1usize..8) {
        let mut ls = LeafSet::new(own, half);
        for &id in &ids {
            ls.add(id);
        }
        let distinct: Vec<Id> = {
            let mut v: Vec<Id> = ids.iter().copied().filter(|&i| i != own).collect();
            v.sort();
            v.dedup();
            v
        };
        // The right side must be exactly the `half` closest successors.
        let mut by_cw = distinct.clone();
        by_cw.sort_by_key(|&m| own.cw_dist(m));
        let expected_right: Vec<Id> = by_cw.iter().copied().take(half).collect();
        prop_assert_eq!(ls.right(), &expected_right[..]);
        // And the left side the `half` closest predecessors.
        let mut by_ccw = distinct.clone();
        by_ccw.sort_by_key(|&m| own.ccw_dist(m));
        let expected_left: Vec<Id> = by_ccw.iter().copied().take(half).collect();
        prop_assert_eq!(ls.left(), &expected_left[..]);
    }

    #[test]
    fn leaf_set_closest_matches_oracle(own in arb_id(), ids in prop::collection::vec(arb_id(), 1..40), key in arb_id()) {
        let mut ls = LeafSet::new(own, 4);
        for &id in &ids {
            ls.add(id);
        }
        let mut members = ls.members();
        members.push(own);
        let oracle = members.iter().copied().reduce(|a, b| closer_to(key, a, b)).unwrap();
        prop_assert_eq!(ls.closest_to(key, |_| false), oracle);
    }

    // ----- routing ------------------------------------------------------------

    #[test]
    fn route_makes_progress(own in arb_id(), ids in prop::collection::vec(arb_id(), 1..60), key in arb_id()) {
        let mut rt = RoutingTable::new(own, 4);
        let mut ls = LeafSet::new(own, 4);
        for &id in &ids {
            rt.offer(id, 1);
            ls.add(id);
        }
        match route(&rt, &ls, key, |_| false) {
            NextHop::Local => {}
            NextHop::Forward { next, .. } => {
                prop_assert_ne!(next, own);
                // Forwarding either improves the shared prefix or strictly
                // reduces ring distance (leaf-set hops).
                let better_prefix =
                    next.shared_prefix_len(key, 4) > own.shared_prefix_len(key, 4);
                let closer = next.ring_dist(key) < own.ring_dist(key);
                prop_assert!(better_prefix || closer);
            }
        }
    }

    // ----- codec ----------------------------------------------------------------

    #[test]
    fn codec_round_trips_lookups(src in arb_id(), seq in any::<u64>(), key in arb_id(),
                                 payload in any::<u64>(), hops in any::<u32>(),
                                 t in any::<u64>(), retx in any::<bool>(), acks in any::<bool>()) {
        let msg = Message::Lookup {
            id: LookupId { src, seq },
            key,
            payload,
            hops,
            issued_at_us: t,
            is_retransmit: retx,
            wants_acks: acks,
        };
        let back = mspastry::codec::decode(&mspastry::codec::encode(&msg)).unwrap();
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn codec_round_trips_leaf_set_probes(ls in prop::collection::vec(arb_id(), 0..40),
                                         failed in prop::collection::vec(arb_id(), 0..40),
                                         hint in any::<Option<u64>>()) {
        let msg = Message::LsProbe { leaf_set: ls, failed, trt_hint: hint };
        let back = mspastry::codec::decode(&mspastry::codec::encode(&msg)).unwrap();
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn codec_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = mspastry::codec::decode(&bytes); // must not panic
    }

    // ----- tuning ----------------------------------------------------------------

    #[test]
    fn pf_is_a_probability(t in 0.0f64..1e13, mu in 0.0f64..1e-6) {
        let p = tuning::pf(t, mu);
        prop_assert!((0.0..=1.0).contains(&p), "pf = {}", p);
    }

    #[test]
    fn solve_t_rt_respects_the_floor(mu in 1e-14f64..1e-7, n in 2.0f64..100_000.0) {
        let cfg = Config::default();
        let t = tuning::solve_t_rt(&cfg, mu, n);
        prop_assert!(t >= cfg.t_rt_floor_us());
        prop_assert!(t <= tuning::T_RT_MAX_US);
    }

    #[test]
    fn raw_loss_is_monotone_in_probing_period(mu in 1e-12f64..1e-8, n in 10.0f64..10_000.0,
                                              t1 in 1e6f64..1e10, t2 in 1e6f64..1e10) {
        let cfg = Config::default();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(tuning::raw_loss(&cfg, lo, mu, n) <= tuning::raw_loss(&cfg, hi, mu, n) + 1e-12);
    }
}
