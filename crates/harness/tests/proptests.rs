//! Property-based tests for the oracle and metric aggregation.

use harness::metrics::{Metrics, ACTIVE_NODE_US};
use harness::Oracle;
use mspastry::messages::SENT_CATEGORY_COUNTERS;
use mspastry::{Id, LookupId};
use obs::Snapshot;
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    any::<u128>().prop_map(Id)
}

proptest! {
    #[test]
    fn oracle_root_matches_brute_force(ids in prop::collection::vec(arb_id(), 1..60),
                                       keys in prop::collection::vec(arb_id(), 1..20)) {
        let mut o = Oracle::new();
        for &id in &ids {
            o.insert(id);
        }
        for &key in &keys {
            let brute = ids
                .iter()
                .copied()
                .reduce(|a, b| mspastry::id::closer_to(key, a, b))
                .unwrap();
            prop_assert_eq!(o.root_of(key), Some(brute));
        }
    }

    #[test]
    fn oracle_insert_remove_round_trips(ids in prop::collection::vec(arb_id(), 1..40), key in arb_id()) {
        let mut o = Oracle::new();
        for &id in &ids {
            o.insert(id);
        }
        let before = o.root_of(key);
        let extra = Id(key.0 ^ 1);
        o.insert(extra);
        o.remove(extra);
        prop_assert_eq!(o.root_of(key), before);
    }

    #[test]
    fn delivered_plus_lost_never_exceeds_issued(
        lookups in prop::collection::vec((any::<u64>(), 0u64..1_000_000, any::<bool>()), 0..50)
    ) {
        let mut m = Metrics::new(0, 1_000_000, 10_000_000);
        for &(seq, issued_at, delivered) in &lookups {
            let id = LookupId { src: Id(1), seq };
            m.sight_lookup(id, issued_at);
            if delivered {
                m.on_delivered(issued_at + 100, id, issued_at, true);
            }
        }
        let r = m.finalize(100_000_000, &[], &Snapshot::default());
        prop_assert!(r.delivered + r.lost + r.censored <= r.issued);
        prop_assert!(r.loss_rate >= 0.0 && r.loss_rate <= 1.0);
        prop_assert!(r.incorrect_rate >= 0.0 && r.incorrect_rate <= 1.0);
    }

    #[test]
    fn window_traffic_sums_to_totals(sends in prop::collection::vec((0u64..10_000_000, 0usize..6), 0..200)) {
        // One node from 0 to 10 s; the registry is snapshotted at every
        // 1 s boundary before the end, as the runner does.
        let at = |t: u64| {
            let mut counts = [0u64; 6];
            for &(s, c) in &sends {
                if s < t {
                    counts[c] += 1;
                }
            }
            let mut counters: Vec<(String, u64)> = SENT_CATEGORY_COUNTERS
                .iter()
                .zip(counts)
                .map(|(name, n)| (name.to_string(), n))
                .collect();
            counters.push((ACTIVE_NODE_US.to_string(), t));
            counters.sort();
            Snapshot { counters, histograms: Vec::new() }
        };
        let boundaries: Vec<Snapshot> = (0..10).map(|k| at(k * 1_000_000)).collect();
        let m = Metrics::new(0, 1_000_000, 10_000_000);
        let r = m.finalize(10_000_000, &boundaries, &at(10_000_000));
        prop_assert_eq!(r.windows.len(), 10);
        // Per-window per-category rates times window node-seconds must sum to
        // the whole-run totals.
        for c in 0..6 {
            let from_windows: f64 = r
                .windows
                .iter()
                .map(|w| w.per_category_per_node_per_sec[c] * 1.0 /* node */ * 1.0 /* s */)
                .sum();
            let total = r.totals_per_node_per_sec[c] * r.node_seconds;
            prop_assert!((from_windows - total).abs() < 1e-6,
                "category {c}: windows {from_windows} vs total {total}");
        }
    }

    #[test]
    fn active_integration_conserves_node_seconds(deltas in prop::collection::vec((1u64..9_999_999, -2i64..3), 1..40)) {
        let mut events: Vec<(u64, i64)> = deltas;
        events.sort();
        // The active-node integral up to `t`, as `overlay.active_node_us`
        // would hold it.
        let integral = |t: u64| {
            let (mut active, mut last, mut sum) = (0i64, 0u64, 0u64);
            for &(at, d) in events.iter().take_while(|&&(at, _)| at < t) {
                sum += active as u64 * (at - last);
                active = (active + d).max(0);
                last = at;
            }
            sum + active as u64 * (t - last)
        };
        let snap = |t: u64| Snapshot {
            counters: vec![(ACTIVE_NODE_US.to_string(), integral(t))],
            histograms: Vec::new(),
        };
        let boundaries: Vec<Snapshot> = (0..10).map(|k| snap(k * 1_000_000)).collect();
        let m = Metrics::new(0, 1_000_000, 10_000_000);
        let r = m.finalize(10_000_000, &boundaries, &snap(10_000_000));
        let mut active = 0i64;
        let mut last = 0u64;
        let mut expected = 0.0f64;
        for &(t, d) in &events {
            expected += active.max(0) as f64 * (t - last) as f64;
            active = (active + d).max(0);
            last = t;
        }
        expected += active.max(0) as f64 * (10_000_000 - last) as f64;
        prop_assert!(
            (r.node_seconds - expected / 1e6).abs() < 1e-6,
            "node-seconds {} vs expected {}",
            r.node_seconds,
            expected / 1e6
        );
        let from_windows: f64 = r.windows.iter().map(|w| w.mean_active_nodes * 1.0 /* s */).sum();
        prop_assert!((from_windows - r.node_seconds).abs() < 1e-6);
    }
}
