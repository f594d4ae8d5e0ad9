//! Property-based tests for graph and topology invariants.

use proptest::prelude::*;
use topology::graph::Graph;
use topology::transit_stub::TransitStubParams;
use topology::{DelayMatrix, Topology, TopologyKind};

/// A random connected undirected graph where routing weight equals delay.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, any::<u64>()).prop_map(|(n, seed)| {
        let mut g = Graph::with_routers(n);
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Random spanning tree + a few chords.
        for i in 1..n {
            let j = (next() as usize) % i;
            let d = next() % 10_000 + 1;
            g.add_edge(i as u32, j as u32, d as f64, d);
        }
        for _ in 0..n / 2 {
            let i = (next() as usize) % n;
            let j = (next() as usize) % n;
            if i != j {
                let d = next() % 10_000 + 1;
                g.add_edge(i as u32, j as u32, d as f64, d);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shortest_path_delays_are_symmetric(g in arb_connected_graph()) {
        let m = DelayMatrix::lazy(g.clone());
        for a in 0..g.len() as u32 {
            for b in 0..g.len() as u32 {
                prop_assert_eq!(m.delay_us(a, b), m.delay_us(b, a));
            }
        }
    }

    #[test]
    fn shortest_path_delays_satisfy_triangle_inequality(g in arb_connected_graph()) {
        // Holds whenever routing weight == delay (true for this generator).
        let m = DelayMatrix::lazy(g.clone());
        let n = g.len() as u32;
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    prop_assert!(m.delay_us(a, b) <= m.delay_us(a, c) + m.delay_us(c, b));
                }
            }
        }
    }

    #[test]
    fn self_delay_is_zero_and_others_positive(g in arb_connected_graph()) {
        let m = DelayMatrix::lazy(g.clone());
        for a in 0..g.len() as u32 {
            prop_assert_eq!(m.delay_us(a, a), 0);
        }
    }

    #[test]
    fn transit_stub_generator_is_connected_for_any_seed(seed in any::<u64>()) {
        let ts = topology::transit_stub::generate(&TransitStubParams {
            seed,
            ..TransitStubParams::tiny()
        });
        prop_assert!(ts.graph.is_connected());
        prop_assert!(!ts.stub_routers().is_empty());
    }

    #[test]
    fn end_to_end_delay_is_symmetric_for_attach_points(idx_a in 0usize..1000, idx_b in 0usize..1000) {
        // Built once per test case is wasteful but bounded by the case count.
        let t = Topology::build(TopologyKind::GaTechTiny);
        let pts = t.attach_points();
        let a = pts[idx_a % pts.len()];
        let b = pts[idx_b % pts.len()];
        prop_assert_eq!(t.end_to_end_delay_us(a, b), t.end_to_end_delay_us(b, a));
        prop_assert!(t.end_to_end_delay_us(a, b) >= 2 * t.lan_delay_us());
    }
}
