//! The composed transit-stub delay matrix against the full-graph search: a
//! delay composed from a stub table and the core matrix must equal
//! `Graph::shortest_delays_from` on the whole graph, for every ordered pair.

use proptest::prelude::*;
use topology::transit_stub::{generate, TransitStub, TransitStubParams};
use topology::DelayMatrix;

/// Checks the generator's record of its structure: transit routers first,
/// then stub domains in contiguous id ranges, each left only through its
/// recorded gateway link.
fn check_structure(ts: &TransitStub) {
    let mut next = ts.transit_routers;
    for s in &ts.stubs {
        assert_eq!(s.first, next, "stubs are contiguous and in id order");
        next += s.len;
        let mut leaving = Vec::new();
        for r in s.routers() {
            for e in ts.graph.edges(r) {
                if !s.routers().contains(&e.to) {
                    leaving.push((r, e.to, e.delay_us));
                }
            }
        }
        assert_eq!(leaving, vec![(s.gateway, s.transit, s.link_delay_us)]);
        assert!(s.transit < ts.transit_routers);
    }
    assert_eq!(
        next as usize,
        ts.graph.len(),
        "stubs cover the non-transit routers"
    );
}

/// Compares every ordered pair of the composed matrix with the full-graph
/// search (clamped to `u32`, as the delay tables store it).
fn check_exact(p: &TransitStubParams) {
    let ts = generate(p);
    let graph = ts.graph.clone();
    let m = DelayMatrix::transit_stub(ts);
    assert_eq!(m.rows_materialized(), 0);
    for a in 0..graph.len() as u32 {
        let full = graph.shortest_delays_from(a);
        for (b, &d) in full.iter().enumerate() {
            assert_eq!(
                m.delay_us(a, b as u32),
                d.min(u32::MAX as u64),
                "{a} -> {b} (seed {})",
                p.seed
            );
        }
    }
    assert_eq!(m.rows_materialized(), graph.len(), "every table filled");
}

#[test]
fn generator_records_each_stub_and_its_only_core_link() {
    for p in [
        TransitStubParams::tiny(),
        TransitStubParams::small(),
        TransitStubParams::default(),
    ] {
        check_structure(&generate(&p));
    }
}

#[test]
fn presets_generate_the_documented_router_counts() {
    assert_eq!(generate(&TransitStubParams::default()).graph.len(), 4_562);
    assert_eq!(generate(&TransitStubParams::small()).graph.len(), 192);
    assert_eq!(generate(&TransitStubParams::tiny()).graph.len(), 36);
}

#[test]
fn composed_delays_are_exact_on_gatech_tiny() {
    check_exact(&TransitStubParams::tiny());
}

#[test]
fn composed_delays_are_exact_on_gatech_small() {
    check_exact(&TransitStubParams::small());
}

/// All 20.8M ordered pairs of the paper-scale topology; about 2.4 s in a
/// release build, too slow for the debug test run
/// (`cargo test --release -p topology -- --ignored`).
#[test]
#[ignore]
fn composed_delays_are_exact_on_paper_scale_gatech() {
    check_exact(&TransitStubParams::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn composed_delays_are_exact_for_any_seed(seed in any::<u64>(), small in any::<bool>()) {
        let base = if small { TransitStubParams::small() } else { TransitStubParams::tiny() };
        let p = TransitStubParams { seed, ..base };
        check_structure(&generate(&p));
        check_exact(&p);
    }
}
