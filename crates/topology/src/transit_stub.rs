//! Transit-stub topology generator in the spirit of the Georgia Tech
//! topology generator (GT-ITM) used for the paper's *GATech* topology.
//!
//! The paper's instance has 5050 routers arranged hierarchically: 10 transit
//! domains at the top level with an average of 5 routers each; each transit
//! router has an average of 10 stub domains attached with an average of 10
//! routers each. End nodes attach to stub routers through a 1 ms LAN link.
//! The default parameters draw the per-domain counts around those means and
//! generate 4,562 routers; the small preset generates 192.
//!
//! Routing uses policy weights so that traffic between stub domains always
//! climbs into the transit core rather than cutting through another stub
//! domain, which is how GT-ITM's routing-policy weights behave.
//!
//! The generator numbers the transit routers `0..T` and gives each stub
//! domain a contiguous id range joined to the core by exactly one link, its
//! [`StubDomain`] record. Every path out of a stub crosses that link, which
//! lets [`DelayMatrix::transit_stub`](crate::graph::DelayMatrix::transit_stub)
//! compose any delay from one per-stub table and a core matrix.

use crate::graph::{Graph, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the transit-stub generator.
///
/// The defaults reproduce the paper's GATech configuration (its means give
/// 5050 routers; seed 42 draws 4,562).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitStubParams {
    /// Number of top-level transit domains.
    pub transit_domains: usize,
    /// Average routers per transit domain.
    pub routers_per_transit: usize,
    /// Average stub domains attached to each transit router.
    pub stubs_per_transit_router: usize,
    /// Average routers per stub domain.
    pub routers_per_stub: usize,
    /// Mean one-way delay of a core (transit-transit) link, microseconds.
    pub core_delay_us: u64,
    /// Mean one-way delay of a transit-to-stub link, microseconds.
    pub transit_stub_delay_us: u64,
    /// Mean one-way delay of an intra-stub link, microseconds.
    pub stub_delay_us: u64,
    /// RNG seed; identical seeds generate identical topologies.
    pub seed: u64,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            transit_domains: 10,
            routers_per_transit: 5,
            stubs_per_transit_router: 10,
            routers_per_stub: 10,
            core_delay_us: 20_000,
            transit_stub_delay_us: 5_000,
            stub_delay_us: 1_000,
            seed: 42,
        }
    }
}

impl TransitStubParams {
    /// A scaled-down preset (192 routers) suitable for unit tests and quick
    /// benchmark runs.
    pub fn small() -> Self {
        TransitStubParams {
            transit_domains: 4,
            routers_per_transit: 3,
            stubs_per_transit_router: 4,
            routers_per_stub: 5,
            ..Self::default()
        }
    }

    /// A tiny preset (36 routers) for fast tests.
    pub fn tiny() -> Self {
        TransitStubParams {
            transit_domains: 2,
            routers_per_transit: 2,
            stubs_per_transit_router: 3,
            routers_per_stub: 3,
            ..Self::default()
        }
    }
}

/// A stub domain: the routers `first..first + len` plus the single link
/// that joins them to the transit core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StubDomain {
    /// Lowest router id of the domain.
    pub first: RouterId,
    /// Number of routers in the domain.
    pub len: u32,
    /// The domain's end of the core link.
    pub gateway: RouterId,
    /// The sponsoring transit router, the core's end of the link.
    pub transit: RouterId,
    /// One-way delay of the core link, microseconds.
    pub link_delay_us: u64,
}

impl StubDomain {
    /// The domain's router ids.
    pub fn routers(&self) -> std::ops::Range<RouterId> {
        self.first..self.first + self.len
    }
}

/// Output of the transit-stub generator: the router graph with its transit
/// core and stub domains.
#[derive(Debug, Clone)]
pub struct TransitStub {
    /// The router-level graph.
    pub graph: Graph,
    /// Number of transit routers; they are the ids `0..transit_routers`.
    pub transit_routers: u32,
    /// Stub domains in id order; together they cover the ids from
    /// `transit_routers` to the end of the graph.
    pub stubs: Vec<StubDomain>,
}

impl TransitStub {
    /// Routers in stub domains; overlay nodes attach only to these.
    pub fn stub_routers(&self) -> std::ops::Range<RouterId> {
        self.transit_routers..self.graph.len() as RouterId
    }
}

/// Generates a transit-stub topology.
///
/// The construction is deterministic for a given `params.seed`.
pub fn generate(params: &TransitStubParams) -> TransitStub {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = Graph::default();
    // Policy weights: intra-stub links are cheap inside a stub but a stub is
    // never a transit: we achieve this by giving stub links a high routing
    // weight relative to transit links, and by the topology itself (each stub
    // hangs off exactly one transit router, so there is no shortcut).
    const W_CORE: f64 = 1.0;
    const W_TRANSIT_STUB: f64 = 10.0;
    const W_STUB: f64 = 100.0;

    // 1. Transit domains: routers in each domain form a ring plus random
    //    chords; domains are interconnected pairwise by random representative
    //    links (every pair of domains gets at least one link, mirroring the
    //    dense GT-ITM core).
    let mut transit: Vec<Vec<RouterId>> = Vec::with_capacity(params.transit_domains);
    for _ in 0..params.transit_domains {
        let k = jitter_count(&mut rng, params.routers_per_transit);
        let routers: Vec<RouterId> = (0..k).map(|_| g.add_router()).collect();
        // Ring for k >= 3, a single link for k == 2, nothing for k == 1.
        if k == 2 {
            let d = delay_jitter(&mut rng, params.core_delay_us / 4);
            g.add_edge(routers[0], routers[1], W_CORE, d);
        } else if k >= 3 {
            for i in 0..k {
                let d = delay_jitter(&mut rng, params.core_delay_us / 4);
                g.add_edge(routers[i], routers[(i + 1) % k], W_CORE, d);
            }
        }
        transit.push(routers);
    }
    for a in 0..transit.len() {
        for b in (a + 1)..transit.len() {
            let ra = transit[a][rng.gen_range(0..transit[a].len())];
            let rb = transit[b][rng.gen_range(0..transit[b].len())];
            let d = delay_jitter(&mut rng, params.core_delay_us);
            g.add_edge(ra, rb, W_CORE, d);
        }
    }

    // 2. Stub domains: each transit router sponsors `stubs_per_transit_router`
    //    stub domains; each stub domain is a small connected random graph
    //    attached to its transit router through exactly one link.
    let transit_routers = g.len() as u32;
    let mut stubs = Vec::new();
    for domain in &transit {
        for &tr in domain {
            let n_stubs = jitter_count(&mut rng, params.stubs_per_transit_router);
            for _ in 0..n_stubs {
                let k = jitter_count(&mut rng, params.routers_per_stub);
                let routers: Vec<RouterId> = (0..k).map(|_| g.add_router()).collect();
                // Connected backbone: path plus random extra edges.
                for i in 1..k {
                    let j = rng.gen_range(0..i);
                    let d = delay_jitter(&mut rng, params.stub_delay_us);
                    g.add_edge(routers[i], routers[j], W_STUB, d);
                }
                let extra = k / 3;
                for _ in 0..extra {
                    let i = rng.gen_range(0..k);
                    let j = rng.gen_range(0..k);
                    if i != j {
                        let d = delay_jitter(&mut rng, params.stub_delay_us);
                        g.add_edge(routers[i], routers[j], W_STUB, d);
                    }
                }
                // Attach to the sponsoring transit router.
                let gw = routers[rng.gen_range(0..k)];
                let d = delay_jitter(&mut rng, params.transit_stub_delay_us);
                g.add_edge(gw, tr, W_TRANSIT_STUB, d);
                stubs.push(StubDomain {
                    first: routers[0],
                    len: k as u32,
                    gateway: gw,
                    transit: tr,
                    link_delay_us: d,
                });
            }
        }
    }

    TransitStub {
        graph: g,
        transit_routers,
        stubs,
    }
}

/// Draws a count around `mean` (uniform in `[max(1, mean-1), mean+1]`).
fn jitter_count(rng: &mut SmallRng, mean: usize) -> usize {
    let lo = mean.saturating_sub(1).max(1);
    let hi = mean + 1;
    rng.gen_range(lo..=hi)
}

/// Draws a delay uniformly in `[mean/2, 3*mean/2]`.
fn delay_jitter(rng: &mut SmallRng, mean_us: u64) -> u64 {
    let lo = (mean_us / 2).max(1);
    let hi = mean_us + mean_us / 2;
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayMatrix;

    #[test]
    fn default_size_is_near_5050_routers() {
        let ts = generate(&TransitStubParams::default());
        let n = ts.graph.len();
        // 10*5 transit + 50 transit routers * 10 stubs * 10 routers ≈ 5050.
        assert!(
            (4000..=6500).contains(&n),
            "unexpected router count {n} for default params"
        );
    }

    #[test]
    fn generated_graph_is_connected() {
        let ts = generate(&TransitStubParams::small());
        assert!(ts.graph.is_connected());
    }

    #[test]
    fn stub_routers_are_valid_ids() {
        let ts = generate(&TransitStubParams::tiny());
        assert!(!ts.stub_routers().is_empty());
        for r in ts.stub_routers() {
            assert!((r as usize) < ts.graph.len());
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&TransitStubParams::tiny());
        let b = generate(&TransitStubParams::tiny());
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.stubs, b.stubs);
        let ma = DelayMatrix::lazy(a.graph.clone());
        let mb = DelayMatrix::lazy(b.graph.clone());
        for x in 0..ma.len() as u32 {
            for y in 0..ma.len() as u32 {
                assert_eq!(ma.delay_us(x, y), mb.delay_us(x, y));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TransitStubParams::tiny());
        let b = generate(&TransitStubParams {
            seed: 43,
            ..TransitStubParams::tiny()
        });
        // Router counts are random; either counts differ or some delay differs.
        if a.graph.len() == b.graph.len() {
            let ma = DelayMatrix::lazy(a.graph.clone());
            let mb = DelayMatrix::lazy(b.graph.clone());
            let mut any_diff = false;
            'outer: for x in 0..ma.len() as u32 {
                for y in 0..ma.len() as u32 {
                    if ma.delay_us(x, y) != mb.delay_us(x, y) {
                        any_diff = true;
                        break 'outer;
                    }
                }
            }
            assert!(any_diff);
        }
    }

    #[test]
    fn stub_to_stub_routes_have_core_scale_delay() {
        // Two routers in different stub domains must traverse the core: their
        // delay should be at least a transit-stub hop plus a fraction of a
        // core hop.
        let ts = generate(&TransitStubParams::small());
        let m = DelayMatrix::lazy(ts.graph.clone());
        let a = ts.stub_routers().start;
        let b = ts.stub_routers().end - 1;
        assert!(m.delay_us(a, b) > TransitStubParams::small().transit_stub_delay_us);
    }
}
