//! Mercator-like AS-level topology.
//!
//! The paper's *Mercator* topology has 102,639 routers grouped into 2,662
//! autonomous systems (AS), with hierarchical AS-path routing and the number
//! of network-level (IP) hops as the proximity metric.
//!
//! We reproduce the *structure* at a configurable scale (the full router count
//! is far beyond what an all-pairs matrix needs for overlays of a few thousand
//! nodes; see DESIGN.md substitution #2): a power-law-ish AS overlay with a
//! small densely connected core, mid-tier ASes attached to the core, and stub
//! ASes attached to mid-tier ASes. Each AS contains a small connected router
//! graph; inter-AS links connect random border routers. Routing minimises the
//! AS-hop count first (hierarchical routing, as in the Internet) and the
//! proximity metric is the IP hop count, expressed as 1 ms per hop so the
//! simulator's timeout machinery keeps working in time units.

use crate::graph::{Graph, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for the Mercator-like AS topology generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsGraphParams {
    /// Number of core (tier-1) ASes; they form a clique.
    pub core_ases: usize,
    /// Number of mid-tier ASes, each multi-homed to 2 upstream ASes.
    pub mid_ases: usize,
    /// Number of stub ASes, each homed to 1-2 mid-tier ASes.
    pub stub_ases: usize,
    /// Average routers per AS.
    pub routers_per_as: usize,
    /// Nominal one-way delay charged per IP hop, in microseconds. The paper
    /// uses raw hop counts; we scale by this constant so that "delay" remains
    /// a time. 1000 us = 1 ms per hop.
    pub hop_delay_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AsGraphParams {
    fn default() -> Self {
        AsGraphParams {
            core_ases: 12,
            mid_ases: 60,
            stub_ases: 180,
            routers_per_as: 8,
            hop_delay_us: 1_000,
            seed: 7,
        }
    }
}

impl AsGraphParams {
    /// A tiny preset for fast tests.
    pub fn tiny() -> Self {
        AsGraphParams {
            core_ases: 3,
            mid_ases: 6,
            stub_ases: 12,
            routers_per_as: 4,
            ..Self::default()
        }
    }
}

/// Output of the AS-graph generator.
#[derive(Debug, Clone)]
pub struct AsGraph {
    /// Router-level graph; edge delays encode "1 hop".
    pub graph: Graph,
    /// All routers (end nodes may attach anywhere, per the paper).
    pub routers: Vec<RouterId>,
}

/// Generates a Mercator-like hierarchical AS topology.
pub fn generate(params: &AsGraphParams) -> AsGraph {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = Graph::default();
    let hop = params.hop_delay_us.max(1);
    // Hierarchical routing: inter-AS hops are strongly discouraged relative to
    // intra-AS hops, so the selected path minimises AS hops first. Delay,
    // however, counts every link as exactly one IP hop.
    const W_INTRA: f64 = 1.0;
    const W_INTER: f64 = 1_000.0;

    let mut as_routers: Vec<Vec<RouterId>> = Vec::new();
    let total_ases = params.core_ases + params.mid_ases + params.stub_ases;
    for _ in 0..total_ases {
        let k = rng
            .gen_range(params.routers_per_as.saturating_sub(2).max(2)..=params.routers_per_as + 2);
        let routers: Vec<RouterId> = (0..k).map(|_| g.add_router()).collect();
        // Connected random intra-AS graph (random spanning tree + chords).
        for i in 1..k {
            let j = rng.gen_range(0..i);
            g.add_edge(routers[i], routers[j], W_INTRA, hop);
        }
        for _ in 0..k / 2 {
            let i = rng.gen_range(0..k);
            let j = rng.gen_range(0..k);
            if i != j {
                g.add_edge(routers[i], routers[j], W_INTRA, hop);
            }
        }
        as_routers.push(routers);
    }

    let core = 0..params.core_ases;
    let mid = params.core_ases..params.core_ases + params.mid_ases;
    let stub = params.core_ases + params.mid_ases..total_ases;

    let link_as = |rng: &mut SmallRng, g: &mut Graph, a: usize, b: usize| {
        let ra = as_routers[a][rng.gen_range(0..as_routers[a].len())];
        let rb = as_routers[b][rng.gen_range(0..as_routers[b].len())];
        g.add_edge(ra, rb, W_INTER, hop);
    };

    // Core clique.
    for a in core.clone() {
        for b in core.clone() {
            if a < b {
                link_as(&mut rng, &mut g, a, b);
            }
        }
    }
    // Mid-tier: two upstreams in the core (multi-homing).
    for m in mid.clone() {
        let u1 = rng.gen_range(core.clone());
        let mut u2 = rng.gen_range(core.clone());
        if u2 == u1 {
            u2 = (u2 + 1) % params.core_ases.max(1);
        }
        link_as(&mut rng, &mut g, m, u1);
        if params.core_ases > 1 {
            link_as(&mut rng, &mut g, m, u2);
        }
        // Occasional peering between mid-tier ASes.
        if rng.gen_bool(0.3) && params.mid_ases > 1 {
            let peer = rng.gen_range(mid.clone());
            if peer != m {
                link_as(&mut rng, &mut g, m, peer);
            }
        }
    }
    // Stubs: homed to 1-2 mid-tier ASes.
    for s in stub {
        let u1 = rng.gen_range(mid.clone());
        link_as(&mut rng, &mut g, s, u1);
        if rng.gen_bool(0.25) {
            let u2 = rng.gen_range(mid.clone());
            if u2 != u1 {
                link_as(&mut rng, &mut g, s, u2);
            }
        }
    }

    let routers = (0..g.len() as RouterId).collect();
    AsGraph { graph: g, routers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayMatrix;

    #[test]
    fn generated_graph_is_connected() {
        let a = generate(&AsGraphParams::tiny());
        assert!(a.graph.is_connected());
    }

    #[test]
    fn delays_are_hop_multiples() {
        let a = generate(&AsGraphParams::tiny());
        let m = DelayMatrix::lazy(a.graph.clone());
        let hop = AsGraphParams::tiny().hop_delay_us;
        for x in 0..m.len().min(20) as u32 {
            for y in 0..m.len().min(20) as u32 {
                assert_eq!(m.delay_us(x, y) % hop, 0);
            }
        }
    }

    #[test]
    fn default_scale_is_hundreds_of_ases() {
        let p = AsGraphParams::default();
        let a = generate(&p);
        let expected = (p.core_ases + p.mid_ases + p.stub_ases) * p.routers_per_as;
        let n = a.graph.len();
        assert!(n as f64 > expected as f64 * 0.6 && (n as f64) < expected as f64 * 1.4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&AsGraphParams::tiny());
        let b = generate(&AsGraphParams::tiny());
        assert_eq!(a.graph.len(), b.graph.len());
    }

    #[test]
    fn hop_counts_exceed_intra_as_paths_for_remote_pairs() {
        // A pair in different stub ASes needs at least 2 inter-AS hops.
        let p = AsGraphParams::tiny();
        let a = generate(&p);
        let m = DelayMatrix::lazy(a.graph.clone());
        let first = 0u32;
        let last = (a.graph.len() - 1) as u32;
        assert!(m.delay_us(first, last) >= 2 * p.hop_delay_us);
    }
}
