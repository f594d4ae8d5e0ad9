//! CorpNet-like topology: a 298-router graph modelled on the world-wide
//! Microsoft corporate network measurements used in the paper.
//!
//! We reproduce the structural character rather than the confidential
//! measurement data (DESIGN.md substitution #2): a small number of campuses
//! (two large — think Redmond and Cambridge — plus regional sites), each with
//! a hub-and-spoke router tree and fast intra-campus links, interconnected by
//! a handful of long-haul WAN links. The proximity metric is minimum RTT. The
//! resulting delay distribution is strongly bimodal (sub-millisecond on
//! campus, >100 ms across the ocean), which is what gives CorpNet the lowest
//! relative delay penalty of the paper's three topologies: PNS finds most
//! routing-table entries on the local campus.

use crate::graph::{Graph, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for the CorpNet-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpNetParams {
    /// Number of large campuses.
    pub campuses: usize,
    /// Routers per large campus.
    pub routers_per_campus: usize,
    /// Number of small regional sites.
    pub regional_sites: usize,
    /// Routers per regional site.
    pub routers_per_site: usize,
    /// Intra-campus link delay, microseconds (sub-millisecond LAN backbone).
    pub campus_delay_us: u64,
    /// Long-haul WAN link delay between campuses, microseconds.
    pub wan_delay_us: u64,
    /// Delay from a regional site to its home campus, microseconds.
    pub regional_delay_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpNetParams {
    fn default() -> Self {
        // 2*60 + 22*8 = 296 ≈ 298 routers, matching the paper's scale.
        // Delays are calibrated so the min-RTT distribution is moderately
        // spread (a few ms on campus, tens of ms across the WAN) rather than
        // extreme: the measured corporate network's delay distribution is
        // what gives CorpNet the lowest RDP of the paper's topologies.
        CorpNetParams {
            campuses: 2,
            routers_per_campus: 60,
            regional_sites: 22,
            routers_per_site: 8,
            campus_delay_us: 2_000,
            wan_delay_us: 40_000,
            regional_delay_us: 8_000,
            seed: 11,
        }
    }
}

impl CorpNetParams {
    /// A tiny preset for fast tests.
    pub fn tiny() -> Self {
        CorpNetParams {
            campuses: 2,
            routers_per_campus: 6,
            regional_sites: 3,
            routers_per_site: 3,
            ..Self::default()
        }
    }
}

/// Output of the CorpNet generator.
#[derive(Debug, Clone)]
pub struct CorpNet {
    /// The router-level graph.
    pub graph: Graph,
    /// Attachment points, weighted like the measured population: most
    /// machines sit on the big campuses, so campus routers appear several
    /// times (end nodes attach via a 1 ms LAN link).
    pub routers: Vec<RouterId>,
}

/// Generates a CorpNet-like corporate network topology.
pub fn generate(params: &CorpNetParams) -> CorpNet {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = Graph::default();

    // Each campus: two redundant hubs plus spokes attached to both hubs.
    let mut campus_hubs: Vec<RouterId> = Vec::new();
    for _ in 0..params.campuses {
        let hub_a = g.add_router();
        let hub_b = g.add_router();
        g.add_edge(hub_a, hub_b, 1.0, params.campus_delay_us);
        for _ in 0..params.routers_per_campus.saturating_sub(2) {
            let r = g.add_router();
            let d = params.campus_delay_us + rng.gen_range(0..=params.campus_delay_us);
            g.add_edge(r, hub_a, 1.0, d);
            if rng.gen_bool(0.5) {
                g.add_edge(r, hub_b, 1.0, d);
            }
        }
        campus_hubs.push(hub_a);
    }
    // WAN mesh between campus hubs.
    for a in 0..campus_hubs.len() {
        for b in (a + 1)..campus_hubs.len() {
            let d = params.wan_delay_us + rng.gen_range(0..=params.wan_delay_us / 4);
            g.add_edge(campus_hubs[a], campus_hubs[b], 1.0, d);
        }
    }
    let campus_router_count = g.len() as RouterId;
    // Regional sites: a small star homed to one campus hub.
    for i in 0..params.regional_sites {
        let home = campus_hubs[i % campus_hubs.len()];
        let site_hub = g.add_router();
        let d = params.regional_delay_us + rng.gen_range(0..=params.regional_delay_us / 2);
        g.add_edge(site_hub, home, 1.0, d);
        for _ in 0..params.routers_per_site.saturating_sub(1) {
            let r = g.add_router();
            g.add_edge(r, site_hub, 1.0, params.campus_delay_us);
        }
    }

    // Most of the measured machine population sits on the big campuses;
    // weight attachment accordingly (4:1 campus vs regional site).
    let mut routers: Vec<RouterId> = Vec::new();
    for r in 0..g.len() as RouterId {
        routers.push(r);
        if r < campus_router_count {
            routers.extend([r; 3]);
        }
    }
    CorpNet { graph: g, routers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayMatrix;

    #[test]
    fn default_scale_is_near_298_routers() {
        let c = generate(&CorpNetParams::default());
        let n = c.graph.len();
        assert!((280..=320).contains(&n), "router count {n}");
    }

    #[test]
    fn generated_graph_is_connected() {
        let c = generate(&CorpNetParams::tiny());
        assert!(c.graph.is_connected());
    }

    #[test]
    fn delay_distribution_is_bimodal() {
        let c = generate(&CorpNetParams::default());
        let m = DelayMatrix::lazy(c.graph.clone());
        let p = CorpNetParams::default();
        let mut near = 0u64;
        let mut far = 0u64;
        let step = (m.len() / 64).max(1);
        for a in (0..m.len()).step_by(step) {
            for b in (0..m.len()).step_by(step) {
                if a == b {
                    continue;
                }
                let d = m.delay_us(a as u32, b as u32);
                if d < p.wan_delay_us / 2 {
                    near += 1;
                } else {
                    far += 1;
                }
            }
        }
        assert!(
            near > 0 && far > 0,
            "expected both campus-local and WAN pairs"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&CorpNetParams::tiny());
        let b = generate(&CorpNetParams::tiny());
        assert_eq!(a.graph.len(), b.graph.len());
        let ma = DelayMatrix::lazy(a.graph.clone());
        let mb = DelayMatrix::lazy(b.graph.clone());
        for x in 0..ma.len() as u32 {
            for y in 0..ma.len() as u32 {
                assert_eq!(ma.delay_us(x, y), mb.delay_us(x, y));
            }
        }
    }
}
