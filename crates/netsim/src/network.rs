//! The packet-level network model.
//!
//! End hosts attach to topology routers; a message between two hosts takes
//! the router-level shortest-path delay plus the LAN attach links, with a
//! small random jitter, and is dropped with a configurable uniform loss
//! probability. Congestion is not modelled, matching the paper's simulator.

use obs::{CounterId, Obs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::{RouterId, Topology};

/// Relative delay jitter: a delivered message takes its base delay ±5 %.
const JITTER_FRAC: f64 = 0.05;

/// Index of an end host within a [`Network`].
pub type EndpointId = usize;

/// The network model: a frozen topology plus end-host attachments.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    attach: Vec<RouterId>,
    loss_rate: f64,
    blackout: bool,
    rng: SmallRng,
    obs: Obs,
    c_delivered: CounterId,
    c_lost_random: CounterId,
    c_lost_blackout: CounterId,
}

impl Network {
    /// Wraps a topology with no end hosts and no loss; delivery and loss
    /// counts go to `obs`'s registry.
    pub fn new(topo: Topology, seed: u64, obs: Obs) -> Self {
        Network {
            topo,
            attach: Vec::new(),
            loss_rate: 0.0,
            blackout: false,
            rng: SmallRng::seed_from_u64(seed),
            c_delivered: obs.counter("net.delivered"),
            c_lost_random: obs.counter("net.lost.random"),
            c_lost_blackout: obs.counter("net.lost.blackout"),
            obs,
        }
    }

    /// Sets the uniform message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn set_loss_rate(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0, 1)");
        self.loss_rate = rate;
    }

    /// Starts or ends a total outage: while set, every message is lost.
    /// Models transient network-wide failures (a core-router blackout).
    pub fn set_blackout(&mut self, on: bool) {
        self.blackout = on;
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Attaches a new end host to a random attachable router.
    pub fn add_endpoint(&mut self) -> EndpointId {
        let points = self.topo.attach_points();
        let router = points[self.rng.gen_range(0..points.len())];
        self.attach.push(router);
        self.attach.len() - 1
    }

    /// Deterministic base one-way delay between two end hosts, microseconds.
    ///
    /// This is the "network delay" used as the RDP denominator.
    pub fn base_delay_us(&self, a: EndpointId, b: EndpointId) -> u64 {
        self.topo
            .end_to_end_delay_us(self.attach[a], self.attach[b])
            .max(1)
    }

    /// Samples the delivery of one message: `None` if the message is lost,
    /// otherwise the one-way delay with ±5 % jitter.
    pub fn sample_delivery(&mut self, a: EndpointId, b: EndpointId) -> Option<u64> {
        if self.blackout {
            self.obs.inc(self.c_lost_blackout);
            return None;
        }
        if self.loss_rate > 0.0 && self.rng.gen_bool(self.loss_rate) {
            self.obs.inc(self.c_lost_random);
            return None;
        }
        self.obs.inc(self.c_delivered);
        let base = self.base_delay_us(a, b);
        let jitter = (base as f64 * JITTER_FRAC) as u64;
        let d = if jitter == 0 {
            base
        } else {
            base + self.rng.gen_range(0..=2 * jitter) - jitter
        };
        Some(d.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::TopologyKind;

    fn net() -> Network {
        net_with(Obs::new(0.0, 1))
    }

    fn net_with(obs: Obs) -> Network {
        Network::new(Topology::build(TopologyKind::GaTechTiny), 1, obs)
    }

    #[test]
    fn endpoints_attach_to_stub_routers() {
        let mut n = net();
        for i in 0..10 {
            assert_eq!(n.add_endpoint(), i, "endpoint ids are dense");
        }
        for &r in &n.attach {
            assert!(n.topology().attach_points().contains(&r));
        }
    }

    #[test]
    fn base_delay_is_symmetric_and_includes_lan() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        assert_eq!(n.base_delay_us(a, b), n.base_delay_us(b, a));
        assert!(n.base_delay_us(a, b) >= 2 * n.topology().lan_delay_us());
    }

    #[test]
    fn zero_loss_always_delivers() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        for _ in 0..100 {
            assert!(n.sample_delivery(a, b).is_some());
        }
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut n = net();
        n.set_loss_rate(0.3);
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        let lost = (0..10_000)
            .filter(|_| n.sample_delivery(a, b).is_none())
            .count();
        let frac = lost as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "measured loss {frac}");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        let base = n.base_delay_us(a, b);
        for _ in 0..200 {
            let d = n.sample_delivery(a, b).unwrap();
            assert!(d as f64 >= base as f64 * 0.94 && d as f64 <= base as f64 * 1.06);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_loss_rate_rejected() {
        net().set_loss_rate(1.0);
    }

    #[test]
    fn delivery_counters_reach_the_run_registry() {
        let run = Obs::new(0.0, 16);
        let mut n = net_with(run.clone());
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        for _ in 0..10 {
            n.sample_delivery(a, b);
        }
        n.set_blackout(true);
        for _ in 0..3 {
            n.sample_delivery(a, b);
        }
        let snap = run.snapshot();
        assert_eq!(snap.counter("net.delivered"), 10);
        assert_eq!(snap.counter("net.lost.blackout"), 3);
        assert_eq!(snap.counter("net.lost.random"), 0);
    }

    #[test]
    fn blackout_drops_everything_then_recovers() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.set_blackout(true);
        for _ in 0..50 {
            assert!(n.sample_delivery(a, b).is_none());
        }
        n.set_blackout(false);
        assert!(n.sample_delivery(a, b).is_some());
    }
}
