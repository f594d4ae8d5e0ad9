//! Low-overhead maintenance (§4.1): the single heartbeat to the left ring
//! neighbour, active liveness probing of routing-table entries, periodic
//! routing-table maintenance, and the self-tuning tick that recomputes the
//! probing period `T_rt` from the observed failure rate.
//!
//! Probe suppression lives here too: regular traffic recorded in the
//! per-peer `traffic` map postpones heartbeats and skips liveness probes.

use crate::diag::ProbeCause;
use crate::events::{Effects, TimerKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::id::NodeId;
use crate::messages::Message;
use crate::node::Node;
use crate::probes::ProbeKind;
use crate::tuning::{SelfTuner, FIXED_T_RT_US};
use rand::Rng;

/// When this node last heard from and last sent to one peer. [`NEVER`]
/// marks a stamp that is not set, which keeps an entry at 32 bytes with its
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Traffic {
    heard: u64,
    sent: u64,
}

/// The stamp of a direction with no traffic (no clock reaches it).
const NEVER: u64 = u64::MAX;

impl Traffic {
    const NONE: Traffic = Traffic {
        heard: NEVER,
        sent: NEVER,
    };
}

/// The stamp `t` if it is set.
fn stamp(t: u64) -> Option<u64> {
    (t != NEVER).then_some(t)
}

/// Timer/traffic bookkeeping owned by the maintenance layer.
#[derive(Debug)]
pub(crate) struct Maintenance {
    /// Per-peer traffic stamps: one entry serves both the receive of a
    /// lookup and the ack sent right after it.
    traffic: FxHashMap<NodeId, Traffic>,
    pub(crate) tuner: SelfTuner,
    pub(crate) t_rt_us: u64,
}

impl Maintenance {
    pub(crate) fn new() -> Self {
        Maintenance {
            traffic: FxHashMap::default(),
            tuner: SelfTuner::new(0),
            t_rt_us: FIXED_T_RT_US,
        }
    }

    /// Stamps a message received from `peer` at `now_us`.
    pub(crate) fn heard(&mut self, peer: NodeId, now_us: u64) {
        self.traffic.entry(peer).or_insert(Traffic::NONE).heard = now_us;
    }

    /// Stamps a message sent to `peer` at `now_us`.
    pub(crate) fn sent(&mut self, peer: NodeId, now_us: u64) {
        self.traffic.entry(peer).or_insert(Traffic::NONE).sent = now_us;
    }

    /// When `peer` was last heard from, if ever (since its last pruning).
    pub(crate) fn last_heard(&self, peer: NodeId) -> Option<u64> {
        self.traffic.get(&peer).and_then(|t| stamp(t.heard))
    }

    /// When this node last sent to `peer`, if ever (since its last pruning).
    pub(crate) fn last_sent(&self, peer: NodeId) -> Option<u64> {
        self.traffic.get(&peer).and_then(|t| stamp(t.sent))
    }

    /// Forgets every stamp of a peer outside `keep` that is `horizon_us` or
    /// older, each direction on its own, and drops entries left with none.
    fn prune(&mut self, keep: &FxHashSet<NodeId>, now_us: u64, horizon_us: u64) {
        let fresh = |t: u64| t != NEVER && now_us.saturating_sub(t) < horizon_us;
        self.traffic.retain(|n, t| {
            if keep.contains(n) {
                return true;
            }
            if !fresh(t.heard) {
                t.heard = NEVER;
            }
            if !fresh(t.sent) {
                t.sent = NEVER;
            }
            *t != Traffic::NONE
        });
    }
}

impl Node {
    pub(crate) fn on_heartbeat_tick(&mut self, fx: &mut Effects) {
        // The one periodic timer every node runs, whatever its
        // configuration: release duplicate-window memory on it.
        self.reliability.seen.trim(self.ctx.now_us);
        if !self.ctx.active {
            fx.timer(self.ctx.cfg.t_ls_us, TimerKind::Heartbeat);
            return;
        }
        // Heartbeat to the left neighbour. Suppression *postpones* the
        // heartbeat to `last_sent + Tls` rather than skipping a whole period:
        // skipping would stretch the neighbour's inter-reception gap to
        // almost 2·Tls and trip its Tls+To silence check spuriously.
        let mut next_tick = self.ctx.cfg.t_ls_us;
        if let Some(left) = self.ls.left_neighbor() {
            let due = if self.ctx.cfg.probe_suppression {
                self.maintenance
                    .last_sent(left)
                    .map(|t| t.saturating_add(self.ctx.cfg.t_ls_us))
                    .unwrap_or(self.ctx.now_us)
            } else {
                self.ctx.now_us
            };
            if self.ctx.now_us >= due {
                let hint = self.hint();
                self.send(left, Message::Heartbeat { trt_hint: hint }, fx);
            } else {
                next_tick = (due - self.ctx.now_us).min(self.ctx.cfg.t_ls_us);
            }
        }
        fx.timer(next_tick, TimerKind::Heartbeat);
        if let Some(right) = self.ls.right_neighbor() {
            let last = self.maintenance.last_heard(right).unwrap_or(0);
            if self.ctx.now_us.saturating_sub(last) > self.ctx.cfg.t_ls_us + self.ctx.cfg.t_o_us {
                // SUSPECT-FAULTY (Fig. 2): silence from the right neighbour.
                if self.probe(right, ProbeKind::LeafSet, true, fx) {
                    self.ctx.obs.cause(ProbeCause::Suspect);
                }
            }
        }
    }

    pub(crate) fn on_rt_probe_tick(&mut self, fx: &mut Effects) {
        if !self.ctx.cfg.active_rt_probing {
            return;
        }
        fx.timer(self.maintenance.t_rt_us, TimerKind::RtProbeTick);
        if !self.ctx.active {
            return;
        }
        let targets: Vec<NodeId> = self.rt.entries().map(|e| e.id).collect();
        for j in targets {
            let suppressed = self.ctx.cfg.probe_suppression
                && self
                    .maintenance
                    .last_heard(j)
                    .is_some_and(|t| self.ctx.now_us.saturating_sub(t) < self.maintenance.t_rt_us);
            if !suppressed {
                self.probe(j, ProbeKind::Liveness, true, fx);
            }
        }
    }

    pub(crate) fn on_rt_maintenance(&mut self, fx: &mut Effects) {
        fx.timer(
            self.ctx.cfg.rt_maintenance_period_us,
            TimerKind::RtMaintenance,
        );
        if !self.ctx.active {
            return;
        }
        for r in self.rt.occupied_rows() {
            let ids = self.rt.row_ids(r);
            let j = ids[self.ctx.rng.gen_range(0..ids.len())];
            self.send(j, Message::RtRowRequest { row: r }, fx);
        }
    }

    pub(crate) fn on_self_tune(&mut self, fx: &mut Effects) {
        fx.timer(self.ctx.cfg.self_tune_period_us, TimerKind::SelfTune);
        if !self.ctx.active || !self.ctx.cfg.self_tuning {
            return;
        }
        let state = self.routing_state_ids();
        let m = state.len();
        self.maintenance.t_rt_us = self
            .maintenance
            .tuner
            .recompute(&self.ctx.cfg, self.ctx.now_us, m, &self.ls, &state)
            .max(self.ctx.cfg.t_rt_floor_us());
        self.ctx.obs.t_rt(self.maintenance.t_rt_us);
        // Opportunistic pruning of per-peer maps.
        let keep: FxHashSet<NodeId> = state.into_iter().collect();
        let now = self.ctx.now_us;
        let horizon = 4 * self.ctx.cfg.t_ls_us;
        self.maintenance.prune(&keep, now, horizon);
        self.consistency
            .repair_paced
            .retain(|_, &mut t| now.saturating_sub(t) < horizon);
        let dist_horizon = self.ctx.cfg.rt_maintenance_period_us;
        self.measurement
            .known_dists
            .retain(|n, &mut (_, at)| keep.contains(n) || now.saturating_sub(at) < dist_horizon);
    }

    // ----- passive RT exchange handlers -------------------------------------

    pub(crate) fn on_rt_probe(&mut self, from: NodeId, nonce: u64, fx: &mut Effects) {
        let hint = self.hint();
        self.send(
            from,
            Message::RtProbeReply {
                nonce,
                trt_hint: hint,
            },
            fx,
        );
    }

    pub(crate) fn on_rt_row_request(&mut self, from: NodeId, row: usize, fx: &mut Effects) {
        let entries = self.rt.row_ids(row);
        self.send(from, Message::RtRowReply { row, entries }, fx);
    }

    pub(crate) fn on_rt_slot_request(
        &mut self,
        from: NodeId,
        row: usize,
        col: u8,
        fx: &mut Effects,
    ) {
        let entry = self.rt.get(row, col).map(|e| e.id);
        self.send(from, Message::RtSlotReply { row, col, entry }, fx);
    }

    // ----- self-tuning hints ------------------------------------------------

    pub(crate) fn hint(&self) -> Option<u64> {
        if self.ctx.cfg.self_tuning && self.ctx.active {
            Some(self.maintenance.tuner.local_t_rt_us())
        } else {
            None
        }
    }

    pub(crate) fn note_hint(&mut self, from: NodeId, hint: Option<u64>) {
        if let Some(h) = hint {
            self.maintenance.tuner.note_hint(from, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::events::Event;
    use crate::id::Id;

    fn cfg() -> Config {
        Config {
            nearest_neighbor_join: false,
            ..Config::default()
        }
    }

    #[test]
    fn hint_is_only_offered_by_active_self_tuning_nodes() {
        let mut n = Node::new(Id(1), cfg());
        assert_eq!(n.hint(), None, "inactive node offers no hint");
        let mut fx = Effects::new();
        n.handle(0, Event::Join { seed: None }, &mut fx);
        if n.config().self_tuning {
            assert!(n.hint().is_some(), "active self-tuning node offers a hint");
        }
        n.note_hint(Id(2), Some(12_000_000));
        n.note_hint(Id(3), None); // must be a no-op, not a panic
    }

    #[test]
    fn self_tune_prunes_stale_peer_maps() {
        let mut n = Node::new(Id(1), cfg());
        let mut fx = Effects::new();
        n.handle(0, Event::Join { seed: None }, &mut fx);
        let far = 100 * n.config().t_ls_us;
        let horizon = 4 * n.config().t_ls_us;
        // A peer outside the routing state, silent both ways for long.
        n.maintenance.heard(Id(999), 1);
        n.maintenance.sent(Id(999), 1);
        // Another one heard from long ago but sent to just now.
        n.maintenance.heard(Id(998), 1);
        n.maintenance.sent(Id(998), far - horizon + 1);
        // And one only sent to, long ago: its unset `heard` stays unset.
        n.maintenance.sent(Id(997), far - horizon);
        // A leaf-set member keeps its stamps, however old.
        n.ls.add(Id(2));
        n.maintenance.heard(Id(2), 1);
        n.handle(far, Event::Timer(TimerKind::SelfTune), &mut fx);
        assert!(
            !n.maintenance.traffic.contains_key(&Id(999)),
            "stale non-member pruned"
        );
        assert_eq!(
            n.maintenance.last_heard(Id(998)),
            None,
            "stale heard pruned"
        );
        assert_eq!(
            n.maintenance.last_sent(Id(998)),
            Some(far - horizon + 1),
            "fresh sent kept"
        );
        assert!(!n.maintenance.traffic.contains_key(&Id(997)));
        assert_eq!(n.maintenance.last_heard(Id(2)), Some(1));
        assert_eq!(n.maintenance.last_sent(Id(2)), None);
    }

    #[test]
    fn a_traffic_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<(NodeId, Traffic)>(), 32);
    }
}
