//! Consistent routing (§3.1, Fig. 2): the join protocol, the LS-PROBE /
//! LS-PROBE-REPLY state machine, failure marking and leaf-set repair.
//!
//! Activation is gated on probing every initial leaf-set member, leaf sets
//! are eagerly repaired when a side runs short, and failed nodes are never
//! propagated between routing states (peers confirm a gossiped failure with
//! their own probe before believing it).

use crate::config::MAX_PROBE_RETRIES;
use crate::diag::ProbeCause;
use crate::events::{Action, Effects, TimerKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::id::{Id, NodeId};
use crate::messages::{LookupId, Message};
use crate::node::Node;
use crate::pns::{MeasurePurpose, NnState};
use crate::probes::{ProbeKind, ProbeManager, TimeoutVerdict};
use crate::routing::{route, NextHop};
use crate::routing_table::DIST_UNKNOWN;
use crate::tuning::SelfTuner;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;

pub(crate) const FAILED_CAP: usize = 512;

/// Join/probe/repair state owned by the consistency layer.
#[derive(Debug)]
pub(crate) struct Consistency {
    pub(crate) probes: ProbeManager,
    pub(crate) probe_nonce: u64,
    pub(crate) failed: FxHashSet<NodeId>,
    pub(crate) failed_order: VecDeque<NodeId>,
    pub(crate) repair_paced: FxHashMap<NodeId, u64>,
    pub(crate) buffered_joins: Vec<(NodeId, Vec<Vec<NodeId>>, u32)>,
    pub(crate) join_seed: Option<NodeId>,
}

impl Consistency {
    pub(crate) fn new() -> Self {
        Consistency {
            probes: ProbeManager::new(),
            probe_nonce: 0,
            failed: FxHashSet::default(),
            failed_order: VecDeque::new(),
            repair_paced: FxHashMap::default(),
            buffered_joins: Vec::new(),
            join_seed: None,
        }
    }

    /// Capped insertion into the failure set (oldest entries evicted).
    pub(crate) fn insert_failed(&mut self, j: NodeId) {
        if self.failed.insert(j) {
            self.failed_order.push_back(j);
            while self.failed_order.len() > FAILED_CAP {
                if let Some(old) = self.failed_order.pop_front() {
                    self.failed.remove(&old);
                }
            }
        }
    }

    /// Removes `j` from the failure set and its eviction order.
    pub(crate) fn unfail(&mut self, j: NodeId) -> bool {
        if self.failed.remove(&j) {
            self.failed_order.retain(|&n| n != j);
            return true;
        }
        false
    }

    pub(crate) fn clear_failed(&mut self) {
        self.failed.clear();
        self.failed_order.clear();
    }
}

impl Node {
    // ----- join -------------------------------------------------------------

    pub(crate) fn on_join(&mut self, seed: Option<NodeId>, fx: &mut Effects) {
        self.consistency.join_seed = seed;
        self.maintenance.tuner = SelfTuner::new(self.ctx.now_us);
        // Periodic timers, staggered to avoid fleet-wide synchronisation.
        let stagger = |rng: &mut SmallRng, period: u64| rng.gen_range(1..=period.max(1));
        let hb = stagger(&mut self.ctx.rng, self.ctx.cfg.t_ls_us);
        fx.timer(hb, TimerKind::Heartbeat);
        let rp = stagger(&mut self.ctx.rng, self.maintenance.t_rt_us);
        if self.ctx.cfg.active_rt_probing {
            fx.timer(rp, TimerKind::RtProbeTick);
        }
        let rm = stagger(&mut self.ctx.rng, self.ctx.cfg.rt_maintenance_period_us);
        fx.timer(rm, TimerKind::RtMaintenance);
        if self.ctx.cfg.self_tuning {
            let st = stagger(&mut self.ctx.rng, self.ctx.cfg.self_tune_period_us);
            fx.timer(st, TimerKind::SelfTune);
        }
        match seed {
            None => self.activate(fx),
            Some(seed) => {
                fx.timer(self.ctx.cfg.join_retry_us, TimerKind::JoinRetry);
                if self.ctx.cfg.nearest_neighbor_join {
                    self.measurement.nn = Some(NnState::new(seed));
                    self.send(seed, Message::NnLeafSetRequest, fx);
                    self.start_measurement(seed, MeasurePurpose::NearestNeighbor, fx);
                } else {
                    self.send_join_request(seed, fx);
                }
            }
        }
    }

    pub(crate) fn send_join_request(&mut self, to: NodeId, fx: &mut Effects) {
        self.send(
            to,
            Message::JoinRequest {
                joiner: self.ctx.id,
                rows: Vec::new(),
                hops: 0,
            },
            fx,
        );
    }

    pub(crate) fn on_join_retry(&mut self, fx: &mut Effects) {
        if !self.ctx.active {
            if let Some(seed) = self.consistency.join_seed {
                // Prefer whatever the nearest-neighbour phase found.
                let to = self
                    .measurement
                    .nn
                    .as_ref()
                    .map(|n| n.current())
                    .unwrap_or(seed);
                self.measurement.nn = None;
                self.send_join_request(to, fx);
                fx.timer(self.ctx.cfg.join_retry_us, TimerKind::JoinRetry);
            }
        }
    }

    pub(crate) fn activate(&mut self, fx: &mut Effects) {
        if self.ctx.active {
            return;
        }
        self.ctx.active = true;
        self.measurement.nn = None;
        self.consistency.clear_failed();
        fx.actions.push(Action::BecameActive);
        // Announce: send each initialised row to the nodes in that row so
        // they learn about us and gossip previous joiners (§2).
        for r in self.rt.occupied_rows() {
            let mut entries = self.rt.row_ids(r);
            for &to in entries.clone().iter() {
                entries.push(self.ctx.id);
                self.send(
                    to,
                    Message::RtRowAnnounce {
                        row: r,
                        entries: entries.clone(),
                    },
                    fx,
                );
                entries.pop();
            }
        }
        // Symmetric PNS: the joiner initiates distance probing of the nodes
        // in its routing state; they wait for the measured values (§4.2).
        let targets: Vec<NodeId> = self
            .rt
            .entries()
            .filter(|e| e.distance_us == DIST_UNKNOWN)
            .map(|e| e.id)
            .collect();
        for t in targets {
            self.start_measurement(t, MeasurePurpose::ConsiderRt, fx);
        }
        // Route anything buffered during the join.
        let joins = std::mem::take(&mut self.consistency.buffered_joins);
        for (joiner, rows, hops) in joins {
            self.on_join_request(joiner, rows, hops, fx);
        }
        self.flush_buffered(fx);
    }

    /// Announces a voluntary departure to every node in the routing state.
    /// The host is expected to stop the node afterwards.
    pub(crate) fn on_leave(&mut self, fx: &mut Effects) {
        if !self.ctx.active {
            return;
        }
        for peer in self.routing_state_ids() {
            self.send(peer, Message::Leaving, fx);
        }
        self.ctx.active = false;
    }

    pub(crate) fn on_join_request(
        &mut self,
        joiner: NodeId,
        mut rows: Vec<Vec<NodeId>>,
        hops: u32,
        fx: &mut Effects,
    ) {
        if joiner == self.ctx.id {
            return;
        }
        // Contribute routing-table rows 0..=spl (Fig. 2: R.add(Ri)).
        let spl = self.ctx.id.shared_prefix_len(joiner, self.ctx.cfg.b);
        let max_row = spl.min(Id::rows(self.ctx.cfg.b) - 1);
        if rows.len() <= max_row {
            rows.resize(max_row + 1, Vec::new());
        }
        for (r, row) in rows.iter_mut().enumerate().take(max_row + 1) {
            if row.is_empty() {
                *row = self.rt.row_ids(r);
            }
        }
        // The hop itself belongs in the joiner's table at row `spl`.
        if !rows[max_row].contains(&self.ctx.id) {
            rows[max_row].push(self.ctx.id);
        }
        match route(&self.rt, &self.ls, joiner, self.reliability.excludes(&[])) {
            NextHop::Local => {
                if self.ctx.active {
                    let mut leaf_set = self.ls.members();
                    leaf_set.push(self.ctx.id);
                    self.send(joiner, Message::JoinReply { rows, leaf_set }, fx);
                } else if self.consistency.buffered_joins.len() < 64 {
                    // Buffer and re-route once we are active ourselves
                    // (Fig. 2 buffers messages received while inactive).
                    self.consistency.buffered_joins.push((joiner, rows, hops));
                }
            }
            NextHop::Forward { next, .. } => {
                self.send(
                    next,
                    Message::JoinRequest {
                        joiner,
                        rows,
                        hops: hops + 1,
                    },
                    fx,
                );
            }
        }
    }

    pub(crate) fn on_join_reply(
        &mut self,
        from: NodeId,
        rows: Vec<Vec<NodeId>>,
        leaf_set: Vec<NodeId>,
        fx: &mut Effects,
    ) {
        if self.ctx.active {
            return;
        }
        // Bootstrap the routing state (Fig. 2: Ri.add(R ∪ L); Li.add(L)).
        for row in &rows {
            for &n in row {
                self.rt.offer(n, self.measurement.known_dist(n));
            }
        }
        for &n in &leaf_set {
            let d = self.measurement.known_dist(n);
            self.rt.offer(n, d);
            self.ls.add(n);
        }
        // The replying root spoke to us directly.
        self.ls.add(from);
        self.rt.offer(from, self.measurement.known_dist(from));
        // Probe every leaf-set member before becoming active.
        for m in self.ls.members() {
            if self.probe(m, ProbeKind::LeafSet, true, fx) {
                self.ctx.obs.cause(ProbeCause::JoinBootstrap);
            }
        }
        if self.consistency.probes.leaf_set_outstanding() == 0 {
            // Degenerate bootstrap (no members): singleton overlay.
            self.done_probing(fx);
        }
    }

    // ----- leaf-set probing (Fig. 2) ---------------------------------------

    /// Starts a probe of `j` unless one is outstanding or `j` is failed.
    /// `announce` controls whether exhausting the probe announces the failure
    /// to the leaf set (confirmation probes of an already-announced failure
    /// do not re-announce).
    pub(crate) fn probe(
        &mut self,
        j: NodeId,
        kind: ProbeKind,
        announce: bool,
        fx: &mut Effects,
    ) -> bool {
        if j == self.ctx.id
            || self.consistency.failed.contains(&j)
            || self.consistency.probes.contains(j)
        {
            return false;
        }
        if !self
            .consistency
            .probes
            .begin(j, kind, announce, self.ctx.now_us)
        {
            return false;
        }
        self.send_probe_message(j, kind, fx);
        fx.timer(
            self.ctx.cfg.t_o_us,
            TimerKind::ProbeTimeout {
                target: j,
                attempt: 0,
            },
        );
        true
    }

    pub(crate) fn send_probe_message(&mut self, j: NodeId, kind: ProbeKind, fx: &mut Effects) {
        match kind {
            ProbeKind::LeafSet => {
                let msg = Message::LsProbe {
                    leaf_set: self.ls.members(),
                    failed: self.consistency.failed.iter().copied().collect(),
                    trt_hint: self.hint(),
                };
                self.send(j, msg, fx);
            }
            ProbeKind::Liveness => {
                self.consistency.probe_nonce += 1;
                self.send(
                    j,
                    Message::RtProbe {
                        nonce: self.consistency.probe_nonce,
                    },
                    fx,
                );
            }
        }
    }

    pub(crate) fn on_ls_probe(
        &mut self,
        j: NodeId,
        leaf_set: Vec<NodeId>,
        failed: Vec<NodeId>,
        is_probe: bool,
        fx: &mut Effects,
    ) {
        // failed_i := failed_i − {j}
        self.consistency.unfail(j);
        // L_i.add({j}); R_i.add({j}) — j spoke to us directly.
        self.ls.add(j);
        self.rt.offer(j, self.measurement.known_dist(j));
        // Probe members the sender believes faulty (to confirm / recover from
        // false positives), then drop them from the leaf set.
        for &n in &failed {
            if n != self.ctx.id && self.ls.contains(n) {
                // Confirmation probe: do not re-announce on exhaustion.
                if self.probe(n, ProbeKind::LeafSet, false, fx) {
                    self.ctx.obs.cause(ProbeCause::Confirm);
                }
                self.ls.remove(n);
            }
        }
        // Candidates from the sender's leaf set are probed before inclusion.
        // Only candidates that would actually belong to the resulting leaf
        // set are probed; probing every admissible node would flood ~l
        // probes per vacancy.
        let failed = &self.consistency.failed;
        for n in self
            .ls
            .useful_candidates(&leaf_set, |n| !failed.contains(&n))
        {
            if self.probe(n, ProbeKind::LeafSet, true, fx) {
                self.ctx.obs.cause(ProbeCause::Candidate);
            }
        }
        if is_probe {
            let msg = Message::LsProbeReply {
                leaf_set: self.ls.members(),
                failed: self.consistency.failed.iter().copied().collect(),
                trt_hint: self.hint(),
            };
            self.send(j, msg, fx);
        } else {
            self.clear_probe(j);
            self.done_probing(fx);
        }
    }

    /// Clears an outstanding probe to `j` after any direct reply and samples
    /// its RTT.
    pub(crate) fn clear_probe(&mut self, j: NodeId) {
        if let Some(st) = self.consistency.probes.on_reply(j) {
            let rtt = self.ctx.now_us.saturating_sub(st.sent_at_us);
            self.ctx.obs.rtt_sample(rtt);
            self.reliability.rtos.update(j, rtt);
        }
    }

    pub(crate) fn done_probing(&mut self, fx: &mut Effects) {
        if self.consistency.probes.leaf_set_outstanding() > 0 {
            return;
        }
        if self.ls.is_complete() {
            if !self.ctx.active {
                self.activate(fx);
            }
            // Fig. 2: whenever probing drains with a complete leaf set,
            // `failed` is cleared. This stops stale false-positive entries
            // from being gossiped forever (a peer's sticky `failed` set
            // would otherwise keep evicting a live node from our leaf set,
            // re-probing it in an endless remove/confirm/re-add cycle).
            self.consistency.clear_failed();
            return;
        }
        // Leaf-set repair: extend the short side by probing its farthest
        // member; with an empty side, fall back to the closest known node on
        // that side (generalised repair).
        let half = self.ctx.cfg.leaf_half();
        let mut repair_targets: Vec<NodeId> = Vec::new();
        if self.ls.left().len() < half {
            match self.ls.leftmost() {
                Some(lm) => repair_targets.push(lm),
                None => {
                    if let Some(c) = self.closest_known(|own, n| own.ccw_dist(n)) {
                        repair_targets.push(c);
                    }
                }
            }
        }
        if self.ls.right().len() < half {
            match self.ls.rightmost() {
                Some(rm) => repair_targets.push(rm),
                None => {
                    if let Some(c) = self.closest_known(|own, n| own.cw_dist(n)) {
                        repair_targets.push(c);
                    }
                }
            }
        }
        if repair_targets.is_empty() {
            // Nobody left to ask: the overlay (as far as we know) is just us.
            if !self.ctx.active {
                self.activate(fx);
            }
            return;
        }
        for t in repair_targets {
            // Pace repair probes so an unhelpful neighbour is not hammered.
            let last = self.consistency.repair_paced.get(&t).copied().unwrap_or(0);
            if self.ctx.now_us.saturating_sub(last) >= self.ctx.cfg.t_o_us || last == 0 {
                self.consistency
                    .repair_paced
                    .insert(t, self.ctx.now_us.max(1));
                if self.probe(t, ProbeKind::LeafSet, true, fx) {
                    self.ctx.obs.cause(ProbeCause::Repair);
                }
            }
        }
    }

    pub(crate) fn closest_known(&self, dist: impl Fn(NodeId, NodeId) -> u128) -> Option<NodeId> {
        self.routing_state_ids()
            .into_iter()
            .filter(|n| !self.consistency.failed.contains(n))
            .min_by_key(|&n| dist(self.ctx.id, n))
    }

    pub(crate) fn mark_faulty(&mut self, j: NodeId, announce: bool, fx: &mut Effects) {
        let was_ls_member = self.ls.contains(j);
        self.ls.remove(j);
        self.rt.remove(j);
        self.consistency.insert_failed(j);
        self.maintenance.tuner.record_failure(self.ctx.now_us);
        self.maintenance.tuner.forget(j);
        self.reliability.rtos.forget(j);
        self.measurement.known_dists.remove(&j);
        self.measurement.measurer.cancel(j);
        self.reliability.suspected.remove(&j);
        if was_ls_member && self.ctx.active && announce {
            // Announce the failure to the remaining leaf-set members; their
            // replies provide replacement candidates (§4.1).
            for m in self.ls.members() {
                if self.probe(m, ProbeKind::LeafSet, true, fx) {
                    self.ctx.obs.cause(ProbeCause::Announce);
                }
            }
        }
        // Lookups still awaiting an ack from `j` will never get one —
        // re-route them now rather than waiting out their (backed-off)
        // retransmission timers.
        let stranded: Vec<LookupId> = self
            .reliability
            .pending
            .iter()
            .filter(|(_, p)| p.next == j)
            .map(|(&id, _)| id)
            .collect();
        for id in stranded {
            let Some(p) = self.reliability.pending.remove(&id) else {
                continue;
            };
            self.ctx.obs.stranded_reroute();
            self.reroute_around(p, j, "stranded", fx);
        }
    }

    pub(crate) fn on_probe_timeout(&mut self, target: NodeId, attempt: u32, fx: &mut Effects) {
        match self.consistency.probes.on_timeout(
            target,
            attempt,
            MAX_PROBE_RETRIES,
            self.ctx.now_us,
        ) {
            TimeoutVerdict::Stale => {}
            TimeoutVerdict::Retry(next_attempt) => {
                let kind = self
                    .consistency
                    .probes
                    .get(target)
                    .map(|s| s.kind)
                    .unwrap_or(ProbeKind::Liveness);
                self.send_probe_message(target, kind, fx);
                fx.timer(
                    self.ctx.cfg.t_o_us,
                    TimerKind::ProbeTimeout {
                        target,
                        attempt: next_attempt,
                    },
                );
            }
            TimeoutVerdict::Exhausted(st) => {
                self.mark_faulty(target, st.announce, fx);
                if st.kind == ProbeKind::LeafSet {
                    self.done_probing(fx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_set_is_capped_and_evicts_oldest() {
        let mut c = Consistency::new();
        for i in 0..(FAILED_CAP + 10) {
            c.insert_failed(Id(i as u128 + 1));
        }
        assert_eq!(c.failed.len(), FAILED_CAP);
        assert_eq!(c.failed_order.len(), FAILED_CAP);
        // The first ten inserts were evicted, the newest survive.
        assert!(!c.failed.contains(&Id(1)));
        assert!(c.failed.contains(&Id(FAILED_CAP as u128 + 10)));
        // Re-inserting an existing member must not duplicate its order entry.
        c.insert_failed(Id(FAILED_CAP as u128 + 10));
        assert_eq!(c.failed_order.len(), FAILED_CAP);
    }

    #[test]
    fn unfail_removes_from_set_and_order() {
        let mut c = Consistency::new();
        c.insert_failed(Id(7));
        assert!(c.unfail(Id(7)));
        assert!(!c.unfail(Id(7)), "second removal is a no-op");
        assert!(c.failed_order.is_empty());
    }
}
