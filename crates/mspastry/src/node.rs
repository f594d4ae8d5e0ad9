//! The MSPastry node: shared state, the event dispatcher, and the glue
//! between the layered protocol modules.
//!
//! A [`Node`] is pure protocol logic: the host feeds it [`Event`]s together
//! with the current clock and executes the [`crate::events::Action`]s it
//! emits (the shared
//! [`crate::driver`] layer does exactly that for both the simulator and the
//! UDP deployment). The protocol mechanisms themselves live in four sibling
//! modules, one per technique of the paper, each holding its own state
//! struct plus the `impl Node` handlers for its events:
//!
//! * `consistency` — the join protocol, the LS-PROBE/REPLY state machine and
//!   leaf-set repair (§3.1, Fig. 2);
//! * `reliability` — per-hop acks, retransmission, RTO arming and temporary
//!   exclusion of suspects (§3.2);
//! * `maintenance` — heartbeats, active routing-table probing, periodic RT
//!   maintenance and the self-tuning tick (§4.1);
//! * `measurement` — distance probing and nearest-neighbour discovery for
//!   proximity neighbour selection (§4.2).
//!
//! The cross-cutting context — identifier, configuration, clock, RNG and
//! observability — is grouped in one `Ctx` threaded explicitly through every
//! handler, so each module touches only the state it owns plus the context.

use crate::config::Config;
use crate::consistency::Consistency;
use crate::diag::NodeObs;
use crate::events::{DropReason, Effects, Event, TimerKind};
use crate::id::{Key, NodeId};
use crate::leaf_set::LeafSet;
use crate::maintenance::Maintenance;
use crate::measurement::Measurement;
use crate::messages::{LookupId, Message};
use crate::reliability::{DuplicateWindow, LookupRecord, Reliability};
use crate::routing_table::RoutingTable;
use obs::{HopEvent, HopKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Cross-cutting per-node context shared by every protocol module: identity,
/// configuration, the host-supplied clock, the deterministic RNG and the
/// observability handles.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub(crate) id: NodeId,
    pub(crate) cfg: Config,
    pub(crate) now_us: u64,
    pub(crate) active: bool,
    pub(crate) rng: SmallRng,
    pub(crate) obs: NodeObs,
}

impl Ctx {
    /// Traces one step of lookup `id` at the current clock. The event is
    /// built only when the lookup is in the hop-trace sample.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace(
        &self,
        id: LookupId,
        kind: HopKind,
        peer: u128,
        hops: u32,
        attempt: u32,
        detail_us: u64,
        note: &'static str,
    ) {
        if self.obs.sampled(id) {
            self.obs
                .hop(self.hop_ev(id, kind, peer, hops, attempt, detail_us, note));
        }
    }

    /// Drops lookup `id` here: counts it under `reason` and traces the drop
    /// when the lookup is sampled.
    pub(crate) fn drop_lookup(
        &self,
        id: LookupId,
        reason: DropReason,
        peer: u128,
        hops: u32,
        attempt: u32,
    ) {
        let ev = self.hop_ev(id, HopKind::Drop, peer, hops, attempt, 0, reason.as_str());
        self.obs.drop_event(reason, ev);
    }

    #[allow(clippy::too_many_arguments)]
    fn hop_ev(
        &self,
        id: LookupId,
        kind: HopKind,
        peer: u128,
        hops: u32,
        attempt: u32,
        detail_us: u64,
        note: &'static str,
    ) -> HopEvent {
        HopEvent {
            at_us: self.now_us,
            node: self.id.0,
            src: id.src.0,
            seq: id.seq,
            kind,
            peer,
            hops,
            attempt,
            detail_us,
            note,
        }
    }
}

/// An MSPastry overlay node.
#[derive(Debug)]
pub struct Node {
    pub(crate) ctx: Ctx,
    pub(crate) rt: RoutingTable,
    pub(crate) ls: LeafSet,
    pub(crate) consistency: Consistency,
    pub(crate) reliability: Reliability,
    pub(crate) maintenance: Maintenance,
    pub(crate) measurement: Measurement,
}

impl Node {
    /// Creates an inactive node; feed it [`Event::Join`] to start. It counts
    /// into an observability registry of its own and traces nothing.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(id: NodeId, cfg: Config) -> Self {
        Self::with_obs(id, cfg, obs::Obs::new(0.0, 1))
    }

    /// Creates an inactive node wired to a per-run observability handle:
    /// its diagnostic counters, RTO/period histograms and sampled hop
    /// traces land in `obs`'s registry and flight recorder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_obs(id: NodeId, cfg: Config, obs: obs::Obs) -> Self {
        cfg.validate().expect("invalid MSPastry configuration");
        let half = cfg.leaf_half();
        let b = cfg.b;
        let maintenance = Maintenance::new();
        Node {
            rt: RoutingTable::new(id, b),
            ls: LeafSet::new(id, half),
            consistency: Consistency::new(),
            reliability: Reliability::new(&cfg),
            maintenance,
            measurement: Measurement::new(),
            ctx: Ctx {
                id,
                cfg,
                now_us: 0,
                active: false,
                rng: SmallRng::seed_from_u64((id.0 as u64) ^ ((id.0 >> 64) as u64)),
                obs: NodeObs::new(obs),
            },
        }
    }

    /// Like [`Node::with_obs`], but with a duplicate horizon of
    /// `horizon_us` instead of [`Config::duplicate_window_us`] (`u64::MAX`
    /// never forgets an id). Only for tests that check the derived horizon
    /// suppresses exactly what an endless one would.
    #[doc(hidden)]
    pub fn with_duplicate_window(id: NodeId, cfg: Config, obs: obs::Obs, horizon_us: u64) -> Self {
        let mut node = Self::with_obs(id, cfg, obs);
        node.reliability.seen = DuplicateWindow::new(horizon_us);
        node
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.ctx.id
    }

    /// `true` once the node has completed its join.
    pub fn is_active(&self) -> bool {
        self.ctx.active
    }

    /// The node's configuration.
    pub fn config(&self) -> &Config {
        &self.ctx.cfg
    }

    /// Read access to the routing table (for tests and metrics).
    pub fn routing_table(&self) -> &RoutingTable {
        &self.rt
    }

    /// Read access to the leaf set (for tests and metrics).
    pub fn leaf_set(&self) -> &LeafSet {
        &self.ls
    }

    /// The currently adopted routing-table probing period.
    pub fn t_rt_us(&self) -> u64 {
        self.maintenance.t_rt_us
    }

    /// Number of peers currently suspected faulty (probed, reply still
    /// outstanding) — a liveness diagnostic for health endpoints.
    pub fn suspected_count(&self) -> usize {
        self.reliability.suspected.len()
    }

    /// Lookup ids held in the duplicate-suppression window (a memory
    /// diagnostic: it follows the horizon
    /// [`Config::duplicate_window_us`], not the run length).
    pub fn duplicate_window_len(&self) -> usize {
        self.reliability.seen.len()
    }

    /// Handles one event at time `now_us`, appending outputs to `fx`.
    pub fn handle(&mut self, now_us: u64, event: Event, fx: &mut Effects) {
        self.ctx.now_us = now_us;
        match event {
            Event::Join { seed } => self.on_join(seed, fx),
            Event::Lookup { key, payload } => self.on_local_lookup(key, payload, fx),
            Event::Leave => self.on_leave(fx),
            Event::Receive { from, msg } => self.on_receive(from, msg, fx),
            Event::Timer(kind) => self.on_timer(kind, fx),
        }
    }

    // ----- dispatch ---------------------------------------------------------

    fn on_receive(&mut self, from: NodeId, msg: Message, fx: &mut Effects) {
        self.maintenance.heard(from, self.ctx.now_us);
        self.reliability.suspected.remove(&from);
        match msg {
            Message::JoinRequest { joiner, rows, hops } => {
                self.on_join_request(joiner, rows, hops, fx)
            }
            Message::JoinReply { rows, leaf_set } => self.on_join_reply(from, rows, leaf_set, fx),
            Message::LsProbe {
                leaf_set,
                failed,
                trt_hint,
            } => {
                self.note_hint(from, trt_hint);
                self.on_ls_probe(from, leaf_set, failed, true, fx);
            }
            Message::LsProbeReply {
                leaf_set,
                failed,
                trt_hint,
            } => {
                self.note_hint(from, trt_hint);
                self.on_ls_probe(from, leaf_set, failed, false, fx);
            }
            Message::Heartbeat { trt_hint } => {
                self.note_hint(from, trt_hint);
                // Liveness only; the receive was already stamped.
            }
            Message::RtProbe { nonce } => self.on_rt_probe(from, nonce, fx),
            Message::RtProbeReply { trt_hint, .. } => {
                self.note_hint(from, trt_hint);
                self.clear_probe(from);
            }
            Message::RtRowRequest { row } => self.on_rt_row_request(from, row, fx),
            Message::RtRowReply { entries, .. } | Message::RtRowAnnounce { entries, .. } => {
                for n in entries {
                    self.consider_rt_candidate(n, fx);
                }
            }
            Message::RtSlotRequest { row, col } => self.on_rt_slot_request(from, row, col, fx),
            Message::RtSlotReply { entry, .. } => {
                if let Some(n) = entry {
                    self.consider_rt_candidate(n, fx);
                }
            }
            Message::DistanceProbe { nonce } => {
                self.send(from, Message::DistanceProbeReply { nonce }, fx);
            }
            Message::DistanceProbeReply { nonce } => self.on_distance_reply(from, nonce, fx),
            Message::DistanceReport { rtt_us } => self.on_distance_report(from, rtt_us),
            Message::NnLeafSetRequest => {
                let nodes = self.ls.members();
                self.send(from, Message::NnLeafSetReply { nodes }, fx);
            }
            Message::NnLeafSetReply { nodes } => self.on_nn_candidates(None, nodes, fx),
            Message::NnRowRequest { row } => self.on_nn_row_request(from, row, fx),
            Message::NnRowReply { row, nodes } => self.on_nn_candidates(Some(row), nodes, fx),
            Message::Lookup {
                id,
                key,
                payload,
                hops,
                issued_at_us,
                is_retransmit: _,
                wants_acks,
            } => {
                let lookup = LookupRecord {
                    id,
                    key,
                    payload,
                    hops,
                    issued_at_us,
                    wants_acks,
                };
                self.on_lookup(from, lookup, fx)
            }
            Message::Leaving => {
                // The sender told us directly it is gone: skip failure
                // detection entirely. No announcement — the leaver notified
                // its whole routing state itself.
                self.mark_faulty(from, false, fx);
                self.done_probing(fx);
            }
            Message::Ack { id } => self.on_ack(from, id),
        }
    }

    fn on_timer(&mut self, kind: TimerKind, fx: &mut Effects) {
        match kind {
            TimerKind::Heartbeat => self.on_heartbeat_tick(fx),
            TimerKind::RtProbeTick => self.on_rt_probe_tick(fx),
            TimerKind::RtMaintenance => self.on_rt_maintenance(fx),
            TimerKind::SelfTune => self.on_self_tune(fx),
            TimerKind::ProbeTimeout { target, attempt } => {
                self.on_probe_timeout(target, attempt, fx)
            }
            TimerKind::AckTimeout { lookup, attempt } => self.on_ack_timeout(lookup, attempt, fx),
            TimerKind::DistanceProbeNext { target } => self.on_distance_probe_next(target, fx),
            TimerKind::DistanceProbeTimeout { target, nonce } => {
                self.on_distance_timeout(target, nonce, fx)
            }
            TimerKind::JoinRetry => self.on_join_retry(fx),
        }
    }

    // ----- shared helpers ---------------------------------------------------

    pub(crate) fn send(&mut self, to: NodeId, msg: Message, fx: &mut Effects) {
        debug_assert_ne!(to, self.ctx.id, "node must not message itself");
        self.maintenance.sent(to, self.ctx.now_us);
        fx.send(to, msg);
    }

    /// The leaf-set members closest to `key`, in (ring distance, id) order,
    /// up to 8. Storage applications replicate onto these nodes,
    /// PAST-style, so a value survives its root's failure: the next root is
    /// one of them. Computed on demand; the protocol itself never reads it.
    pub fn replica_set(&self, key: Key) -> Vec<NodeId> {
        let mut members = self.ls.members();
        members.sort_by_key(|m| (m.ring_dist(key), m.0));
        members.truncate(8);
        members
    }

    /// All distinct nodes currently in the routing state (routing table and
    /// leaf set).
    pub fn routing_state_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::with_capacity(self.rt.len() + 2 * self.ctx.cfg.leaf_half());
        ids.extend(self.rt.entries().map(|e| e.id));
        // Routing-table ids are distinct, so only leaf-set members need the
        // (constant-time, digit-indexed) duplicate check.
        for m in self.ls.iter() {
            if !self.rt.contains(m) {
                ids.push(m);
            }
        }
        ids
    }
}
