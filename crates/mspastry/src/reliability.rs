//! Reliable routing (§3.2): per-hop acks, retransmission with TCP-style
//! estimated timeouts, rerouting around silent nodes, and the temporary
//! exclusion of suspects from route selection.
//!
//! Every forwarded lookup arms a one-shot `AckTimeout`; a missed ack probes
//! the silent next hop, retransmits to the key's root with backoff, or
//! excludes the suspect and exploits a redundant route. Nodes are only
//! *suspected* here — confirming a failure is the consistency layer's job.

use crate::config::{Config, MAX_PROBE_RETRIES};
use crate::diag::ProbeCause;
use crate::events::{Action, Delivery, DropReason, Effects, TimerKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::id::{Key, NodeId};
use crate::messages::{LookupId, Message, Payload};
use crate::node::Node;
use crate::probes::ProbeKind;
use crate::routing::{route, NextHop};
use crate::rto::RtoTable;
use obs::{HopKind, NO_PEER};
use std::collections::VecDeque;

/// Hard ceiling on a node's duplicate window, whatever its horizon: a flood
/// of fresh lookup ids inside one horizon (say, from hostile UDP input)
/// evicts the oldest instead of growing the window.
pub(crate) const SEEN_CAP: usize = 16_384;

/// Retransmissions to a silent *root* before giving up on it (final-hop
/// ack timeouts retry the same node first: there is no alternative node
/// that could correctly deliver). Each retry squares the probability that
/// an alive root is wrongly bypassed, at the cost of delay when the root
/// really is dead: every node holding the lookup pays the budget.
pub const ROOT_RETX_ATTEMPTS: u32 = 1;

/// Reroutes of one lookup at one hop before the hop drops it.
pub(crate) const ACK_MAX_REROUTES: u32 = 8;

/// The lookups a node has seen within the last `horizon_us` (the
/// duplicate horizon `W`, [`crate::Config::duplicate_window_us`]): a copy
/// that arrives inside it is acked but not processed again. Ids are noted
/// in clock order, so the FIFO's front is always the oldest and expiry pops
/// from it; every query expires first, so the answer is exactly "seen
/// within `W`" however often the window is trimmed.
#[derive(Debug)]
pub(crate) struct DuplicateWindow {
    horizon_us: u64,
    ids: FxHashSet<LookupId>,
    order: VecDeque<(u64, LookupId)>,
}

impl DuplicateWindow {
    pub(crate) fn new(horizon_us: u64) -> Self {
        DuplicateWindow {
            horizon_us,
            ids: FxHashSet::default(),
            order: VecDeque::new(),
        }
    }

    /// Notes `id` as seen at `now_us`. Returns `false` if it was already
    /// seen within the horizon, i.e. this is a duplicate copy.
    pub(crate) fn note(&mut self, id: LookupId, now_us: u64) -> bool {
        self.expire(now_us);
        if !self.ids.insert(id) {
            return false;
        }
        self.order.push_back((now_us, id));
        if self.order.len() > SEEN_CAP {
            if let Some((_, old)) = self.order.pop_front() {
                self.ids.remove(&old);
            }
        }
        true
    }

    /// Forgets every id noted `horizon_us` or longer before `now_us`.
    fn expire(&mut self, now_us: u64) {
        while let Some(&(at, id)) = self.order.front() {
            if now_us.saturating_sub(at) < self.horizon_us {
                break;
            }
            self.order.pop_front();
            self.ids.remove(&id);
        }
    }

    /// Expires old ids and, once the live count has fallen well below the
    /// allocated capacity (hash tables never shrink by themselves), gives
    /// the excess back, so memory follows the window rather than its
    /// busiest moment.
    pub(crate) fn trim(&mut self, now_us: u64) {
        self.expire(now_us);
        let len = self.ids.len();
        if self.ids.capacity() > 4 * len {
            self.ids.shrink_to(2 * len);
            self.order.shrink_to(2 * len);
        }
    }

    /// Ids currently stored.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Lookups a joining node buffers before it drops further ones.
pub const JOIN_BUFFER_CAP: usize = 1024;

/// A lookup as this node holds it. It is built once, where the lookup
/// enters the node (issued here, or received in a `Message::Lookup`), and
/// the join buffer, every route and the pending entry carry it unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LookupRecord {
    pub(crate) id: LookupId,
    pub(crate) key: Key,
    pub(crate) payload: Payload,
    /// Overlay hops the lookup took to reach this node.
    pub(crate) hops: u32,
    pub(crate) issued_at_us: u64,
    pub(crate) wants_acks: bool,
}

impl LookupRecord {
    /// The copy this node sends on, one hop further.
    fn message(&self, is_retransmit: bool) -> Message {
        Message::Lookup {
            id: self.id,
            key: self.key,
            payload: self.payload,
            hops: self.hops + 1,
            issued_at_us: self.issued_at_us,
            is_retransmit,
            wants_acks: self.wants_acks,
        }
    }

    /// The lookup handed to the application at its root, this node.
    fn delivery(&self) -> Delivery {
        Delivery {
            id: self.id,
            key: self.key,
            payload: self.payload,
            hops: self.hops,
            issued_at_us: self.issued_at_us,
        }
    }
}

/// A lookup in flight from this node, awaiting a per-hop ack.
#[derive(Debug, Clone)]
pub(crate) struct PendingLookup {
    pub(crate) lookup: LookupRecord,
    pub(crate) excluded: Vec<NodeId>,
    pub(crate) attempt: u32,
    /// How many times the lookup was re-routed around a suspect (excluding
    /// same-root retransmissions, which have their own budget).
    pub(crate) reroutes: u32,
    pub(crate) next: NodeId,
    pub(crate) sent_at_us: u64,
    /// When this node first sent the lookup to `next`; same-root
    /// retransmissions keep it, so it dates the whole chain.
    pub(crate) first_sent_us: u64,
}

/// Lookup-forwarding state owned by the reliability layer.
#[derive(Debug)]
pub(crate) struct Reliability {
    pub(crate) suspected: FxHashSet<NodeId>,
    pub(crate) pending: FxHashMap<LookupId, PendingLookup>,
    pub(crate) seen: DuplicateWindow,
    /// Lookups that entered the node while it was still joining.
    pub(crate) buffered: Vec<LookupRecord>,
    pub(crate) lookup_seq: u64,
    pub(crate) rtos: RtoTable,
}

impl Reliability {
    pub(crate) fn new(cfg: &Config) -> Self {
        Reliability {
            suspected: FxHashSet::default(),
            pending: FxHashMap::default(),
            seen: DuplicateWindow::new(cfg.duplicate_window_us()),
            buffered: Vec::new(),
            lookup_seq: 0,
            rtos: RtoTable::new(),
        }
    }

    /// The routing exclusion for a lookup that already timed out on
    /// `extra`: those nodes plus every suspect. It borrows both sets, so
    /// routing a hop allocates nothing.
    pub(crate) fn excludes<'a>(&'a self, extra: &'a [NodeId]) -> impl Fn(NodeId) -> bool + 'a {
        move |n| extra.contains(&n) || self.suspected.contains(&n)
    }
}

impl Node {
    // ----- lookups entering the node ----------------------------------------

    pub(crate) fn on_local_lookup(&mut self, key: Key, payload: Payload, fx: &mut Effects) {
        self.reliability.lookup_seq += 1;
        let id = LookupId {
            src: self.ctx.id,
            seq: self.reliability.lookup_seq,
        };
        self.reliability.seen.note(id, self.ctx.now_us);
        self.ctx.trace(id, HopKind::Issue, NO_PEER, 0, 0, 0, "");
        let lookup = LookupRecord {
            id,
            key,
            payload,
            hops: 0,
            issued_at_us: self.ctx.now_us,
            wants_acks: true,
        };
        self.admit(lookup, fx);
    }

    pub(crate) fn on_lookup(&mut self, from: NodeId, lookup: LookupRecord, fx: &mut Effects) {
        let id = lookup.id;
        if self.ctx.cfg.per_hop_acks && lookup.wants_acks {
            self.send(from, Message::Ack { id }, fx);
        }
        if !self.reliability.seen.note(id, self.ctx.now_us) {
            return; // duplicate copy of a retransmitted or rerouted lookup
        }
        self.admit(lookup, fx);
    }

    /// Routes a lookup that just entered the node, or buffers it while the
    /// node is still joining.
    fn admit(&mut self, lookup: LookupRecord, fx: &mut Effects) {
        if self.ctx.active {
            self.route_lookup(lookup, Vec::new(), 0, 0, false, fx);
        } else if self.reliability.buffered.len() >= JOIN_BUFFER_CAP {
            self.ctx.drop_lookup(
                lookup.id,
                DropReason::BufferOverflow,
                NO_PEER,
                lookup.hops,
                0,
            );
        } else {
            self.reliability.buffered.push(lookup);
        }
    }

    /// Routes every lookup buffered while the node was joining (called once,
    /// on activation).
    pub(crate) fn flush_buffered(&mut self, fx: &mut Effects) {
        let buffered = std::mem::take(&mut self.reliability.buffered);
        for lookup in buffered {
            self.route_lookup(lookup, Vec::new(), 0, 0, false, fx);
        }
    }

    // ----- forwarding and acks ----------------------------------------------

    pub(crate) fn on_ack(&mut self, from: NodeId, id: LookupId) {
        if let Some(p) = self.reliability.pending.remove(&id) {
            let rtt = self.ctx.now_us.saturating_sub(p.sent_at_us);
            if p.next == from && p.attempt == 0 {
                // Karn's rule: only sample unambiguous exchanges.
                self.ctx.obs.rtt_sample(rtt);
                self.reliability.rtos.update(from, rtt);
            }
            self.ctx
                .trace(id, HopKind::Ack, from.0, p.lookup.hops, p.attempt, rtt, "");
        } else {
            // Stray or duplicate ack: the pending entry was already resolved
            // (acked, rerouted, or stranded-rerouted). Count it; never crash.
            self.ctx.obs.stray_ack();
        }
    }

    /// Routes `lookup` one hop on, avoiding `excluded` and every suspect,
    /// or delivers it here if this node is its root. `attempt` and
    /// `reroutes` count this hop's earlier tries.
    pub(crate) fn route_lookup(
        &mut self,
        lookup: LookupRecord,
        excluded: Vec<NodeId>,
        attempt: u32,
        reroutes: u32,
        is_retransmit: bool,
        fx: &mut Effects,
    ) {
        let id = lookup.id;
        let excl = self.reliability.excludes(&excluded);
        let (next, empty_slot) = match route(&self.rt, &self.ls, lookup.key, excl) {
            NextHop::Local => {
                if !self.ctx.active || !self.ls.covers(lookup.key) {
                    self.ctx
                        .drop_lookup(id, DropReason::NoRoute, NO_PEER, lookup.hops, attempt);
                    return;
                }
                let root = self.ls.closest_to(lookup.key, |_| false);
                if root == self.ctx.id {
                    self.ctx
                        .trace(id, HopKind::Deliver, NO_PEER, lookup.hops, attempt, 0, "");
                    fx.actions.push(Action::Deliver(lookup.delivery()));
                    return;
                }
                // A strictly closer leaf-set member exists but is excluded,
                // i.e. merely *suspected* — not confirmed dead (confirmed
                // failures leave the leaf set). Delivering here would be
                // speculative and risks an incorrect delivery whenever the
                // suspect is alive but silent (e.g. a transient outage).
                // Forward to the suspect root instead: either it answers
                // (clearing the suspicion) or its failure probe exhausts and
                // mark_faulty re-routes the lookup against the repaired set.
                (root, None)
            }
            NextHop::Forward { next, empty_slot } => (next, empty_slot),
        };
        self.send(next, lookup.message(is_retransmit), fx);
        if self.ctx.cfg.per_hop_acks && lookup.wants_acks {
            let rto = self.reliability.rtos.rto_us(
                next,
                self.ctx.cfg.ack_rto_min_us,
                self.ctx.cfg.ack_rto_initial_us,
            );
            self.ctx.obs.ack_rto(rto);
            self.ctx.trace(
                id,
                HopKind::Forward,
                next.0,
                lookup.hops + 1,
                attempt,
                rto,
                "",
            );
            self.reliability.pending.insert(
                id,
                PendingLookup {
                    lookup,
                    excluded,
                    attempt,
                    reroutes,
                    next,
                    sent_at_us: self.ctx.now_us,
                    first_sent_us: self.ctx.now_us,
                },
            );
            fx.timer(
                rto,
                TimerKind::AckTimeout {
                    lookup: id,
                    attempt,
                },
            );
        }
        if let Some((row, col)) = empty_slot {
            // Passive routing-table repair (§2).
            self.send(next, Message::RtSlotRequest { row, col }, fx);
        }
    }

    /// Re-routes a pending lookup whose ack from `silent` will not come:
    /// traces the exclusion with `note`, adds `silent` to the lookup's
    /// exclusions and routes it again as the next attempt and reroute.
    pub(crate) fn reroute_around(
        &mut self,
        p: PendingLookup,
        silent: NodeId,
        note: &'static str,
        fx: &mut Effects,
    ) {
        let lookup = p.lookup;
        self.ctx.trace(
            lookup.id,
            HopKind::Exclude,
            silent.0,
            lookup.hops,
            p.attempt,
            0,
            note,
        );
        let mut excluded = p.excluded;
        if !excluded.contains(&silent) {
            excluded.push(silent);
        }
        self.route_lookup(lookup, excluded, p.attempt + 1, p.reroutes + 1, true, fx);
    }

    pub(crate) fn on_ack_timeout(&mut self, id: LookupId, attempt: u32, fx: &mut Effects) {
        let Some(p) = self.reliability.pending.get(&id) else {
            return;
        };
        if p.attempt != attempt {
            return; // stale timer from an earlier attempt
        }
        let Some(p) = self.reliability.pending.remove(&id) else {
            return;
        };
        let missed = p.next;
        let key = p.lookup.key;
        // Probe the silent node; it is excluded from routing until it
        // answers, but only marked faulty if probing exhausts (§3.2).
        let kind = if self.ls.contains(missed) {
            ProbeKind::LeafSet
        } else {
            ProbeKind::Liveness
        };
        if self.probe(missed, kind, true, fx) {
            self.ctx.obs.cause(ProbeCause::AckSuspect);
        }
        // Final hop: `missed` is (still) the key's root from our view. There
        // is no alternative node that could correctly deliver, so retransmit
        // to the same root with a backed-off timeout; the probe decides its
        // fate (a live-but-lossy root gets the copy in ~RTO, a dead one is
        // removed from the leaf set within the probe budget, after which
        // routing resolves against the repaired state).
        let is_final_hop = !self.consistency.failed.contains(&missed)
            && self.ls.contains(missed)
            && self.ls.covers(key)
            && self.ls.closest_to(key, |_| false) == missed;
        if is_final_hop {
            let attempt = p.attempt + 1;
            // Retransmission budget: with the paper's default, a few quick
            // retries to the same root (an incorrect delivery then requires
            // several independent losses in a row); with the
            // consistency-over-latency variant, keep retrying until the
            // root's failure probe resolves (mark_faulty re-routes stranded
            // lookups the moment the root is declared dead). The short
            // budget is only safe when excluding the root leaves an
            // alternative candidate; if the reroute would fall back to a
            // speculative self-delivery (every closer member suspected, none
            // confirmed dead), use the extended budget so the backed-off
            // retransmissions outlast the probe verdict.
            let reroute_self_delivers = {
                let excl = self.reliability.excludes(&p.excluded);
                matches!(
                    route(&self.rt, &self.ls, key, |n| n == missed || excl(n)),
                    NextHop::Local
                )
            };
            let budget = if self.ctx.cfg.exclude_root_on_ack_timeout && !reroute_self_delivers {
                ROOT_RETX_ATTEMPTS
            } else {
                4 + 3 * (MAX_PROBE_RETRIES + 1)
            };
            // The extended budget only has to outlast the root's failure
            // verdict, due `(r+1)·To` after the first missed ack. A root
            // that answers probes but whose acks never arrive would
            // otherwise be retried for ~95 RTOs, however long the RTO has
            // grown; stopping at the leaf-set detection time bounds every
            // chain by the configuration, so the duplicate horizon covers
            // it (DESIGN.md §3).
            let in_time = self.ctx.now_us.saturating_sub(p.first_sent_us)
                < self.ctx.cfg.leaf_set_detection_us();
            if attempt <= budget && in_time {
                self.ctx.obs.final_retx();
                self.ctx.obs.retx_attempt(attempt);
                let rto = self
                    .reliability
                    .rtos
                    .rto_us(
                        missed,
                        self.ctx.cfg.ack_rto_min_us,
                        self.ctx.cfg.ack_rto_initial_us,
                    )
                    .saturating_mul(1 << attempt.min(3));
                let rto = if attempt >= 4 {
                    rto.max(self.ctx.cfg.t_o_us / 3)
                } else {
                    rto
                };
                self.ctx.trace(
                    id,
                    HopKind::Retransmit,
                    missed.0,
                    p.lookup.hops + 1,
                    attempt,
                    rto,
                    "final-hop",
                );
                self.send(missed, p.lookup.message(true), fx);
                self.reliability.pending.insert(
                    id,
                    PendingLookup {
                        attempt,
                        sent_at_us: self.ctx.now_us,
                        ..p
                    },
                );
                fx.timer(
                    rto,
                    TimerKind::AckTimeout {
                        lookup: id,
                        attempt,
                    },
                );
                return;
            }
            // Budget exhausted: the paper's default falls through to exclude
            // the root and deliver at the now-closest node; the
            // consistency-first variant drops the lookup below.
        }
        // Intermediate hop (or the root is already gone): exclude the silent
        // node and exploit a redundant route. Only genuine reroutes count
        // against the budget — same-root retransmissions above must not
        // starve a lookup of its redundant routes.
        let give_up = (is_final_hop && !self.ctx.cfg.exclude_root_on_ack_timeout)
            || p.reroutes + 1 > ACK_MAX_REROUTES;
        if give_up {
            self.ctx.drop_lookup(
                id,
                DropReason::TooManyReroutes,
                missed.0,
                p.lookup.hops,
                p.attempt,
            );
            return;
        }
        self.ctx.obs.reroute();
        self.reliability.suspected.insert(missed);
        self.reroute_around(p, missed, "", fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;
    use crate::id::Id;

    const W: u64 = 10_000_000;

    fn lid(seq: u64) -> LookupId {
        LookupId { src: Id(1), seq }
    }

    #[test]
    fn copy_inside_the_horizon_is_suppressed() {
        let mut w = DuplicateWindow::new(W);
        assert!(w.note(lid(1), 0));
        assert!(!w.note(lid(1), 1), "immediate copy");
        assert!(!w.note(lid(1), W - 1), "copy just inside W");
        assert_eq!(w.len(), 1, "a duplicate does not grow the window");
        assert_eq!(w.order.len(), 1, "nor its expiry queue");
        assert!(w.note(lid(2), W - 1), "a fresh id is new");
    }

    #[test]
    fn id_older_than_the_horizon_is_forgotten() {
        let mut w = DuplicateWindow::new(W);
        assert!(w.note(lid(1), 0));
        assert!(w.note(lid(2), W / 2));
        // At exactly W the first id has left the window, the second not.
        assert!(w.note(lid(1), W), "expired id counts as unseen");
        assert!(!w.note(lid(2), W));
        assert_eq!(w.len(), 2);
        // Expiry does not wait for a trim: only live ids remain stored.
        assert!(w.note(lid(3), 3 * W));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn seen_window_is_capped_and_evicts_oldest() {
        let mut w = DuplicateWindow::new(W);
        let n = SEEN_CAP as u64 + 5;
        for seq in 0..n {
            assert!(w.note(lid(seq), 1));
        }
        assert_eq!(w.len(), SEEN_CAP);
        assert_eq!(w.order.len(), SEEN_CAP);
        assert!(w.note(lid(0), 2), "oldest ids evicted by the ceiling");
        assert!(!w.note(lid(n - 1), 2), "newest ids kept");
    }

    #[test]
    fn capacity_shrinks_after_a_burst_then_quiet() {
        let mut w = DuplicateWindow::new(W);
        for seq in 0..10_000 {
            w.note(lid(seq), seq);
        }
        assert!(w.ids.capacity() >= 10_000);
        // Quiet for a horizon, then a trickle of traffic.
        w.note(lid(20_000), 2 * W);
        w.trim(2 * W);
        assert_eq!(w.len(), 1);
        assert!(w.ids.capacity() < 64, "capacity {}", w.ids.capacity());
        assert!(w.order.capacity() < 64, "capacity {}", w.order.capacity());
        // A steady window is left alone.
        let cap = w.ids.capacity();
        w.trim(2 * W + 1);
        assert_eq!(w.ids.capacity(), cap);
    }

    #[test]
    fn endless_horizon_never_forgets() {
        let mut w = DuplicateWindow::new(u64::MAX);
        assert!(w.note(lid(1), 0));
        w.trim(u64::MAX / 2);
        assert!(!w.note(lid(1), u64::MAX / 2));
    }

    #[test]
    fn stray_ack_is_counted_not_fatal() {
        let run = obs::Obs::new(0.0, 16);
        let mut n = crate::node::Node::with_obs(
            Id(1),
            Config {
                nearest_neighbor_join: false,
                ..Config::default()
            },
            run.clone(),
        );
        let mut fx = Effects::new();
        n.handle(0, Event::Join { seed: None }, &mut fx);
        // An ack for a lookup this node never forwarded.
        let id = LookupId { src: Id(9), seq: 3 };
        n.handle(
            10,
            Event::Receive {
                from: Id(9),
                msg: Message::Ack { id },
            },
            &mut fx,
        );
        assert_eq!(run.snapshot().counter("lookup.stray-ack"), 1);
    }

    #[test]
    fn stale_attempt_ack_timeout_is_ignored() {
        let mut n = crate::node::Node::new(
            Id(1),
            Config {
                nearest_neighbor_join: false,
                ..Config::default()
            },
        );
        let mut fx = Effects::new();
        n.handle(0, Event::Join { seed: None }, &mut fx);
        let _ = fx.drain();
        // No pending entry at all: the timer must be a no-op, not a panic.
        n.handle(
            5,
            Event::Timer(TimerKind::AckTimeout {
                lookup: LookupId { src: Id(1), seq: 1 },
                attempt: 0,
            }),
            &mut fx,
        );
        assert!(fx.drain().is_empty());
    }
}
