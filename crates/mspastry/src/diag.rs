//! Per-run protocol diagnostics through the [`obs`] registry.
//!
//! This module used to hold process-wide atomic counters (and a mutexed
//! pair-tracking map) that aggregated across every node in the process —
//! including nodes of *other, concurrently running* simulations, which made
//! parallel `cargo test` counters unusable. All diagnostic state now lives
//! in the per-run [`obs::Obs`] registry the host threads into each node; a
//! node built without one ([`crate::Node::new`]) counts into a registry of
//! its own.

use crate::events::DropReason;
use crate::messages::{
    LookupId, Message, N_CATEGORIES, N_KINDS, SENT_BYTES_COUNTER, SENT_CATEGORY_COUNTERS,
    SENT_KIND_COUNTERS,
};
use obs::{CounterId, HistId, HopEvent, Obs};

/// Why a leaf-set probe was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeCause {
    /// Join bootstrap: probing every member of the initial leaf set.
    JoinBootstrap,
    /// A candidate learned from a peer's leaf set.
    Candidate,
    /// Confirming a failure reported in a peer's `failed` set.
    Confirm,
    /// Announcing a failure this node detected.
    Announce,
    /// Leaf-set repair (short or empty side).
    Repair,
    /// Silence from the right neighbour (SUSPECT-FAULTY).
    Suspect,
    /// A missed per-hop ack.
    AckSuspect,
}

/// Number of probe causes.
pub const N_PROBE_CAUSES: usize = 7;

/// Registry counter names for each [`ProbeCause`], in discriminant order.
pub const PROBE_CAUSE_COUNTERS: [&str; N_PROBE_CAUSES] = [
    "probe.cause.join-bootstrap",
    "probe.cause.candidate",
    "probe.cause.confirm",
    "probe.cause.announce",
    "probe.cause.repair",
    "probe.cause.suspect",
    "probe.cause.ack-suspect",
];

/// Registry counter names for each [`DropReason`], in discriminant order.
pub const DROP_REASON_COUNTERS: [&str; 3] = [
    "lookup.drop.no-route",
    "lookup.drop.too-many-reroutes",
    "lookup.drop.buffer-overflow",
];

/// A node's resolved instrumentation handles: the shared [`Obs`] plus the
/// interned counter/histogram ids, so the hot path never looks up a name.
#[derive(Debug, Clone)]
pub(crate) struct NodeObs {
    obs: Obs,
    probe_cause: [CounterId; N_PROBE_CAUSES],
    drop_reason: [CounterId; 3],
    sent_kind: [CounterId; N_KINDS],
    sent_category: [CounterId; N_CATEGORIES],
    sent_bytes: CounterId,
    pns_measured: CounterId,
    pns_replaced: CounterId,
    final_retx: CounterId,
    stranded_reroute: CounterId,
    reroutes: CounterId,
    stray_acks: CounterId,
    rtt_sample_us: HistId,
    ack_rto_us: HistId,
    t_rt_us: HistId,
    retx_attempt: HistId,
}

impl NodeObs {
    pub(crate) fn new(obs: Obs) -> Self {
        NodeObs {
            probe_cause: std::array::from_fn(|i| obs.counter(PROBE_CAUSE_COUNTERS[i])),
            drop_reason: std::array::from_fn(|i| obs.counter(DROP_REASON_COUNTERS[i])),
            sent_kind: std::array::from_fn(|i| obs.counter(SENT_KIND_COUNTERS[i])),
            sent_category: std::array::from_fn(|i| obs.counter(SENT_CATEGORY_COUNTERS[i])),
            sent_bytes: obs.counter(SENT_BYTES_COUNTER),
            pns_measured: obs.counter("pns.measured"),
            pns_replaced: obs.counter("pns.replaced"),
            final_retx: obs.counter("lookup.final-retx"),
            stranded_reroute: obs.counter("lookup.stranded-reroute"),
            reroutes: obs.counter("lookup.reroutes"),
            stray_acks: obs.counter("lookup.stray-ack"),
            rtt_sample_us: obs.histogram("node.rtt_sample_us"),
            ack_rto_us: obs.histogram("node.ack_rto_us"),
            t_rt_us: obs.histogram("node.t_rt_us"),
            retx_attempt: obs.histogram("node.retx_attempt"),
            obs,
        }
    }

    #[inline]
    pub(crate) fn cause(&self, c: ProbeCause) {
        self.obs.inc(self.probe_cause[c as usize]);
    }

    /// Counts one transmission of `msg`: its kind, its category and its
    /// wire bytes.
    #[inline]
    pub(crate) fn sent(&self, msg: &Message) {
        self.obs.inc(self.sent_kind[msg.kind_index()]);
        self.obs.inc(self.sent_category[msg.category() as usize]);
        self.obs
            .add(self.sent_bytes, crate::codec::encoded_len(msg) as u64);
    }

    #[inline]
    pub(crate) fn pns_measured(&self) {
        self.obs.inc(self.pns_measured);
    }

    #[inline]
    pub(crate) fn pns_replaced(&self) {
        self.obs.inc(self.pns_replaced);
    }

    #[inline]
    pub(crate) fn final_retx(&self) {
        self.obs.inc(self.final_retx);
    }

    #[inline]
    pub(crate) fn stranded_reroute(&self) {
        self.obs.inc(self.stranded_reroute);
    }

    #[inline]
    pub(crate) fn reroute(&self) {
        self.obs.inc(self.reroutes);
    }

    /// Counts an ack whose pending entry was already resolved (duplicate, or
    /// the lookup was rerouted before the ack arrived).
    #[inline]
    pub(crate) fn stray_ack(&self) {
        self.obs.inc(self.stray_acks);
    }

    /// Records an RTT sample feeding the RTO estimator.
    #[inline]
    pub(crate) fn rtt_sample(&self, rtt_us: u64) {
        self.obs.record(self.rtt_sample_us, rtt_us);
    }

    /// Records the RTO armed for a forwarded lookup.
    #[inline]
    pub(crate) fn ack_rto(&self, rto_us: u64) {
        self.obs.record(self.ack_rto_us, rto_us);
    }

    /// Records a newly adopted self-tuned probing period.
    #[inline]
    pub(crate) fn t_rt(&self, t_rt_us: u64) {
        self.obs.record(self.t_rt_us, t_rt_us);
    }

    /// Records a same-root retransmission attempt number.
    #[inline]
    pub(crate) fn retx_attempt(&self, attempt: u32) {
        self.obs.record(self.retx_attempt, attempt as u64);
    }

    /// `true` if the lookup is in the hop-trace sample.
    #[inline]
    pub(crate) fn sampled(&self, id: LookupId) -> bool {
        self.obs.sampled(id.src.0, id.seq)
    }

    /// Records a hop event (guard with [`Self::sampled`] first; only
    /// `Ctx::trace` calls the pair).
    #[inline]
    pub(crate) fn hop(&self, ev: HopEvent) {
        self.obs.hop(ev);
    }

    /// Records a lookup drop: per-reason counter, optional stderr echo,
    /// trace event when sampled.
    pub(crate) fn drop_event(&self, reason: DropReason, ev: HopEvent) {
        self.obs.drop_event(self.drop_reason[reason as usize], ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    #[test]
    fn counters_are_per_run_not_per_process() {
        let run_a = Obs::new(0.0, 16);
        let run_b = Obs::new(0.0, 16);
        let a = NodeObs::new(run_a.clone());
        let b = NodeObs::new(run_b.clone());
        a.cause(ProbeCause::Repair);
        a.cause(ProbeCause::Repair);
        b.cause(ProbeCause::Suspect);
        assert_eq!(run_a.snapshot().counter("probe.cause.repair"), 2);
        assert_eq!(run_a.snapshot().counter("probe.cause.suspect"), 0);
        assert_eq!(run_b.snapshot().counter("probe.cause.repair"), 0);
        assert_eq!(run_b.snapshot().counter("probe.cause.suspect"), 1);
    }

    #[test]
    fn a_send_bumps_its_kind_category_and_bytes() {
        let run = Obs::new(0.0, 16);
        let n = NodeObs::new(run.clone());
        let ack = Message::Ack {
            id: LookupId { src: Id(1), seq: 2 },
        };
        n.sent(&ack);
        n.sent(&Message::Leaving);
        let s = run.snapshot();
        assert_eq!(s.counter("sent.ack"), 1);
        assert_eq!(s.counter("sent.leaving"), 1);
        assert_eq!(s.counter("sent.category.acks-retransmits"), 1);
        assert_eq!(s.counter("sent.category.leafset-hb-probes"), 1);
        let bytes = crate::codec::encoded_len(&ack) + crate::codec::encoded_len(&Message::Leaving);
        assert_eq!(s.counter("sent.bytes"), bytes as u64);
    }

    #[test]
    fn two_nodes_share_one_run_registry() {
        let run = Obs::new(0.0, 16);
        let a = NodeObs::new(run.clone());
        let b = NodeObs::new(run.clone());
        a.cause(ProbeCause::Announce);
        b.cause(ProbeCause::Announce);
        assert_eq!(run.snapshot().counter("probe.cause.announce"), 2);
    }
}
