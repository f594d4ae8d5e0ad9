//! Wire messages exchanged by MSPastry nodes.
//!
//! Messages are plain data; the transport (simulator or a real network
//! binding) supplies the sender identity. Several messages piggyback the
//! sender's local routing-table-probing-period estimate `trt_hint` so peers
//! can take the median (§4.1).

use crate::id::{Key, NodeId};

/// Identifies a lookup end-to-end: issuing node plus a per-node sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LookupId {
    /// The node that issued the lookup.
    pub src: NodeId,
    /// Issuer-local sequence number.
    pub seq: u64,
}

/// Application payload carried by a lookup. The overlay treats it as opaque;
/// the harness and the example applications use it to correlate requests.
pub type Payload = u64;

/// Broad classification of messages for the paper's control-traffic
/// breakdown (Figure 4, right), declared in report order: the five control
/// categories, then first-transmission lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Distance probes, replies and symmetric reports.
    DistanceProbe,
    /// Leaf-set heartbeats and leaf-set probes/replies.
    LeafSet,
    /// Routing-table liveness probes/replies and maintenance rows.
    RtProbe,
    /// Per-hop acks and rerouted (retransmitted) lookups.
    AckRetransmit,
    /// Join requests/replies and nearest-neighbour discovery.
    Join,
    /// Application lookups on their first transmission at each hop.
    Lookup,
}

/// All MSPastry protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A join request routed towards the joining node's identifier. Each hop
    /// appends rows of its routing table (`rows[r]` is row `r`).
    JoinRequest {
        /// The node joining the overlay.
        joiner: NodeId,
        /// Routing-table rows harvested along the route.
        rows: Vec<Vec<NodeId>>,
        /// Overlay hops taken so far.
        hops: u32,
    },
    /// Sent by the joiner's root with the harvested state.
    JoinReply {
        /// Routing-table rows harvested along the join route.
        rows: Vec<Vec<NodeId>>,
        /// The root's leaf set.
        leaf_set: Vec<NodeId>,
    },
    /// Leaf-set probe (Fig. 2): carries the sender's leaf set and failed set.
    LsProbe {
        /// Sender's current leaf-set members.
        leaf_set: Vec<NodeId>,
        /// Nodes the sender believes faulty.
        failed: Vec<NodeId>,
        /// Sender's self-tuning estimate of the RT probing period.
        trt_hint: Option<u64>,
    },
    /// Reply to [`Message::LsProbe`]; same contents, no further reply.
    LsProbeReply {
        /// Sender's current leaf-set members.
        leaf_set: Vec<NodeId>,
        /// Nodes the sender believes faulty.
        failed: Vec<NodeId>,
        /// Sender's self-tuning estimate of the RT probing period.
        trt_hint: Option<u64>,
    },
    /// Periodic liveness heartbeat to the left leaf-set neighbour (§4.1).
    Heartbeat {
        /// Sender's self-tuning estimate of the RT probing period.
        trt_hint: Option<u64>,
    },
    /// Liveness probe of a routing-table entry.
    RtProbe {
        /// Matches the reply to the probe.
        nonce: u64,
    },
    /// Reply to [`Message::RtProbe`].
    RtProbeReply {
        /// Nonce copied from the probe.
        nonce: u64,
        /// Sender's self-tuning estimate of the RT probing period.
        trt_hint: Option<u64>,
    },
    /// Periodic routing-table maintenance: ask for a row (§2).
    RtRowRequest {
        /// Requested row index.
        row: usize,
    },
    /// Reply to [`Message::RtRowRequest`].
    RtRowReply {
        /// The row index.
        row: usize,
        /// The non-empty entries of that row.
        entries: Vec<NodeId>,
    },
    /// Announcement of a freshly initialised routing-table row by a newly
    /// joined node (§2: "i sends the rth row of the table to each node in
    /// that row").
    RtRowAnnounce {
        /// The row index in the announcer's table.
        row: usize,
        /// The non-empty entries of that row (including the announcer).
        entries: Vec<NodeId>,
    },
    /// Passive routing-table repair: ask the next hop for an entry for the
    /// empty slot found while routing (§2).
    RtSlotRequest {
        /// Row of the empty slot.
        row: usize,
        /// Column of the empty slot.
        col: u8,
    },
    /// Reply to [`Message::RtSlotRequest`].
    RtSlotReply {
        /// Row of the slot.
        row: usize,
        /// Column of the slot.
        col: u8,
        /// The responder's entry for that slot, if any.
        entry: Option<NodeId>,
    },
    /// Round-trip delay measurement probe.
    DistanceProbe {
        /// Matches the reply to the probe.
        nonce: u64,
    },
    /// Reply to [`Message::DistanceProbe`].
    DistanceProbeReply {
        /// Nonce copied from the probe.
        nonce: u64,
    },
    /// Symmetric-probing optimisation (§4.2): the measured round-trip delay,
    /// shared so the receiver can consider the sender for its routing table
    /// without probing again.
    DistanceReport {
        /// Measured round-trip delay, microseconds.
        rtt_us: u64,
    },
    /// Nearest-neighbour discovery: request the receiver's leaf set.
    NnLeafSetRequest,
    /// Reply to [`Message::NnLeafSetRequest`].
    NnLeafSetReply {
        /// The receiver's leaf-set members.
        nodes: Vec<NodeId>,
    },
    /// Nearest-neighbour discovery: request a routing-table row.
    NnRowRequest {
        /// Requested row index.
        row: usize,
    },
    /// Reply to [`Message::NnRowRequest`].
    NnRowReply {
        /// The row index.
        row: usize,
        /// The non-empty entries of that row.
        nodes: Vec<NodeId>,
    },
    /// An application lookup being routed to `key`'s root.
    Lookup {
        /// End-to-end identity of the lookup.
        id: LookupId,
        /// Destination key.
        key: Key,
        /// Opaque application payload.
        payload: Payload,
        /// Overlay hops taken so far.
        hops: u32,
        /// Time the lookup was issued (issuer's clock, microseconds).
        issued_at_us: u64,
        /// `true` when this transmission is a per-hop retransmission after a
        /// missed ack (counted as control traffic, not lookup traffic).
        is_retransmit: bool,
        /// `false` disables per-hop acks for this message (applications that
        /// do not need reliable routing can flag lookups accordingly, §3.2).
        wants_acks: bool,
    },
    /// Per-hop acknowledgement of a [`Message::Lookup`].
    Ack {
        /// The lookup being acknowledged.
        id: LookupId,
    },
    /// Voluntary departure announcement (extension; the paper treats every
    /// departure as a failure). Receivers remove the sender immediately
    /// instead of paying the failure-detection latency and probe traffic.
    Leaving,
}

impl Message {
    /// The control-traffic category of this message.
    ///
    /// Everything except first-transmission lookups is control traffic
    /// (§5.2: "this includes all traffic except lookup messages").
    pub fn category(&self) -> Category {
        use Message::*;
        match self {
            Lookup { is_retransmit, .. } => {
                if *is_retransmit {
                    Category::AckRetransmit
                } else {
                    Category::Lookup
                }
            }
            Ack { .. } => Category::AckRetransmit,
            JoinRequest { .. }
            | JoinReply { .. }
            | NnLeafSetRequest
            | NnLeafSetReply { .. }
            | NnRowRequest { .. }
            | NnRowReply { .. } => Category::Join,
            LsProbe { .. } | LsProbeReply { .. } | Heartbeat { .. } | Leaving => Category::LeafSet,
            RtProbe { .. }
            | RtProbeReply { .. }
            | RtRowRequest { .. }
            | RtRowReply { .. }
            | RtRowAnnounce { .. }
            | RtSlotRequest { .. }
            | RtSlotReply { .. } => Category::RtProbe,
            DistanceProbe { .. } | DistanceProbeReply { .. } | DistanceReport { .. } => {
                Category::DistanceProbe
            }
        }
    }

    /// The message variant's index into [`KIND_NAMES`]; its wire tag is the
    /// index plus one.
    pub fn kind_index(&self) -> usize {
        use Message::*;
        match self {
            JoinRequest { .. } => 0,
            JoinReply { .. } => 1,
            LsProbe { .. } => 2,
            LsProbeReply { .. } => 3,
            Heartbeat { .. } => 4,
            RtProbe { .. } => 5,
            RtProbeReply { .. } => 6,
            RtRowRequest { .. } => 7,
            RtRowReply { .. } => 8,
            RtRowAnnounce { .. } => 9,
            RtSlotRequest { .. } => 10,
            RtSlotReply { .. } => 11,
            DistanceProbe { .. } => 12,
            DistanceProbeReply { .. } => 13,
            DistanceReport { .. } => 14,
            NnLeafSetRequest => 15,
            NnLeafSetReply { .. } => 16,
            NnRowRequest { .. } => 17,
            NnRowReply { .. } => 18,
            Lookup { .. } => 19,
            Ack { .. } => 20,
            Leaving => 21,
        }
    }

    /// The message variant's name, for fine-grained traffic diagnostics.
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }
}

/// Declares a table of names and the table of registry counters that
/// count each name's transmissions under `prefix`, in the same order.
macro_rules! counter_names {
    ($(#[$nd:meta])* $names:ident; $(#[$cd:meta])* $counters:ident = $prefix:literal;
     $($name:literal)+) => {
        $(#[$nd])*
        pub const $names: [&str; [$($name),+].len()] = [$($name),+];
        $(#[$cd])*
        pub const $counters: [&str; $names.len()] = [$(concat!($prefix, $name)),+];
    };
}

counter_names! {
    /// Message variant names, indexed by [`Message::kind_index`].
    KIND_NAMES;
    /// Registry counters `sent.<kind>`, indexed by [`Message::kind_index`].
    SENT_KIND_COUNTERS = "sent.";
    "join-request" "join-reply" "ls-probe" "ls-probe-reply" "heartbeat"
    "rt-probe" "rt-probe-reply" "rt-row-request" "rt-row-reply" "rt-row-announce"
    "rt-slot-request" "rt-slot-reply" "distance-probe" "distance-probe-reply"
    "distance-report" "nn-leafset-request" "nn-leafset-reply" "nn-row-request"
    "nn-row-reply" "lookup" "ack" "leaving"
}

counter_names! {
    /// Category names, indexed by `category as usize` (report order).
    CATEGORY_NAMES;
    /// Registry counters `sent.category.<name>`, indexed by
    /// `category as usize`.
    SENT_CATEGORY_COUNTERS = "sent.category.";
    "distance-probes" "leafset-hb-probes" "rt-probes" "acks-retransmits" "join" "lookups"
}

/// Registry counter of wire bytes sent, per [`crate::codec::encoded_len`].
pub const SENT_BYTES_COUNTER: &str = "sent.bytes";

/// Number of message variants.
pub const N_KINDS: usize = KIND_NAMES.len();

/// Number of message categories.
pub const N_CATEGORIES: usize = CATEGORY_NAMES.len();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    fn lookup(is_retransmit: bool) -> Message {
        Message::Lookup {
            id: LookupId { src: Id(1), seq: 0 },
            key: Id(2),
            payload: 0,
            hops: 0,
            issued_at_us: 0,
            is_retransmit,
            wants_acks: true,
        }
    }

    #[test]
    fn lookup_category_depends_on_retransmission() {
        assert_eq!(lookup(false).category(), Category::Lookup);
        assert_eq!(lookup(true).category(), Category::AckRetransmit);
    }

    #[test]
    fn categories_cover_the_figure_4_breakdown() {
        assert_eq!(
            Message::Heartbeat { trt_hint: None }.category(),
            Category::LeafSet
        );
        assert_eq!(Message::RtProbe { nonce: 1 }.category(), Category::RtProbe);
        assert_eq!(
            Message::DistanceProbe { nonce: 1 }.category(),
            Category::DistanceProbe
        );
        assert_eq!(Message::NnLeafSetRequest.category(), Category::Join);
        assert_eq!(
            Message::Ack {
                id: LookupId { src: Id(1), seq: 2 }
            }
            .category(),
            Category::AckRetransmit
        );
    }
}
