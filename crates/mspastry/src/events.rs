//! Events consumed and actions produced by the protocol state machine.
//!
//! [`crate::node::Node`] is a pure event-driven state machine: the host (a
//! simulator or a real transport binding) feeds it [`Event`]s with the
//! current clock value and executes the [`Action`]s it emits. Timers are
//! one-shot and never cancelled; a fired timer that is no longer relevant is
//! simply ignored by the node.
//!
//! An action carries only what every host consumes. [`Action::Deliver`]
//! names the lookup, not the replica set of its key: a host that stores
//! data asks the node for [`crate::Node::replica_set`] when the driver
//! hands it the delivery ([`crate::driver::Host::deliver`]). A dropped
//! lookup is no action: the node counts it as `lookup.drop.<reason>`.

use crate::id::{Key, NodeId};
use crate::messages::{LookupId, Message, Payload};

/// An input to the node state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message arrived from the network.
    Receive {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: Message,
    },
    /// A previously requested timer fired.
    Timer(TimerKind),
    /// Local command: join the overlay through `seed` (`None` bootstraps a
    /// new overlay).
    Join {
        /// An existing overlay node, or `None` for the first node.
        seed: Option<NodeId>,
    },
    /// Local command: route a lookup to `key`.
    Lookup {
        /// Destination key.
        key: Key,
        /// Opaque application payload.
        payload: Payload,
    },
    /// Local command: announce a voluntary departure to the routing state
    /// before shutting down (extension; see [`crate::messages::Message::Leaving`]).
    Leave,
}

/// One-shot timers the node asks its host to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerKind {
    /// Periodic leaf-set heartbeat to the left neighbour plus silence check
    /// on the right neighbour (period `Tls`).
    Heartbeat,
    /// Periodic liveness probing of routing-table entries (period `Trt`,
    /// self-tuned).
    RtProbeTick,
    /// Periodic routing-table maintenance (default 20 minutes).
    RtMaintenance,
    /// Periodic recomputation of the self-tuned probing period.
    SelfTune,
    /// A leaf-set or liveness probe to `target` timed out.
    ProbeTimeout {
        /// The probed node.
        target: NodeId,
        /// Attempt number the timeout belongs to.
        attempt: u32,
    },
    /// A forwarded lookup was not acknowledged in time.
    AckTimeout {
        /// The lookup awaiting the ack.
        lookup: LookupId,
        /// Attempt number the timeout belongs to.
        attempt: u32,
    },
    /// Send the next distance-probe sample to `target`.
    DistanceProbeNext {
        /// The node being measured.
        target: NodeId,
    },
    /// A distance-probe sample to `target` timed out.
    DistanceProbeTimeout {
        /// The node being measured.
        target: NodeId,
        /// The sample's nonce.
        nonce: u64,
    },
    /// Retry the join if the node is still not active.
    JoinRetry,
}

/// An output of the node state machine, executed by the host.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// Schedule `kind` to fire `delay_us` from now.
    SetTimer {
        /// Delay from the current time, microseconds.
        delay_us: u64,
        /// The timer to fire.
        kind: TimerKind,
    },
    /// Deliver a lookup to the application: this node is the key's root.
    Deliver(Delivery),
    /// The node completed its join and became active.
    BecameActive,
}

/// A lookup that reached its root, handed to the host's application layer
/// ([`crate::driver::Host::deliver`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// End-to-end lookup identity.
    pub id: LookupId,
    /// The destination key.
    pub key: Key,
    /// The application payload.
    pub payload: Payload,
    /// Overlay hops the lookup took.
    pub hops: u32,
    /// When the lookup was issued, microseconds.
    pub issued_at_us: u64,
}

/// Why a lookup was dropped by a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Rerouting exhausted every alternative next hop.
    NoRoute,
    /// The per-hop reroute budget was exhausted.
    TooManyReroutes,
    /// The node's join buffer overflowed.
    BufferOverflow,
}

impl DropReason {
    /// Stable kebab-case name (used in trace artifacts and counters).
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::NoRoute => "no-route",
            DropReason::TooManyReroutes => "too-many-reroutes",
            DropReason::BufferOverflow => "buffer-overflow",
        }
    }
}

/// Convenience container the node writes its outputs into.
#[derive(Debug, Default)]
pub struct Effects {
    /// Accumulated actions, in emission order.
    pub actions: Vec<Action>,
}

impl Effects {
    /// Creates an empty effects buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message send.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Queues a timer request.
    pub fn timer(&mut self, delay_us: u64, kind: TimerKind) {
        self.actions.push(Action::SetTimer { delay_us, kind });
    }

    /// Drains the accumulated actions.
    pub fn drain(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    #[test]
    fn effects_accumulate_in_order() {
        let mut fx = Effects::new();
        fx.send(Id(1), Message::NnLeafSetRequest);
        fx.timer(5, TimerKind::Heartbeat);
        let actions = fx.drain();
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], Action::Send { .. }));
        assert!(matches!(
            actions[1],
            Action::SetTimer {
                delay_us: 5,
                kind: TimerKind::Heartbeat
            }
        ));
        assert!(fx.drain().is_empty());
    }
}
