//! The shared event-loop driver: one action-execution layer for every host.
//!
//! The simulator (`harness::Runner`) and the UDP deployment
//! (`transport::UdpNode`) used to each carry their own copy of the loop that
//! feeds a [`Node`] events and interprets the [`Action`]s it emits. That
//! duplication is exactly what the paper's "same code in the simulator and
//! in the real deployment" property forbids: the two copies could silently
//! diverge. This module extracts the loop once:
//!
//! * [`Host`] is the narrow wire/clock/application surface a deployment must
//!   provide — send a message, arm a one-shot timer, hand a delivery to the
//!   application, observe activation. A delivery comes with a
//!   borrow of the delivering [`Node`], so state only some applications
//!   need, such as [`Node::replica_set`], is computed by the host that
//!   reads it and by no other.
//! * [`Driver`] owns the [`Node`] plus a reusable action buffer and runs the
//!   interpretation loop allocation-free: `step` swaps the buffer into the
//!   node's [`Effects`], dispatches each resulting action to the host, and
//!   keeps the buffer's capacity for the next event. It counts every send in
//!   the node's registry, so both hosts report traffic under the same names.
//! * Each host supplies the clock: the simulator's virtual time comes
//!   straight from its event queue, the UDP transport reads a monotonic
//!   wall clock, and both pass the timestamp to [`Driver::step`].
//!
//! Hosts never match on [`Action`] themselves; protocol outputs reach them
//! only through the [`Host`] trait, so sim and deployment cannot drift.

use crate::events::{Action, Delivery, Effects, Event, TimerKind};
use crate::id::NodeId;
use crate::messages::Message;
use crate::node::Node;

/// What a deployment must provide for the protocol core to run on it: a wire
/// to send messages, a timer service, and sinks for application-visible
/// events. Implemented by the simulator and by the UDP event loop.
pub trait Host {
    /// Transmit `msg` to `to` (lossy, unordered delivery is fine).
    fn send(&mut self, to: NodeId, msg: Message);
    /// Arm a one-shot timer: feed `Event::Timer(kind)` back into the driver
    /// `delay_us` microseconds from the current event's time. Timers are
    /// never cancelled; stale ones are ignored by the node.
    fn set_timer(&mut self, delay_us: u64, kind: TimerKind);
    /// A lookup was delivered at this node (it is the key's root). `node`
    /// is the deliverer as it stands after the event, for whatever the
    /// application reads on demand, such as [`Node::replica_set`].
    fn deliver(&mut self, delivery: Delivery, node: &Node);
    /// The node completed its join and became active.
    fn became_active(&mut self);
}

/// Owns a [`Node`] and executes its actions against a [`Host`].
///
/// The driver keeps one reusable action buffer per node, so steady-state
/// event handling performs no allocation (the simulator's hot path processes
/// hundreds of millions of events).
#[derive(Debug)]
pub struct Driver {
    node: Node,
    buf: Vec<Action>,
}

impl Driver {
    /// Wraps a node in a driver with a warm action buffer.
    pub fn new(node: Node) -> Self {
        Driver {
            node,
            buf: Vec::with_capacity(16),
        }
    }

    /// Read access to the driven node (for metrics and tests).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Feeds one event to the node at time `now_us` and dispatches every
    /// resulting action to `host`, counting each send in the registry.
    pub fn step(&mut self, now_us: u64, event: Event, host: &mut impl Host) {
        let mut fx = Effects {
            actions: std::mem::take(&mut self.buf),
        };
        fx.actions.clear();
        self.node.handle(now_us, event, &mut fx);
        for action in fx.actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    self.node.ctx.obs.sent(&msg);
                    host.send(to, msg);
                }
                Action::SetTimer { delay_us, kind } => host.set_timer(delay_us, kind),
                Action::Deliver(delivery) => host.deliver(delivery, &self.node),
                Action::BecameActive => host.became_active(),
            }
        }
        self.buf = fx.actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::id::Id;

    /// Records every host call-back for assertion.
    #[derive(Default)]
    struct MockHost {
        sent: Vec<(NodeId, Message)>,
        timers: Vec<(u64, TimerKind)>,
        delivered: Vec<Delivery>,
        activations: usize,
    }

    impl Host for MockHost {
        fn send(&mut self, to: NodeId, msg: Message) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, delay_us: u64, kind: TimerKind) {
            self.timers.push((delay_us, kind));
        }
        fn deliver(&mut self, delivery: Delivery, _node: &Node) {
            self.delivered.push(delivery);
        }
        fn became_active(&mut self) {
            self.activations += 1;
        }
    }

    fn cfg() -> Config {
        Config {
            nearest_neighbor_join: false,
            ..Config::default()
        }
    }

    #[test]
    fn driver_routes_every_action_kind_to_the_host() {
        let mut d = Driver::new(Node::new(Id(42), cfg()));
        let mut host = MockHost::default();
        d.step(0, Event::Join { seed: None }, &mut host);
        assert_eq!(host.activations, 1, "bootstrap join activates");
        assert!(!host.timers.is_empty(), "periodic timers armed");
        // A singleton overlay delivers every lookup locally.
        d.step(
            1,
            Event::Lookup {
                key: Id(7),
                payload: 3,
            },
            &mut host,
        );
        assert_eq!(host.delivered.len(), 1);
        assert_eq!(host.delivered[0].payload, 3);
        assert!(d.node().is_active());
    }

    #[test]
    fn driver_reuses_its_action_buffer() {
        let mut d = Driver::new(Node::new(Id(42), cfg()));
        let mut host = MockHost::default();
        d.step(0, Event::Join { seed: None }, &mut host);
        let cap = d.buf.capacity();
        assert!(cap > 0, "buffer kept after the first step");
        d.step(
            1,
            Event::Lookup {
                key: Id(7),
                payload: 0,
            },
            &mut host,
        );
        assert!(d.buf.capacity() >= cap.min(2), "capacity retained");
        assert!(d.buf.is_empty(), "buffer drained between steps");
    }
}
