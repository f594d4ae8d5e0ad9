#![warn(missing_docs)]
//! Packet-level discrete-event network simulator.
//!
//! This crate provides the protocol-agnostic substrate of the paper's
//! evaluation platform: a deterministic [`queue::EventQueue`] (events ordered
//! by time with stable tie-breaking) and a [`network::Network`] model that
//! attaches end hosts to a [`topology::Topology`] and delivers messages with
//! shortest-path delays, bounded jitter, and a configurable uniform loss
//! probability. Congestion delays and losses are not modelled, matching the
//! simulator described in §5.1.
//!
//! The MSPastry-specific simulation loop (node lifecycle driven by churn
//! traces, lookup workload, metrics, consistency oracle) lives in the
//! `harness` crate; this crate stays reusable for any message-passing
//! protocol.
//!
//! # Example
//!
//! ```
//! use netsim::{EventQueue, Network};
//! use topology::{Topology, TopologyKind};
//!
//! let obs = obs::Obs::new(0.0, 1);
//! let mut net = Network::new(Topology::build(TopologyKind::GaTechTiny), 7, obs);
//! let a = net.add_endpoint();
//! let b = net.add_endpoint();
//!
//! let mut queue = EventQueue::new();
//! if let Some(delay) = net.sample_delivery(a, b) {
//!     queue.schedule_in(delay, "hello");
//! }
//! let ev = queue.pop().unwrap();
//! assert_eq!(ev.payload, "hello");
//! assert_eq!(queue.now_us(), ev.at_us);
//! ```

pub mod network;
pub mod queue;

pub use network::{EndpointId, Network};
pub use queue::{EventQueue, Scheduled};
