#![warn(missing_docs)]
//! # MSPastry
//!
//! A from-scratch implementation of **MSPastry** — the structured
//! peer-to-peer overlay of *"Performance and dependability of structured
//! peer-to-peer overlays"* (Castro, Costa, Rowstron; DSN 2004) — as a pure,
//! deterministic, event-driven protocol library.
//!
//! MSPastry is a Pastry overlay hardened for realistic, high-churn
//! environments:
//!
//! * **Consistent routing** (§3.1): nodes never deliver a lookup unless they
//!   are the current root of its key. Joins probe every leaf-set member
//!   before activation, leaf sets are eagerly repaired, and dead nodes are
//!   never propagated between routing states.
//! * **Reliable routing** (§3.2): active liveness probing plus per-hop acks
//!   with aggressive, TCP-style-estimated retransmission timeouts that
//!   reroute around silent nodes.
//! * **Low overhead** (§4): a single heartbeat to the left ring neighbour
//!   instead of all-pairs leaf-set probing; a self-tuned routing-table probe
//!   period that meets a target raw loss rate with minimum traffic; probe
//!   suppression by regular traffic; and symmetric single/median distance
//!   probes for proximity neighbour selection.
//!
//! The [`node::Node`] state machine performs no I/O: the host feeds it
//! [`events::Event`]s and executes the [`events::Action`]s it returns. The
//! protocol logic is layered into one private module per mechanism
//! (`consistency`, `reliability`, `maintenance`, `measurement`) glued by the
//! dispatcher in [`node`]. Hosts do not interpret actions themselves: the
//! shared [`driver`] layer executes them against a narrow [`driver::Host`]
//! trait, so the companion `netsim`/`harness` simulator and the `transport`
//! UDP binding drive the identical core.
//!
//! # Example
//!
//! ```
//! use mspastry::{Config, Effects, Event, Id, Node};
//!
//! // Bootstrap a single-node overlay.
//! let mut node = Node::new(Id(42), Config::default());
//! let mut fx = Effects::new();
//! node.handle(0, Event::Join { seed: None }, &mut fx);
//! assert!(node.is_active());
//!
//! // Lookups for any key are delivered locally: we are the only node.
//! node.handle(1, Event::Lookup { key: Id(7), payload: 1 }, &mut fx);
//! let delivered = fx
//!     .drain()
//!     .iter()
//!     .any(|a| matches!(a, mspastry::Action::Deliver(_)));
//! assert!(delivered);
//! ```

pub mod codec;
pub mod config;
mod consistency;
pub mod diag;
pub mod driver;
pub mod events;
pub mod fxhash;
pub mod id;
pub mod leaf_set;
mod maintenance;
mod measurement;
pub mod messages;
pub mod node;
pub mod pns;
pub mod probes;
mod reliability;
pub mod routing;
pub mod routing_table;
pub mod rto;
pub mod tuning;

pub use config::Config;
pub use driver::{Driver, Host};
pub use events::{Action, Delivery, DropReason, Effects, Event, TimerKind};
pub use id::{Id, Key, NodeId};
pub use messages::{Category, LookupId, Message, Payload};
pub use node::Node;
pub use reliability::{JOIN_BUFFER_CAP, ROOT_RETX_ATTEMPTS};
