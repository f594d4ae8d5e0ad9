#![warn(missing_docs)]
//! Churn traces for the MSPastry evaluation.
//!
//! The paper drives its fault injection with real traces of node arrivals and
//! departures from three measurement studies (Gnutella, OverNet, and the
//! Microsoft corporate network) plus artificial Poisson traces. The real
//! trace files are not public, so this crate generates synthetic traces that
//! match the published summary statistics and diurnal/weekly shape (see
//! DESIGN.md, substitution #1). Traces are deterministic for a given seed.
//!
//! # Example
//!
//! ```
//! use churn::gnutella::{self, GnutellaParams};
//!
//! // ~200 active nodes for 2 simulated hours.
//! let trace = gnutella::trace(&GnutellaParams {
//!     population_scale: 0.1,
//!     duration_us: 2 * 3600 * 1_000_000,
//!     seed: 101,
//! });
//! assert!(trace.active_at(trace.duration_us() / 2) > 50);
//! let events = trace.events(); // (time, Join/Fail) pairs for the simulator
//! assert!(!events.is_empty());
//! ```

pub mod dist;
pub mod gnutella;
pub mod microsoft;
pub mod overnet;
pub mod poisson;
pub mod synth;
pub mod trace;

pub use dist::SessionDist;
pub use synth::{PopulationProfile, SynthParams};
pub use trace::{Session, Trace, TraceEvent};
