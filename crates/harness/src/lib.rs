#![warn(missing_docs)]
//! Experiment harness for the MSPastry reproduction.
//!
//! Binds the pure [`mspastry`] protocol state machine to the [`netsim`]
//! packet-level simulator, drives node arrivals and failures from a
//! [`churn::Trace`], applies a lookup workload, checks every delivery against
//! a global consistency [`oracle::Oracle`], and collects the paper's §5.2
//! metrics (incorrect-delivery rate, loss rate, RDP, control traffic by
//! message type, join-latency CDF).
//!
//! # Example
//!
//! ```
//! use churn::poisson::{self, PoissonParams};
//! use harness::{run, RunConfig};
//! use topology::TopologyKind;
//!
//! let trace = poisson::trace(&PoissonParams {
//!     mean_nodes: 30.0,
//!     mean_session_us: 60.0 * 60e6,
//!     duration_us: 10 * 60 * 1_000_000,
//!     seed: 1,
//! });
//! let mut cfg = RunConfig::new(trace);
//! cfg.topology = TopologyKind::GaTechTiny;
//! cfg.warmup_us = 5 * 60 * 1_000_000;
//! let result = run(cfg);
//! assert_eq!(result.report.incorrect, 0);
//! ```

pub use mspastry::fxhash;

pub mod artifact;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod sweep;

pub use artifact::{report_json, run_json, RUN_SCHEMA};
pub use metrics::{category_index, Report, WindowReport, CATEGORY_NAMES, N_CATEGORIES};
pub use oracle::Oracle;
pub use runner::{run, DeliveryRecord, RunConfig, RunResult, ScriptedLookup, Workload};
pub use scenario::{scale, Registry, Scale, Scenario, ScenarioPoint};
pub use sweep::{run_sweep, sweep_csv, sweep_json, SweepConfig, SweepResult, SWEEP_SCHEMA};
