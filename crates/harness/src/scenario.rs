//! Declarative experiments: the scenario engine.
//!
//! Every result in the paper's §5 has one shape — pick a topology, a churn
//! trace, a workload and a parameter point; run; window the metrics. A
//! [`Scenario`] captures that shape declaratively: it names an experiment
//! and expands, for a given [`Scale`], into labelled [`ScenarioPoint`]s,
//! each of which builds a concrete [`RunConfig`] for any seed index. The
//! [`Registry`] maps experiment names (`fig4_traces`, `exp_ablation`, ...)
//! to scenarios so the `mspastry-sim` CLI, the benchmark and the examples
//! all launch the *same* configurations from one code path; the companion
//! [`crate::sweep`] module executes a scenario's (point × seed) grid across
//! worker threads. A point may also derive figure-specific metrics from
//! each finished run ([`ScenarioPoint::with_metrics`]), which the sweep
//! aggregates next to the standard ones.
//!
//! # Seed indices
//!
//! Scenario builders take a *seed index*, not a raw RNG seed. Index 0 is
//! the configuration EXPERIMENTS.md reports; index `k` shifts every
//! churn-trace seed by `k *` [`SEED_TRACE_STRIDE`] and every run seed by
//! `k *` [`SEED_RUN_STRIDE`], giving statistically independent repeats that
//! remain fully deterministic.

use crate::runner::{RunConfig, RunResult, Workload};
use churn::gnutella::GnutellaParams;
use churn::microsoft::MicrosoftParams;
use churn::overnet::OvernetParams;
use churn::poisson::PoissonParams;
use churn::Trace;
use topology::TopologyKind;

/// One minute in microseconds.
pub const MIN: u64 = 60 * 1_000_000;
/// One hour in microseconds.
pub const HOUR: u64 = 60 * MIN;

/// Offset applied to every churn-trace seed per seed index (see the module
/// docs on seed indices).
pub const SEED_TRACE_STRIDE: u64 = 1_000;
/// Offset applied to every run seed (`RunConfig::seed`) per seed index.
pub const SEED_RUN_STRIDE: u64 = 100_000;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down runs (default; minutes of wall time).
    Quick,
    /// Paper-scale runs (hours of wall time).
    Full,
}

impl Scale {
    /// Lower-case name (`quick`/`full`), used in artifact file names.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Reads the scale from `MSPASTRY_SCALE` (`quick`/`full`).
pub fn scale() -> Scale {
    match std::env::var("MSPASTRY_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// The Gnutella-like trace at the given scale and seed index.
pub fn gnutella_trace_seeded(s: Scale, seed: u64) -> Trace {
    let shift = seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::gnutella::trace(&GnutellaParams {
            seed: GnutellaParams::default().seed + shift,
            ..Default::default()
        }),
        Scale::Quick => churn::gnutella::trace(&GnutellaParams {
            population_scale: 0.1,
            duration_us: 24 * HOUR,
            seed: GnutellaParams::default().seed + shift,
        }),
    }
}

/// The Gnutella-like trace at the given scale (seed index 0).
pub fn gnutella_trace(s: Scale) -> Trace {
    gnutella_trace_seeded(s, 0)
}

/// The OverNet-like trace at the given scale and seed index.
pub fn overnet_trace_seeded(s: Scale, seed: u64) -> Trace {
    let shift = seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::overnet::trace(&OvernetParams {
            seed: OvernetParams::default().seed + shift,
            ..Default::default()
        }),
        Scale::Quick => churn::overnet::trace(&OvernetParams {
            population_scale: 0.4,
            duration_us: 24 * HOUR,
            seed: OvernetParams::default().seed + shift,
        }),
    }
}

/// The OverNet-like trace at the given scale (seed index 0).
pub fn overnet_trace(s: Scale) -> Trace {
    overnet_trace_seeded(s, 0)
}

/// The Microsoft-corporate-like trace at the given scale and seed index.
pub fn microsoft_trace_seeded(s: Scale, seed: u64) -> Trace {
    let shift = seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::microsoft::trace(&MicrosoftParams {
            seed: MicrosoftParams::default().seed + shift,
            ..Default::default()
        }),
        Scale::Quick => churn::microsoft::trace(&MicrosoftParams {
            population_scale: 0.012,
            duration_us: 48 * HOUR,
            seed: MicrosoftParams::default().seed + shift,
        }),
    }
}

/// The Microsoft-corporate-like trace at the given scale (seed index 0).
pub fn microsoft_trace(s: Scale) -> Trace {
    microsoft_trace_seeded(s, 0)
}

/// A short Gnutella-like trace for parameter sweeps (many runs). `point` is
/// the scenario point's trace-seed offset; `seed` is the sweep seed index.
pub fn gnutella_sweep_trace_seeded(s: Scale, point: u64, seed: u64) -> Trace {
    let p = point + seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::gnutella::trace(&GnutellaParams {
            seed: 101 + p,
            ..Default::default()
        }),
        Scale::Quick => churn::gnutella::trace(&GnutellaParams {
            population_scale: 0.08,
            duration_us: 2 * HOUR,
            seed: 101 + p,
        }),
    }
}

/// A short Gnutella-like sweep trace (seed index 0).
pub fn gnutella_sweep_trace(s: Scale, point: u64) -> Trace {
    gnutella_sweep_trace_seeded(s, point, 0)
}

/// The GATech topology at the given scale.
pub fn gatech(s: Scale) -> TopologyKind {
    match s {
        Scale::Full => TopologyKind::GaTech,
        Scale::Quick => TopologyKind::GaTechSmall,
    }
}

/// The base configuration of §5.1 around a trace.
///
/// Quick mode shortens the routing-table maintenance period from the paper's
/// 20 minutes to 5: PNS converges through maintenance gossip *rounds*, and a
/// quick trace is ~25x shorter than the paper's 60-hour runs, so the round
/// count — not the wall-clock period — is what must be preserved.
pub fn base_config(s: Scale, trace: Trace) -> RunConfig {
    let mut cfg = RunConfig::new(trace);
    cfg.topology = gatech(s);
    if s == Scale::Quick {
        cfg.protocol.rt_maintenance_period_us = 5 * MIN;
    }
    cfg
}

/// Applies the standard seed-index shift to a run configuration.
fn shift_run_seed(cfg: &mut RunConfig, seed: u64) {
    cfg.seed += seed * SEED_RUN_STRIDE;
}

/// Derives figure-specific metrics from one finished run, given its seed
/// index: `(name, value)` pairs, the same names in the same order for every
/// seed index and every point of a scenario.
pub type PointMetrics = Box<dyn Fn(u64, &RunResult) -> Vec<(&'static str, f64)> + Send + Sync>;

/// One runnable parameter point of a scenario: a label (the sweep-axis
/// value, e.g. `l=16`) plus a builder producing the point's [`RunConfig`]
/// for any seed index.
pub struct ScenarioPoint {
    /// Point label; doubles as the artifact row key.
    pub label: String,
    /// Builds the run configuration for one seed index.
    pub build: Box<dyn Fn(u64) -> RunConfig + Send + Sync>,
    /// Figure-specific metrics the sweep aggregates after the standard
    /// ones (`None`: the standard metrics only).
    pub metrics: Option<PointMetrics>,
}

impl ScenarioPoint {
    /// Creates a point from a label and builder closure.
    pub fn new(
        label: impl Into<String>,
        build: impl Fn(u64) -> RunConfig + Send + Sync + 'static,
    ) -> Self {
        ScenarioPoint {
            label: label.into(),
            build: Box::new(build),
            metrics: None,
        }
    }

    /// Attaches the point's figure-specific metrics.
    pub fn with_metrics(
        mut self,
        metrics: impl Fn(u64, &RunResult) -> Vec<(&'static str, f64)> + Send + Sync + 'static,
    ) -> Self {
        self.metrics = Some(Box::new(metrics));
        self
    }
}

impl std::fmt::Debug for ScenarioPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioPoint")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// A named, declarative experiment: expands into parameter points at a
/// given scale. The `points` member is a plain function pointer so
/// registries are cheap, `'static`, and constructible from any crate
/// (higher layers register scenarios whose builders need application code —
/// e.g. the Squirrel workload).
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry name (also the artifact file stem), e.g. `fig6_loss`.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The paper figure/section this scenario reproduces, e.g. `Fig. 6`.
    pub figure: &'static str,
    /// Expands the scenario into its parameter points at a scale.
    pub points: fn(Scale) -> Vec<ScenarioPoint>,
}

impl Scenario {
    /// The scenario's points at `scale`.
    pub fn expand(&self, scale: Scale) -> Vec<ScenarioPoint> {
        (self.points)(scale)
    }
}

/// A name → [`Scenario`] registry.
///
/// [`Registry::builtin`] holds every experiment expressible from the
/// harness layer (fig3–fig7, the §5.3 text experiments, the graceful-leave
/// extension and the CI smoke run); application-backed scenarios
/// (`fig8_squirrel`, `exp_replication`) are added by the `bench` crate via
/// [`Registry::register`].
#[derive(Debug, Clone, Default)]
pub struct Registry {
    scenarios: Vec<Scenario>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in scenarios, in paper order.
    pub fn builtin() -> Self {
        let mut r = Registry::new();
        for s in BUILTIN {
            r.register(*s);
        }
        r
    }

    /// Adds (or replaces, by name) a scenario.
    pub fn register(&mut self, s: Scenario) {
        if let Some(existing) = self.scenarios.iter_mut().find(|e| e.name == s.name) {
            *existing = s;
        } else {
            self.scenarios.push(s);
        }
    }

    /// Looks up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }
}

/// The built-in scenario table (see [`Registry::builtin`]).
static BUILTIN: &[Scenario] = &[
    Scenario {
        name: "smoke",
        title: "30-minute Gnutella smoke run (~60 nodes): CI and quick sanity checks",
        figure: "CI",
        points: smoke_points,
    },
    Scenario {
        name: "fig3_failure_rates",
        title: "the three real-world churn traces under the base configuration",
        figure: "Fig. 3",
        points: fig3_points,
    },
    Scenario {
        name: "fig4_traces",
        title: "RDP and control traffic vs normalized time for the three traces",
        figure: "Fig. 4",
        points: fig4_points,
    },
    Scenario {
        name: "fig5_sessions",
        title: "Poisson traces: mean session time sweep (5..600 minutes)",
        figure: "Fig. 5",
        points: fig5_points,
    },
    Scenario {
        name: "fig6_loss",
        title: "uniform network message loss sweep (0..5%), Gnutella trace",
        figure: "Fig. 6",
        points: fig6_points,
    },
    Scenario {
        name: "fig7_params",
        title: "leaf-set size l and digit width b sweeps, Gnutella trace",
        figure: "Fig. 7",
        points: fig7_points,
    },
    Scenario {
        name: "exp_topology",
        title: "Gnutella trace on the CorpNet, GATech and Mercator topologies",
        figure: "§5.3 table",
        points: exp_topology_points,
    },
    Scenario {
        name: "exp_ablation",
        title: "per-hop acks and active probing on/off, plus the low-traffic delay contribution",
        figure: "§5.3 text",
        points: exp_ablation_points,
    },
    Scenario {
        name: "exp_selftuning",
        title: "achieved raw loss vs self-tuning target (per-hop acks off)",
        figure: "§5.3 text",
        points: exp_selftuning_points,
    },
    Scenario {
        name: "exp_suppression",
        title: "liveness-probe suppression by application traffic",
        figure: "§5.3 text",
        points: exp_suppression_points,
    },
    Scenario {
        name: "exp_leave",
        title: "graceful-leave extension: announced departures vs silent crashes",
        figure: "extension",
        points: exp_leave_points,
    },
];

fn smoke_points(s: Scale) -> Vec<ScenarioPoint> {
    vec![ScenarioPoint::new("smoke", move |seed| {
        let trace = churn::gnutella::trace(&GnutellaParams {
            population_scale: 0.03,
            duration_us: 30 * MIN,
            seed: 101 + seed * SEED_TRACE_STRIDE,
        });
        let mut cfg = base_config(s, trace);
        cfg.topology = TopologyKind::GaTechSmall;
        shift_run_seed(&mut cfg, seed);
        cfg
    })]
}

/// Builds a trace at a scale and seed index.
type TraceFn = fn(Scale, u64) -> Trace;

/// The three real-world traces of Fig. 3 and Fig. 4, by point label.
const TRACES: [(&str, TraceFn); 3] = [
    ("Gnutella", gnutella_trace_seeded),
    ("OverNet", overnet_trace_seeded),
    ("Microsoft", microsoft_trace_seeded),
];

/// The three real-world traces under the base configuration. Shared by the
/// fig3 and fig4 scenarios (fig4 additionally widens the Microsoft metrics
/// window to an hour, matching the paper's plots).
fn trace_triple_points(s: Scale, microsoft_hour_windows: bool) -> Vec<ScenarioPoint> {
    TRACES
        .into_iter()
        .map(|(label, trace)| {
            ScenarioPoint::new(label, move |seed| {
                let mut cfg = base_config(s, trace(s, seed));
                if microsoft_hour_windows && label == "Microsoft" {
                    cfg.metrics_window_us = HOUR;
                }
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

/// Fig. 3's summary of a churn trace: its length, the failure-rate window,
/// mean and median session length, and the band of hourly mean failure
/// rates (failures per node per second over `window_us` windows; the
/// minimum ignores hours starting at or before the 2-hour mark).
fn trace_stats(trace: &Trace, window_us: u64) -> Vec<(&'static str, f64)> {
    let per_hour = (HOUR / window_us).max(1) as usize;
    let mut min_rate = f64::MAX;
    let mut max_rate: f64 = 0.0;
    for chunk in trace.failure_rate_series(window_us).chunks(per_hour) {
        let mean = chunk.iter().map(|(_, r)| r).sum::<f64>() / chunk.len() as f64;
        max_rate = max_rate.max(mean);
        if chunk[0].0 > 2 * HOUR {
            min_rate = min_rate.min(mean);
        }
    }
    vec![
        ("trace_hours", trace.duration_us() as f64 / 3600e6),
        ("window_min", (window_us / MIN) as f64),
        ("mean_session_h", trace.mean_session_us() / 3600e6),
        (
            "median_session_h",
            trace.median_session_us() as f64 / 3600e6,
        ),
        ("failure_rate_min", min_rate),
        ("failure_rate_max", max_rate),
    ]
}

/// Fig. 3 plots the churn itself, so each point's metrics describe the
/// *full-scale* trace at the run's seed index whatever the sweep's scale
/// (generating a trace is cheap). The paper uses hourly windows for the
/// much longer Microsoft trace and 10-minute windows otherwise.
fn fig3_points(s: Scale) -> Vec<ScenarioPoint> {
    trace_triple_points(s, false)
        .into_iter()
        .zip(TRACES)
        .map(|(p, (label, trace))| {
            let window = if label == "Microsoft" { HOUR } else { 10 * MIN };
            p.with_metrics(move |seed, _| trace_stats(&trace(Scale::Full, seed), window))
        })
        .collect()
}

fn fig4_points(s: Scale) -> Vec<ScenarioPoint> {
    trace_triple_points(s, true)
}

/// Session-minute values swept by the fig5 scenario.
pub const FIG5_SESSION_MINUTES: [u64; 6] = PoissonParams::SESSION_MINUTES;

/// The join-latency quantiles each fig5 point reports (Fig. 5 right), in
/// seconds, with their metric names.
pub const FIG5_JOIN_QUANTILES: [(&str, f64); 7] = [
    ("join_latency_q10_s", 0.1),
    ("join_latency_q25_s", 0.25),
    ("join_latency_q50_s", 0.5),
    ("join_latency_q75_s", 0.75),
    ("join_latency_q90_s", 0.9),
    ("join_latency_q95_s", 0.95),
    ("join_latency_q99_s", 0.99),
];

/// The [`FIG5_JOIN_QUANTILES`] of a run (NaN when no join completed).
fn join_latency_quantiles(_seed: u64, res: &RunResult) -> Vec<(&'static str, f64)> {
    FIG5_JOIN_QUANTILES
        .iter()
        .map(|&(name, q)| {
            let us = res.report.join_latency_quantile(q);
            (name, us.map_or(f64::NAN, |us| us as f64 / 1e6))
        })
        .collect()
}

fn fig5_points(s: Scale) -> Vec<ScenarioPoint> {
    let (mean_nodes, duration) = match s {
        Scale::Full => (10_000.0, 4 * HOUR),
        Scale::Quick => (150.0, 75 * MIN),
    };
    FIG5_SESSION_MINUTES
        .iter()
        .map(|&minutes| {
            ScenarioPoint::new(format!("{minutes}min"), move |seed| {
                let trace = churn::poisson::trace(&PoissonParams {
                    mean_nodes,
                    mean_session_us: minutes as f64 * 60e6,
                    duration_us: duration,
                    seed: 404 + minutes + seed * SEED_TRACE_STRIDE,
                });
                let mut cfg = RunConfig::new(trace);
                cfg.topology = gatech(s);
                cfg.warmup_us = 15 * MIN;
                cfg.metrics_window_us = 5 * MIN;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
            .with_metrics(join_latency_quantiles)
        })
        .collect()
}

/// Loss rates swept by the fig6 scenario.
pub const FIG6_LOSS_RATES: [f64; 6] = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05];

fn fig6_points(s: Scale) -> Vec<ScenarioPoint> {
    FIG6_LOSS_RATES
        .iter()
        .enumerate()
        .map(|(i, &loss)| {
            ScenarioPoint::new(format!("loss={:.0}%", loss * 100.0), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, i as u64, seed));
                cfg.network_loss_rate = loss;
                cfg.seed = 1000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

/// Leaf-set sizes swept by the fig7 scenario.
pub const FIG7_LEAF_SET_SIZES: [usize; 5] = [8, 16, 32, 48, 64];
/// Digit widths swept by the fig7 scenario.
pub const FIG7_DIGIT_WIDTHS: [u8; 5] = [1, 2, 3, 4, 5];

fn fig7_points(s: Scale) -> Vec<ScenarioPoint> {
    let mut pts = Vec::new();
    for (i, &l) in FIG7_LEAF_SET_SIZES.iter().enumerate() {
        pts.push(ScenarioPoint::new(format!("l={l}"), move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 10 + i as u64, seed));
            cfg.protocol.leaf_set_size = l;
            cfg.seed = 2000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    for (i, &b) in FIG7_DIGIT_WIDTHS.iter().enumerate() {
        pts.push(ScenarioPoint::new(format!("b={b}"), move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 20 + i as u64, seed));
            cfg.protocol.b = b;
            cfg.seed = 3000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    pts
}

fn exp_topology_points(s: Scale) -> Vec<ScenarioPoint> {
    let topologies: [(&str, TopologyKind); 3] = match s {
        Scale::Full => [
            ("CorpNet", TopologyKind::CorpNet),
            ("GATech", TopologyKind::GaTech),
            ("Mercator", TopologyKind::Mercator),
        ],
        Scale::Quick => [
            ("CorpNet", TopologyKind::CorpNet),
            ("GATech", TopologyKind::GaTechSmall),
            ("Mercator", TopologyKind::Mercator),
        ],
    };
    topologies
        .into_iter()
        .enumerate()
        .map(|(i, (name, kind))| {
            ScenarioPoint::new(name, move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 30 + i as u64, seed));
                cfg.topology = kind.clone();
                cfg.seed = 4000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

/// The technique on/off combinations of the ablation scenario:
/// `(label, per_hop_acks, active_rt_probing)`.
pub const ABLATION_COMBOS: [(&str, bool, bool); 4] = [
    ("neither", false, false),
    ("probing only", false, true),
    ("acks only", true, false),
    ("both (base)", true, true),
];

/// The low-application-traffic delay-contribution runs of the ablation
/// scenario: `(label, active_rt_probing, lookups_per_node_per_sec)`.
pub const ABLATION_RATES: [(&str, bool, f64); 4] = [
    ("acks only", false, 0.01),
    ("both", true, 0.01),
    ("acks only", false, 0.001),
    ("both", true, 0.001),
];

fn exp_ablation_points(s: Scale) -> Vec<ScenarioPoint> {
    let mut pts = Vec::new();
    for (i, (name, acks, probing)) in ABLATION_COMBOS.into_iter().enumerate() {
        pts.push(ScenarioPoint::new(name, move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 40 + i as u64, seed));
            cfg.protocol.per_hop_acks = acks;
            cfg.protocol.active_rt_probing = probing;
            cfg.seed = 5000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    for (i, (name, probing, rate)) in ABLATION_RATES.into_iter().enumerate() {
        pts.push(ScenarioPoint::new(format!("{name}@{rate}"), move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 50 + i as u64, seed));
            cfg.protocol.active_rt_probing = probing;
            cfg.workload = Workload::Poisson {
                rate_per_node_per_sec: rate,
            };
            cfg.seed = 6000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    pts
}

/// Raw-loss targets swept by the self-tuning scenario.
pub const SELFTUNING_TARGETS: [f64; 2] = [0.05, 0.01];

fn exp_selftuning_points(s: Scale) -> Vec<ScenarioPoint> {
    SELFTUNING_TARGETS
        .iter()
        .enumerate()
        .map(|(i, &target)| {
            ScenarioPoint::new(format!("Lr={target}"), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 60 + i as u64, seed));
                cfg.protocol.per_hop_acks = false;
                cfg.protocol.target_raw_loss = target;
                cfg.seed = 7000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

/// Application lookup rates swept by the suppression scenario.
pub const SUPPRESSION_RATES: [f64; 4] = [0.0, 0.01, 0.1, 1.0];

/// Liveness probes (`rt-probe` messages) per node-second: the exact count,
/// since the rt-probes category also carries unsuppressed maintenance.
fn rt_probe_rate(_seed: u64, res: &RunResult) -> Vec<(&'static str, f64)> {
    let r = &res.report;
    let probes = r
        .fine_counts
        .iter()
        .find(|(k, _)| *k == "rt-probe")
        .map_or(0, |&(_, c)| c);
    vec![("rt_probes_per_node_per_sec", probes as f64 / r.node_seconds)]
}

fn exp_suppression_points(s: Scale) -> Vec<ScenarioPoint> {
    SUPPRESSION_RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            ScenarioPoint::new(format!("rate={rate}"), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 70 + i as u64, seed));
                cfg.workload = if rate == 0.0 {
                    Workload::None
                } else {
                    Workload::Poisson {
                        rate_per_node_per_sec: rate,
                    }
                };
                cfg.seed = 8000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
            .with_metrics(rt_probe_rate)
        })
        .collect()
}

/// Graceful-departure fractions swept by the leave scenario.
pub const LEAVE_FRACTIONS: [f64; 3] = [0.0, 0.5, 1.0];

fn exp_leave_points(s: Scale) -> Vec<ScenarioPoint> {
    LEAVE_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, &frac)| {
            ScenarioPoint::new(format!("graceful={frac}"), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 80 + i as u64, seed));
                cfg.graceful_leave_fraction = frac;
                cfg.seed = 9000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        // The env var is unset in CI.
        if std::env::var("MSPASTRY_SCALE").is_err() {
            assert_eq!(scale(), Scale::Quick);
        }
    }

    #[test]
    fn quick_traces_are_small() {
        let t = gnutella_trace(Scale::Quick);
        assert!(t.active_at(2 * HOUR) < 400);
        assert_eq!(t.duration_us(), 24 * HOUR);
    }

    #[test]
    fn builtin_registry_has_the_paper_experiments() {
        let r = Registry::builtin();
        for name in [
            "smoke",
            "fig3_failure_rates",
            "fig4_traces",
            "fig5_sessions",
            "fig6_loss",
            "fig7_params",
            "exp_topology",
            "exp_ablation",
            "exp_selftuning",
            "exp_suppression",
            "exp_leave",
        ] {
            let s = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(!s.expand(Scale::Quick).is_empty(), "{name} has no points");
        }
        assert!(r.get("no_such_scenario").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = Registry::builtin();
        let n = r.iter().count();
        r.register(Scenario {
            name: "smoke",
            title: "replaced",
            figure: "CI",
            points: smoke_points,
        });
        assert_eq!(r.iter().count(), n);
        assert_eq!(r.get("smoke").unwrap().title, "replaced");
    }

    #[test]
    fn seed_indices_shift_trace_and_run_seeds() {
        let r = Registry::builtin();
        let pts = r.get("fig6_loss").unwrap().expand(Scale::Quick);
        let a = (pts[0].build)(0);
        let b = (pts[0].build)(1);
        assert_eq!(a.seed + SEED_RUN_STRIDE, b.seed);
        assert_ne!(a.trace, b.trace, "seed index must vary the churn trace");
        // Same index twice → identical configuration.
        let a2 = (pts[0].build)(0);
        assert_eq!(a.seed, a2.seed);
        assert_eq!(a.trace, a2.trace);
    }

    #[test]
    fn fig6_point_zero_matches_the_legacy_bench_config() {
        // EXPERIMENTS.md reports seed index 0, which must stay the
        // configuration fig6 has used since before the registry existed.
        let r = Registry::builtin();
        let pts = r.get("fig6_loss").unwrap().expand(Scale::Quick);
        let cfg = (pts[2].build)(0);
        let legacy_trace = gnutella_sweep_trace(Scale::Quick, 2);
        assert_eq!(cfg.trace, legacy_trace);
        assert_eq!(cfg.seed, 1002);
        assert_eq!(cfg.network_loss_rate, 0.02);
    }
}
