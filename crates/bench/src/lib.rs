//! The experiment front-end of the MSPastry reproduction: the full scenario
//! registry, run by the `mspastry-sim` CLI.
//!
//! Every figure and table of the paper's §5 is a named scenario. The
//! harness-expressible ones live in [`harness::scenario`]; [`scenarios`]
//! adds the application-backed ones (`fig8_squirrel`, `exp_replication`).
//! `mspastry-sim --scenario NAME` runs any of them as a multi-seed sweep and
//! writes the `mspastry-series/2` artifact, with each figure's own numbers
//! as named per-point metrics. `benches/` holds only the criterion
//! micro-benches; the repository benchmark is `perfbench/`.
//!
//! Two scales are supported, selected by the `MSPASTRY_SCALE` environment
//! variable:
//!
//! * `quick` (default) — scaled-down populations and durations so the whole
//!   suite finishes in minutes; the result *shape* (who wins, by what factor,
//!   where crossovers fall) matches the paper.
//! * `full` — the paper's populations and durations (hours of wall time).

use apps::kvstore;
use apps::squirrel::{self, SquirrelParams};
use apps::web_workload::WebWorkloadParams;
use churn::poisson::{self, PoissonParams};
use churn::synth::DAY_US;
use harness::scenario::{
    Registry, Scenario, ScenarioPoint, MIN, SEED_RUN_STRIDE, SEED_TRACE_STRIDE,
};
use harness::{RunConfig, RunResult, Workload};
use topology::TopologyKind;

pub use harness::scenario::{scale, Scale};

/// The full scenario registry: every harness-expressible experiment
/// ([`Registry::builtin`]) plus the application-backed scenarios that need
/// the `apps` layer (`fig8_squirrel`, `exp_replication`).
pub fn scenarios() -> Registry {
    let mut r = Registry::builtin();
    r.register(Scenario {
        name: "fig8_squirrel",
        title: "Squirrel web-cache deployment traffic, simulated",
        figure: "Fig. 8",
        points: fig8_points,
    });
    r.register(Scenario {
        name: "exp_replication",
        title: "KV availability vs leaf-set replication factor",
        figure: "extension",
        points: replication_points,
    });
    r
}

/// The Squirrel deployment parameters at a scale and seed index (52
/// machines over six days in quick mode; the paper-shaped default workload
/// in full mode).
pub fn fig8_params(s: Scale, seed: u64) -> SquirrelParams {
    let mut params = match s {
        Scale::Full => SquirrelParams::default(),
        Scale::Quick => SquirrelParams {
            web: WebWorkloadParams {
                clients: 52,
                duration_us: 6 * DAY_US,
                objects: 8_000,
                ..Default::default()
            },
            ..Default::default()
        },
    };
    params.seed += seed * SEED_TRACE_STRIDE;
    params
}

fn fig8_points(s: Scale) -> Vec<ScenarioPoint> {
    vec![ScenarioPoint::new("squirrel", move |seed| {
        squirrel::build_run(&fig8_params(s, seed)).0
    })
    .with_metrics(move |seed, res| {
        // The run configuration does not carry the requests skipped
        // while their machine was down; rebuilding recovers the count.
        let (_, skipped_offline) = squirrel::build_run(&fig8_params(s, seed));
        let c = squirrel::cache_stats(res, skipped_offline);
        vec![
            ("cache_served", c.served as f64),
            ("cache_hits", c.hits as f64),
            ("cache_misses", c.misses as f64),
            ("cache_hit_rate", c.hit_rate()),
            ("cache_skipped", c.skipped as f64),
        ]
    })]
}

/// Builds the replication experiment: one churny 15-minute-session run with
/// a scripted PUT/GET workload whose deliveries are post-processed per
/// replication factor. Returns the run configuration and the op list (needed
/// for [`kvstore::evaluate_replicated`]).
pub fn replication_setup(seed: u64) -> (RunConfig, Vec<kvstore::TimedOp>) {
    let dur = 40 * MIN;
    let trace = poisson::trace(&PoissonParams {
        mean_nodes: 120.0,
        mean_session_us: 15.0 * 60e6,
        duration_us: dur,
        seed: 31 + seed * SEED_TRACE_STRIDE,
    });
    let n_sessions = trace.sessions().len();
    // GETs within 5 minutes of their PUT: the window where root changes are
    // failure-driven (replica takeover) rather than join-driven (which needs
    // value migration the home-store model does not perform).
    let ops = kvstore::generate_ops_with_gap(400, 3, n_sessions, dur, Some(5 * MIN), 32);
    let mut cfg = RunConfig::new(trace);
    cfg.topology = TopologyKind::GaTechSmall;
    cfg.warmup_us = 10 * MIN;
    cfg.workload = Workload::Scripted(kvstore::to_script(&ops));
    cfg.record_deliveries = true;
    cfg.seed += seed * SEED_RUN_STRIDE;
    (cfg, ops)
}

/// The replica counts the replication scenario evaluates, each with the
/// metric names of its GET hits, misses, GETs without a stored PUT, and hit
/// rate ([`kvstore::KvStats`]).
pub const REPLICA_METRICS: [(usize, [&str; 4]); 5] = [
    (0, ["k0_hits", "k0_misses", "k0_no_put", "k0_hit_rate"]),
    (1, ["k1_hits", "k1_misses", "k1_no_put", "k1_hit_rate"]),
    (2, ["k2_hits", "k2_misses", "k2_no_put", "k2_hit_rate"]),
    (4, ["k4_hits", "k4_misses", "k4_no_put", "k4_hit_rate"]),
    (8, ["k8_hits", "k8_misses", "k8_no_put", "k8_hit_rate"]),
];

/// One churny run; replication factors are evaluated by post-processing the
/// same delivery log, so the comparison is exactly controlled.
fn replication_points(_s: Scale) -> Vec<ScenarioPoint> {
    vec![
        ScenarioPoint::new("kv-churn", |seed| replication_setup(seed).0)
            .with_metrics(replication_metrics),
    ]
}

/// The op count and the [`REPLICA_METRICS`] of one run (the op list is
/// rebuilt from the seed index).
fn replication_metrics(seed: u64, res: &RunResult) -> Vec<(&'static str, f64)> {
    let (_, ops) = replication_setup(seed);
    let mut metrics = vec![("kv_ops", ops.len() as f64)];
    for (k, names) in REPLICA_METRICS {
        let st = kvstore::evaluate_replicated(&ops, &res.deliveries, k);
        let values = [
            st.gets_hit as f64,
            st.gets_missed as f64,
            st.gets_no_put as f64,
            st.hit_rate(),
        ];
        metrics.extend(names.into_iter().zip(values));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{run, run_sweep, SweepConfig, SweepResult};

    /// The one-seed sweep of a single-point scenario, and a lookup of its
    /// metrics by name.
    fn sweep_one(name: &str) -> (SweepResult, impl Fn(&SweepResult, &str) -> f64) {
        let sweep = run_sweep(
            scenarios().get(name).unwrap(),
            &SweepConfig::new(Scale::Quick),
        );
        let metric = |sweep: &SweepResult, m: &str| {
            let stat = sweep.points[0].stats.iter().find(|s| s.name == m);
            stat.unwrap_or_else(|| panic!("no metric {m}")).values[0]
        };
        (sweep, metric)
    }

    #[test]
    fn fig8_metrics_are_the_cache_stats_of_a_direct_run() {
        // The two six-day runs are the slowest part of the suite; overlap them.
        let ((sweep, metric), c) = std::thread::scope(|scope| {
            let direct = scope.spawn(|| {
                let (cfg, skipped_offline) = squirrel::build_run(&fig8_params(Scale::Quick, 0));
                squirrel::cache_stats(&run(cfg), skipped_offline)
            });
            (sweep_one("fig8_squirrel"), direct.join().unwrap())
        });
        assert!(c.served > 0);
        assert_eq!(metric(&sweep, "cache_served"), c.served as f64);
        assert_eq!(metric(&sweep, "cache_hits"), c.hits as f64);
        assert_eq!(metric(&sweep, "cache_misses"), c.misses as f64);
        assert_eq!(metric(&sweep, "cache_hit_rate"), c.hit_rate());
        assert_eq!(metric(&sweep, "cache_skipped"), c.skipped as f64);
    }

    #[test]
    fn replication_metrics_are_evaluate_replicated_of_a_direct_run() {
        let (sweep, metric) = sweep_one("exp_replication");
        let (cfg, ops) = replication_setup(0);
        let res = run(cfg);
        assert_eq!(metric(&sweep, "kv_ops"), ops.len() as f64);
        for (k, [hits, misses, no_put, hit_rate]) in REPLICA_METRICS {
            let st = kvstore::evaluate_replicated(&ops, &res.deliveries, k);
            assert!(st.gets_hit > 0, "k={k}");
            assert_eq!(metric(&sweep, hits), st.gets_hit as f64);
            assert_eq!(metric(&sweep, misses), st.gets_missed as f64);
            assert_eq!(metric(&sweep, no_put), st.gets_no_put as f64);
            assert_eq!(metric(&sweep, hit_rate), st.hit_rate());
        }
        assert_eq!(
            REPLICA_METRICS.map(|(k, _)| k),
            [0, 1, 2, 4, 8],
            "the replica counts EXPERIMENTS.md reports"
        );
    }

    #[test]
    fn full_registry_includes_app_scenarios() {
        let r = scenarios();
        for name in ["fig8_squirrel", "exp_replication", "fig4_traces", "smoke"] {
            assert!(r.get(name).is_some(), "missing {name}");
        }
        assert_eq!(r.get("fig8_squirrel").unwrap().figure, "Fig. 8");
    }

    #[test]
    fn fig8_scenario_matches_build_run() {
        let pts = scenarios()
            .get("fig8_squirrel")
            .unwrap()
            .expand(Scale::Quick);
        let from_scenario = (pts[0].build)(0);
        let (direct, _) = squirrel::build_run(&fig8_params(Scale::Quick, 0));
        assert_eq!(from_scenario.seed, direct.seed);
        assert_eq!(from_scenario.trace, direct.trace);
    }

    #[test]
    fn replication_setup_is_deterministic_and_seeded() {
        let (a, ops_a) = replication_setup(0);
        let (b, _) = replication_setup(0);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.seed, b.seed);
        assert!(!ops_a.is_empty());
        let (c, _) = replication_setup(1);
        assert_ne!(a.trace, c.trace);
    }
}
