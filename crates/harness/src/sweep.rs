//! The sweep executor: a scenario's (point × seed) grid, run across worker
//! threads, aggregated into one artifact.
//!
//! [`run_sweep`] expands a [`Scenario`] at a [`Scale`], builds every
//! `(point, seed index)` configuration, and fans the runs across scoped
//! worker threads (`jobs = 0` means one worker per available core). Each
//! run is an independent single-threaded simulation with its own RNG,
//! metrics and diagnostic registry, so parallelism cannot perturb results;
//! the private order-preserving `map` returns results in grid order, so the
//! aggregation — per-point mean/stddev over seeds of the standard
//! [`METRIC_NAMES`] and of the point's own figure-specific metrics, each
//! run's metrics windows, and a merged diagnostic snapshot — and the
//! rendered artifacts are byte-identical for any worker count.

use crate::artifact::window_json;
use crate::metrics::N_CATEGORIES;
use crate::runner::{run, RunResult};
use crate::scenario::{Scale, Scenario};
use obs::{JsonWriter, Snapshot};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Schema identifier of the aggregated sweep artifact, the repository's
/// one table schema.
pub const SWEEP_SCHEMA: &str = "mspastry-series/2";

/// How to execute a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Experiment scale.
    pub scale: Scale,
    /// Seed indices to run per point (`0..seeds`); clamped to at least 1.
    pub seeds: u64,
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Report progress on stderr as runs complete (runs done, point,
    /// aggregate ev/s, ETA) — multi-hour sweeps should not be silent.
    pub progress: bool,
}

impl SweepConfig {
    /// Single-seed, auto-parallel, silent sweep at `scale`.
    pub fn new(scale: Scale) -> Self {
        SweepConfig {
            scale,
            seeds: 1,
            jobs: 0,
            progress: false,
        }
    }
}

/// Mean and spread of one scalar metric across a point's seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStat {
    /// Metric name (a [`crate::metrics::Report`] scalar or run diagnostic).
    pub name: &'static str,
    /// Per-seed values, in seed-index order.
    pub values: Vec<f64>,
    /// Mean over seeds.
    pub mean: f64,
    /// Sample standard deviation over seeds (0 with a single seed).
    pub stddev: f64,
}

/// Aggregated results of one scenario point.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// The point's label (sweep-axis value).
    pub label: String,
    /// Number of seeds aggregated.
    pub n_seeds: u64,
    /// Per-metric statistics: [`METRIC_NAMES`] in order, then the point's
    /// figure-specific metrics ([`crate::ScenarioPoint::metrics`]).
    pub stats: Vec<MetricStat>,
    /// Diagnostic registry snapshots of all seeds, merged (counters summed,
    /// histograms merged).
    pub diag: Snapshot,
    /// The individual runs, in seed-index order.
    pub runs: Vec<RunResult>,
}

/// Results of a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// Paper figure the scenario reproduces.
    pub figure: &'static str,
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Seeds per point.
    pub seeds: u64,
    /// One summary per scenario point, in scenario order.
    pub points: Vec<PointSummary>,
}

/// The standard scalar metrics aggregated across seeds, in artifact order.
/// The last [`N_CATEGORIES`] are `Report::totals_per_node_per_sec`, one per
/// [`crate::CATEGORY_NAMES`] entry.
pub const METRIC_NAMES: [&str; 13 + N_CATEGORIES] = [
    "issued",
    "delivered",
    "incorrect_rate",
    "loss_rate",
    "mean_rdp",
    "mean_hops",
    "control_msgs_per_node_per_sec",
    "bytes_per_node_per_sec",
    "final_active",
    "ring_defects",
    "mean_t_rt_us",
    "incorrect",
    "lost",
    "totals_per_node_per_sec.distance-probes",
    "totals_per_node_per_sec.leafset-hb-probes",
    "totals_per_node_per_sec.rt-probes",
    "totals_per_node_per_sec.acks-retransmits",
    "totals_per_node_per_sec.join",
    "totals_per_node_per_sec.lookups",
];

/// The [`METRIC_NAMES`] of one run with their values.
fn standard_metrics(r: &RunResult) -> Vec<(&'static str, f64)> {
    let rep = &r.report;
    let scalars = [
        rep.issued as f64,
        rep.delivered as f64,
        rep.incorrect_rate,
        rep.loss_rate,
        rep.mean_rdp,
        rep.mean_hops,
        rep.control_msgs_per_node_per_sec,
        rep.bytes_per_node_per_sec,
        r.final_active as f64,
        r.ring_defects as f64,
        r.mean_t_rt_us,
        rep.incorrect as f64,
        rep.lost as f64,
    ];
    let values = scalars.into_iter().chain(rep.totals_per_node_per_sec);
    METRIC_NAMES.into_iter().zip(values).collect()
}

/// Applies `f` to every index in `0..n` on up to `jobs` worker threads
/// (`jobs = 0` means the host's available parallelism) and returns the
/// results in index order. Workers claim indices from an atomic cursor, so
/// one long run does not idle the others, and each result lands in the
/// slot of its index.
///
/// The output is identical for every `jobs` value: scheduling only decides
/// *which worker* computes an index, never *what* the index computes. With
/// one effective worker (or `n <= 1`) everything runs inline on the caller's
/// thread.
///
/// # Panics
///
/// Propagates the first panic raised by `f`.
fn map<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        jobs
    };
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for chunk in &mut per_worker {
        for (i, r) in chunk.drain(..) {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Runs a scenario's full (point × seed) grid and aggregates per point.
pub fn run_sweep(scenario: &Scenario, cfg: &SweepConfig) -> SweepResult {
    let points = scenario.expand(cfg.scale);
    let seeds = cfg.seeds.max(1) as usize;
    let grid = points.len() * seeds;
    // Progress state shared across workers. Only completion counters — the
    // runs themselves stay independent, so reporting cannot perturb results
    // (and the artifacts stay byte-identical with it on or off).
    let done = AtomicU64::new(0);
    let events = AtomicU64::new(0);
    let t0 = std::time::Instant::now();
    // Grid index i = point * seeds + seed, so map's order-preserving output
    // is already grouped by point.
    let results = map(cfg.jobs, grid, |i| {
        let point = &points[i / seeds];
        let seed = (i % seeds) as u64;
        let res = run((point.build)(seed));
        let mut metrics = standard_metrics(&res);
        if let Some(f) = &point.metrics {
            metrics.extend(f(seed, &res));
        }
        if cfg.progress {
            let d = done.fetch_add(1, Relaxed) + 1;
            let ev = events.fetch_add(res.sim_events, Relaxed) + res.sim_events;
            let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
            let eta = elapsed / d as f64 * (grid as u64 - d) as f64;
            eprintln!(
                "[sweep {}] {d}/{grid} runs done (point {}/{} \"{}\"), \
                 {:.2}M ev/s aggregate, ETA {:.0}s",
                scenario.name,
                i / seeds + 1,
                points.len(),
                point.label,
                ev as f64 / elapsed / 1e6,
                eta,
            );
        }
        (res, metrics)
    });
    let names = |m: &[(&'static str, f64)]| m.iter().map(|&(name, _)| name).collect::<Vec<_>>();
    assert!(
        results
            .iter()
            .all(|(_, m)| names(m) == names(&results[0].1)),
        "scenario {}: every run must report the same metrics",
        scenario.name
    );
    let mut results = results.into_iter();
    let summaries = points
        .iter()
        .map(|p| {
            let (runs, metrics) = results.by_ref().take(seeds).unzip();
            summarize(&p.label, runs, metrics)
        })
        .collect();
    SweepResult {
        scenario: scenario.name,
        figure: scenario.figure,
        scale: cfg.scale,
        seeds: seeds as u64,
        points: summaries,
    }
}

/// Aggregates one point's seed runs and their per-seed `(name, value)`
/// metrics (the same names for every seed).
fn summarize(
    label: &str,
    runs: Vec<RunResult>,
    metrics: Vec<Vec<(&'static str, f64)>>,
) -> PointSummary {
    let n = runs.len();
    let mut diag = Snapshot::default();
    for r in &runs {
        diag.merge(&r.diag);
    }
    let stats = metrics[0]
        .iter()
        .enumerate()
        .map(|(m, &(name, _))| {
            let values: Vec<f64> = metrics.iter().map(|seed| seed[m].1).collect();
            let mean = values.iter().sum::<f64>() / n as f64;
            let stddev = if n > 1 {
                let var =
                    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
                var.sqrt()
            } else {
                0.0
            };
            MetricStat {
                name,
                values,
                mean,
                stddev,
            }
        })
        .collect();
    PointSummary {
        label: label.to_string(),
        n_seeds: n as u64,
        stats,
        diag,
        runs,
    }
}

/// Serialises a [`SweepResult`] as one JSON document (schema
/// [`SWEEP_SCHEMA`]): sweep identity, then per point the seed count, each
/// metric's per-seed values/mean/stddev, each seed's metrics windows (one
/// list per seed, as in the run artifact's `report.windows`), and the
/// merged diagnostic snapshot. Deterministic: the same runs produce
/// byte-identical output.
pub fn sweep_json(res: &SweepResult) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SWEEP_SCHEMA)
        .field_str("scenario", res.scenario)
        .field_str("figure", res.figure)
        .field_str("scale", res.scale.name())
        .field_u64("n_seeds", res.seeds);
    w.key("points").begin_array();
    for p in &res.points {
        w.begin_object();
        w.field_str("label", &p.label)
            .field_u64("n_seeds", p.n_seeds);
        w.key("metrics").begin_object();
        for s in &p.stats {
            w.key(s.name).begin_object();
            w.field_f64("mean", s.mean).field_f64("stddev", s.stddev);
            w.key("values").begin_array();
            for &v in &s.values {
                w.f64(v);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.key("windows").begin_array();
        for r in &p.runs {
            w.begin_array();
            for win in &r.report.windows {
                window_json(&mut w, win);
            }
            w.end_array();
        }
        w.end_array();
        w.key("diag");
        obs::snapshot_json(&mut w, &p.diag);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Renders a [`SweepResult`] as CSV: one row per point, with a
/// `<metric>_mean`/`<metric>_stddev` column pair per aggregated metric
/// (every point of a sweep reports the same metrics).
pub fn sweep_csv(res: &SweepResult) -> String {
    let mut out = String::from("label,n_seeds");
    for s in res.points.first().map_or(&[][..], |p| &p.stats) {
        let name = s.name;
        out.push_str(&format!(",{name}_mean,{name}_stddev"));
    }
    out.push('\n');
    for p in &res.points {
        out.push_str(&format!("{},{}", p.label, p.n_seeds));
        for s in &p.stats {
            out.push_str(&format!(",{:.6},{:.6}", s.mean, s.stddev));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Registry, ScenarioPoint};
    use churn::poisson::{self, PoissonParams};
    use topology::TopologyKind;

    fn tiny_points(_s: Scale) -> Vec<ScenarioPoint> {
        [10.0f64, 20.0]
            .into_iter()
            .map(|mean_nodes| {
                ScenarioPoint::new(format!("n={mean_nodes}"), move |seed| {
                    let trace = poisson::trace(&PoissonParams {
                        mean_nodes,
                        mean_session_us: 3600e6,
                        duration_us: 5 * 60 * 1_000_000,
                        seed: 1 + seed,
                    });
                    let mut cfg = crate::RunConfig::new(trace);
                    cfg.topology = TopologyKind::GaTechTiny;
                    cfg.warmup_us = 4 * 60 * 1_000_000;
                    cfg.metrics_window_us = 60 * 1_000_000;
                    cfg.seed = 7 + seed;
                    cfg
                })
            })
            .collect()
    }

    const TINY: Scenario = Scenario {
        name: "tiny",
        title: "test scenario",
        figure: "test",
        points: tiny_points,
    };

    #[test]
    fn sweep_aggregates_per_point() {
        let cfg = SweepConfig {
            seeds: 2,
            jobs: 1,
            ..SweepConfig::new(Scale::Quick)
        };
        let res = run_sweep(&TINY, &cfg);
        assert_eq!(res.points.len(), 2);
        for p in &res.points {
            assert_eq!(p.n_seeds, 2);
            assert_eq!(p.runs.len(), 2);
            assert_eq!(p.stats.len(), METRIC_NAMES.len());
            let issued = &p.stats[0];
            assert_eq!(issued.name, "issued");
            assert_eq!(issued.values.len(), 2);
            let mean = (issued.values[0] + issued.values[1]) / 2.0;
            assert!((issued.mean - mean).abs() < 1e-12);
            // Merged diag covers both runs.
            assert!(p.diag.counter("net.delivered") >= p.runs[0].diag.counter("net.delivered"));
        }
    }

    #[test]
    fn artifacts_are_independent_of_worker_count() {
        let seq = SweepConfig {
            seeds: 2,
            jobs: 1,
            ..SweepConfig::new(Scale::Quick)
        };
        let par = SweepConfig { jobs: 4, ..seq };
        let a = run_sweep(&TINY, &seq);
        let b = run_sweep(&TINY, &par);
        assert_eq!(sweep_json(&a), sweep_json(&b));
        assert_eq!(sweep_csv(&a), sweep_csv(&b));
    }

    fn tiny_points_with_metrics(s: Scale) -> Vec<ScenarioPoint> {
        tiny_points(s)
            .into_iter()
            .map(|p| {
                p.with_metrics(|seed, r| {
                    vec![
                        ("seed_index", seed as f64),
                        ("windows", r.report.windows.len() as f64),
                    ]
                })
            })
            .collect()
    }

    #[test]
    fn point_metrics_follow_the_standard_ones() {
        let scenario = Scenario {
            points: tiny_points_with_metrics,
            ..TINY
        };
        let cfg = SweepConfig {
            seeds: 2,
            ..SweepConfig::new(Scale::Quick)
        };
        let res = run_sweep(&scenario, &cfg);
        for p in &res.points {
            let names: Vec<&str> = p.stats.iter().map(|m| m.name).collect();
            assert_eq!(names[..METRIC_NAMES.len()], METRIC_NAMES);
            assert_eq!(names[METRIC_NAMES.len()..], ["seed_index", "windows"]);
            let seed_index = &p.stats[METRIC_NAMES.len()];
            assert_eq!(seed_index.values, [0.0, 1.0]);
            assert_eq!(seed_index.mean, 0.5);
            let windows = &p.stats[METRIC_NAMES.len() + 1].values;
            for (r, &n) in p.runs.iter().zip(windows) {
                assert_eq!(r.report.windows.len() as f64, n);
            }
        }
        let csv = sweep_csv(&res);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with(",windows_mean,windows_stddev"));
        let json = sweep_json(&res);
        assert!(json.contains("\"seed_index\":{\"mean\":0.5,"), "{json}");
    }

    #[test]
    fn category_metrics_follow_the_category_names() {
        let categories = &METRIC_NAMES[METRIC_NAMES.len() - N_CATEGORIES..];
        for (metric, category) in categories.iter().zip(crate::CATEGORY_NAMES) {
            assert_eq!(*metric, format!("totals_per_node_per_sec.{category}"));
        }
    }

    #[test]
    fn single_seed_has_zero_stddev() {
        let res = run_sweep(&TINY, &SweepConfig::new(Scale::Quick));
        for p in &res.points {
            assert_eq!(p.n_seeds, 1);
            assert!(p.stats.iter().all(|s| s.stddev == 0.0));
        }
    }

    #[test]
    fn sweep_json_shape() {
        let res = run_sweep(&TINY, &SweepConfig::new(Scale::Quick));
        let s = sweep_json(&res);
        assert!(s.starts_with(&format!("{{\"schema\":\"{SWEEP_SCHEMA}\"")));
        for key in [
            "scenario", "figure", "scale", "n_seeds", "points", "metrics", "windows", "diag",
        ] {
            assert!(s.contains(&format!("\"{key}\":")), "missing {key}");
        }
        for name in METRIC_NAMES {
            assert!(
                s.contains(&format!("\"{name}\":{{\"mean\":")),
                "missing {name}"
            );
        }
        let csv = sweep_csv(&res);
        assert!(csv.starts_with("label,n_seeds,issued_mean,issued_stddev"));
        assert_eq!(csv.lines().count(), 1 + res.points.len());
    }

    #[test]
    fn builtin_smoke_scenario_sweeps() {
        let reg = Registry::builtin();
        let smoke = reg.get("smoke").unwrap();
        // Keep the test fast: one seed, and smoke is a single small point.
        let res = run_sweep(smoke, &SweepConfig::new(Scale::Quick));
        assert_eq!(res.points.len(), 1);
        assert_eq!(res.points[0].runs.len(), 1);
        assert!(res.points[0].runs[0].report.issued > 0);
    }

    #[test]
    fn results_are_in_index_order() {
        let out = map(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(map(0, 5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(map(8, 0, |_| 0u32), Vec::<u32>::new());
        assert_eq!(map(8, 1, |i| i), vec![0]);
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        let expensive = |i: usize| {
            // Uneven task costs exercise the dynamic cursor.
            let mut x = i as u64;
            for _ in 0..(i % 7) * 1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            x
        };
        let seq = map(1, 50, expensive);
        for jobs in [2, 3, 8] {
            assert_eq!(map(jobs, 50, expensive), seq, "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        map(2, 10, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}
