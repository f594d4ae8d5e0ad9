//! The two simulator workloads: `sim_churn` and `sim_lookups`.
//!
//! Set-up (churn trace plus topology) is built several times and timed
//! apiece; then `harness::run` cycles over a few seed runs of one
//! configuration while the time budget allows, each run followed by a
//! timing of the reference workload. Every repeat of a seed run must
//! reproduce its deterministic counts, which the child reports for the
//! parent to compare against the other (traced or untraced) run.

use crate::reference::{self, Reference};
use crate::{median, peak_rss_mb, Sample, Workload};
use churn::gnutella::GnutellaParams;
use churn::Trace;
use harness::scenario::{base_config, Scale, MIN, SEED_RUN_STRIDE};
use harness::{RunConfig, RunResult};
use std::time::Instant;
use topology::{Topology, TopologyKind};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// Message kinds whose send counts are reported as `sent.<kind>`, in the
/// order `Message::kind_name` lists them.
pub const MESSAGE_KINDS: [&str; 22] = [
    "join-request",
    "join-reply",
    "ls-probe",
    "ls-probe-reply",
    "heartbeat",
    "rt-probe",
    "rt-probe-reply",
    "rt-row-request",
    "rt-row-reply",
    "rt-row-announce",
    "rt-slot-request",
    "rt-slot-reply",
    "distance-probe",
    "distance-probe-reply",
    "distance-report",
    "nn-leafset-request",
    "nn-leafset-reply",
    "nn-row-request",
    "nn-row-reply",
    "lookup",
    "ack",
    "leaving",
];

/// Run-loop event kinds of `obs::ProfReport`, with the metric stem each is
/// reported under.
pub const DISPATCH_KINDS: [(&str, &str); 5] = [
    ("msg", "msg"),
    ("timer", "timer"),
    ("next-lookup", "next_lookup"),
    ("join", "join"),
    ("fail", "fail"),
];

/// The Gnutella trace of `w`: the generator, seed and population of the
/// quick-scale `fig4_traces` scenario at seed index 0 (about 200 nodes),
/// cut to 1 hour for `sim_churn` and to 10 minutes for `sim_lookups`,
/// which issues 50x the lookups; both follow the 15-minute warm-up. One
/// run then takes 1 to 1.5 s, so a 30-second window holds about twenty.
/// The smoke self-test shortens both to one hour at 3% population. The
/// trace is the same for every benchmark seed, so seeds change node
/// identifiers, keys and network randomness but not the amount of churn.
fn trace_params(w: Workload, smoke: bool) -> GnutellaParams {
    let minutes = match w {
        _ if smoke => 60,
        Workload::SimLookups => 10,
        _ => 60,
    };
    GnutellaParams {
        population_scale: if smoke { 0.03 } else { 0.1 },
        duration_us: minutes * MIN,
        ..GnutellaParams::default()
    }
}

/// The run configuration of `w` around `trace`. `sim_churn` is the §5.1
/// reference (the first point of `fig4_traces`) on a shorter trace;
/// `sim_lookups` moves it to paper-scale GATech with loss and 50x the
/// lookup rate.
pub fn run_config(w: Workload, trace: Trace, idx: u64) -> RunConfig {
    let mut cfg = base_config(Scale::Quick, trace);
    cfg.seed += idx * SEED_RUN_STRIDE;
    if w == Workload::SimLookups {
        cfg.topology = TopologyKind::GaTech;
        cfg.network_loss_rate = 0.03;
        cfg.workload = harness::Workload::Poisson {
            rate_per_node_per_sec: 0.5,
        };
    }
    cfg
}

fn topology_kind(w: Workload) -> TopologyKind {
    match w {
        Workload::SimLookups => TopologyKind::GaTech,
        _ => TopologyKind::GaTechSmall,
    }
}

/// Counts that must repeat exactly for one configuration, however it is
/// timed or profiled.
fn deterministic_counts(r: &RunResult) -> Vec<(String, u64)> {
    let rep = &r.report;
    let mut c = vec![
        ("sim_events".to_string(), r.sim_events),
        ("report.issued".to_string(), rep.issued),
        ("report.delivered".to_string(), rep.delivered),
        ("report.lost".to_string(), rep.lost),
        ("report.incorrect".to_string(), rep.incorrect),
        ("report.censored".to_string(), rep.censored),
        ("report.duplicates".to_string(), rep.duplicates),
        ("final_active".to_string(), r.final_active as u64),
        ("ring_defects".to_string(), r.ring_defects),
    ];
    for (kind, n) in &rep.fine_counts {
        c.push((format!("sent.{kind}"), *n));
    }
    for (name, v) in &r.diag.counters {
        c.push((format!("diag.{name}"), *v));
    }
    c.sort();
    c
}

/// Interpolated quantile of a log-bucketed histogram, in the histogram's
/// unit: linear within the bucket that holds the `q`-th sample.
fn hist_quantile(h: &obs::HistSnapshot, q: f64) -> f64 {
    let target = q * h.count as f64;
    let max = h.max.unwrap_or(0);
    let mut seen = 0.0;
    for &(lo, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= target && n > 0.0 {
            let hi = obs::hist::bucket_lower_bound(obs::hist::bucket_index(lo) + 1).min(max + 1);
            return lo as f64 + (target - seen) / n * (hi - lo) as f64;
        }
        seen += n;
    }
    max as f64
}

/// Seed runs per invocation. The benchmark seed picks `seed_runs`
/// consecutive scenario seed indices; every end-to-end and per-layer
/// figure pools one run of each, so a figure averages over that many
/// seeds (the heavy tail of per-lookup RDP needs it on `sim_churn`).
fn seed_runs(w: Workload, smoke: bool) -> u64 {
    match w {
        _ if smoke => 2,
        Workload::SimChurn => 8,
        _ => 12,
    }
}

/// Runs one simulator workload: a warm-up run, then a first pass over the
/// seed runs, then further passes while another run fits in `seconds` of
/// wall time. Each run is followed by a timing of the reference workload.
/// `run_s` is the median wall time of every run after the warm-up,
/// normalized by the reference's median; each repeat of a seed run must
/// reproduce its first-pass counts exactly.
pub fn run(w: Workload, idx: u64, seconds: f64, traced: bool, smoke: bool) -> Sample {
    let params = trace_params(w, smoke);
    let mut trace_s = Vec::new();
    let mut topo_s = Vec::new();
    let mut trace = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let t = churn::gnutella::trace(&params);
        let t1 = Instant::now();
        let topo = Topology::build(topology_kind(w));
        let t2 = Instant::now();
        std::hint::black_box(&topo);
        trace_s.push((t1 - t0).as_secs_f64());
        topo_s.push((t2 - t1).as_secs_f64());
        trace = Some(t);
    }
    let setup: Vec<f64> = trace_s.iter().zip(&topo_s).map(|(a, b)| a + b).collect();
    let trace = trace.expect("SETUP_REPS > 0");
    let k = seed_runs(w, smoke);
    let cfgs: Vec<RunConfig> = (0..k)
        .map(|j| {
            let mut cfg = run_config(w, trace.clone(), idx * k + j);
            cfg.profile = traced;
            cfg
        })
        .collect();

    let mut s = Sample::default();
    let reference = Reference::new();
    let start = Instant::now();
    let warm = harness::run(cfgs[0].clone());
    reference.time();
    // The peak of one run: the repeats must not change it.
    s.metric("peak_rss_mb", peak_rss_mb());
    let mut pass: Vec<RunResult> = Vec::new();
    let mut run_s = Vec::new();
    let mut ref_s = Vec::new();
    loop {
        let j = run_s.len() % cfgs.len();
        let t0 = Instant::now();
        let r = harness::run(cfgs[j].clone());
        let dt = t0.elapsed().as_secs_f64();
        run_s.push(dt);
        ref_s.push(reference.time());
        // A later pass repeats the first; the first run repeats the warm-up.
        let earlier = pass.get(j).or((j == 0).then_some(&warm));
        if earlier.is_some_and(|f| deterministic_counts(f) != deterministic_counts(&r)) {
            s.fail("repeated runs of one configuration disagree on deterministic counts");
        }
        if j == pass.len() {
            pass.push(r);
        }
        let next = dt + ref_s[ref_s.len() - 1];
        if pass.len() == cfgs.len() && start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }
    let run_wall = median(&run_s);
    let ref_wall = median(&ref_s);
    let run_norm = run_wall * reference::NOMINAL_S / ref_wall;
    let runs = pass.len() as f64;
    let sum = |f: &dyn Fn(&RunResult) -> f64| pass.iter().map(f).sum::<f64>();

    let delivered = sum(&|r| r.report.delivered as f64);
    let incorrect = sum(&|r| r.report.incorrect as f64);
    let lost = sum(&|r| r.report.lost as f64);
    let issued = sum(&|r| r.report.issued as f64).max(1.0);
    let node_seconds = sum(&|r| r.report.node_seconds);
    let control_msgs = sum(&|r| r.report.control_msgs_per_node_per_sec * r.report.node_seconds);
    let sim_events = sum(&|r| r.sim_events as f64);
    let mut diag = obs::Snapshot::default();
    for r in &pass {
        diag.merge(&r.diag);
    }

    s.attempted = (delivered + lost) as u64;
    s.failed = (lost + incorrect) as u64;
    if w == Workload::SimChurn && incorrect != 0.0 {
        s.fail(&format!(
            "sim_churn has no network loss, yet {incorrect} lookups were delivered at a wrong root"
        ));
    }
    if s.attempted == 0 {
        s.fail("no lookup completed");
    }
    s.counts = pass
        .iter()
        .enumerate()
        .flat_map(|(j, r)| {
            deterministic_counts(r)
                .into_iter()
                .map(move |(n, v)| (format!("r{j}.{n}"), v))
        })
        .collect();

    let lat = diag.histogram("lookup.latency_us");
    let lat_q = |q| lat.map_or(f64::NAN, |h| hist_quantile(h, q) / 1e3);
    s.metric("setup_s", median(&setup));
    s.metric("run_s", run_norm);
    s.metric(
        "lookup_success_rate",
        (delivered - incorrect) / (delivered + lost).max(1.0),
    );
    // Delivery-weighted, as the mean over every lookup of the pooled runs.
    s.metric(
        "mean_rdp",
        sum(&|r| r.report.mean_rdp * r.report.delivered as f64) / delivered.max(1.0),
    );
    s.metric("control_msgs_per_node_s", control_msgs / node_seconds);
    s.metric("lookup_p50_ms", lat_q(0.5));
    s.metric("lookup_p90_ms", lat_q(0.9));
    s.metric("lookups_per_s", delivered / runs / run_norm);

    // Per-layer: protocol counts (deterministic, so identical in both runs).
    for kind in MESSAGE_KINDS {
        let n = sum(&|r| {
            r.report
                .fine_counts
                .iter()
                .find(|(k, _)| *k == kind)
                .map_or(0.0, |(_, n)| *n as f64)
        });
        s.metric(&format!("sent.{kind}"), n);
    }
    s.metric(
        "lookup.final_retx",
        diag.counter("lookup.final-retx") as f64,
    );
    s.metric("lookup.reroutes", diag.counter("lookup.reroutes") as f64);
    for name in mspastry::diag::PROBE_CAUSE_COUNTERS {
        s.metric(name, diag.counter(name) as f64);
    }
    let retx = diag.histogram("node.retx_attempt").map_or(0, |h| h.count);
    s.metric("retx_per_lookup", retx as f64 / issued);
    s.metric("control_msgs_per_lookup", control_msgs / issued);
    s.metric("sim_events", sim_events);
    s.metric("events_per_s", sim_events / runs / run_wall);
    s.metric("run_wall_s", run_wall);
    s.metric("ref_wall_s", ref_wall);
    s.metric("net.delivered", diag.counter("net.delivered") as f64);
    s.metric("net.lost_random", diag.counter("net.lost.random") as f64);
    s.metric("topology.build_s", median(&topo_s));
    s.metric("churn.trace_build_s", median(&trace_s));

    // Per-layer: the run-loop profile (traced run only), pooled like the
    // counts: times and event counts summed, queue depth weighted by its
    // samples.
    let profs: Vec<&obs::ProfReport> = pass.iter().filter_map(|r| r.prof.as_ref()).collect();
    if !profs.is_empty() {
        let psum = |f: &dyn Fn(&obs::ProfReport) -> f64| profs.iter().map(|p| f(p)).sum::<f64>();
        let kind_sum = |kind: &str, f: &dyn Fn(&obs::KindStat) -> u64| {
            psum(&|p| {
                p.kinds
                    .iter()
                    .filter(|k| k.name == kind)
                    .map(f)
                    .sum::<u64>() as f64
            })
        };
        for (kind, stem) in DISPATCH_KINDS {
            let count = kind_sum(kind, &|k| k.count);
            let ns = kind_sum(kind, &|k| k.ns);
            s.metric(&format!("dispatch.{stem}.count"), count);
            s.metric(
                &format!("dispatch.{stem}.ns_per_event"),
                if count > 0.0 { ns / count } else { 0.0 },
            );
        }
        let wall_ns = psum(&|p| p.wall_us as f64 * 1e3);
        let kinds_ns = psum(&|p| p.kinds.iter().map(|k| k.ns).sum::<u64>() as f64);
        let pop_ns = psum(&|p| p.pop_ns as f64);
        let depth_samples = psum(&|p| p.depth_samples as f64);
        s.metric(
            "dispatch.unattributed_share",
            (wall_ns - kinds_ns - pop_ns) / wall_ns,
        );
        s.metric(
            "queue.pop_ns_per_event",
            pop_ns / psum(&|p| p.events as f64).max(1.0),
        );
        s.metric(
            "queue.depth_mean",
            psum(&|p| p.depth_mean * p.depth_samples as f64) / depth_samples.max(1.0),
        );
        s.metric(
            "queue.depth_max",
            profs.iter().map(|p| p.depth_max).max().unwrap_or(0) as f64,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_churn_is_the_first_fig4_point_on_a_shorter_trace() {
        let fig4 = |idx| {
            (harness::Registry::builtin()
                .get("fig4_traces")
                .expect("registered scenario")
                .expand(Scale::Quick)[0]
                .build)(idx)
        };
        let trace = || churn::gnutella::trace(&trace_params(Workload::SimChurn, false));
        let reference = fig4(0);
        let ours = run_config(Workload::SimChurn, trace(), 0);
        assert_eq!(ours.seed, reference.seed);
        // The same generator parameters, but for the trace horizon.
        let full = GnutellaParams {
            duration_us: reference.trace.duration_us(),
            ..trace_params(Workload::SimChurn, false)
        };
        assert_eq!(
            churn::gnutella::trace(&full).sessions(),
            reference.trace.sessions()
        );
        assert_eq!(ours.trace.duration_us(), 60 * MIN);
        assert_eq!(ours.topology, reference.topology);
        assert_eq!(ours.protocol, reference.protocol);
        assert_eq!(ours.network_loss_rate, reference.network_loss_rate);
        assert_eq!(ours.warmup_us, reference.warmup_us);
        // Other seeds keep the trace and take the scenario's run seed.
        assert_eq!(
            run_config(Workload::SimChurn, trace(), 3).seed,
            fig4(3).seed
        );
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = obs::hist::Histogram::new();
        for v in [100, 100, 110, 120, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = hist_quantile(&s, 0.5);
        assert!((96.0..=128.0).contains(&p50), "{p50}");
        assert!(hist_quantile(&s, 1.0) <= 5001.0);
    }
}
