//! The simulator is a measurement instrument: every figure in the paper
//! reproduction depends on runs being exactly repeatable. This test pins the
//! property end to end — same `RunConfig`, same seed, twice, field-for-field
//! identical `Report`s — so hot-path changes (event queue, hashing, buffer
//! reuse) cannot silently perturb event order.

use churn::poisson::{self, PoissonParams};
use harness::{run, RunConfig, Workload};
use topology::TopologyKind;

const MIN: u64 = 60 * 1_000_000;

fn cfg(seed: u64) -> RunConfig {
    let trace = poisson::trace(&PoissonParams {
        mean_nodes: 60.0,
        mean_session_us: 30.0 * 60e6,
        duration_us: 25 * MIN,
        seed,
    });
    let mut cfg = RunConfig::new(trace);
    cfg.topology = TopologyKind::GaTechTiny;
    cfg.warmup_us = 8 * MIN;
    cfg.metrics_window_us = 5 * MIN;
    cfg.network_loss_rate = 0.02; // exercise drop/retransmit paths too
    cfg.seed = seed;
    cfg
}

#[test]
fn identical_configs_produce_identical_reports() {
    for seed in [3, 17] {
        let a = run(cfg(seed));
        let b = run(cfg(seed));
        assert!(
            a.report.issued > 100,
            "workload too small to be meaningful: issued {}",
            a.report.issued
        );
        assert_eq!(a.report, b.report, "seed {seed}: reports diverged");
        assert_eq!(
            a.deliveries.len(),
            b.deliveries.len(),
            "seed {seed}: delivery records diverged"
        );
    }
}

/// The observability layer is part of the instrument: the diagnostic
/// registry snapshot, the full hop-trace event stream (serialised to the
/// JSONL wire format, byte for byte), and the run artifact JSON must all be
/// identical across repeated runs — tracing must not perturb the simulation,
/// and the artifacts themselves must be reproducible.
#[test]
fn trace_and_artifacts_are_bit_identical_across_runs() {
    let with_trace = |seed| {
        let mut c = cfg(seed);
        c.trace_sample_rate = 1.0;
        c
    };
    let a = run(with_trace(5));
    let b = run(with_trace(5));
    assert!(
        a.trace_events.len() > 500,
        "trace too small to be meaningful: {} events",
        a.trace_events.len()
    );
    assert_eq!(a.diag, b.diag, "registry snapshots diverged");
    assert_eq!(
        obs::trace_jsonl(&a.trace_events),
        obs::trace_jsonl(&b.trace_events),
        "hop-trace JSONL streams diverged"
    );
    assert_eq!(a.trace_overwritten, b.trace_overwritten);
    assert_eq!(
        harness::run_json(&a),
        harness::run_json(&b),
        "run artifacts diverged"
    );

    // Tracing must be an observer: the same run without tracing produces the
    // same Report.
    let untraced = run(cfg(5));
    assert_eq!(
        a.report, untraced.report,
        "tracing perturbed the simulation"
    );
}

/// The registry holds each lookup outcome once: the outcome histograms
/// record the first delivery of each tracked lookup and nothing else, so
/// duplicate deliveries (rerouted or retransmitted copies) leave them alone.
#[test]
fn lookup_outcomes_are_recorded_once_per_delivered_lookup() {
    let mut c = cfg(3);
    // Heavy loss: some acks of a delivered lookup are lost often enough in
    // a row that the lookup is rerouted and delivered again.
    c.network_loss_rate = 0.12;
    c.workload = Workload::Poisson {
        rate_per_node_per_sec: 0.2,
    };
    let res = run(c);
    let r = &res.report;
    assert!(r.duplicates > 0, "no duplicate deliveries to leave out");
    let hist = |name: &str| res.diag.histogram(name).expect(name);
    assert_eq!(hist("lookup.latency_us").count, r.delivered);
    let hops = hist("lookup.hops");
    assert_eq!(hops.count, r.delivered);
    assert_eq!(hops.sum as f64 / r.delivered as f64, r.mean_hops);
    let rdp = hist("lookup.rdp_milli");
    assert!(rdp.count > 0 && rdp.count <= r.delivered);
    assert_eq!(rdp.sum as f64 / rdp.count as f64 / 1000.0, r.mean_rdp);
    assert_eq!(res.diag.counter("lookup.slow"), r.slow_deliveries);
}

/// The self-profiler must be a pure observer: with `--profile` on, the hop
/// trace, the registry and the `mspastry-run/1` artifact — minus the
/// profile-only `prof` member — are bit-identical to a run without it. The
/// time series is cut from the metrics-window snapshots: the warm-up
/// window, then one window per report window, whose deltas sum back to the
/// end-of-run registry and whose RDP the report repeats; and it is
/// byte-identical across repeated runs.
#[test]
fn telemetry_is_a_pure_observer() {
    let traced = |profile| {
        let mut c = cfg(9);
        c.trace_sample_rate = 1.0;
        c.profile = profile;
        run(c)
    };
    let plain = traced(false);
    let telem = traced(true);

    // Strip the profile; everything else must match byte for byte,
    // including the hop-trace stream.
    let mut stripped = telem.clone();
    stripped.prof = None;
    assert_eq!(
        harness::run_json(&stripped),
        harness::run_json(&plain),
        "profiling perturbed the run artifact"
    );
    assert_eq!(
        obs::trace_jsonl(&telem.trace_events),
        obs::trace_jsonl(&plain.trace_events),
        "profiling perturbed the hop trace"
    );
    assert_eq!(telem.diag, plain.diag, "profiling perturbed the registry");

    let c = cfg(9);
    let (ts, r) = (&telem.timeseries, &telem.report);
    assert!(r.windows.len() > 3, "series too small to be meaningful");
    assert_eq!(ts.len(), r.windows.len() + 1);
    assert_eq!((ts[0].start_us, ts[0].end_us), (0, c.warmup_us));
    for (w, rw) in ts[1..].iter().zip(&r.windows) {
        assert_eq!(w.start_us, rw.start_us);
        let rdp = w
            .histograms
            .iter()
            .find(|(name, _, _)| name == "lookup.rdp_milli")
            .map_or(0.0, |&(_, count, sum)| sum as f64 / count as f64 / 1000.0);
        assert_eq!(rdp, rw.rdp, "window at {} us", w.start_us);
    }
    for (name, total) in &telem.diag.counters {
        let sum: u64 = ts
            .iter()
            .flat_map(|w| &w.counters)
            .filter(|(n, _)| n == name)
            .map(|(_, d)| d)
            .sum();
        assert_eq!(sum, *total, "counter {name}");
    }
    assert_eq!(
        obs::ts_jsonl(c.metrics_window_us, ts),
        obs::ts_jsonl(c.metrics_window_us, &plain.timeseries),
        "time-series artifacts diverged"
    );
}
