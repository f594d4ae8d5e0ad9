//! End-to-end simulator throughput on the Gnutella-trace reference workload.
//!
//! Runs the §5.1 base configuration (Gnutella-like churn on the GATech
//! topology) a few times and reports the best events/sec plus the process
//! peak RSS. Results land in `BENCH_throughput.json` at the repository root:
//!
//! * normal runs update the `current` entry and the derived `speedup`;
//! * `MSPASTRY_BENCH_BASELINE=1` (re)records the `baseline` entry instead —
//!   used once, on the pre-optimization tree, so later runs compare against
//!   a fixed reference measured by the same harness on the same machine.
//!
//! `MSPASTRY_SCALE=full` runs the paper-scale trace (hours of wall time).
//! `MSPASTRY_BENCH_RUNS=n` overrides the number of runs (default 3) — handy
//! for interleaved A/B comparisons on hosts with drifting clock speed.
//! `MSPASTRY_TRACE_RATE=r` enables hop-trace sampling at rate `r` to measure
//! the flight-recorder overhead; results are printed but *not* written to
//! `BENCH_throughput.json` (the reference file tracks the untraced path).

use bench::{scale, Scale};

fn runs() -> usize {
    std::env::var("MSPASTRY_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Peak resident set size of this process, in kB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Pulls `"key": { ... }` out of a flat hand-rolled JSON object.
fn extract_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": {{");
    let start = json.find(&needle)? + needle.len() - 1;
    let end = json[start..].find('}')? + start;
    Some(&json[start..=end])
}

fn extract_number(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = obj[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Measurement {
    events_per_sec: f64,
    wall_s: f64,
    sim_events: u64,
    peak_rss_mb: f64,
}

fn entry_json(m: &Measurement) -> String {
    format!(
        "{{ \"events_per_sec\": {:.0}, \"wall_s\": {:.2}, \"sim_events\": {}, \"peak_rss_mb\": {:.1} }}",
        m.events_per_sec, m.wall_s, m.sim_events, m.peak_rss_mb
    )
}

fn main() {
    let s = scale();
    println!(
        "sim_throughput: simulator events/sec, Gnutella reference workload ({} scale)",
        s.name()
    );

    let trace_rate: f64 = std::env::var("MSPASTRY_TRACE_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if trace_rate > 0.0 {
        println!("hop-trace sampling at {trace_rate} (overhead measurement)");
    }

    // The §5.1 Gnutella/GATech reference configuration is the first point of
    // the fig4 scenario.
    let points = bench::scenarios()
        .get("fig4_traces")
        .expect("registered scenario")
        .expand(s);
    let mut best: Option<Measurement> = None;
    for run in 0..runs() {
        let mut cfg = (points[0].build)(0);
        cfg.trace_sample_rate = trace_rate;
        let t0 = std::time::Instant::now();
        let res = harness::run(cfg);
        let wall = t0.elapsed().as_secs_f64();
        let eps = res.sim_events as f64 / wall;
        println!(
            "run {}: {:.1}s wall, {} events, {:.0} events/sec",
            run + 1,
            wall,
            res.sim_events,
            eps
        );
        if best.as_ref().is_none_or(|b| eps > b.events_per_sec) {
            best = Some(Measurement {
                events_per_sec: eps,
                wall_s: wall,
                sim_events: res.sim_events,
                peak_rss_mb: peak_rss_kb() as f64 / 1024.0,
            });
        }
    }
    let mut m = best.expect("at least one run");
    // VmHWM only grows; attribute the final peak to the best run.
    m.peak_rss_mb = peak_rss_kb() as f64 / 1024.0;

    if trace_rate > 0.0 {
        println!(
            "best (traced at {trace_rate}): {:.0} events/sec, peak RSS {:.1} MB",
            m.events_per_sec, m.peak_rss_mb
        );
        return;
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let record_baseline = std::env::var("MSPASTRY_BENCH_BASELINE").is_ok();
    let baseline = if record_baseline {
        entry_json(&m)
    } else {
        extract_object(&existing, "baseline")
            .map(str::to_string)
            .unwrap_or_else(|| entry_json(&m))
    };
    let current = entry_json(&m);
    let baseline_eps = extract_number(&baseline, "events_per_sec").unwrap_or(m.events_per_sec);
    let speedup = m.events_per_sec / baseline_eps.max(1.0);

    let json = format!(
        "{{\n  \"workload\": \"gnutella {} / GATech ({:?} scale)\",\n  \"baseline\": {},\n  \"current\": {},\n  \"speedup\": {:.2}\n}}\n",
        if s == Scale::Full { "full" } else { "quick" },
        s,
        baseline,
        current,
        speedup
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
    }
    println!(
        "best: {:.0} events/sec, peak RSS {:.1} MB ({}x vs baseline {:.0})",
        m.events_per_sec,
        m.peak_rss_mb,
        format_args!("{speedup:.2}"),
        baseline_eps
    );
}
