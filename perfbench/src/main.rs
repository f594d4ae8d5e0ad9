//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim_churn|sim_lookups|udp_cluster|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each measurement runs in a child process of its own (this binary with
//! `--child`), under a wall-clock bound, so a hang or crash cannot take
//! other workloads' numbers with it and `peak_rss_mb` belongs to one
//! workload. `--trace 0` runs the workload once, untraced, and reports the
//! end-to-end metrics; `--trace 1` runs it untraced and then traced (the
//! simulator's run-loop profiler; for UDP, the end-of-run `/metrics`
//! breakdown and codec timing) and reports the per-layer metrics, with the
//! traced run's extra wall time as `trace_overhead_share`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` beside this crate.

mod reference;
mod sim;
mod udp;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Wall-clock bound on one whole invocation; the benchmark must exit
/// within 180 s.
const DEADLINE: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimChurn,
    SimLookups,
    UdpCluster,
}

const WORKLOADS: [Workload; 3] = [
    Workload::SimChurn,
    Workload::SimLookups,
    Workload::UdpCluster,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SimChurn => "sim_churn",
            Workload::SimLookups => "sim_lookups",
            Workload::UdpCluster => "udp_cluster",
        }
    }

    fn is_sim(self) -> bool {
        self != Workload::UdpCluster
    }
}

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// (see README.md for each one's definition per workload).
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lookup_success_rate", "ratio"),
    ("mean_rdp", "ratio"),
    ("control_msgs_per_node_s", "1/s"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p90_ms", "ms"),
    ("lookups_per_s", "1/s"),
];

/// The layer a per-layer metric belongs to; it decides which workloads
/// exercise it.
#[derive(Clone, Copy, PartialEq)]
enum Layer {
    /// Simulator layers: harness, netsim, mspastry, topology, churn.
    Sim,
    /// `transport` and the envelope codec.
    Udp,
    /// Tracing itself.
    Obs,
}

/// Per-layer metrics other than `sent.<kind>` and `probe.cause.*` (which
/// are generated from the protocol's lists): `(name, unit, layer)`.
const PER_LAYER: [(&str, &str, Layer); 33] = [
    ("dispatch.msg.count", "count", Layer::Sim),
    ("dispatch.msg.ns_per_event", "ns", Layer::Sim),
    ("dispatch.timer.count", "count", Layer::Sim),
    ("dispatch.timer.ns_per_event", "ns", Layer::Sim),
    ("dispatch.next_lookup.count", "count", Layer::Sim),
    ("dispatch.next_lookup.ns_per_event", "ns", Layer::Sim),
    ("dispatch.join.count", "count", Layer::Sim),
    ("dispatch.join.ns_per_event", "ns", Layer::Sim),
    ("dispatch.fail.count", "count", Layer::Sim),
    ("dispatch.fail.ns_per_event", "ns", Layer::Sim),
    ("dispatch.unattributed_share", "ratio", Layer::Sim),
    ("queue.pop_ns_per_event", "ns", Layer::Sim),
    ("queue.depth_mean", "count", Layer::Sim),
    ("queue.depth_max", "count", Layer::Sim),
    ("net.delivered", "count", Layer::Sim),
    ("net.lost_random", "count", Layer::Sim),
    ("lookup.final_retx", "count", Layer::Sim),
    ("lookup.reroutes", "count", Layer::Sim),
    ("retx_per_lookup", "ratio", Layer::Sim),
    ("control_msgs_per_lookup", "ratio", Layer::Sim),
    ("sim_events", "count", Layer::Sim),
    ("events_per_s", "1/s", Layer::Sim),
    ("run_wall_s", "s", Layer::Sim),
    ("ref_wall_s", "s", Layer::Sim),
    ("topology.build_s", "s", Layer::Sim),
    ("churn.trace_build_s", "s", Layer::Sim),
    ("udp.join_ms", "ms", Layer::Udp),
    ("udp.lookup_p50_0hop_ms", "ms", Layer::Udp),
    ("udp.lookup_p50_1hop_ms", "ms", Layer::Udp),
    ("udp.lookup_p99_ms", "ms", Layer::Udp),
    ("udp.datagrams_tx_per_lookup", "count", Layer::Udp),
    ("udp.bytes_tx_per_lookup", "B", Layer::Udp),
    ("udp.decode_errors", "count", Layer::Udp),
];

/// Every per-layer metric, in report order.
fn per_layer() -> Vec<(String, &'static str, Layer)> {
    let mut v: Vec<_> = PER_LAYER
        .iter()
        .map(|&(n, u, l)| (n.to_string(), u, l))
        .collect();
    v.extend(
        sim::MESSAGE_KINDS
            .iter()
            .map(|k| (format!("sent.{k}"), "count", Layer::Sim)),
    );
    v.extend(
        mspastry::diag::PROBE_CAUSE_COUNTERS
            .iter()
            .map(|n| (n.to_string(), "count", Layer::Sim)),
    );
    v.push(("codec.encode_ns".into(), "ns", Layer::Udp));
    v.push(("codec.decode_ns".into(), "ns", Layer::Udp));
    v.push(("trace_overhead_share".into(), "ratio", Layer::Obs));
    v
}

/// What one child run measured.
#[derive(Debug, Default)]
pub struct Sample {
    pub attempted: u64,
    pub failed: u64,
    /// Broken correctness checks, one message each.
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Counts that must repeat exactly between the untraced and traced run.
    pub counts: Vec<(String, u64)>,
}

impl Sample {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn fail(&mut self, msg: &str) {
        self.errors.push(msg.to_string());
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// The child's line protocol on standard output.
    fn emit(&self) {
        println!("attempted {}", self.attempted);
        println!("failed {}", self.failed);
        for e in &self.errors {
            println!("error {}", e.replace('\n', " "));
        }
        for (n, v) in &self.metrics {
            println!("metric {n} {v}");
        }
        for (n, v) in &self.counts {
            println!("count {n} {v}");
        }
    }

    fn parse(text: &str) -> Result<Sample, String> {
        let mut s = Sample::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("unreadable child line: {line}");
            let pair = || rest.rsplit_once(' ').ok_or_else(bad);
            match tag {
                "attempted" => s.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => s.failed = rest.parse().map_err(|_| bad())?,
                "error" => s.errors.push(rest.to_string()),
                "metric" => {
                    let (n, v) = pair()?;
                    s.metrics.push((n.into(), v.parse().map_err(|_| bad())?));
                }
                "count" => {
                    let (n, v) = pair()?;
                    s.counts.push((n.into(), v.parse().map_err(|_| bad())?));
                }
                _ => return Err(bad()),
            }
        }
        Ok(s)
    }
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// Linear-interpolated quantile of `v` (NaN when empty); sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// Peak resident set size of this process so far, in MB (`VmHWM`); NaN
/// where procfs is unavailable, which the parent reports as a failed check.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 0,
        trace: false,
        smoke: false,
        child: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" {
        a.workload = Some(
            WORKLOADS
                .into_iter()
                .find(|w| w.name() == workload)
                .ok_or(format!("unknown workload {workload}"))?,
        );
    }
    if a.seconds == 0 || a.seconds > 120 {
        return Err("--seconds must be 1..=120".into());
    }
    Ok(a)
}

/// Child mode: one measurement, reported in the line protocol.
fn child(a: &Args) -> Result<(), String> {
    let w = a.workload.ok_or("a child runs one workload")?;
    // Scenario seed indices scale the seed by up to 1e5; keep them in range.
    let idx = a.seed % 1_000_000;
    let s = match w {
        Workload::UdpCluster => udp::run(a.seed, a.seconds as f64, a.trace)?,
        _ => sim::run(w, idx, a.seconds as f64, a.trace, a.smoke),
    };
    s.emit();
    Ok(())
}

/// Runs one child measurement, killing it if it outlives `deadline`.
fn run_child(a: &Args, w: Workload, traced: bool, deadline: Instant) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let mut out = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        out.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        if let Some(st) = proc.try_wait().map_err(|e| format!("wait child: {e}"))? {
            break Some(st);
        }
        if Instant::now() >= deadline {
            let _ = proc.kill();
            let _ = proc.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = reader
        .join()
        .map_err(|_| "child reader panicked")?
        .map_err(|e| format!("read child: {e}"))?;
    match status {
        None => Err(format!("{} run exceeded its time bound", w.name())),
        Some(st) if !st.success() => Err(format!("{} run failed: {st}", w.name())),
        Some(_) => Sample::parse(&text),
    }
}

/// Measures one workload; returns the result object and whether every
/// correctness check passed.
fn measure(a: &Args, w: Workload, deadline: Instant) -> Result<(String, bool), String> {
    let base = run_child(a, w, false, deadline)?;
    let mut errors = base.errors.clone();
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if a.trace {
        let traced = run_child(a, w, true, deadline)?;
        errors.extend(traced.errors.iter().cloned());
        if w.is_sim() && traced.counts != base.counts {
            errors.push("traced and untraced runs disagree on deterministic counts".into());
        }
        let run_s = |s: &Sample| s.get("run_s").unwrap_or(f64::NAN);
        for (name, unit, layer) in per_layer() {
            let value = match layer {
                Layer::Obs => run_s(&traced) / run_s(&base) - 1.0,
                Layer::Sim if !w.is_sim() => 0.0,
                Layer::Udp if w.is_sim() => 0.0,
                _ => traced
                    .get(&name)
                    .ok_or(format!("{} did not report {name}", w.name()))?,
            };
            metrics.push((name, unit, value));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = base
                .get(name)
                .ok_or(format!("{} did not report {name}", w.name()))?;
            metrics.push((name.to_string(), unit, v));
        }
    }
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            errors.push(format!("{name} is not finite"));
        }
    }
    for e in &errors {
        eprintln!("perfbench: {}: check failed: {e}", w.name());
    }
    let correct = errors.is_empty();
    let mut j = obs::JsonWriter::new();
    j.begin_object();
    j.key("correct").bool(correct);
    j.field_u64("attempted", base.attempted);
    j.field_u64("failed", base.failed);
    j.key("metrics").begin_object();
    for (name, unit, v) in &metrics {
        j.key(name).begin_object();
        j.field_f64("value", if v.is_finite() { *v } else { 0.0 });
        j.field_str("unit", unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    Ok((j.finish(), correct))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.child {
        return match child(&a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workloads: Vec<Workload> = match a.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    for w in workloads {
        // With `--workload all`, each workload gets its own full bound.
        let deadline = Instant::now() + DEADLINE;
        match measure(&a, w, deadline) {
            Ok((json, correct)) => {
                ok &= correct;
                println!("{json}");
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
