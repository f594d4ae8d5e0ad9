//! Command-line experiment runner: simulate an MSPastry overlay under a
//! configurable trace, topology, workload and protocol configuration, and
//! print the paper's metrics.
//!
//! ```text
//! USAGE: mspastry-sim [OPTIONS]
//!
//! Scenario mode (run a registered experiment, optionally multi-seed):
//!   --list-scenarios    list the registered scenarios and exit
//!   --scenario NAME     run a registered scenario as a sweep
//!   --seeds N           independent seeds per scenario point       [1]
//!   --jobs N            worker threads (0 = all cores)             [0]
//!   --progress          report sweep progress (runs done, ev/s, ETA)
//!   --json [PATH]       write the sweep artifact (and a CSV next to it)
//!                       [results/<scenario>.<scale>.s<seeds>.json]
//!
//! Ad-hoc mode (assemble a single run from flags):
//!   --churn NAME        gnutella | overnet | microsoft | poisson  [poisson]
//!   --nodes N           mean active nodes (poisson) / scale base  [200]
//!   --session MIN       mean session minutes (poisson)            [60]
//!   --hours H           trace duration, hours                     [2]
//!   --topology NAME     gatech | gatech-small | mercator | corpnet [gatech-small]
//!   --loss PCT          network loss rate, percent                [0]
//!   --lookups RATE      lookups per node per second               [0.01]
//!   --b N               digit width                               [4]
//!   --l N               leaf set size                             [32]
//!   --target-lr PCT     self-tuning raw-loss target, percent      [5]
//!   --seed N            RNG seed                                  [1]
//!   --no-acks           disable per-hop acks
//!   --no-probing        disable active routing-table probing
//!   --no-suppression    disable probe suppression
//!   --no-selftuning     disable self-tuning (fixed 30 s period)
//!   --windows           print the per-window time series
//!   --json PATH         write the run artifact (report + diagnostics) as JSON
//!   --trace RATE        hop-trace sampling rate in [0, 1]         [0]
//!   --trace-out PATH    hop-trace JSONL path  [<json path>.trace.jsonl]
//!   --trace-capacity N  hop-trace ring capacity, events           [65536]
//!   --timeseries PATH   write per-window metric deltas (mspastry-ts/1
//!                       JSONL: the warm-up, then each metrics window)
//!   --profile           self-profile the run loop (per-event-kind counts
//!                       and wall time; adds "prof" to the JSON artifact)
//! ```

use churn::poisson::PoissonParams;
use harness::sweep::METRIC_NAMES;
use harness::{
    run, run_sweep, sweep_csv, sweep_json, RunConfig, SweepConfig, Workload, CATEGORY_NAMES,
};
use topology::TopologyKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let flag = |name: &str| args.iter().any(|a| a == name);
    let parse_or = |name: &str, default: f64| -> f64 {
        get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}")))
            })
            .unwrap_or(default)
    };

    if flag("--list-scenarios") {
        let s = bench::scale();
        println!("{:<22} {:<12} title", "name", "figure");
        for sc in bench::scenarios().iter() {
            println!(
                "{:<22} {:<12} {} ({} points at this scale)",
                sc.name,
                sc.figure,
                sc.title,
                sc.expand(s).len()
            );
        }
        return;
    }
    if flag("--scenario") {
        check_flags(&args, "Scenario mode");
        let name = get("--scenario").expect("check_flags requires a value");
        run_scenario(&name, &args);
        return;
    }
    if flag("--seeds") || flag("--jobs") || flag("--progress") {
        die("--seeds/--jobs/--progress only apply to scenario sweeps; add --scenario NAME");
    }
    check_flags(&args, "Ad-hoc mode");

    let positive = |name: &str, default: f64| -> f64 {
        let v = parse_or(name, default);
        if !(v.is_finite() && v > 0.0) {
            die(&format!("bad value for {name}: {v} (must be > 0)"));
        }
        v
    };
    let hours = positive("--hours", 2.0);
    let duration_us = (hours * 3600e6) as u64;
    let nodes = positive("--nodes", 200.0);
    let session_min = positive("--session", 60.0);
    let seed = parse_or("--seed", 1.0) as u64;
    let loss_pct = parse_or("--loss", 0.0);
    if !(0.0..100.0).contains(&loss_pct) {
        die(&format!(
            "bad value for --loss: {loss_pct} (percent, in [0, 100))"
        ));
    }
    let rate = parse_or("--lookups", 0.01);
    if !(rate.is_finite() && rate >= 0.0) {
        die(&format!("bad value for --lookups: {rate} (must be >= 0)"));
    }

    let trace = match get("--churn").as_deref().unwrap_or("poisson") {
        "poisson" => churn::poisson::trace(&PoissonParams {
            mean_nodes: nodes,
            mean_session_us: session_min * 60e6,
            duration_us,
            seed: 404 + seed,
        }),
        "gnutella" => churn::gnutella::trace(&churn::gnutella::GnutellaParams {
            population_scale: nodes / 2000.0,
            duration_us,
            seed: 101 + seed,
        }),
        "overnet" => churn::overnet::trace(&churn::overnet::OvernetParams {
            population_scale: nodes / 450.0,
            duration_us,
            seed: 202 + seed,
        }),
        "microsoft" => churn::microsoft::trace(&churn::microsoft::MicrosoftParams {
            population_scale: nodes / 15_150.0,
            duration_us,
            seed: 303 + seed,
        }),
        other => die(&format!("unknown trace: {other}")),
    };

    let mut cfg = RunConfig::new(trace);
    cfg.topology = match get("--topology").as_deref().unwrap_or("gatech-small") {
        "gatech" => TopologyKind::GaTech,
        "gatech-small" => TopologyKind::GaTechSmall,
        "mercator" => TopologyKind::Mercator,
        "corpnet" => TopologyKind::CorpNet,
        other => die(&format!("unknown topology: {other}")),
    };
    cfg.network_loss_rate = loss_pct / 100.0;
    cfg.workload = if rate > 0.0 {
        Workload::Poisson {
            rate_per_node_per_sec: rate,
        }
    } else {
        Workload::None
    };
    cfg.seed = seed;
    cfg.protocol.b = parse_or("--b", 4.0) as u8;
    cfg.protocol.leaf_set_size = parse_or("--l", 32.0) as usize;
    cfg.protocol.target_raw_loss = parse_or("--target-lr", 5.0) / 100.0;
    cfg.protocol.per_hop_acks = !flag("--no-acks");
    cfg.protocol.active_rt_probing = !flag("--no-probing");
    cfg.protocol.probe_suppression = !flag("--no-suppression");
    cfg.protocol.self_tuning = !flag("--no-selftuning");
    if let Err(e) = cfg.protocol.validate() {
        die(&format!("invalid protocol parameters: {e}"));
    }

    let json_path = get("--json");
    let trace_rate = get("--trace")
        .map(|v| {
            v.parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r)).unwrap_or_else(|| {
                die(&format!(
                    "bad value for --trace: {v} (a sampling rate in [0, 1]; churn traces are selected with --churn)"
                ))
            })
        })
        .unwrap_or(0.0);
    cfg.trace_sample_rate = trace_rate;
    cfg.trace_capacity = parse_or("--trace-capacity", 65_536.0) as usize;
    let trace_out = get("--trace-out").or_else(|| {
        (trace_rate > 0.0)
            .then(|| json_path.as_deref().map(|p| format!("{p}.trace.jsonl")))
            .flatten()
    });
    let ts_path = get("--timeseries");
    cfg.profile = flag("--profile");

    let trace_capacity = cfg.trace_capacity;
    let window_us = cfg.metrics_window_us;
    eprintln!(
        "simulating {} on {:?} for {hours} h (seed {seed}) ...",
        cfg.trace.name(),
        cfg.topology
    );
    let t0 = std::time::Instant::now();
    let res = run(cfg);
    let r = &res.report;
    eprintln!(
        "done in {:.1}s ({} events)",
        t0.elapsed().as_secs_f64(),
        res.sim_events
    );

    println!("active nodes at end      : {}", res.final_active);
    println!("lookups issued           : {}", r.issued);
    println!("delivered / lost         : {} / {}", r.delivered, r.lost);
    println!("incorrect delivery rate  : {:.2e}", r.incorrect_rate);
    println!("lookup loss rate         : {:.2e}", r.loss_rate);
    println!("mean RDP                 : {:.2}", r.mean_rdp);
    println!("mean hops                : {:.2}", r.mean_hops);
    println!(
        "control traffic          : {:.3} msg/s/node",
        r.control_msgs_per_node_per_sec
    );
    for (i, name) in CATEGORY_NAMES.iter().enumerate() {
        println!("  {:>18}: {:.4}", name, r.totals_per_node_per_sec[i]);
    }
    println!(
        "wire bandwidth           : {:.1} bytes/s/node",
        r.bytes_per_node_per_sec
    );
    println!("mean adopted Trt         : {:.1} s", res.mean_t_rt_us / 1e6);
    println!("ring defects at end      : {}", res.ring_defects);
    if let (Some(p50), Some(p95)) = (r.join_latency_quantile(0.5), r.join_latency_quantile(0.95)) {
        println!(
            "join latency p50 / p95   : {:.1} s / {:.1} s",
            p50 as f64 / 1e6,
            p95 as f64 / 1e6
        );
    }
    if flag("--windows") {
        println!();
        println!(
            "{:>10} | {:>6} | {:>9} | {:>8}",
            "t (min)", "RDP", "ctl/s/n", "active"
        );
        for w in &r.windows {
            println!(
                "{:>10} | {:>6.2} | {:>9.3} | {:>8.0}",
                w.start_us / 60_000_000,
                w.rdp,
                w.control_per_node_per_sec,
                w.mean_active_nodes
            );
        }
    }
    if let Some(path) = &json_path {
        match std::fs::write(path, harness::run_json(&res)) {
            Ok(()) => eprintln!("wrote run artifact to {path}"),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }
    if let Some(path) = &trace_out {
        match std::fs::write(path, obs::trace_jsonl(&res.trace_events)) {
            Ok(()) => eprintln!(
                "wrote {} hop-trace events to {path}",
                res.trace_events.len()
            ),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }
    if res.trace_overwritten > 0 {
        eprintln!(
            "warning: hop-trace ring overflowed; {} events were overwritten \
             (capacity {}). Rerun with a larger --trace-capacity or a lower \
             --trace rate for a complete trace.",
            res.trace_overwritten, trace_capacity,
        );
    }
    if let Some(path) = &ts_path {
        match std::fs::write(path, obs::ts_jsonl(window_us, &res.timeseries)) {
            Ok(()) => eprintln!(
                "wrote {} time-series windows to {path}",
                res.timeseries.len()
            ),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }
    if let Some(p) = &res.prof {
        eprintln!(
            "profile: {} events in {:.2}s wall, queue depth mean {:.0} / max {}",
            p.events,
            p.wall_us as f64 / 1e6,
            p.depth_mean,
            p.depth_max
        );
        for k in &p.kinds {
            eprintln!(
                "  {:>12}: {:>10} events, {:>8.1} ms, {:>6.0} ns/event",
                k.name,
                k.count,
                k.ns as f64 / 1e6,
                k.ns as f64 / k.count.max(1) as f64
            );
        }
    }
}

/// Runs a registered scenario as a (possibly multi-seed, parallel) sweep and
/// prints per-point means, figure-specific metrics included; `--json [PATH]`
/// also writes the `mspastry-series/2` artifact plus a CSV next to it.
fn run_scenario(name: &str, args: &[String]) {
    let parse_or = |opt: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == opt)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("bad value for {opt}: {v}")))
            })
            .unwrap_or(default)
    };
    // `--json` takes an *optional* path in scenario mode: a following token
    // that looks like another option means "use the default path".
    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned());

    let s = bench::scale();
    let registry = bench::scenarios();
    let Some(scenario) = registry.get(name) else {
        die(&format!("unknown scenario: {name} (see --list-scenarios)"));
    };
    let mut cfg = SweepConfig::new(s);
    cfg.seeds = parse_or("--seeds", 1);
    cfg.jobs = parse_or("--jobs", 0) as usize;
    cfg.progress = args.iter().any(|a| a == "--progress");

    eprintln!(
        "sweeping {} ({}): {} points x {} seeds at {} scale ...",
        scenario.name,
        scenario.figure,
        scenario.expand(s).len(),
        cfg.seeds,
        s.name()
    );
    let t0 = std::time::Instant::now();
    let sweep = run_sweep(scenario, &cfg);
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());

    println!(
        "{:<22} | {:>10} | {:>10} | {:>6} | {:>9}",
        "point", "loss", "incorrect", "RDP", "ctl/s/n"
    );
    for p in &sweep.points {
        let stat = |metric: &str| {
            p.stats
                .iter()
                .find(|m| m.name == metric)
                .map(|m| m.mean)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<22} | {:>10.2e} | {:>10.2e} | {:>6.2} | {:>9.3}",
            p.label,
            stat("loss_rate"),
            stat("incorrect_rate"),
            stat("mean_rdp"),
            stat("control_msgs_per_node_per_sec"),
        );
        // The point's figure-specific metrics, if any (means over seeds).
        for m in &p.stats[METRIC_NAMES.len()..] {
            println!("    {:<30} {}", m.name, m.mean);
        }
    }

    if let Some(path) = json {
        let stem = format!("results/{}.{}.s{}", scenario.name, s.name(), cfg.seeds);
        let json_path = path.unwrap_or_else(|| format!("{stem}.json"));
        let csv_path = json_path
            .strip_suffix(".json")
            .map(|p| format!("{p}.csv"))
            .unwrap_or_else(|| format!("{json_path}.csv"));
        if let Some(dir) = std::path::Path::new(&json_path).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        match std::fs::write(&json_path, sweep_json(&sweep)) {
            Ok(()) => eprintln!("wrote sweep artifact to {json_path}"),
            Err(e) => die(&format!("cannot write {json_path}: {e}")),
        }
        match std::fs::write(&csv_path, sweep_csv(&sweep)) {
            Ok(()) => eprintln!("wrote sweep table to {csv_path}"),
            Err(e) => die(&format!("cannot write {csv_path}: {e}")),
        }
    }
}

/// The help text: the doc comment at the top of this file.
fn help_lines() -> impl Iterator<Item = &'static str> {
    include_str!("mspastry-sim.rs")
        .lines()
        .skip(4)
        .map_while(|line| line.strip_prefix("//! ").or((line == "//!").then_some("")))
        .filter(|t| !t.starts_with("```"))
}

fn print_help() {
    for t in help_lines() {
        println!("{t}");
    }
}

/// Exits with an error unless every argument is a flag that the help
/// text's section starting with `mode` lists, followed by a value when the
/// help shows one (`--flag NAME`; `--flag [NAME]` makes it optional). A
/// value must not be missing or start with `--`.
fn check_flags(args: &[String], mode: &str) {
    // (flag, None if it takes no value, else Some(value is optional))
    let accepted: Vec<(&str, Option<bool>)> = help_lines()
        .skip_while(|t| !t.starts_with(mode))
        .skip(1)
        .take_while(|t| !t.is_empty())
        .filter_map(|t| {
            let mut words = t.split_whitespace();
            let flag = words.next().filter(|w| w.starts_with("--"))?;
            let value = words.next().and_then(|w| {
                let name = w.trim_start_matches('[').trim_end_matches(']');
                name.chars()
                    .all(|c| c.is_ascii_uppercase())
                    .then_some(w.starts_with('['))
            });
            Some((flag, value))
        })
        .collect();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let Some(&(flag, value)) = accepted.iter().find(|(f, _)| f == arg) else {
            if arg.starts_with("--") {
                die(&format!("unknown flag: {arg}"));
            }
            die(&format!("unexpected argument: {arg}"));
        };
        let Some(optional) = value else { continue };
        match rest.peek() {
            Some(v) if !v.starts_with("--") => {
                rest.next();
            }
            _ if optional => {}
            _ => die(&format!("missing value for {flag}")),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2);
}
