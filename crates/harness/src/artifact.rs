//! Machine-readable run artifacts.
//!
//! Serialises a [`RunResult`] — the §5.2 [`Report`] with its per-window
//! series, the run's diagnostic registry snapshot, and a hop-trace summary —
//! as a single JSON document (schema tag `mspastry-run/1`), plus the sampled
//! hop trace itself as JSONL. Both writers are deterministic: the same run
//! produces byte-identical artifacts.

use crate::metrics::{Report, WindowReport, CATEGORY_NAMES};
use crate::runner::RunResult;
use obs::JsonWriter;

/// Schema identifier stamped into every run artifact; bump on any
/// backwards-incompatible change to the document shape.
pub const RUN_SCHEMA: &str = "mspastry-run/1";

/// Writes one [`WindowReport`] as a JSON object.
pub(crate) fn window_json(w: &mut JsonWriter, win: &WindowReport) {
    w.begin_object();
    w.field_u64("start_us", win.start_us)
        .field_f64("rdp", win.rdp)
        .field_f64("control_per_node_per_sec", win.control_per_node_per_sec)
        .field_f64("mean_active_nodes", win.mean_active_nodes);
    w.key("per_category_per_node_per_sec").begin_object();
    for (name, v) in CATEGORY_NAMES.iter().zip(win.per_category_per_node_per_sec) {
        w.key(name).f64(v);
    }
    w.end_object();
    w.end_object();
}

/// Writes a [`Report`] as a JSON object: every scalar metric, the
/// per-category traffic breakdown, the join-latency samples, the per-window
/// time series and the fine-grained message counts.
pub fn report_json(w: &mut JsonWriter, r: &Report) {
    w.begin_object();
    w.field_u64("issued", r.issued)
        .field_u64("delivered", r.delivered)
        .field_u64("incorrect", r.incorrect)
        .field_u64("lost", r.lost)
        .field_u64("censored", r.censored)
        .field_u64("duplicates", r.duplicates)
        .field_u64("drop_reports", r.drop_reports)
        .field_f64("incorrect_rate", r.incorrect_rate)
        .field_f64("loss_rate", r.loss_rate)
        .field_f64("mean_rdp", r.mean_rdp)
        .field_f64("mean_hops", r.mean_hops)
        .field_f64(
            "control_msgs_per_node_per_sec",
            r.control_msgs_per_node_per_sec,
        )
        .field_f64("node_seconds", r.node_seconds)
        .field_f64("bytes_per_node_per_sec", r.bytes_per_node_per_sec)
        .field_u64("slow_deliveries", r.slow_deliveries);
    w.key("totals_per_node_per_sec").begin_object();
    for (name, v) in CATEGORY_NAMES.iter().zip(r.totals_per_node_per_sec) {
        w.key(name).f64(v);
    }
    w.end_object();
    w.key("join_latencies_us").begin_array();
    for &l in &r.join_latencies_us {
        w.u64(l);
    }
    w.end_array();
    w.key("windows").begin_array();
    for win in &r.windows {
        window_json(w, win);
    }
    w.end_array();
    w.key("fine_counts").begin_object();
    for &(name, n) in &r.fine_counts {
        w.key(name).u64(n);
    }
    w.end_object();
    w.end_object();
}

/// Serialises a complete [`RunResult`] as one JSON document.
///
/// Top-level members: `schema` ([`RUN_SCHEMA`]), `run` (trace/topology and
/// end-of-run overlay state), `report` ([`report_json`]), `diag` (the
/// registry snapshot: counters and histograms) and `trace` (hop-trace
/// summary — the events themselves are a separate JSONL artifact, see
/// [`obs::trace_jsonl`]). When the profiler ran, `prof` follows (the
/// run-loop self-profile; wall-clock based, so excluded from the
/// bit-identical artifact guarantee). The time series is a separate
/// `mspastry-ts/1` JSONL artifact, see [`obs::ts_jsonl`].
pub fn run_json(res: &RunResult) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", RUN_SCHEMA);
    w.key("run").begin_object();
    w.field_str("trace", &res.trace_name)
        .field_str("topology", res.topology_name)
        .field_u64("final_active", res.final_active as u64)
        .field_f64("mean_t_rt_us", res.mean_t_rt_us)
        .field_u64("sim_events", res.sim_events)
        .field_u64("skipped_scripted", res.skipped_scripted)
        .field_u64("ring_defects", res.ring_defects)
        .field_f64("rt_unknown_fraction", res.rt_unknown_fraction)
        .field_f64("rt_mean_distance_us", res.rt_mean_distance_us);
    w.end_object();
    w.key("report");
    report_json(&mut w, &res.report);
    w.key("diag");
    obs::snapshot_json(&mut w, &res.diag);
    w.key("trace").begin_object();
    w.field_u64("events", res.trace_events.len() as u64)
        .field_u64("overwritten", res.trace_overwritten);
    w.end_object();
    // The profile is emitted only when the profiler ran, so the document
    // is unchanged with it off, and stripping it recovers the deterministic
    // core.
    if let Some(p) = &res.prof {
        w.key("prof");
        obs::prof_json(&mut w, p);
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> Report {
        Report {
            issued: 10,
            delivered: 9,
            incorrect: 0,
            lost: 1,
            censored: 0,
            duplicates: 0,
            drop_reports: 2,
            incorrect_rate: 0.0,
            loss_rate: 0.1,
            mean_rdp: 1.5,
            mean_hops: 2.25,
            control_msgs_per_node_per_sec: 0.5,
            totals_per_node_per_sec: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            node_seconds: 1000.0,
            bytes_per_node_per_sec: 42.0,
            slow_deliveries: 0,
            join_latencies_us: vec![100, 200],
            windows: vec![WindowReport {
                start_us: 0,
                rdp: 1.5,
                control_per_node_per_sec: 0.5,
                per_category_per_node_per_sec: [0.0; crate::metrics::N_CATEGORIES],
                mean_active_nodes: 30.0,
            }],
            fine_counts: vec![("Ack", 12)],
        }
    }

    #[test]
    fn report_json_has_all_members() {
        let mut w = JsonWriter::new();
        report_json(&mut w, &tiny_report());
        let s = w.finish();
        for key in [
            "issued",
            "delivered",
            "incorrect",
            "lost",
            "censored",
            "duplicates",
            "drop_reports",
            "incorrect_rate",
            "loss_rate",
            "mean_rdp",
            "mean_hops",
            "control_msgs_per_node_per_sec",
            "node_seconds",
            "bytes_per_node_per_sec",
            "slow_deliveries",
            "totals_per_node_per_sec",
            "join_latencies_us",
            "windows",
            "fine_counts",
        ] {
            assert!(s.contains(&format!("\"{key}\":")), "missing {key} in {s}");
        }
        assert!(s.contains("\"join_latencies_us\":[100,200]"));
        assert!(s.contains("\"lookups\":0.6"));
    }

    #[test]
    fn report_json_is_deterministic() {
        let r = tiny_report();
        let mut a = JsonWriter::new();
        report_json(&mut a, &r);
        let mut b = JsonWriter::new();
        report_json(&mut b, &r);
        assert_eq!(a.finish(), b.finish());
    }
}
