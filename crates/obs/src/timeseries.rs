//! Time series: per-window deltas of every registry metric.
//!
//! The registry ([`crate::Registry`]) accumulates monotonically over a run;
//! the **delta** of every counter and histogram between two snapshots
//! ([`TsWindow::between`]) turns it into *behavior over time*. The paper's
//! churn figures (Fig. 4/5) are exactly this view — loss and repair
//! dynamics as a storm hits, not run totals.
//!
//! Deltas only *read* snapshots the caller already took, so a series cannot
//! perturb a simulation. The simulator cuts its series from the snapshots
//! it takes at the metrics-window boundaries (`harness::runner`); the UDP
//! binding keeps no series and serves its registry as a whole.

use crate::json::JsonWriter;
use crate::registry::Snapshot;

/// Schema identifier stamped into the JSONL header line of every
/// time-series artifact.
pub const TS_SCHEMA: &str = "mspastry-ts/1";

/// One window: metric deltas over `[start_us, end_us)`.
///
/// Only metrics that *changed* during the window are listed (a quiet
/// counter would otherwise repeat `0` in every line of a long run); both
/// lists stay name-sorted, inherited from [`Snapshot`] ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsWindow {
    /// Window start (inclusive), microseconds.
    pub start_us: u64,
    /// Window end (exclusive), microseconds.
    pub end_us: u64,
    /// `(name, delta)` for every counter that moved, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, delta count, delta sum)` for every histogram that recorded
    /// samples, name-sorted.
    pub histograms: Vec<(String, u64, u64)>,
}

impl TsWindow {
    /// The deltas from `prev` (taken at `start_us`) to `cur` (taken at
    /// `end_us`). Metrics registered after `prev` was taken delta against 0.
    pub fn between(start_us: u64, end_us: u64, prev: &Snapshot, cur: &Snapshot) -> Self {
        let counters = cur
            .counters
            .iter()
            .filter_map(|(name, v)| {
                let d = v.wrapping_sub(prev.counter(name));
                (d != 0).then(|| (name.clone(), d))
            })
            .collect();
        let histograms = cur
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let (count, sum) = prev.histogram(name).map_or((0, 0), |p| (p.count, p.sum));
                let d = h.count.wrapping_sub(count);
                (d != 0).then(|| (name.clone(), d, h.sum.wrapping_sub(sum)))
            })
            .collect();
        TsWindow {
            start_us,
            end_us,
            counters,
            histograms,
        }
    }
}

/// Serialises a series as JSONL: a header line (schema tag, the window
/// grid's `interval_us` and the window count), then one object per window
/// in time order. Deterministic byte-for-byte for identical series.
pub fn ts_jsonl(interval_us: u64, windows: &[TsWindow]) -> String {
    let mut out = String::with_capacity(64 + windows.len() * 256);
    {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", TS_SCHEMA)
            .field_u64("interval_us", interval_us)
            .field_u64("windows", windows.len() as u64);
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    for win in windows {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("start_us", win.start_us)
            .field_u64("end_us", win.end_us);
        w.key("counters").begin_object();
        for (name, d) in &win.counters {
            w.field_u64(name, *d);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (name, d_count, d_sum) in &win.histograms {
            w.key(name)
                .begin_object()
                .field_u64("count", *d_count)
                .field_u64("sum", *d_sum)
                .end_object();
        }
        w.end_object();
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn windows_hold_deltas_not_totals() {
        let r = Registry::new();
        let c = r.counter("sends");
        let h = r.histogram("lat");
        let start = Snapshot::default();

        r.add(c, 5);
        r.record(h, 100);
        let s10 = r.snapshot();

        r.add(c, 2);
        r.record(h, 50);
        r.record(h, 70);
        let s20 = r.snapshot();

        let w0 = TsWindow::between(0, 10, &start, &s10);
        assert_eq!(w0.start_us, 0);
        assert_eq!(w0.end_us, 10);
        assert_eq!(w0.counters, vec![("sends".to_string(), 5)]);
        assert_eq!(w0.histograms, vec![("lat".to_string(), 1, 100)]);
        let w1 = TsWindow::between(10, 20, &s10, &s20);
        assert_eq!(w1.start_us, 10);
        assert_eq!(w1.counters, vec![("sends".to_string(), 2)]);
        assert_eq!(w1.histograms, vec![("lat".to_string(), 2, 120)]);
    }

    #[test]
    fn deltas_sum_back_to_the_final_snapshot() {
        let r = Registry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        let mut snaps = vec![Snapshot::default()];
        for i in 0..50u64 {
            r.add(a, i % 3);
            if i % 7 == 0 {
                r.inc(b);
            }
            snaps.push(r.snapshot());
        }
        let windows: Vec<TsWindow> = snaps
            .windows(2)
            .enumerate()
            .map(|(t, s)| TsWindow::between(t as u64, t as u64 + 1, &s[0], &s[1]))
            .collect();
        let snap = r.snapshot();
        for name in ["a", "b"] {
            let total: u64 = windows
                .iter()
                .flat_map(|w| w.counters.iter())
                .filter(|(n, _)| n == name)
                .map(|(_, d)| d)
                .sum();
            assert_eq!(total, snap.counter(name), "counter {name}");
        }
    }

    #[test]
    fn quiet_metrics_are_omitted_from_windows() {
        let r = Registry::new();
        let c = r.counter("busy");
        r.counter("idle");
        r.histogram("never");
        r.inc(c);
        let s = r.snapshot();
        let w0 = TsWindow::between(0, 10, &Snapshot::default(), &s);
        let w1 = TsWindow::between(10, 20, &s, &r.snapshot()); // nothing moved
        assert_eq!(w0.counters.len(), 1);
        assert!(w1.counters.is_empty() && w1.histograms.is_empty());
    }

    #[test]
    fn late_registered_metrics_delta_against_zero() {
        let r = Registry::new();
        r.inc(r.counter("early"));
        let s = r.snapshot();
        // A metric that did not exist in the previous snapshot.
        r.add(r.counter("a-late"), 9);
        let w = TsWindow::between(10, 20, &s, &r.snapshot());
        assert_eq!(w.counters, vec![("a-late".to_string(), 9)]);
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_window() {
        let r = Registry::new();
        r.inc(r.counter("c"));
        r.record(r.histogram("h"), 7);
        let windows = [TsWindow::between(
            0,
            10,
            &Snapshot::default(),
            &r.snapshot(),
        )];
        let text = ts_jsonl(10, &windows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"schema\":\"mspastry-ts/1\",\"interval_us\":10,\"windows\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"start_us\":0,\"end_us\":10,\"counters\":{\"c\":1},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":7}}}"
        );
        // Deterministic.
        assert_eq!(text, ts_jsonl(10, &windows.clone()));
    }
}
