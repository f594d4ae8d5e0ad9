//! In-run time series: per-interval deltas of every registry metric.
//!
//! The registry ([`crate::Registry`]) accumulates monotonically over a run;
//! a [`TimeSeries`] turns it into *behavior over time* by snapshotting on a
//! clock-driven cadence and recording, per window, the **delta** of every
//! counter and histogram against the previous snapshot. The paper's churn
//! figures (Fig. 4/5) are exactly this view — loss and repair dynamics as a
//! storm hits, not run totals.
//!
//! The sampler is a pure observer: it only *reads* snapshots the caller
//! hands it, so enabling it cannot perturb a simulation (pinned by
//! `crates/harness/tests/determinism.rs`). Who drives the cadence is the
//! host's business: the simulator samples before its first event at or after
//! each virtual-time sample point. The UDP binding keeps no series; it
//! serves its registry as a whole.
//!
//! The series is bounded: past `max_windows` the *oldest* windows are
//! dropped (and counted) — mirroring the flight recorder, a post-mortem
//! wants the end of the run.

use crate::json::JsonWriter;
use crate::registry::Snapshot;
use std::collections::VecDeque;

/// Schema identifier stamped into the JSONL header line of every
/// time-series artifact.
pub const TS_SCHEMA: &str = "mspastry-ts/1";

/// One sampling window: metric deltas over `[start_us, end_us)`.
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

/// A bounded series of per-window metric deltas.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval_us: u64,
    max_windows: usize,
    prev: Snapshot,
    windows: VecDeque<TsWindow>,
    dropped: u64,
    window_start_us: u64,
}

impl TimeSeries {
    /// Creates an empty series sampling every `interval_us`, keeping at
    /// most `max_windows` windows (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` is 0.
    pub fn new(interval_us: u64, max_windows: usize) -> Self {
        assert!(interval_us > 0, "sampling interval must be positive");
        TimeSeries {
            interval_us,
            max_windows: max_windows.max(1),
            prev: Snapshot::default(),
            windows: VecDeque::new(),
            dropped: 0,
            window_start_us: 0,
        }
    }

    /// The configured sampling cadence, microseconds.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Closes the current window at `end_us` against `snap`: records the
    /// delta of every metric since the previous sample and starts the next
    /// window. Empty-delta windows are still recorded (a flat line is
    /// data); windows are dropped oldest-first past the capacity.
    pub fn sample(&mut self, end_us: u64, snap: &Snapshot) {
        let counters = delta_counters(&self.prev, snap);
        let histograms = delta_histograms(&self.prev, snap);
        if self.windows.len() == self.max_windows {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(TsWindow {
            start_us: self.window_start_us,
            end_us,
            counters,
            histograms,
        });
        self.prev = snap.clone();
        self.window_start_us = end_us;
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &TsWindow> {
        self.windows.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when no window has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows lost to the capacity bound (0 = complete series).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Name-sorted counter deltas between two snapshots (both are name-sorted,
/// so this is one merge walk). Metrics registered after `prev` was taken
/// delta against 0.
fn delta_counters(prev: &Snapshot, cur: &Snapshot) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut p = prev.counters.iter().peekable();
    for (name, v) in &cur.counters {
        let mut base = 0;
        while let Some((pn, pv)) = p.peek() {
            match pn.as_str().cmp(name.as_str()) {
                std::cmp::Ordering::Less => {
                    p.next();
                }
                std::cmp::Ordering::Equal => {
                    base = *pv;
                    p.next();
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        let d = v.wrapping_sub(base);
        if d != 0 {
            out.push((name.clone(), d));
        }
    }
    out
}

/// Name-sorted `(count, sum)` histogram deltas between two snapshots.
fn delta_histograms(prev: &Snapshot, cur: &Snapshot) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let mut p = prev.histograms.iter().peekable();
    for (name, h) in &cur.histograms {
        let (mut base_count, mut base_sum) = (0, 0);
        while let Some((pn, ph)) = p.peek() {
            match pn.as_str().cmp(name.as_str()) {
                std::cmp::Ordering::Less => {
                    p.next();
                }
                std::cmp::Ordering::Equal => {
                    base_count = ph.count;
                    base_sum = ph.sum;
                    p.next();
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        let d_count = h.count.wrapping_sub(base_count);
        if d_count != 0 {
            out.push((name.clone(), d_count, h.sum.wrapping_sub(base_sum)));
        }
    }
    out
}

/// Serialises a series as JSONL: a header line (schema tag, cadence, window
/// and drop counts), then one object per window in time order. Deterministic
/// byte-for-byte for identical series.
pub fn ts_jsonl(ts: &TimeSeries) -> String {
    let mut out = String::with_capacity(64 + ts.len() * 256);
    {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", TS_SCHEMA)
            .field_u64("interval_us", ts.interval_us())
            .field_u64("windows", ts.len() as u64)
            .field_u64("dropped", ts.dropped());
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    for win in ts.windows() {
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
        let mut ts = TimeSeries::new(10, 64);

        r.add(c, 5);
        r.record(h, 100);
        ts.sample(10, &r.snapshot());

        r.add(c, 2);
        r.record(h, 50);
        r.record(h, 70);
        ts.sample(20, &r.snapshot());

        let w: Vec<&TsWindow> = ts.windows().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].start_us, 0);
        assert_eq!(w[0].end_us, 10);
        assert_eq!(w[0].counters, vec![("sends".to_string(), 5)]);
        assert_eq!(w[0].histograms, vec![("lat".to_string(), 1, 100)]);
        assert_eq!(w[1].start_us, 10);
        assert_eq!(w[1].counters, vec![("sends".to_string(), 2)]);
        assert_eq!(w[1].histograms, vec![("lat".to_string(), 2, 120)]);
    }

    #[test]
    fn deltas_sum_back_to_the_final_snapshot() {
        let r = Registry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        let mut ts = TimeSeries::new(1, 1024);
        let mut t = 0;
        for i in 0..50u64 {
            r.add(a, i % 3);
            if i % 7 == 0 {
                r.inc(b);
            }
            t += 1;
            ts.sample(t, &r.snapshot());
        }
        let snap = r.snapshot();
        for name in ["a", "b"] {
            let total: u64 = ts
                .windows()
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
        let mut ts = TimeSeries::new(10, 4);
        ts.sample(10, &r.snapshot());
        ts.sample(20, &r.snapshot()); // nothing moved
        let w: Vec<&TsWindow> = ts.windows().collect();
        assert_eq!(w[0].counters.len(), 1);
        assert!(w[1].counters.is_empty() && w[1].histograms.is_empty());
    }

    #[test]
    fn late_registered_metrics_delta_against_zero() {
        let r = Registry::new();
        r.inc(r.counter("early"));
        let mut ts = TimeSeries::new(10, 4);
        ts.sample(10, &r.snapshot());
        // A metric that did not exist in the previous snapshot.
        r.add(r.counter("a-late"), 9);
        ts.sample(20, &r.snapshot());
        let w: Vec<&TsWindow> = ts.windows().collect();
        assert_eq!(w[1].counters, vec![("a-late".to_string(), 9)]);
    }

    #[test]
    fn capacity_drops_oldest_windows() {
        let r = Registry::new();
        let c = r.counter("n");
        let mut ts = TimeSeries::new(1, 3);
        for t in 1..=5u64 {
            r.add(c, t);
            ts.sample(t, &r.snapshot());
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.dropped(), 2);
        let starts: Vec<u64> = ts.windows().map(|w| w.start_us).collect();
        assert_eq!(starts, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_window() {
        let r = Registry::new();
        r.inc(r.counter("c"));
        r.record(r.histogram("h"), 7);
        let mut ts = TimeSeries::new(10, 4);
        ts.sample(10, &r.snapshot());
        let text = ts_jsonl(&ts);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"schema\":\"mspastry-ts/1\",\"interval_us\":10,\"windows\":1,\"dropped\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"start_us\":0,\"end_us\":10,\"counters\":{\"c\":1},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":7}}}"
        );
        // Deterministic.
        assert_eq!(text, ts_jsonl(&ts.clone()));
    }
}
