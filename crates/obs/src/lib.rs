#![warn(missing_docs)]
//! Per-run observability for the MSPastry reproduction.
//!
//! Three pieces, shared through one cheap [`Obs`] handle that the harness
//! threads into the network simulator and every protocol node:
//!
//! * a [`registry::Registry`] of named counters and log-bucketed
//!   [`hist::Histogram`]s — per *run*, not per process, so parallel tests
//!   and repeated runs cannot cross-contaminate. A snapshot lists each
//!   histogram's non-empty buckets and reads its percentiles off that list
//!   (the one quantile walk), and snapshots of several runs fold together
//!   through one sorted merge ([`Snapshot::merge`]);
//! * a [`recorder::FlightRecorder`] — a bounded ring buffer of per-lookup
//!   hop events ([`HopEvent`]). Which lookups it keeps is decided once, by
//!   [`Obs::sampled`]: a deterministic hash of the lookup identity, so the
//!   complete path of a sampled lookup (every forward, ack,
//!   retransmission, exclusion and drop, with timestamps and RTO state)
//!   can be reconstructed from the dump;
//! * a hand-rolled [`json`] writer for machine-readable artifacts (the
//!   build environment is offline; no serde).
//!
//! Two live-telemetry layers sit on top: [`timeseries`] cuts per-window
//! metric *deltas* from registry snapshots (the `mspastry-ts/1` artifact,
//! and the windows the simulator's report is computed from),
//! and [`prof`] accumulates the simulator's own per-event-kind dispatch
//! counts and wall time (the run artifact's `"prof"` member).
//!
//! Every handle is live: a host that wants no artifact still counts into a
//! registry of its own (one flat vector) and never samples a lookup, so
//! instrumented code takes no branch on whether observability is on.

pub mod hist;
pub mod json;
pub mod prof;
pub mod recorder;
pub mod registry;
pub mod timeseries;

pub use hist::{HistSnapshot, Histogram};
pub use json::JsonWriter;
pub use prof::{prof_json, KindStat, ProfReport, Profiler};
pub use recorder::{FlightRecorder, HopEvent, HopKind, NO_PEER};
pub use registry::{CounterId, HistId, Registry, Snapshot};
pub use timeseries::{ts_jsonl, TsWindow, TS_SCHEMA};

use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct Core {
    registry: Registry,
    recorder: RefCell<FlightRecorder>,
    /// A lookup is traced iff `lookup_hash(src, seq) <= threshold`; 0 turns
    /// tracing off.
    threshold: u64,
}

/// A cheap, cloneable handle to one run's observability state.
///
/// The simulator is single-threaded; the handle is an `Rc`, and clones
/// share one registry, flight recorder and sampling threshold.
#[derive(Debug, Clone)]
pub struct Obs(Rc<Core>);

impl Obs {
    /// Creates a handle: a fresh registry, a flight recorder of
    /// `trace_capacity` events, and a trace sample of `trace_sample_rate`
    /// (0.0..=1.0, clamped) of all lookups.
    pub fn new(trace_sample_rate: f64, trace_capacity: usize) -> Self {
        let rate = trace_sample_rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        Obs(Rc::new(Core {
            registry: Registry::new(),
            recorder: RefCell::new(FlightRecorder::new(trace_capacity)),
            threshold,
        }))
    }

    /// Registers (or re-finds) a counter.
    pub fn counter(&self, name: &'static str) -> CounterId {
        self.0.registry.counter(name)
    }

    /// Registers (or re-finds) a histogram.
    pub fn histogram(&self, name: &'static str) -> HistId {
        self.0.registry.histogram(name)
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.0.registry.inc(id);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.0.registry.add(id, n);
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        self.0.registry.record(id, v);
    }

    /// `true` if lookup `(src, seq)` is in the trace sample. `false` when
    /// tracing is off — callers guard event construction on it. The one
    /// sampling check: hops and drops alike pass through it.
    #[inline]
    pub fn sampled(&self, src: u128, seq: u64) -> bool {
        self.0.threshold != 0 && recorder::lookup_hash(src, seq) <= self.0.threshold
    }

    /// Records a hop event (call only after [`Self::sampled`] said yes; an
    /// unsampled event is recorded anyway — sampling is the caller's gate,
    /// not an invariant of the ring).
    pub fn hop(&self, ev: HopEvent) {
        self.0.recorder.borrow_mut().push(ev);
    }

    /// Records a lookup drop: bumps the per-reason counter and traces the
    /// event if sampled.
    pub fn drop_event(&self, reason_counter: CounterId, ev: HopEvent) {
        self.0.registry.inc(reason_counter);
        if self.sampled(ev.src, ev.seq) {
            self.hop(ev);
        }
    }

    /// Freezes all counters and histograms.
    pub fn snapshot(&self) -> Snapshot {
        self.0.registry.snapshot()
    }

    /// Drains the flight recorder: events in recording order plus the count
    /// of events lost to ring overwrite. The recorder restarts empty.
    pub fn take_trace(&self) -> (Vec<HopEvent>, u64) {
        self.0.recorder.borrow_mut().take()
    }
}

/// Merge-joins two key-sorted `(key, value)` lists into one key-sorted
/// list. A key present in both keeps one entry, `b`'s value folded into
/// `a`'s by `combine`; every other entry carries over unchanged. The one
/// merge behind [`Snapshot::merge`] (counters and histograms by name) and
/// [`HistSnapshot::merge`] (buckets by lower bound).
pub(crate) fn merge_sorted<K: Ord + Clone, V: Clone>(
    a: Vec<(K, V)>,
    b: &[(K, V)],
    combine: impl Fn(&mut V, &V),
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.iter().peekable();
    for (k, mut v) in a {
        while let Some(e) = b.next_if(|(kb, _)| *kb < k) {
            out.push(e.clone());
        }
        if let Some((_, vb)) = b.next_if(|(kb, _)| *kb == k) {
            combine(&mut v, vb);
        }
        out.push((k, v));
    }
    out.extend(b.cloned());
    out
}

/// Serialises hop events as JSONL (one JSON object per line), in order.
///
/// Node identifiers are lower-case hex strings; the lookup identity is
/// `"<src-hex>#<seq>"` so one field groups a lookup's whole path.
pub fn trace_jsonl(events: &[HopEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        write_hop_jsonl(&mut out, ev);
    }
    out
}

fn write_hop_jsonl(out: &mut String, ev: &HopEvent) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"t\":{},\"kind\":\"{}\",\"lookup\":\"{:x}#{}\",\"node\":\"{:x}\"",
        ev.at_us,
        ev.kind.name(),
        ev.src,
        ev.seq,
        ev.node
    );
    if ev.peer != NO_PEER {
        let _ = write!(out, ",\"peer\":\"{:x}\"", ev.peer);
    }
    let _ = write!(out, ",\"hops\":{},\"attempt\":{}", ev.hops, ev.attempt);
    if ev.detail_us != 0 {
        let _ = write!(out, ",\"detail_us\":{}", ev.detail_us);
    }
    if !ev.note.is_empty() {
        let mut note = String::new();
        json::escape_into(&mut note, ev.note);
        let _ = write!(out, ",\"note\":\"{note}\"");
    }
    out.push_str("}\n");
}

/// Serialises a registry snapshot as a JSON object with `counters` and
/// `histograms` members (both keyed by metric name, sorted).
pub fn snapshot_json(w: &mut JsonWriter, s: &Snapshot) {
    w.begin_object();
    w.key("counters").begin_object();
    for (name, v) in &s.counters {
        w.key(name).u64(*v);
    }
    w.end_object();
    w.key("histograms").begin_object();
    for (name, h) in &s.histograms {
        w.key(name).begin_object();
        w.field_u64("count", h.count)
            .field_u64("sum", h.sum)
            .field_opt_u64("min", h.min)
            .field_opt_u64("max", h.max)
            .field_opt_u64("p50", h.p50)
            .field_opt_u64("p90", h.p90)
            .field_opt_u64("p99", h.p99);
        w.key("buckets").begin_array();
        for &(lb, c) in &h.buckets {
            w.begin_array().u64(lb).u64(c).end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_handle_collects_and_snapshots() {
        let o = Obs::new(1.0, 16);
        let c = o.counter("sends");
        o.inc(c);
        o.inc(c);
        let h = o.histogram("lat");
        o.record(h, 9);
        assert!(o.sampled(1, 2));
        o.hop(HopEvent {
            at_us: 5,
            node: 1,
            src: 1,
            seq: 2,
            kind: HopKind::Issue,
            peer: NO_PEER,
            hops: 0,
            attempt: 0,
            detail_us: 0,
            note: "",
        });
        let s = o.snapshot();
        assert_eq!(s.counter("sends"), 2);
        assert_eq!(s.histogram("lat").unwrap().count, 1);
        let (trace, lost) = o.take_trace();
        assert_eq!((trace.len(), lost), (1, 0));
        assert_eq!(trace[0].kind, HopKind::Issue);
    }

    #[test]
    fn drop_event_counts_every_drop_and_traces_sampled_ones() {
        let o = Obs::new(0.5, 16);
        let reason = o.counter("drop.no-route");
        let hit = (0..).find(|&seq| o.sampled(1, seq)).unwrap();
        let miss = (0..).find(|&seq| !o.sampled(1, seq)).unwrap();
        let drop = |seq| HopEvent {
            at_us: 7,
            node: 2,
            src: 1,
            seq,
            kind: HopKind::Drop,
            peer: NO_PEER,
            hops: 1,
            attempt: 0,
            detail_us: 0,
            note: "no-route",
        };
        o.drop_event(reason, drop(hit));
        o.drop_event(reason, drop(miss));
        assert_eq!(o.snapshot().counter("drop.no-route"), 2);
        let (trace, lost) = o.take_trace();
        assert_eq!((trace.len(), lost), (1, 0));
        assert_eq!((trace[0].kind, trace[0].seq), (HopKind::Drop, hit));
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::new(0.0, 16);
        let b = a.clone();
        let c = a.counter("n");
        b.inc(b.counter("n"));
        a.inc(c);
        assert_eq!(a.snapshot().counter("n"), 2);
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let ev = HopEvent {
            at_us: 100,
            node: 0xab,
            src: 0xcd,
            seq: 7,
            kind: HopKind::Drop,
            peer: 0xef,
            hops: 3,
            attempt: 1,
            detail_us: 250,
            note: "no-route",
        };
        let line = trace_jsonl(&[ev]);
        assert_eq!(
            line,
            "{\"t\":100,\"kind\":\"drop\",\"lookup\":\"cd#7\",\"node\":\"ab\",\"peer\":\"ef\",\"hops\":3,\"attempt\":1,\"detail_us\":250,\"note\":\"no-route\"}\n"
        );
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let o = Obs::new(0.0, 1);
        o.inc(o.counter("a"));
        o.record(o.histogram("h"), 3);
        let mut w = JsonWriter::new();
        snapshot_json(&mut w, &o.snapshot());
        let s = w.finish();
        assert!(s.starts_with("{\"counters\":{\"a\":1}"));
        assert!(s.contains("\"histograms\":{\"h\":{\"count\":1"));
        assert!(s.ends_with("}}"));
    }
}
