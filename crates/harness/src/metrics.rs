//! Metric collection for the paper's evaluation (§5.2).
//!
//! Dependability: *incorrect delivery rate* (lookups delivered by a node that
//! is not the key's current root) and *loss rate* (lookups never delivered).
//! Performance: *relative delay penalty* (RDP — overlay delay over network
//! delay between the same nodes) and *control traffic* (messages per second
//! per node, everything except first-transmission lookups), optionally broken
//! down by message type as in Figure 4.
//!
//! Traffic and lookup outcomes are counted once, in the run's [`obs`]
//! registry: `sent.*` per send, [`ACTIVE_NODE_US`] for node-time, and the
//! `lookup.*` outcome metrics for the first delivery of each tracked
//! lookup. [`Metrics::finalize`] reads the report's traffic figures from
//! the run's time series, the [`TsWindow`] deltas between the registry
//! snapshots taken at the window boundaries. [`Metrics`] itself
//! keeps the lookup ledger (issued, delivered, lost, incorrect,
//! duplicates), which needs the oracle's verdict and the lookup
//! identities.

use crate::fxhash::FxHashMap;
use mspastry::diag::DROP_REASON_COUNTERS;
use mspastry::messages::{
    KIND_NAMES, SENT_BYTES_COUNTER, SENT_CATEGORY_COUNTERS, SENT_KIND_COUNTERS,
};
use mspastry::{Category, LookupId};
use obs::{CounterId, HistId, Obs, Snapshot, TsWindow};
use std::collections::VecDeque;

pub use mspastry::messages::{CATEGORY_NAMES, N_CATEGORIES};

/// Stable index of a category in the per-window arrays ([`CATEGORY_NAMES`]
/// order): its declaration order, the five control categories first.
pub fn category_index(c: Category) -> usize {
    c as usize
}

/// Registry counter integrating the number of active overlay nodes over
/// simulated time, in node-microseconds.
pub const ACTIVE_NODE_US: &str = "overlay.active_node_us";

/// Registry histogram of lookup latency (issue to first delivery), µs.
const LOOKUP_LATENCY_US: &str = "lookup.latency_us";
/// Registry histogram of overlay hops per delivered lookup.
const LOOKUP_HOPS: &str = "lookup.hops";
/// Registry histogram of RDP × 1000, rounded ([`rdp_milli`]).
const LOOKUP_RDP_MILLI: &str = "lookup.rdp_milli";
/// Registry counter of RDP-sampled deliveries slower than one second.
const LOOKUP_SLOW: &str = "lookup.slow";

/// RDP × 1000 of a lookup delivered `delay_us` after issue between nodes
/// `direct_us` apart, rounded to the nearest integer.
fn rdp_milli(delay_us: u64, direct_us: u64) -> u64 {
    (delay_us * 1000 + direct_us / 2) / direct_us
}

/// `(sum, count)` of a registry histogram (zeros when absent).
fn sum_count(s: &Snapshot, name: &str) -> (u64, u64) {
    s.histogram(name).map_or((0, 0), |h| (h.sum, h.count))
}

/// Mean of samples recorded in thousandths.
fn milli_mean(sum: u64, count: u64) -> f64 {
    if count > 0 {
        sum as f64 / count as f64 / 1000.0
    } else {
        0.0
    }
}

/// The registry handles of the lookup-outcome metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outcomes {
    latency: HistId,
    hops: HistId,
    rdp_milli: HistId,
    slow: CounterId,
}

impl Outcomes {
    pub(crate) fn register(obs: &Obs) -> Self {
        Outcomes {
            latency: obs.histogram(LOOKUP_LATENCY_US),
            hops: obs.histogram(LOOKUP_HOPS),
            rdp_milli: obs.histogram(LOOKUP_RDP_MILLI),
            slow: obs.counter(LOOKUP_SLOW),
        }
    }

    /// Records the first delivery of a tracked lookup (the only delivery
    /// that counts, see [`Metrics::on_delivered`]). `direct_delay_us == 0`
    /// (self-delivery) skips the RDP sample.
    pub(crate) fn record(
        &self,
        obs: &Obs,
        now_us: u64,
        issued_at_us: u64,
        hops: u32,
        direct_delay_us: u64,
    ) {
        let delay = now_us.saturating_sub(issued_at_us);
        obs.record(self.latency, delay);
        obs.record(self.hops, hops as u64);
        if direct_delay_us > 0 && delay > 0 {
            if delay > 1_000_000 {
                obs.inc(self.slow);
            }
            obs.record(self.rdp_milli, rdp_milli(delay, direct_delay_us));
        }
    }
}

/// The control messages among per-category counts ([`CATEGORY_NAMES`]
/// order): the five control categories, everything but lookups.
fn control(counts: &[u64; N_CATEGORIES]) -> u64 {
    counts[..5].iter().sum()
}

/// `count / node_seconds`, or 0 when no node was active.
fn per_node_second(count: u64, node_seconds: f64) -> f64 {
    if node_seconds > 0.0 {
        count as f64 / node_seconds
    } else {
        0.0
    }
}

/// A lookup in the ledger: pending until its first delivery, then kept for
/// the duplicate window (`lookup_timeout_us`) so later copies count as
/// duplicates.
#[derive(Debug, Clone, Copy)]
struct LedgerEntry {
    issued_at_us: u64,
    tracked: bool,
    delivered: bool,
}

/// The lookup ledger of one run: issued, delivered, lost, incorrect and
/// duplicate lookups, plus join latencies.
#[derive(Debug)]
pub struct Metrics {
    measure_start_us: u64,
    window_us: u64,
    lookup_timeout_us: u64,
    ledger: FxHashMap<LookupId, LedgerEntry>,
    /// Delivered ledger entries in delivery order, each with the time after
    /// which it is evicted.
    expiry: VecDeque<(u64, LookupId)>,
    issued: u64,
    delivered: u64,
    incorrect: u64,
    duplicates: u64,
    join_latencies_us: Vec<u64>,
}

impl Metrics {
    /// Creates a collector. Events before `measure_start_us` (the warmup) are
    /// ignored.
    pub fn new(measure_start_us: u64, window_us: u64, lookup_timeout_us: u64) -> Self {
        assert!(window_us > 0);
        Metrics {
            measure_start_us,
            window_us,
            lookup_timeout_us,
            ledger: FxHashMap::default(),
            expiry: VecDeque::new(),
            issued: 0,
            delivered: 0,
            incorrect: 0,
            duplicates: 0,
            join_latencies_us: Vec::new(),
        }
    }

    /// Records the first sighting of a lookup (issue or first transmission).
    pub fn sight_lookup(&mut self, id: LookupId, issued_at_us: u64) {
        if self.ledger.contains_key(&id) {
            return;
        }
        let tracked = issued_at_us >= self.measure_start_us;
        if tracked {
            self.issued += 1;
        }
        self.ledger.insert(
            id,
            LedgerEntry {
                issued_at_us,
                tracked,
                delivered: false,
            },
        );
    }

    /// Drops delivered lookups whose duplicate window closed before `now_us`.
    fn evict_delivered(&mut self, now_us: u64) {
        while let Some(&(evict_after_us, id)) = self.expiry.front() {
            if evict_after_us >= now_us {
                break;
            }
            self.expiry.pop_front();
            self.ledger.remove(&id);
        }
    }

    /// Records a delivery. A copy delivered within `lookup_timeout_us` of
    /// the first delivery counts as a duplicate. Returns `true` for the
    /// first delivery of a tracked lookup: the one delivery whose hops,
    /// latency and RDP the `lookup.*` outcome metrics record.
    pub fn on_delivered(
        &mut self,
        now_us: u64,
        id: LookupId,
        issued_at_us: u64,
        correct: bool,
    ) -> bool {
        self.evict_delivered(now_us);
        self.sight_lookup(id, issued_at_us);
        let entry = self.ledger.get_mut(&id).expect("sighted above");
        if entry.delivered {
            self.duplicates += 1;
            return false;
        }
        entry.delivered = true;
        let tracked = entry.tracked;
        self.expiry
            .push_back((now_us.saturating_add(self.lookup_timeout_us), id));
        if tracked {
            self.delivered += 1;
            if !correct {
                self.incorrect += 1;
            }
        }
        tracked
    }

    /// Records a join latency sample.
    pub fn on_join_latency(&mut self, latency_us: u64) {
        self.join_latencies_us.push(latency_us);
    }

    /// Closes the run at `end_us` and produces the report. `series` is the
    /// run's time series ([`TsWindow::series`] over the registry snapshots
    /// at the window boundaries `measure_start_us + k·window_us` and the
    /// end): the warm-up window first, then one window per report window.
    /// The traffic figures and window RDPs are read from those windows,
    /// and the lookup outcome figures and `drop_reports` from the
    /// end-of-run snapshot `last`.
    pub fn finalize(self, end_us: u64, series: &[TsWindow], last: &Snapshot) -> Report {
        let (mut lost, mut censored) = (0, 0);
        for p in self.ledger.values() {
            if p.delivered || !p.tracked {
                continue;
            }
            if p.issued_at_us + self.lookup_timeout_us <= end_us {
                lost += 1;
            } else {
                censored += 1;
            }
        }
        // Skip the warm-up window; with no window after it, no boundary was
        // reached and nothing was measured.
        let measured = series.get(1..).unwrap_or_default();
        let total = |name: &str| measured.iter().map(|w| w.counter(name)).sum::<u64>();
        let total_counts = SENT_CATEGORY_COUNTERS.map(total);
        let node_seconds = total(ACTIVE_NODE_US) as f64 / 1e6;
        let windows = measured
            .iter()
            .map(|w| {
                let counts = SENT_CATEGORY_COUNTERS.map(|name| w.counter(name));
                let ns = w.counter(ACTIVE_NODE_US) as f64 / 1e6;
                let (rdp_count, rdp_milli_sum) = w.histogram(LOOKUP_RDP_MILLI);
                WindowReport {
                    start_us: w.start_us,
                    rdp: milli_mean(rdp_milli_sum, rdp_count),
                    control_per_node_per_sec: per_node_second(control(&counts), ns),
                    per_category_per_node_per_sec: counts.map(|c| per_node_second(c, ns)),
                    mean_active_nodes: ns / (self.window_us as f64 / 1e6),
                }
            })
            .collect();
        let mut fine_counts: Vec<(&'static str, u64)> = KIND_NAMES
            .iter()
            .zip(SENT_KIND_COUNTERS)
            .map(|(&kind, name)| (kind, total(name)))
            .filter(|&(_, n)| n > 0)
            .collect();
        fine_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let accounted = self.delivered + lost;
        let (hops_sum, _) = sum_count(last, LOOKUP_HOPS);
        let (rdp_milli_sum, rdp_count) = sum_count(last, LOOKUP_RDP_MILLI);
        let mut join_latencies_us = self.join_latencies_us;
        join_latencies_us.sort_unstable();
        Report {
            issued: self.issued,
            delivered: self.delivered,
            incorrect: self.incorrect,
            lost,
            censored,
            duplicates: self.duplicates,
            drop_reports: DROP_REASON_COUNTERS.iter().map(|c| last.counter(c)).sum(),
            incorrect_rate: rate(self.incorrect, accounted),
            loss_rate: rate(lost, accounted),
            mean_rdp: milli_mean(rdp_milli_sum, rdp_count),
            mean_hops: if self.delivered > 0 {
                hops_sum as f64 / self.delivered as f64
            } else {
                0.0
            },
            control_msgs_per_node_per_sec: per_node_second(control(&total_counts), node_seconds),
            totals_per_node_per_sec: total_counts.map(|c| per_node_second(c, node_seconds)),
            node_seconds,
            bytes_per_node_per_sec: per_node_second(total(SENT_BYTES_COUNTER), node_seconds),
            slow_deliveries: last.counter(LOOKUP_SLOW),
            join_latencies_us,
            windows,
            fine_counts,
        }
    }
}

/// Nearest-rank index of quantile `q` (0.0..=1.0) in a sorted sample of
/// length `n` (0 for an empty sample).
pub fn quantile_index(n: usize, q: f64) -> usize {
    ((n.saturating_sub(1)) as f64 * q).round() as usize
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-window series entry (Figure 4's time axis).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window start, microseconds.
    pub start_us: u64,
    /// Mean RDP of lookups delivered in this window.
    pub rdp: f64,
    /// Control messages per second per node.
    pub control_per_node_per_sec: f64,
    /// Per-category messages per second per node ([`CATEGORY_NAMES`] order).
    pub per_category_per_node_per_sec: [f64; N_CATEGORIES],
    /// Mean number of active nodes during the window.
    pub mean_active_nodes: f64,
}

/// Final metrics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Lookups issued inside the measurement interval.
    pub issued: u64,
    /// Lookups delivered (first delivery).
    pub delivered: u64,
    /// Deliveries at a node that was not the key's root.
    pub incorrect: u64,
    /// Lookups never delivered within the timeout.
    pub lost: u64,
    /// Lookups still in flight at the end (excluded from rates).
    pub censored: u64,
    /// Duplicate deliveries (rerouted copies); diagnostic.
    pub duplicates: u64,
    /// Node-reported drops; diagnostic (a dropped copy may still be delivered
    /// via another copy).
    pub drop_reports: u64,
    /// `incorrect / (delivered + lost)`.
    pub incorrect_rate: f64,
    /// `lost / (delivered + lost)`.
    pub loss_rate: f64,
    /// Mean relative delay penalty.
    pub mean_rdp: f64,
    /// Mean overlay hops per delivered lookup.
    pub mean_hops: f64,
    /// Control messages (everything except first-transmission lookups) per
    /// second per active node.
    pub control_msgs_per_node_per_sec: f64,
    /// Per-category traffic per second per node ([`CATEGORY_NAMES`] order).
    pub totals_per_node_per_sec: [f64; N_CATEGORIES],
    /// Integral of active nodes over the measurement interval, in
    /// node-seconds.
    pub node_seconds: f64,
    /// Wire bytes (per the binary codec) sent per second per node,
    /// including lookups.
    pub bytes_per_node_per_sec: f64,
    /// Deliveries that took longer than one second (diagnostics).
    pub slow_deliveries: u64,
    /// Sorted join latencies, microseconds.
    pub join_latencies_us: Vec<u64>,
    /// Time series of per-window statistics.
    pub windows: Vec<WindowReport>,
    /// Per-message-variant transmission counts, largest first (diagnostics).
    pub fine_counts: Vec<(&'static str, u64)>,
}

impl Report {
    /// The `q`-quantile (0.0..=1.0) of join latency, microseconds.
    pub fn join_latency_quantile(&self, q: f64) -> Option<u64> {
        if self.join_latencies_us.is_empty() {
            return None;
        }
        Some(self.join_latencies_us[quantile_index(self.join_latencies_us.len(), q)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspastry::Id;

    fn lid(seq: u64) -> LookupId {
        LookupId { src: Id(1), seq }
    }

    /// A registry snapshot holding `counters` (any order).
    fn snap(counters: &[(&str, u64)]) -> Snapshot {
        let mut counters: Vec<(String, u64)> =
            counters.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        counters.sort();
        Snapshot {
            counters,
            histograms: Vec::new(),
        }
    }

    /// Closes `m` at `end_us` over the series cut, as the runner cuts it,
    /// from boundary snapshots `snaps` and the end-of-run snapshot `last`.
    fn close(m: Metrics, end_us: u64, snaps: &[Snapshot], last: &Snapshot) -> Report {
        let series = TsWindow::series(m.measure_start_us, m.window_us, end_us, snaps, last);
        m.finalize(end_us, &series, last)
    }

    /// The `sent.category.*` counter of `c`.
    fn sent(c: Category) -> &'static str {
        SENT_CATEGORY_COUNTERS[category_index(c)]
    }

    #[test]
    fn category_index_follows_the_report_names() {
        let ack = mspastry::Message::Ack { id: lid(1) };
        assert_eq!(
            CATEGORY_NAMES[category_index(ack.category())],
            "acks-retransmits"
        );
        assert_eq!(
            SENT_CATEGORY_COUNTERS[category_index(Category::Lookup)],
            "sent.category.lookups"
        );
    }

    #[test]
    fn warmup_events_are_ignored() {
        // Measurement starts at 1 s: one heartbeat before it, one after.
        let at_start = snap(&[(sent(Category::LeafSet), 1), ("sent.heartbeat", 1)]);
        let end = snap(&[(sent(Category::LeafSet), 2), ("sent.heartbeat", 2)]);
        let m = Metrics::new(1_000_000, 1_000_000, 60_000_000);
        let r = close(m, 2_000_000, std::slice::from_ref(&at_start), &end);
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].per_category_per_node_per_sec[1], 0.0); // no nodes
        assert_eq!(r.fine_counts, vec![("heartbeat", 1)]);
        // One node throughout: one message per node-second, not two.
        let with_node = |s: &Snapshot, us| {
            let mut s = s.clone();
            s.counters.push((ACTIVE_NODE_US.to_string(), us));
            s.counters.sort();
            s
        };
        let m = Metrics::new(1_000_000, 1_000_000, 60_000_000);
        let r = close(
            m,
            2_000_000,
            &[with_node(&at_start, 1_000_000)],
            &with_node(&end, 2_000_000),
        );
        assert_eq!(r.node_seconds, 1.0);
        assert_eq!(r.windows[0].per_category_per_node_per_sec[1], 1.0);
        assert_eq!(r.control_msgs_per_node_per_sec, 1.0);
    }
    #[test]
    fn control_traffic_normalised_by_node_seconds() {
        // 20 probes over 2 nodes * 10 s = 1 msg/s/node.
        let end = snap(&[(sent(Category::RtProbe), 20), (ACTIVE_NODE_US, 20_000_000)]);
        let m = Metrics::new(0, 10_000_000, 60_000_000);
        let r = close(m, 10_000_000, &[snap(&[])], &end);
        assert!((r.control_msgs_per_node_per_sec - 1.0).abs() < 1e-9);
        assert!((r.totals_per_node_per_sec[category_index(Category::RtProbe)] - 1.0).abs() < 1e-9);
        assert_eq!(r.windows.len(), 1);
    }

    #[test]
    fn lookups_do_not_count_as_control() {
        let end = snap(&[
            (sent(Category::Lookup), 1),
            (sent(Category::AckRetransmit), 1),
            (SENT_BYTES_COUNTER, 87),
            (ACTIVE_NODE_US, 10_000_000),
        ]);
        let m = Metrics::new(0, 10_000_000, 60_000_000);
        let r = close(m, 10_000_000, &[snap(&[])], &end);
        assert!((r.control_msgs_per_node_per_sec - 0.1).abs() < 1e-9);
        assert!(
            (r.bytes_per_node_per_sec - 8.7).abs() < 1e-9,
            "lookups' bytes count"
        );
    }
    #[test]
    fn loss_and_incorrect_rates() {
        let mut m = Metrics::new(0, 1_000_000, 10_000_000);
        // Three lookups: one correct delivery, one incorrect, one lost.
        m.sight_lookup(lid(1), 100);
        m.sight_lookup(lid(2), 100);
        m.sight_lookup(lid(3), 100);
        m.on_delivered(500_000, lid(1), 100, true);
        m.on_delivered(500_000, lid(2), 100, false);
        let r = m.finalize(100_000_000, &[], &Snapshot::default());
        assert_eq!(r.delivered, 2);
        assert_eq!(r.lost, 1);
        assert_eq!(r.incorrect, 1);
        assert!((r.loss_rate - 1.0 / 3.0).abs() < 1e-9);
        assert!((r.incorrect_rate - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn in_flight_lookups_are_censored_not_lost() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        m.sight_lookup(lid(1), 500_000);
        let r = m.finalize(1_000_000, &[], &Snapshot::default()); // well within the timeout
        assert_eq!(r.lost, 0);
        assert_eq!(r.censored, 1);
    }

    #[test]
    fn duplicate_deliveries_counted_once() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        m.sight_lookup(lid(1), 0);
        m.on_delivered(100, lid(1), 0, true);
        m.on_delivered(200, lid(1), 0, true);
        let r = m.finalize(1_000_000, &[], &Snapshot::default());
        assert_eq!(r.delivered, 1);
        assert_eq!(r.duplicates, 1);
    }

    /// Drives a steady stream: one lookup every `gap_us`, delivered 300 ms
    /// after issue, every fourth one delivered again 500 ms later. Returns
    /// the largest ledger size seen and the report.
    fn steady_stream(duration_us: u64, gap_us: u64, timeout_us: u64) -> (usize, Report) {
        let mut m = Metrics::new(0, 1_000_000, timeout_us);
        let mut max_len = 0;
        let mut seq = 0;
        let mut t = 0;
        while t + 800_000 < duration_us {
            m.sight_lookup(lid(seq), t);
            m.on_delivered(t + 300_000, lid(seq), t, true);
            if seq % 4 == 0 {
                m.on_delivered(t + 800_000, lid(seq), t, true);
            }
            max_len = max_len.max(m.ledger.len());
            seq += 1;
            t += gap_us;
        }
        (max_len, m.finalize(duration_us, &[], &Snapshot::default()))
    }

    #[test]
    fn ledger_size_follows_the_window_not_the_run_length() {
        let timeout_us = 60_000_000;
        let gap_us = 100_000; // 10 lookups/s
        let bound = (timeout_us / gap_us) as usize + 16;
        for duration_us in [timeout_us, 2 * timeout_us, 10 * timeout_us] {
            let (max_len, r) = steady_stream(duration_us, gap_us, timeout_us);
            assert!(
                max_len <= bound,
                "ledger held {max_len} > {bound} over {duration_us} us"
            );
            assert_eq!(r.delivered, r.issued);
            assert_eq!(r.lost + r.censored, 0);
            assert_eq!(r.duplicates, r.issued.div_ceil(4));
        }
    }

    #[test]
    fn duplicates_count_inside_the_window_only() {
        let mut m = Metrics::new(0, 1_000_000, 10_000_000);
        m.sight_lookup(lid(1), 0);
        m.on_delivered(1_000, lid(1), 0, true);
        // A retransmitted copy is sighted and delivered late but inside the
        // window: still a duplicate, and not re-counted as issued.
        m.sight_lookup(lid(1), 0);
        m.on_delivered(10_001_000, lid(1), 0, true);
        assert_eq!(m.ledger.len(), 1);
        // Another delivery after the window closes evicts the entry.
        m.sight_lookup(lid(2), 10_000_000);
        m.on_delivered(10_002_000, lid(2), 10_000_000, true);
        assert!(!m.ledger.contains_key(&lid(1)));
        let r = m.finalize(20_000_000, &[], &Snapshot::default());
        assert_eq!((r.issued, r.delivered, r.duplicates), (2, 2, 1));
    }

    #[test]
    fn rdp_is_overlay_over_network_delay() {
        assert_eq!(rdp_milli(2000, 1000), 2000);
        assert_eq!(rdp_milli(1000, 3), 333_333, "rounds down below .5");
        assert_eq!(rdp_milli(2000, 3), 666_667, "rounds up from .5");
        let obs = Obs::new(0.0, 1);
        let outcomes = Outcomes::register(&obs);
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        // Delivered at t=2000 with direct delay 1000 → RDP 2, and at
        // t=3000 with direct delay 1000 → RDP 3 (then a duplicate).
        for (seq, at, hops) in [(1, 2000, 2), (2, 3000, 4), (2, 5000, 9)] {
            m.sight_lookup(lid(seq), 0);
            if m.on_delivered(at, lid(seq), 0, true) {
                outcomes.record(&obs, at, 0, hops, 1000);
            }
        }
        // A self-delivery has no RDP sample, and a delivery over 1 s is slow.
        m.sight_lookup(lid(3), 0);
        assert!(m.on_delivered(0, lid(3), 0, true));
        outcomes.record(&obs, 0, 0, 0, 0);
        m.sight_lookup(lid(4), 0);
        assert!(m.on_delivered(1_500_000, lid(4), 0, true));
        outcomes.record(&obs, 1_500_000, 0, 3, 500_000);
        let snap = obs.snapshot();
        let r = close(
            m,
            1_000_000,
            std::slice::from_ref(&Snapshot::default()),
            &snap,
        );
        assert_eq!(r.delivered, 4);
        assert_eq!(r.duplicates, 1);
        assert_eq!(snap.histogram(LOOKUP_LATENCY_US).unwrap().count, 4);
        assert_eq!(snap.histogram(LOOKUP_RDP_MILLI).unwrap().count, 3);
        assert!((r.mean_rdp - 8.0 / 3.0).abs() < 1e-9, "{}", r.mean_rdp);
        assert_eq!(r.mean_hops, 9.0 / 4.0);
        assert_eq!(r.slow_deliveries, 1);
        assert_eq!(r.windows[0].rdp, r.mean_rdp);
    }

    #[test]
    fn quantile_index_is_nearest_rank() {
        assert_eq!(quantile_index(0, 0.5), 0);
        assert_eq!(quantile_index(1, 0.99), 0);
        assert_eq!(quantile_index(5, 0.0), 0);
        assert_eq!(quantile_index(5, 0.5), 2);
        assert_eq!(quantile_index(5, 1.0), 4);
        assert_eq!(quantile_index(4, 0.5), 2, "rounds to nearest rank");
    }

    #[test]
    fn join_latency_quantiles() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        for l in [5u64, 1, 3, 2, 4] {
            m.on_join_latency(l);
        }
        let r = m.finalize(1_000_000, &[], &Snapshot::default());
        assert_eq!(r.join_latency_quantile(0.0), Some(1));
        assert_eq!(r.join_latency_quantile(0.5), Some(3));
        assert_eq!(r.join_latency_quantile(1.0), Some(5));
    }

    #[test]
    fn active_node_integration_splits_windows() {
        // One node from 0, a second from 1.5 s: 1 node-second in the first
        // window, 1.5 in the second.
        let m = Metrics::new(0, 1_000_000, 60_000_000);
        let boundaries = [snap(&[]), snap(&[(ACTIVE_NODE_US, 1_000_000)])];
        let r = close(
            m,
            2_000_000,
            &boundaries,
            &snap(&[(ACTIVE_NODE_US, 2_500_000)]),
        );
        assert!((r.windows[0].mean_active_nodes - 1.0).abs() < 1e-9);
        assert!((r.windows[1].mean_active_nodes - 1.5).abs() < 1e-9);
        assert_eq!(r.node_seconds, 2.5);
    }

    #[test]
    fn fine_counts_are_largest_first_then_by_name() {
        let base = snap(&[("sent.ack", 5)]);
        let end = snap(&[
            ("sent.ack", 7),
            ("sent.leaving", 2),
            ("sent.heartbeat", 3),
            ("sent.bytes", 100),
        ]);
        let m = Metrics::new(0, 1_000_000, 60_000_000);
        let r = close(m, 1_000_000, &[base], &end);
        assert_eq!(
            r.fine_counts,
            vec![("heartbeat", 3), ("ack", 2), ("leaving", 2)]
        );
    }

    #[test]
    fn drop_reports_sum_every_reason_over_the_whole_run() {
        let end = snap(&[
            ("lookup.drop.no-route", 2),
            ("lookup.drop.buffer-overflow", 1),
            ("lookup.reroutes", 9),
        ]);
        let m = Metrics::new(0, 1_000_000, 60_000_000);
        let r = close(m, 1_000_000, std::slice::from_ref(&end), &end);
        assert_eq!(r.drop_reports, 3);
    }
}
