//! Metric collection for the paper's evaluation (§5.2).
//!
//! Dependability: *incorrect delivery rate* (lookups delivered by a node that
//! is not the key's current root) and *loss rate* (lookups never delivered).
//! Performance: *relative delay penalty* (RDP — overlay delay over network
//! delay between the same nodes) and *control traffic* (messages per second
//! per node, everything except first-transmission lookups), optionally broken
//! down by message type as in Figure 4.
//!
//! Traffic is counted once, in the run's [`obs`] registry (`sent.*` per
//! send, [`ACTIVE_NODE_US`] for node-time); [`Metrics::finalize`] derives
//! the traffic figures from registry snapshots taken at the window
//! boundaries. [`Metrics`] itself keeps the lookup-outcome ledger.

use crate::fxhash::FxHashMap;
use mspastry::diag::DROP_REASON_COUNTERS;
use mspastry::messages::{
    KIND_NAMES, SENT_BYTES_COUNTER, SENT_CATEGORY_COUNTERS, SENT_KIND_COUNTERS,
};
use mspastry::{Category, LookupId};
use obs::Snapshot;
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

/// Traffic between two registry snapshots.
#[derive(Debug, Default)]
struct Traffic {
    /// Messages sent per category, [`CATEGORY_NAMES`] order.
    counts: [u64; N_CATEGORIES],
    bytes: u64,
    node_us: u64,
}

impl Traffic {
    fn between(from: &Snapshot, to: &Snapshot) -> Self {
        let delta = |name: &str| to.counter(name) - from.counter(name);
        Traffic {
            counts: SENT_CATEGORY_COUNTERS.map(delta),
            bytes: delta(SENT_BYTES_COUNTER),
            node_us: delta(ACTIVE_NODE_US),
        }
    }

    fn control(&self) -> u64 {
        self.counts[..5].iter().sum()
    }
}

/// `count / node_seconds`, or 0 when no node was active.
fn per_node_second(count: u64, node_seconds: f64) -> f64 {
    if node_seconds > 0.0 {
        count as f64 / node_seconds
    } else {
        0.0
    }
}

/// Per-window RDP accumulator.
#[derive(Debug, Clone, Default)]
struct Window {
    rdp_sum: f64,
    rdp_count: u64,
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

/// The lookup-outcome ledger of one run: issued, delivered, lost, incorrect
/// and duplicate lookups, hops, RDP and join latencies.
#[derive(Debug)]
pub struct Metrics {
    measure_start_us: u64,
    window_us: u64,
    lookup_timeout_us: u64,
    windows: Vec<Window>,
    ledger: FxHashMap<LookupId, LedgerEntry>,
    /// Delivered ledger entries in delivery order, each with the time after
    /// which it is evicted.
    expiry: VecDeque<(u64, LookupId)>,
    issued: u64,
    delivered: u64,
    incorrect: u64,
    duplicates: u64,
    hops_sum: u64,
    rdp_sum: f64,
    rdp_count: u64,
    join_latencies_us: Vec<u64>,
    slow_deliveries: u64,
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
            windows: Vec::new(),
            ledger: FxHashMap::default(),
            expiry: VecDeque::new(),
            issued: 0,
            delivered: 0,
            incorrect: 0,
            duplicates: 0,
            hops_sum: 0,
            rdp_sum: 0.0,
            rdp_count: 0,
            join_latencies_us: Vec::new(),
            slow_deliveries: 0,
        }
    }

    fn window_mut(&mut self, now_us: u64) -> Option<&mut Window> {
        if now_us < self.measure_start_us {
            return None;
        }
        let idx = ((now_us - self.measure_start_us) / self.window_us) as usize;
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, Window::default());
        }
        Some(&mut self.windows[idx])
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

    /// Records a delivery. `direct_delay_us == 0` (self-delivery) skips the
    /// RDP sample. A copy delivered within `lookup_timeout_us` of the first
    /// delivery counts as a duplicate.
    pub fn on_delivered(
        &mut self,
        now_us: u64,
        id: LookupId,
        issued_at_us: u64,
        correct: bool,
        hops: u32,
        direct_delay_us: u64,
    ) {
        self.evict_delivered(now_us);
        self.sight_lookup(id, issued_at_us);
        let entry = self.ledger.get_mut(&id).expect("sighted above");
        if entry.delivered {
            self.duplicates += 1;
            return;
        }
        entry.delivered = true;
        let p = *entry;
        self.expiry
            .push_back((now_us.saturating_add(self.lookup_timeout_us), id));
        if !p.tracked {
            return;
        }
        self.delivered += 1;
        self.hops_sum += hops as u64;
        if !correct {
            self.incorrect += 1;
        }
        if direct_delay_us > 0 && now_us > p.issued_at_us {
            let delay = now_us - p.issued_at_us;
            if delay > 1_000_000 {
                self.slow_deliveries += 1;
            }
            let rdp = (now_us - p.issued_at_us) as f64 / direct_delay_us as f64;
            self.rdp_sum += rdp;
            self.rdp_count += 1;
            if let Some(w) = self.window_mut(now_us) {
                w.rdp_sum += rdp;
                w.rdp_count += 1;
            }
        }
    }

    /// Records a join latency sample.
    pub fn on_join_latency(&mut self, latency_us: u64) {
        self.join_latencies_us.push(latency_us);
    }

    /// Closes the run at `end_us` and produces the report. `boundaries`
    /// are the run's registry snapshots at each window boundary before
    /// `end_us` (`measure_start_us + k·window_us`, each taken before any
    /// event at that instant) and `last` the snapshot at the end: the
    /// traffic figures are their deltas, and `drop_reports` sums `last`'s
    /// drop counters.
    pub fn finalize(self, end_us: u64, boundaries: &[Snapshot], last: &Snapshot) -> Report {
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
        // No boundary reached: nothing was measured.
        let base = boundaries.first().unwrap_or(last);
        let total = Traffic::between(base, last);
        let ends = boundaries.iter().skip(1).chain(std::iter::once(last));
        let traffic: Vec<Traffic> = boundaries
            .iter()
            .zip(ends)
            .map(|(from, to)| Traffic::between(from, to))
            .collect();
        let node_seconds = total.node_us as f64 / 1e6;
        let n_windows = traffic.len().max(self.windows.len());
        let mut windows = Vec::with_capacity(n_windows);
        let quiet = Traffic::default();
        for i in 0..n_windows {
            let t = traffic.get(i).unwrap_or(&quiet);
            let w = self.windows.get(i).cloned().unwrap_or_default();
            let ns = t.node_us as f64 / 1e6;
            windows.push(WindowReport {
                start_us: self.measure_start_us + i as u64 * self.window_us,
                rdp: if w.rdp_count > 0 {
                    w.rdp_sum / w.rdp_count as f64
                } else {
                    0.0
                },
                control_per_node_per_sec: per_node_second(t.control(), ns),
                per_category_per_node_per_sec: t.counts.map(|c| per_node_second(c, ns)),
                mean_active_nodes: ns / (self.window_us as f64 / 1e6),
            });
        }
        let mut fine_counts: Vec<(&'static str, u64)> = KIND_NAMES
            .iter()
            .zip(SENT_KIND_COUNTERS)
            .map(|(&kind, name)| (kind, last.counter(name) - base.counter(name)))
            .filter(|&(_, n)| n > 0)
            .collect();
        fine_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let accounted = self.delivered + lost;
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
            mean_rdp: if self.rdp_count > 0 {
                self.rdp_sum / self.rdp_count as f64
            } else {
                0.0
            },
            mean_hops: if self.delivered > 0 {
                self.hops_sum as f64 / self.delivered as f64
            } else {
                0.0
            },
            control_msgs_per_node_per_sec: per_node_second(total.control(), node_seconds),
            totals_per_node_per_sec: total.counts.map(|c| per_node_second(c, node_seconds)),
            node_seconds,
            bytes_per_node_per_sec: per_node_second(total.bytes, node_seconds),
            slow_deliveries: self.slow_deliveries,
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
        let r = m.finalize(2_000_000, std::slice::from_ref(&at_start), &end);
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
        let r = m.finalize(
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
        let r = m.finalize(10_000_000, &[snap(&[])], &end);
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
        let r = m.finalize(10_000_000, &[snap(&[])], &end);
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
        m.on_delivered(500_000, lid(1), 100, true, 3, 1000);
        m.on_delivered(500_000, lid(2), 100, false, 3, 1000);
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
        m.on_delivered(100, lid(1), 0, true, 1, 50);
        m.on_delivered(200, lid(1), 0, true, 1, 50);
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
            m.on_delivered(t + 300_000, lid(seq), t, true, 2, 1000);
            if seq % 4 == 0 {
                m.on_delivered(t + 800_000, lid(seq), t, true, 3, 1000);
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
        m.on_delivered(1_000, lid(1), 0, true, 1, 50);
        // A retransmitted copy is sighted and delivered late but inside the
        // window: still a duplicate, and not re-counted as issued.
        m.sight_lookup(lid(1), 0);
        m.on_delivered(10_001_000, lid(1), 0, true, 1, 50);
        assert_eq!(m.ledger.len(), 1);
        // Another delivery after the window closes evicts the entry.
        m.sight_lookup(lid(2), 10_000_000);
        m.on_delivered(10_002_000, lid(2), 10_000_000, true, 1, 50);
        assert!(!m.ledger.contains_key(&lid(1)));
        let r = m.finalize(20_000_000, &[], &Snapshot::default());
        assert_eq!((r.issued, r.delivered, r.duplicates), (2, 2, 1));
    }

    #[test]
    fn rdp_is_overlay_over_network_delay() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        m.sight_lookup(lid(1), 0);
        // Delivered at t=2000 with direct delay 1000 → RDP 2.
        m.on_delivered(2000, lid(1), 0, true, 2, 1000);
        let r = m.finalize(1_000_000, &[], &Snapshot::default());
        assert!((r.mean_rdp - 2.0).abs() < 1e-9);
        assert!((r.mean_hops - 2.0).abs() < 1e-9);
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
        let r = m.finalize(
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
        let r = m.finalize(1_000_000, &[base], &end);
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
        let r = m.finalize(1_000_000, std::slice::from_ref(&end), &end);
        assert_eq!(r.drop_reports, 3);
    }
}
