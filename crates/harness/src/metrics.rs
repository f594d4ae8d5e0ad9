//! Metric collection for the paper's evaluation (§5.2).
//!
//! Dependability: *incorrect delivery rate* (lookups delivered by a node that
//! is not the key's current root) and *loss rate* (lookups never delivered).
//! Performance: *relative delay penalty* (RDP — overlay delay over network
//! delay between the same nodes) and *control traffic* (messages per second
//! per node, everything except first-transmission lookups), optionally broken
//! down by message type as in Figure 4.

use crate::fxhash::FxHashMap;
use mspastry::{Category, LookupId};
use std::collections::VecDeque;

/// Number of message categories tracked.
pub const N_CATEGORIES: usize = 6;

/// Stable index of a category in the per-window count arrays.
pub fn category_index(c: Category) -> usize {
    match c {
        Category::DistanceProbe => 0,
        Category::LeafSet => 1,
        Category::RtProbe => 2,
        Category::AckRetransmit => 3,
        Category::Join => 4,
        Category::Lookup => 5,
    }
}

/// Human-readable category names, indexed by [`category_index`].
pub const CATEGORY_NAMES: [&str; N_CATEGORIES] = [
    "distance-probes",
    "leafset-hb-probes",
    "rt-probes",
    "acks-retransmits",
    "join",
    "lookups",
];

#[derive(Debug, Clone, Default)]
struct Window {
    counts: [u64; N_CATEGORIES],
    rdp_sum: f64,
    rdp_count: u64,
    node_us: f64,
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

/// Collects all run metrics.
#[derive(Debug)]
pub struct Metrics {
    measure_start_us: u64,
    window_us: u64,
    lookup_timeout_us: u64,
    windows: Vec<Window>,
    active_now: usize,
    last_active_us: u64,
    ledger: FxHashMap<LookupId, LedgerEntry>,
    /// Delivered ledger entries in delivery order, each with the time after
    /// which it is evicted.
    expiry: VecDeque<(u64, LookupId)>,
    issued: u64,
    delivered: u64,
    incorrect: u64,
    duplicates: u64,
    dropped_reports: u64,
    hops_sum: u64,
    rdp_sum: f64,
    rdp_count: u64,
    join_latencies_us: Vec<u64>,
    totals: [u64; N_CATEGORIES],
    bytes_total: u64,
    slow_deliveries: u64,
    fine: FxHashMap<&'static str, u64>,
    lost: u64,
    censored: u64,
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
            active_now: 0,
            last_active_us: measure_start_us,
            ledger: FxHashMap::default(),
            expiry: VecDeque::new(),
            issued: 0,
            delivered: 0,
            incorrect: 0,
            duplicates: 0,
            dropped_reports: 0,
            hops_sum: 0,
            rdp_sum: 0.0,
            rdp_count: 0,
            join_latencies_us: Vec::new(),
            totals: [0; N_CATEGORIES],
            bytes_total: 0,
            slow_deliveries: 0,
            fine: FxHashMap::default(),
            lost: 0,
            censored: 0,
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

    /// Integrates the active-node count up to `now_us` and applies `delta`.
    pub fn set_active_delta(&mut self, now_us: u64, delta: i64) {
        self.integrate_active(now_us);
        self.active_now = (self.active_now as i64 + delta).max(0) as usize;
    }

    fn integrate_active(&mut self, now_us: u64) {
        let mut t = self.last_active_us.max(self.measure_start_us);
        let end = now_us.max(t);
        let active = self.active_now as f64;
        while t < end {
            let idx = ((t - self.measure_start_us) / self.window_us) as usize;
            let wend = self.measure_start_us + (idx as u64 + 1) * self.window_us;
            let seg = end.min(wend) - t;
            if self.windows.len() <= idx {
                self.windows.resize(idx + 1, Window::default());
            }
            self.windows[idx].node_us += active * seg as f64;
            t += seg;
        }
        self.last_active_us = now_us.max(self.last_active_us);
    }

    /// Records a message transmission of `wire_bytes` bytes.
    pub fn on_send(&mut self, now_us: u64, category: Category, wire_bytes: usize) {
        let idx = category_index(category);
        if let Some(w) = self.window_mut(now_us) {
            w.counts[idx] += 1;
            self.totals[idx] += 1;
            self.bytes_total += wire_bytes as u64;
        }
    }

    /// Records a fine-grained per-variant count (diagnostics).
    pub fn on_send_kind(&mut self, now_us: u64, kind: &'static str) {
        if now_us >= self.measure_start_us {
            *self.fine.entry(kind).or_insert(0) += 1;
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

    /// Records a drop report from a node (diagnostic only; loss is measured
    /// by never-delivered lookups).
    pub fn on_drop_report(&mut self) {
        self.dropped_reports += 1;
    }

    /// Records a join latency sample.
    pub fn on_join_latency(&mut self, latency_us: u64) {
        self.join_latencies_us.push(latency_us);
    }

    /// Closes the run at `end_us` and produces the report.
    pub fn finalize(mut self, end_us: u64) -> Report {
        self.integrate_active(end_us);
        for p in self.ledger.values() {
            if p.delivered || !p.tracked {
                continue;
            }
            if p.issued_at_us + self.lookup_timeout_us <= end_us {
                self.lost += 1;
            } else {
                self.censored += 1;
            }
        }
        let node_seconds: f64 = self.windows.iter().map(|w| w.node_us).sum::<f64>() / 1e6;
        let control_total: u64 = self.totals[..5].iter().sum();
        let mut windows = Vec::with_capacity(self.windows.len());
        for (i, w) in self.windows.iter().enumerate() {
            let ns = w.node_us / 1e6;
            let per_cat = std::array::from_fn(|c| {
                if ns > 0.0 {
                    w.counts[c] as f64 / ns
                } else {
                    0.0
                }
            });
            let control: u64 = w.counts[..5].iter().sum();
            windows.push(WindowReport {
                start_us: self.measure_start_us + i as u64 * self.window_us,
                rdp: if w.rdp_count > 0 {
                    w.rdp_sum / w.rdp_count as f64
                } else {
                    0.0
                },
                control_per_node_per_sec: if ns > 0.0 { control as f64 / ns } else { 0.0 },
                per_category_per_node_per_sec: per_cat,
                mean_active_nodes: ns / (self.window_us as f64 / 1e6),
            });
        }
        let accounted = self.delivered + self.lost;
        let mut join_latencies_us = self.join_latencies_us;
        join_latencies_us.sort_unstable();
        Report {
            issued: self.issued,
            delivered: self.delivered,
            incorrect: self.incorrect,
            lost: self.lost,
            censored: self.censored,
            duplicates: self.duplicates,
            drop_reports: self.dropped_reports,
            incorrect_rate: rate(self.incorrect, accounted),
            loss_rate: rate(self.lost, accounted),
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
            control_msgs_per_node_per_sec: if node_seconds > 0.0 {
                control_total as f64 / node_seconds
            } else {
                0.0
            },
            totals_per_node_per_sec: std::array::from_fn(|c| {
                if node_seconds > 0.0 {
                    self.totals[c] as f64 / node_seconds
                } else {
                    0.0
                }
            }),
            node_seconds,
            bytes_per_node_per_sec: if node_seconds > 0.0 {
                self.bytes_total as f64 / node_seconds
            } else {
                0.0
            },
            slow_deliveries: self.slow_deliveries,
            join_latencies_us,
            windows,
            fine_counts: {
                let mut v: Vec<(&'static str, u64)> = self.fine.into_iter().collect();
                v.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
                v
            },
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

    #[test]
    fn warmup_events_are_ignored() {
        let mut m = Metrics::new(1_000_000, 1_000_000, 60_000_000);
        m.on_send(500_000, Category::LeafSet, 10);
        m.on_send(1_500_000, Category::LeafSet, 10);
        let r = m.finalize(2_000_000);
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].per_category_per_node_per_sec[1], 0.0); // no nodes
    }

    #[test]
    fn control_traffic_normalised_by_node_seconds() {
        let mut m = Metrics::new(0, 10_000_000, 60_000_000);
        m.set_active_delta(0, 2); // 2 nodes from t=0
        for i in 0..20 {
            m.on_send(i * 500_000, Category::RtProbe, 9);
        }
        let r = m.finalize(10_000_000);
        // 20 messages over 2 nodes * 10 s = 1 msg/s/node.
        assert!((r.control_msgs_per_node_per_sec - 1.0).abs() < 1e-9);
        assert!((r.totals_per_node_per_sec[category_index(Category::RtProbe)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lookups_do_not_count_as_control() {
        let mut m = Metrics::new(0, 10_000_000, 60_000_000);
        m.set_active_delta(0, 1);
        m.on_send(1, Category::Lookup, 62);
        m.on_send(2, Category::AckRetransmit, 25);
        let r = m.finalize(10_000_000);
        assert!((r.control_msgs_per_node_per_sec - 0.1).abs() < 1e-9);
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
        let r = m.finalize(100_000_000);
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
        let r = m.finalize(1_000_000); // well within the timeout
        assert_eq!(r.lost, 0);
        assert_eq!(r.censored, 1);
    }

    #[test]
    fn duplicate_deliveries_counted_once() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        m.sight_lookup(lid(1), 0);
        m.on_delivered(100, lid(1), 0, true, 1, 50);
        m.on_delivered(200, lid(1), 0, true, 1, 50);
        let r = m.finalize(1_000_000);
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
        (max_len, m.finalize(duration_us))
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
        let r = m.finalize(20_000_000);
        assert_eq!((r.issued, r.delivered, r.duplicates), (2, 2, 1));
    }

    #[test]
    fn rdp_is_overlay_over_network_delay() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        m.sight_lookup(lid(1), 0);
        // Delivered at t=2000 with direct delay 1000 → RDP 2.
        m.on_delivered(2000, lid(1), 0, true, 2, 1000);
        let r = m.finalize(1_000_000);
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
        let r = m.finalize(1_000_000);
        assert_eq!(r.join_latency_quantile(0.0), Some(1));
        assert_eq!(r.join_latency_quantile(0.5), Some(3));
        assert_eq!(r.join_latency_quantile(1.0), Some(5));
    }

    #[test]
    fn active_node_integration_splits_windows() {
        let mut m = Metrics::new(0, 1_000_000, 60_000_000);
        m.set_active_delta(0, 1);
        m.set_active_delta(1_500_000, 1); // second node joins mid-window-2
        let r = m.finalize(2_000_000);
        assert!((r.windows[0].mean_active_nodes - 1.0).abs() < 1e-9);
        assert!((r.windows[1].mean_active_nodes - 1.5).abs() < 1e-9);
    }
}
