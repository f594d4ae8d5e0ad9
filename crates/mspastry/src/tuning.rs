//! Self-tuning of the routing-table probing period (§4.1).
//!
//! The probability of forwarding a message to a faulty node at a hop is
//! `Pf(T, µ) = 1 − (1/(Tµ))(1 − e^(−Tµ))` where `T` is the maximum failure
//! detection time and `µ` the node failure rate. With `h` expected overlay
//! hops (last hop via the leaf set, the rest via the routing table) the raw
//! loss rate is
//!
//! ```text
//! Lr = 1 − (1 − Pf(Tls + (r+1)To, µ)) · (1 − Pf(Trt + (r+1)To, µ))^(h−1)
//! ```
//!
//! MSPastry fixes `r`, `To` and `Tls` and periodically recomputes `Trt` so
//! that the raw loss rate meets a target with minimum probing traffic, using
//! local estimates of `N` (leaf-set density) and `µ` (failure history), and
//! adopting the median of the estimates piggybacked by other nodes.

use crate::config::{Config, MAX_PROBE_RETRIES, SECOND_US};
use crate::fxhash::FxHashMap;
use crate::id::NodeId;
use crate::leaf_set::LeafSet;
use std::collections::VecDeque;

/// Routing-table probing period while self-tuning is off, and a node's own
/// estimate until its first recomputation, microseconds.
pub(crate) const FIXED_T_RT_US: u64 = 30 * SECOND_US;

/// Length `K` of the failure history that estimates the failure rate µ.
pub(crate) const FAILURE_HISTORY_LEN: usize = 16;

/// Probability of forwarding to a faulty node at one hop, given maximum
/// detection time `t_us` and failure rate `mu` (failures per node per
/// microsecond).
pub fn pf(t_us: f64, mu: f64) -> f64 {
    let x = t_us * mu;
    if x <= 0.0 {
        return 0.0;
    }
    if x < 1e-6 {
        // Series expansion avoids catastrophic cancellation: Pf ≈ x/2 − x²/6.
        return (x / 2.0 - x * x / 6.0).max(0.0);
    }
    1.0 - (1.0 - (-x).exp()) / x
}

/// Expected overlay hops `(2^b − 1)/2^b · log_{2^b} N`.
pub fn expected_hops(n: f64, b: u8) -> f64 {
    if n <= 1.0 {
        return 0.0;
    }
    let base = (1u64 << b) as f64;
    (base - 1.0) / base * n.ln() / base.ln()
}

/// Raw loss rate for the given detection periods (Lr in §4.1).
pub fn raw_loss(cfg: &Config, t_rt_us: f64, mu: f64, n: f64) -> f64 {
    let h = expected_hops(n, cfg.b);
    if h < 1.0 {
        return 0.0;
    }
    let retr = (MAX_PROBE_RETRIES + 1) as f64 * cfg.t_o_us as f64;
    let p_ls = pf(cfg.t_ls_us as f64 + retr, mu);
    let p_rt = pf(t_rt_us + retr, mu);
    1.0 - (1.0 - p_ls) * (1.0 - p_rt).powf(h - 1.0)
}

/// Upper clamp for the probing period (≈ 11.5 days; effectively "no
/// probing needed").
pub const T_RT_MAX_US: u64 = 1 << 40;

/// Computes the routing-table probing period that meets the configured
/// target raw loss rate with minimum overhead, clamped to
/// `[cfg.t_rt_floor_us(), T_RT_MAX_US]`.
pub fn solve_t_rt(cfg: &Config, mu: f64, n: f64) -> u64 {
    let floor = cfg.t_rt_floor_us();
    if mu <= 0.0 || n <= 1.0 {
        return T_RT_MAX_US;
    }
    let h = expected_hops(n, cfg.b);
    let retr = (MAX_PROBE_RETRIES + 1) as f64 * cfg.t_o_us as f64;
    let p_ls = pf(cfg.t_ls_us as f64 + retr, mu);
    if h <= 1.0 {
        // Routes are a single (leaf-set) hop; routing-table probing does not
        // influence the loss rate.
        return T_RT_MAX_US;
    }
    let ratio = (1.0 - cfg.target_raw_loss) / (1.0 - p_ls).max(f64::MIN_POSITIVE);
    if ratio >= 1.0 {
        // The leaf-set hop alone exceeds the budget; probe as fast as allowed.
        return floor;
    }
    let p_rt_target = 1.0 - ratio.powf(1.0 / (h - 1.0));
    if pf(T_RT_MAX_US as f64 + retr, mu) <= p_rt_target {
        return T_RT_MAX_US;
    }
    // Invert Pf(T + retr, µ) = p_rt_target. In x := (T + retr)·µ space the
    // equation is f(x) = 1 − (1 − e⁻ˣ)/x = p, solved by safeguarded Newton:
    // f is increasing, f(x) ≈ x/2 near 0 and ≈ 1 − 1/x for large x, giving
    // the bracket-free initial guess below. This runs on every node's
    // self-tuning tick, and Newton needs ~5 exponentials where the previous
    // bisection needed 64.
    let p = p_rt_target;
    let x_max = (T_RT_MAX_US as f64 + retr) * mu;
    let mut x = (2.0 * p / (1.0 - p)).min(x_max);
    for _ in 0..32 {
        let (fx, dfx) = if x < 1e-6 {
            (x / 2.0 - x * x / 6.0, 0.5 - x / 3.0)
        } else {
            let e = (-x).exp();
            (1.0 - (1.0 - e) / x, ((1.0 - e) - x * e) / (x * x))
        };
        let step = (fx - p) / dfx;
        x -= step;
        if !x.is_finite() || x <= 0.0 {
            x = f64::MIN_POSITIVE.max(p); // safeguard; next iteration re-approaches
            continue;
        }
        // Converged once the step is far below the microsecond granularity
        // the result is truncated to.
        if step.abs() / mu < 0.25 {
            break;
        }
    }
    let t = x / mu - retr;
    (t as u64).clamp(floor, T_RT_MAX_US)
}

/// Estimates the overlay size from the density of nodeIds in the leaf set.
pub fn estimate_n(ls: &LeafSet) -> f64 {
    let members = ls.members();
    if members.is_empty() {
        return 1.0;
    }
    let (Some(lm), Some(rm)) = (ls.leftmost(), ls.rightmost()) else {
        return (members.len() + 1) as f64;
    };
    let span = lm.cw_dist(rm);
    if span == 0 {
        return (members.len() + 1) as f64;
    }
    // `members.len() + 1` nodes (incl. own) span the arc with
    // `members.len()` gaps.
    let gaps = members.len() as f64;
    let ring = 2f64.powi(128);
    (gaps * ring / span as f64).max(2.0)
}

/// Sliding window of the last `K` observed failure times (the node's join
/// time seeds the window, per the paper).
#[derive(Debug, Clone)]
pub struct FailureHistory {
    cap: usize,
    times: VecDeque<u64>,
}

impl FailureHistory {
    /// Creates a history seeded with the node's join time.
    pub fn new(cap: usize, joined_at_us: u64) -> Self {
        assert!(cap >= 2, "history must hold at least 2 entries");
        let mut times = VecDeque::with_capacity(cap);
        times.push_back(joined_at_us);
        FailureHistory { cap, times }
    }

    /// Records an observed failure.
    pub fn record(&mut self, now_us: u64) {
        if self.times.len() == self.cap {
            self.times.pop_front();
        }
        self.times.push_back(now_us);
    }

    /// Number of recorded entries (including the join marker while present).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when only the join marker is present.
    pub fn is_empty(&self) -> bool {
        self.times.len() <= 1
    }

    /// Estimates the failure rate µ in failures per node per microsecond,
    /// given `m_unique` distinct nodes currently in the routing state.
    ///
    /// If fewer than `K` failures have been observed, the estimate is
    /// computed as if a failure occurred at the current time.
    pub fn estimate_mu(&self, now_us: u64, m_unique: usize) -> f64 {
        let m = m_unique.max(1) as f64;
        let first = *self.times.front().expect("history is never empty");
        let (k, span_us) = if self.times.len() == self.cap {
            let last = *self.times.back().unwrap();
            ((self.cap - 1) as f64, last.saturating_sub(first))
        } else {
            (self.times.len() as f64, now_us.saturating_sub(first))
        };
        let span = (span_us as f64).max(1.0);
        k / (m * span)
    }
}

/// Per-node self-tuning state: failure history plus the `T_rt` hints
/// piggybacked by peers.
#[derive(Debug, Clone)]
pub struct SelfTuner {
    history: FailureHistory,
    hints: FxHashMap<NodeId, u64>,
    local_t_rt_us: u64,
}

impl SelfTuner {
    /// Creates the tuner at join time.
    pub fn new(joined_at_us: u64) -> Self {
        SelfTuner {
            history: FailureHistory::new(FAILURE_HISTORY_LEN, joined_at_us),
            hints: FxHashMap::default(),
            local_t_rt_us: FIXED_T_RT_US,
        }
    }

    /// Records an observed node failure.
    pub fn record_failure(&mut self, now_us: u64) {
        self.history.record(now_us);
    }

    /// Stores a peer's piggybacked `T_rt` estimate.
    pub fn note_hint(&mut self, from: NodeId, t_rt_us: u64) {
        self.hints.insert(from, t_rt_us);
    }

    /// Drops state for a departed peer.
    pub fn forget(&mut self, node: NodeId) {
        self.hints.remove(&node);
    }

    /// The node's own current estimate (piggybacked on outgoing messages).
    pub fn local_t_rt_us(&self) -> u64 {
        self.local_t_rt_us
    }

    /// Recomputes the local estimate from the failure history and leaf-set
    /// density and returns the *adopted* period: the median of the local
    /// estimate and the hints from nodes currently in the routing state.
    pub fn recompute(
        &mut self,
        cfg: &Config,
        now_us: u64,
        m_unique: usize,
        ls: &LeafSet,
        routing_state: &[NodeId],
    ) -> u64 {
        let mu = self.history.estimate_mu(now_us, m_unique);
        let n = estimate_n(ls);
        self.local_t_rt_us = solve_t_rt(cfg, mu, n);
        self.adopted(routing_state)
    }

    /// The median of the local estimate and the current routing-state peers'
    /// hints.
    pub fn adopted(&self, routing_state: &[NodeId]) -> u64 {
        let mut vals: Vec<u64> = routing_state
            .iter()
            .filter_map(|n| self.hints.get(n).copied())
            .collect();
        vals.push(self.local_t_rt_us);
        vals.sort_unstable();
        vals[vals.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    #[test]
    fn pf_limits() {
        assert_eq!(pf(0.0, 1e-9), 0.0);
        assert_eq!(pf(1e6, 0.0), 0.0);
        // Large Tµ → Pf → 1.
        assert!(pf(1e13, 1e-9) > 0.99);
        // Small Tµ → Pf ≈ Tµ/2.
        let x = 1e-8;
        assert!((pf(1.0, x) - x / 2.0).abs() < 1e-12);
    }

    #[test]
    fn pf_is_monotonic_in_t() {
        let mu = 1e-10;
        let mut prev = 0.0;
        for t in [1e6, 1e7, 1e8, 1e9, 1e10] {
            let v = pf(t, mu);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn expected_hops_matches_formula() {
        // b=4, N=10000: 15/16 * log_16(10000) ≈ 3.11.
        let h = expected_hops(10_000.0, 4);
        assert!((h - 3.114).abs() < 0.01, "h = {h}");
        assert_eq!(expected_hops(1.0, 4), 0.0);
    }

    #[test]
    fn solve_t_rt_meets_the_target() {
        let cfg = Config::default();
        // Gnutella-like failure rate: 2e-4 per node per second.
        let mu = 2e-4 / 1e6;
        let n = 2000.0;
        let t_rt = solve_t_rt(&cfg, mu, n);
        assert!(t_rt >= cfg.t_rt_floor_us());
        let achieved = raw_loss(&cfg, t_rt as f64, mu, n);
        assert!(
            (achieved - cfg.target_raw_loss).abs() < 0.01 || t_rt == cfg.t_rt_floor_us(),
            "achieved {achieved} with t_rt {t_rt}"
        );
    }

    #[test]
    fn newton_solver_matches_bisection_oracle() {
        // The pre-Newton implementation: invert Pf by 64-step bisection.
        fn bisect(cfg: &Config, mu: f64, n: f64) -> u64 {
            let floor = cfg.t_rt_floor_us();
            if mu <= 0.0 || n <= 1.0 {
                return T_RT_MAX_US;
            }
            let h = expected_hops(n, cfg.b);
            let retr = (MAX_PROBE_RETRIES + 1) as f64 * cfg.t_o_us as f64;
            let p_ls = pf(cfg.t_ls_us as f64 + retr, mu);
            if h <= 1.0 {
                return T_RT_MAX_US;
            }
            let ratio = (1.0 - cfg.target_raw_loss) / (1.0 - p_ls).max(f64::MIN_POSITIVE);
            if ratio >= 1.0 {
                return floor;
            }
            let p_rt_target = 1.0 - ratio.powf(1.0 / (h - 1.0));
            let mut lo = 0.0f64;
            let mut hi = T_RT_MAX_US as f64;
            if pf(hi + retr, mu) <= p_rt_target {
                return T_RT_MAX_US;
            }
            for _ in 0..64 {
                let mid = (lo + hi) / 2.0;
                if pf(mid + retr, mu) < p_rt_target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (hi as u64).clamp(floor, T_RT_MAX_US)
        }
        let cfg = Config::default();
        for n in [1.5, 2.0, 8.0, 50.0, 500.0, 2000.0, 50_000.0] {
            for e in -10..=-2 {
                let mu = 10f64.powi(e); // failures per node-µs
                let want = bisect(&cfg, mu, n);
                let got = solve_t_rt(&cfg, mu, n);
                // Allow a sliver of slack: bisection itself is only exact to
                // its final interval width.
                let tol = (want / 10_000).max(2);
                assert!(
                    got.abs_diff(want) <= tol,
                    "mu=1e{e} n={n}: newton {got} vs bisection {want}"
                );
            }
        }
    }

    #[test]
    fn solve_t_rt_is_decreasing_in_mu() {
        let cfg = Config::default();
        let n = 2000.0;
        let fast = solve_t_rt(&cfg, 1e-3 / 1e6, n);
        let slow = solve_t_rt(&cfg, 1e-5 / 1e6, n);
        assert!(fast <= slow, "higher churn must probe at least as fast");
    }

    #[test]
    fn solve_t_rt_handles_degenerate_inputs() {
        let cfg = Config::default();
        assert_eq!(solve_t_rt(&cfg, 0.0, 1000.0), T_RT_MAX_US);
        assert_eq!(solve_t_rt(&cfg, 1e-9, 1.0), T_RT_MAX_US);
        // Extremely high churn pegs the floor.
        assert_eq!(solve_t_rt(&cfg, 1e-2 / 1e6, 10_000.0), cfg.t_rt_floor_us());
    }

    #[test]
    fn lower_target_means_faster_probing() {
        let mut cfg = Config::default();
        let mu = 2e-4 / 1e6;
        cfg.target_raw_loss = 0.05;
        let t5 = solve_t_rt(&cfg, mu, 2000.0);
        cfg.target_raw_loss = 0.01;
        let t1 = solve_t_rt(&cfg, mu, 2000.0);
        assert!(
            t1 < t5,
            "1% target must probe faster than 5% ({t1} vs {t5})"
        );
    }

    #[test]
    fn estimate_n_from_leafset_density() {
        // 8 nodes evenly spaced on the ring; own sees 4 on each side with
        // half = 4.
        let n = 8u32;
        let spacing = u128::MAX / n as u128;
        let own = Id(0);
        let mut ls = LeafSet::new(own, 4);
        for i in 1..n {
            ls.add(Id(spacing * i as u128));
        }
        let est = estimate_n(&ls);
        assert!(
            (est / n as f64 - 1.0).abs() < 0.3,
            "estimated {est} for true {n}"
        );
    }

    #[test]
    fn estimate_n_singleton_is_one() {
        let ls = LeafSet::new(Id(1), 4);
        assert_eq!(estimate_n(&ls), 1.0);
    }

    #[test]
    fn failure_history_estimates_rate() {
        // 1 failure per 10 s across 50 nodes → µ = 1/(50*10s) = 2e-3 per
        // node per second... with the window full.
        let mut h = FailureHistory::new(8, 0);
        for i in 1..=8u64 {
            h.record(i * 10 * SECOND_US);
        }
        let mu = h.estimate_mu(80 * SECOND_US, 50);
        let expected = 7.0 / (50.0 * 70.0 * SECOND_US as f64);
        assert!((mu / expected - 1.0).abs() < 1e-9, "mu {mu}");
    }

    #[test]
    fn failure_history_partial_uses_now() {
        let mut h = FailureHistory::new(16, 0);
        h.record(10 * SECOND_US);
        let mu = h.estimate_mu(100 * SECOND_US, 10);
        let expected = 2.0 / (10.0 * 100.0 * SECOND_US as f64);
        assert!((mu / expected - 1.0).abs() < 1e-9, "mu {mu}");
    }

    #[test]
    fn tuner_adopts_median_of_hints() {
        let mut t = SelfTuner::new(0);
        t.local_t_rt_us = 50;
        let peers: Vec<Id> = (1..=4u128).map(Id).collect();
        t.note_hint(peers[0], 10);
        t.note_hint(peers[1], 20);
        t.note_hint(peers[2], 90);
        t.note_hint(peers[3], 100);
        let adopted = t.adopted(&peers);
        assert_eq!(adopted, 50, "median of [10,20,50,90,100]");
        // Hints from nodes outside the routing state are ignored.
        let adopted = t.adopted(&peers[..1]);
        assert_eq!(adopted, 50, "median of [10,50]");
    }

    #[test]
    fn tuner_forget_removes_hints() {
        let mut t = SelfTuner::new(0);
        t.note_hint(Id(1), 10);
        t.forget(Id(1));
        assert_eq!(t.adopted(&[Id(1)]), t.local_t_rt_us());
    }
}
