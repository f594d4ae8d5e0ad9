//! Protocol configuration.
//!
//! [`Config::default`] is the paper's *base configuration*: `b = 4`, `l = 32`,
//! `Tls = 30 s`, per-hop acks, routing-table probing self-tuned with a target
//! raw loss rate `Lr = 5 %`, and probe suppression. The values the paper
//! never varies are constants beside the code that reads them:
//! [`MAX_PROBE_RETRIES`] here, `FIXED_T_RT_US` and `FAILURE_HISTORY_LEN`
//! for self-tuning, `ACK_MAX_REROUTES` and [`crate::ROOT_RETX_ATTEMPTS`]
//! for per-hop acks, and [`crate::JOIN_BUFFER_CAP`] for joining nodes.
//! Distance measurements always take the median of three probes,
//! nearest-neighbour search one, and probes are symmetric (§4.2).

/// One second in the microsecond clock used throughout.
pub const SECOND_US: u64 = 1_000_000;

/// Probe retries `r` before a silent node is marked faulty (§3.2; paper:
/// 2). A node is declared dead `(r+1)·To` after its first unanswered probe.
pub const MAX_PROBE_RETRIES: u32 = 2;

/// MSPastry protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Digit width in bits (nodeIds and keys are read in base 2^b).
    pub b: u8,
    /// Leaf set size `l`; the leaf set holds `l/2` nodes on each side.
    pub leaf_set_size: usize,
    /// Leaf-set heartbeat period `Tls`, microseconds.
    pub t_ls_us: u64,
    /// Probe timeout `To`, microseconds (paper: 3 s, the TCP SYN timeout).
    pub t_o_us: u64,
    /// Enable per-hop acknowledgements and rerouting (§3.2).
    pub per_hop_acks: bool,
    /// Enable active liveness probing of routing-table entries (§3.2).
    pub active_rt_probing: bool,
    /// Enable self-tuning of the routing-table probing period (§4.1). When
    /// disabled, the fixed 30 s period `tuning::FIXED_T_RT_US` is used.
    pub self_tuning: bool,
    /// Target raw loss rate `Lr` for self-tuning (paper: 0.05).
    pub target_raw_loss: f64,
    /// Period of the self-tuning recomputation, microseconds.
    pub self_tune_period_us: u64,
    /// Suppress failure-detection messages when regular traffic already
    /// proves liveness (§4.1).
    pub probe_suppression: bool,
    /// Spacing between distance probes of one measurement, microseconds.
    pub distance_probe_spacing_us: u64,
    /// Timeout of a nearest-neighbour distance probe, microseconds. Shorter
    /// than `To` and never retried: a dead candidate should cost little join
    /// latency.
    pub nn_probe_timeout_us: u64,
    /// Run the nearest-neighbour seed-discovery algorithm before joining.
    pub nearest_neighbor_join: bool,
    /// Period of the routing-table maintenance protocol, microseconds
    /// (paper: 20 minutes).
    pub rt_maintenance_period_us: u64,
    /// Minimum per-hop ack retransmission timeout, microseconds. Aggressive
    /// by design: Pastry has redundant routes at every hop but the last.
    pub ack_rto_min_us: u64,
    /// Initial per-hop RTO before any sample for a peer, microseconds.
    pub ack_rto_initial_us: u64,
    /// After the root retransmission budget
    /// ([`crate::ROOT_RETX_ATTEMPTS`]), exclude the silent root from routing
    /// and deliver at the now-closest node (the paper's default; improves
    /// latency at a tiny consistency cost under message loss). When `false`,
    /// keep retransmitting until the root's failure probe resolves — the
    /// paper's "improve consistency at the expense of latency" variant.
    pub exclude_root_on_ack_timeout: bool,
    /// Join retry period while a node has not become active, microseconds.
    pub join_retry_us: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            b: 4,
            leaf_set_size: 32,
            t_ls_us: 30 * SECOND_US,
            t_o_us: 3 * SECOND_US,
            per_hop_acks: true,
            active_rt_probing: true,
            self_tuning: true,
            target_raw_loss: 0.05,
            self_tune_period_us: 60 * SECOND_US,
            probe_suppression: true,
            distance_probe_spacing_us: SECOND_US,
            nn_probe_timeout_us: 1_500_000,
            nearest_neighbor_join: true,
            rt_maintenance_period_us: 20 * 60 * SECOND_US,
            ack_rto_min_us: 20_000,
            ack_rto_initial_us: 500_000,
            exclude_root_on_ack_timeout: true,
            join_retry_us: 30 * SECOND_US,
        }
    }
}

impl Config {
    /// Half leaf-set size (`l/2` nodes per side).
    pub fn leaf_half(&self) -> usize {
        self.leaf_set_size / 2
    }

    /// Lower bound on the routing-table probing period:
    /// `(MAX_PROBE_RETRIES + 1) * To`.
    pub fn t_rt_floor_us(&self) -> u64 {
        (MAX_PROBE_RETRIES as u64 + 1) * self.t_o_us
    }

    /// Leaf-set failure-detection time `Tls + (r+1)·To` (§4.1): the longest
    /// a silent leaf-set neighbour goes unnoticed. It also bounds how long
    /// a node retransmits one lookup to the same root (DESIGN.md §3).
    pub fn leaf_set_detection_us(&self) -> u64 {
        self.t_ls_us.saturating_add(self.t_rt_floor_us())
    }

    /// Duplicate-suppression horizon `W = 2·(Tls + (r+1)·To)`: how long a
    /// node remembers a lookup id so that later copies (§3.2
    /// retransmissions and reroutes) are acked but not processed again.
    /// Derived in DESIGN.md §3; 78 s with the defaults.
    pub fn duplicate_window_us(&self) -> u64 {
        self.leaf_set_detection_us().saturating_mul(2)
    }

    /// Validates parameter combinations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=8).contains(&self.b) {
            return Err(format!("b must be in 1..=8, got {}", self.b));
        }
        if self.leaf_set_size < 2 || !self.leaf_set_size.is_multiple_of(2) {
            return Err(format!(
                "leaf set size must be even and >= 2, got {}",
                self.leaf_set_size
            ));
        }
        // A join reply lists the `l` members plus the root, and the codec
        // accepts no list longer than `MAX_LIST`.
        if self.leaf_set_size + 1 > crate::codec::MAX_LIST {
            return Err(format!(
                "leaf set size must be below {}, got {}",
                crate::codec::MAX_LIST,
                self.leaf_set_size
            ));
        }
        if self.t_o_us == 0 || self.t_ls_us == 0 {
            return Err("timeouts must be positive".into());
        }
        if !(0.0..1.0).contains(&self.target_raw_loss) || self.target_raw_loss <= 0.0 {
            return Err(format!(
                "target raw loss must be in (0, 1), got {}",
                self.target_raw_loss
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_base_configuration() {
        let c = Config::default();
        assert_eq!(c.b, 4);
        assert_eq!(c.leaf_set_size, 32);
        assert_eq!(c.t_ls_us, 30 * SECOND_US);
        assert_eq!(c.t_o_us, 3 * SECOND_US);
        assert!(c.per_hop_acks && c.active_rt_probing && c.self_tuning);
        assert!((c.target_raw_loss - 0.05).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn floor_is_retries_plus_one_times_to() {
        let c = Config::default();
        assert_eq!(c.t_rt_floor_us(), 9 * SECOND_US);
    }

    #[test]
    fn duplicate_window_is_two_leaf_set_detection_times() {
        let c = Config::default();
        assert_eq!(c.leaf_set_detection_us(), 39 * SECOND_US);
        assert_eq!(c.duplicate_window_us(), 78 * SECOND_US);
    }

    #[test]
    fn validate_rejects_bad_values() {
        let c = Config {
            b: 0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            leaf_set_size: 7,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            leaf_set_size: crate::codec::MAX_LIST,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            leaf_set_size: crate::codec::MAX_LIST - 2,
            ..Config::default()
        };
        assert!(c.validate().is_ok());
        let c = Config {
            target_raw_loss: 0.0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            target_raw_loss: 1.5,
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }
}
