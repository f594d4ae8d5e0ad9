//! Artificial Poisson churn traces.
//!
//! The paper complements the real traces with artificial ones: Poisson node
//! arrivals and exponentially distributed session times, an average of 10,000
//! active nodes, and session times of 5, 15, 30, 60, 120 and 600 minutes
//! (most far harsher than anything observed in deployed systems).

use crate::dist::SessionDist;
use crate::synth::{self, PopulationProfile, SynthParams};
use crate::trace::Trace;

/// Parameters of the Poisson trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonParams {
    /// Average number of active nodes (paper: 10,000).
    pub mean_nodes: f64,
    /// Mean session time, microseconds.
    pub mean_session_us: f64,
    /// Trace horizon, microseconds.
    pub duration_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PoissonParams {
    fn default() -> Self {
        PoissonParams {
            mean_nodes: 10_000.0,
            mean_session_us: 60.0 * 60e6,
            duration_us: 4 * 3600 * 1_000_000,
            seed: 404,
        }
    }
}

impl PoissonParams {
    /// The paper's sweep of mean session times, in minutes.
    pub const SESSION_MINUTES: [u64; 6] = [5, 15, 30, 60, 120, 600];
}

/// Generates a Poisson-churn trace.
pub fn trace(p: &PoissonParams) -> Trace {
    let params = SynthParams {
        duration_us: p.duration_us,
        population: PopulationProfile::flat(p.mean_nodes),
        sessions: SessionDist::exponential(p.mean_session_us),
        churn_daily_amplitude: 0.0,
        seed: p.seed,
    };
    synth::generate("poisson", &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_flat_at_mean() {
        let t = trace(&PoissonParams {
            mean_nodes: 500.0,
            mean_session_us: 30.0 * 60e6,
            duration_us: 2 * 3600 * 1_000_000,
            seed: 1,
        });
        for minute in [30u64, 60, 90] {
            let active = t.active_at(minute * 60 * 1_000_000) as f64;
            assert!(
                (active / 500.0 - 1.0).abs() < 0.2,
                "active {active} at minute {minute}"
            );
        }
    }

    #[test]
    fn session_mean_matches() {
        let t = trace(&PoissonParams {
            mean_nodes: 1000.0,
            mean_session_us: 15.0 * 60e6,
            duration_us: 3 * 3600 * 1_000_000,
            seed: 2,
        });
        let later: Vec<f64> = t
            .sessions()
            .iter()
            .filter(|s| s.arrive_us > 0)
            .map(|s| s.length_us() as f64)
            .collect();
        let mean = later.iter().sum::<f64>() / later.len() as f64;
        assert!((mean / (15.0 * 60e6) - 1.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shorter_sessions_mean_more_failures() {
        // 300 nodes for one simulated hour.
        let hour = |minutes: u64| PoissonParams {
            mean_nodes: 300.0,
            mean_session_us: minutes as f64 * 60e6,
            duration_us: 3600 * 1_000_000,
            seed: 404,
        };
        let short = trace(&hour(5));
        let long = trace(&hour(120));
        let fails = |t: &Trace| {
            t.sessions()
                .iter()
                .filter(|s| s.depart_us < t.duration_us())
                .count()
        };
        assert!(fails(&short) > 4 * fails(&long));
    }
}
