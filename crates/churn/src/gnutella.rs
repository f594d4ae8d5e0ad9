//! Gnutella-like churn trace.
//!
//! Modelled on the Saroiu et al. measurement study used by the paper: 17,000
//! unique nodes monitored for 60 hours, average session time 2.3 h, median
//! 1 h, between 1300 and 2700 concurrently active nodes, and a pronounced
//! daily failure-rate wave between roughly 1×10⁻⁴ and 3.5×10⁻⁴ failures per
//! node per second.

use crate::dist::SessionDist;
use crate::synth::{self, PopulationProfile, SynthParams};
use crate::trace::Trace;

/// Parameters of the Gnutella-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnutellaParams {
    /// Multiplier on the population (1.0 = the paper's 1300-2700 active
    /// nodes). Use < 1 for quick runs.
    pub population_scale: f64,
    /// Trace horizon, microseconds (paper: 60 hours).
    pub duration_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GnutellaParams {
    fn default() -> Self {
        GnutellaParams {
            population_scale: 1.0,
            duration_us: 60 * 3600 * 1_000_000,
            seed: 101,
        }
    }
}

/// Generates a Gnutella-like trace.
pub fn trace(p: &GnutellaParams) -> Trace {
    let params = SynthParams {
        duration_us: p.duration_us,
        population: PopulationProfile {
            base: 2000.0 * p.population_scale,
            daily_amplitude: 0.30,
            weekly_amplitude: 0.05,
            phase: 0.25,
        },
        // Mean 2.3 h, median 1 h.
        sessions: SessionDist::log_normal_from_mean_median(2.3 * 3600e6, 3600e6),
        churn_daily_amplitude: 0.45,
        seed: p.seed,
    };
    synth::generate("gnutella", &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_statistics_match_study() {
        let t = trace(&GnutellaParams {
            population_scale: 0.25,
            ..Default::default()
        });
        let mean_h = t.mean_session_us() / 3600e6;
        let median_h = t.median_session_us() as f64 / 3600e6;
        assert!((mean_h - 2.3).abs() < 0.4, "mean session {mean_h} h");
        assert!((median_h - 1.0).abs() < 0.25, "median session {median_h} h");
    }

    #[test]
    fn population_within_study_range() {
        let t = trace(&GnutellaParams::default());
        for hour in [10u64, 25, 40, 55] {
            let active = t.active_at(hour * 3600 * 1_000_000);
            assert!(
                (1100..=3100).contains(&active),
                "active {active} at hour {hour}"
            );
        }
    }

    #[test]
    fn failure_rate_is_in_the_e_minus_4_band() {
        let t = trace(&GnutellaParams::default());
        let series = t.failure_rate_series(10 * 60 * 1_000_000);
        // Skip the warmup hours influenced by the residual initial sessions.
        let rates: Vec<f64> = series.iter().skip(36).map(|(_, r)| *r).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (5e-5..4e-4).contains(&mean),
            "mean failure rate {mean} per node per second"
        );
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min.max(1e-9) > 1.5, "expected a visible daily wave");
    }
}
