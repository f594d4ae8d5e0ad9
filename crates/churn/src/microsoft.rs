//! Microsoft-corporate-network-like churn trace.
//!
//! Modelled on the Bolosky et al. availability study used by the paper:
//! 20,000 machines (sampled from 65,000) monitored for 37 days, average
//! session time 37.7 hours, between 14,700 and 15,600 concurrently active
//! nodes, with failure rates an order of magnitude lower than the open
//! Internet traces and clear daily plus weekly patterns.

use crate::dist::SessionDist;
use crate::synth::{self, PopulationProfile, SynthParams};
use crate::trace::Trace;

/// Parameters of the Microsoft-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicrosoftParams {
    /// Multiplier on the population (1.0 = the paper's ≈15,000 active nodes).
    pub population_scale: f64,
    /// Trace horizon, microseconds (paper: 37 days).
    pub duration_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicrosoftParams {
    fn default() -> Self {
        MicrosoftParams {
            population_scale: 1.0,
            duration_us: 37 * 24 * 3600 * 1_000_000,
            seed: 303,
        }
    }
}

/// Generates a Microsoft-corporate-like trace.
pub fn trace(p: &MicrosoftParams) -> Trace {
    let params = SynthParams {
        duration_us: p.duration_us,
        population: PopulationProfile {
            base: 15_150.0 * p.population_scale,
            daily_amplitude: 0.02,
            weekly_amplitude: 0.01,
            phase: 0.25,
        },
        // Mean 37.7 h; the study does not report a median, we assume a
        // moderately skewed log-normal with median 24 h.
        sessions: SessionDist::log_normal_from_mean_median(37.7 * 3600e6, 24.0 * 3600e6),
        churn_daily_amplitude: 0.35,
        seed: p.seed,
    };
    synth::generate("microsoft", &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaled() -> Trace {
        // 1/10 population over 10 days keeps the test fast.
        trace(&MicrosoftParams {
            population_scale: 0.1,
            duration_us: 10 * 24 * 3600 * 1_000_000,
            ..Default::default()
        })
    }

    #[test]
    fn session_statistics_match_study() {
        let t = scaled();
        let mean_h = t.mean_session_us() / 3600e6;
        assert!((mean_h - 37.7).abs() < 8.0, "mean session {mean_h} h");
    }

    #[test]
    fn population_is_steady() {
        let t = scaled();
        for day in 2..9u64 {
            let active = t.active_at(day * 24 * 3600 * 1_000_000) as f64;
            assert!(
                (active / 1515.0 - 1.0).abs() < 0.15,
                "active {active} at day {day}"
            );
        }
    }

    #[test]
    fn failure_rate_is_an_order_of_magnitude_below_gnutella() {
        let t = scaled();
        let series = t.failure_rate_series(3600 * 1_000_000);
        let rates: Vec<f64> = series.iter().skip(48).map(|(_, r)| *r).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (2e-6..3e-5).contains(&mean),
            "mean failure rate {mean} per node per second"
        );
    }
}
