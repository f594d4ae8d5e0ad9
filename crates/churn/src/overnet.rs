//! OverNet-like churn trace.
//!
//! Modelled on the Bhagwan et al. availability study used by the paper: 1,468
//! unique OverNet nodes monitored for 7 days, average session time 134
//! minutes, median 79 minutes, between 260 and 650 concurrently active nodes,
//! with daily and weekly failure-rate patterns similar to Gnutella.

use crate::dist::SessionDist;
use crate::synth::{self, PopulationProfile, SynthParams};
use crate::trace::Trace;

/// Parameters of the OverNet-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvernetParams {
    /// Multiplier on the population (1.0 = the paper's 260-650 active nodes).
    pub population_scale: f64,
    /// Trace horizon, microseconds (paper: 7 days).
    pub duration_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OvernetParams {
    fn default() -> Self {
        OvernetParams {
            population_scale: 1.0,
            duration_us: 7 * 24 * 3600 * 1_000_000,
            seed: 202,
        }
    }
}

/// Generates an OverNet-like trace.
pub fn trace(p: &OvernetParams) -> Trace {
    let params = SynthParams {
        duration_us: p.duration_us,
        population: PopulationProfile {
            base: 450.0 * p.population_scale,
            daily_amplitude: 0.35,
            weekly_amplitude: 0.08,
            phase: 0.25,
        },
        // Mean 134 min, median 79 min.
        sessions: SessionDist::log_normal_from_mean_median(134.0 * 60e6, 79.0 * 60e6),
        churn_daily_amplitude: 0.40,
        seed: p.seed,
    };
    synth::generate("overnet", &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_statistics_match_study() {
        let t = trace(&OvernetParams::default());
        let mean_min = t.mean_session_us() / 60e6;
        let median_min = t.median_session_us() as f64 / 60e6;
        assert!(
            (mean_min - 134.0).abs() < 25.0,
            "mean session {mean_min} min"
        );
        assert!(
            (median_min - 79.0).abs() < 20.0,
            "median session {median_min} min"
        );
    }

    #[test]
    fn population_within_study_range() {
        let t = trace(&OvernetParams::default());
        for day in 1..7u64 {
            let active = t.active_at(day * 24 * 3600 * 1_000_000);
            assert!(
                (200..=800).contains(&active),
                "active {active} at day {day}"
            );
        }
    }

    #[test]
    fn failure_rate_level_matches_gnutella_band() {
        // The paper notes OverNet and Gnutella have similar failure rates.
        let t = trace(&OvernetParams::default());
        let series = t.failure_rate_series(10 * 60 * 1_000_000);
        let rates: Vec<f64> = series.iter().skip(24).map(|(_, r)| *r).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (5e-5..4e-4).contains(&mean),
            "mean failure rate {mean} per node per second"
        );
    }
}
