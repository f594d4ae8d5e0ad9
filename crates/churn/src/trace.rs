//! Churn traces: node arrival and failure times.
//!
//! A trace is a set of *sessions*; each session is one overlay node instance
//! that joins at `arrive_us` and fails (or voluntarily departs — the overlay
//! cannot tell the difference and the paper treats both as failures) at
//! `depart_us`. Sessions whose departure lies beyond the trace horizon never
//! fail during the experiment.

/// One node session: the node arrives, stays for a while, then departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Session {
    /// Arrival time, microseconds since trace start.
    pub arrive_us: u64,
    /// Departure (failure) time, microseconds since trace start. May exceed
    /// the trace duration, in which case the node survives the experiment.
    pub depart_us: u64,
}

impl Session {
    /// Session length in microseconds.
    pub fn length_us(&self) -> u64 {
        self.depart_us.saturating_sub(self.arrive_us)
    }
}

/// A single arrival or failure event of a session in a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// The session with this index (into [`Trace::sessions`]) arrives.
    Join(usize),
    /// The session with this index fails.
    Fail(usize),
}

/// A complete churn trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    duration_us: u64,
    sessions: Vec<Session>,
}

impl Trace {
    /// Creates a trace from raw sessions.
    ///
    /// # Panics
    ///
    /// Panics if any session departs before it arrives.
    pub fn new(name: impl Into<String>, duration_us: u64, mut sessions: Vec<Session>) -> Self {
        for s in &sessions {
            assert!(
                s.depart_us >= s.arrive_us,
                "session departs before it arrives: {s:?}"
            );
        }
        sessions.sort();
        Trace {
            name: name.into(),
            duration_us,
            sessions,
        }
    }

    /// Trace name (e.g. `"gnutella"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Experiment horizon, microseconds.
    pub fn duration_us(&self) -> u64 {
        self.duration_us
    }

    /// All sessions, sorted by arrival time.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// All join/fail events within the horizon, sorted by time. Failures at
    /// or beyond the horizon are omitted.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        let mut ev = Vec::with_capacity(self.sessions.len() * 2);
        for (i, s) in self.sessions.iter().enumerate() {
            if s.arrive_us < self.duration_us {
                ev.push((s.arrive_us, TraceEvent::Join(i)));
                if s.depart_us < self.duration_us {
                    ev.push((s.depart_us, TraceEvent::Fail(i)));
                }
            }
        }
        ev.sort_by_key(|(t, e)| (*t, matches!(e, TraceEvent::Fail(_))));
        ev
    }

    /// Number of sessions alive at time `t`.
    pub fn active_at(&self, t_us: u64) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.arrive_us <= t_us && s.depart_us > t_us)
            .count()
    }

    /// Mean session length in microseconds (sessions truncated by the horizon
    /// still count with their full nominal length, matching how the published
    /// traces report session statistics).
    pub fn mean_session_us(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.sessions.iter().map(|s| s.length_us() as u128).sum();
        sum as f64 / self.sessions.len() as f64
    }

    /// Median session length in microseconds.
    pub fn median_session_us(&self) -> u64 {
        if self.sessions.is_empty() {
            return 0;
        }
        let mut lens: Vec<u64> = self.sessions.iter().map(Session::length_us).collect();
        lens.sort_unstable();
        lens[lens.len() / 2]
    }

    /// Node failure rate per node per second, averaged over consecutive
    /// windows of `window_us`, as plotted in the paper's Figure 3.
    ///
    /// Each element is `(window_start_us, failures / (active_nodes * window_seconds))`.
    pub fn failure_rate_series(&self, window_us: u64) -> Vec<(u64, f64)> {
        assert!(window_us > 0, "window must be positive");
        let n_windows = (self.duration_us / window_us) as usize;
        let mut fails = vec![0u64; n_windows + 1];
        for s in &self.sessions {
            if s.depart_us < self.duration_us {
                let w = (s.depart_us / window_us) as usize;
                fails[w] += 1;
            }
        }
        let mut out = Vec::with_capacity(n_windows);
        for (w, &n_fails) in fails.iter().enumerate().take(n_windows) {
            let t0 = w as u64 * window_us;
            let mid = t0 + window_us / 2;
            let active = self.active_at(mid).max(1);
            let rate = n_fails as f64 / (active as f64 * (window_us as f64 / 1e6));
            out.push((t0, rate));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "t",
            100,
            vec![
                Session {
                    arrive_us: 0,
                    depart_us: 50,
                },
                Session {
                    arrive_us: 10,
                    depart_us: 200,
                },
                Session {
                    arrive_us: 60,
                    depart_us: 90,
                },
            ],
        )
    }

    #[test]
    fn events_are_sorted_and_clamped() {
        let ev = sample().events();
        assert_eq!(ev.len(), 5, "fail at 200 is beyond the horizon");
        let times: Vec<u64> = ev.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn active_counts() {
        let t = sample();
        assert_eq!(t.active_at(5), 1);
        assert_eq!(t.active_at(20), 2);
        assert_eq!(t.active_at(70), 2);
        assert_eq!(t.active_at(95), 1);
    }

    #[test]
    fn mean_and_median() {
        let t = sample();
        assert_eq!(t.median_session_us(), 50);
        let mean = (50.0 + 190.0 + 30.0) / 3.0;
        assert!((t.mean_session_us() - mean).abs() < 1e-9);
    }

    #[test]
    fn failure_rate_series_counts_failures() {
        let t = sample();
        let series = t.failure_rate_series(50);
        assert_eq!(series.len(), 2);
        // Window 1 (50..100) has the failures at 50 and 90 with 2 active at
        // t=75.
        let (_, rate) = series[1];
        assert!((rate - 2.0 / (2.0 * 50e-6)).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn new_rejects_inverted_session() {
        Trace::new(
            "bad",
            10,
            vec![Session {
                arrive_us: 5,
                depart_us: 1,
            }],
        );
    }
}
