//! Property-based tests for trace invariants.

use churn::{Session, Trace, TraceEvent};
use proptest::prelude::*;

fn arb_session() -> impl Strategy<Value = Session> {
    (0u64..1_000_000, 0u64..2_000_000).prop_map(|(a, len)| Session {
        arrive_us: a,
        depart_us: a + len,
    })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec(arb_session(), 0..60), 1u64..2_000_000)
        .prop_map(|(sessions, dur)| Trace::new("prop", dur, sessions))
}

proptest! {
    #[test]
    fn events_are_sorted_and_within_horizon(trace in arb_trace()) {
        let events = trace.events();
        for w in events.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        for (t, _) in &events {
            prop_assert!(*t < trace.duration_us());
        }
    }

    #[test]
    fn every_fail_event_has_a_preceding_join(trace in arb_trace()) {
        let events = trace.events();
        for (t, ev) in &events {
            if let TraceEvent::Fail(i) = ev {
                let join = events
                    .iter()
                    .find(|(tj, e)| matches!(e, TraceEvent::Join(j) if j == i) && tj <= t);
                prop_assert!(join.is_some(), "fail of session {i} without join");
            }
        }
    }

    #[test]
    fn active_count_matches_event_replay(trace in arb_trace(), at in 0u64..2_000_000) {
        // Replaying joins/fails up to `at` must agree with active_at
        // (modulo sessions departing beyond the horizon, which active_at
        // counts but the event list clamps — replay them from sessions).
        let naive = trace
            .sessions()
            .iter()
            .filter(|s| s.arrive_us <= at && s.depart_us > at)
            .count();
        prop_assert_eq!(trace.active_at(at), naive);
    }

    #[test]
    fn failure_rate_series_is_finite_and_nonnegative(trace in arb_trace(), window in 1_000u64..500_000) {
        for (_, rate) in trace.failure_rate_series(window) {
            prop_assert!(rate.is_finite());
            prop_assert!(rate >= 0.0);
        }
    }

    #[test]
    fn session_stats_are_consistent(trace in arb_trace()) {
        if !trace.sessions().is_empty() {
            let mean = trace.mean_session_us();
            let median = trace.median_session_us();
            let max = trace.sessions().iter().map(Session::length_us).max().unwrap();
            let min = trace.sessions().iter().map(Session::length_us).min().unwrap();
            prop_assert!(mean >= min as f64 && mean <= max as f64);
            prop_assert!(median >= min && median <= max);
        }
    }
}
