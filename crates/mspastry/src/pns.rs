//! Proximity neighbour selection support: round-trip distance measurements
//! and the nearest-neighbour seed-discovery state machine (§2, §4.2).
//!
//! A distance measurement sends three probes spaced by a fixed interval and
//! takes the median of the returned round trips. The nearest-neighbour
//! algorithm uses a *single* probe per candidate to reduce join latency.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::id::NodeId;

/// Why a distance is being measured; decides what happens with the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurePurpose {
    /// Candidate evaluation inside the nearest-neighbour algorithm.
    NearestNeighbor,
    /// Candidate for a routing-table slot (gossip, maintenance, announce,
    /// passive repair, or the joiner's own table).
    ConsiderRt,
}

/// One in-flight measurement.
#[derive(Debug, Clone)]
struct Measurement {
    purpose: MeasurePurpose,
    want: u32,
    samples: Vec<u64>,
    outstanding: Option<(u64, u64)>, // (nonce, sent_at_us)
    retried: bool,
    retry_allowed: bool,
}

/// Outcome of feeding a probe reply into the measurer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// No matching measurement/nonce; ignore.
    Ignored,
    /// Sample recorded; schedule the next probe after the configured spacing.
    NeedMore,
    /// Measurement finished with the median round-trip in microseconds.
    Done(MeasurePurpose, u64),
}

/// Outcome of a probe timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureTimeout {
    /// No matching measurement/nonce; ignore.
    Stale,
    /// Retry with a fresh nonce.
    Retry(u64),
    /// Give up; if samples were collected their median is returned.
    Abandon(MeasurePurpose, Option<u64>),
}

/// Manages a node's distance measurements.
#[derive(Debug, Clone, Default)]
pub struct DistanceMeasurer {
    inflight: FxHashMap<NodeId, Measurement>,
    next_nonce: u64,
}

impl DistanceMeasurer {
    /// Creates an empty measurer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of measurements in flight.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// `true` when nothing is being measured.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// `true` if `target` is currently being measured.
    pub fn measuring(&self, target: NodeId) -> bool {
        self.inflight.contains_key(&target)
    }

    /// Starts measuring `target` with `want` samples; returns the nonce of
    /// the first probe, or `None` if a measurement is already running.
    /// `retry_allowed` says whether a timed-out probe is retried once
    /// (nearest-neighbour probes skip the retry to keep join latency low).
    pub fn start(
        &mut self,
        target: NodeId,
        purpose: MeasurePurpose,
        want: u32,
        now_us: u64,
        retry_allowed: bool,
    ) -> Option<u64> {
        if self.inflight.contains_key(&target) {
            return None;
        }
        let nonce = fresh_nonce(&mut self.next_nonce);
        self.inflight.insert(
            target,
            Measurement {
                purpose,
                want: want.max(1),
                samples: Vec::new(),
                outstanding: Some((nonce, now_us)),
                retried: false,
                retry_allowed,
            },
        );
        Some(nonce)
    }

    /// Issues the next probe of an in-flight measurement (after the spacing
    /// timer); returns its nonce.
    pub fn next_probe(&mut self, target: NodeId, now_us: u64) -> Option<u64> {
        let m = self.inflight.get_mut(&target)?;
        if m.outstanding.is_some() || m.samples.len() as u32 >= m.want {
            return None;
        }
        let nonce = fresh_nonce(&mut self.next_nonce);
        m.outstanding = Some((nonce, now_us));
        Some(nonce)
    }

    /// Feeds a probe reply.
    pub fn on_reply(&mut self, target: NodeId, nonce: u64, now_us: u64) -> ReplyOutcome {
        let Some(m) = self.inflight.get_mut(&target) else {
            return ReplyOutcome::Ignored;
        };
        match m.outstanding {
            Some((n, sent_at)) if n == nonce => {
                m.samples.push(now_us.saturating_sub(sent_at));
                m.outstanding = None;
                m.retried = false;
                if m.samples.len() as u32 >= m.want {
                    let med = median(&mut m.samples);
                    let purpose = m.purpose;
                    self.inflight.remove(&target);
                    ReplyOutcome::Done(purpose, med)
                } else {
                    ReplyOutcome::NeedMore
                }
            }
            _ => ReplyOutcome::Ignored,
        }
    }

    /// Handles a probe timeout for `(target, nonce)`.
    ///
    /// A stale timeout (no measurement, or a nonce that is no longer
    /// outstanding) changes nothing, not even the nonce counter.
    pub fn on_timeout(&mut self, target: NodeId, nonce: u64, now_us: u64) -> MeasureTimeout {
        let Some(m) = self.inflight.get_mut(&target) else {
            return MeasureTimeout::Stale;
        };
        match m.outstanding {
            Some((n, _)) if n == nonce => {
                if !m.retried && m.retry_allowed {
                    let next = fresh_nonce(&mut self.next_nonce);
                    m.retried = true;
                    m.outstanding = Some((next, now_us));
                    MeasureTimeout::Retry(next)
                } else {
                    let purpose = m.purpose;
                    let med = if m.samples.is_empty() {
                        None
                    } else {
                        Some(median(&mut m.samples))
                    };
                    self.inflight.remove(&target);
                    MeasureTimeout::Abandon(purpose, med)
                }
            }
            _ => MeasureTimeout::Stale,
        }
    }

    /// Cancels a measurement (e.g. the target was declared faulty).
    pub fn cancel(&mut self, target: NodeId) {
        self.inflight.remove(&target);
    }
}

/// Advances the nonce counter and returns the new nonce. Only a probe that
/// is actually sent takes one.
fn fresh_nonce(next: &mut u64) -> u64 {
    *next += 1;
    *next
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Phase of the nearest-neighbour seed-discovery algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnPhase {
    /// Evaluating the leaf set of the current closest node.
    LeafSet,
    /// Walking routing-table rows bottom-up; the next row index to request.
    Rows(usize),
}

/// What the nearest-neighbour state machine wants the node to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnStep {
    /// Request the leaf set of `from`.
    AskLeafSet(NodeId),
    /// Request row `row` of `from`'s routing table.
    AskRow(NodeId, usize),
    /// Measure the distance to these candidates (single probe each).
    Measure(Vec<NodeId>),
    /// Discovery finished; join through the returned node.
    Finished(NodeId),
    /// Waiting for outstanding measurements.
    Wait,
}

/// Nearest-neighbour discovery: starting from a random seed, greedily move to
/// the closest node in its leaf set, then refine by walking routing-table
/// rows bottom-up.
#[derive(Debug, Clone)]
pub struct NnState {
    current: NodeId,
    current_dist: u64,
    phase: NnPhase,
    awaiting: FxHashSet<NodeId>,
    dists: FxHashMap<NodeId, u64>,
}

impl NnState {
    /// Starts discovery at `seed`.
    pub fn new(seed: NodeId) -> Self {
        NnState {
            current: seed,
            current_dist: u64::MAX,
            phase: NnPhase::LeafSet,
            awaiting: FxHashSet::default(),
            dists: FxHashMap::default(),
        }
    }

    /// The best node found so far.
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// All candidate distances measured during discovery (useful to seed the
    /// routing table with real proximity values).
    pub fn measured(&self) -> &FxHashMap<NodeId, u64> {
        &self.dists
    }

    /// Feeds the candidate list from a leaf-set or row reply; returns the
    /// candidates that still need measuring.
    pub fn on_candidates(&mut self, own: NodeId, nodes: &[NodeId]) -> NnStep {
        let fresh: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&n| n != own && !self.dists.contains_key(&n) && !self.awaiting.contains(&n))
            .collect();
        for &n in &fresh {
            self.awaiting.insert(n);
        }
        if fresh.is_empty() {
            self.evaluate()
        } else {
            NnStep::Measure(fresh)
        }
    }

    /// Feeds a finished (or abandoned) distance measurement.
    pub fn on_distance(&mut self, target: NodeId, dist_us: u64) -> NnStep {
        self.awaiting.remove(&target);
        if dist_us != u64::MAX {
            self.dists.insert(target, dist_us);
        }
        if target == self.current {
            self.current_dist = self.current_dist.min(dist_us);
        }
        if self.awaiting.is_empty() {
            self.evaluate()
        } else {
            NnStep::Wait
        }
    }

    /// Called when a row reply arrives: remembers which row to continue from.
    pub fn note_row(&mut self, row: usize) {
        self.phase = NnPhase::Rows(row);
    }

    fn evaluate(&mut self) -> NnStep {
        // Find the closest measured candidate.
        let best = self
            .dists
            .iter()
            .min_by_key(|(id, d)| (**d, id.0))
            .map(|(id, d)| (*id, *d));
        match self.phase {
            NnPhase::LeafSet => {
                if let Some((id, d)) = best {
                    if d < self.current_dist {
                        self.current = id;
                        self.current_dist = d;
                        return NnStep::AskLeafSet(id);
                    }
                }
                // No improvement: start walking rows bottom-up. usize::MAX
                // asks the peer for its deepest occupied row.
                NnStep::AskRow(self.current, usize::MAX)
            }
            NnPhase::Rows(row) => {
                if let Some((id, d)) = best {
                    if d < self.current_dist {
                        self.current = id;
                        self.current_dist = d;
                    }
                }
                if row == 0 {
                    NnStep::Finished(self.current)
                } else {
                    let next = if row == usize::MAX {
                        usize::MAX
                    } else {
                        row - 1
                    };
                    NnStep::AskRow(self.current, next)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    #[test]
    fn measurement_takes_median_of_samples() {
        let mut dm = DistanceMeasurer::new();
        let n1 = dm
            .start(Id(1), MeasurePurpose::ConsiderRt, 3, 0, true)
            .unwrap();
        assert_eq!(dm.on_reply(Id(1), n1, 100), ReplyOutcome::NeedMore);
        let n2 = dm.next_probe(Id(1), 1000).unwrap();
        assert_eq!(dm.on_reply(Id(1), n2, 1090), ReplyOutcome::NeedMore);
        let n3 = dm.next_probe(Id(1), 2000).unwrap();
        assert_eq!(
            dm.on_reply(Id(1), n3, 2300),
            ReplyOutcome::Done(MeasurePurpose::ConsiderRt, 100)
        );
        assert!(dm.is_empty());
    }

    #[test]
    fn duplicate_start_is_rejected() {
        let mut dm = DistanceMeasurer::new();
        assert!(dm
            .start(Id(1), MeasurePurpose::ConsiderRt, 3, 0, true)
            .is_some());
        assert!(dm
            .start(Id(1), MeasurePurpose::NearestNeighbor, 1, 0, true)
            .is_none());
    }

    #[test]
    fn wrong_nonce_is_ignored() {
        let mut dm = DistanceMeasurer::new();
        let n = dm
            .start(Id(1), MeasurePurpose::ConsiderRt, 1, 0, true)
            .unwrap();
        assert_eq!(dm.on_reply(Id(1), n + 99, 50), ReplyOutcome::Ignored);
        assert_eq!(
            dm.on_reply(Id(1), n, 60),
            ReplyOutcome::Done(MeasurePurpose::ConsiderRt, 60)
        );
    }

    #[test]
    fn timeout_retries_once_then_abandons() {
        let mut dm = DistanceMeasurer::new();
        let n = dm
            .start(Id(1), MeasurePurpose::NearestNeighbor, 1, 0, true)
            .unwrap();
        let MeasureTimeout::Retry(n2) = dm.on_timeout(Id(1), n, 10) else {
            panic!("expected retry");
        };
        assert_eq!(
            dm.on_timeout(Id(1), n2, 20),
            MeasureTimeout::Abandon(MeasurePurpose::NearestNeighbor, None)
        );
        assert!(dm.is_empty());
    }

    #[test]
    fn stale_timeouts_and_probes_do_not_take_a_nonce() {
        let mut dm = DistanceMeasurer::new();
        let n = dm
            .start(Id(1), MeasurePurpose::ConsiderRt, 3, 0, true)
            .unwrap();
        // Unknown target, wrong nonce, and a next probe while one is
        // outstanding: all stale, none may advance the counter.
        assert_eq!(dm.on_timeout(Id(2), n, 5), MeasureTimeout::Stale);
        assert_eq!(dm.on_timeout(Id(1), n + 7, 5), MeasureTimeout::Stale);
        assert_eq!(dm.next_probe(Id(1), 5), None);
        assert_eq!(dm.next_probe(Id(2), 5), None);
        assert_eq!(dm.on_timeout(Id(1), n, 10), MeasureTimeout::Retry(n + 1));
    }

    #[test]
    fn abandon_with_partial_samples_returns_median() {
        let mut dm = DistanceMeasurer::new();
        let n = dm
            .start(Id(1), MeasurePurpose::ConsiderRt, 3, 0, true)
            .unwrap();
        dm.on_reply(Id(1), n, 70);
        let n2 = dm.next_probe(Id(1), 100).unwrap();
        let MeasureTimeout::Retry(n3) = dm.on_timeout(Id(1), n2, 200) else {
            panic!("expected retry");
        };
        assert_eq!(
            dm.on_timeout(Id(1), n3, 300),
            MeasureTimeout::Abandon(MeasurePurpose::ConsiderRt, Some(70))
        );
    }

    #[test]
    fn nn_moves_to_closer_leaf_set_candidates() {
        let own = Id(99);
        let seed = Id(1);
        let mut nn = NnState::new(seed);
        // Seed's leaf set: nodes 2 and 3.
        let step = nn.on_candidates(own, &[Id(2), Id(3)]);
        assert_eq!(step, NnStep::Measure(vec![Id(2), Id(3)]));
        assert_eq!(nn.on_distance(Id(2), 500), NnStep::Wait);
        // Node 3 is closest: move there and ask for its leaf set.
        let step = nn.on_distance(Id(3), 100);
        assert_eq!(step, NnStep::AskLeafSet(Id(3)));
        assert_eq!(nn.current(), Id(3));
    }

    #[test]
    fn nn_switches_to_rows_when_no_improvement() {
        let own = Id(99);
        let mut nn = NnState::new(Id(1));
        let _ = nn.on_candidates(own, &[Id(2)]);
        let _ = nn.on_distance(Id(2), 100);
        // Id(2)'s leaf set has nothing new and nothing closer.
        let step = nn.on_candidates(own, &[Id(2)]);
        assert_eq!(step, NnStep::AskRow(Id(2), usize::MAX));
        nn.note_row(1);
        // Row 1 brings a closer node 5.
        let step = nn.on_candidates(own, &[Id(5)]);
        assert_eq!(step, NnStep::Measure(vec![Id(5)]));
        let step = nn.on_distance(Id(5), 10);
        assert_eq!(step, NnStep::AskRow(Id(5), 0));
        nn.note_row(0);
        let step = nn.on_candidates(own, &[]);
        assert_eq!(step, NnStep::Finished(Id(5)));
    }

    #[test]
    fn nn_records_measured_distances() {
        let mut nn = NnState::new(Id(1));
        let _ = nn.on_candidates(Id(99), &[Id(2)]);
        let _ = nn.on_distance(Id(2), 123);
        assert_eq!(nn.measured().get(&Id(2)), Some(&123));
    }
}
