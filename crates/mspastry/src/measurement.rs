//! Network-distance measurement for proximity neighbour selection (§4.2):
//! symmetric distance probes, the measured-distance cache, routing-table
//! candidate evaluation, and the nearest-neighbour discovery walk a joiner
//! runs before sending its join request.

use crate::events::{Effects, TimerKind};
use crate::fxhash::FxHashMap;
use crate::id::NodeId;
use crate::messages::Message;
use crate::node::Node;
use crate::pns::{DistanceMeasurer, MeasurePurpose, MeasureTimeout, NnState, NnStep, ReplyOutcome};
use crate::routing_table::DIST_UNKNOWN;

pub(crate) const MAX_CONCURRENT_MEASUREMENTS: usize = 64;

/// Probes per distance measurement, whose median is the distance (§4.2;
/// paper: 3). The nearest-neighbour walk sends one per candidate.
const DISTANCE_PROBE_COUNT: u32 = 3;

/// Distance-probing state owned by the measurement layer.
#[derive(Debug)]
pub(crate) struct Measurement {
    pub(crate) measurer: DistanceMeasurer,
    /// Measured round-trip distances with their measurement time; doubles
    /// as a negative cache so rejected routing-table candidates are not
    /// re-measured at every maintenance round.
    pub(crate) known_dists: FxHashMap<NodeId, (u64, u64)>,
    pub(crate) nn: Option<NnState>,
}

impl Measurement {
    pub(crate) fn new() -> Self {
        Measurement {
            measurer: DistanceMeasurer::new(),
            known_dists: FxHashMap::default(),
            nn: None,
        }
    }

    /// The cached distance to `n`, or [`DIST_UNKNOWN`] if never measured.
    pub(crate) fn known_dist(&self, n: NodeId) -> u64 {
        self.known_dists
            .get(&n)
            .map(|&(d, _)| d)
            .unwrap_or(DIST_UNKNOWN)
    }
}

impl Node {
    pub(crate) fn start_measurement(
        &mut self,
        target: NodeId,
        purpose: MeasurePurpose,
        fx: &mut Effects,
    ) {
        if target == self.ctx.id
            || self.consistency.failed.contains(&target)
            || self.measurement.measurer.measuring(target)
            || self.measurement.measurer.len() >= MAX_CONCURRENT_MEASUREMENTS
        {
            return;
        }
        let (want, timeout, retry) = match purpose {
            MeasurePurpose::NearestNeighbor => (1, self.ctx.cfg.nn_probe_timeout_us, false),
            _ => (DISTANCE_PROBE_COUNT, self.ctx.cfg.t_o_us, true),
        };
        if let Some(nonce) =
            self.measurement
                .measurer
                .start(target, purpose, want, self.ctx.now_us, retry)
        {
            self.send(target, Message::DistanceProbe { nonce }, fx);
            fx.timer(timeout, TimerKind::DistanceProbeTimeout { target, nonce });
        }
    }

    pub(crate) fn on_distance_probe_next(&mut self, target: NodeId, fx: &mut Effects) {
        if let Some(nonce) = self
            .measurement
            .measurer
            .next_probe(target, self.ctx.now_us)
        {
            self.send(target, Message::DistanceProbe { nonce }, fx);
            fx.timer(
                self.ctx.cfg.t_o_us,
                TimerKind::DistanceProbeTimeout { target, nonce },
            );
        }
    }

    pub(crate) fn on_distance_reply(&mut self, from: NodeId, nonce: u64, fx: &mut Effects) {
        match self
            .measurement
            .measurer
            .on_reply(from, nonce, self.ctx.now_us)
        {
            ReplyOutcome::Ignored => {}
            ReplyOutcome::NeedMore => {
                fx.timer(
                    self.ctx.cfg.distance_probe_spacing_us,
                    TimerKind::DistanceProbeNext { target: from },
                );
            }
            ReplyOutcome::Done(purpose, rtt) => self.finish_measurement(from, purpose, rtt, fx),
        }
    }

    pub(crate) fn on_distance_timeout(&mut self, target: NodeId, nonce: u64, fx: &mut Effects) {
        match self
            .measurement
            .measurer
            .on_timeout(target, nonce, self.ctx.now_us)
        {
            MeasureTimeout::Stale => {}
            MeasureTimeout::Retry(new_nonce) => {
                self.send(target, Message::DistanceProbe { nonce: new_nonce }, fx);
                fx.timer(
                    self.ctx.cfg.t_o_us,
                    TimerKind::DistanceProbeTimeout {
                        target,
                        nonce: new_nonce,
                    },
                );
            }
            MeasureTimeout::Abandon(purpose, Some(rtt)) => {
                self.finish_measurement(target, purpose, rtt, fx)
            }
            MeasureTimeout::Abandon(purpose, None) => {
                if purpose == MeasurePurpose::NearestNeighbor {
                    self.nn_feed_distance(target, u64::MAX, fx);
                }
            }
        }
    }

    pub(crate) fn finish_measurement(
        &mut self,
        target: NodeId,
        purpose: MeasurePurpose,
        rtt: u64,
        fx: &mut Effects,
    ) {
        self.measurement
            .known_dists
            .insert(target, (rtt, self.ctx.now_us));
        self.ctx.obs.rtt_sample(rtt);
        self.reliability.rtos.update(target, rtt);
        match purpose {
            MeasurePurpose::NearestNeighbor => self.nn_feed_distance(target, rtt, fx),
            MeasurePurpose::ConsiderRt => {
                self.ctx.obs.pns_measured();
                let outcome = self.rt.offer(target, rtt);
                use crate::routing_table::InsertOutcome::*;
                if matches!(outcome, Replaced(_)) {
                    self.ctx.obs.pns_replaced();
                }
                // Symmetric probing: the accepted peer reuses our value.
                if matches!(outcome, InsertedEmpty | Replaced(_) | Refreshed) {
                    self.send(target, Message::DistanceReport { rtt_us: rtt }, fx);
                }
            }
        }
    }

    /// Symmetric probing: the peer measured us; reuse its value.
    pub(crate) fn on_distance_report(&mut self, from: NodeId, rtt_us: u64) {
        self.measurement
            .known_dists
            .insert(from, (rtt_us, self.ctx.now_us));
        self.rt.offer(from, rtt_us);
    }

    pub(crate) fn consider_rt_candidate(&mut self, n: NodeId, fx: &mut Effects) {
        if n == self.ctx.id || self.consistency.failed.contains(&n) || self.rt.contains(n) {
            return;
        }
        // A fresh cached measurement answers without new probes (this also
        // stops rejected candidates from being re-measured at every
        // maintenance round).
        if let Some(&(d, at)) = self.measurement.known_dists.get(&n) {
            if self.ctx.now_us.saturating_sub(at) < self.ctx.cfg.rt_maintenance_period_us {
                self.rt.offer(n, d);
                return;
            }
        }
        // Only measure when even a 0-distance candidate could change the
        // table (i.e. the slot is empty or occupied).
        if self.rt.would_accept(n, 0) {
            self.start_measurement(n, MeasurePurpose::ConsiderRt, fx);
        }
    }

    // ----- nearest-neighbour discovery --------------------------------------

    pub(crate) fn on_nn_row_request(&mut self, from: NodeId, row: usize, fx: &mut Effects) {
        let occupied = self.rt.occupied_rows();
        let deepest = occupied.last().copied().unwrap_or(0);
        let row = row.min(deepest);
        let nodes = self.rt.row_ids(row);
        self.send(from, Message::NnRowReply { row, nodes }, fx);
    }

    pub(crate) fn on_nn_candidates(
        &mut self,
        row: Option<usize>,
        nodes: Vec<NodeId>,
        fx: &mut Effects,
    ) {
        let Some(nn) = self.measurement.nn.as_mut() else {
            return;
        };
        if let Some(r) = row {
            nn.note_row(r);
        }
        let step = nn.on_candidates(self.ctx.id, &nodes);
        self.nn_execute(step, fx);
    }

    pub(crate) fn nn_feed_distance(&mut self, target: NodeId, dist: u64, fx: &mut Effects) {
        let Some(nn) = self.measurement.nn.as_mut() else {
            return;
        };
        let step = nn.on_distance(target, dist, usize::MAX);
        self.nn_execute(step, fx);
    }

    pub(crate) fn nn_execute(&mut self, step: NnStep, fx: &mut Effects) {
        match step {
            NnStep::Wait => {}
            NnStep::Measure(targets) => {
                let mut unmeasurable = Vec::new();
                for t in targets {
                    self.start_measurement(t, MeasurePurpose::NearestNeighbor, fx);
                    if !self.measurement.measurer.measuring(t) {
                        // Could not start (budget/failed); count as
                        // unreachable so discovery still terminates.
                        unmeasurable.push(t);
                    }
                }
                for t in unmeasurable {
                    self.nn_feed_distance(t, u64::MAX, fx);
                }
            }
            NnStep::AskLeafSet(to) => self.send(to, Message::NnLeafSetRequest, fx),
            NnStep::AskRow(to, row) => self.send(to, Message::NnRowRequest { row }, fx),
            NnStep::Finished(seed) => {
                // Seed the routing table distances with everything measured.
                if let Some(nn) = self.measurement.nn.take() {
                    for (&n, &d) in nn.measured() {
                        self.measurement.known_dists.insert(n, (d, self.ctx.now_us));
                    }
                }
                self.send_join_request(seed, fx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::events::{Action, Event};
    use crate::id::Id;

    fn cfg() -> Config {
        Config {
            nearest_neighbor_join: false,
            ..Config::default()
        }
    }

    #[test]
    fn fresh_cached_distance_suppresses_new_probes() {
        let mut n = Node::new(Id(1), cfg());
        let mut fx = Effects::new();
        n.handle(0, Event::Join { seed: None }, &mut fx);
        let _ = fx.drain();
        let candidate = Id(77 << 100);
        n.measurement.known_dists.insert(candidate, (1234, 0));
        n.handle(
            10,
            Event::Receive {
                from: Id(2),
                msg: Message::RtRowAnnounce {
                    row: 0,
                    entries: vec![candidate],
                },
            },
            &mut fx,
        );
        let probed = fx.drain().iter().any(|a| {
            matches!(
                a,
                Action::Send {
                    msg: Message::DistanceProbe { .. },
                    ..
                }
            )
        });
        assert!(!probed, "cached distance answers without probing");
        assert!(
            n.routing_table().contains(candidate),
            "candidate inserted from the cache"
        );
        assert_eq!(n.measurement.known_dist(candidate), 1234);
        assert_eq!(
            n.measurement.known_dist(Id(555)),
            DIST_UNKNOWN,
            "unmeasured nodes report DIST_UNKNOWN"
        );
    }
}
