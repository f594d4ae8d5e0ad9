//! The experiment runner: drives MSPastry nodes through the packet-level
//! simulator with trace-based fault injection, a lookup workload, oracle
//! consistency checking, and metric collection — the platform described in
//! §5.1 of the paper.
//!
//! Protocol actions are not interpreted here: each node is wrapped in the
//! shared [`mspastry::Driver`], and the private `SimHost` maps its
//! [`mspastry::Host`] calls onto the simulator (network, event queue,
//! metrics, oracle). The UDP transport implements the same trait, so both
//! deployments run the identical core.

use crate::fxhash::FxHashMap;
use crate::metrics::{Metrics, Outcomes, Report, ACTIVE_NODE_US};
use crate::oracle::Oracle;
use churn::{Trace, TraceEvent};
use mspastry::{
    Config, Delivery, Driver, Event, Host, Id, Key, Message, Node, NodeId, Payload, TimerKind,
};
use netsim::{EndpointId, EventQueue, Network};
use obs::{CounterId, HopEvent, Obs, Snapshot, TsWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::{Topology, TopologyKind};

/// A lookup not delivered within this time of its issue counts as lost; a
/// copy delivered within it of the first delivery counts as a duplicate.
pub const LOOKUP_TIMEOUT_US: u64 = 60 * 1_000_000;

/// Sentinel for "not joining" in the endpoint-indexed join-start table.
const NO_JOIN: u64 = u64::MAX;
/// Sentinel for "not active" in the endpoint-indexed active-position table.
const NOT_ACTIVE: u32 = u32::MAX;

/// The lookup workload applied to the overlay.
#[derive(Debug, Clone)]
pub enum Workload {
    /// No application traffic.
    None,
    /// Every active node issues lookups as a Poisson process with uniformly
    /// random destination keys (the paper's base workload uses 0.01
    /// lookups/s/node).
    Poisson {
        /// Lookup rate per node, per second.
        rate_per_node_per_sec: f64,
    },
    /// An explicit request script (used by the Squirrel validation
    /// experiment). Times are trace-relative; requests from sessions that are
    /// not active at fire time are skipped.
    Scripted(Vec<ScriptedLookup>),
}

/// One scripted application request.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedLookup {
    /// Trace-relative issue time, microseconds.
    pub at_us: u64,
    /// Issuing session index (into the trace's session list).
    pub session: usize,
    /// Destination key.
    pub key: Key,
    /// Opaque payload (correlates deliveries for the application).
    pub payload: Payload,
}

/// A recorded application-level delivery (optional, for application
/// post-processing such as Squirrel's cache statistics).
#[derive(Debug, Clone)]
pub struct DeliveryRecord {
    /// Simulation time of delivery (warmup included), microseconds.
    pub at_us: u64,
    /// The delivering session.
    pub session: usize,
    /// The destination key.
    pub key: Key,
    /// The lookup payload.
    pub payload: Payload,
    /// Whether the deliverer was the key's true root.
    pub correct: bool,
    /// When the lookup was issued, microseconds.
    pub issued_at_us: u64,
    /// Overlay hops the lookup took.
    pub hops: u32,
    /// Sessions of the deliverer's closest leaf-set members (ring-distance
    /// order): the candidate replica holders for storage applications.
    pub replica_sessions: Vec<usize>,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Protocol parameters.
    pub protocol: Config,
    /// Network topology.
    pub topology: TopologyKind,
    /// Churn trace (fault injection schedule).
    pub trace: Trace,
    /// Application workload.
    pub workload: Workload,
    /// Uniform network message loss probability.
    pub network_loss_rate: f64,
    /// Overlay build-up period before measurements start; initial sessions
    /// join staggered across it.
    pub warmup_us: u64,
    /// Metrics window (the paper uses 10 min for Gnutella/OverNet, 1 h for
    /// Microsoft).
    pub metrics_window_us: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// Record every application delivery in the result.
    pub record_deliveries: bool,
    /// Fraction of departures that announce themselves (`Event::Leave`)
    /// before dying, instead of crashing silently. 0.0 reproduces the paper
    /// (all departures look like failures); higher values exercise the
    /// graceful-leave extension.
    pub graceful_leave_fraction: f64,
    /// Total network outages, as trace-relative `(start_us, end_us)` windows
    /// during which every message is lost.
    pub outages: Vec<(u64, u64)>,
    /// Fraction of lookups whose hop-by-hop history is recorded in the
    /// flight recorder (0.0 disables tracing entirely; 1.0 traces every
    /// lookup). Sampling is a deterministic hash of the lookup identity, so
    /// every node on the path agrees on the decision and repeated runs
    /// produce identical traces.
    pub trace_sample_rate: f64,
    /// Flight-recorder capacity in events; once full, the oldest events are
    /// overwritten (the count of casualties is reported).
    pub trace_capacity: usize,
    /// Self-profile the run loop: per-event-kind dispatch counts and wall
    /// time, plus event-queue depth gauges, reported under
    /// [`RunResult::prof`]. Wall-clock readings are nondeterministic, so the
    /// profile lives outside the bit-identical artifact guarantee.
    pub profile: bool,
}

impl RunConfig {
    /// Sensible defaults around a trace: base protocol configuration, small
    /// GATech topology, 0.01 lookups/s/node, no loss, 15 min warmup.
    pub fn new(trace: Trace) -> Self {
        RunConfig {
            protocol: Config::default(),
            topology: TopologyKind::GaTechSmall,
            trace,
            workload: Workload::Poisson {
                rate_per_node_per_sec: 0.01,
            },
            network_loss_rate: 0.0,
            warmup_us: 15 * 60 * 1_000_000,
            metrics_window_us: 10 * 60 * 1_000_000,
            seed: 1,
            record_deliveries: false,
            graceful_leave_fraction: 0.0,
            outages: Vec::new(),
            trace_sample_rate: 0.0,
            trace_capacity: 65_536,
            profile: false,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// All §5.2 metrics.
    pub report: Report,
    /// Trace name.
    pub trace_name: String,
    /// Topology name.
    pub topology_name: &'static str,
    /// Active overlay nodes when the run ended.
    pub final_active: usize,
    /// Mean self-tuned routing-table probing period across nodes at the end,
    /// microseconds.
    pub mean_t_rt_us: f64,
    /// Total simulator events processed.
    pub sim_events: u64,
    /// Scripted lookups skipped because their session was not active.
    pub skipped_scripted: u64,
    /// Active nodes whose immediate leaf-set neighbours disagree with the
    /// true ring at the end of the run (0 = perfectly converged ring).
    pub ring_defects: u64,
    /// Application deliveries (only if `record_deliveries`).
    pub deliveries: Vec<DeliveryRecord>,
    /// `(session, activation time)` pairs, in activation order.
    pub activations: Vec<(usize, u64)>,
    /// Fraction of routing-table entries with no measured distance at the
    /// end of the run (PNS health diagnostic).
    pub rt_unknown_fraction: f64,
    /// Mean measured routing-table entry distance at the end, microseconds.
    pub rt_mean_distance_us: f64,
    /// End-of-run snapshot of the per-run diagnostic registry (sends per
    /// kind and category, active node-time, probe causes, network loss
    /// counters, RTO/latency histograms, ...).
    pub diag: obs::Snapshot,
    /// Sampled hop-trace events, in recording order (empty unless
    /// `trace_sample_rate > 0`).
    pub trace_events: Vec<HopEvent>,
    /// Trace events lost to ring-buffer overwrite.
    pub trace_overwritten: u64,
    /// Per-window registry deltas: the warm-up `[0, warmup_us)`, then one
    /// window per [`Report::windows`] entry, the last ending at the end of
    /// the run. Serialise with [`obs::ts_jsonl`].
    pub timeseries: Vec<TsWindow>,
    /// Run-loop self-profile (only if `profile`).
    pub prof: Option<obs::ProfReport>,
}

#[derive(Debug)]
enum Ev {
    Msg {
        from: NodeId,
        to: EndpointId,
        msg: Message,
    },
    Timer {
        node: EndpointId,
        kind: TimerKind,
    },
    Join(usize),
    Fail(usize),
    NextLookup {
        node: EndpointId,
    },
    Scripted(usize),
    Outage(bool),
    End,
}

#[derive(Clone, Copy, PartialEq)]
enum SessionState {
    Pending,
    Alive,
    Dead,
}

/// Runs one experiment to completion.
pub fn run(cfg: RunConfig) -> RunResult {
    Runner::new(cfg).run()
}

/// Everything the simulator host touches while executing one node's actions.
///
/// Split from [`Runner`] so a node's [`Driver`] (borrowed mutably during a
/// step) and the rest of the simulation state (borrowed mutably by
/// [`SimHost`]) are disjoint.
struct World {
    cfg: RunConfig,
    net: Network,
    queue: EventQueue<Ev>,
    metrics: Metrics,
    obs: Obs,
    outcomes: Outcomes,
    oracle: Oracle,
    rng: SmallRng,
    node_ids: Vec<NodeId>,
    ep_of_id: FxHashMap<u128, EndpointId>,
    ep_of_session: Vec<Option<EndpointId>>,
    session_of_ep: Vec<usize>,
    session_state: Vec<SessionState>,
    active_list: Vec<EndpointId>,
    /// Position of each endpoint in `active_list` (`NOT_ACTIVE` if absent),
    /// indexed by endpoint id.
    active_pos: Vec<u32>,
    /// Join start time per endpoint (`NO_JOIN` once activated), indexed by
    /// endpoint id.
    join_started: Vec<u64>,
    scripted: Vec<ScriptedLookup>,
    skipped_scripted: u64,
    deliveries: Vec<DeliveryRecord>,
    activations: Vec<(usize, u64)>,
    end_us: u64,
    sim_events: u64,
    /// `overlay.active_node_us`: `active_list.len()` integrated over time.
    active_node_us: CounterId,
    /// Time up to which `active_node_us` is integrated.
    active_since_us: u64,
    /// Registry snapshots at the metrics-window boundaries reached so far.
    window_snaps: Vec<Snapshot>,
    /// Next metrics-window boundary.
    next_window_us: u64,
}

/// Self-profiling state: the accumulator plus pre-registered kind slots, so
/// the run loop only indexes on the hot path.
struct Prof {
    profiler: obs::Profiler,
    start: std::time::Instant,
    msg: obs::prof::KindId,
    timer: obs::prof::KindId,
    join: obs::prof::KindId,
    fail: obs::prof::KindId,
    next_lookup: obs::prof::KindId,
    scripted: obs::prof::KindId,
    outage: obs::prof::KindId,
}

impl Prof {
    fn new() -> Self {
        let mut profiler = obs::Profiler::new();
        Prof {
            msg: profiler.kind("msg"),
            timer: profiler.kind("timer"),
            join: profiler.kind("join"),
            fail: profiler.kind("fail"),
            next_lookup: profiler.kind("next-lookup"),
            scripted: profiler.kind("scripted"),
            outage: profiler.kind("outage"),
            start: std::time::Instant::now(),
            profiler,
        }
    }

    fn kind_of(&self, ev: &Ev) -> Option<obs::prof::KindId> {
        match ev {
            Ev::Msg { .. } => Some(self.msg),
            Ev::Timer { .. } => Some(self.timer),
            Ev::Join(_) => Some(self.join),
            Ev::Fail(_) => Some(self.fail),
            Ev::NextLookup { .. } => Some(self.next_lookup),
            Ev::Scripted(_) => Some(self.scripted),
            Ev::Outage(_) => Some(self.outage),
            Ev::End => None,
        }
    }
}

struct Runner {
    /// One driver per endpoint (`None` once the session failed); indexed by
    /// endpoint id, parallel to the `World`'s per-endpoint tables.
    drivers: Vec<Option<Driver>>,
    world: World,
    /// Run-loop self-profiling (only if `RunConfig::profile`).
    prof: Option<Prof>,
    /// Builds each joining node; tests swap in a variant constructor.
    make_node: fn(NodeId, Config, Obs) -> Node,
}

/// The simulator's implementation of the protocol [`Host`] surface, scoped
/// to one event at one endpoint.
struct SimHost<'a> {
    ep: EndpointId,
    now: u64,
    world: &'a mut World,
}

impl Host for SimHost<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.world.apply_send(self.ep, to, msg);
    }

    fn set_timer(&mut self, delay_us: u64, kind: TimerKind) {
        self.world.queue.schedule_in(
            delay_us,
            Ev::Timer {
                node: self.ep,
                kind,
            },
        );
    }

    fn deliver(&mut self, delivery: Delivery, node: &Node) {
        self.world.apply_deliver(self.now, self.ep, delivery, node);
    }

    fn became_active(&mut self) {
        self.world.apply_became_active(self.now, self.ep);
    }
}

impl Runner {
    fn new(cfg: RunConfig) -> Self {
        let topo = Topology::build(cfg.topology.clone());
        let obs = Obs::new(cfg.trace_sample_rate, cfg.trace_capacity);
        let mut net = Network::new(topo, cfg.seed ^ 0x6e65_7477, obs.clone());
        net.set_loss_rate(cfg.network_loss_rate);
        let outcomes = Outcomes::register(&obs);
        let active_node_us = obs.counter(ACTIVE_NODE_US);
        let metrics = Metrics::new(cfg.warmup_us, cfg.metrics_window_us, LOOKUP_TIMEOUT_US);
        let end_us = cfg.warmup_us + cfg.trace.duration_us();
        let n_sessions = cfg.trace.sessions().len();
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let scripted = match &cfg.workload {
            Workload::Scripted(s) => {
                let mut s = s.clone();
                s.sort_by_key(|e| e.at_us);
                s
            }
            _ => Vec::new(),
        };
        Runner {
            drivers: Vec::new(),
            prof: cfg.profile.then(Prof::new),
            make_node: Node::with_obs,
            world: World {
                net,
                queue: EventQueue::new(),
                metrics,
                obs,
                outcomes,
                oracle: Oracle::new(),
                rng,
                node_ids: Vec::new(),
                ep_of_id: FxHashMap::default(),
                ep_of_session: vec![None; n_sessions],
                session_of_ep: Vec::new(),
                session_state: vec![SessionState::Pending; n_sessions],
                active_list: Vec::new(),
                active_pos: Vec::new(),
                join_started: Vec::new(),
                scripted,
                skipped_scripted: 0,
                deliveries: Vec::new(),
                activations: Vec::new(),
                end_us,
                sim_events: 0,
                active_node_us,
                active_since_us: 0,
                window_snaps: Vec::new(),
                next_window_us: cfg.warmup_us,
                cfg,
            },
        }
    }

    fn schedule_trace(&mut self) {
        let w = &mut self.world;
        // Initial sessions (arrival 0) join staggered across the first 80 %
        // of the warmup so the overlay forms incrementally.
        let initial: Vec<usize> = w
            .cfg
            .trace
            .sessions()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.arrive_us == 0)
            .map(|(i, _)| i)
            .collect();
        let spread = w.cfg.warmup_us * 4 / 5;
        let k = initial.len().max(1) as u64;
        for (n, &i) in initial.iter().enumerate() {
            w.queue.schedule_at(n as u64 * spread / k, Ev::Join(i));
        }
        for (t, ev) in w.cfg.trace.events() {
            match ev {
                TraceEvent::Join(i) => {
                    if w.cfg.trace.sessions()[i].arrive_us > 0 {
                        w.queue.schedule_at(t + w.cfg.warmup_us, Ev::Join(i));
                    }
                }
                TraceEvent::Fail(i) => {
                    w.queue.schedule_at(t + w.cfg.warmup_us, Ev::Fail(i));
                }
            }
        }
        for (i, s) in w.scripted.iter().enumerate() {
            w.queue
                .schedule_at(s.at_us + w.cfg.warmup_us, Ev::Scripted(i));
        }
        for &(start, end) in &w.cfg.outages {
            assert!(start < end, "outage must start before it ends");
            w.queue
                .schedule_at(start + w.cfg.warmup_us, Ev::Outage(true));
            w.queue
                .schedule_at(end + w.cfg.warmup_us, Ev::Outage(false));
        }
        w.queue.schedule_at(w.end_us, Ev::End);
    }

    fn run(mut self) -> RunResult {
        self.simulate();
        self.finish()
    }

    /// Executes every event up to the end of the run.
    fn simulate(&mut self) {
        self.schedule_trace();
        loop {
            let t_pop = self.prof.as_ref().map(|_| std::time::Instant::now());
            let Some(ev) = self.world.queue.pop() else {
                break;
            };
            if let (Some(p), Some(t0)) = (self.prof.as_mut(), t_pop) {
                p.profiler.record_pop(t0.elapsed().as_nanos() as u64);
            }
            let now = ev.at_us;
            if now >= self.world.next_window_us {
                self.world.take_due_snapshots(now);
            }
            self.world.sim_events += 1;
            let kind = self.prof.as_ref().and_then(|p| p.kind_of(&ev.payload));
            let t0 = kind.map(|_| std::time::Instant::now());
            match ev.payload {
                Ev::End => break,
                Ev::Join(i) => self.on_trace_join(now, i),
                Ev::Fail(i) => self.on_trace_fail(now, i),
                Ev::Msg { from, to, msg } => {
                    self.dispatch(now, to, Event::Receive { from, msg });
                }
                Ev::Timer { node, kind } => {
                    self.dispatch(now, node, Event::Timer(kind));
                }
                Ev::NextLookup { node } => self.on_next_lookup(now, node),
                Ev::Scripted(i) => self.on_scripted(now, i),
                Ev::Outage(on) => self.world.net.set_blackout(on),
            }
            if let (Some(p), Some(kind), Some(t0)) = (self.prof.as_mut(), kind, t0) {
                p.profiler.record(kind, t0.elapsed().as_nanos() as u64);
                p.profiler.gauge_depth(self.world.queue.len());
            }
        }
    }

    /// Reads the end-of-run state into the result.
    fn finish(self) -> RunResult {
        let mut w = self.world;
        w.integrate_active(w.end_us);
        let diag = w.obs.snapshot();
        let prof = self.prof.as_ref().map(|p| {
            p.profiler.report(
                p.start.elapsed().as_micros() as u64,
                w.queue.high_water_mark() as u64,
            )
        });
        let final_active = w.active_list.len();
        let mut trt_sum = 0.0;
        let mut trt_n = 0u64;
        for d in self.drivers.iter().flatten() {
            let n = d.node();
            if n.is_active() {
                trt_sum += n.t_rt_us() as f64;
                trt_n += 1;
            }
        }
        let ring_defects = count_ring_defects(&self.drivers, &w);
        let mut rt_total = 0u64;
        let mut rt_unknown = 0u64;
        let mut rt_dist_sum = 0.0f64;
        for d in self.drivers.iter().flatten() {
            for e in d.node().routing_table().entries() {
                rt_total += 1;
                if e.distance_us == mspastry::routing_table::DIST_UNKNOWN {
                    rt_unknown += 1;
                } else {
                    rt_dist_sum += e.distance_us as f64;
                }
            }
        }
        let snaps = std::mem::take(&mut w.window_snaps);
        let report = w.metrics.finalize(w.end_us, &snaps, &diag);
        let timeseries = window_series(&w.cfg, w.end_us, snaps, &diag);
        let (trace_events, trace_overwritten) = w.obs.take_trace();
        RunResult {
            report,
            diag,
            trace_events,
            trace_overwritten,
            timeseries,
            prof,
            trace_name: w.cfg.trace.name().to_string(),
            topology_name: w.net.topology().name(),
            final_active,
            mean_t_rt_us: if trt_n > 0 {
                trt_sum / trt_n as f64
            } else {
                0.0
            },
            sim_events: w.sim_events,
            skipped_scripted: w.skipped_scripted,
            ring_defects,
            deliveries: std::mem::take(&mut w.deliveries),
            activations: std::mem::take(&mut w.activations),
            rt_unknown_fraction: if rt_total > 0 {
                rt_unknown as f64 / rt_total as f64
            } else {
                0.0
            },
            rt_mean_distance_us: if rt_total > rt_unknown {
                rt_dist_sum / (rt_total - rt_unknown) as f64
            } else {
                0.0
            },
        }
    }

    fn on_trace_join(&mut self, now: u64, session: usize) {
        let w = &mut self.world;
        if w.session_state[session] != SessionState::Pending {
            return; // failed before it could join
        }
        w.session_state[session] = SessionState::Alive;
        let ep = w.net.add_endpoint();
        let id = Id::random(&mut w.rng);
        debug_assert_eq!(ep, self.drivers.len());
        self.drivers.push(Some(Driver::new((self.make_node)(
            id,
            w.cfg.protocol.clone(),
            w.obs.clone(),
        ))));
        w.node_ids.push(id);
        w.session_of_ep.push(session);
        w.active_pos.push(NOT_ACTIVE);
        w.join_started.push(now);
        w.ep_of_id.insert(id.0, ep);
        w.ep_of_session[session] = Some(ep);
        let seed = self.pick_seed(ep);
        self.dispatch(now, ep, Event::Join { seed });
    }

    /// A random active node, or any alive node if none is active yet, or
    /// `None` for the very first node.
    fn pick_seed(&mut self, joiner: EndpointId) -> Option<NodeId> {
        let w = &mut self.world;
        if !w.active_list.is_empty() {
            let ep = w.active_list[w.rng.gen_range(0..w.active_list.len())];
            return Some(w.node_ids[ep]);
        }
        // Rare fallback (no active node yet): draw the k-th alive node by a
        // counting pass instead of materialising the alive set.
        let alive = |e: &usize| *e != joiner && self.drivers[*e].is_some();
        let n_alive = (0..self.drivers.len()).filter(alive).count();
        if n_alive == 0 {
            None
        } else {
            let k = w.rng.gen_range(0..n_alive);
            let ep = (0..self.drivers.len())
                .filter(alive)
                .nth(k)
                .expect("k < n_alive");
            Some(w.node_ids[ep])
        }
    }

    fn on_trace_fail(&mut self, now: u64, session: usize) {
        match self.world.session_state[session] {
            SessionState::Pending => {
                self.world.session_state[session] = SessionState::Dead;
            }
            SessionState::Dead => {}
            SessionState::Alive => {
                self.world.session_state[session] = SessionState::Dead;
                let ep = self.world.ep_of_session[session].expect("alive session has endpoint");
                let was_active = self.drivers[ep]
                    .as_ref()
                    .is_some_and(|d| d.node().is_active());
                if was_active
                    && self.world.cfg.graceful_leave_fraction > 0.0
                    && self
                        .world
                        .rng
                        .gen_bool(self.world.cfg.graceful_leave_fraction)
                {
                    // The node says goodbye before the plug is pulled.
                    self.dispatch(now, ep, Event::Leave);
                }
                self.drivers[ep] = None;
                if was_active {
                    self.world.oracle.remove(self.world.node_ids[ep]);
                    self.world.remove_active(now, ep);
                }
            }
        }
    }

    fn on_next_lookup(&mut self, now: u64, ep: EndpointId) {
        let Workload::Poisson {
            rate_per_node_per_sec,
        } = self.world.cfg.workload
        else {
            return;
        };
        let usable = self.drivers[ep]
            .as_ref()
            .is_some_and(|d| d.node().is_active());
        if !usable {
            return;
        }
        let key = Id::random(&mut self.world.rng);
        self.dispatch(now, ep, Event::Lookup { key, payload: 0 });
        let delay = exp_interval_us(&mut self.world.rng, rate_per_node_per_sec);
        self.world
            .queue
            .schedule_in(delay, Ev::NextLookup { node: ep });
    }

    fn on_scripted(&mut self, now: u64, idx: usize) {
        let s = self.world.scripted[idx];
        let Some(ep) = self.world.ep_of_session[s.session] else {
            self.world.skipped_scripted += 1;
            return;
        };
        let usable = self.drivers[ep]
            .as_ref()
            .is_some_and(|d| d.node().is_active());
        if !usable {
            self.world.skipped_scripted += 1;
            return;
        }
        self.dispatch(
            now,
            ep,
            Event::Lookup {
                key: s.key,
                payload: s.payload,
            },
        );
    }

    /// Feeds one event to the endpoint's driver; the driver's [`Host`] calls
    /// land on [`SimHost`], which mutates the `World` (never the drivers, so
    /// the split borrow is safe and the step cannot re-enter itself).
    fn dispatch(&mut self, now: u64, ep: EndpointId, event: Event) {
        let Some(driver) = self.drivers[ep].as_mut() else {
            return;
        };
        let mut host = SimHost {
            ep,
            now,
            world: &mut self.world,
        };
        driver.step(now, event, &mut host);
    }
}

/// Compares every active node's immediate leaf-set neighbours with the
/// true ring (sorted active identifiers).
fn count_ring_defects(drivers: &[Option<Driver>], w: &World) -> u64 {
    let mut ids: Vec<NodeId> = w.active_list.iter().map(|&e| w.node_ids[e]).collect();
    if ids.len() < 2 {
        return 0;
    }
    ids.sort();
    let pos = |id: NodeId| ids.binary_search(&id).expect("active id in ring");
    let mut defects = 0u64;
    for &e in &w.active_list {
        let Some(node) = drivers[e].as_ref().map(|d| d.node()) else {
            continue;
        };
        let id = w.node_ids[e];
        let p = pos(id);
        let true_right = ids[(p + 1) % ids.len()];
        let true_left = ids[(p + ids.len() - 1) % ids.len()];
        let ls = node.leaf_set();
        if ls.right_neighbor() != Some(true_right) || ls.left_neighbor() != Some(true_left) {
            defects += 1;
        }
    }
    defects
}

impl World {
    /// Brings `overlay.active_node_us` up to `now`.
    fn integrate_active(&mut self, now: u64) {
        let dt = now - self.active_since_us;
        self.obs
            .add(self.active_node_us, self.active_list.len() as u64 * dt);
        self.active_since_us = now;
    }

    /// Takes the registry snapshots at the metrics-window boundaries due at
    /// or before `now` and before the end of the run (`finish` closes the
    /// last window). It runs before the event at `now` is dispatched, so a
    /// snapshot at `t` holds exactly what happened before `t`.
    fn take_due_snapshots(&mut self, now: u64) {
        while self.next_window_us <= now && self.next_window_us < self.end_us {
            self.integrate_active(self.next_window_us);
            self.window_snaps.push(self.obs.snapshot());
            self.next_window_us += self.cfg.metrics_window_us;
        }
    }

    fn remove_active(&mut self, now: u64, ep: EndpointId) {
        self.integrate_active(now);
        let pos = std::mem::replace(&mut self.active_pos[ep], NOT_ACTIVE);
        if pos != NOT_ACTIVE {
            let last = self.active_list.pop().unwrap();
            if last != ep {
                self.active_list[pos as usize] = last;
                self.active_pos[last] = pos;
            }
        }
    }

    fn apply_deliver(&mut self, now: u64, ep: EndpointId, d: Delivery, node: &Node) {
        let deliverer = self.node_ids[ep];
        let correct = self.oracle.root_of(d.key) == Some(deliverer);
        if self
            .metrics
            .on_delivered(now, d.id, d.issued_at_us, correct)
        {
            // Identifiers are never removed from `ep_of_id`, so the issuer's
            // endpoint is known for every lookup.
            let direct = match self.ep_of_id.get(&d.id.src.0) {
                Some(&src) if src != ep => self.net.base_delay_us(src, ep),
                _ => 0,
            };
            self.outcomes
                .record(&self.obs, now, d.issued_at_us, d.hops, direct);
        }
        if self.cfg.record_deliveries {
            let replica_sessions = node
                .replica_set(d.key)
                .iter()
                .filter_map(|id| self.ep_of_id.get(&id.0))
                .map(|&e| self.session_of_ep[e])
                .collect();
            self.deliveries.push(DeliveryRecord {
                at_us: now,
                session: self.session_of_ep[ep],
                key: d.key,
                payload: d.payload,
                correct,
                issued_at_us: d.issued_at_us,
                hops: d.hops,
                replica_sessions,
            });
        }
    }

    fn apply_became_active(&mut self, now: u64, ep: EndpointId) {
        let id = self.node_ids[ep];
        if !self.oracle.contains(id) {
            self.oracle.insert(id);
            self.integrate_active(now);
            self.active_pos[ep] = self.active_list.len() as u32;
            self.active_list.push(ep);
            self.activations.push((self.session_of_ep[ep], now));
            let start = std::mem::replace(&mut self.join_started[ep], NO_JOIN);
            if start != NO_JOIN && now >= self.cfg.warmup_us {
                self.metrics.on_join_latency(now - start);
            }
            if let Workload::Poisson {
                rate_per_node_per_sec,
            } = self.cfg.workload
            {
                let first = now
                    .max(self.cfg.warmup_us)
                    .saturating_add(exp_interval_us(&mut self.rng, rate_per_node_per_sec));
                self.queue.schedule_at(first, Ev::NextLookup { node: ep });
            }
        }
    }

    fn apply_send(&mut self, ep: EndpointId, to: NodeId, msg: Message) {
        if let Message::Lookup {
            id, issued_at_us, ..
        } = &msg
        {
            self.metrics.sight_lookup(*id, *issued_at_us);
        }
        let Some(&dst) = self.ep_of_id.get(&to.0) else {
            return; // message to a node that never existed (cannot happen)
        };
        // Messages to dead endpoints are transmitted and silently vanish
        // (crash-failure model).
        if let Some(delay) = self.net.sample_delivery(ep, dst) {
            let from = self.node_ids[ep];
            self.queue
                .schedule_in(delay, Ev::Msg { from, to: dst, msg });
        }
    }
}

/// Cuts a run's time series from its window-boundary snapshots `snaps`
/// and its end-of-run snapshot `last`: the warm-up window, then one per
/// metrics window.
fn window_series(
    cfg: &RunConfig,
    end_us: u64,
    snaps: Vec<Snapshot>,
    last: &Snapshot,
) -> Vec<TsWindow> {
    let boundaries = (0..).map(|k| cfg.warmup_us + k * cfg.metrics_window_us);
    let mut prev = (0, Snapshot::default());
    let mut series: Vec<TsWindow> = boundaries
        .zip(snaps)
        .map(|(t, snap)| {
            let w = TsWindow::between(prev.0, t, &prev.1, &snap);
            prev = (t, snap);
            w
        })
        .collect();
    series.push(TsWindow::between(prev.0, end_us, &prev.1, last));
    series
}

/// Exponential inter-arrival sample for a Poisson process, microseconds.
fn exp_interval_us<R: Rng + ?Sized>(rng: &mut R, rate_per_sec: f64) -> u64 {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    ((-u.ln() / rate_per_sec) * 1e6) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn::Session;

    fn static_trace(n: usize, duration_us: u64) -> Trace {
        let sessions = (0..n)
            .map(|_| Session {
                arrive_us: 0,
                depart_us: duration_us * 10,
            })
            .collect();
        Trace::new("static", duration_us, sessions)
    }

    fn quick_config(trace: Trace) -> RunConfig {
        RunConfig {
            topology: TopologyKind::GaTechTiny,
            warmup_us: 5 * 60 * 1_000_000,
            metrics_window_us: 60 * 1_000_000,
            ..RunConfig::new(trace)
        }
    }

    #[test]
    fn static_overlay_delivers_everything_correctly() {
        let cfg = quick_config(static_trace(30, 20 * 60 * 1_000_000));
        let res = run(cfg);
        assert_eq!(res.final_active, 30, "all nodes active");
        let r = &res.report;
        assert!(r.issued > 100, "issued {}", r.issued);
        assert_eq!(r.incorrect, 0, "no incorrect deliveries without churn");
        assert_eq!(r.lost, 0, "no losses without churn or network loss");
        // Routes are single-hop here, so RDP ≈ 1; delivery jitter (±5 %) can
        // push the mean marginally below 1.
        assert!(r.mean_rdp > 0.9, "rdp {}", r.mean_rdp);
        // 30 nodes fit inside one leaf set: single-hop routes, and ~1/30 of
        // the lookups root at the issuer itself (0 hops).
        assert!(r.mean_hops > 0.8, "hops {}", r.mean_hops);
    }

    #[test]
    fn exp_interval_mean_matches_rate() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let mean_us: f64 = (0..n)
            .map(|_| exp_interval_us(&mut rng, 0.5) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean_us / 2e6 - 1.0).abs() < 0.05, "mean {mean_us}");
    }

    #[test]
    fn churny_overlay_stays_consistent_without_loss() {
        // 60 nodes with 10-minute exponential sessions: brutal churn, no
        // network loss. The paper's headline claim: zero incorrect
        // deliveries.
        let trace = churn::poisson::trace(&churn::poisson::PoissonParams {
            mean_nodes: 60.0,
            mean_session_us: 10.0 * 60e6,
            duration_us: 30 * 60 * 1_000_000,
            seed: 7,
        });
        let cfg = quick_config(trace);
        let res = run(cfg);
        let r = &res.report;
        assert!(r.issued > 50, "issued {}", r.issued);
        assert_eq!(r.incorrect, 0, "incorrect deliveries under pure churn");
        assert!(
            r.loss_rate < 0.02,
            "per-hop acks keep losses tiny, got {}",
            r.loss_rate
        );
        assert!(res.final_active > 20);
    }

    #[test]
    fn timeseries_and_profile_collect_when_enabled() {
        let mut cfg = quick_config(static_trace(15, 10 * 60 * 1_000_000));
        cfg.profile = true;
        let res = run(cfg);
        let ts = &res.timeseries;
        // The 5 min warm-up, then ten 1-minute metrics windows.
        assert_eq!(ts.len(), 11);
        assert_eq!((ts[0].start_us, ts[0].end_us), (0, 5 * 60 * 1_000_000));
        assert_eq!(ts[10].end_us, 15 * 60 * 1_000_000);
        for (w, r) in ts[1..].iter().zip(&res.report.windows) {
            assert_eq!(w.start_us, r.start_us);
        }
        // Per-window deltas must sum back to the end-of-run totals, for a
        // network counter and a protocol counter that both move.
        for name in ["net.delivered", "pns.measured"] {
            let total: u64 = ts
                .iter()
                .flat_map(|w| w.counters.iter())
                .filter(|(n, _)| n == name)
                .map(|(_, d)| d)
                .sum();
            assert!(total > 0, "counter {name} never moved");
            assert_eq!(total, res.diag.counter(name), "counter {name}");
        }
        let prof = res.prof.as_ref().expect("profiler ran");
        // Every simulation event except the final `End` (which breaks out of
        // the loop before recording) is profiled.
        assert_eq!(prof.events, res.sim_events - 1);
        assert!(prof.kinds.iter().any(|k| k.name == "msg"));
        assert!(prof.depth_max > 0 && prof.depth_samples > 0);
    }

    #[test]
    fn traffic_figures_are_registry_window_deltas() {
        use mspastry::messages::{KIND_NAMES, SENT_CATEGORY_COUNTERS, SENT_KIND_COUNTERS};
        let trace = churn::poisson::trace(&churn::poisson::PoissonParams {
            mean_nodes: 30.0,
            mean_session_us: 10.0 * 60e6,
            duration_us: 12 * 60 * 1_000_000,
            seed: 5,
        });
        let mut cfg = quick_config(trace);
        cfg.network_loss_rate = 0.02;
        let mut runner = Runner::new(cfg);
        runner.simulate();
        let warm = runner.world.window_snaps[0].clone();
        let res = runner.finish();
        let (r, diag) = (&res.report, &res.diag);
        let delta = |name: &str| diag.counter(name) - warm.counter(name);

        let mut fine = r.fine_counts.clone();
        fine.sort();
        let mut expected: Vec<(&str, u64)> = KIND_NAMES
            .into_iter()
            .zip(SENT_KIND_COUNTERS)
            .map(|(kind, name)| (kind, delta(name)))
            .filter(|&(_, n)| n > 0)
            .collect();
        expected.sort();
        assert!(expected.len() > 10, "too little traffic: {expected:?}");
        assert_eq!(fine, expected);

        // 12 one-minute windows: the boundary at the end opens none.
        assert_eq!(r.windows.len(), 12);
        for (i, name) in SENT_CATEGORY_COUNTERS.iter().enumerate() {
            let total = delta(name);
            assert_eq!(
                (r.totals_per_node_per_sec[i] * r.node_seconds).round() as u64,
                total
            );
            let from_windows: f64 = r
                .windows
                .iter()
                .map(|w| w.per_category_per_node_per_sec[i] * w.mean_active_nodes * 60.0)
                .sum();
            assert!(
                (from_windows - total as f64).abs() < 1e-6 * total.max(1) as f64,
                "{name}: windows {from_windows} vs total {total}"
            );
        }

        let node_us = delta(ACTIVE_NODE_US);
        assert!(node_us > 0);
        assert_eq!(r.node_seconds, node_us as f64 / 1e6);
        assert_eq!((r.node_seconds * 1e6).round() as u64, node_us);
    }

    #[test]
    fn telemetry_is_off_by_default() {
        let res = run(quick_config(static_trace(5, 5 * 60 * 1_000_000)));
        assert!(res.prof.is_none());
        assert!(!crate::run_json(&res).contains("\"prof\""));
    }

    /// Runs `cfg` to its end and returns the result plus the number of
    /// lookup ids held in all live nodes' duplicate windows at that point.
    fn run_with(cfg: RunConfig, make_node: fn(NodeId, Config, Obs) -> Node) -> (RunResult, usize) {
        let mut runner = Runner::new(cfg);
        runner.make_node = make_node;
        runner.simulate();
        let held = runner
            .drivers
            .iter()
            .flatten()
            .map(|d| d.node().duplicate_window_len())
            .sum();
        (runner.finish(), held)
    }

    #[test]
    fn duplicate_window_size_follows_the_horizon_not_the_run_length() {
        // A steady overlay under a steady lookup stream: every run length
        // below is several horizons W, so a window bounded by W holds the
        // same number of ids at the end of each, where one bounded only by
        // its id count would hold about 10x more after 10T than after T.
        let t = 5 * 60 * 1_000_000;
        assert!(t > 3 * Config::default().duplicate_window_us());
        let held: Vec<(usize, u64)> = [t, 2 * t, 10 * t]
            .into_iter()
            .map(|duration_us| {
                let mut cfg = quick_config(static_trace(20, duration_us));
                cfg.workload = Workload::Poisson {
                    rate_per_node_per_sec: 0.2,
                };
                let (res, held) = run_with(cfg, Node::with_obs);
                assert_eq!(res.final_active, 20);
                (held, res.report.issued)
            })
            .collect();
        let (first, issued_t) = held[0];
        assert!(first > 50, "window too empty to be meaningful: {held:?}");
        assert!(held[2].1 > 8 * issued_t, "run lengths: {held:?}");
        for &(n, _) in &held {
            assert!(
                2 * n < 3 * first && 3 * n > 2 * first,
                "window size moved with run length: {held:?}"
            );
        }
    }

    #[test]
    fn bounded_duplicate_window_changes_nothing() {
        // Churn, 3% loss and three blackouts of 2·To: per-hop
        // retransmissions, reroutes and duplicate copies all happen, and
        // the run lasts many horizons. It runs under both final-hop
        // policies with the paper's timings, and under the retry-the-root
        // policy with the UDP binding's LAN timings too (`lan_config`: W is
        // 2.2 s there, against a 100 ms initial RTO). Retransmissions to a
        // silent root go on until its failure verdict or the leaf-set
        // detection time: the longest chains by design (a 5 s window
        // already changes the paper-timed run, a 0.275 s one the LAN-timed
        // run). If retransmission chains ever outlast W, a late copy is
        // processed again in the bounded run only, and the runs diverge.
        let min = 60 * 1_000_000;
        let cases = [
            ("paper timings, exclude root", Config::default()),
            (
                "paper timings, retry root",
                Config {
                    exclude_root_on_ack_timeout: false,
                    ..Config::default()
                },
            ),
            (
                "lan timings, retry root",
                Config {
                    exclude_root_on_ack_timeout: false,
                    ..transport::lan_config()
                },
            ),
        ];
        let trace = churn::poisson::trace(&churn::poisson::PoissonParams {
            mean_nodes: 40.0,
            mean_session_us: 15.0 * 60e6,
            duration_us: 30 * min,
            seed: 11,
        });
        for (case, protocol) in cases {
            let mut cfg = quick_config(trace.clone());
            let blackout = 2 * protocol.t_o_us;
            cfg.protocol = protocol;
            cfg.network_loss_rate = 0.03;
            cfg.outages = [5, 12, 20].map(|m| (m * min, m * min + blackout)).to_vec();
            cfg.workload = Workload::Poisson {
                rate_per_node_per_sec: 0.1,
            };
            cfg.trace_sample_rate = 1.0;
            cfg.trace_capacity = 1 << 20;
            let (bounded, _) = run_with(cfg.clone(), Node::with_obs);
            let (endless, _) = run_with(cfg.clone(), |id, cfg, obs| {
                Node::with_duplicate_window(id, cfg, obs, u64::MAX)
            });
            let r = &bounded.report;
            assert!(r.issued > 1_000, "{case}: issued {}", r.issued);
            // Far fewer lookups than a window's 16,384-id ceiling: it never
            // binds, so the endless window remembers every id of the run.
            assert!(r.issued + r.censored < 10_000, "{case}");
            assert!(bounded.diag.counter("lookup.final-retx") > 0, "{case}");
            assert!(bounded.diag.counter("lookup.reroutes") > 0, "{case}");
            assert_eq!(bounded.trace_overwritten, 0, "{case}");
            assert_eq!(bounded.report, endless.report, "{case}");
            assert_eq!(bounded.sim_events, endless.sim_events, "{case}");
            assert_eq!(bounded.diag, endless.diag, "{case}");
            assert!(
                bounded.trace_events == endless.trace_events,
                "hop traces diverged ({case})"
            );
            // The world does send copies that must be suppressed: without
            // a window the run changes.
            let (none, _) = run_with(cfg, |id, cfg, obs| {
                Node::with_duplicate_window(id, cfg, obs, 1)
            });
            assert_ne!(none.report, endless.report, "{case}: nothing to suppress");
        }
    }

    #[test]
    fn deliveries_are_recorded_when_requested() {
        let mut cfg = quick_config(static_trace(10, 10 * 60 * 1_000_000));
        cfg.record_deliveries = true;
        let warmup_us = cfg.warmup_us;
        let mut runner = Runner::new(cfg);
        runner.simulate();
        let w = &runner.world;
        let mut ring: Vec<(NodeId, usize)> = w
            .node_ids
            .iter()
            .copied()
            .zip(w.session_of_ep.iter().copied())
            .collect();
        let res = runner.finish();
        assert_eq!(res.deliveries.len() as u64, res.report.delivered);
        assert!(res.deliveries.iter().all(|d| d.correct));
        // Once converged, every leaf set holds the other nine nodes, so the
        // replica set is the 8 other sessions closest to the key on the
        // true ring, in (ring distance, id) order.
        let converged: Vec<&DeliveryRecord> = res
            .deliveries
            .iter()
            .filter(|d| d.issued_at_us >= warmup_us)
            .collect();
        assert!(!converged.is_empty());
        for d in converged {
            ring.sort_by_key(|&(id, _)| (id.ring_dist(d.key), id.0));
            let closest: Vec<usize> = ring
                .iter()
                .map(|&(_, s)| s)
                .filter(|&s| s != d.session)
                .take(8)
                .collect();
            assert_eq!(d.replica_sessions, closest, "key {:?}", d.key);
        }
    }

    #[test]
    fn scripted_workload_fires_on_sessions() {
        let trace = static_trace(10, 10 * 60 * 1_000_000);
        let script: Vec<ScriptedLookup> = (0..20)
            .map(|i| ScriptedLookup {
                at_us: 60_000_000 + i * 1_000_000,
                session: (i % 10) as usize,
                key: Id(i as u128 * 1234567),
                payload: i,
            })
            .collect();
        let mut cfg = quick_config(trace);
        cfg.workload = Workload::Scripted(script);
        cfg.record_deliveries = true;
        let res = run(cfg);
        assert_eq!(res.skipped_scripted, 0);
        assert_eq!(res.report.delivered, 20);
        assert_eq!(res.deliveries.len(), 20);
    }
}
