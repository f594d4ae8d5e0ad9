#![warn(missing_docs)]
//! Real UDP transport for the MSPastry protocol.
//!
//! The [`mspastry::Node`] state machine performs no I/O; this crate binds it
//! to an actual `UdpSocket`: a per-node thread runs the event loop (socket
//! receive, timer heap, local commands) and resolves node identifiers to
//! socket addresses through an address book fed by the
//! [`envelope::Envelope`] hint mechanism.
//!
//! Protocol actions are not interpreted here: the node is wrapped in the
//! shared [`mspastry::Driver`], and the private `UdpHost` maps its
//! [`mspastry::Host`] calls onto the socket, timer heap, and delivery channel. The
//! simulator implements the same trait, so this is the deployment path the
//! paper alludes to ("the code that runs in the simulator and in the real
//! deployment is the same with the exception of low level messaging") —
//! including the action-execution loop itself.
//!
//! # Example
//!
//! ```no_run
//! use mspastry::{Config, Id};
//! use transport::UdpNode;
//!
//! let bootstrap = UdpNode::spawn(Id(1), Config::default(), "127.0.0.1:0", None)?;
//! let other = UdpNode::spawn(
//!     Id(2),
//!     Config::default(),
//!     "127.0.0.1:0",
//!     Some((bootstrap.id(), bootstrap.local_addr())),
//! )?;
//! other.wait_active(std::time::Duration::from_secs(10));
//! other.lookup(Id(3), 42);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod envelope;
pub mod metrics;

pub use envelope::Envelope;
pub use metrics::{Health, MetricsServer, Published};

use mspastry::{Config, Driver, Event, Host, Key, Message, Node, NodeId, Payload, TimerKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A lookup delivered at this node (it is the key's root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The destination key.
    pub key: Key,
    /// The application payload.
    pub payload: Payload,
    /// Overlay hops taken.
    pub hops: u32,
}

enum Cmd {
    Lookup(Key, Payload),
    Shutdown,
}

/// Live-telemetry options for a UDP node. The default (both fields `None`)
/// serves and prints nothing: the node still counts into its own registry,
/// which nothing reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Telemetry {
    /// Serve `GET /metrics` (Prometheus exposition format) and
    /// `GET /healthz` (JSON) on this address; use port 0 for an ephemeral
    /// port (read it back with [`UdpNode::metrics_addr`]).
    pub metrics_addr: Option<SocketAddr>,
    /// Print a one-line stat heartbeat on stderr at this cadence.
    pub stat_interval: Option<Duration>,
}

impl Telemetry {
    /// `true` if any telemetry output is requested.
    fn enabled(&self) -> bool {
        self.metrics_addr.is_some() || self.stat_interval.is_some()
    }
}

/// A running MSPastry node bound to a UDP socket.
///
/// Dropping the handle shuts the node down.
#[derive(Debug)]
pub struct UdpNode {
    id: NodeId,
    local_addr: SocketAddr,
    cmd_tx: Sender<Cmd>,
    deliveries: Receiver<Delivery>,
    active: Arc<Active>,
    /// A clone of the node's socket, used only to send the loop its wake
    /// datagram on shutdown.
    waker: UdpSocket,
    metrics: Option<MetricsServer>,
    thread: Option<JoinHandle<()>>,
}

impl UdpNode {
    /// Binds a UDP socket and spawns the node's event loop, telemetry off.
    ///
    /// `seed` is an existing overlay node (identifier + address); `None`
    /// bootstraps a new overlay. Returns once the loop has stepped the join,
    /// so a node spawned without a seed is already active.
    ///
    /// # Errors
    ///
    /// Returns any socket bind/configuration error, or an error if the event
    /// loop does not step the join within 10 s.
    pub fn spawn<A: ToSocketAddrs>(
        id: NodeId,
        cfg: Config,
        bind: A,
        seed: Option<(NodeId, SocketAddr)>,
    ) -> io::Result<UdpNode> {
        Self::spawn_with(id, cfg, bind, seed, Telemetry::default())
    }

    /// [`Self::spawn`] with live telemetry: an optional `/metrics` +
    /// `/healthz` HTTP endpoint and an optional stderr stat heartbeat.
    ///
    /// Telemetry is an observer: the node's protocol behaviour is identical
    /// with it on or off; the exporter thread only ever reads snapshots the
    /// event loop publishes.
    ///
    /// # Errors
    ///
    /// Returns any socket or metrics-listener bind error, or an error if the
    /// event loop does not step the join within 10 s.
    pub fn spawn_with<A: ToSocketAddrs>(
        id: NodeId,
        cfg: Config,
        bind: A,
        seed: Option<(NodeId, SocketAddr)>,
        telemetry: Telemetry,
    ) -> io::Result<UdpNode> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(2)))?;
        let local_addr = socket.local_addr()?;
        let waker = socket.try_clone()?;
        let (cmd_tx, cmd_rx) = channel();
        let (delivery_tx, deliveries) = channel();
        let active = Arc::new(Active::default());
        let active2 = active.clone();
        let shared: metrics::Shared = Arc::new(Mutex::new(None));
        let metrics_server = match telemetry.metrics_addr {
            Some(addr) => Some(MetricsServer::start(addr, shared.clone())?),
            None => None,
        };
        let telemetry_on = telemetry.enabled();
        let stat_interval = telemetry.stat_interval;
        let (joined_tx, joined_rx) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name(format!("mspastry-{id}"))
            .spawn(move || {
                // The obs handle is Rc-based (the protocol core is
                // single-threaded by design), so it is created inside the
                // node's own thread; only published `Snapshot` clones cross
                // to the exporter.
                let obs = obs::Obs::new(0.0, 1);
                let telem = telemetry_on.then(|| Telem::new(shared, stat_interval));
                let mut event_loop = EventLoop {
                    driver: Driver::new(Node::with_obs(id, cfg, obs.clone())),
                    epoch: Instant::now(),
                    cmd_rx,
                    buf: vec![0u8; 64 * 1024],
                    telem,
                    io: Io {
                        id,
                        socket,
                        timers: BinaryHeap::new(),
                        timer_seq: 0,
                        addrs: HashMap::new(),
                        delivery_tx,
                        active: active2,
                        c_tx: obs.counter("udp.datagrams_tx"),
                        c_bytes_tx: obs.counter("udp.bytes_tx"),
                        c_rx: obs.counter("udp.datagrams_rx"),
                        c_bytes_rx: obs.counter("udp.bytes_rx"),
                        c_decode_errors: obs.counter("udp.decode_errors"),
                        obs,
                    },
                };
                event_loop.join(seed);
                let _ = joined_tx.send(());
                event_loop.run()
            })?;
        let node = UdpNode {
            id,
            local_addr,
            cmd_tx,
            deliveries,
            active,
            waker,
            metrics: metrics_server,
            thread: Some(thread),
        };
        // Return once the loop has stepped the initial join, so a seedless
        // node is already active when its handle exists.
        match joined_rx.recv_timeout(JOIN_STEP_TIMEOUT) {
            Ok(()) => Ok(node),
            Err(_) => Err(io::Error::other("node event loop did not step its join")),
        }
    }

    /// The bound `/metrics` listener address (`None` when telemetry is off);
    /// with port 0 this is where the ephemeral port shows up.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.local_addr())
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `true` once the node has completed its join.
    pub fn is_active(&self) -> bool {
        *self.active.flag.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until the node is active or the timeout elapses; returns
    /// whether it is active. Woken by the join completing, not by polling.
    pub fn wait_active(&self, timeout: Duration) -> bool {
        let flag = self.active.flag.lock().unwrap_or_else(|e| e.into_inner());
        let (flag, _) = self
            .active
            .changed
            .wait_timeout_while(flag, timeout, |active| !*active)
            .unwrap_or_else(|e| e.into_inner());
        *flag
    }

    /// Routes a lookup through the overlay.
    pub fn lookup(&self, key: Key, payload: Payload) {
        let _ = self.cmd_tx.send(Cmd::Lookup(key, payload));
    }

    /// Receiver of lookups delivered at this node.
    pub fn deliveries(&self) -> &Receiver<Delivery> {
        &self.deliveries
    }

    /// Stops the event loop and joins the thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(t) = self.thread.take() else {
            return;
        };
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        // Wake the loop out of its socket read so it sees the command now.
        let _ = self.waker.send_to(&[], self.local_addr);
        let _ = t.join();
    }
}

impl Drop for UdpNode {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The node's join state, shared between the event loop (which sets it) and
/// the handle (which waits on it).
#[derive(Debug, Default)]
struct Active {
    flag: Mutex<bool>,
    changed: Condvar,
}

/// The socket-facing state the [`UdpHost`] mutates while the node's driver
/// is borrowed for a step.
struct Io {
    id: NodeId,
    socket: UdpSocket,
    timers: BinaryHeap<Reverse<(u64, u64, TimerKind)>>,
    timer_seq: u64,
    addrs: HashMap<u128, SocketAddr>,
    delivery_tx: Sender<Delivery>,
    active: Arc<Active>,
    /// Shared with the protocol node; read only when telemetry was
    /// requested.
    obs: obs::Obs,
    c_tx: obs::CounterId,
    c_bytes_tx: obs::CounterId,
    c_rx: obs::CounterId,
    c_bytes_rx: obs::CounterId,
    c_decode_errors: obs::CounterId,
}

/// The UDP deployment's implementation of the protocol [`Host`] surface,
/// scoped to one event.
struct UdpHost<'a> {
    now: u64,
    io: &'a mut Io,
}

impl Host for UdpHost<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        let Some(&addr) = self.io.addrs.get(&to.0) else {
            return; // no address yet; the protocol will retry
        };
        let hints = mspastry::codec::referenced_node_ids(&msg)
            .into_iter()
            .filter_map(|id| self.io.addrs.get(&id.0).map(|&a| (id, a)))
            .take(envelope::MAX_HINTS)
            .collect();
        let env = Envelope {
            sender: self.io.id,
            hints,
            msg,
        };
        let bytes = env.encode();
        self.io.obs.inc(self.io.c_tx);
        self.io.obs.add(self.io.c_bytes_tx, bytes.len() as u64);
        let _ = self.io.socket.send_to(&bytes, addr);
    }

    fn set_timer(&mut self, delay_us: u64, kind: TimerKind) {
        self.io.timer_seq += 1;
        self.io
            .timers
            .push(Reverse((self.now + delay_us, self.io.timer_seq, kind)));
    }

    fn deliver(&mut self, d: mspastry::Delivery, _node: &Node) {
        let _ = self.io.delivery_tx.send(Delivery {
            key: d.key,
            payload: d.payload,
            hops: d.hops,
        });
    }

    fn became_active(&mut self) {
        let active = &self.io.active;
        *active.flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        active.changed.notify_all();
    }
}

/// How long [`UdpNode::spawn_with`] waits for the loop thread to step the
/// initial join.
const JOIN_STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the event loop refreshes the exporter's published slot.
const PUBLISH_PERIOD: Duration = Duration::from_millis(250);

/// Per-loop telemetry state (publish cadence, heartbeat cadence, liveness
/// timestamps). Only present when telemetry was requested.
struct Telem {
    shared: metrics::Shared,
    stat_interval: Option<Duration>,
    start: Instant,
    last_publish: Instant,
    last_stat: Instant,
    last_rx: Option<Instant>,
}

impl Telem {
    fn new(shared: metrics::Shared, stat_interval: Option<Duration>) -> Self {
        let now = Instant::now();
        Telem {
            shared,
            stat_interval,
            start: now,
            last_publish: now,
            last_stat: now,
            last_rx: None,
        }
    }
}

struct EventLoop {
    driver: Driver,
    /// Zero of the node's clock: protocol time is microseconds since then.
    epoch: Instant,
    cmd_rx: Receiver<Cmd>,
    buf: Vec<u8>,
    telem: Option<Telem>,
    io: Io,
}

impl EventLoop {
    /// Microseconds since the loop's epoch, from the monotonic clock.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Feeds one event through the shared driver at the current wall time.
    fn step(&mut self, event: Event) {
        let now = self.now_us();
        let mut host = UdpHost {
            now,
            io: &mut self.io,
        };
        self.driver.step(now, event, &mut host);
    }

    /// Steps the initial join: a node without a seed bootstraps a new
    /// overlay and is active afterwards.
    fn join(&mut self, seed: Option<(NodeId, SocketAddr)>) {
        if let Some((seed_id, seed_addr)) = seed {
            self.io.addrs.insert(seed_id.0, seed_addr);
        }
        self.step(Event::Join {
            seed: seed.map(|(id, _)| id),
        });
    }

    fn run(mut self) {
        loop {
            // Local commands.
            loop {
                match self.cmd_rx.try_recv() {
                    Ok(Cmd::Lookup(key, payload)) => {
                        self.step(Event::Lookup { key, payload });
                    }
                    Ok(Cmd::Shutdown) | Err(TryRecvError::Disconnected) => return,
                    Err(TryRecvError::Empty) => break,
                }
            }
            // Due timers.
            let now = self.now_us();
            while let Some(Reverse((at, _, _))) = self.io.timers.peek() {
                if *at > now {
                    break;
                }
                let Reverse((_, _, kind)) = self.io.timers.pop().unwrap();
                self.step(Event::Timer(kind));
            }
            // Incoming datagrams (the socket read timeout paces the loop). A
            // zero-length datagram only wakes the loop (see `shutdown`).
            match self.io.socket.recv_from(&mut self.buf) {
                Ok((0, _)) => {}
                Ok((n, from_addr)) => {
                    let bytes = self.buf[..n].to_vec();
                    self.io.obs.inc(self.io.c_rx);
                    self.io.obs.add(self.io.c_bytes_rx, n as u64);
                    if let Some(t) = self.telem.as_mut() {
                        t.last_rx = Some(Instant::now());
                    }
                    if let Ok(env) = Envelope::decode(&bytes) {
                        self.io.addrs.insert(env.sender.0, from_addr);
                        for (id, addr) in &env.hints {
                            self.io.addrs.entry(id.0).or_insert(*addr);
                        }
                        self.step(Event::Receive {
                            from: env.sender,
                            msg: env.msg,
                        });
                    } else {
                        self.io.obs.inc(self.io.c_decode_errors);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => {}
            }
            self.telemetry_tick();
        }
    }

    /// Publishes a fresh snapshot for the exporter and emits the stderr
    /// heartbeat when due. Pure observation: reads the node, never steps it.
    fn telemetry_tick(&mut self) {
        let Some(t) = self.telem.as_mut() else {
            return;
        };
        let health = || {
            let node = self.driver.node();
            let ls = node.leaf_set();
            metrics::Health {
                active: node.is_active(),
                leaf_set_members: ls.members().len(),
                leaf_set_capacity: 2 * ls.half(),
                leaf_set_complete: ls.is_complete(),
                suspected: node.suspected_count(),
                last_rx_age_us: t.last_rx.map(|at| at.elapsed().as_micros() as u64),
                uptime_us: t.start.elapsed().as_micros() as u64,
            }
        };
        if t.last_publish.elapsed() >= PUBLISH_PERIOD {
            t.last_publish = Instant::now();
            let published = metrics::Published {
                snapshot: self.io.obs.snapshot(),
                health: health(),
            };
            *t.shared.lock().unwrap_or_else(|e| e.into_inner()) = Some(published);
        }
        if let Some(interval) = t.stat_interval {
            if t.last_stat.elapsed() >= interval {
                t.last_stat = Instant::now();
                let h = health();
                let s = self.io.obs.snapshot();
                eprintln!(
                    "[mspastry {}] up {:.0}s active={} leaf={}/{} suspect={} \
                     rx={} tx={} last_rx={}",
                    self.io.id,
                    h.uptime_us as f64 / 1e6,
                    h.active,
                    h.leaf_set_members,
                    h.leaf_set_capacity,
                    h.suspected,
                    s.counter("udp.datagrams_rx"),
                    s.counter("udp.datagrams_tx"),
                    match h.last_rx_age_us {
                        Some(age) => format!("{:.1}s ago", age as f64 / 1e6),
                        None => "never".to_string(),
                    },
                );
            }
        }
    }
}

/// A configuration with timeouts scaled down for LAN/localhost deployments
/// and tests (the paper's defaults assume wide-area round trips).
pub fn lan_config() -> Config {
    Config {
        t_ls_us: 500_000,
        t_o_us: 200_000,
        self_tune_period_us: 1_000_000,
        distance_probe_spacing_us: 20_000,
        nn_probe_timeout_us: 100_000,
        rt_maintenance_period_us: 2_000_000,
        ack_rto_initial_us: 100_000,
        ack_rto_min_us: 2_000,
        join_retry_us: 1_000_000,
        ..Config::default()
    }
}
