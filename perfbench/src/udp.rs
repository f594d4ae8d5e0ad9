//! The `udp_cluster` workload: four `transport::lan_config()` nodes on
//! 127.0.0.1 and one closed-loop generator with one lookup in flight.
//!
//! The generator draws uniform keys, computes each key's root itself with
//! `mspastry::id::closer_to`, and waits on that node's delivery channel.
//! Every wait is bounded; a lookup that does not arrive in time is counted
//! as failed, never turned into a panic. Node counters come from an
//! end-of-run scrape of each node's `/metrics`.

use crate::{median, peak_rss_mb, quantile, Sample};
use mspastry::id::closer_to;
use mspastry::{codec, Id, LookupId, Message};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};
use transport::{lan_config, Delivery, Telemetry, UdpNode};

const NODES: usize = 4;
/// Cluster set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Bound on waiting for every leaf set to hold the other nodes.
const READY_TIMEOUT: Duration = Duration::from_secs(10);
/// A lookup not delivered at its root within this time counts as lost.
const LOOKUP_TIMEOUT: Duration = Duration::from_secs(2);
/// Lookups per batch; `run_s` is the median batch wall time.
const BATCH: usize = 100;
/// Longer than the nodes' 250 ms publish period, so a scrape taken after
/// this pause reflects everything sent before it.
const PUBLISH_WAIT: Duration = Duration::from_millis(600);
/// Wall time spent timing the codec per run.
const CODEC_BUDGET: Duration = Duration::from_millis(300);

/// One node's scraped counters and gauges, keyed by exposition name.
type Scrape = HashMap<String, f64>;

/// Spawns a bootstrap node, then joins the others one at a time through it.
/// Returns the nodes and each joiner's spawn-to-active time in seconds.
fn spawn_cluster(ids: &[Id]) -> Result<(Vec<UdpNode>, Vec<f64>), String> {
    let telemetry = Telemetry {
        metrics_addr: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
        stat_interval: None,
    };
    let spawn = |id: Id, seed| {
        UdpNode::spawn_with(id, lan_config(), "127.0.0.1:0", seed, telemetry)
            .map_err(|e| format!("spawn node {id}: {e}"))
    };
    let boot = spawn(ids[0], None)?;
    if !boot.wait_active(JOIN_TIMEOUT) {
        return Err("bootstrap node never became active".into());
    }
    let contact = Some((boot.id(), boot.local_addr()));
    let mut nodes = vec![boot];
    let mut join_s = Vec::new();
    for &id in &ids[1..] {
        let t0 = Instant::now();
        let node = spawn(id, contact)?;
        if !node.wait_active(JOIN_TIMEOUT) {
            return Err(format!("node {id} did not join within {JOIN_TIMEOUT:?}"));
        }
        join_s.push(t0.elapsed().as_secs_f64());
        nodes.push(node);
    }
    Ok((nodes, join_s))
}

/// One bounded HTTP GET of `/metrics`; `None` until the node has published
/// its first snapshot (503).
fn scrape_once(addr: SocketAddr) -> Result<Option<Scrape>, String> {
    let timeout = Duration::from_secs(2);
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n"))
        .map_err(|e| format!("request {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {addr}: {e}"))?;
    if !raw.starts_with("HTTP/1.0 200") {
        return Ok(None);
    }
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok(Some(
        body.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, v) = l.rsplit_once(' ')?;
                Some((name.to_string(), v.parse().ok()?))
            })
            .collect(),
    ))
}

/// Scrapes every node, retrying (bounded) until each has published and
/// `ready` holds for each scrape.
fn scrape_all(
    nodes: &[UdpNode],
    deadline: Instant,
    ready: impl Fn(&Scrape) -> bool,
) -> Result<Vec<Scrape>, String> {
    loop {
        let mut all = Vec::with_capacity(nodes.len());
        for n in nodes {
            let addr = n.metrics_addr().ok_or("telemetry is on")?;
            match scrape_once(addr)? {
                Some(s) if ready(&s) => all.push(s),
                _ => break,
            }
        }
        if all.len() == nodes.len() {
            return Ok(all);
        }
        if Instant::now() > deadline {
            return Err("nodes not ready before the deadline".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn get(s: &Scrape, name: &str) -> f64 {
    s.get(name).copied().unwrap_or(0.0)
}

/// Sum over nodes of the change in `name` between two scrapes.
fn delta(before: &[Scrape], after: &[Scrape], name: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| get(a, name) - get(b, name))
        .sum()
}

/// The messages the codec is timed on: one of each size class, from a bare
/// ack up to a full routing-table row.
fn codec_corpus() -> Vec<Message> {
    let ids: Vec<Id> = (1..=16u128)
        .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)))
        .collect();
    let id = LookupId {
        src: ids[0],
        seq: 77,
    };
    vec![
        Message::Ack { id },
        Message::Heartbeat {
            trt_hint: Some(1_800_000),
        },
        Message::RtProbe { nonce: 9 },
        Message::DistanceProbeReply { nonce: 10 },
        Message::Lookup {
            id,
            key: ids[5],
            payload: 42,
            hops: 2,
            issued_at_us: 1_000_000,
            is_retransmit: false,
            wants_acks: true,
        },
        Message::LsProbe {
            leaf_set: ids.clone(),
            failed: ids[..2].to_vec(),
            trt_hint: Some(1_200_000),
        },
        Message::RtRowReply {
            row: 3,
            entries: ids[..15].to_vec(),
        },
    ]
}

/// Mean encode and decode time per message over the corpus, in ns.
fn time_codec(s: &mut Sample) -> (f64, f64) {
    let corpus = codec_corpus();
    let encoded: Vec<Vec<u8>> = corpus.iter().map(codec::encode).collect();
    for (m, b) in corpus.iter().zip(&encoded) {
        if codec::decode(b).as_ref() != Ok(m) {
            s.fail(&format!("codec round trip changed {}", m.kind_name()));
        }
    }
    let time = |f: &dyn Fn()| {
        let t0 = Instant::now();
        let mut reps = 0u64;
        while t0.elapsed() < CODEC_BUDGET / 2 {
            f();
            reps += 1;
        }
        t0.elapsed().as_nanos() as f64 / (reps * corpus.len() as u64) as f64
    };
    let enc = time(&|| {
        for m in &corpus {
            std::hint::black_box(codec::encode(std::hint::black_box(m)));
        }
    });
    let dec = time(&|| {
        for b in &encoded {
            let _ = std::hint::black_box(codec::decode(std::hint::black_box(b)));
        }
    });
    (enc, dec)
}

/// What the generator saw for one issued lookup.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Pending,
    Delivered { ms: f64, hops: u32 },
    Failed,
}

/// Closed-loop generator state.
struct Generator<'a> {
    nodes: &'a [UdpNode],
    ids: &'a [Id],
    keys: Vec<Id>,
    outcomes: Vec<Outcome>,
    wrong_root: u64,
}

impl Generator<'_> {
    fn root_of(&self, key: Id) -> usize {
        let root = self
            .ids
            .iter()
            .copied()
            .reduce(|a, b| closer_to(key, a, b))
            .expect("non-empty cluster");
        self.ids
            .iter()
            .position(|&i| i == root)
            .expect("root is a node")
    }

    /// Checks a delivery at `node` that is not the one being waited for. A
    /// repeat of an earlier lookup at its root is harmless; anything else
    /// was delivered at a wrong node or with a wrong payload.
    fn stray(&mut self, node: usize, d: Delivery) {
        let seq = d.payload as usize;
        let known = seq < self.keys.len() && self.keys[seq] == d.key;
        if known && self.root_of(d.key) == node {
            return;
        }
        self.wrong_root += 1;
        if known {
            self.outcomes[seq] = Outcome::Failed;
        }
    }

    fn drain(&mut self) {
        for n in 0..self.nodes.len() {
            while let Ok(d) = self.nodes[n].deliveries().try_recv() {
                self.stray(n, d);
            }
        }
    }

    /// Issues one lookup from `issuer` and waits (bounded) for it at the
    /// computed root.
    fn lookup(&mut self, issuer: usize, key: Id) -> Result<(), String> {
        let seq = self.keys.len();
        let root = self.root_of(key);
        self.keys.push(key);
        self.outcomes.push(Outcome::Pending);
        let t0 = Instant::now();
        self.nodes[issuer].lookup(key, seq as u64);
        let deadline = t0 + LOOKUP_TIMEOUT;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.nodes[root].deliveries().recv_timeout(wait) {
                Ok(d) if d.payload == seq as u64 && d.key == key => {
                    if self.outcomes[seq] == Outcome::Pending {
                        self.outcomes[seq] = Outcome::Delivered {
                            ms: t0.elapsed().as_secs_f64() * 1e3,
                            hops: d.hops,
                        };
                    }
                    return Ok(());
                }
                Ok(d) => self.stray(root, d),
                Err(RecvTimeoutError::Timeout) => {
                    self.drain();
                    self.outcomes[seq] = Outcome::Failed;
                    return Ok(());
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("node {root} stopped while a lookup was in flight"));
                }
            }
        }
    }
}

/// Runs the UDP workload for about `seconds` of wall time.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Sample, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7564_705f_636c_7573);
    let ids: Vec<Id> = (0..NODES).map(|_| Id::random(&mut rng)).collect();
    let mut s = Sample::default();

    let mut setup = Vec::new();
    let mut join_s = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        // The previous cluster is shut down first so sockets never overlap.
        drop(cluster.take());
        let t0 = Instant::now();
        let (nodes, joins) = spawn_cluster(&ids)?;
        setup.push(t0.elapsed().as_secs_f64());
        join_s.extend(joins);
        cluster = Some(nodes);
    }
    let nodes = cluster.expect("SETUP_REPS > 0");

    // Start once every leaf set holds the other nodes, so lookups measure
    // the converged overlay.
    let full = (NODES - 1) as f64;
    let before = scrape_all(&nodes, Instant::now() + READY_TIMEOUT, |m| {
        get(m, "mspastry_leaf_set_members") >= full
    })?;

    let mut g = Generator {
        nodes: &nodes,
        ids: &ids,
        keys: Vec::new(),
        outcomes: Vec::new(),
        wrong_root: 0,
    };
    let mut batch_s = Vec::new();
    let start = Instant::now();
    let mut batch_start = start;
    while start.elapsed().as_secs_f64() < seconds {
        g.drain();
        let key = Id::random(&mut rng);
        let issuer = rng.gen_range(0..NODES);
        g.lookup(issuer, key)?;
        if g.keys.len().is_multiple_of(BATCH) {
            batch_s.push(batch_start.elapsed().as_secs_f64());
            batch_start = Instant::now();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::thread::sleep(PUBLISH_WAIT);
    g.drain();
    let after = scrape_all(&nodes, Instant::now() + READY_TIMEOUT, |_| true)?;

    let attempted = g.keys.len();
    let delivered: Vec<(f64, u32)> = g
        .outcomes
        .iter()
        .filter_map(|o| match *o {
            Outcome::Delivered { ms, hops } => Some((ms, hops)),
            _ => None,
        })
        .collect();
    s.attempted = attempted as u64;
    s.failed = (attempted - delivered.len()) as u64;
    if g.wrong_root > 0 {
        s.fail(&format!(
            "{} UDP deliveries were not at the computed root with the issued payload",
            g.wrong_root
        ));
    }
    if delivered.is_empty() {
        return Err("no lookup was delivered".into());
    }
    if batch_s.is_empty() {
        batch_s.push(elapsed * BATCH as f64 / attempted as f64);
    }

    let mut all_ms: Vec<f64> = delivered.iter().map(|d| d.0).collect();
    let by_hops =
        |h: u32| -> Vec<f64> { delivered.iter().filter(|d| d.1 == h).map(|d| d.0).collect() };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let one_hop = by_hops(1);
    let routed: Vec<f64> = delivered.iter().filter(|d| d.1 >= 1).map(|d| d.0).collect();
    // Each hop of a delivered lookup is one first-transmission lookup
    // datagram; every other datagram is control traffic (§5.2).
    let lookup_hops: f64 = delivered.iter().map(|d| d.1 as f64).sum();
    let datagrams = delta(&before, &after, "mspastry_udp_datagrams_tx_total");
    let node_s = delta(&before, &after, "mspastry_uptime_us") / 1e6;

    s.metric("setup_s", median(&setup));
    s.metric("run_s", median(&batch_s));
    s.metric(
        "lookup_success_rate",
        delivered.len() as f64 / attempted as f64,
    );
    // A one-hop lookup takes the direct path, so its latency is the direct
    // delay the relative delay penalty divides by.
    s.metric("mean_rdp", mean(&routed) / mean(&one_hop));
    s.metric(
        "control_msgs_per_node_s",
        (datagrams - lookup_hops) / node_s,
    );
    s.metric("lookup_p50_ms", quantile(&mut all_ms, 0.5));
    s.metric("lookup_p90_ms", quantile(&mut all_ms, 0.9));
    s.metric("lookups_per_s", delivered.len() as f64 / elapsed);
    s.metric("peak_rss_mb", peak_rss_mb());

    if traced {
        s.metric("udp.join_ms", median(&join_s) * 1e3);
        s.metric("udp.lookup_p50_0hop_ms", median(&by_hops(0)));
        s.metric("udp.lookup_p50_1hop_ms", median(&one_hop));
        s.metric("udp.lookup_p99_ms", quantile(&mut all_ms, 0.99));
        s.metric("udp.datagrams_tx_per_lookup", datagrams / attempted as f64);
        s.metric(
            "udp.bytes_tx_per_lookup",
            delta(&before, &after, "mspastry_udp_bytes_tx_total") / attempted as f64,
        );
        s.metric(
            "udp.decode_errors",
            after
                .iter()
                .map(|m| get(m, "mspastry_udp_decode_errors_total"))
                .sum(),
        );
        let (enc, dec) = time_codec(&mut s);
        s.metric("codec.encode_ns", enc);
        s.metric("codec.decode_ns", dec);
    }
    for n in nodes {
        n.shutdown();
    }
    Ok(s)
}
