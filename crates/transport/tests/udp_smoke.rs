//! Loopback UDP smoke tests: real sockets, real threads, bounded waits.
//!
//! These exercise the full deployment stack — envelope codec, address-book
//! hints, the shared `mspastry::Driver`, and the wall-clock timer heap — on
//! 127.0.0.1, so they are CI-runnable without network setup.

use mspastry::Id;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::time::{Duration, Instant};
use transport::{lan_config, Envelope, Telemetry, UdpNode};

/// Waits on each node's delivery channel in turn until `per_node` lookups
/// have arrived there or the shared deadline passes. Every key is a node id,
/// so node `i` is the root of exactly the lookups for `ids[i]`. Returns the
/// total received.
fn collect_deliveries(nodes: &[UdpNode], ids: &[Id], per_node: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    let mut received = 0;
    for (node, &id) in nodes.iter().zip(ids) {
        for _ in 0..per_node {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Ok(d) = node.deliveries().recv_timeout(wait) else {
                break;
            };
            assert_eq!(d.key, id, "delivered at the key's root");
            received += 1;
        }
    }
    received
}

#[test]
fn three_node_overlay_joins_and_routes_within_bound() {
    // The minimal non-trivial overlay: a bootstrap plus two joiners, with
    // every wait bounded so a hang fails the test instead of wedging CI.
    let ids = [Id(10 << 100), Id(200 << 100), Id(300 << 100)];
    let boot = UdpNode::spawn(ids[0], lan_config(), "127.0.0.1:0", None).unwrap();
    assert!(boot.is_active(), "bootstrap is active immediately");
    let contact = (boot.id(), boot.local_addr());
    let mut nodes = vec![boot];
    for &id in &ids[1..] {
        let node = UdpNode::spawn(id, lan_config(), "127.0.0.1:0", Some(contact)).unwrap();
        assert!(
            node.wait_active(Duration::from_secs(20)),
            "node {id} failed to join within bound"
        );
        // Once active, is_active agrees and a wait returns whatever its bound.
        assert!(node.is_active() && node.wait_active(Duration::ZERO));
        nodes.push(node);
    }

    // Each node looks up every *other* node's id; the root is unambiguous.
    let mut expected = 0;
    for (i, issuer) in nodes.iter().enumerate() {
        for (j, &key) in ids.iter().enumerate() {
            if i != j {
                issuer.lookup(key, (i * 10 + j) as u64);
                expected += 1;
            }
        }
    }
    let received = collect_deliveries(&nodes, &ids, ids.len() - 1, Duration::from_secs(20));
    assert_eq!(received, expected, "all lookups delivered at their roots");
    for node in nodes {
        node.shutdown();
    }
}

/// One blocking HTTP GET against the metrics listener; returns
/// (status-line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// The value of the unlabelled sample `name` in an exposition body.
fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn metrics_endpoint_serves_wellformed_exposition_and_healthz() {
    // Two-node overlay with telemetry on: joining generates real UDP
    // traffic, so the scraped counters are non-trivially populated.
    let telemetry = Telemetry {
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        stat_interval: None,
    };
    let ids = [Id(5 << 100), Id(400 << 100)];
    let boot = UdpNode::spawn_with(ids[0], lan_config(), "127.0.0.1:0", None, telemetry).unwrap();
    let contact = (boot.id(), boot.local_addr());
    let joiner = UdpNode::spawn_with(
        ids[1],
        lan_config(),
        "127.0.0.1:0",
        Some(contact),
        telemetry,
    )
    .unwrap();
    assert!(joiner.wait_active(Duration::from_secs(20)), "joiner active");
    let addr = boot.metrics_addr().expect("telemetry on => metrics addr");

    // The first snapshot is published up to one publish period after spawn;
    // poll until the listener stops answering 503 and the published
    // snapshot includes the bootstrap's reply to the join.
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        let (status, headers, body) = http_get(addr, "/metrics");
        if status.contains("200") {
            assert!(
                headers.contains("text/plain; version=0.0.4"),
                "exposition content type, got: {headers}"
            );
            if sample(&body, "mspastry_sent_join_reply_total").is_some_and(|v| v > 0.0) {
                break body;
            }
        } else {
            assert!(status.contains("503"), "only 503 before first publish");
        }
        assert!(Instant::now() < deadline, "no join reply published in time");
        std::thread::sleep(Duration::from_millis(25));
    };
    // Sends are counted under the simulator's names: per kind, per
    // category and in wire bytes.
    for name in [
        "mspastry_sent_category_join_total",
        "mspastry_sent_bytes_total",
    ] {
        assert!(
            sample(&body, name).is_some_and(|v| v > 0.0),
            "{name} missing or zero"
        );
    }

    // Well-formedness: every non-comment line is `name[{labels}] value` with
    // a parseable f64 value and a `mspastry_`-prefixed metric name.
    let mut samples = 0;
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.starts_with("mspastry_")
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line}"
        );
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in line: {line}"));
        samples += 1;
    }
    assert!(samples > 0, "exposition has at least one sample");
    assert!(
        body.contains("mspastry_udp_datagrams_rx_total"),
        "io counters exported"
    );
    assert!(body.contains("mspastry_active 1"), "health gauges exported");

    // /healthz answers JSON with the same liveness view.
    let (status, headers, health) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "healthz ok, got: {status}");
    assert!(headers.contains("application/json"), "json content type");
    assert!(
        health.contains("\"active\":true"),
        "bootstrap is active: {health}"
    );

    // Unknown paths 404 instead of wedging the listener.
    let (status, _, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "unknown path 404s, got: {status}");

    joiner.shutdown();
    boot.shutdown();
}

#[test]
fn udp_overlay_forms_and_routes_lookups() {
    let mut rng = SmallRng::seed_from_u64(77);
    let n = 5;
    let ids: Vec<Id> = (0..n).map(|_| Id::random(&mut rng)).collect();
    let mut nodes = Vec::new();
    let boot = UdpNode::spawn(ids[0], lan_config(), "127.0.0.1:0", None).unwrap();
    let boot_contact = (boot.id(), boot.local_addr());
    nodes.push(boot);
    for &id in &ids[1..] {
        let node = UdpNode::spawn(id, lan_config(), "127.0.0.1:0", Some(boot_contact)).unwrap();
        assert!(
            node.wait_active(Duration::from_secs(20)),
            "node {id} failed to join"
        );
        nodes.push(node);
    }
    assert!(nodes.iter().all(|n| n.is_active()));

    // Route lookups for keys equal to each node's id (the root is then
    // unambiguous) from every other node.
    for (i, target) in ids.iter().enumerate() {
        let issuer = &nodes[(i + 1) % n];
        issuer.lookup(*target, i as u64);
    }
    let received = collect_deliveries(&nodes, &ids, 1, Duration::from_secs(20));
    assert_eq!(received, n, "all lookups delivered at their roots");
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn wait_active_returns_false_at_its_bound_when_the_seed_never_answers() {
    // A bound socket that nobody reads: the join request goes out and no
    // reply ever comes back.
    let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
    let seed = (Id(1 << 100), silent.local_addr().unwrap());
    let node = UdpNode::spawn(Id(2 << 100), lan_config(), "127.0.0.1:0", Some(seed)).unwrap();
    let bound = Duration::from_millis(300);
    let t0 = Instant::now();
    assert!(!node.wait_active(bound), "no join without a live seed");
    let waited = t0.elapsed();
    assert!(waited >= bound, "returned before its bound: {waited:?}");
    assert!(waited < bound * 10, "overslept its bound: {waited:?}");
    assert!(!node.is_active());
    node.shutdown();
}

#[test]
fn shutdown_joins_the_loop_and_closes_the_metrics_port() {
    let telemetry = Telemetry {
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        stat_interval: None,
    };
    let node =
        UdpNode::spawn_with(Id(9 << 100), lan_config(), "127.0.0.1:0", None, telemetry).unwrap();
    let udp_addr = node.local_addr();
    let metrics_addr = node.metrics_addr().unwrap();
    TcpStream::connect(metrics_addr).expect("listener up while the node runs");
    node.shutdown();
    let err = TcpStream::connect(metrics_addr).expect_err("listener closed by shutdown");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    // The loop thread owned the node's socket; once it has been joined the
    // port is free to bind again.
    UdpSocket::bind(udp_addr).expect("node socket closed by shutdown");
}

#[test]
fn empty_and_garbage_datagrams_are_survived_and_only_garbage_counts() {
    let telemetry = Telemetry {
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        stat_interval: None,
    };
    let ids = [Id(11 << 100), Id(900 << 100)];
    let boot = UdpNode::spawn_with(ids[0], lan_config(), "127.0.0.1:0", None, telemetry).unwrap();
    let contact = (boot.id(), boot.local_addr());
    let joiner = UdpNode::spawn(ids[1], lan_config(), "127.0.0.1:0", Some(contact)).unwrap();
    assert!(joiner.wait_active(Duration::from_secs(20)), "joiner active");

    // Zero-length datagrams first, then garbage: one sender on loopback, so
    // the node reads them in this order.
    let garbage: [&[u8]; 3] = [&[0xff; 7], &[0x00], &[0xde, 0xad, 0xbe, 0xef, 0x01]];
    for g in garbage {
        assert!(Envelope::decode(g).is_err(), "{g:?} must not decode");
    }
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..5 {
        attacker.send_to(&[], boot.local_addr()).unwrap();
    }
    for g in garbage {
        attacker.send_to(g, boot.local_addr()).unwrap();
    }

    // The node still routes: a lookup issued at the bootstrap for the
    // joiner's id crosses the wire.
    boot.lookup(ids[1], 5);
    let d = joiner
        .deliveries()
        .recv_timeout(Duration::from_secs(20))
        .expect("lookup delivered after the junk");
    assert_eq!((d.key, d.payload), (ids[1], 5));

    // Wait for a published snapshot that has seen all the garbage; the
    // zero-length datagrams, read before it, must not have counted.
    let addr = boot.metrics_addr().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let errors = loop {
        let (status, _, body) = http_get(addr, "/metrics");
        let errors = sample(&body, "mspastry_udp_decode_errors_total");
        if status.contains("200") && errors.is_some_and(|e| e >= garbage.len() as f64) {
            break errors.unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "garbage never counted: {errors:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(
        errors,
        garbage.len() as f64,
        "only garbage is a decode error"
    );
    joiner.shutdown();
    boot.shutdown();
}
