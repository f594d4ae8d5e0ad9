//! A serde-free Prometheus-text exporter for live UDP nodes.
//!
//! The node's event loop periodically publishes a [`Published`] pair — a
//! frozen [`Snapshot`] of its per-run registry plus a [`Health`] summary of
//! overlay state — into a shared slot; a tiny blocking TCP listener
//! ([`MetricsServer`]) renders it on demand as:
//!
//! * `GET /metrics` — Prometheus exposition format (text/plain version
//!   0.0.4): counters as `mspastry_<name>_total`, histograms as summaries
//!   with `quantile` labels, health fields as gauges;
//! * `GET /healthz` — a small JSON document (leaf-set fill, suspected
//!   peers, last-heartbeat age, uptime).
//!
//! No HTTP library, no serde: the build environment is offline, and two
//! GET routes do not justify a dependency. The server thread never touches
//! protocol state — it only clones the last published pair out of a mutex,
//! so a slow scraper cannot stall the overlay node.

use obs::{JsonWriter, Snapshot};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// End-of-loop overlay health, published next to the metrics snapshot.
#[derive(Debug, Clone, Default)]
pub struct Health {
    /// Whether the node has completed its join.
    pub active: bool,
    /// Leaf-set entries currently held.
    pub leaf_set_members: usize,
    /// Leaf-set capacity (2 × half-size).
    pub leaf_set_capacity: usize,
    /// Whether both leaf-set halves are full.
    pub leaf_set_complete: bool,
    /// Peers currently suspected faulty (probed, reply outstanding).
    pub suspected: usize,
    /// Microseconds since the last datagram was received (`None` before the
    /// first one).
    pub last_rx_age_us: Option<u64>,
    /// Microseconds since the event loop started.
    pub uptime_us: u64,
}

/// One published observation: the registry snapshot and the health summary.
#[derive(Debug, Clone, Default)]
pub struct Published {
    /// Frozen registry metrics.
    pub snapshot: Snapshot,
    /// Overlay health at publish time.
    pub health: Health,
}

/// The slot the event loop publishes into and the server reads from.
pub type Shared = Arc<Mutex<Option<Published>>>;

/// Sanitises a registry metric name into a Prometheus metric name: `.` and
/// every other non-`[a-zA-Z0-9_:]` character becomes `_`, and the
/// `mspastry_` namespace prefix is prepended.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("mspastry_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a registry snapshot in Prometheus exposition format: counters as
/// `<name>_total` counter metrics, histograms as summaries (quantile labels
/// from the log-bucket percentile estimates, plus `_sum`/`_count`).
pub fn render_prometheus(s: &Snapshot) -> String {
    let mut out = String::with_capacity(256 + 96 * (s.counters.len() + s.histograms.len()));
    for (name, v) in &s.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {v}\n"));
    }
    for (name, h) in &s.histograms {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
            if let Some(v) = v {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
    }
    out
}

/// Renders the health summary as Prometheus gauges (appended to the
/// `/metrics` body after the snapshot metrics).
pub fn render_health_gauges(h: &Health) -> String {
    let mut out = String::with_capacity(512);
    let mut gauge = |name: &str, v: u64| {
        out.push_str(&format!(
            "# TYPE mspastry_{name} gauge\nmspastry_{name} {v}\n"
        ));
    };
    gauge("active", h.active as u64);
    gauge("leaf_set_members", h.leaf_set_members as u64);
    gauge("leaf_set_capacity", h.leaf_set_capacity as u64);
    gauge("leaf_set_complete", h.leaf_set_complete as u64);
    gauge("suspected_peers", h.suspected as u64);
    gauge("uptime_us", h.uptime_us);
    if let Some(age) = h.last_rx_age_us {
        gauge("last_rx_age_us", age);
    }
    out
}

/// Renders the `/healthz` JSON document.
pub fn render_healthz(h: &Health) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("active").bool(h.active);
    w.key("leaf_set")
        .begin_object()
        .field_u64("members", h.leaf_set_members as u64)
        .field_u64("capacity", h.leaf_set_capacity as u64)
        .key("complete")
        .bool(h.leaf_set_complete)
        .end_object();
    w.field_u64("suspected_peers", h.suspected as u64)
        .field_opt_u64("last_rx_age_us", h.last_rx_age_us)
        .field_u64("uptime_us", h.uptime_us);
    w.end_object();
    w.finish()
}

/// A minimal blocking HTTP/1.0 server for `/metrics` and `/healthz`.
///
/// One accept-loop thread, blocked in `accept`; connections are handled
/// inline (scrapers are sequential and the bodies are small). Dropping the
/// handle stops the thread and closes the listener.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `bind` and starts serving the shared published slot.
    ///
    /// # Errors
    ///
    /// Returns any TCP bind/configuration error.
    pub fn start<A: ToSocketAddrs>(bind: A, shared: Shared) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("mspastry-metrics".to_string())
            .spawn(move || serve(listener, shared, stop2))?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound listener address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocked `accept`. Should the connect fail, the thread is
        // left to end with the process rather than hanging the drop.
        if TcpStream::connect(self.addr).is_ok() {
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn serve(listener: TcpListener, shared: Shared, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        if let Ok(mut stream) = stream {
            let _ = handle_conn(&mut stream, &shared);
        }
    }
}

fn handle_conn(stream: &mut TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read up to the end of the header block (a client may send it in
    // pieces), so the close below does not reset the connection over unread
    // bytes. Only the request line is used.
    let mut buf = [0u8; 1024];
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[n..])? {
            0 => break,
            read => n += read,
        }
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .strip_prefix("GET ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or("");
    let published = shared.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let (status, content_type, body) = match (path, published) {
        ("/metrics", Some(p)) => {
            let mut body = render_prometheus(&p.snapshot);
            body.push_str(&render_health_gauges(&p.health));
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        ("/healthz", Some(p)) => ("200 OK", "application/json", render_healthz(&p.health)),
        ("/metrics" | "/healthz", None) => (
            "503 Service Unavailable",
            "text/plain",
            "telemetry not yet published\n".to_string(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Obs;

    fn sample_health() -> Health {
        Health {
            active: true,
            leaf_set_members: 3,
            leaf_set_capacity: 16,
            leaf_set_complete: false,
            suspected: 1,
            last_rx_age_us: Some(1500),
            uptime_us: 42_000_000,
        }
    }

    #[test]
    fn prom_names_are_sanitised() {
        assert_eq!(prom_name("udp.datagrams-rx"), "mspastry_udp_datagrams_rx");
        assert_eq!(prom_name("lookup.latency_us"), "mspastry_lookup_latency_us");
    }

    #[test]
    fn exposition_renders_counters_and_summaries() {
        let o = Obs::new(0.0, 1);
        o.add(o.counter("udp.datagrams_rx"), 7);
        let h = o.histogram("lookup.latency_us");
        for v in [100, 200, 300] {
            o.record(h, v);
        }
        let text = render_prometheus(&o.snapshot());
        assert!(text.contains("# TYPE mspastry_lookup_latency_us summary\n"));
        assert!(text.contains("# TYPE mspastry_udp_datagrams_rx_total counter\n"));
        assert!(text.contains("mspastry_udp_datagrams_rx_total 7\n"));
        assert!(text.contains("mspastry_lookup_latency_us_count 3\n"));
        assert!(text.contains("mspastry_lookup_latency_us_sum 600\n"));
        assert!(text.contains("{quantile=\"0.5\"}"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            assert!(parts.next().is_some(), "no name in {line}");
        }
    }

    #[test]
    fn healthz_is_json() {
        let s = render_healthz(&sample_health());
        assert_eq!(
            s,
            "{\"active\":true,\
             \"leaf_set\":{\"members\":3,\"capacity\":16,\"complete\":false},\
             \"suspected_peers\":1,\"last_rx_age_us\":1500,\"uptime_us\":42000000}"
        );
    }

    #[test]
    fn server_routes_and_survives_bad_requests() {
        let shared: Shared = Arc::new(Mutex::new(None));
        let srv = MetricsServer::start("127.0.0.1:0", shared.clone()).unwrap();
        let addr = srv.local_addr();
        let get = |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        assert!(get("/metrics").starts_with("HTTP/1.0 503"));
        *shared.lock().unwrap() = Some(Published {
            snapshot: Snapshot::default(),
            health: sample_health(),
        });
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("mspastry_active 1\n"));
        let health = get("/healthz");
        assert!(health.contains("application/json"));
        assert!(health.contains("\"suspected_peers\":1"));
        assert!(get("/nope").starts_with("HTTP/1.0 404"));
        // Garbage request: connection handled, server stays up.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(get("/healthz").starts_with("HTTP/1.0 200"));
    }
}
