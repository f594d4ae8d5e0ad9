//! A real MSPastry overlay over UDP on localhost: the exact same protocol
//! state machine that runs in the simulator, bound to actual sockets — the
//! paper's "the code that runs in the simulator and in the real deployment
//! is the same with the exception of low level messaging".
//!
//! ```sh
//! cargo run --release -p transport --example udp_ring
//! ```
//!
//! Exits non-zero if a node fails to join or a lookup is not delivered.

use mspastry::Id;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io;
use std::time::{Duration, Instant};
use transport::{lan_config, UdpNode};

fn main() -> io::Result<()> {
    let n = 8;
    let mut rng = SmallRng::seed_from_u64(1);
    let ids: Vec<Id> = (0..n).map(|_| Id::random(&mut rng)).collect();

    println!("bootstrapping an {n}-node overlay on 127.0.0.1 ...");
    let mut nodes = Vec::new();
    let boot = UdpNode::spawn(ids[0], lan_config(), "127.0.0.1:0", None)?;
    println!("  {} listening on {}", boot.id(), boot.local_addr());
    let contact = (boot.id(), boot.local_addr());
    nodes.push(boot);
    for &id in &ids[1..] {
        let t0 = Instant::now();
        let node = UdpNode::spawn(id, lan_config(), "127.0.0.1:0", Some(contact))?;
        if !node.wait_active(Duration::from_secs(15)) {
            return Err(io::Error::other(format!("node {id} failed to join")));
        }
        println!(
            "  {} on {} joined in {:.2} ms",
            node.id(),
            node.local_addr(),
            t0.elapsed().as_secs_f64() * 1e3
        );
        nodes.push(node);
    }

    println!("\nrouting one lookup to each node's identifier ...");
    for (i, &target) in ids.iter().enumerate() {
        nodes[(i + 3) % n].lookup(target, i as u64);
    }
    // Each key is a node id, so that node is the one to wait on.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut received = 0;
    for (node, id) in nodes.iter().zip(&ids) {
        let wait = deadline.saturating_duration_since(Instant::now());
        let delivered = node.deliveries().recv_timeout(wait).ok();
        if let Some(d) = delivered.filter(|d| d.key == *id) {
            println!(
                "  node {id} delivered payload {} for key {} in {} hops",
                d.payload, d.key, d.hops
            );
            received += 1;
        }
    }
    println!("\n{received}/{n} lookups delivered at their root nodes.");
    for node in nodes {
        node.shutdown();
    }
    if received < n {
        return Err(io::Error::other(format!(
            "only {received} of {n} lookups delivered"
        )));
    }
    Ok(())
}
