//! A fixed reference workload of the benchmark's own, timed after every
//! simulator run to track the host's speed.
//!
//! This host moves between speed regimes tens of percent apart, each
//! lasting from seconds to minutes (see `README.md`, *Host facts*). The
//! simulator's wall time follows the regime, so a 30-second median still
//! moved by 22% (interquartile share) across a seven-minute probe. This
//! workload follows the same regimes: dividing by it left 7–9%. It mixes
//! the two kinds of work the simulator's time is most sensitive to:
//! random reads with unpredictable branches in an L2-sized table, and a
//! discrete-event loop over a binary heap and a hash map. It uses no code
//! of the repository, so a change to the simulator cannot move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of one [`Reference::time`] on the host the benchmark
/// was tuned on (a 2-vCPU Intel Xeon at 2.0 GHz). Dividing by the measured
/// median and multiplying by this keeps normalized times close to that
/// host's seconds.
pub const NOMINAL_S: f64 = 0.07;

/// Table reads per timing; about 35 ms on the host above.
const READS: usize = 12_000_000;
/// Events per timing of the event loop; about 35 ms on the host above.
const EVENTS: u64 = 150_000;

pub struct Reference {
    table: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            // 1 MiB: inside one core's L2.
            table: (0..1u32 << 18)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }

    /// Runs the workload once and returns its wall time in seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        black_box(self.branchy_reads(black_box(READS)));
        black_box(event_loop(black_box(EVENTS)));
        t0.elapsed().as_secs_f64()
    }

    fn branchy_reads(&self, n: usize) -> u64 {
        let mask = self.table.len() - 1;
        let (mut x, mut a, mut b) = (1u64, 0u64, 0u64);
        for _ in 0..n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = self.table[(x >> 33) as usize & mask] as u64;
            if v & 1 == 0 {
                a = a.wrapping_add(v);
            } else {
                b ^= v.rotate_left(5);
            }
            if v & 6 == 2 {
                a ^= b;
            }
        }
        a ^ b
    }
}

/// A toy discrete-event loop: events due at pseudo-random times land in a
/// binary heap; once 50 000 are pending, each new one pops the earliest,
/// which appends to a per-key list in a hash map that drains at 9 entries.
fn event_loop(n: u64) -> u64 {
    let mut lists: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let (mut x, mut acc) = (7u64, 0u64);
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((i + x % 1000, x % 20_000)));
        if heap.len() > 50_000 {
            let Reverse((_, key)) = heap.pop().expect("heap is not empty");
            let list = lists.entry(key).or_default();
            list.push(i);
            if list.len() > 8 {
                acc = acc.wrapping_add(list.drain(..).sum::<u64>());
            }
        }
    }
    acc.wrapping_add(lists.len() as u64)
}
