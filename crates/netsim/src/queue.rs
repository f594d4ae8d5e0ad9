//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`, so two events at the
//! same instant always pop in insertion order and a simulation run is fully
//! reproducible for a given seed.
//!
//! Internally this is a hierarchical two-level structure instead of a single
//! binary heap: a timer wheel of fixed-width slots covers the near future
//! (where virtually all network delays and protocol timers land), and a
//! spill-over heap holds the far future (long maintenance periods, end-of-run
//! markers). Scheduling into the wheel is O(1) instead of O(log n); the heap
//! only sees the tiny far-future population. Slots are drained in time order:
//! a slot's events are sorted once when the wheel reaches it, and events
//! scheduled into the slot *while it drains* (e.g. zero-delay follow-ups) are
//! placed by binary insertion, preserving the exact global
//! `(at_us, seq)` order a single heap would produce.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Slot width: 2^12 us ≈ 4.1 ms.
const GRANULARITY_BITS: u32 = 12;
/// 2^14 slots ≈ 67 s of wheel span; anything later spills to the heap.
const WHEEL_BITS: u32 = 14;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;

/// An event scheduled at an absolute simulated time.
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// Absolute firing time, microseconds.
    pub at_us: u64,
    seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for the max-heap: earliest first.
        (other.at_us, other.seq).cmp(&(self.at_us, self.seq))
    }
}

/// A priority queue of timed events with a monotonic clock.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Near-future slots, indexed by `slot & WHEEL_MASK`. A bucket only ever
    /// holds events of a single absolute slot: an event is admitted while its
    /// slot lies within `[base_slot, base_slot + WHEEL_SLOTS)`, and a slot's
    /// bucket is emptied before `base_slot` moves past it, so two admitted
    /// events can never alias the same bucket from different wheel laps.
    wheel: Box<[Vec<Scheduled<T>>]>,
    /// The slot currently being drained; never decreases.
    base_slot: u64,
    /// Events held in wheel buckets (excludes `cur` and `overflow`).
    wheel_len: usize,
    /// The slot being drained, sorted descending so `Vec::pop` yields the
    /// earliest `(at_us, seq)` next.
    cur: Vec<Scheduled<T>>,
    /// Far-future spill-over; min-ordered via the reversed `Scheduled` `Ord`.
    overflow: BinaryHeap<Scheduled<T>>,
    seq: u64,
    now_us: u64,
    /// Deepest the queue has ever been (a self-profiling gauge; two adds and
    /// a compare per schedule, nothing the hot path notices).
    high_water: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            base_slot: 0,
            wheel_len: 0,
            cur: Vec::new(),
            overflow: BinaryHeap::new(),
            seq: 0,
            now_us: 0,
            high_water: 0,
        }
    }

    /// The current simulated time (the firing time of the last popped
    /// event).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cur.len() + self.wheel_len + self.overflow.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been over its lifetime (a self-profiling
    /// gauge, surfaced in the run artifact's `"prof"` member).
    pub fn high_water_mark(&self) -> usize {
        self.high_water
    }

    /// Schedules `payload` at absolute time `at_us`.
    ///
    /// Scheduling in the past is clamped to the current time (the event fires
    /// "immediately", after already-queued events at the same instant).
    pub fn schedule_at(&mut self, at_us: u64, payload: T) {
        let at_us = at_us.max(self.now_us);
        self.seq += 1;
        let ev = Scheduled {
            at_us,
            seq: self.seq,
            payload,
        };
        let slot = at_us >> GRANULARITY_BITS;
        if slot == self.base_slot && !self.cur.is_empty() {
            // The slot is mid-drain: place the event among its remaining
            // neighbours. The clamp above makes it sort after everything
            // already popped.
            let key = (ev.at_us, ev.seq);
            let pos = self.cur.partition_point(|e| (e.at_us, e.seq) > key);
            self.cur.insert(pos, ev);
        } else if slot < self.base_slot + WHEEL_SLOTS as u64 {
            self.wheel[(slot & WHEEL_MASK) as usize].push(ev);
            self.wheel_len += 1;
        } else {
            self.overflow.push(ev);
        }
        let len = self.cur.len() + self.wheel_len + self.overflow.len();
        if len > self.high_water {
            self.high_water = len;
        }
    }

    /// Schedules `payload` after a relative delay.
    pub fn schedule_in(&mut self, delay_us: u64, payload: T) {
        self.schedule_at(self.now_us.saturating_add(delay_us), payload);
    }

    /// Pops the earliest event and advances the clock to its firing time.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        let ev = self.cur.pop().expect("advance() refills cur");
        debug_assert!(ev.at_us >= self.now_us, "time went backwards");
        self.now_us = ev.at_us;
        Some(ev)
    }

    /// Moves `base_slot` to the next non-empty slot and loads it into `cur`;
    /// `false` if the queue is empty.
    fn advance(&mut self) -> bool {
        loop {
            if self.wheel_len == 0 {
                // Nothing inside the wheel span: jump straight to the first
                // spill-over slot instead of stepping across the gap.
                match self.overflow.peek() {
                    None => return false,
                    Some(e) => {
                        self.base_slot = self.base_slot.max(e.at_us >> GRANULARITY_BITS);
                    }
                }
            }
            // Pull spill-over events that now fall inside the wheel window.
            let horizon = self.base_slot + WHEEL_SLOTS as u64;
            while self
                .overflow
                .peek()
                .is_some_and(|e| e.at_us >> GRANULARITY_BITS < horizon)
            {
                let ev = self.overflow.pop().expect("peeked above");
                let slot = ev.at_us >> GRANULARITY_BITS;
                self.wheel[(slot & WHEEL_MASK) as usize].push(ev);
                self.wheel_len += 1;
            }
            let bucket = &mut self.wheel[(self.base_slot & WHEEL_MASK) as usize];
            if !bucket.is_empty() {
                self.cur = std::mem::take(bucket);
                self.wheel_len -= self.cur.len();
                debug_assert!(
                    self.cur
                        .iter()
                        .all(|e| e.at_us >> GRANULARITY_BITS == self.base_slot),
                    "bucket aliased across wheel laps"
                );
                self.cur
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at_us, e.seq)));
                return true;
            }
            self.base_slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(100, ());
        assert_eq!(q.now_us(), 0);
        q.pop();
        assert_eq!(q.now_us(), 100);
        q.schedule_in(50, ());
        assert_eq!(q.pop().map(|e| e.at_us), Some(150));
    }

    #[test]
    fn past_schedules_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        q.pop();
        q.schedule_at(10, "late");
        let e = q.pop().unwrap();
        assert_eq!(e.at_us, 100);
        assert_eq!(q.now_us(), 100);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_mark_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water_mark(), 0);
        q.schedule_at(10, ());
        q.schedule_at(20, ());
        q.schedule_at(30, ());
        q.pop();
        q.pop();
        q.schedule_at(40, ());
        // Peak was 3; the later schedule only brought it back to 2.
        assert_eq!(q.high_water_mark(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_future_events_spill_and_return() {
        let span = (WHEEL_SLOTS as u64) << GRANULARITY_BITS;
        let mut q = EventQueue::new();
        q.schedule_at(3 * span, "far");
        q.schedule_at(10, "near");
        q.schedule_at(span + 7, "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.pop().unwrap().payload, "mid");
        assert_eq!(q.now_us(), span + 7);
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.now_us(), 3 * span);
        assert!(q.pop().is_none());
    }

    #[test]
    fn quiet_gaps_are_jumped_not_scanned() {
        let mut q = EventQueue::new();
        // A multi-hour gap between events (way beyond one wheel span).
        q.schedule_at(1, 1u64);
        q.schedule_at(7_200_000_000, 2u64);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.now_us(), 7_200_000_000);
    }

    #[test]
    fn same_instant_inserts_while_draining_fire_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule_at(50, 0);
        q.schedule_at(50, 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        // Scheduled "in the past" mid-drain: clamps to now and fires after
        // the already-queued event at the same instant.
        q.schedule_at(0, 2);
        q.schedule_at(50, 3);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
    }

    /// Drives the wheel and a single binary heap (the reference semantics)
    /// through an identical deterministic schedule/pop workload and demands
    /// identical output — times, payloads, and tie-breaks.
    #[test]
    fn matches_reference_heap_on_mixed_workload() {
        #[derive(Debug)]
        struct Reference {
            heap: BinaryHeap<Scheduled<u32>>,
            seq: u64,
            now_us: u64,
        }
        impl Reference {
            fn schedule_at(&mut self, at_us: u64, payload: u32) {
                self.seq += 1;
                self.heap.push(Scheduled {
                    at_us: at_us.max(self.now_us),
                    seq: self.seq,
                    payload,
                });
            }
            fn pop(&mut self) -> Option<(u64, u32)> {
                let e = self.heap.pop()?;
                self.now_us = e.at_us;
                Some((e.at_us, e.payload))
            }
        }
        let mut wheel = EventQueue::new();
        let mut reference = Reference {
            heap: BinaryHeap::new(),
            seq: 0,
            now_us: 0,
        };
        // SplitMix64: deterministic, dependency-free.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rng = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..50_000u32 {
            let r = rng();
            if r % 3 == 0 {
                assert_eq!(
                    wheel.pop().map(|e| (e.at_us, e.payload)),
                    reference.pop(),
                    "divergence at step {i}"
                );
            } else {
                // Mix of same-instant, near, far, and very far times.
                let delay = match r % 7 {
                    0 => 0,
                    1..=3 => r % 10_000,
                    4 | 5 => r % 40_000_000,
                    _ => r % 3_000_000_000,
                };
                let at = wheel.now_us().saturating_add(delay);
                wheel.schedule_at(at, i);
                reference.schedule_at(at, i);
            }
            assert_eq!(wheel.len(), reference.heap.len());
        }
        loop {
            let (a, b) = (wheel.pop().map(|e| (e.at_us, e.payload)), reference.pop());
            assert_eq!(a, b, "divergence while draining");
            if a.is_none() {
                break;
            }
        }
    }
}
