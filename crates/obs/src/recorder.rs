//! The flight recorder: a bounded ring buffer of per-lookup hop events.
//!
//! Lookups are sampled ([`crate::Obs::sampled`]) by a deterministic hash of
//! their identity ([`lookup_hash`]), so every node along a sampled lookup's
//! path records its hops — the whole route can be reconstructed from the
//! dump — and repeated runs of the same seed produce bit-identical event
//! streams. When the ring fills, the oldest
//! events are overwritten (and counted), never the newest: a post-mortem
//! wants the events closest to the end of the run.

/// What happened to a lookup at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// The lookup was issued at this node.
    Issue,
    /// Forwarded to `peer` (`hops` counts this transmission).
    Forward,
    /// Delivered by this node (it is the key's root).
    Deliver,
    /// A per-hop ack from `peer` arrived.
    Ack,
    /// Retransmitted to the same root `peer` after an ack timeout
    /// (`attempt`-th attempt, next timeout `detail_us`).
    Retransmit,
    /// `peer` missed an ack and is temporarily excluded from routing; the
    /// lookup reroutes around it.
    Exclude,
    /// The lookup was dropped at this node (`note` holds the reason).
    Drop,
}

impl HopKind {
    /// Stable lower-case name used in the JSONL dump.
    pub fn name(self) -> &'static str {
        match self {
            HopKind::Issue => "issue",
            HopKind::Forward => "forward",
            HopKind::Deliver => "deliver",
            HopKind::Ack => "ack",
            HopKind::Retransmit => "retransmit",
            HopKind::Exclude => "exclude",
            HopKind::Drop => "drop",
        }
    }
}

/// Sentinel for "no peer" in [`HopEvent::peer`].
pub const NO_PEER: u128 = u128::MAX;

/// One recorded hop event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopEvent {
    /// Simulation time, microseconds.
    pub at_us: u64,
    /// The node the event happened at.
    pub node: u128,
    /// Lookup identity: issuing node.
    pub src: u128,
    /// Lookup identity: per-issuer sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: HopKind,
    /// The other node involved (next hop, acker, excluded suspect);
    /// [`NO_PEER`] when not applicable.
    pub peer: u128,
    /// Overlay hop count at this point.
    pub hops: u32,
    /// Retransmission attempt number (0 = first transmission).
    pub attempt: u32,
    /// Kind-specific duration: the armed retransmission timeout for
    /// `Forward`/`Retransmit`, the sampled RTT for `Ack`, otherwise 0.
    pub detail_us: u64,
    /// Kind-specific note (drop reason); empty otherwise.
    pub note: &'static str,
}

/// Deterministic 64-bit mix of a lookup identity (splitmix64 over the
/// folded id). Used for sampling: stable across nodes, runs and platforms.
#[inline]
pub fn lookup_hash(src: u128, seq: u64) -> u64 {
    let mut x = (src as u64)
        ^ ((src >> 64) as u64).rotate_left(31)
        ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A bounded ring buffer of [`HopEvent`]s. It keeps whatever it is given;
/// the sampling decision is [`crate::Obs::sampled`].
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<HopEvent>,
    cap: usize,
    /// Next write position once the ring is full.
    next: usize,
    overwritten: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: Vec::new(),
            cap: capacity.max(1),
            next: 0,
            overwritten: 0,
        }
    }

    /// Records an event, overwriting the oldest one when the ring is full.
    pub fn push(&mut self, ev: HopEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Drains the ring: the retained events in recording order (oldest
    /// first) and the count of events lost to overwrite. The ring restarts
    /// empty, with the same capacity.
    pub fn take(&mut self) -> (Vec<HopEvent>, u64) {
        let mut events = std::mem::take(&mut self.buf);
        events.rotate_left(std::mem::take(&mut self.next));
        (events, std::mem::take(&mut self.overwritten))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn ev(at: u64, seq: u64) -> HopEvent {
        HopEvent {
            at_us: at,
            node: 1,
            src: 2,
            seq,
            kind: HopKind::Forward,
            peer: NO_PEER,
            hops: 1,
            attempt: 0,
            detail_us: 0,
            note: "",
        }
    }

    #[test]
    fn zero_rate_samples_nothing_full_rate_everything() {
        let off = Obs::new(0.0, 8);
        let on = Obs::new(1.0, 8);
        for seq in 0..1000 {
            assert!(!off.sampled(99, seq));
            assert!(on.sampled(99, seq));
        }
    }

    #[test]
    fn sampling_rate_is_approximate_and_deterministic() {
        let r = Obs::new(0.1, 8);
        let hits = (0..100_000).filter(|&s| r.sampled(1234, s)).count();
        assert!((8_000..12_000).contains(&hits), "hits {hits}");
        let r2 = Obs::new(0.1, 8);
        for s in 0..1000 {
            assert_eq!(r.sampled(1234, s), r2.sampled(1234, s));
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..7 {
            r.push(ev(i, i));
        }
        let (events, dropped) = r.take();
        assert_eq!(dropped, 3);
        let ats: Vec<u64> = events.iter().map(|e| e.at_us).collect();
        assert_eq!(ats, vec![3, 4, 5, 6]);
        // The drained ring restarts empty and keeps its capacity.
        for i in 7..12 {
            r.push(ev(i, i));
        }
        let (events, dropped) = r.take();
        assert_eq!(dropped, 1);
        let ats: Vec<u64> = events.iter().map(|e| e.at_us).collect();
        assert_eq!(ats, vec![8, 9, 10, 11]);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = FlightRecorder::new(16);
        for i in 0..5 {
            r.push(ev(i, i));
        }
        let (events, dropped) = r.take();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].at_us, 0);
    }
}
