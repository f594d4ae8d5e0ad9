//! Binary wire codec for [`Message`].
//!
//! The simulator passes `Message` values by move, but a real deployment
//! needs bytes on the wire. The encoding is a compact hand-rolled format:
//! little-endian integers, a one-byte variant tag, and length-prefixed
//! lists. Every decode is bounds-checked; malformed input yields a
//! [`DecodeError`], never a panic.

use crate::id::{Id, NodeId};
use crate::messages::{LookupId, Message};
use std::fmt;

/// Maximum list length accepted by the decoder (defence against hostile
/// length prefixes; the largest legitimate lists are leaf sets and
/// routing-table rows, both far below this).
const MAX_LIST: usize = 4096;

/// Error decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// A length prefix exceeded sane bounds.
    ListTooLong(u64),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::ListTooLong(n) => write!(f, "list length {n} exceeds bounds"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn id(&mut self, id: Id) {
        self.u128(id.0);
    }
    fn ids(&mut self, ids: &[NodeId]) {
        self.u32(ids.len() as u32);
        for id in ids {
            self.id(*id);
        }
    }
    fn rows(&mut self, rows: &[Vec<NodeId>]) {
        self.u32(rows.len() as u32);
        for row in rows {
            self.ids(row);
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn lookup_id(&mut self, id: LookupId) {
        self.id(id.src);
        self.u64(id.seq);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn id(&mut self) -> Result<Id, DecodeError> {
        Ok(Id(self.u128()?))
    }
    fn ids(&mut self) -> Result<Vec<NodeId>, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_LIST {
            return Err(DecodeError::ListTooLong(n as u64));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.id()?);
        }
        Ok(v)
    }
    fn rows(&mut self) -> Result<Vec<Vec<NodeId>>, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_LIST {
            return Err(DecodeError::ListTooLong(n as u64));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.ids()?);
        }
        Ok(v)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.u64()?)),
        }
    }
    fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }
    fn lookup_id(&mut self) -> Result<LookupId, DecodeError> {
        Ok(LookupId {
            src: self.id()?,
            seq: self.u64()?,
        })
    }
    fn usize_(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        // `usize::MAX` row markers are legitimate (deepest-row request).
        Ok(v as usize)
    }
    fn finish(self) -> Result<(), DecodeError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(rest))
        }
    }
}

// A message's wire tag is its `Message::kind_index() + 1`; decoding maps
// the tags back (the round-trip test pins the correspondence).
const T_JOIN_REQUEST: u8 = 1;
const T_JOIN_REPLY: u8 = 2;
const T_LS_PROBE: u8 = 3;
const T_LS_PROBE_REPLY: u8 = 4;
const T_HEARTBEAT: u8 = 5;
const T_RT_PROBE: u8 = 6;
const T_RT_PROBE_REPLY: u8 = 7;
const T_RT_ROW_REQUEST: u8 = 8;
const T_RT_ROW_REPLY: u8 = 9;
const T_RT_ROW_ANNOUNCE: u8 = 10;
const T_RT_SLOT_REQUEST: u8 = 11;
const T_RT_SLOT_REPLY: u8 = 12;
const T_DISTANCE_PROBE: u8 = 13;
const T_DISTANCE_PROBE_REPLY: u8 = 14;
const T_DISTANCE_REPORT: u8 = 15;
const T_NN_LEAFSET_REQUEST: u8 = 16;
const T_NN_LEAFSET_REPLY: u8 = 17;
const T_NN_ROW_REQUEST: u8 = 18;
const T_NN_ROW_REPLY: u8 = 19;
const T_LOOKUP: u8 = 20;
const T_ACK: u8 = 21;
const T_LEAVING: u8 = 22;

/// Encodes a message to bytes.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(msg.kind_index() as u8 + 1);
    match msg {
        Message::JoinRequest { joiner, rows, hops } => {
            w.id(*joiner);
            w.rows(rows);
            w.u32(*hops);
        }
        Message::JoinReply { rows, leaf_set } => {
            w.rows(rows);
            w.ids(leaf_set);
        }
        Message::LsProbe {
            leaf_set,
            failed,
            trt_hint,
        } => {
            w.ids(leaf_set);
            w.ids(failed);
            w.opt_u64(*trt_hint);
        }
        Message::LsProbeReply {
            leaf_set,
            failed,
            trt_hint,
        } => {
            w.ids(leaf_set);
            w.ids(failed);
            w.opt_u64(*trt_hint);
        }
        Message::Heartbeat { trt_hint } => w.opt_u64(*trt_hint),
        Message::RtProbe { nonce } => w.u64(*nonce),
        Message::RtProbeReply { nonce, trt_hint } => {
            w.u64(*nonce);
            w.opt_u64(*trt_hint);
        }
        Message::RtRowRequest { row } => w.u64(*row as u64),
        Message::RtRowReply { row, entries } => {
            w.u64(*row as u64);
            w.ids(entries);
        }
        Message::RtRowAnnounce { row, entries } => {
            w.u64(*row as u64);
            w.ids(entries);
        }
        Message::RtSlotRequest { row, col } => {
            w.u64(*row as u64);
            w.u8(*col);
        }
        Message::RtSlotReply { row, col, entry } => {
            w.u64(*row as u64);
            w.u8(*col);
            match entry {
                None => w.u8(0),
                Some(id) => {
                    w.u8(1);
                    w.id(*id);
                }
            }
        }
        Message::DistanceProbe { nonce } => w.u64(*nonce),
        Message::DistanceProbeReply { nonce } => w.u64(*nonce),
        Message::DistanceReport { rtt_us } => w.u64(*rtt_us),
        Message::NnLeafSetRequest | Message::Leaving => {}
        Message::NnLeafSetReply { nodes } => w.ids(nodes),
        Message::NnRowRequest { row } => w.u64(*row as u64),
        Message::NnRowReply { row, nodes } => {
            w.u64(*row as u64);
            w.ids(nodes);
        }
        Message::Lookup {
            id,
            key,
            payload,
            hops,
            issued_at_us,
            is_retransmit,
            wants_acks,
        } => {
            w.lookup_id(*id);
            w.id(*key);
            w.u64(*payload);
            w.u32(*hops);
            w.u64(*issued_at_us);
            w.bool(*is_retransmit);
            w.bool(*wants_acks);
        }
        Message::Ack { id } => w.lookup_id(*id),
    }
    w.buf
}

/// Decodes a message from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, unknown tags, hostile
/// length prefixes, or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader::new(bytes);
    let msg = match r.u8()? {
        T_JOIN_REQUEST => Message::JoinRequest {
            joiner: r.id()?,
            rows: r.rows()?,
            hops: r.u32()?,
        },
        T_JOIN_REPLY => Message::JoinReply {
            rows: r.rows()?,
            leaf_set: r.ids()?,
        },
        T_LS_PROBE => Message::LsProbe {
            leaf_set: r.ids()?,
            failed: r.ids()?,
            trt_hint: r.opt_u64()?,
        },
        T_LS_PROBE_REPLY => Message::LsProbeReply {
            leaf_set: r.ids()?,
            failed: r.ids()?,
            trt_hint: r.opt_u64()?,
        },
        T_HEARTBEAT => Message::Heartbeat {
            trt_hint: r.opt_u64()?,
        },
        T_RT_PROBE => Message::RtProbe { nonce: r.u64()? },
        T_RT_PROBE_REPLY => Message::RtProbeReply {
            nonce: r.u64()?,
            trt_hint: r.opt_u64()?,
        },
        T_RT_ROW_REQUEST => Message::RtRowRequest { row: r.usize_()? },
        T_RT_ROW_REPLY => Message::RtRowReply {
            row: r.usize_()?,
            entries: r.ids()?,
        },
        T_RT_ROW_ANNOUNCE => Message::RtRowAnnounce {
            row: r.usize_()?,
            entries: r.ids()?,
        },
        T_RT_SLOT_REQUEST => Message::RtSlotRequest {
            row: r.usize_()?,
            col: r.u8()?,
        },
        T_RT_SLOT_REPLY => Message::RtSlotReply {
            row: r.usize_()?,
            col: r.u8()?,
            entry: match r.u8()? {
                0 => None,
                _ => Some(r.id()?),
            },
        },
        T_DISTANCE_PROBE => Message::DistanceProbe { nonce: r.u64()? },
        T_DISTANCE_PROBE_REPLY => Message::DistanceProbeReply { nonce: r.u64()? },
        T_DISTANCE_REPORT => Message::DistanceReport { rtt_us: r.u64()? },
        T_NN_LEAFSET_REQUEST => Message::NnLeafSetRequest,
        T_NN_LEAFSET_REPLY => Message::NnLeafSetReply { nodes: r.ids()? },
        T_NN_ROW_REQUEST => Message::NnRowRequest { row: r.usize_()? },
        T_NN_ROW_REPLY => Message::NnRowReply {
            row: r.usize_()?,
            nodes: r.ids()?,
        },
        T_LOOKUP => Message::Lookup {
            id: r.lookup_id()?,
            key: r.id()?,
            payload: r.u64()?,
            hops: r.u32()?,
            issued_at_us: r.u64()?,
            is_retransmit: r.bool()?,
            wants_acks: r.bool()?,
        },
        T_ACK => Message::Ack { id: r.lookup_id()? },
        T_LEAVING => Message::Leaving,
        t => return Err(DecodeError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// The exact encoded size of a message in bytes, without allocating.
///
/// Always equals `encode(msg).len()`; used for byte-level traffic
/// accounting in the simulator.
pub fn encoded_len(msg: &Message) -> usize {
    let ids = |v: &Vec<NodeId>| 4 + 16 * v.len();
    let rows = |r: &Vec<Vec<NodeId>>| 4 + r.iter().map(ids).sum::<usize>();
    let opt = |v: &Option<u64>| if v.is_some() { 9 } else { 1 };
    1 + match msg {
        Message::JoinRequest { rows: r, .. } => 16 + rows(r) + 4,
        Message::JoinReply { rows: r, leaf_set } => rows(r) + ids(leaf_set),
        Message::LsProbe {
            leaf_set,
            failed,
            trt_hint,
        }
        | Message::LsProbeReply {
            leaf_set,
            failed,
            trt_hint,
        } => ids(leaf_set) + ids(failed) + opt(trt_hint),
        Message::Heartbeat { trt_hint } => opt(trt_hint),
        Message::RtProbe { .. } => 8,
        Message::RtProbeReply { trt_hint, .. } => 8 + opt(trt_hint),
        Message::RtRowRequest { .. } => 8,
        Message::RtRowReply { entries, .. } | Message::RtRowAnnounce { entries, .. } => {
            8 + ids(entries)
        }
        Message::RtSlotRequest { .. } => 9,
        Message::RtSlotReply { entry, .. } => 10 + if entry.is_some() { 16 } else { 0 },
        Message::DistanceProbe { .. } | Message::DistanceProbeReply { .. } => 8,
        Message::DistanceReport { .. } => 8,
        Message::NnLeafSetRequest => 0,
        Message::NnLeafSetReply { nodes } => ids(nodes),
        Message::NnRowRequest { .. } => 8,
        Message::NnRowReply { nodes, .. } => 8 + ids(nodes),
        Message::Lookup { .. } => 24 + 16 + 8 + 4 + 8 + 2,
        Message::Ack { .. } => 24,
        Message::Leaving => 0,
    }
}

/// All node identifiers referenced inside a message (used by transports to
/// piggyback address hints so receivers can resolve identifiers to network
/// addresses).
pub fn referenced_node_ids(msg: &Message) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    let mut push = |id: NodeId| {
        if !out.contains(&id) {
            out.push(id);
        }
    };
    match msg {
        Message::JoinRequest { joiner, rows, .. } => {
            push(*joiner);
            for row in rows {
                for &n in row {
                    push(n);
                }
            }
        }
        Message::JoinReply { rows, leaf_set } => {
            for row in rows {
                for &n in row {
                    push(n);
                }
            }
            for &n in leaf_set {
                push(n);
            }
        }
        Message::LsProbe {
            leaf_set, failed, ..
        }
        | Message::LsProbeReply {
            leaf_set, failed, ..
        } => {
            for &n in leaf_set.iter().chain(failed.iter()) {
                push(n);
            }
        }
        Message::RtRowReply { entries, .. } | Message::RtRowAnnounce { entries, .. } => {
            for &n in entries {
                push(n);
            }
        }
        Message::NnLeafSetReply { nodes } | Message::NnRowReply { nodes, .. } => {
            for &n in nodes {
                push(n);
            }
        }
        Message::RtSlotReply {
            entry: Some(id), ..
        } => push(*id),
        Message::Lookup { id, .. } | Message::Ack { id } => push(id.src),
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;

    fn samples() -> Vec<Message> {
        let lid = LookupId {
            src: Id(0xabcdef),
            seq: 42,
        };
        vec![
            Message::JoinRequest {
                joiner: Id(7),
                rows: vec![vec![Id(1), Id(2)], vec![], vec![Id(3)]],
                hops: 5,
            },
            Message::JoinReply {
                rows: vec![vec![Id(9)]],
                leaf_set: vec![Id(10), Id(11)],
            },
            Message::LsProbe {
                leaf_set: vec![Id(1)],
                failed: vec![Id(2), Id(3)],
                trt_hint: Some(30_000_000),
            },
            Message::LsProbeReply {
                leaf_set: vec![],
                failed: vec![],
                trt_hint: None,
            },
            Message::Heartbeat {
                trt_hint: Some(u64::MAX),
            },
            Message::RtProbe { nonce: 99 },
            Message::RtProbeReply {
                nonce: 99,
                trt_hint: None,
            },
            Message::RtRowRequest { row: usize::MAX },
            Message::RtRowReply {
                row: 3,
                entries: vec![Id(5)],
            },
            Message::RtRowAnnounce {
                row: 0,
                entries: vec![Id(6), Id(7)],
            },
            Message::RtSlotRequest { row: 2, col: 15 },
            Message::RtSlotReply {
                row: 2,
                col: 15,
                entry: Some(Id(77)),
            },
            Message::RtSlotReply {
                row: 2,
                col: 0,
                entry: None,
            },
            Message::DistanceProbe { nonce: 1 },
            Message::DistanceProbeReply { nonce: 1 },
            Message::DistanceReport { rtt_us: 1234 },
            Message::NnLeafSetRequest,
            Message::NnLeafSetReply {
                nodes: vec![Id(u128::MAX)],
            },
            Message::NnRowRequest { row: 0 },
            Message::NnRowReply {
                row: 1,
                nodes: vec![],
            },
            Message::Lookup {
                id: lid,
                key: Id(555),
                payload: 777,
                hops: 3,
                issued_at_us: 123456789,
                is_retransmit: true,
                wants_acks: false,
            },
            Message::Ack { id: lid },
            Message::Leaving,
        ]
    }

    #[test]
    fn encoded_len_matches_encode() {
        for msg in samples() {
            assert_eq!(encoded_len(&msg), encode(&msg).len(), "{msg:?}");
        }
    }

    #[test]
    fn kind_indices_cover_every_variant() {
        let mut seen = [false; crate::messages::N_KINDS];
        for msg in samples() {
            seen[msg.kind_index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "unnamed kinds: {seen:?}");
    }

    #[test]
    fn round_trip_all_variants() {
        for msg in samples() {
            let bytes = encode(&msg);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        for msg in samples() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                match decode(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(other) => panic!("decoded {other:?} from a {cut}-byte prefix of {msg:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode(&[200]), Err(DecodeError::UnknownTag(200)));
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Message::RtProbe { nonce: 1 });
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // LsProbe with an absurd leaf-set length.
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::ListTooLong(_)) | Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn referenced_ids_cover_the_payload() {
        let msg = Message::LsProbe {
            leaf_set: vec![Id(1), Id(2)],
            failed: vec![Id(3)],
            trt_hint: None,
        };
        let ids = referenced_node_ids(&msg);
        assert_eq!(ids, vec![Id(1), Id(2), Id(3)]);
        // Duplicates collapse.
        let msg = Message::JoinRequest {
            joiner: Id(1),
            rows: vec![vec![Id(1), Id(1), Id(2)]],
            hops: 0,
        };
        assert_eq!(referenced_node_ids(&msg), vec![Id(1), Id(2)]);
    }
}
