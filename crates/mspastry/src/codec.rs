//! Binary wire codec for [`Message`].
//!
//! The simulator passes `Message` values by move, but a real deployment
//! needs bytes on the wire. The encoding is a compact hand-rolled format:
//! little-endian integers, a one-byte variant tag (`kind_index() + 1`), and
//! length-prefixed lists.
//!
//! Each variant's layout is written once, as a walk over its fields that
//! feeds a sink: the byte sink writes the encoding ([`encode`],
//! [`encode_into`]), a counting sink adds up its size ([`encoded_len`]), and
//! a collecting sink keeps the node identifiers it names
//! ([`referenced_node_ids`]). [`decode`] is the one inverse; it names the
//! variant of a tag through [`KIND_NAMES`], the table `kind_index()`
//! indexes. Every decode is bounds-checked; malformed input yields a
//! [`DecodeError`], never a panic.

use crate::id::{Id, NodeId};
use crate::messages::{LookupId, Message, KIND_NAMES};
use std::fmt;

/// Maximum list length accepted by the decoder (defence against hostile
/// length prefixes; the largest legitimate lists are leaf sets and
/// routing-table rows, both far below this).
pub(crate) const MAX_LIST: usize = 4096;

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

/// Destination of the field walk [`fields`]: the one description of each
/// variant's wire layout, read by the byte writer (`Vec<u8>`), the size
/// counter ([`Len`]) and the node-id collector ([`Nodes`]).
trait Sink {
    fn u8(&mut self, v: u8);
    fn u32(&mut self, v: u32);
    fn u64(&mut self, v: u64);
    /// An identifier that names a node (a candidate for address hints).
    fn node(&mut self, id: NodeId);
    /// An identifier that is only a point on the ring (a lookup key).
    fn key(&mut self, id: Id);
    /// A length-prefixed list of node identifiers.
    fn nodes(&mut self, ids: &[NodeId]) {
        self.u32(ids.len() as u32);
        for &id in ids {
            self.node(id);
        }
    }
}

impl Sink for Vec<u8> {
    fn u8(&mut self, v: u8) {
        self.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn node(&mut self, id: NodeId) {
        self.extend_from_slice(&id.0.to_le_bytes());
    }
    fn key(&mut self, id: Id) {
        self.node(id);
    }
}

/// Adds up the encoded size.
struct Len(usize);

impl Sink for Len {
    fn u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn u32(&mut self, _: u32) {
        self.0 += 4;
    }
    fn u64(&mut self, _: u64) {
        self.0 += 8;
    }
    fn node(&mut self, _: NodeId) {
        self.0 += 16;
    }
    fn key(&mut self, _: Id) {
        self.0 += 16;
    }
    fn nodes(&mut self, ids: &[NodeId]) {
        self.0 += 4 + 16 * ids.len();
    }
}

/// Keeps the distinct node identifiers, in walk order.
struct Nodes(Vec<NodeId>);

impl Sink for Nodes {
    fn u8(&mut self, _: u8) {}
    fn u32(&mut self, _: u32) {}
    fn u64(&mut self, _: u64) {}
    fn node(&mut self, id: NodeId) {
        if !self.0.contains(&id) {
            self.0.push(id);
        }
    }
    fn key(&mut self, _: Id) {}
}

fn rows(s: &mut impl Sink, rows: &[Vec<NodeId>]) {
    s.u32(rows.len() as u32);
    for row in rows {
        s.nodes(row);
    }
}

fn opt_u64(s: &mut impl Sink, v: Option<u64>) {
    match v {
        None => s.u8(0),
        Some(x) => {
            s.u8(1);
            s.u64(x);
        }
    }
}

fn lookup_id(s: &mut impl Sink, id: LookupId) {
    s.node(id.src);
    s.u64(id.seq);
}

/// Walks `msg`'s wire fields in order: the tag (`kind_index() + 1`), then
/// the variant's fields. [`decode`] reads them back in the same order.
fn fields(msg: &Message, s: &mut impl Sink) {
    s.u8(msg.kind_index() as u8 + 1);
    match msg {
        Message::JoinRequest {
            joiner,
            rows: r,
            hops,
        } => {
            s.node(*joiner);
            rows(s, r);
            s.u32(*hops);
        }
        Message::JoinReply { rows: r, leaf_set } => {
            rows(s, r);
            s.nodes(leaf_set);
        }
        Message::LsProbe {
            leaf_set,
            failed,
            trt_hint,
        }
        | Message::LsProbeReply {
            leaf_set,
            failed,
            trt_hint,
        } => {
            s.nodes(leaf_set);
            s.nodes(failed);
            opt_u64(s, *trt_hint);
        }
        Message::Heartbeat { trt_hint } => opt_u64(s, *trt_hint),
        Message::RtProbeReply { nonce, trt_hint } => {
            s.u64(*nonce);
            opt_u64(s, *trt_hint);
        }
        Message::RtProbe { nonce }
        | Message::DistanceProbe { nonce }
        | Message::DistanceProbeReply { nonce } => s.u64(*nonce),
        Message::DistanceReport { rtt_us } => s.u64(*rtt_us),
        Message::RtRowRequest { row } | Message::NnRowRequest { row } => s.u64(*row as u64),
        Message::RtRowReply { row, entries: ids }
        | Message::RtRowAnnounce { row, entries: ids }
        | Message::NnRowReply { row, nodes: ids } => {
            s.u64(*row as u64);
            s.nodes(ids);
        }
        Message::RtSlotRequest { row, col } => {
            s.u64(*row as u64);
            s.u8(*col);
        }
        Message::RtSlotReply { row, col, entry } => {
            s.u64(*row as u64);
            s.u8(*col);
            match entry {
                None => s.u8(0),
                Some(id) => {
                    s.u8(1);
                    s.node(*id);
                }
            }
        }
        Message::NnLeafSetReply { nodes } => s.nodes(nodes),
        Message::NnLeafSetRequest | Message::Leaving => {}
        Message::Lookup {
            id,
            key,
            payload,
            hops,
            issued_at_us,
            is_retransmit,
            wants_acks,
        } => {
            lookup_id(s, *id);
            s.key(*key);
            s.u64(*payload);
            s.u32(*hops);
            s.u64(*issued_at_us);
            s.u8(*is_retransmit as u8);
            s.u8(*wants_acks as u8);
        }
        Message::Ack { id } => lookup_id(s, *id),
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

/// Encodes a message to bytes.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_into(msg, &mut buf);
    buf
}

/// Appends a message's encoding to `buf`.
pub fn encode_into(msg: &Message, buf: &mut Vec<u8>) {
    fields(msg, buf);
}

/// Decodes a message from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, unknown tags, hostile
/// length prefixes, or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let kind = (tag as usize)
        .checked_sub(1)
        .and_then(|i| KIND_NAMES.get(i))
        .ok_or(DecodeError::UnknownTag(tag))?;
    let msg = match *kind {
        "join-request" => Message::JoinRequest {
            joiner: r.id()?,
            rows: r.rows()?,
            hops: r.u32()?,
        },
        "join-reply" => Message::JoinReply {
            rows: r.rows()?,
            leaf_set: r.ids()?,
        },
        "ls-probe" => Message::LsProbe {
            leaf_set: r.ids()?,
            failed: r.ids()?,
            trt_hint: r.opt_u64()?,
        },
        "ls-probe-reply" => Message::LsProbeReply {
            leaf_set: r.ids()?,
            failed: r.ids()?,
            trt_hint: r.opt_u64()?,
        },
        "heartbeat" => Message::Heartbeat {
            trt_hint: r.opt_u64()?,
        },
        "rt-probe" => Message::RtProbe { nonce: r.u64()? },
        "rt-probe-reply" => Message::RtProbeReply {
            nonce: r.u64()?,
            trt_hint: r.opt_u64()?,
        },
        "rt-row-request" => Message::RtRowRequest { row: r.usize_()? },
        "rt-row-reply" => Message::RtRowReply {
            row: r.usize_()?,
            entries: r.ids()?,
        },
        "rt-row-announce" => Message::RtRowAnnounce {
            row: r.usize_()?,
            entries: r.ids()?,
        },
        "rt-slot-request" => Message::RtSlotRequest {
            row: r.usize_()?,
            col: r.u8()?,
        },
        "rt-slot-reply" => Message::RtSlotReply {
            row: r.usize_()?,
            col: r.u8()?,
            entry: match r.u8()? {
                0 => None,
                _ => Some(r.id()?),
            },
        },
        "distance-probe" => Message::DistanceProbe { nonce: r.u64()? },
        "distance-probe-reply" => Message::DistanceProbeReply { nonce: r.u64()? },
        "distance-report" => Message::DistanceReport { rtt_us: r.u64()? },
        "nn-leafset-request" => Message::NnLeafSetRequest,
        "nn-leafset-reply" => Message::NnLeafSetReply { nodes: r.ids()? },
        "nn-row-request" => Message::NnRowRequest { row: r.usize_()? },
        "nn-row-reply" => Message::NnRowReply {
            row: r.usize_()?,
            nodes: r.ids()?,
        },
        "lookup" => Message::Lookup {
            id: r.lookup_id()?,
            key: r.id()?,
            payload: r.u64()?,
            hops: r.u32()?,
            issued_at_us: r.u64()?,
            is_retransmit: r.bool()?,
            wants_acks: r.bool()?,
        },
        "ack" => Message::Ack { id: r.lookup_id()? },
        "leaving" => Message::Leaving,
        _ => return Err(DecodeError::UnknownTag(tag)),
    };
    r.finish()?;
    Ok(msg)
}

/// The exact encoded size of a message in bytes, without allocating;
/// used for byte-level traffic accounting in the simulator.
pub fn encoded_len(msg: &Message) -> usize {
    let mut len = Len(0);
    fields(msg, &mut len);
    len.0
}

/// All distinct node identifiers referenced inside a message, in wire
/// order (used by transports to piggyback address hints so receivers can
/// resolve identifiers to network addresses). A lookup's key is not a node.
pub fn referenced_node_ids(msg: &Message) -> Vec<NodeId> {
    let mut nodes = Nodes(Vec::new());
    fields(msg, &mut nodes);
    nodes.0
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
        let past_last = crate::messages::N_KINDS as u8 + 1;
        for tag in [0, past_last, 200] {
            assert_eq!(decode(&[tag]), Err(DecodeError::UnknownTag(tag)));
        }
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
        // A lookup names its source, not its key.
        let msg = Message::Lookup {
            id: LookupId { src: Id(4), seq: 1 },
            key: Id(5),
            payload: 0,
            hops: 0,
            issued_at_us: 0,
            is_retransmit: false,
            wants_acks: true,
        };
        assert_eq!(referenced_node_ids(&msg), vec![Id(4)]);
        let msg = Message::RtSlotReply {
            row: 1,
            col: 2,
            entry: None,
        };
        assert_eq!(referenced_node_ids(&msg), vec![]);
    }
}
