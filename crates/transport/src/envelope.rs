//! The UDP wire envelope.
//!
//! The protocol addresses peers by 128-bit identifier; the transport must
//! resolve identifiers to socket addresses. Every datagram therefore carries
//! the sender's identifier plus *address hints*: `(identifier, address)`
//! pairs for nodes referenced inside the payload that the sender can
//! resolve. Receivers merge hints into their address book, so addresses
//! propagate along exactly the same gossip paths as the identifiers
//! themselves.

use mspastry::codec::{self, DecodeError};
use mspastry::{Id, Message, NodeId};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Maximum hints per datagram (bounds datagram size).
pub const MAX_HINTS: usize = 48;

/// One UDP datagram: sender identity, address hints, and the protocol
/// message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The sending node.
    pub sender: NodeId,
    /// Identifier-to-address hints for nodes referenced in `msg`.
    pub hints: Vec<(NodeId, SocketAddr)>,
    /// The protocol message.
    pub msg: Message,
}

impl Envelope {
    /// Encodes the envelope to datagram bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.sender.0.to_le_bytes());
        buf.push(self.hints.len().min(MAX_HINTS) as u8);
        for (id, addr) in self.hints.iter().take(MAX_HINTS) {
            buf.extend_from_slice(&id.0.to_le_bytes());
            encode_addr(&mut buf, *addr);
        }
        codec::encode_into(&self.msg, &mut buf);
        buf
    }

    /// Decodes an envelope from datagram bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Envelope, DecodeError> {
        if bytes.len() < 17 {
            return Err(DecodeError::Truncated);
        }
        let sender = Id(u128::from_le_bytes(bytes[..16].try_into().unwrap()));
        let n_hints = bytes[16] as usize;
        if n_hints > MAX_HINTS {
            return Err(DecodeError::ListTooLong(n_hints as u64));
        }
        let mut pos = 17;
        let mut hints = Vec::with_capacity(n_hints);
        for _ in 0..n_hints {
            if bytes.len() < pos + 16 {
                return Err(DecodeError::Truncated);
            }
            let id = Id(u128::from_le_bytes(
                bytes[pos..pos + 16].try_into().unwrap(),
            ));
            pos += 16;
            let (addr, used) = decode_addr(&bytes[pos..])?;
            pos += used;
            hints.push((id, addr));
        }
        let msg = codec::decode(&bytes[pos..])?;
        Ok(Envelope { sender, hints, msg })
    }
}

fn encode_addr(buf: &mut Vec<u8>, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            buf.push(4);
            buf.extend_from_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            buf.push(6);
            buf.extend_from_slice(&ip.octets());
        }
    }
    buf.extend_from_slice(&addr.port().to_le_bytes());
}

fn decode_addr(bytes: &[u8]) -> Result<(SocketAddr, usize), DecodeError> {
    match bytes.first() {
        Some(4) => {
            if bytes.len() < 7 {
                return Err(DecodeError::Truncated);
            }
            let ip = Ipv4Addr::new(bytes[1], bytes[2], bytes[3], bytes[4]);
            let port = u16::from_le_bytes([bytes[5], bytes[6]]);
            Ok((SocketAddr::new(IpAddr::V4(ip), port), 7))
        }
        Some(6) => {
            if bytes.len() < 19 {
                return Err(DecodeError::Truncated);
            }
            let mut oct = [0u8; 16];
            oct.copy_from_slice(&bytes[1..17]);
            let port = u16::from_le_bytes([bytes[17], bytes[18]]);
            Ok((SocketAddr::new(IpAddr::V6(Ipv6Addr::from(oct)), port), 19))
        }
        Some(t) => Err(DecodeError::UnknownTag(*t)),
        None => Err(DecodeError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(a: u8, port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::new(127, 0, 0, a)), port)
    }

    #[test]
    fn round_trip_with_hints() {
        let env = Envelope {
            sender: Id(0xfeed),
            hints: vec![
                (Id(1), v4(1, 4000)),
                (Id(2), SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), 9)),
            ],
            msg: Message::Heartbeat {
                trt_hint: Some(1234),
            },
        };
        let bytes = env.encode();
        assert_eq!(Envelope::decode(&bytes).unwrap(), env);
    }

    #[test]
    fn round_trip_without_hints() {
        let env = Envelope {
            sender: Id(7),
            hints: vec![],
            msg: Message::NnLeafSetRequest,
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn truncation_is_detected() {
        let env = Envelope {
            sender: Id(7),
            hints: vec![(Id(1), v4(1, 80))],
            msg: Message::RtProbe { nonce: 5 },
        };
        let bytes = env.encode();
        for cut in 0..bytes.len() {
            assert!(Envelope::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_address_tag_is_rejected() {
        let env = Envelope {
            sender: Id(7),
            hints: vec![(Id(1), v4(1, 80))],
            msg: Message::RtProbe { nonce: 5 },
        };
        let mut bytes = env.encode();
        bytes[17 + 16] = 9; // corrupt the address family tag
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(DecodeError::UnknownTag(9))
        ));
    }
}
