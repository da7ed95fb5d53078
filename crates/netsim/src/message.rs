//! Messages exchanged between simulated nodes.

use std::fmt;

use bytes::Bytes;
use iobt_ckpt::{Dec, DecodeError, Enc, Wire};
use iobt_types::NodeId;

use crate::time::SimTime;

/// A unicast application message in flight between two nodes.
///
/// The payload is opaque to the simulator; application behaviours encode
/// whatever they need (sensor reports, model updates, commands).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    src: NodeId,
    dst: NodeId,
    kind: u32,
    payload: Bytes,
    sent_at: SimTime,
    tampered: bool,
}

/// Hand-written for the payload alone: `Bytes` is a foreign type, and
/// travels as a length-prefixed byte string.
impl Wire for Message {
    fn put(&self, e: &mut Enc) {
        let Self {
            src,
            dst,
            kind,
            payload,
            sent_at,
            tampered,
        } = self;
        e.put(src);
        e.put(dst);
        e.u32(*kind);
        e.bytes(payload);
        e.put(sent_at);
        e.bool(*tampered);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Message {
            src: d.get()?,
            dst: d.get()?,
            kind: d.u32()?,
            payload: Bytes::from(d.bytes()?.to_vec()),
            sent_at: d.get()?,
            tampered: d.bool()?,
        })
    }
}

impl Message {
    /// Creates a message. `kind` is an application-defined tag used for
    /// cheap dispatch without decoding the payload.
    pub fn new(src: NodeId, dst: NodeId, kind: u32, payload: impl Into<Bytes>) -> Self {
        Message {
            src,
            dst,
            kind,
            payload: payload.into(),
            sent_at: SimTime::ZERO,
            tampered: false,
        }
    }

    /// Originating node.
    pub const fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    pub const fn dst(&self) -> NodeId {
        self.dst
    }

    /// Application-defined message tag.
    pub const fn kind(&self) -> u32 {
        self.kind
    }

    /// Opaque payload bytes.
    // lint: allow(unused-pub) — the receiving end of the zero-copy payloads DESIGN.md:986 names
    pub const fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Time the message entered the network.
    pub const fn sent_at(&self) -> SimTime {
        self.sent_at
    }

    /// Whether a compromised relay tampered with this message in flight.
    /// Integrity-aware receivers must treat flagged payloads as
    /// untrustworthy (§IV: gray/red assets may corrupt what they carry).
    pub const fn tampered(&self) -> bool {
        self.tampered
    }

    pub(crate) fn mark_tampered(&mut self) {
        self.tampered = true;
    }

    /// Total size on the wire in bits, including a fixed 32-byte header.
    pub fn size_bits(&self) -> u64 {
        ((self.payload.len() as u64) + 32) * 8
    }

    pub(crate) fn stamped(mut self, at: SimTime) -> Self {
        self.sent_at = at;
        self
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "msg kind={} {}→{} ({} B)",
            self.kind,
            self.src,
            self.dst,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_includes_header() {
        let m = Message::new(NodeId::new(1), NodeId::new(2), 0, Bytes::from_static(b"abcd"));
        assert_eq!(m.size_bits(), (4 + 32) * 8);
    }

    #[test]
    fn stamping_sets_sent_time() {
        let m = Message::new(NodeId::new(1), NodeId::new(2), 7, Bytes::new())
            .stamped(SimTime::from_millis(5));
        assert_eq!(m.sent_at(), SimTime::from_millis(5));
        assert_eq!(m.kind(), 7);
    }

    #[test]
    fn display_mentions_endpoints() {
        let m = Message::new(NodeId::new(3), NodeId::new(4), 1, Bytes::new());
        let s = m.to_string();
        assert!(s.contains("n3"));
        assert!(s.contains("n4"));
    }
}
