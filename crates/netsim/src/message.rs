//! Messages exchanged between simulated nodes.

use std::fmt;

use iobt_ckpt::wire_struct;
use iobt_types::NodeId;

use crate::time::SimTime;

/// A unicast application message in flight between two nodes.
///
/// A message is its length: the simulator models whether, when and at
/// what energy cost it arrives, and nothing reads what it says, so only
/// the payload's size travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    src: NodeId,
    dst: NodeId,
    kind: u32,
    payload_len: usize,
    sent_at: SimTime,
    tampered: bool,
}

wire_struct!(Message { src, dst, kind, payload_len, sent_at, tampered });

impl Message {
    /// Creates a message of `payload_len` payload bytes. `kind` is an
    /// application-defined tag used for dispatch.
    pub fn new(src: NodeId, dst: NodeId, kind: u32, payload_len: usize) -> Self {
        Message {
            src,
            dst,
            kind,
            payload_len,
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
        (self.payload_len as u64).saturating_add(32).saturating_mul(8)
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
            self.payload_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_includes_header() {
        let m = Message::new(NodeId::new(1), NodeId::new(2), 0, 4);
        assert_eq!(m.size_bits(), (4 + 32) * 8);
    }

    #[test]
    fn stamping_sets_sent_time() {
        let m = Message::new(NodeId::new(1), NodeId::new(2), 7, 0)
            .stamped(SimTime::from_millis(5));
        assert_eq!(m.sent_at(), SimTime::from_millis(5));
        assert_eq!(m.kind(), 7);
    }

    #[test]
    fn display_mentions_endpoints() {
        let m = Message::new(NodeId::new(3), NodeId::new(4), 1, 0);
        let s = m.to_string();
        assert!(s.contains("n3"));
        assert!(s.contains("n4"));
    }
}
