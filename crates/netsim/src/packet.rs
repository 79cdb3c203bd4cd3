//! The hardware packet.

use std::fmt;

use crate::id::NodeId;
use crate::time::Time;

/// A hardware network packet.
///
/// Modeled on the CM-5's five-word packet: one *header* word (the
/// messaging layer uses it for an offset or sequence number) plus up to a
/// few payload words, along with the routing envelope (source,
/// destination, tag). The `tag` selects the handler at the receiving node,
/// exactly like the CM-5 NI's hardware message tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    src: NodeId,
    dst: NodeId,
    tag: u8,
    header: u32,
    data: Vec<u32>,
    // Envelope fields maintained by the network:
    pair_seq: Option<u64>,
    injected_at: Option<Time>,
    corrupted: bool,
}

impl Packet {
    /// Build a packet. `tag` selects the receive handler; `header` is the
    /// extra non-payload word (offset/sequence number); `data` is the
    /// payload.
    pub fn new(src: NodeId, dst: NodeId, tag: u8, header: u32, data: Vec<u32>) -> Self {
        Packet {
            src,
            dst,
            tag,
            header,
            data,
            pair_seq: None,
            injected_at: None,
            corrupted: false,
        }
    }

    /// Sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Hardware message tag (handler selector).
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// The header word (offset or sequence number).
    pub fn header(&self) -> u32 {
        self.header
    }

    /// Payload words.
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// Payload length in words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty (pure control packet).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Injection sequence number within the `(src, dst)` pair, assigned
    /// by the network at injection. Delivery order can be compared
    /// against this to detect reordering.
    pub fn pair_seq(&self) -> Option<u64> {
        self.pair_seq
    }

    /// When the packet was injected, if injected.
    pub fn injected_at(&self) -> Option<Time> {
        self.injected_at
    }

    /// Whether the packet was corrupted in flight. A detect-only network
    /// discards such packets at the receiving NI; callers of
    /// [`crate::Network::try_receive`] never observe them.
    pub fn is_corrupted(&self) -> bool {
        self.corrupted
    }

    pub(crate) fn stamp(&mut self, pair_seq: u64, at: Time) {
        self.pair_seq = Some(pair_seq);
        self.injected_at = Some(at);
    }

    /// Rewrite the routing envelope's endpoints. Used by the sharded
    /// substrate to translate between global node ids (what software
    /// sees) and shard-local ids (what a shard's subnet routes over);
    /// every packet crossing the translation boundary is remapped both
    /// ways, so software only ever observes global ids.
    pub(crate) fn set_endpoints(&mut self, src: NodeId, dst: NodeId) {
        self.src = src;
        self.dst = dst;
    }

    pub(crate) fn corrupt(&mut self) {
        self.corrupted = true;
    }

    pub(crate) fn repair(&mut self) {
        self.corrupted = false;
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}→{} tag={} hdr={} [{} words]",
            self.src,
            self.dst,
            self.tag,
            self.header,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Packet::new(NodeId::new(0), NodeId::new(1), 3, 42, vec![1, 2]);
        assert_eq!(p.src().index(), 0);
        assert_eq!(p.dst().index(), 1);
        assert_eq!(p.tag(), 3);
        assert_eq!(p.header(), 42);
        assert_eq!(p.data(), &[1, 2]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.pair_seq().is_none());
        assert!(!p.is_corrupted());
    }

    #[test]
    fn stamping_and_corruption() {
        let mut p = Packet::new(NodeId::new(0), NodeId::new(1), 0, 0, vec![]);
        assert!(p.is_empty());
        p.stamp(2, Time::from_cycles(5));
        assert_eq!(p.pair_seq(), Some(2));
        assert_eq!(p.injected_at(), Some(Time::from_cycles(5)));
        p.corrupt();
        assert!(p.is_corrupted());
        p.repair();
        assert!(!p.is_corrupted());
    }
}
