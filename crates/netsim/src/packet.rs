//! The hardware packet.

use std::fmt;

use crate::id::NodeId;
use crate::time::Time;

/// Payload words a packet holds without touching the heap: the CM-5
/// packet's data words (its fifth word is the header).
const INLINE_WORDS: usize = 4;

/// The `pair_seq`/`injected_at` value of a packet no network has
/// stamped yet.
const UNSTAMPED: u64 = u64::MAX;

/// A packet's payload: inline up to [`INLINE_WORDS`], spilled to the
/// heap only for the longer packets of a non-default `packet_words`
/// (the paper's Figure 8 sweeps 8–128 words). The variant follows from
/// the length alone, and equality compares words.
#[derive(Clone)]
enum Payload {
    Inline { len: u8, words: [u32; INLINE_WORDS] },
    Spill(Box<[u32]>),
}

impl Payload {
    fn new(data: &[u32]) -> Self {
        if data.len() <= INLINE_WORDS {
            let mut words = [0; INLINE_WORDS];
            words[..data.len()].copy_from_slice(data);
            Payload::Inline {
                len: data.len() as u8,
                words,
            }
        } else {
            Payload::Spill(data.into())
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Payload::Inline { len, words } => &words[..usize::from(*len)],
            Payload::Spill(words) => words,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

/// A hardware network packet.
///
/// Modeled on the CM-5's five-word packet: one *header* word (the
/// messaging layer uses it for an offset or sequence number) plus up to a
/// few payload words, along with the routing envelope (source,
/// destination, tag). The `tag` selects the handler at the receiving node,
/// exactly like the CM-5 NI's hardware message tag.
///
/// A packet of up to four payload words owns no heap memory.
#[derive(Clone, PartialEq, Eq)]
pub struct Packet {
    src: NodeId,
    dst: NodeId,
    tag: u8,
    header: u32,
    data: Payload,
    // Envelope fields maintained by the network, `UNSTAMPED` until
    // injection:
    pair_seq: u64,
    injected_at: u64,
    corrupted: bool,
}

impl Packet {
    /// Build a packet. `tag` selects the receive handler; `header` is the
    /// extra non-payload word (offset/sequence number); `data` is the
    /// payload, copied into the packet.
    pub fn new(src: NodeId, dst: NodeId, tag: u8, header: u32, data: &[u32]) -> Self {
        Packet {
            src,
            dst,
            tag,
            header,
            data: Payload::new(data),
            pair_seq: UNSTAMPED,
            injected_at: UNSTAMPED,
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
        self.data.as_slice()
    }

    /// Payload length in words.
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// Whether the payload is empty (pure control packet).
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// Injection sequence number within the `(src, dst)` pair, assigned
    /// by the network at injection. Delivery order can be compared
    /// against this to detect reordering.
    pub fn pair_seq(&self) -> Option<u64> {
        (self.pair_seq != UNSTAMPED).then_some(self.pair_seq)
    }

    /// When the packet was injected, if injected.
    pub fn injected_at(&self) -> Option<Time> {
        (self.injected_at != UNSTAMPED).then(|| Time::from_cycles(self.injected_at))
    }

    /// The pair sequence number a substrate stamped at injection. Only
    /// substrates read it, and only for packets they injected themselves.
    pub(crate) fn stamped_seq(&self) -> u64 {
        self.pair_seq
    }

    /// Whether the packet was corrupted in flight. A detect-only network
    /// discards such packets at the receiving NI; callers of
    /// [`crate::Network::try_receive`] never observe them.
    pub fn is_corrupted(&self) -> bool {
        self.corrupted
    }

    pub(crate) fn stamp(&mut self, pair_seq: u64, at: Time) {
        self.pair_seq = pair_seq;
        self.injected_at = at.cycles();
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

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("tag", &self.tag)
            .field("header", &self.header)
            .field("data", &self.data())
            .field("pair_seq", &self.pair_seq())
            .field("injected_at", &self.injected_at())
            .field("corrupted", &self.corrupted)
            .finish()
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
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Packet::new(NodeId::new(0), NodeId::new(1), 3, 42, &[1, 2]);
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
        let mut p = Packet::new(NodeId::new(0), NodeId::new(1), 0, 0, &[]);
        assert!(p.is_empty());
        assert_eq!((p.pair_seq(), p.injected_at()), (None, None));
        p.stamp(0, Time::ZERO);
        assert_eq!((p.pair_seq(), p.injected_at()), (Some(0), Some(Time::ZERO)));
        p.stamp(2, Time::from_cycles(5));
        assert_eq!(p.pair_seq(), Some(2));
        assert_eq!(p.stamped_seq(), 2);
        assert_eq!(p.injected_at(), Some(Time::from_cycles(5)));
        p.corrupt();
        assert!(p.is_corrupted());
        p.repair();
        assert!(!p.is_corrupted());
    }

    fn words(len: u32) -> Vec<u32> {
        (0..len).map(|i| i.wrapping_mul(0x9e37_79b9) ^ 7).collect()
    }

    #[test]
    fn packet_stays_within_eighty_bytes() {
        let size = std::mem::size_of::<Packet>();
        assert!(size <= 80, "a packet is {size} bytes");
    }

    #[test]
    fn payload_round_trips_inline_and_spilled() {
        for len in [0, 1, 2, 4, 6, 128] {
            let data = words(len);
            let p = Packet::new(NodeId::new(0), NodeId::new(1), 1, 0, &data);
            assert_eq!(p.data(), data.as_slice(), "{len} words");
            assert_eq!(p.len(), data.len());
            assert_eq!(p.clone().data(), data.as_slice(), "{len} words, cloned");
            let inline = matches!(p.data, Payload::Inline { .. });
            assert_eq!(inline, data.len() <= INLINE_WORDS, "{len} words");
        }
    }

    #[test]
    fn equality_compares_words_not_representation() {
        let pkt = |data: &[u32]| Packet::new(NodeId::new(0), NodeId::new(1), 1, 9, data);
        assert_eq!(pkt(&[1, 2]), pkt(&[1, 2]));
        assert_ne!(pkt(&[1, 2]), pkt(&[1, 2, 0]));
        assert_ne!(pkt(&[1, 2]), pkt(&[1]));
        // Unused inline words are not part of the payload, and a spilled
        // payload equals an inline one holding the same words.
        let stale = Payload::Inline {
            len: 2,
            words: [1, 2, 3, 4],
        };
        assert!(stale == Payload::new(&[1, 2]));
        assert!(Payload::Spill(vec![5, 6].into()) == Payload::new(&[5, 6]));
        assert_eq!(pkt(&words(6)), pkt(&words(6)));
        assert_ne!(pkt(&words(6)), pkt(&words(5)));
    }
}
