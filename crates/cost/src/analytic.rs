//! Closed-form cost models (the generalized formulas of Figure 8).
//!
//! The paper parameterizes its measured CMAM costs by the hardware packet
//! payload size `n` (words per packet) and the number of packets per
//! message `p`. This module captures those formulas, reverse-engineered
//! from Tables 1–3 so that at `n = 4` they reproduce the published counts
//! *exactly* (see `DESIGN.md §3` for the derivation). The simulated
//! protocols in `timego-am` are cross-validated against these closed forms
//! by the integration test suite.
//!
//! Conventions:
//!
//! * `n` must be even (the SPARC moves payload with double-word
//!   loads/stores, so `n/2` memory/device operations move `n` words);
//! * a hardware packet carries `n` payload words plus one header word
//!   (the CM-5's 5-word packet at `n = 4`);
//! * for the indefinite-sequence protocol, the paper assumes half the
//!   packets arrive out of order and one acknowledgement per packet;
//!   both are adjustable here ([`IndefiniteOpts`]).

use std::error::Error;
use std::fmt;

use crate::axes::{Endpoint, Feature};
use crate::vector::FeatureCost;

/// Message shape: packet payload size and packet count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgShape {
    n: u64,
    p: u64,
}

/// Error constructing a [`MsgShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// Packet payload size was zero or odd (payload moves in double
    /// words).
    BadPacketWords(u64),
    /// Message had zero packets / zero words.
    EmptyMessage,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::BadPacketWords(n) => {
                write!(f, "packet payload must be even and nonzero, got {n}")
            }
            ShapeError::EmptyMessage => write!(f, "message must contain at least one packet"),
        }
    }
}

impl Error for ShapeError {}

impl MsgShape {
    /// Shape from explicit packet payload size `n` (words, even, ≥ 2) and
    /// packet count `p` (≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `n` is zero or odd, or `p` is zero.
    pub fn new(n: u64, p: u64) -> Result<Self, ShapeError> {
        if n == 0 || !n.is_multiple_of(2) {
            return Err(ShapeError::BadPacketWords(n));
        }
        if p == 0 {
            return Err(ShapeError::EmptyMessage);
        }
        Ok(MsgShape { n, p })
    }

    /// Shape for a `message_words`-word message split into `n`-word
    /// packets (`p = ⌈message_words / n⌉`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `n` is zero or odd, or the message is
    /// empty.
    pub fn for_message(message_words: u64, n: u64) -> Result<Self, ShapeError> {
        if n == 0 || !n.is_multiple_of(2) {
            return Err(ShapeError::BadPacketWords(n));
        }
        if message_words == 0 {
            return Err(ShapeError::EmptyMessage);
        }
        Ok(MsgShape {
            n,
            p: message_words.div_ceil(n),
        })
    }

    /// The paper's canonical shape: 4 payload words per packet.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::EmptyMessage`] if `message_words` is zero.
    pub fn paper(message_words: u64) -> Result<Self, ShapeError> {
        MsgShape::for_message(message_words, 4)
    }

    /// Payload words per packet (`n`).
    pub fn packet_words(&self) -> u64 {
        self.n
    }

    /// Packets per message (`p`).
    pub fn packets(&self) -> u64 {
        self.p
    }

    /// Total payload capacity of the message (`n · p` words).
    pub fn message_words(&self) -> u64 {
        self.n * self.p
    }

    /// Double-word operations needed to move one packet payload (`n/2`).
    pub fn dwords(&self) -> u64 {
        self.n / 2
    }
}

/// Costs of one protocol execution, split by endpoint and feature — the
/// shape of one block of Table 2/3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCost {
    cells: [[FeatureCost; Feature::ALL.len()]; Endpoint::ALL.len()],
}

impl ProtocolCost {
    /// An all-zero cost table.
    pub fn new() -> Self {
        ProtocolCost::default()
    }

    /// The `(reg, mem, dev)` triple for one cell.
    pub fn get(&self, endpoint: Endpoint, feature: Feature) -> FeatureCost {
        self.cells[endpoint.index()][feature.index()]
    }

    /// Overwrite one cell.
    pub fn set(&mut self, endpoint: Endpoint, feature: Feature, cost: FeatureCost) {
        self.cells[endpoint.index()][feature.index()] = cost;
    }

    /// Add into one cell.
    pub fn add(&mut self, endpoint: Endpoint, feature: Feature, cost: FeatureCost) {
        self.cells[endpoint.index()][feature.index()] += cost;
    }

    /// Total instructions at one endpoint (a Table 2 column total).
    pub fn endpoint_total(&self, endpoint: Endpoint) -> u64 {
        Feature::ALL
            .iter()
            .map(|f| self.get(endpoint, *f).total())
            .sum()
    }

    /// Total instructions for one feature across both endpoints (a
    /// Table 2 row total).
    pub fn feature_total(&self, feature: Feature) -> u64 {
        Endpoint::ALL
            .iter()
            .map(|e| self.get(*e, feature).total())
            .sum()
    }

    /// Grand total (the Table 2 bottom-right cell).
    pub fn total(&self) -> u64 {
        Endpoint::ALL.iter().map(|e| self.endpoint_total(*e)).sum()
    }

    /// Total of the non-base features.
    pub fn overhead_total(&self) -> u64 {
        Feature::ALL
            .iter()
            .filter(|f| f.is_overhead())
            .map(|f| self.feature_total(*f))
            .sum()
    }

    /// Messaging-layer overhead as a fraction of the total, in `[0, 1]`.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.overhead_total() as f64 / total as f64
        }
    }

    /// Per-endpoint `(reg, mem, dev)` class totals (a Table 3 column
    /// total).
    pub fn endpoint_classes(&self, endpoint: Endpoint) -> FeatureCost {
        Feature::ALL
            .iter()
            .fold(FeatureCost::ZERO, |acc, f| acc + self.get(endpoint, *f))
    }
}

/// Options for the indefinite-sequence (stream) protocol model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndefiniteOpts {
    /// Number of packets arriving out of transmission order. The paper
    /// assumes `p / 2`.
    pub ooo_packets: u64,
    /// Acknowledge every `ack_period` packets (`1` = the paper's
    /// per-packet acknowledgement; larger values are the paper's "group
    /// acknowledgements" variant).
    pub ack_period: u64,
}

impl IndefiniteOpts {
    /// The paper's assumptions for a `p`-packet stream: half the packets
    /// out of order, one acknowledgement per packet.
    pub fn paper(shape: MsgShape) -> Self {
        IndefiniteOpts {
            ooo_packets: shape.packets() / 2,
            ack_period: 1,
        }
    }
}

// ---------------------------------------------------------------------
// Single-packet delivery (Table 1)
// ---------------------------------------------------------------------

/// The single-packet delivery cost table (base feature only): 20
/// instructions at the source, 27 at the destination.
pub fn single_packet() -> ProtocolCost {
    let mut c = ProtocolCost::new();
    // Class split: source = 15 reg + 5 dev (1 dev NI-setup store, 2 dev
    // payload stores, 2 dev status loads); destination = 22 reg + 5 dev
    // (1 dev receive poll, 1 dev latch/tag load, 1 dev header load,
    // 2 dev payload loads) — the same shape as the finite-sequence
    // protocol's final-acknowledgement receive in Table 3.
    c.set(Endpoint::Source, Feature::Base, FeatureCost::new(15, 0, 5));
    c.set(
        Endpoint::Destination,
        Feature::Base,
        FeatureCost::new(22, 0, 5),
    );
    c
}

// ---------------------------------------------------------------------
// Finite-sequence, multi-packet delivery (CMAM)
// ---------------------------------------------------------------------

/// CMAM finite-sequence multi-packet delivery (the `CMAM_xfer` protocol
/// of §3.2): preallocation handshake, offset-carrying packets, one final
/// acknowledgement.
///
/// At `n = 4` this reproduces Table 2/3 exactly: e.g. for a 1024-word
/// message (`p = 256`) the total is 11 737 instructions, 6 221 at the
/// source and 5 516 at the destination.
pub fn cmam_finite(shape: MsgShape) -> ProtocolCost {
    let p = shape.packets();
    let d = shape.dwords();
    let mut c = ProtocolCost::new();

    // Base: per packet the source spends 15 reg (loop + send inline), d
    // mem loads from the user buffer and d + 3 dev ops (1 NI-setup store,
    // d payload stores, 2 status loads); plus a 2 reg + 1 mem call
    // prologue. The destination mirrors it with 12 reg, d mem stores into
    // the segment and d + 2 dev ops, plus an 18-instruction
    // poll-entry/handler epilogue (14 reg + 3 mem + 1 dev).
    c.set(
        Endpoint::Source,
        Feature::Base,
        FeatureCost::new(15 * p + 2, d * p + 1, (d + 3) * p),
    );
    c.set(
        Endpoint::Destination,
        Feature::Base,
        FeatureCost::new(12 * p + 14, d * p + 3, (d + 2) * p + 1),
    );

    // Buffer management: the request/reply handshake (steps 1–3) plus
    // segment association and disassociation (steps 2 and 5). Constant in
    // message size — Table 2 shows the same 47/101 at 16 and 1024 words.
    c.set(
        Endpoint::Source,
        Feature::BufferMgmt,
        FeatureCost::new(36, 1, 10),
    );
    c.set(
        Endpoint::Destination,
        Feature::BufferMgmt,
        FeatureCost::new(79, 12, 10),
    );

    // In-order delivery: each packet carries an offset into the target
    // buffer. Source: increment + store the offset (2 reg/packet).
    // Destination: extract the offset and decrement the expected-packet
    // count (3 reg/packet + 1).
    c.set(Endpoint::Source, Feature::InOrder, FeatureCost::new(2 * p, 0, 0));
    c.set(
        Endpoint::Destination,
        Feature::InOrder,
        FeatureCost::new(3 * p + 1, 0, 0),
    );

    // Fault tolerance: one completion acknowledgement. Receiving it costs
    // the source 27 (22 reg + 5 dev); sending it costs the destination 20
    // (14 reg + 1 mem + 5 dev).
    c.set(Endpoint::Source, Feature::FaultTol, FeatureCost::new(22, 0, 5));
    c.set(
        Endpoint::Destination,
        Feature::FaultTol,
        FeatureCost::new(14, 1, 5),
    );

    c
}

/// [`cmam_finite`] with DMA payload injection at the source (§5's
/// "improved network interfaces and DMA hardware"): identical except the
/// source base cost, which drops to `8 reg + 4 dev` per packet
/// (envelope, descriptor, commit and status accesses) with no per-word
/// instructions — independent of the packet size `n`. The overheads are
/// untouched, so their share of the total grows.
pub fn cmam_finite_dma(shape: MsgShape) -> ProtocolCost {
    let mut c = cmam_finite(shape);
    let p = shape.packets();
    c.set(
        Endpoint::Source,
        Feature::Base,
        FeatureCost::new(8 * p + 2, 1, 4 * p),
    );
    c
}

// ---------------------------------------------------------------------
// Indefinite-sequence, multi-packet delivery (CMAM)
// ---------------------------------------------------------------------

/// CMAM indefinite-sequence multi-packet delivery (the stream/socket
/// protocol of §3.2): per-packet sequence numbers, receiver buffering of
/// out-of-order packets, source buffering and acknowledgements.
///
/// With [`IndefiniteOpts::paper`] assumptions at `n = 4` this reproduces
/// Table 2/3 exactly: 481 instructions for 16 words, 29 965 for 1024.
pub fn cmam_indefinite(shape: MsgShape, opts: IndefiniteOpts) -> ProtocolCost {
    let p = shape.packets();
    let d = shape.dwords();
    let ooo = opts.ooo_packets.min(p);
    let inorder = p - ooo;
    let acks = p.div_ceil(opts.ack_period.max(1));
    let mut c = ProtocolCost::new();

    // Base: register-to-register user view — per packet the source spends
    // 14 reg, 1 mem (channel-state load) and d + 3 dev; the destination
    // 10 reg and d + 2 dev per packet plus a 13-instruction poll entry.
    c.set(
        Endpoint::Source,
        Feature::Base,
        FeatureCost::new(14 * p, p, (d + 3) * p),
    );
    c.set(
        Endpoint::Destination,
        Feature::Base,
        FeatureCost::new(10 * p + 12, 0, (d + 2) * p + 1),
    );

    // In-order delivery. Source: generate and attach a sequence number
    // (2 reg + 3 mem per packet — the channel sequence state lives in
    // memory). Destination: an in-sequence packet costs a 6-reg sequence
    // check; an out-of-order packet is buffered and later drained
    // (29 reg + (2n + 15) mem covering the word-granularity copy in, the
    // sorted insert, the reload and the unlink).
    c.set(
        Endpoint::Source,
        Feature::InOrder,
        FeatureCost::new(2 * p, 3 * p, 0),
    );
    c.set(
        Endpoint::Destination,
        Feature::InOrder,
        FeatureCost::new(6 * inorder + 29 * ooo, (2 * shape.packet_words() + 15) * ooo, 0),
    );

    // Fault tolerance. Source: buffer every outgoing packet pending
    // acknowledgement (4 reg + d mem per packet) and process each
    // acknowledgement (18 reg + 5 dev). Destination: send each
    // acknowledgement (a 20-instruction single-packet send).
    c.set(
        Endpoint::Source,
        Feature::FaultTol,
        FeatureCost::new(4 * p + 18 * acks, d * p, 5 * acks),
    );
    c.set(
        Endpoint::Destination,
        Feature::FaultTol,
        FeatureCost::new(14 * acks, acks, 5 * acks),
    );

    c
}

// ---------------------------------------------------------------------
// High-level-network (Compressionless Routing) variants (§4)
// ---------------------------------------------------------------------

/// Finite-sequence delivery on the high-level (CR) network: the hardware
/// provides ordering, flow control and reliability, so only base data
/// movement plus a trivial buffer-table insertion remain (Figure 5).
pub fn hl_finite(shape: MsgShape) -> ProtocolCost {
    let p = shape.packets();
    let d = shape.dwords();
    let mut c = ProtocolCost::new();

    // Source base is identical to the CMAM implementation (the NI is the
    // same); the destination is slightly cheaper — fewer branches in the
    // reception code and a specialized last-packet handler (§4.1).
    c.set(
        Endpoint::Source,
        Feature::Base,
        FeatureCost::new(15 * p + 2, d * p + 1, (d + 3) * p),
    );
    c.set(
        Endpoint::Destination,
        Feature::Base,
        FeatureCost::new(12 * p + 4, d * p + 1, (d + 2) * p + 1),
    );

    // Buffer management shrinks to storing the allocated buffer pointer
    // in a table keyed by the incoming message (6 reg + 2 mem).
    c.set(
        Endpoint::Destination,
        Feature::BufferMgmt,
        FeatureCost::new(6, 2, 0),
    );

    c
}

/// Indefinite-sequence delivery on the high-level (CR) network:
/// implemented "essentially for free on top of multiple single-packet
/// transmissions" (Figure 7) — exactly the CMAM base cost, nothing else.
pub fn hl_indefinite(shape: MsgShape) -> ProtocolCost {
    let p = shape.packets();
    let d = shape.dwords();
    let mut c = ProtocolCost::new();
    c.set(
        Endpoint::Source,
        Feature::Base,
        FeatureCost::new(14 * p, p, (d + 3) * p),
    );
    c.set(
        Endpoint::Destination,
        Feature::Base,
        FeatureCost::new(10 * p + 12, 0, (d + 2) * p + 1),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{self, Block};

    fn shape(words: u64) -> MsgShape {
        MsgShape::paper(words).unwrap()
    }

    #[test]
    fn shape_validation() {
        assert!(MsgShape::new(3, 4).is_err());
        assert!(MsgShape::new(0, 4).is_err());
        assert!(MsgShape::new(4, 0).is_err());
        assert!(MsgShape::for_message(0, 4).is_err());
        let s = MsgShape::for_message(17, 4).unwrap();
        assert_eq!(s.packets(), 5); // ceil(17/4)
        assert_eq!(s.message_words(), 20);
    }

    /// Every printed cell of `block` read off `cost` equals the paper's.
    fn assert_paper(block: Block, cost: &ProtocolCost) {
        for row in paper::block(block) {
            assert_eq!(row.of(cost), row.value, "{row:?}");
        }
    }

    #[test]
    fn single_packet_matches_table1() {
        let c = single_packet();
        assert_paper(Block::SinglePacket, &c);
    }

    #[test]
    fn cmam_finite_16_words_matches_table3() {
        // Reconstructed finite-sequence 16-word block (see DESIGN.md §3).
        assert_paper(Block::Finite16, &cmam_finite(shape(16)));
    }

    #[test]
    fn cmam_finite_1024_words_matches_table2_and_3() {
        assert_paper(Block::Finite1024, &cmam_finite(shape(1024)));
    }

    #[test]
    fn cmam_indefinite_16_words_matches_table2() {
        let s = shape(16);
        assert_paper(Block::Indefinite16, &cmam_indefinite(s, IndefiniteOpts::paper(s)));
    }

    #[test]
    fn cmam_indefinite_1024_words_matches_table2_and_3() {
        let s = shape(1024);
        assert_paper(Block::Indefinite1024, &cmam_indefinite(s, IndefiniteOpts::paper(s)));
    }

    #[test]
    fn indefinite_overhead_fraction_is_seventy_percent() {
        // §3.2: "in-order delivery and fault-tolerance functionality
        // accounts for ~70% of the end-to-end costs, and this fraction is
        // independent of the total volume of data transmitted."
        for words in [16, 64, 256, 1024, 4096] {
            let s = shape(words);
            let c = cmam_indefinite(s, IndefiniteOpts::paper(s));
            let frac = c.overhead_fraction();
            assert!((0.65..0.75).contains(&frac), "words={words} frac={frac}");
        }
    }

    #[test]
    fn group_acks_keep_overhead_significant() {
        // §3.2: "the overhead remains significant (~40–50%) even if group
        // acknowledgements are employed."
        let s = shape(1024);
        let c = cmam_indefinite(s, IndefiniteOpts { ack_period: 16, ..IndefiniteOpts::paper(s) });
        let frac = c.overhead_fraction();
        assert!(frac > 0.40, "group-ack overhead fraction {frac}");
        assert!(frac < c
            .overhead_fraction()
            .max(cmam_indefinite(s, IndefiniteOpts::paper(s)).overhead_fraction()));
    }

    #[test]
    fn hl_indefinite_matches_figure6() {
        // Figure 6 right: the HL bars equal the CMAM base costs exactly.
        for words in [16, 1024] {
            let s = shape(words);
            let hl = hl_indefinite(s);
            let cmam = cmam_indefinite(s, IndefiniteOpts::paper(s));
            assert_eq!(
                hl.get(Endpoint::Source, Feature::Base),
                cmam.get(Endpoint::Source, Feature::Base)
            );
            assert_eq!(
                hl.get(Endpoint::Destination, Feature::Base),
                cmam.get(Endpoint::Destination, Feature::Base)
            );
            assert_eq!(hl.overhead_total(), 0);
        }
        assert_paper(Block::HlIndefinite16, &hl_indefinite(shape(16)));
        assert_paper(Block::HlIndefinite1024, &hl_indefinite(shape(1024)));
    }

    #[test]
    fn hl_finite_is_base_cost_with_trivial_buffer_mgmt() {
        for words in [16, 1024] {
            let s = shape(words);
            let hl = hl_finite(s);
            let cmam = cmam_finite(s);
            // Source side identical; destination slightly cheaper (§4.1).
            assert_eq!(
                hl.get(Endpoint::Source, Feature::Base),
                cmam.get(Endpoint::Source, Feature::Base)
            );
            assert!(
                hl.endpoint_total(Endpoint::Destination)
                    < cmam.get(Endpoint::Destination, Feature::Base).total() + 1
            );
            assert_eq!(hl.feature_total(Feature::InOrder), 0);
            assert_eq!(hl.feature_total(Feature::FaultTol), 0);
            assert_eq!(hl.feature_total(Feature::BufferMgmt), 8);
        }
    }

    #[test]
    fn hl_reduces_indefinite_cost_by_seventy_percent() {
        // §4.1: "the higher-level network features reduce the software
        // costs in the messaging layer by ~70%."
        for words in [16, 1024] {
            let s = shape(words);
            let cmam = cmam_indefinite(s, IndefiniteOpts::paper(s)).total() as f64;
            let hl = hl_indefinite(s).total() as f64;
            let reduction = 1.0 - hl / cmam;
            assert!((0.65..0.75).contains(&reduction), "reduction {reduction}");
        }
    }

    #[test]
    fn finite_overhead_stays_9_to_13_percent_across_packet_sizes() {
        // Figure 8 right, finite-sequence curve for a 1024-word message.
        for n in [4u64, 8, 16, 32, 64, 128] {
            let s = MsgShape::for_message(1024, n).unwrap();
            let frac = cmam_finite(s).overhead_fraction();
            assert!((0.08..0.14).contains(&frac), "n={n} frac={frac}");
        }
    }

    #[test]
    fn indefinite_overhead_remains_significant_across_packet_sizes() {
        // Figure 8 right, indefinite-sequence curve: overhead remains
        // significant over the whole 4–128-word packet range.
        let mut prev = f64::INFINITY;
        for n in [4u64, 8, 16, 32, 64, 128] {
            let s = MsgShape::for_message(1024, n).unwrap();
            let frac = cmam_indefinite(s, IndefiniteOpts::paper(s)).overhead_fraction();
            assert!(frac > 0.5, "n={n} frac={frac}");
            assert!(frac <= prev, "overhead fraction should fall monotonically");
            prev = frac;
        }
    }

    #[test]
    fn protocol_cost_projections_are_consistent() {
        let s = shape(64);
        let c = cmam_finite(s);
        let by_feature: u64 = Feature::ALL.iter().map(|f| c.feature_total(*f)).sum();
        let by_endpoint: u64 = Endpoint::ALL.iter().map(|e| c.endpoint_total(*e)).sum();
        assert_eq!(by_feature, c.total());
        assert_eq!(by_endpoint, c.total());
        assert_eq!(c.overhead_total() + c.feature_total(Feature::Base), c.total());
    }
}
