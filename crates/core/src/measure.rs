//! Measurement harness: run a protocol under the paper's controlled
//! assumptions and return its costs in Table 2/3 form.
//!
//! These helpers reproduce the paper's measurement conditions exactly:
//! two otherwise-idle nodes, an instant loss-free substrate, in-order
//! delivery for the finite-sequence protocol, and the alternate-swap
//! delivery order (exactly half the packets out of order) for the
//! indefinite-sequence protocol. Every helper also verifies that the
//! data actually arrived intact — the costs come from real executions.

use timego_cost::analytic::ProtocolCost;
use timego_cost::{Endpoint, Feature};
use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
use timego_ni::share;

use crate::machine::{CmamConfig, Machine};
use crate::stream::{StreamConfig, StreamOutcome};
use crate::xfer::{PayloadEngine, XferOutcome};

/// The [`ProtocolCost`] table node 0 (the source) and node 1 (the
/// destination) have recorded.
pub(crate) fn pair_cost(m: &Machine) -> ProtocolCost {
    let (src, dst) = (m.cpu(NodeId::new(0)).snapshot(), m.cpu(NodeId::new(1)).snapshot());
    let mut c = ProtocolCost::new();
    for f in Feature::ALL {
        c.set(Endpoint::Source, f, src.feature(f));
        c.set(Endpoint::Destination, f, dst.feature(f));
    }
    c
}

fn fresh_machine(script: DeliveryScript, packet_words: usize) -> Machine {
    Machine::new(
        share(ScriptedNetwork::new(2, script)),
        2,
        CmamConfig {
            packet_words,
            ..CmamConfig::default()
        },
    )
}

fn pattern(words: usize) -> Vec<u32> {
    (0..words as u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5bd1) .collect()
}

/// Measure single-packet delivery (Table 1): one `CMAM_4` active
/// message between two nodes.
///
/// # Panics
///
/// Panics if the protocol misbehaves (it cannot on the instant
/// substrate).
pub fn measure_single_packet() -> ProtocolCost {
    let mut m = fresh_machine(DeliveryScript::InOrder, 4);
    m.reset_costs();
    m.am4_send(NodeId::new(0), NodeId::new(1), crate::machine::Tags::USER_BASE, [1, 2, 3, 4])
        .expect("instant substrate accepts");
    // No handler registered: the poll pays exactly the 27-instruction
    // reception path and hands the message back.
    let out = m.poll(NodeId::new(1));
    assert!(out.received(), "message must be waiting");
    pair_cost(&m)
}

/// Measure the CMAM finite-sequence protocol for a `words`-word message
/// with `packet_words`-word packets, verifying delivery.
///
/// # Panics
///
/// Panics if the transfer fails or delivers wrong data.
pub fn measure_xfer(words: usize, packet_words: usize) -> (ProtocolCost, XferOutcome) {
    measure_finite(words, packet_words, PayloadEngine::Cpu)
}

/// Measure the finite-sequence transfer with DMA payload injection at
/// the source (§5: only the per-packet data movement differs) like
/// [`measure_xfer`].
///
/// # Panics
///
/// Panics if the transfer fails or delivers wrong data.
pub fn measure_xfer_dma(words: usize, packet_words: usize) -> (ProtocolCost, XferOutcome) {
    measure_finite(words, packet_words, PayloadEngine::Dma)
}

fn measure_finite(
    words: usize,
    packet_words: usize,
    engine: PayloadEngine,
) -> (ProtocolCost, XferOutcome) {
    let mut m = fresh_machine(DeliveryScript::InOrder, packet_words);
    let data = pattern(words);
    m.reset_costs();
    let outcome = m
        .xfer_with(NodeId::new(0), NodeId::new(1), &data, engine)
        .expect("transfer completes");
    assert_eq!(
        m.read_buffer(NodeId::new(1), outcome.dst_buffer, words),
        data,
        "transferred data must match"
    );
    (
        pair_cost(&m),
        outcome,
    )
}

/// Measure the CMAM indefinite-sequence protocol under the paper's
/// assumptions (half the packets out of order) with acknowledgements
/// every `ack_period` packets (1 = the paper's per-packet default).
///
/// # Panics
///
/// Panics if the stream fails or delivers wrong data.
pub fn measure_stream(words: usize, packet_words: usize, ack_period: u64) -> (ProtocolCost, StreamOutcome) {
    let mut m = fresh_machine(DeliveryScript::AlternateSwap, packet_words);
    let data = pattern(words);
    let id = m.open_stream(
        NodeId::new(0),
        NodeId::new(1),
        StreamConfig {
            ack_period,
            ..StreamConfig::default()
        },
    );
    m.reset_costs();
    let outcome = m.stream_send(id, &data).expect("stream completes");
    assert_eq!(m.stream_received(id), data, "streamed data must arrive in order");
    (
        pair_cost(&m),
        outcome,
    )
}

/// Measure the finite-sequence protocol on a high-level network
/// (Figure 5 / Figure 6 left).
///
/// # Panics
///
/// Panics if the transfer fails or delivers wrong data.
pub fn measure_hl_xfer(words: usize, packet_words: usize) -> (ProtocolCost, XferOutcome) {
    let mut m = fresh_machine(DeliveryScript::InOrder, packet_words);
    let data = pattern(words);
    m.reset_costs();
    let outcome = m.hl_xfer(NodeId::new(0), NodeId::new(1), &data).expect("transfer completes");
    assert_eq!(
        m.read_buffer(NodeId::new(1), outcome.dst_buffer, words),
        data,
        "transferred data must match"
    );
    (
        pair_cost(&m),
        outcome,
    )
}

/// Measure the indefinite-sequence protocol on a high-level network
/// (Figure 7 / Figure 6 right).
///
/// # Panics
///
/// Panics if the stream fails or delivers wrong data.
pub fn measure_hl_stream(words: usize, packet_words: usize) -> ProtocolCost {
    let mut m = fresh_machine(DeliveryScript::InOrder, packet_words);
    let data = pattern(words);
    m.reset_costs();
    let got = m
        .hl_stream_send(NodeId::new(0), NodeId::new(1), &data)
        .expect("stream completes");
    assert_eq!(got, data, "streamed data must arrive in order");
    pair_cost(&m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timego_cost::analytic::{self, IndefiniteOpts, MsgShape};

    #[test]
    fn single_packet_measurement_matches_model() {
        assert_eq!(measure_single_packet(), analytic::single_packet());
    }

    #[test]
    fn xfer_measurement_matches_model_across_sizes() {
        for words in [16u64, 64, 256, 1024] {
            let (measured, _) = measure_xfer(words as usize, 4);
            let model = analytic::cmam_finite(MsgShape::paper(words).unwrap());
            assert_eq!(measured, model, "xfer mismatch at {words} words");
        }
    }

    #[test]
    fn xfer_measurement_matches_model_across_packet_sizes() {
        for n in [4u64, 8, 16, 32] {
            let (measured, _) = measure_xfer(1024, n as usize);
            let model = analytic::cmam_finite(MsgShape::for_message(1024, n).unwrap());
            assert_eq!(measured, model, "xfer mismatch at n={n}");
        }
    }

    #[test]
    fn stream_measurement_matches_model_across_sizes() {
        for words in [16u64, 64, 256, 1024] {
            let (measured, out) = measure_stream(words as usize, 4, 1);
            let shape = MsgShape::paper(words).unwrap();
            let model = analytic::cmam_indefinite(shape, IndefiniteOpts::paper(shape));
            assert_eq!(measured, model, "stream mismatch at {words} words");
            assert_eq!(out.out_of_order, shape.packets() / 2);
        }
    }

    #[test]
    fn stream_measurement_matches_model_across_packet_sizes() {
        for n in [4u64, 8, 16, 32] {
            let (measured, _) = measure_stream(1024, n as usize, 1);
            let shape = MsgShape::for_message(1024, n).unwrap();
            let model = analytic::cmam_indefinite(shape, IndefiniteOpts::paper(shape));
            assert_eq!(measured, model, "stream mismatch at n={n}");
        }
    }

    #[test]
    fn hl_measurements_match_models() {
        for words in [16u64, 1024] {
            let (fin, _) = measure_hl_xfer(words as usize, 4);
            assert_eq!(fin, analytic::hl_finite(MsgShape::paper(words).unwrap()));
            let ind = measure_hl_stream(words as usize, 4);
            assert_eq!(ind, analytic::hl_indefinite(MsgShape::paper(words).unwrap()));
        }
    }

    // --- DMA payload injection (§5) --------------------------------------

    #[test]
    fn dma_transfer_delivers_correct_data() {
        let (_, out) = measure_xfer_dma(1000, 4);
        assert_eq!(out.packets, 250);
    }

    #[test]
    fn dma_matches_its_closed_form() {
        for (words, n) in [(16u64, 4usize), (1024, 4), (1024, 32)] {
            let (measured, _) = measure_xfer_dma(words as usize, n);
            let shape = MsgShape::for_message(words, n as u64).unwrap();
            let model = analytic::cmam_finite_dma(shape);
            assert_eq!(measured, model, "words={words} n={n}");
        }
    }

    #[test]
    fn dma_cuts_base_cost_but_not_overhead() {
        let (pio, _) = measure_xfer(1024, 4);
        let (dma, _) = measure_xfer_dma(1024, 4);
        let (dma_base, pio_base) = (
            dma.get(Endpoint::Source, Feature::Base).total(),
            pio.get(Endpoint::Source, Feature::Base).total(),
        );
        assert!(
            dma_base * 10 < pio_base * 6,
            "DMA cuts the source base cost substantially ({dma_base} vs {pio_base})"
        );
        assert_eq!(dma.overhead_total(), pio.overhead_total(), "overheads untouched");
        // …so the overhead *fraction* grows: the paper's §5 paradox.
        assert!(dma.overhead_fraction() > pio.overhead_fraction());
    }

    #[test]
    fn dma_destination_cost_is_unchanged() {
        let (pio, _) = measure_xfer(256, 4);
        let (dma, _) = measure_xfer_dma(256, 4);
        assert_eq!(
            dma.endpoint_total(Endpoint::Destination),
            pio.endpoint_total(Endpoint::Destination)
        );
    }
}
