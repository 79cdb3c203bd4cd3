//! DMA-assisted transfers — the "improved network interfaces and DMA
//! hardware" discussion of the paper's §5.
//!
//! With a DMA engine the source CPU stores one descriptor per packet
//! instead of touching every payload word, shrinking the *base* cost.
//! The paper's point is the paradox that follows: the protocol overheads
//! (buffer management, in-order delivery, fault tolerance) are untouched
//! by DMA, so their *relative* weight grows — "reductions in the basic
//! cost will increase the importance of reducing software protocol
//! overhead."

use timego_cost::analytic::{cmam_finite, MsgShape, ProtocolCost};
use timego_cost::{Endpoint, Feature, FeatureCost};
use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
use timego_ni::share;

use crate::error::ProtocolError;
use crate::machine::{CmamConfig, Machine};
use crate::measure;
use crate::xfer::{PayloadEngine, XferOutcome};

impl Machine {
    /// Run the finite-sequence transfer protocol with DMA payload
    /// injection at the source (see [`Machine::xfer`] for the protocol
    /// itself; only the per-packet data movement differs).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::xfer`].
    pub fn xfer_dma(&mut self, src: NodeId, dst: NodeId, data: &[u32]) -> Result<XferOutcome, ProtocolError> {
        self.xfer_with(src, dst, data, PayloadEngine::Dma)
    }
}

/// The closed-form cost of a DMA-assisted finite-sequence transfer:
/// identical to [`cmam_finite`] except the source base cost, which
/// drops to `8 reg + 4 dev` per packet (envelope, descriptor, commit
/// and status accesses) with no per-word instructions — independent of
/// the packet size `n`.
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

/// Measure a DMA-assisted finite-sequence transfer under the paper's
/// conditions, verifying delivery.
///
/// # Panics
///
/// Panics if the transfer fails or delivers wrong data.
pub fn measure_xfer_dma(words: usize, packet_words: usize) -> (ProtocolCost, XferOutcome) {
    let mut m = Machine::new(
        share(ScriptedNetwork::new(2, DeliveryScript::InOrder)),
        2,
        CmamConfig { packet_words, ..CmamConfig::default() },
    );
    let data: Vec<u32> = (0..words as u32).map(|i| i.rotate_left(7) ^ 0xD1A) .collect();
    m.reset_costs();
    let outcome = m
        .xfer_dma(NodeId::new(0), NodeId::new(1), &data)
        .expect("transfer completes");
    assert_eq!(
        m.read_buffer(NodeId::new(1), outcome.dst_buffer, words),
        data,
        "transferred data must match"
    );
    (
        measure::to_protocol_cost(
            &m.cpu(NodeId::new(0)).snapshot(),
            &m.cpu(NodeId::new(1)).snapshot(),
        ),
        outcome,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_transfer_delivers_correct_data() {
        let (_, out) = measure_xfer_dma(1000, 4);
        assert_eq!(out.packets, 250);
    }

    #[test]
    fn dma_matches_its_closed_form() {
        for (words, n) in [(16u64, 4usize), (1024, 4), (1024, 32)] {
            let (measured, _) = measure_xfer_dma(words as usize, n);
            let model = cmam_finite_dma(MsgShape::for_message(words, n as u64).unwrap());
            assert_eq!(measured, model, "words={words} n={n}");
        }
    }

    #[test]
    fn dma_cuts_base_cost_but_not_overhead() {
        let (pio, _) = measure::measure_xfer(1024, 4);
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
        let (pio, _) = measure::measure_xfer(256, 4);
        let (dma, _) = measure_xfer_dma(256, 4);
        assert_eq!(
            dma.endpoint_total(Endpoint::Destination),
            pio.endpoint_total(Endpoint::Destination)
        );
    }
}
