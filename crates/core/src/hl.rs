//! Protocols for high-level networks (§4 of the paper).
//!
//! When the routing substrate itself provides in-order delivery,
//! end-to-end flow control and packet-level fault tolerance
//! (Compressionless Routing-style — [`Guarantees::HIGH_LEVEL`]), the
//! messaging layer shrinks to bare data movement:
//!
//! * the finite-sequence transfer ([`Machine::hl_xfer`], Figure 5) needs
//!   no allocation handshake (a stuck receiver can reject headers
//!   without deadlocking the network), no offsets (order is preserved),
//!   and no end-to-end acknowledgement (delivery is reliable) — only a
//!   trivial buffer-table insertion remains;
//! * the indefinite-sequence stream ([`Machine::hl_stream_send`],
//!   Figure 7) is "implemented essentially for free on top of multiple
//!   single-packet transmissions".

use timego_cost::{Feature, Fine};
use timego_netsim::{Guarantees, NodeId};

use crate::costs::{ctl_send, hl_xfer, stream_dst, xfer_send};
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::xfer::XferOutcome;

impl Machine {
    fn require_high_level(&self) -> Result<(), ProtocolError> {
        let have = self.net.borrow().guarantees();
        if have == Guarantees::HIGH_LEVEL {
            Ok(())
        } else {
            Err(ProtocolError::MissingGuarantees { have })
        }
    }

    /// Finite-sequence transfer over a high-level network: inject the
    /// packets (first header word carries the transfer size), let the
    /// receiver allocate on header receipt and store packets as they
    /// arrive — in order, reliably, with hardware flow control.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingGuarantees`] if the substrate is not a
    /// high-level network; [`ProtocolError::BadTransfer`] for empty
    /// data or equal or out-of-range endpoints;
    /// [`ProtocolError::Timeout`] if the substrate wedges.
    pub fn hl_xfer(&mut self, src: NodeId, dst: NodeId, data: &[u32]) -> Result<XferOutcome, ProtocolError> {
        self.check_endpoints(src, dst)?;
        self.require_high_level()?;
        if data.is_empty() {
            return Err(ProtocolError::BadTransfer("empty transfer".into()));
        }
        let n = self.cfg.packet_words;
        let packets = (data.len() as u64).div_ceil(n as u64);
        let max_wait = self.cfg.max_wait_cycles;
        let src_buf = self.write_buffer(src, data);

        // Source: identical base cost to the CMAM implementation — the
        // NI is the same hardware (§4.1).
        {
            let node = self.node_mut(src);
            node.cpu.reg(Fine::CallReturn, xfer_send::PROLOGUE_REG);
            node.cpu.mem_load(xfer_send::PROLOGUE_MEM);
        }

        // Destination entry: one receive poll + the slimmer handler
        // prologue of the specialized receive path.
        {
            let node = self.node_mut(dst);
            node.cpu.reg(Fine::CallReturn, hl_xfer::ENTRY_REG);
            node.cpu.mem_load(hl_xfer::ENTRY_STATE_MEM);
            let _ = node.ni.poll_status();
        }

        let mut rx_buffer = None;
        let mut received = 0u64;
        let mut send_retries = 0u64;
        let mut sent = 0u64;
        let mut waited = 0u64;
        while received < packets {
            // Inject while the substrate accepts (hardware flow control
            // may backpressure; the held path simply stalls the source).
            while sent < packets {
                let node = self.node_mut(src);
                node.cpu.ctrl(xfer_send::LOOP_CTRL);
                node.cpu.reg(Fine::RegOp, xfer_send::PTR_ADVANCE);
                node.cpu.reg(Fine::NiSetup, xfer_send::SETUP_REG);
                // Header word: total size on the first packet (the
                // receiver allocates from it), packet index afterwards.
                let header = if sent == 0 { data.len() as u32 } else { sent as u32 };
                node.ni.stage_envelope(dst, Tags::HL_DATA, header);
                for d in 0..(n / 2) {
                    let (w0, w1) = node
                        .mem
                        .load2(src_buf.offset((sent as usize) * n + 2 * d));
                    node.ni.push_payload2(w0, w1);
                }
                node.cpu.reg(Fine::CheckStatus, xfer_send::STATUS_REG);
                if node.ni.commit_send() {
                    node.ni.load_send_status();
                    sent += 1;
                } else {
                    send_retries += 1;
                    break;
                }
            }

            // Drain arrivals.
            let mut drained = false;
            loop {
                let node = self.node_mut(dst);
                let Some((_, tag)) = node.ni.latch_rx() else {
                    break;
                };
                if tag != Tags::HL_DATA {
                    return Err(ProtocolError::UnexpectedPacket { tag });
                }
                node.cpu.reg(Fine::Handler, stream_dst::PER_PACKET_REG + 2);
                let header = node.ni.read_header();
                if received == 0 {
                    // Header packet: allocate and enter the buffer in
                    // the transfer table (all that remains of buffer
                    // management — §4.1).
                    let words = header as usize;
                    let buffer = node.mem.alloc(words.div_ceil(n) * n);
                    node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                        cpu.reg(Fine::RegOp, hl_xfer::BUFMGMT_REG);
                        cpu.mem_store(hl_xfer::BUFMGMT_MEM);
                    });
                    rx_buffer = Some(buffer);
                }
                let buffer = rx_buffer.expect("first packet allocated the buffer");
                for d in 0..(n / 2) {
                    let (w0, w1) = node.ni.read_payload2();
                    node.mem.store2(buffer.offset((received as usize) * n + 2 * d), w0, w1);
                }
                received += 1;
                drained = true;
                if received == packets {
                    break;
                }
            }

            if !drained {
                // Nothing arrived (and injection may be blocked): let
                // time pass.
                self.advance(1);
                waited += 1;
            }
            if waited > max_wait {
                return Err(ProtocolError::timeout("hl transfer completion", waited));
            }
        }

        Ok(XferOutcome {
            dst_buffer: rx_buffer.expect("at least one packet received"),
            packets,
            segment_id: 0,
            send_retries,
        })
    }

    /// Indefinite-sequence stream over a high-level network: bare
    /// single-packet transmissions — no sequence numbers, no receiver
    /// reordering, no source buffering, no acknowledgements. Returns the
    /// delivered words (the hardware guarantees they are `data`, in
    /// order).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingGuarantees`] if the substrate is not a
    /// high-level network; [`ProtocolError::BadTransfer`] for empty
    /// data or equal or out-of-range endpoints;
    /// [`ProtocolError::Timeout`] if the substrate wedges.
    pub fn hl_stream_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
    ) -> Result<Vec<u32>, ProtocolError> {
        self.check_endpoints(src, dst)?;
        self.require_high_level()?;
        if data.is_empty() {
            return Err(ProtocolError::BadTransfer("empty stream send".into()));
        }
        let n = self.cfg.packet_words;
        let packets = (data.len() as u64).div_ceil(n as u64);
        let max_wait = self.cfg.max_wait_cycles;

        // Receiver entry: one poll + handler prologue (the "+13").
        {
            let node = self.node_mut(dst);
            node.cpu.call(stream_dst::ENTRY_CALL);
            node.cpu.ctrl(stream_dst::ENTRY_CTRL);
            let _ = node.ni.poll_status();
        }

        let mut delivered = Vec::with_capacity(data.len());
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut waited = 0u64;
        while received < packets {
            while sent < packets {
                let node = self.node_mut(src);
                node.cpu.call(ctl_send::CALL);
                node.cpu.reg(Fine::NiSetup, ctl_send::SETUP_REG);
                node.cpu.mem_load(ctl_send::STATE_MEM);
                node.ni.stage_envelope(dst, Tags::HL_STREAM, sent as u32);
                let base = (sent as usize) * n;
                for d in 0..(n / 2) {
                    let w0 = data.get(base + 2 * d).copied().unwrap_or(0);
                    let w1 = data.get(base + 2 * d + 1).copied().unwrap_or(0);
                    node.ni.push_payload2(w0, w1);
                }
                node.cpu.reg(Fine::CheckStatus, ctl_send::STATUS_REG);
                node.cpu.ctrl(ctl_send::CTRL);
                if node.ni.commit_send() {
                    node.ni.load_send_status();
                    sent += 1;
                } else {
                    break;
                }
            }

            let mut drained = false;
            loop {
                let node = self.node_mut(dst);
                let Some((_, tag)) = node.ni.latch_rx() else {
                    break;
                };
                if tag != Tags::HL_STREAM {
                    return Err(ProtocolError::UnexpectedPacket { tag });
                }
                node.cpu.reg(Fine::Handler, stream_dst::PER_PACKET_REG);
                let _seq = node.ni.read_header();
                for _ in 0..(n / 2) {
                    let (w0, w1) = node.ni.read_payload2();
                    delivered.push(w0);
                    delivered.push(w1);
                }
                received += 1;
                drained = true;
                if received == packets {
                    break;
                }
            }

            if !drained {
                self.advance(1);
                waited += 1;
                if waited > max_wait {
                    return Err(ProtocolError::timeout("hl stream completion", waited));
                }
            }
        }

        delivered.truncate(data.len());
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use crate::measure::pair_cost;
    use timego_cost::analytic::{hl_finite, hl_indefinite, MsgShape};
    use timego_cost::paper::{self, Block};
    use timego_cost::Endpoint;
    use timego_netsim::{CrConfig, CrNetwork, DeliveryScript, ScriptedNetwork};
    use timego_ni::share;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn instant_hl_machine() -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, DeliveryScript::InOrder)),
            2,
            CmamConfig::default(),
        )
    }

    #[test]
    fn hl_xfer_refused_on_raw_substrate() {
        let mut m = Machine::new(
            share(ScriptedNetwork::new(2, DeliveryScript::AlternateSwap)),
            2,
            CmamConfig::default(),
        );
        let err = m.hl_xfer(n(0), n(1), &[1, 2, 3, 4]).unwrap_err();
        assert!(matches!(err, ProtocolError::MissingGuarantees { .. }));
    }

    #[test]
    fn hl_xfer_transfers_data() {
        let mut m = instant_hl_machine();
        let data: Vec<u32> = (0..100).map(|i| i ^ 0xAA).collect();
        let out = m.hl_xfer(n(0), n(1), &data).unwrap();
        assert_eq!(out.packets, 25);
        assert_eq!(m.read_buffer(n(1), out.dst_buffer, data.len()), data);
    }

    #[test]
    fn hl_xfer_matches_analytic_model() {
        for words in [16usize, 1024] {
            let mut m = instant_hl_machine();
            let data: Vec<u32> = (0..words as u32).collect();
            m.reset_costs();
            m.hl_xfer(n(0), n(1), &data).unwrap();
            let model = hl_finite(MsgShape::paper(words as u64).unwrap());
            assert_eq!(pair_cost(&m), model, "{words} words");
        }
    }

    #[test]
    fn hl_stream_matches_analytic_model_and_figure6() {
        for (words, figure6) in [(16usize, Block::HlIndefinite16), (1024, Block::HlIndefinite1024)] {
            let mut m = instant_hl_machine();
            let data: Vec<u32> = (0..words as u32).collect();
            m.reset_costs();
            let got = m.hl_stream_send(n(0), n(1), &data).unwrap();
            assert_eq!(got, data);
            let model = hl_indefinite(MsgShape::paper(words as u64).unwrap());
            let src = m.cpu(n(0)).snapshot();
            let dst = m.cpu(n(1)).snapshot();
            assert_eq!(src.total(), model.endpoint_total(Endpoint::Source));
            assert_eq!(dst.total(), model.endpoint_total(Endpoint::Destination));
            assert_eq!(src.overhead_total() + dst.overhead_total(), 0);
            for row in paper::block(figure6) {
                assert_eq!(row.of(&pair_cost(&m)), row.value, "{row:?}");
            }
        }
    }

    #[test]
    fn hl_protocols_run_on_cr_network() {
        // On the actual CR substrate (latency, bounded pair window,
        // hardware retransmission of corrupted packets) the protocols
        // still deliver correctly; costs grow only by injection retries.
        let net = CrNetwork::new(CrConfig {
            corruption_prob: 0.1,
            seed: 3,
            ..CrConfig::new(2)
        });
        let mut m = Machine::new(share(net), 2, CmamConfig::default());
        let data: Vec<u32> = (0..256).map(|i| i * 13).collect();
        let out = m.hl_xfer(n(0), n(1), &data).unwrap();
        assert_eq!(m.read_buffer(n(1), out.dst_buffer, data.len()), data);

        let got = m.hl_stream_send(n(0), n(1), &data).unwrap();
        assert_eq!(got, data);
    }
}
