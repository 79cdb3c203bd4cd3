//! Segment reuse: amortizing the preallocation handshake.
//!
//! Table 2 shows buffer management costing 148 instructions per
//! transfer — half the total for a 16-word message. A natural protocol
//! optimization (implicit in the paper's discussion of where the
//! handshake hurts) is to keep the communication segment alive across a
//! *batch* of transfers to the same destination: one request/reply
//! handshake and one disassociation serve `k` messages, each of which
//! still pays its own data movement, offsets, and end-to-end
//! acknowledgement.

use timego_cost::{Feature, Fine};
use timego_netsim::NodeId;

use crate::costs::{segment, xfer_order, xfer_recv, xfer_send};
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::transfer_prologue;
use crate::xfer::{send_ctl_retrying, XferOutcome, XferRx};

impl Machine {
    /// Transfer every message in `messages` from `src` to `dst` through
    /// a single communication segment: the buffer-management handshake
    /// and the segment disassociation are paid once for the whole
    /// batch; each message still pays base data movement, in-order
    /// offsets and its completion acknowledgement.
    ///
    /// Returns one [`XferOutcome`] per message; the destination buffers
    /// are consecutive sub-ranges of the shared segment.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for equal or out-of-range
    /// endpoints, or if the batch or any message is empty; otherwise as
    /// [`Machine::xfer`].
    pub fn xfer_batch(
        &mut self,
        src: NodeId,
        dst: NodeId,
        messages: &[&[u32]],
    ) -> Result<Vec<XferOutcome>, ProtocolError> {
        self.check_endpoints(src, dst)?;
        if messages.is_empty() {
            return Err(ProtocolError::BadTransfer("empty batch".into()));
        }
        if messages.iter().any(|m| m.is_empty()) {
            return Err(ProtocolError::BadTransfer("empty message in batch".into()));
        }
        let n = self.cfg.packet_words;
        let max_wait = self.cfg.max_wait_cycles;
        // Segment words: each message occupies a whole number of
        // packets so padded final packets stay in bounds.
        let spans: Vec<usize> = messages.iter().map(|m| m.len().div_ceil(n) * n).collect();
        let total_words: usize = spans.iter().sum();

        // One handshake for the whole batch.
        let (segment_id, segment) = self.xfer_handshake(src, dst, total_words)?;

        let mut outcomes = Vec::with_capacity(messages.len());
        let mut seg_offset = 0usize;
        for (data, span) in messages.iter().zip(&spans) {
            let packets = (data.len() as u64).div_ceil(n as u64);
            let src_buf = self.write_buffer(src, data);
            let mut rx = XferRx {
                buffer: segment,
                packets_expected: packets,
                packets_received: 0,
            };
            let mut send_retries = 0;

            // Per-message prologue/entry, exactly as in a lone transfer.
            transfer_prologue(self, src, dst);

            for k in 0..packets {
                // Offsets are absolute within the shared segment but the
                // source buffer is per message.
                let msg_offset = k * n as u64;
                let mut waited = 0;
                loop {
                    let accepted = self.send_batch_packet(
                        src,
                        dst,
                        src_buf,
                        msg_offset,
                        seg_offset as u64 + msg_offset,
                        n,
                    );
                    if accepted {
                        break;
                    }
                    send_retries += 1;
                    self.drain_data_packets(dst, n, &mut rx);
                    self.advance(1);
                    waited += 1;
                    if waited > max_wait {
                        return Err(ProtocolError::timeout("batched xfer data injection", waited));
                    }
                }
            }

            let mut waited = 0;
            while rx.packets_received < rx.packets_expected {
                let before = rx.packets_received;
                self.drain_data_packets(dst, n, &mut rx);
                if rx.packets_received == before {
                    self.advance(1);
                    waited += 1;
                    if waited > max_wait {
                        return Err(ProtocolError::timeout("batched xfer data packets", waited));
                    }
                }
            }

            // Per-message epilogue: final count check + state writeback
            // + end-to-end acknowledgement. No disassociation yet.
            {
                let node = self.node_mut(dst);
                node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                    cpu.reg(Fine::RegOp, xfer_order::DST_FINAL);
                });
                node.cpu.mem_store(xfer_recv::EXIT_STATE_MEM);
                node.cpu.clone().with_feature(Feature::FaultTol, |_| {
                    send_ctl_retrying(node, src, Tags::XFER_ACK, segment_id, [0; 4], max_wait)
                })?;
            }
            {
                let node = self.node_mut(src);
                node.cpu.clone().with_feature(Feature::FaultTol, |_| -> Result<_, ProtocolError> {
                    node.wait_rx(max_wait, "batched xfer acknowledgement")?;
                    let (_, tag, _, _) = node.recv_ctl().expect("wait_rx saw a packet");
                    if tag != Tags::XFER_ACK {
                        return Err(ProtocolError::UnexpectedPacket { tag });
                    }
                    Ok(())
                })?;
            }

            outcomes.push(XferOutcome {
                dst_buffer: segment.offset(seg_offset),
                packets,
                segment_id,
                send_retries,
            });
            seg_offset += span;
        }

        // One disassociation for the whole batch (buffer management).
        {
            let node = self.node_mut(dst);
            node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                cpu.reg(Fine::RegOp, segment::DISASSOCIATE_REG);
                cpu.mem_store(segment::DISASSOCIATE_MEM);
            });
        }

        Ok(outcomes)
    }

    /// A data-packet send whose header offset (into the shared segment)
    /// differs from its source-buffer offset.
    fn send_batch_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        buf: timego_ni::Addr,
        msg_offset: u64,
        seg_offset: u64,
        n: usize,
    ) -> bool {
        let node = self.node_mut(src);
        node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
            cpu.reg(Fine::RegOp, xfer_order::SRC_PER_PACKET);
        });
        node.cpu.ctrl(xfer_send::LOOP_CTRL);
        node.cpu.reg(Fine::RegOp, xfer_send::PTR_ADVANCE);
        node.cpu.reg(Fine::NiSetup, xfer_send::SETUP_REG);
        node.ni.stage_envelope(dst, Tags::XFER_DATA, seg_offset as u32);
        for d in 0..(n / 2) {
            let (w0, w1) = node.mem.load2(buf.offset(msg_offset as usize + 2 * d));
            node.ni.push_payload2(w0, w1);
        }
        node.cpu.reg(Fine::CheckStatus, xfer_send::STATUS_REG);
        node.ni.commit_send() && {
            node.ni.load_send_status();
            true
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use timego_cost::Feature;
    use timego_netsim::{DeliveryScript, ScriptedNetwork};
    use timego_ni::share;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn machine() -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, DeliveryScript::InOrder)),
            2,
            CmamConfig::default(),
        )
    }

    #[test]
    fn batch_transfers_every_message_intact() {
        let mut m = machine();
        let a: Vec<u32> = (0..16).collect();
        let b: Vec<u32> = (100..150).collect();
        let c: Vec<u32> = (7..20).collect();
        let outs = m.xfer_batch(n(0), n(1), &[&a, &b, &c]).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(m.read_buffer(n(1), outs[0].dst_buffer, a.len()), a);
        assert_eq!(m.read_buffer(n(1), outs[1].dst_buffer, b.len()), b);
        assert_eq!(m.read_buffer(n(1), outs[2].dst_buffer, c.len()), c);
        assert!(outs.iter().all(|o| o.segment_id == outs[0].segment_id));
    }

    #[test]
    fn batching_amortizes_buffer_management_exactly() {
        const K: usize = 8;
        let msg: Vec<u32> = (0..16).collect();

        // K separate transfers.
        let mut separate = machine();
        separate.reset_costs();
        for _ in 0..K {
            separate.xfer(n(0), n(1), &msg).unwrap();
        }
        let sep_total = separate.cpu(n(0)).snapshot().total() + separate.cpu(n(1)).snapshot().total();
        let sep_bm = separate.cpu(n(0)).snapshot().feature_total(Feature::BufferMgmt)
            + separate.cpu(n(1)).snapshot().feature_total(Feature::BufferMgmt);

        // One batch of K.
        let mut batched = machine();
        batched.reset_costs();
        let messages: Vec<&[u32]> = (0..K).map(|_| msg.as_slice()).collect();
        batched.xfer_batch(n(0), n(1), &messages).unwrap();
        let bat_total = batched.cpu(n(0)).snapshot().total() + batched.cpu(n(1)).snapshot().total();
        let bat_bm = batched.cpu(n(0)).snapshot().feature_total(Feature::BufferMgmt)
            + batched.cpu(n(1)).snapshot().feature_total(Feature::BufferMgmt);

        // Buffer management: K × 148 vs one 148.
        assert_eq!(sep_bm, (K as u64) * 148);
        assert_eq!(bat_bm, 148);
        // Everything else is identical, so the whole saving is (K-1)×148.
        assert_eq!(sep_total - bat_total, (K as u64 - 1) * 148);
    }

    #[test]
    fn empty_batch_and_empty_message_are_rejected() {
        let mut m = machine();
        assert!(matches!(
            m.xfer_batch(n(0), n(1), &[]),
            Err(ProtocolError::BadTransfer(_))
        ));
        let a: Vec<u32> = vec![1];
        assert!(matches!(
            m.xfer_batch(n(0), n(1), &[&a, &[]]),
            Err(ProtocolError::BadTransfer(_))
        ));
    }

    #[test]
    fn batch_of_one_costs_one_transfer() {
        let msg: Vec<u32> = (0..64).collect();
        let mut single = machine();
        single.reset_costs();
        single.xfer(n(0), n(1), &msg).unwrap();
        let single_total = single.cpu(n(0)).snapshot().total() + single.cpu(n(1)).snapshot().total();

        let mut batch = machine();
        batch.reset_costs();
        batch.xfer_batch(n(0), n(1), &[&msg]).unwrap();
        let batch_total = batch.cpu(n(0)).snapshot().total() + batch.cpu(n(1)).snapshot().total();
        assert_eq!(single_total, batch_total);
    }
}
