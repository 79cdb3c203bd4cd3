//! The CMAM finite-sequence, multi-packet protocol (`CMAM_xfer`).
//!
//! Six steps (Figure 3 of the paper):
//!
//! 1. the sender sends an allocation **request**;
//! 2. the receiver **allocates a communication segment**;
//! 3. the receiver **replies** with the segment id;
//! 4. the sender streams **data packets**, each carrying a target-buffer
//!    offset in its header word (this is how in-order placement is
//!    achieved without sequence numbers);
//! 5. on completion the receiver **frees the segment**;
//! 6. the receiver sends an end-to-end **acknowledgement**.
//!
//! Feature attribution follows the paper: steps 1–3 and 5 are buffer
//! management, the offsets and the expected-count bookkeeping are
//! in-order delivery, step 6 is fault tolerance, and everything else is
//! base data movement.
//!
//! Two variants for the paper's discussion sections run the same six
//! steps: DMA payload injection
//! ([`measure_xfer_dma`](crate::measure_xfer_dma), §5), and segment
//! reuse ([`Machine::xfer_batch`]), where one handshake and one
//! disassociation serve a whole batch of messages to the same
//! destination — a plain transfer is a batch of one.

use timego_cost::{Feature, Fine};
use timego_netsim::{NodeId, RxMeta};
use timego_ni::Addr;

use crate::costs::{segment, xfer_order, xfer_recv, xfer_send};
use crate::engine::OpOutcome;
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::{
    check_restart, pairwise, peek_is, transfer_prologue, win, GcExempt, KeyClass, Op, OpMachine,
    Stepped,
};

/// Result of a completed finite-sequence transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XferOutcome {
    /// Destination buffer holding the transferred words.
    pub dst_buffer: Addr,
    /// Data packets transmitted.
    pub packets: u64,
    /// Segment id the receiver allocated for this transfer.
    pub segment_id: u32,
    /// Data-packet injections refused with backpressure and re-issued.
    pub send_retries: u64,
}

/// How the source CPU moves payload words into the NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadEngine {
    /// Programmed I/O: the CPU loads from memory and stores to the NI
    /// FIFO (the CM-5 way; `n/2` mem + `n/2` dev per packet).
    Cpu,
    /// A DMA engine fetches payload directly from memory after the CPU
    /// stores one descriptor (§5's "improved network interfaces and DMA
    /// hardware" discussion).
    Dma,
}

/// Incremental receive state for an in-progress transfer, so the
/// destination can drain packets while the source is still blocked on
/// injection (required on finite-buffer substrates).
pub(crate) struct XferRx {
    pub(crate) buffer: Addr,
    pub(crate) packets_expected: u64,
    pub(crate) packets_received: u64,
}

impl Machine {
    /// Run a complete finite-sequence transfer of `data` from `src`
    /// memory to a freshly allocated segment on `dst`, over whatever
    /// substrate the machine uses.
    ///
    /// The returned [`XferOutcome::dst_buffer`] can be checked with
    /// [`Machine::read_buffer`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for empty data or equal or
    /// out-of-range endpoints;
    /// [`ProtocolError::Timeout`] if a protocol phase starves (e.g. a
    /// packet was corrupted and dropped by a detect-only network — this
    /// protocol has no per-packet retransmission, so like the paper's
    /// CM-5 the transfer simply fails);
    /// [`ProtocolError::UnexpectedPacket`] if a foreign packet intrudes
    /// on the handshake.
    pub fn xfer(&mut self, src: NodeId, dst: NodeId, data: &[u32]) -> Result<XferOutcome, ProtocolError> {
        self.run(Op::xfer(src, dst, data)).map(|(out, _)| out)
    }

    /// [`Machine::xfer`] with the payload moved by `engine` (DMA
    /// injection at the source differs only in per-packet data
    /// movement).
    pub(crate) fn xfer_with(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        engine: PayloadEngine,
    ) -> Result<XferOutcome, ProtocolError> {
        self.run(Op::finite(src, dst, data, engine)).map(|(out, _)| out)
    }

    /// Transfer every message in `messages` from `src` to `dst` through
    /// a single communication segment: the buffer-management handshake
    /// and the segment disassociation are paid once for the whole
    /// batch; each message still pays base data movement, in-order
    /// offsets and its completion acknowledgement. A batch of one costs
    /// exactly one [`Machine::xfer`].
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
        self.run(Op::batch(src, dst, messages)).map(|(outs, _)| outs)
    }

    /// Send one data packet of the transfer: move `n` words from the
    /// source buffer into the NI (by programmed I/O or DMA), stage them
    /// with the target offset in the header word, and commit. Returns
    /// `false` on backpressure (nothing delivered; caller re-issues and
    /// the costs are paid again, as on the real machine).
    ///
    /// `hdr_tag` is OR-ed into the header's high bits; the reliable
    /// variant uses it to stamp a per-transfer nonce so stale duplicates
    /// from an earlier transfer are recognizable (plain `xfer` passes 0).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_data_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        buf: Addr,
        offset: u64,
        n: usize,
        engine: PayloadEngine,
        hdr_tag: u32,
    ) -> bool {
        let node = self.node_mut(src);
        // In-order delivery: increment and stage the buffer offset. When
        // the caller already runs in a fault-tolerance scope (a selective
        // retransmission), the bookkeeping is recovery work and stays
        // attributed there.
        if node.cpu.current_feature() == Feature::FaultTol {
            node.cpu.reg(Fine::RegOp, xfer_order::SRC_PER_PACKET);
        } else {
            node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, xfer_order::SRC_PER_PACKET);
            });
        }
        match engine {
            PayloadEngine::Cpu => {
                node.cpu.ctrl(xfer_send::LOOP_CTRL);
                node.cpu.reg(Fine::RegOp, xfer_send::PTR_ADVANCE);
                node.cpu.reg(Fine::NiSetup, xfer_send::SETUP_REG);
                node.ni.stage_envelope(dst, Tags::XFER_DATA, hdr_tag | offset as u32);
                for d in 0..(n / 2) {
                    let (w0, w1) = node.mem.load2(buf.offset(offset as usize + 2 * d));
                    node.ni.push_payload2(w0, w1);
                }
                node.cpu.reg(Fine::CheckStatus, xfer_send::STATUS_REG);
            }
            PayloadEngine::Dma => {
                // The CPU only builds a descriptor: tighter loop (2
                // control + 2 pointer + 2 setup + 2 status registers),
                // one envelope store, one descriptor store, and no
                // per-word loads or stores at all.
                node.cpu.ctrl(2);
                node.cpu.reg(Fine::RegOp, 2);
                node.cpu.reg(Fine::NiSetup, 2);
                node.ni.stage_envelope(dst, Tags::XFER_DATA, hdr_tag | offset as u32);
                node.ni.dma_stage_payload(&node.mem, buf.offset(offset as usize), n);
                node.cpu.reg(Fine::CheckStatus, 2);
            }
        }
        node.ni.commit_send() && {
            node.ni.load_send_status();
            true
        }
    }

    /// Receive exactly one data packet of the transfer, storing its
    /// payload at the carried offset. Returns `false` (after the
    /// discovery latch) when nothing is waiting.
    fn recv_one_data_packet(&mut self, dst: NodeId, n: usize, rx: &mut XferRx) -> bool {
        let node = self.node_mut(dst);
        let Some((_, tag)) = node.ni.latch_rx() else {
            return false;
        };
        debug_assert_eq!(tag, Tags::XFER_DATA, "only data packets in flight during step 4");
        node.cpu.reg(Fine::Handler, xfer_recv::PER_PACKET_REG);
        let offset = node.ni.read_header();
        // In-order delivery: extract the offset and decrement the
        // (register-cached) expected-packet count.
        node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
            cpu.reg(Fine::RegOp, xfer_order::DST_PER_PACKET);
        });
        for d in 0..(n / 2) {
            let (w0, w1) = node.ni.read_payload2();
            node.mem.store2(rx.buffer.offset(offset as usize + 2 * d), w0, w1);
        }
        rx.packets_received += 1;
        true
    }
}

/// Every tag of the finite-transfer protocols, plain and reliable.
const XFER_TAGS: [u8; 6] = [
    Tags::XFER_REQ,
    Tags::XFER_REPLY,
    Tags::XFER_DATA,
    Tags::XFER_ACK,
    Tags::XFER_NACK,
    Tags::XFER_PROBE,
];

/// The claim of a finite transfer (plain or reliable) between `src` and
/// `dst`: any transfer-protocol packet at either endpoint from the
/// other.
pub(crate) fn claims_transfer(node: NodeId, meta: &RxMeta, src: NodeId, dst: NodeId) -> bool {
    pairwise(node, meta.src, src, dst) && XFER_TAGS.contains(&meta.tag)
}

enum XferPhase {
    Handshake,
    Transfer,
    SendAck,
    AwaitAck,
}

/// The six steps of `CMAM_xfer` as an engine operation, over one or
/// more messages sharing a segment: one handshake sized for them all,
/// then per message the data phase and its acknowledgement, with the
/// segment freed after the last.
pub(crate) struct XferOp {
    src: NodeId,
    dst: NodeId,
    /// The messages, back to back.
    data: Vec<u32>,
    /// Each message's length; empty for a plain transfer, whose one
    /// message is all of `data`.
    lens: Vec<usize>,
    engine: PayloadEngine,
    n: usize,
    phase: XferPhase,
    src_buf: Addr,
    req_sent: bool,
    reply_sent: bool,
    segment: Option<(u32, Addr)>,
    // The message in flight: its index, its segment offset in words,
    // and its data packets.
    msg: usize,
    base: u64,
    packets: u64,
    rx: XferRx,
    next_packet: u64,
    send_retries: u64,
    // Outcomes of a batch's finished messages.
    done: Vec<XferOutcome>,
    waited: u64,
    stalled: bool,
    // Endpoint restart counters at start; see `check_restart`.
    peer_restarts: (u32, u32),
}

impl XferOp {
    pub(crate) fn new(
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        lens: Vec<usize>,
        engine: PayloadEngine,
        n: usize,
    ) -> Self {
        let packets = (lens.first().copied().unwrap_or(data.len()) as u64).div_ceil(n as u64);
        XferOp {
            src,
            dst,
            data,
            lens,
            engine,
            n,
            phase: XferPhase::Handshake,
            src_buf: Addr(0),
            req_sent: false,
            reply_sent: false,
            segment: None,
            msg: 0,
            base: 0,
            packets,
            rx: XferRx {
                buffer: Addr(0),
                packets_expected: packets,
                packets_received: 0,
            },
            next_packet: 0,
            send_retries: 0,
            done: Vec::new(),
            waited: 0,
            stalled: false,
            peer_restarts: (0, 0),
        }
    }

    fn messages(&self) -> usize {
        self.lens.len().max(1)
    }

    fn len_of(&self, msg: usize) -> usize {
        self.lens.get(msg).copied().unwrap_or(self.data.len())
    }

    /// Words of segment the messages occupy: each starts on a packet
    /// boundary, so all but the last are rounded up to whole packets.
    fn segment_words(&self) -> usize {
        let (n, last) = (self.n, self.messages() - 1);
        let spans: usize = (0..last).map(|i| self.len_of(i).div_ceil(n) * n).sum();
        spans + self.len_of(last)
    }
}

impl OpMachine for XferOp {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)> {
        Some((KeyClass::Xfer, self.src, self.dst))
    }

    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        claims_transfer(node, meta, self.src, self.dst)
    }

    fn gc_exempt(&self, _parked: bool) -> Option<GcExempt> {
        Some(GcExempt::Session(self.dst, self.src))
    }

    /// Never reached: submission rejects a recovery policy on a plain
    /// transfer, whose packets carry no epoch to tell a re-execution's
    /// from the dead run's.
    fn reset(&mut self) {
        let (data, lens) = (std::mem::take(&mut self.data), std::mem::take(&mut self.lens));
        *self = XferOp::new(self.src, self.dst, data, lens, self.engine, self.n);
    }

    fn start(&mut self, m: &mut Machine) {
        // Harness setup (cost-free): stage the messages in source memory
        // at their segment offsets, so a packet's source offset is the
        // offset its header carries.
        self.src_buf = m.alloc(self.src, self.segment_words());
        let (mut from, mut at) = (0, 0);
        for msg in 0..self.messages() {
            let len = self.len_of(msg);
            let words = &self.data[from..from + len];
            m.node_mut(self.src).mem.poke(self.src_buf.offset(at), words);
            from += len;
            at += len.div_ceil(self.n) * self.n;
        }
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.waited += k;
        self.stalled = false;
    }

    /// Every injection attempt sets `stalled` on backpressure and every
    /// receive path is head-gated on a packet being present, so an idle
    /// step without `stalled` can only become non-idle when `waited`
    /// crosses the protocol's wait window (or a packet arrives, which
    /// wakes the op through its endpoint subscription).
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled {
            return 1;
        }
        win(max_wait, self.waited)
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        check_restart(m, self.src, self.dst, self.peer_restarts)?;
        let max_wait = m.config().max_wait_cycles;
        let (src, dst, n) = (self.src, self.dst, self.n);
        match self.phase {
            XferPhase::Handshake => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("xfer reply", self.waited));
                }
                let mut progress = false;
                // Step 1: allocation request (buffer management).
                if !self.req_sent && !self.stalled {
                    let len = self.segment_words() as u32;
                    let node = m.node_mut(src);
                    if node.send_ctl_as(Feature::BufferMgmt, dst, Tags::XFER_REQ, len, [0; 4]) {
                        self.req_sent = true;
                        progress = true;
                    } else {
                        self.stalled = true;
                    }
                }
                // Step 2: receiver allocates a segment.
                if self.segment.is_none() && peek_is(m, dst, src, Tags::XFER_REQ) {
                    let node = m.node_mut(dst);
                    let cpu = node.cpu.clone();
                    let seg = cpu.with_feature(Feature::BufferMgmt, |_| {
                        let req = node.recv_ctl_now();
                        debug_assert_eq!(req.tag, Tags::XFER_REQ);
                        // Allocation itself is free (as in the paper);
                        // rounding up to whole packets keeps the stores
                        // of a padded final packet in bounds.
                        let words = req.header as usize;
                        let buffer = node.mem.alloc(words.div_ceil(n) * n);
                        node.cpu.reg(Fine::RegOp, segment::ASSOCIATE_REG);
                        node.cpu.mem_store(segment::ASSOCIATE_MEM);
                        ((buffer.0 & 0xffff) as u32 ^ 0x5e60_0000, buffer)
                    });
                    self.segment = Some(seg);
                    progress = true;
                }
                // Step 3: the reply.
                if let Some((seg, _)) = self.segment {
                    if !self.reply_sent && !self.stalled {
                        let node = m.node_mut(dst);
                        if node.send_ctl_as(Feature::BufferMgmt, src, Tags::XFER_REPLY, seg, [0; 4]) {
                            self.reply_sent = true;
                            progress = true;
                        } else {
                            self.stalled = true;
                        }
                    }
                    if self.reply_sent && peek_is(m, src, dst, Tags::XFER_REPLY) {
                        let node = m.node_mut(src);
                        let cpu = node.cpu.clone();
                        cpu.with_feature(Feature::BufferMgmt, |_| {
                            let reply = node.recv_ctl_now();
                            debug_assert_eq!((reply.tag, reply.header), (Tags::XFER_REPLY, seg));
                        });
                        self.rx.buffer = self.segment.expect("just checked").1;
                        transfer_prologue(m, src, dst);
                        self.phase = XferPhase::Transfer;
                        self.waited = 0;
                        return Ok(Stepped::Progress);
                    }
                }
                Ok(if progress { Stepped::Progress } else { Stepped::Idle })
            }
            XferPhase::Transfer => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("xfer data packets", self.waited));
                }
                let mut progress = false;
                // Step 4: inject (source side).
                if !self.stalled {
                    while self.next_packet < self.packets {
                        let offset = self.base + self.next_packet * n as u64;
                        if m.send_data_packet(src, dst, self.src_buf, offset, n, self.engine, 0) {
                            self.next_packet += 1;
                            progress = true;
                        } else {
                            self.send_retries += 1;
                            self.stalled = true;
                            break;
                        }
                    }
                }
                // Step 4: drain (destination side), gated on our data.
                while self.rx.packets_received < self.rx.packets_expected
                    && peek_is(m, dst, src, Tags::XFER_DATA)
                {
                    m.recv_one_data_packet(dst, n, &mut self.rx);
                    progress = true;
                }
                if progress {
                    self.waited = 0;
                }
                if self.next_packet == self.packets
                    && self.rx.packets_received == self.rx.packets_expected
                {
                    // The final count check and state writeback, then
                    // step 5 after the last message: free the segment.
                    let last = self.msg + 1 == self.messages();
                    let node = m.node_mut(dst);
                    node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                        cpu.reg(Fine::RegOp, xfer_order::DST_FINAL);
                    });
                    node.cpu.mem_store(xfer_recv::EXIT_STATE_MEM);
                    if last {
                        node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                            cpu.reg(Fine::RegOp, segment::DISASSOCIATE_REG);
                            cpu.mem_store(segment::DISASSOCIATE_MEM);
                        });
                    }
                    self.phase = XferPhase::SendAck;
                    self.waited = 0;
                    return Ok(Stepped::Progress);
                }
                Ok(if progress { Stepped::Progress } else { Stepped::Idle })
            }
            XferPhase::SendAck => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("control-packet injection", self.waited));
                }
                if self.stalled {
                    return Ok(Stepped::Idle);
                }
                let seg = self.segment.expect("segment allocated").0;
                let node = m.node_mut(dst);
                if node.send_ctl_as(Feature::FaultTol, src, Tags::XFER_ACK, seg, [0; 4]) {
                    self.phase = XferPhase::AwaitAck;
                    self.waited = 0;
                    Ok(Stepped::Progress)
                } else {
                    self.stalled = true;
                    Ok(Stepped::Idle)
                }
            }
            XferPhase::AwaitAck => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("xfer acknowledgement", self.waited));
                }
                if !peek_is(m, src, dst, Tags::XFER_ACK) {
                    return Ok(Stepped::Idle);
                }
                let seg = self.segment.expect("segment allocated").0;
                let node = m.node_mut(src);
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    let ack = node.recv_ctl_now();
                    debug_assert_eq!((ack.tag, ack.header), (Tags::XFER_ACK, seg));
                });
                let out = XferOutcome {
                    dst_buffer: self.rx.buffer.offset(self.base as usize),
                    packets: self.packets,
                    segment_id: seg,
                    send_retries: self.send_retries,
                };
                if self.lens.is_empty() {
                    return Ok(Stepped::Done(OpOutcome::Xfer(out)));
                }
                self.done.push(out);
                if self.msg + 1 == self.lens.len() {
                    let outs = std::mem::take(&mut self.done);
                    return Ok(Stepped::Done(OpOutcome::XferBatch(outs)));
                }
                // The batch's next message: its prologue, then its data.
                self.msg += 1;
                self.base += self.packets * n as u64;
                self.packets = (self.lens[self.msg] as u64).div_ceil(n as u64);
                self.rx.packets_expected = self.packets;
                self.rx.packets_received = 0;
                self.next_packet = 0;
                self.send_retries = 0;
                transfer_prologue(m, src, dst);
                self.phase = XferPhase::Transfer;
                self.waited = 0;
                Ok(Stepped::Progress)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use crate::measure::pair_cost;
    use timego_cost::paper::{self, Block, Table};
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
    fn transfers_data_correctly() {
        let mut m = machine();
        let data: Vec<u32> = (0..64).map(|i| i * 3 + 1).collect();
        let out = m.xfer(n(0), n(1), &data).unwrap();
        assert_eq!(out.packets, 16);
        assert_eq!(m.read_buffer(n(1), out.dst_buffer, data.len()), data);
    }

    #[test]
    fn partial_final_packet_is_padded_not_truncated() {
        let mut m = machine();
        let data: Vec<u32> = (0..13).collect(); // 13 words = 3.25 packets
        let out = m.xfer(n(0), n(1), &data).unwrap();
        assert_eq!(out.packets, 4);
        assert_eq!(m.read_buffer(n(1), out.dst_buffer, 13), data);
    }

    #[test]
    fn empty_transfer_is_rejected() {
        let mut m = machine();
        assert!(matches!(
            m.xfer(n(0), n(1), &[]),
            Err(ProtocolError::BadTransfer(_))
        ));
    }

    /// Every printed cell of `block` equals the measured pair's.
    fn assert_paper(block: Block, m: &Machine) {
        for row in paper::block(block) {
            assert_eq!(row.of(&pair_cost(m)), row.value, "{row:?}");
        }
    }

    #[test]
    fn sixteen_word_costs_match_reconstructed_table2() {
        let mut m = machine();
        let data: Vec<u32> = (0..16).collect();
        m.reset_costs();
        m.xfer(n(0), n(1), &data).unwrap();
        // DESIGN.md §3: reconstructed finite-sequence 16-word block.
        assert_paper(Block::Finite16, &m);
    }

    #[test]
    fn matches_analytic_model_at_1024_words() {
        let mut m = machine();
        let data: Vec<u32> = (0..1024).collect();
        m.reset_costs();
        m.xfer(n(0), n(1), &data).unwrap();
        let model = timego_cost::analytic::cmam_finite(
            timego_cost::analytic::MsgShape::paper(1024).unwrap(),
        );
        assert_eq!(pair_cost(&m), model);
        assert_paper(Block::Finite1024, &m);
    }

    // --- segment reuse (`xfer_batch`) ------------------------------------

    fn total(m: &Machine) -> u64 {
        m.cpu(n(0)).snapshot().total() + m.cpu(n(1)).snapshot().total()
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
        let sep_total = total(&separate);
        let sep_bm = separate.cpu(n(0)).snapshot().feature_total(Feature::BufferMgmt)
            + separate.cpu(n(1)).snapshot().feature_total(Feature::BufferMgmt);

        // One batch of K.
        let mut batched = machine();
        batched.reset_costs();
        let messages: Vec<&[u32]> = (0..K).map(|_| msg.as_slice()).collect();
        batched.xfer_batch(n(0), n(1), &messages).unwrap();
        let bat_total = total(&batched);
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

        let mut batch = machine();
        batch.reset_costs();
        batch.xfer_batch(n(0), n(1), &[&msg]).unwrap();
        assert_eq!(total(&single), total(&batch));
    }

    /// On a substrate with latency the batch waits for packets like
    /// `xfer` does — and, like `xfer`, pays nothing for the waiting: a
    /// batch of one bills Table 2's 397, and each further message saves
    /// exactly the 148-instruction handshake.
    #[test]
    fn batch_bills_like_xfer_on_a_latency_substrate() {
        use timego_netsim::{Mesh2D, SwitchedConfig, SwitchedNetwork};
        const K: usize = 8;
        let mesh = || {
            let net = SwitchedNetwork::new(Mesh2D::new(2, 2), SwitchedConfig::default());
            Machine::new(share(net), 4, CmamConfig::default())
        };
        let pair_total =
            |m: &Machine| m.cpu(n(0)).snapshot().total() + m.cpu(n(3)).snapshot().total();
        let msg: Vec<u32> = (0..16).collect();
        let table2 = paper::find(Table::Table2, Block::Finite16, None, None).unwrap();

        let mut single = mesh();
        single.xfer(n(0), n(3), &msg).unwrap();
        assert_eq!(pair_total(&single), table2.value.count());

        let mut one = mesh();
        let outs = one.xfer_batch(n(0), n(3), &[&msg]).unwrap();
        assert_eq!(one.read_buffer(n(3), outs[0].dst_buffer, msg.len()), msg);
        assert_eq!(pair_total(&one), table2.value.count());

        let mut separate = mesh();
        for _ in 0..K {
            separate.xfer(n(0), n(3), &msg).unwrap();
        }
        let mut batched = mesh();
        let messages: Vec<&[u32]> = (0..K).map(|_| msg.as_slice()).collect();
        batched.xfer_batch(n(0), n(3), &messages).unwrap();
        assert_eq!(pair_total(&separate) - pair_total(&batched), (K as u64 - 1) * 148);
    }
}
