//! The CMAM finite-sequence, multi-packet protocol (`CMAM_xfer`), plain
//! and fault-tolerant.
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
//!
//! # Recovery
//!
//! The paper's protocol *detects* faults (the acknowledgement of step
//! 6) but cannot recover: a dropped data packet starves the receiver
//! and the transfer fails. [`Op::xfer_reliable`] runs the same operation
//! with a [`RetryPolicy`] and the recovery state it needs:
//!
//! * **handshake retry** — a lost allocation request or reply is
//!   retransmitted after a backoff window; the receiver answers a
//!   duplicated request from its segment table instead of allocating
//!   twice;
//! * **selective retransmission** — when the receiver's drain stalls, it
//!   scans its receive bitmap and sends an `XFER_NACK` naming the first
//!   missing packet plus a 128-bit missing-set bitmap; the source
//!   retransmits exactly those packets;
//! * **acknowledgement probing** — if the final acknowledgement is lost,
//!   the source sends an `XFER_PROBE` and the receiver re-acknowledges
//!   from protocol state.
//!
//! Every recovery instruction — stray discards, duplicate detection, gap
//! scans, NACK/PROBE traffic, retransmitted packets — is charged to
//! `Feature::FaultTol` through the `costs::recovery` taxonomy. Those
//! branches run only under a policy and only after a fault, so a clean
//! reliable run executes the plain body and bills exactly what
//! [`Machine::xfer`] bills, feature by feature: reliability costs
//! nothing until a fault actually happens.
//!
//! Both forms share one wire layout. Control packets carry the
//! per-ordered-pair **session epoch** ([`Machine::next_session_epoch`])
//! in the header and the length or segment id in the first payload
//! word; data headers carry a 12-bit nonce derived from the epoch above
//! the 20-bit buffer offset. A delayed duplicate from an *earlier*
//! same-pair transfer is thus recognized as stale at either endpoint and
//! discarded as fault-tolerance work rather than corrupting (or wedging)
//! the current session. A plain transfer stamps epoch 0 and nonce 0
//! (epochs start at 1), and its offsets use the whole header word.
//!
//! Above single-session recovery sits
//! [`Op::recovering`](crate::Op::recovering): when a peer
//! crash-restart kills a session mid-flight (retryable
//! [`ProtocolError::SessionReset`] / deadline errors), the engine
//! re-executes the whole transfer under a fresh epoch until the
//! policy's execution budget runs out, converging to exactly-once
//! byte-exact delivery.

use std::collections::VecDeque;

use timego_cost::{Feature, Fine};
use timego_netsim::{NodeId, RxMeta};
use timego_ni::Addr;

use crate::am::Am4Msg;
use crate::costs::{recovery, segment, xfer_order, xfer_recv, xfer_send};
use crate::engine::OpOutcome;
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::{check_restart, pairwise, peek_is, win, GcExempt, KeyClass, Op, OpMachine, Stepped};
use crate::retry::RetryPolicy;

/// Offset bits in a reliable data-packet header; the bits above hold the
/// transfer nonce.
pub(crate) const OFFSET_BITS: u32 = 20;
const OFFSET_MASK: u32 = (1 << OFFSET_BITS) - 1;

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

/// Result of a completed fault-tolerant transfer: the underlying
/// [`XferOutcome`] plus recovery statistics (all zero on a clean run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableOutcome {
    /// The plain transfer outcome (buffer, packets, segment, injection
    /// backpressure retries).
    pub xfer: XferOutcome,
    /// Handshake rounds that needed a retransmitted request.
    pub handshake_retries: u32,
    /// Data packets retransmitted after a NACK.
    pub data_retransmits: u64,
    /// NACK rounds the receiver initiated.
    pub nack_rounds: u32,
    /// Acknowledgement probes the source sent.
    pub ack_probes: u32,
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
    /// CM-5 the transfer simply fails — or a foreign packet that no
    /// operation consumes sits at the head of an endpoint's queue).
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
    /// `nonce` is OR-ed into the header's high bits, so stale duplicates
    /// from an earlier reliable transfer are recognizable (a plain
    /// transfer's is 0).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_data_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        buf: Addr,
        offset: u64,
        n: usize,
        engine: PayloadEngine,
        nonce: u32,
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
                node.ni.stage_envelope(dst, Tags::XFER_DATA, nonce | offset as u32);
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
                node.ni.stage_envelope(dst, Tags::XFER_DATA, nonce | offset as u32);
                node.ni.dma_stage_payload(&node.mem, buf.offset(offset as usize), n);
                node.cpu.reg(Fine::CheckStatus, 2);
            }
        }
        node.ni.commit_send() && {
            node.ni.load_send_status();
            true
        }
    }

    /// Receive the data packet at `dst`'s queue head, storing its
    /// payload in `buffer` at the offset its header carries. Under
    /// recovery (`rec`) a stray tag, a stale nonce or a duplicate is
    /// discarded as fault-tolerance work instead; the latch and header
    /// read that identify a packet are paid either way, the dispatch and
    /// placement only for a packet that is accepted, which costs exactly
    /// what a plain one does. Returns whether the packet was placed.
    fn recv_data_packet(
        &mut self,
        dst: NodeId,
        n: usize,
        buffer: Addr,
        rec: Option<&mut Recovery>,
    ) -> bool {
        let node = self.node_mut(dst);
        let Some((_, tag)) = node.ni.latch_rx() else {
            return false;
        };
        let stray = tag != Tags::XFER_DATA;
        debug_assert!(!stray || rec.is_some(), "only data packets in flight during step 4");
        let header = if stray { 0 } else { node.ni.read_header() };
        let nonce = rec.as_deref().map_or(0, |rec| rec.nonce);
        if let Some(discard) = rec.and_then(|rec| rec.refuse(stray, header, n)) {
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| cpu.reg(Fine::RegOp, discard));
            node.ni.drop_latched();
            return false;
        }
        node.cpu.reg(Fine::Handler, xfer_recv::PER_PACKET_REG);
        // In-order delivery: extract the offset and decrement the
        // (register-cached) expected-packet count.
        node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
            cpu.reg(Fine::RegOp, xfer_order::DST_PER_PACKET);
        });
        let offset = (header ^ nonce) as usize;
        for d in 0..(n / 2) {
            let (w0, w1) = node.ni.read_payload2();
            node.mem.store2(buffer.offset(offset + 2 * d), w0, w1);
        }
        true
    }
}

/// Every tag of the finite-transfer protocol, recovery's included.
const XFER_TAGS: [u8; 6] = [
    Tags::XFER_REQ,
    Tags::XFER_REPLY,
    Tags::XFER_DATA,
    Tags::XFER_ACK,
    Tags::XFER_NACK,
    Tags::XFER_PROBE,
];

/// The per-message source prologue and destination handler entry charged
/// between the handshake and the data phase (each message of a batch
/// pays its own).
fn transfer_prologue(m: &mut Machine, src: NodeId, dst: NodeId) {
    {
        let node = m.node_mut(src);
        node.cpu.reg(Fine::CallReturn, xfer_send::PROLOGUE_REG);
        node.cpu.mem_load(xfer_send::PROLOGUE_MEM);
    }
    {
        let node = m.node_mut(dst);
        node.cpu.call(xfer_recv::ENTRY_CALL);
        node.cpu.ctrl(xfer_recv::ENTRY_CTRL);
        node.cpu.handler(xfer_recv::ENTRY_HANDLER);
        node.cpu.mem_load(xfer_recv::ENTRY_STATE_MEM);
        let _ = node.ni.poll_status();
    }
}

/// Receive the control packet a cost-free peek showed at `node`'s queue
/// head, billed to `feature`.
#[inline]
fn recv_ctl_as(m: &mut Machine, node: NodeId, feature: Feature) -> Am4Msg {
    let node = m.node_mut(node);
    node.cpu.clone().with_feature(feature, |_| node.recv_ctl_now())
}

/// Inject a control packet `from → to`, billed to `feature`, unless an
/// injection already stalled this step; a refusal is the step's stall.
#[inline]
fn send_ctl(
    m: &mut Machine,
    stalled: &mut bool,
    (from, to): (NodeId, NodeId),
    feature: Feature,
    tag: u8,
    header: u32,
    words: [u32; 4],
) -> bool {
    if *stalled {
        return false;
    }
    let sent = m.node_mut(from).send_ctl_as(feature, to, tag, header, words);
    *stalled = !sent;
    sent
}

enum XferPhase {
    Handshake,
    Transfer,
    SendAck,
    AwaitAck,
}

/// What only a reliable transfer carries, boxed so a plain one neither
/// allocates nor holds it.
#[derive(Default)]
struct Recovery {
    policy: RetryPolicy,
    // Session epoch for this (src, dst) handshake, allocated at start;
    // the data nonce is derived from it, so packets of a prior epoch
    // between the same pair are recognizably stale.
    epoch: u32,
    nonce: u32,
    // Which data packets the receiver placed.
    seen: Vec<bool>,
    retransmit: VecDeque<u64>,
    // Recovery rounds: handshake resends, NACK rounds, ack probes.
    hs_attempt: u32,
    drain_attempt: u32,
    ack_attempt: u32,
    data_retransmits: u64,
    resend_due: bool,
    nack_pending: bool,
    nack_charge_due: bool,
    probe_pending: bool,
    reack_pending: bool,
}

impl Recovery {
    /// The fault-tolerance charge for discarding a data-phase packet —
    /// a stray tag, a stale nonce or a duplicate — or `None` to place it
    /// (and mark it seen).
    fn refuse(&mut self, stray: bool, header: u32, n: usize) -> Option<u64> {
        let idx = (header & OFFSET_MASK) as usize / n;
        if stray || header & !OFFSET_MASK != self.nonce || idx >= self.seen.len() {
            // A delayed duplicate from an earlier transfer, or noise.
            return Some(recovery::STRAY_DISCARD_REG);
        }
        std::mem::replace(&mut self.seen[idx], true).then_some(recovery::DUP_DATA_REG)
    }

    /// Is `meta`, at the source (`at_src`) or the destination, a packet
    /// of a *prior* epoch between this pair?
    fn stale(&self, meta: &RxMeta, at_src: bool) -> bool {
        match (at_src, meta.tag) {
            (true, Tags::XFER_REPLY | Tags::XFER_ACK) | (false, Tags::XFER_REQ | Tags::XFER_PROBE) => {
                meta.header != self.epoch
            }
            (true, Tags::XFER_NACK) | (false, Tags::XFER_DATA) => meta.header & !OFFSET_MASK != self.nonce,
            _ => false,
        }
    }

    /// Discard stale packets at either endpoint's queue head: duplicated
    /// handshakes or data of an earlier same-pair transfer must not be
    /// mistaken for this session's traffic. Every discard is recovery
    /// work; a clean run peeks (cost-free) and finds nothing stale.
    /// Returns `true` if anything was discarded.
    fn sweep_stale(&self, m: &mut Machine, src: NodeId, dst: NodeId) -> bool {
        let mut any = false;
        for (node, from) in [(src, dst), (dst, src)] {
            while m.rx_peek_at(node).is_some_and(|meta| meta.src == from && self.stale(&meta, node == src)) {
                m.discard_stray(node);
                any = true;
            }
        }
        any
    }
}

/// Open recovery round `attempt + 1` after window `attempt` expired, or
/// fail once the policy's attempts are spent.
fn next_round(
    policy: &RetryPolicy,
    attempt: &mut u32,
    waiting_for: &'static str,
    cycles: u64,
    node: NodeId,
) -> Result<(), ProtocolError> {
    *attempt += 1;
    if *attempt >= policy.max_attempts {
        return Err(ProtocolError::Timeout { waiting_for, cycles, node: Some(node), attempts: *attempt });
    }
    Ok(())
}

/// The six steps of `CMAM_xfer` as an engine operation, over one or
/// more messages sharing a segment: one handshake sized for them all,
/// then per message the data phase and its acknowledgement, with the
/// segment freed after the last. A reliable transfer is one message
/// with recovery state (`rec`).
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
    // The reply the receiver owes, and the feature it bills: buffer
    // management for an allocation, fault tolerance for a duplicate.
    reply_pending: Option<Feature>,
    segment: Option<(u32, Addr)>,
    // The message in flight: its index, its segment offset in words,
    // its data packets, and how many were sent and placed.
    msg: usize,
    base: u64,
    packets: u64,
    next_packet: u64,
    received: u64,
    send_retries: u64,
    // Outcomes of a batch's finished messages.
    done: Vec<XferOutcome>,
    // Cycles waited in the current phase; each phase entry zeroes it.
    waited: u64,
    stalled: bool,
    // Endpoint restart counters at start; see `check_restart`.
    peer_restarts: (u32, u32),
    rec: Option<Box<Recovery>>,
}

impl XferOp {
    pub(crate) fn new(
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        lens: Vec<usize>,
        engine: PayloadEngine,
        n: usize,
        policy: Option<RetryPolicy>,
    ) -> Self {
        let packets = (lens.first().copied().unwrap_or(data.len()) as u64).div_ceil(n as u64);
        let rec = policy.map(|policy| {
            Box::new(Recovery { policy, seen: vec![false; packets as usize], ..Recovery::default() })
        });
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
            reply_pending: None,
            segment: None,
            msg: 0,
            base: 0,
            packets,
            next_packet: 0,
            received: 0,
            send_retries: 0,
            done: Vec::new(),
            waited: 0,
            stalled: false,
            peer_restarts: (0, 0),
            rec,
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

    /// The session epoch and data nonce; both 0 for a plain transfer.
    fn stamp(&self) -> (u32, u32) {
        self.rec.as_ref().map_or((0, 0), |rec| (rec.epoch, rec.nonce))
    }

    /// The segment id and buffer the handshake allocated (zero before).
    fn seg(&self) -> (u32, Addr) {
        self.segment.unwrap_or((0, Addr(0)))
    }

    // The phase bodies and the two control-packet helpers are
    // `#[inline]`: out of line, a plain 8-word transfer ran about 6 %
    // slower per op than the one-body step they replaced (EXPERIMENTS.md,
    // "One finite-sequence transfer").
    #[inline]
    fn step_handshake(&mut self, m: &mut Machine, max_wait: u64) -> Result<Stepped, ProtocolError> {
        let (src, dst, n, (epoch, _)) = (self.src, self.dst, self.n, self.stamp());
        match self.rec.as_deref_mut() {
            None if self.waited > max_wait => {
                return Err(ProtocolError::timeout("xfer reply", self.waited));
            }
            // Window expiry: the reply is overdue — retransmit the request.
            Some(rec) if self.req_sent && self.waited > rec.policy.backoff(rec.hs_attempt) => {
                let window = rec.policy.backoff(rec.hs_attempt);
                next_round(&rec.policy, &mut rec.hs_attempt, "xfer reply", window, src)?;
                rec.resend_due = true;
                self.waited = 0;
            }
            _ => {}
        }
        let mut progress = false;
        // Step 1: the allocation request. The first send is buffer
        // management; a recovery resend is fault tolerance.
        if !self.req_sent || self.rec.as_ref().is_some_and(|rec| rec.resend_due) {
            let feature = if self.req_sent { Feature::FaultTol } else { Feature::BufferMgmt };
            let len = self.segment_words() as u32;
            if send_ctl(m, &mut self.stalled, (src, dst), feature, Tags::XFER_REQ, epoch, [len, 0, 0, 0]) {
                self.req_sent = true;
                if let Some(rec) = self.rec.as_deref_mut() {
                    rec.resend_due = false;
                }
                progress = true;
            }
        }
        // Step 2: the receiver answers a request. A plain transfer
        // answers only the first; under recovery a duplicate is answered
        // from the epoch-keyed session table (fault tolerance) — the
        // table lookup is what a crash-restart observably erases.
        let answers = self.reply_pending.is_none() && (self.segment.is_none() || self.rec.is_some());
        if answers && peek_is(m, dst, src, Tags::XFER_REQ) {
            let open = self.rec.is_some() && m.session(dst, src).is_some_and(|s| s.epoch == epoch);
            if open {
                debug_assert_eq!(m.session(dst, src).map(|s| (s.seg, s.buffer)), self.segment);
                let tag = recv_ctl_as(m, dst, Feature::FaultTol).tag;
                debug_assert_eq!(tag, Tags::XFER_REQ);
                self.reply_pending = Some(Feature::FaultTol);
            } else {
                // A leftover same-pair session of an *earlier* epoch —
                // its sender crashed mid-transfer, or the op was
                // re-executed by the recovery plane — is reclaimed
                // before the fresh allocation. Recovery work, billed
                // like the TTL sweep would bill it.
                if self.rec.is_some() && m.session(dst, src).is_some() {
                    m.close_session(dst, src);
                    m.cpu(dst).with_feature(Feature::FaultTol, |c| {
                        c.reg(Fine::RegOp, recovery::SESSION_GC_REG);
                        c.mem_store(recovery::SESSION_GC_MEM);
                    });
                }
                let node = m.node_mut(dst);
                let seg = node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                    let Am4Msg { tag, header, words, .. } = node.recv_ctl_now();
                    debug_assert_eq!((tag, header), (Tags::XFER_REQ, epoch));
                    // Allocation itself is free (as in the paper); rounding
                    // up to whole packets keeps the stores of a padded
                    // final packet in bounds.
                    let buffer = node.mem.alloc((words[0] as usize).div_ceil(n) * n);
                    cpu.reg(Fine::RegOp, segment::ASSOCIATE_REG);
                    cpu.mem_store(segment::ASSOCIATE_MEM);
                    ((buffer.0 & 0xffff) as u32 ^ 0x5e60_0000, buffer)
                });
                self.segment = Some(seg);
                // Under recovery, record the open session so a
                // crash-restart of the receiver observably erases it —
                // and so the TTL sweep can reclaim it if the *sender*
                // crashes and never finishes the transfer.
                if self.rec.is_some() {
                    m.open_session(dst, src, epoch, seg);
                }
                self.reply_pending = Some(Feature::BufferMgmt);
            }
            progress = true;
        }
        // Step 3: the reply, billed as its request was.
        let (seg, _) = self.seg();
        if let Some(feature) = self.reply_pending {
            if send_ctl(m, &mut self.stalled, (dst, src), feature, Tags::XFER_REPLY, epoch, [seg, 0, 0, 0]) {
                self.reply_pending = None;
                progress = true;
            }
        }
        // The source takes the reply: buffer management, or recovery
        // work after a resend. A plain transfer takes it once it is
        // sent; a reliable one any of its epoch (the sweep discarded the
        // older ones).
        let replied = self.rec.is_some() || self.reply_pending.is_none();
        if self.segment.is_some() && replied && peek_is(m, src, dst, Tags::XFER_REPLY) {
            let resent = self.rec.as_ref().is_some_and(|rec| rec.hs_attempt > 0);
            let feature = if resent { Feature::FaultTol } else { Feature::BufferMgmt };
            let Am4Msg { tag, header, words, .. } = recv_ctl_as(m, src, feature);
            debug_assert_eq!((tag, header, words[0]), (Tags::XFER_REPLY, epoch, seg));
            transfer_prologue(m, src, dst);
            self.phase = XferPhase::Transfer;
            self.waited = 0;
            return Ok(Stepped::Progress);
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }

    #[inline]
    fn step_transfer(&mut self, m: &mut Machine, max_wait: u64) -> Result<Stepped, ProtocolError> {
        let (src, dst, n, (_, nonce)) = (self.src, self.dst, self.n, self.stamp());
        let draining = self.received < self.packets && self.next_packet == self.packets;
        match self.rec.as_deref_mut() {
            None if self.waited > max_wait => {
                return Err(ProtocolError::timeout("xfer data packets", self.waited));
            }
            // The drain stalled for a whole window with packets still
            // missing: recover via NACK + selective retransmission.
            Some(rec) if draining && self.waited > rec.policy.backoff(rec.drain_attempt) => {
                next_round(&rec.policy, &mut rec.drain_attempt, "xfer data packets", self.waited, dst)?;
                rec.nack_pending = true;
                rec.nack_charge_due = true;
                self.waited = 0;
            }
            _ => {}
        }
        let mut progress = false;
        // Selective retransmissions named by a received NACK go first.
        if let Some(rec) = self.rec.as_deref_mut() {
            while let (Some(&k), false) = (rec.retransmit.front(), self.stalled) {
                let (buf, engine) = (self.src_buf, self.engine);
                let accepted = m.cpu(src).with_feature(Feature::FaultTol, |_| {
                    m.send_data_packet(src, dst, buf, k * n as u64, n, engine, nonce)
                });
                self.stalled = !accepted;
                if accepted {
                    rec.retransmit.pop_front();
                    rec.data_retransmits += 1;
                    progress = true;
                }
            }
        }
        // Step 4: inject (source side).
        if !self.stalled {
            while self.next_packet < self.packets {
                let offset = self.base + self.next_packet * n as u64;
                if m.send_data_packet(src, dst, self.src_buf, offset, n, self.engine, nonce) {
                    self.next_packet += 1;
                    progress = true;
                } else {
                    self.send_retries += 1;
                    self.stalled = true;
                    break;
                }
            }
        }
        // Step 4: drain (destination side). A plain transfer takes only
        // its data; under recovery anything from the source at the queue
        // head is ours to classify (data, duplicated request, stray
        // probe).
        let recovering = self.rec.is_some();
        let ours = |meta: RxMeta| {
            meta.src == src
                && (meta.tag == Tags::XFER_DATA
                    || recovering && (meta.tag == Tags::XFER_REQ || meta.tag == Tags::XFER_PROBE))
        };
        let buffer = self.seg().1;
        while self.received < self.packets && m.rx_peek_at(dst).is_some_and(ours) {
            if m.recv_data_packet(dst, n, buffer, self.rec.as_deref_mut()) {
                self.received += 1;
            }
            progress = true;
        }
        if let Some(rec) = self.rec.as_deref_mut() {
            // A late duplicated reply at the source is recovery noise.
            if peek_is(m, src, dst, Tags::XFER_REPLY) {
                m.discard_stray(src);
                progress = true;
            }
            // NACK emission (destination): gap scan + NACK packet.
            if rec.nack_pending && !self.stalled {
                if std::mem::take(&mut rec.nack_charge_due) {
                    m.cpu(dst).with_feature(Feature::FaultTol, |cpu| {
                        cpu.reg(Fine::RegOp, recovery::GAP_SCAN_REG);
                        cpu.mem_store(recovery::NACK_STATE_MEM);
                    });
                }
                match first_missing(&rec.seen) {
                    None => rec.nack_pending = false, // gap closed meanwhile
                    Some(first) => {
                        // Epoch-stamp the NACK: nonce in the high bits,
                        // the first missing offset (< 2^20) below it.
                        let (hdr, bits) = (nonce | first as u32, missing_bitmap(&rec.seen, first));
                        let ft = Feature::FaultTol;
                        if send_ctl(m, &mut self.stalled, (dst, src), ft, Tags::XFER_NACK, hdr, bits) {
                            rec.nack_pending = false;
                            progress = true;
                        }
                    }
                }
            }
            // NACK reception (source): build the retransmit queue.
            if peek_is(m, src, dst, Tags::XFER_NACK) {
                let Am4Msg { tag, header, words, .. } = recv_ctl_as(m, src, Feature::FaultTol);
                debug_assert_eq!(tag, Tags::XFER_NACK);
                m.cpu(src).with_feature(Feature::FaultTol, |cpu| {
                    cpu.reg(Fine::RegOp, recovery::RETRANSMIT_SETUP_REG);
                });
                let first = u64::from(header & OFFSET_MASK);
                let named = (0..128u64).filter(|rel| words[*rel as usize / 32] >> (rel % 32) & 1 == 1);
                rec.retransmit.extend(named.map(|rel| first + rel).take_while(|&k| k < self.packets));
                progress = true;
            }
        }
        if progress {
            self.waited = 0;
        }
        let settled = self.rec.as_ref().is_none_or(|rec| rec.retransmit.is_empty() && !rec.nack_pending);
        if self.next_packet == self.packets && self.received == self.packets && settled {
            // The final count check and state writeback, then step 5
            // after the last message: free the segment.
            let node = m.node_mut(dst);
            node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, xfer_order::DST_FINAL);
            });
            node.cpu.mem_store(xfer_recv::EXIT_STATE_MEM);
            if self.msg + 1 == self.messages() {
                node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                    cpu.reg(Fine::RegOp, segment::DISASSOCIATE_REG);
                    cpu.mem_store(segment::DISASSOCIATE_MEM);
                });
            }
            if self.rec.is_some() {
                m.close_session(dst, src);
            }
            self.phase = XferPhase::SendAck;
            self.waited = 0;
            return Ok(Stepped::Progress);
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }

    #[inline]
    fn step_await_ack(&mut self, m: &mut Machine, max_wait: u64) -> Result<Stepped, ProtocolError> {
        let (src, dst, (epoch, _), (seg, buffer)) = (self.src, self.dst, self.stamp(), self.seg());
        let mut progress = false;
        match self.rec.as_deref_mut() {
            None if self.waited > max_wait => {
                return Err(ProtocolError::timeout("xfer acknowledgement", self.waited));
            }
            None => {}
            Some(rec) => {
                // Window expiry: the acknowledgement is overdue — probe.
                let window = rec.policy.backoff(rec.ack_attempt);
                if self.waited > window {
                    next_round(&rec.policy, &mut rec.ack_attempt, "xfer acknowledgement", window, src)?;
                    rec.probe_pending = true;
                    self.waited = 0;
                }
                let (ft, words, stalled) = (Feature::FaultTol, [seg, 0, 0, 0], &mut self.stalled);
                if rec.probe_pending && send_ctl(m, stalled, (src, dst), ft, Tags::XFER_PROBE, epoch, words) {
                    rec.probe_pending = false;
                    progress = true;
                }
                // The destination answers a probe with a re-acknowledgement.
                if peek_is(m, dst, src, Tags::XFER_PROBE) {
                    let tag = recv_ctl_as(m, dst, Feature::FaultTol).tag;
                    debug_assert_eq!(tag, Tags::XFER_PROBE);
                    rec.reack_pending = true;
                    progress = true;
                }
                if rec.reack_pending && send_ctl(m, stalled, (dst, src), ft, Tags::XFER_ACK, epoch, words) {
                    rec.reack_pending = false;
                    progress = true;
                }
                // Stray late data at the destination (retransmitted
                // duplicates still in flight) is discarded as recovery
                // work.
                let late = |meta: RxMeta| {
                    meta.src == src && (meta.tag == Tags::XFER_DATA || meta.tag == Tags::XFER_REQ)
                };
                if m.rx_peek_at(dst).is_some_and(late) {
                    m.discard_stray(dst);
                    progress = true;
                }
                // A duplicated reply of this same epoch arriving after
                // the transfer completed (handshake retransmission
                // crossing the data phase) would otherwise sit at the
                // head of the source's queue and block the final
                // acknowledgement.
                if peek_is(m, src, dst, Tags::XFER_REPLY) {
                    m.discard_stray(src);
                    progress = true;
                }
            }
        }
        if peek_is(m, src, dst, Tags::XFER_ACK) {
            let Am4Msg { tag, header, words, .. } = recv_ctl_as(m, src, Feature::FaultTol);
            debug_assert_eq!((tag, header, words[0]), (Tags::XFER_ACK, epoch, seg));
            let out = XferOutcome {
                dst_buffer: buffer.offset(self.base as usize),
                packets: self.packets,
                segment_id: seg,
                send_retries: self.send_retries,
            };
            if let Some(rec) = &self.rec {
                return Ok(Stepped::Done(OpOutcome::Reliable(ReliableOutcome {
                    xfer: out,
                    handshake_retries: rec.hs_attempt,
                    data_retransmits: rec.data_retransmits,
                    nack_rounds: rec.drain_attempt,
                    ack_probes: rec.ack_attempt,
                })));
            }
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
            self.base += self.packets * self.n as u64;
            self.packets = (self.lens[self.msg] as u64).div_ceil(self.n as u64);
            self.received = 0;
            self.next_packet = 0;
            self.send_retries = 0;
            transfer_prologue(m, src, dst);
            self.phase = XferPhase::Transfer;
            self.waited = 0;
            return Ok(Stepped::Progress);
        }
        // A stale NACK arriving after the data phase completed.
        if self.rec.is_some() && peek_is(m, src, dst, Tags::XFER_NACK) {
            m.discard_stray(src);
            progress = true;
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

impl OpMachine for XferOp {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)> {
        Some((KeyClass::Xfer, self.src, self.dst))
    }

    /// Any transfer-protocol packet at either endpoint from the other.
    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        pairwise(node, meta.src, self.src, self.dst) && XFER_TAGS.contains(&meta.tag)
    }

    /// A parked transfer shields nothing: its next execution opens a
    /// fresh epoch, so the receiver's stale-epoch session is exactly
    /// what the sweep should reclaim. (Only a reliable one parks.)
    fn gc_exempt(&self, parked: bool) -> Option<GcExempt> {
        (!parked).then_some(GcExempt::Session(self.dst, self.src))
    }

    /// A re-execution starts over (`start` opens a fresh
    /// session epoch).
    fn reset(&mut self) {
        let (data, lens) = (std::mem::take(&mut self.data), std::mem::take(&mut self.lens));
        let policy = self.rec.take().map(|rec| rec.policy);
        *self = XferOp::new(self.src, self.dst, data, lens, self.engine, self.n, policy);
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
        // Epoch allocation is host-side session bookkeeping (the epoch
        // rides in header fields every control packet already carries),
        // so a clean run stays instruction-identical to the plain one.
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.epoch = m.next_session_epoch(self.src, self.dst);
            rec.nonce = (rec.epoch & 0xfff) << OFFSET_BITS;
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
    /// crosses the phase's wait window (or a packet arrives, which wakes
    /// the op through its endpoint subscription). Under recovery the
    /// windows are the policy's: a source mid-burst or a receiver
    /// mid-drain acts only on arrivals or a cleared stall, never on a
    /// timer alone (`MAX`, with the no-progress watchdog as backstop).
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled {
            return 1;
        }
        let Some(rec) = &self.rec else {
            return win(max_wait, self.waited);
        };
        let backoff = |attempt| win(rec.policy.backoff(attempt), self.waited);
        match self.phase {
            XferPhase::Handshake if self.req_sent => backoff(rec.hs_attempt),
            XferPhase::Handshake => 1,
            XferPhase::Transfer if self.received < self.packets && self.next_packet == self.packets => {
                backoff(rec.drain_attempt)
            }
            XferPhase::Transfer => u64::MAX,
            XferPhase::SendAck => win(max_wait, self.waited),
            XferPhase::AwaitAck => backoff(rec.ack_attempt),
        }
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        check_restart(m, self.src, self.dst, self.peer_restarts)?;
        if self.rec.as_ref().is_some_and(|rec| rec.sweep_stale(m, self.src, self.dst)) {
            return Ok(Stepped::Progress);
        }
        let max_wait = m.config().max_wait_cycles;
        match self.phase {
            XferPhase::Handshake => self.step_handshake(m, max_wait),
            XferPhase::Transfer => self.step_transfer(m, max_wait),
            XferPhase::SendAck => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("control-packet injection", self.waited));
                }
                let (src, dst, (epoch, _), (seg, _)) = (self.src, self.dst, self.stamp(), self.seg());
                let ft = Feature::FaultTol;
                if send_ctl(m, &mut self.stalled, (dst, src), ft, Tags::XFER_ACK, epoch, [seg, 0, 0, 0]) {
                    self.phase = XferPhase::AwaitAck;
                    self.waited = 0;
                    return Ok(Stepped::Progress);
                }
                Ok(Stepped::Idle)
            }
            XferPhase::AwaitAck => self.step_await_ack(m, max_wait),
        }
    }
}

fn first_missing(seen: &[bool]) -> Option<u64> {
    seen.iter().position(|&s| !s).map(|i| i as u64)
}

/// The NACK's missing-set bitmap: bit `rel` is set when packet
/// `first + rel` has not arrived, for the 128 packets from `first`.
fn missing_bitmap(seen: &[bool], first: u64) -> [u32; 4] {
    let mut bits = [0u32; 4];
    for (rel, &got) in seen.iter().skip(first as usize).take(128).enumerate() {
        if !got {
            bits[rel / 32] |= 1 << (rel % 32);
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use crate::measure::pair_cost;
    use timego_cost::paper::{self, Block, Table};
    use timego_cost::Feature;
    use timego_netsim::{DeliveryScript, FaultConfig, ScriptedNetwork};
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

    // --- recovery (`Op::xfer_reliable`) ----------------------------------

    fn scripted_machine(script: DeliveryScript) -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, script)),
            2,
            CmamConfig::default(),
        )
    }

    fn switched_machine(fault: FaultConfig, seed: u64) -> Machine {
        use timego_netsim::{Mesh2D, SwitchedConfig, SwitchedNetwork};
        // Roomy queues: no injection backpressure, so runs that differ
        // only in faults stay comparable packet-for-packet.
        let net = SwitchedNetwork::new(
            Mesh2D::new(2, 1),
            SwitchedConfig {
                rx_queue_capacity: 4096,
                link_queue_capacity: 256,
                fault,
                seed,
                ..SwitchedConfig::default()
            },
        );
        Machine::new(share(net), 2, CmamConfig::default())
    }

    /// A blocking 0 → 1 reliable transfer under the default policy.
    fn run_reliable(m: &mut Machine, data: &[u32]) -> Result<ReliableOutcome, ProtocolError> {
        m.run(Op::xfer_reliable(n(0), n(1), data, &RetryPolicy::default())).map(|(out, _)| out)
    }

    fn feature_totals(m: &Machine, node: NodeId) -> Vec<(Feature, u64)> {
        let snap = m.cpu(node).snapshot();
        Feature::ALL
            .into_iter()
            .map(|f| (f, snap.feature_total(f)))
            .collect()
    }

    #[test]
    fn clean_run_costs_exactly_match_xfer() {
        // The acceptance gate: with all fault probabilities zero,
        // `xfer_reliable` reports per-feature instruction counts
        // identical to `xfer` — recovery support costs nothing until a
        // fault happens.
        for script in [DeliveryScript::InOrder, DeliveryScript::AlternateSwap] {
            let data: Vec<u32> = (0..64).map(|i| i * 7 + 3).collect();
            let mut plain = scripted_machine(script);
            plain.reset_costs();
            plain.xfer(n(0), n(1), &data).unwrap();

            let mut reliable = scripted_machine(script);
            reliable.reset_costs();
            let out = run_reliable(&mut reliable, &data)
                .unwrap();
            assert_eq!(out.handshake_retries, 0);
            assert_eq!(out.data_retransmits, 0);
            assert_eq!(out.nack_rounds, 0);
            assert_eq!(out.ack_probes, 0);
            assert_eq!(out.xfer.packets, 16);

            for node in [n(0), n(1)] {
                assert_eq!(
                    feature_totals(&plain, node),
                    feature_totals(&reliable, node),
                    "{script:?} node {node:?}: clean reliable run must cost exactly what xfer costs"
                );
            }
        }
    }

    #[test]
    fn clean_switched_run_costs_exactly_match_xfer() {
        // Same gate over a real store-and-forward substrate (latency,
        // backpressure) instead of the instant scripted network.
        let data: Vec<u32> = (0..128).collect();
        let mut plain = switched_machine(FaultConfig::default(), 7);
        plain.reset_costs();
        plain.xfer(n(0), n(1), &data).unwrap();

        let mut reliable = switched_machine(FaultConfig::default(), 7);
        reliable.reset_costs();
        run_reliable(&mut reliable, &data)
            .unwrap();

        for node in [n(0), n(1)] {
            assert_eq!(
                feature_totals(&plain, node),
                feature_totals(&reliable, node),
                "clean switched run must cost exactly what xfer costs"
            );
        }
    }

    #[test]
    fn recovers_from_packet_drops() {
        let fault = FaultConfig {
            drop_prob: 0.1,
            ..FaultConfig::default()
        };
        let data: Vec<u32> = (0..256).map(|i| i ^ 0xABCD).collect();
        let mut ok = 0;
        for seed in 0..8 {
            let mut m = switched_machine(fault.clone(), seed);
            let out = run_reliable(&mut m, &data)
                .expect("reliable transfer must survive 10% drops");
            assert_eq!(
                m.read_buffer(n(1), out.xfer.dst_buffer, data.len()),
                data,
                "seed {seed}: payload must be byte-exact"
            );
            if out.data_retransmits > 0 || out.handshake_retries > 0 || out.ack_probes > 0 {
                ok += 1;
            }
        }
        assert!(ok > 0, "at least one seed must actually exercise recovery");
    }

    #[test]
    fn recovery_work_lands_in_fault_tolerance() {
        let fault = FaultConfig {
            drop_prob: 0.15,
            ..FaultConfig::default()
        };
        let data: Vec<u32> = (0..256).collect();
        // Find a seed whose run drops data packets but leaves the
        // handshake and acknowledgement clean, so the non-recovery
        // features can be compared against a fault-free baseline.
        for seed in 0..32 {
            let mut m = switched_machine(fault.clone(), seed);
            m.reset_costs();
            let out = run_reliable(&mut m, &data)
                .unwrap();
            if out.data_retransmits == 0 || out.handshake_retries > 0 || out.ack_probes > 0 {
                continue;
            }
            let mut clean = switched_machine(FaultConfig::default(), seed);
            clean.reset_costs();
            run_reliable(&mut clean, &data)
                .unwrap();
            // Base / buffer management / in-order totals are untouched
            // by recovery; the delta is all fault tolerance.
            for node in [n(0), n(1)] {
                let faulted = m.cpu(node).snapshot();
                let baseline = clean.cpu(node).snapshot();
                assert_eq!(
                    faulted.feature_total(Feature::InOrder),
                    baseline.feature_total(Feature::InOrder),
                    "in-order totals must not change under recovery"
                );
                assert_eq!(
                    faulted.feature_total(Feature::BufferMgmt),
                    baseline.feature_total(Feature::BufferMgmt),
                    "buffer management totals must not change under recovery"
                );
            }
            assert!(
                m.cpu(n(0)).snapshot().feature_total(Feature::FaultTol)
                    + m.cpu(n(1)).snapshot().feature_total(Feature::FaultTol)
                    > clean.cpu(n(0)).snapshot().feature_total(Feature::FaultTol)
                        + clean.cpu(n(1)).snapshot().feature_total(Feature::FaultTol),
                "recovery must be visible in the fault-tolerance feature"
            );
            return;
        }
        panic!("no seed exercised a data retransmission");
    }

    #[test]
    fn nack_bitmap_names_exactly_the_128_packets_from_first() {
        // 40 packets arrived, then 260 gaps with three arrivals among
        // them: far more missing than one NACK can name.
        let mut seen = vec![false; 300];
        seen[..40].fill(true);
        for k in [41, 100, 167] {
            seen[k] = true;
        }
        let first = first_missing(&seen).unwrap();
        assert_eq!(first, 40);
        let bits = missing_bitmap(&seen, first);
        for rel in 0..128 {
            let named = bits[rel / 32] >> (rel % 32) & 1 == 1;
            assert_eq!(named, !seen[40 + rel], "packet {}", 40 + rel);
        }
    }

    #[test]
    fn oversized_transfer_is_rejected() {
        let mut m = scripted_machine(DeliveryScript::InOrder);
        let data = vec![0u32; 1 << OFFSET_BITS];
        assert!(matches!(
            run_reliable(&mut m, &data),
            Err(ProtocolError::BadTransfer(_))
        ));
    }
}
