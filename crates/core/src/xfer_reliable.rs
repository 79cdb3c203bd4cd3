//! Fault-tolerant finite-sequence transfer (`xfer_reliable`).
//!
//! The paper's `CMAM_xfer` *detects* faults (the end-to-end
//! acknowledgement of step 6) but cannot recover: a dropped data packet
//! starves the receiver and the transfer fails. This module extends the
//! protocol with end-to-end recovery driven by a [`RetryPolicy`]:
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
//! `Feature::FaultTol` through the `costs::recovery` taxonomy. On a
//! fault-free run none of those paths execute, and the per-feature
//! instruction counts are **identical** to [`Machine::xfer`]'s (pinned
//! by `clean_run_costs_exactly_match_xfer` below): reliability costs
//! nothing until a fault actually happens.
//!
//! Data-packet headers carry a 12-bit per-transfer nonce above the
//! 20-bit buffer offset, derived from the per-ordered-pair **session
//! epoch** ([`Machine::next_session_epoch`]) the handshake packets also
//! carry: a delayed duplicate from an *earlier* same-pair transfer is
//! recognized as stale at either endpoint and discarded as fault-
//! tolerance work rather than corrupting (or wedging) the current
//! session.
//!
//! Above single-session recovery sits [`Machine::xfer_reliable_recovering`]:
//! when a peer crash-restart kills a session mid-flight (retryable
//! [`ProtocolError::SessionReset`] / deadline errors), it re-executes
//! the whole transfer under a fresh epoch until the policy's attempt
//! budget runs out, converging to exactly-once byte-exact delivery.

use std::collections::VecDeque;

use timego_cost::{Feature, Fine};
use timego_netsim::{NodeId, RxMeta};
use timego_ni::Addr;

use crate::costs::{recovery, segment, xfer_order, xfer_recv};
use crate::engine::{Op, OpOutcome};
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::{
    check_restart, peek_is, transfer_prologue, win, GcExempt, KeyClass, OpMachine, Stepped,
};
use crate::retry::{RecoveryPolicy, RetryPolicy};
use crate::xfer::{claims_transfer, PayloadEngine, XferOutcome, XferRx};

/// Offset bits in a reliable data-packet header; the bits above hold the
/// transfer nonce.
pub(crate) const OFFSET_BITS: u32 = 20;
const OFFSET_MASK: u32 = (1 << OFFSET_BITS) - 1;

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

impl Machine {
    /// Run a fault-tolerant finite-sequence transfer of `data` from
    /// `src` memory to a freshly allocated segment on `dst`.
    ///
    /// Behaves like [`Machine::xfer`] on a clean network (identical
    /// per-feature instruction counts); on a lossy network it recovers
    /// from dropped, duplicated, reordered, and outage-suppressed
    /// packets within `policy`'s attempt bounds. Recovery costs are
    /// charged to `Feature::FaultTol`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for empty data, data too large
    /// for the 20-bit offset encoding, equal or out-of-range endpoints,
    /// or a zero-attempt policy; [`ProtocolError::Timeout`] (with node
    /// and attempt context) when a phase exhausts its retry budget.
    pub fn xfer_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        policy: &RetryPolicy,
    ) -> Result<ReliableOutcome, ProtocolError> {
        match self.run_blocking(Op::xfer_reliable(src, dst, data, policy))? {
            (OpOutcome::Reliable(out), _) => Ok(out),
            _ => unreachable!("reliable op yields a reliable outcome"),
        }
    }

    /// [`Machine::xfer_reliable`] hardened against node crash-restarts:
    /// when an attempt dies with a *retryable* error (a peer crashed
    /// mid-session, a deadline or watchdog fired, a phase timed out),
    /// the transfer is re-executed from scratch under a fresh session
    /// epoch after the policy's backoff window, up to
    /// `policy.max_attempts` total executions. The re-execution happens
    /// *inside* the protocol engine (an engine-native
    /// [`RecoveryPolicy`], no caller-side loop): the op parks for the
    /// backoff window and re-runs under the same [`crate::OpId`].
    /// Packets of the dead session are recognizably stale under the new
    /// epoch and get discarded, so convergence is exactly-once and
    /// byte-exact.
    ///
    /// Each re-execution charges the session re-establishment costs
    /// (`SESSION_RESTART_REG`/`SESSION_RESTART_MEM`) to
    /// [`Feature::FaultTol`] at the source; a clean first attempt
    /// charges nothing beyond [`Machine::xfer_reliable`] itself.
    ///
    /// Returns the outcome plus the number of re-executions (zero when
    /// the first attempt succeeded).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] as [`Machine::xfer_reliable`];
    /// otherwise the last attempt's error once the retry budget is
    /// exhausted (non-retryable errors propagate immediately).
    pub fn xfer_reliable_recovering(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        policy: &RetryPolicy,
    ) -> Result<(ReliableOutcome, u32), ProtocolError> {
        let recovery = RecoveryPolicy {
            max_executions: policy.max_attempts,
            backoff: policy.clone(),
        };
        match self.run_blocking(Op::xfer_reliable(src, dst, data, policy).recovering(&recovery))? {
            (OpOutcome::Reliable(out), re_executions) => Ok((out, re_executions)),
            _ => unreachable!("reliable op yields a reliable outcome"),
        }
    }

    /// Receive one data packet at the receiver, tolerating faults:
    /// stray tags and stale-nonce packets are discarded, duplicates are
    /// detected against the receive bitmap and dropped. The clean path
    /// (fresh in-nonce packet) is instruction-identical to
    /// [`Machine::recv_one_data_packet`]. Returns `false` (after the
    /// discovery latch) when nothing is waiting.
    fn recv_one_data_tolerant(
        &mut self,
        dst: NodeId,
        n: usize,
        rx: &mut XferRx,
        seen: &mut [bool],
        nonce: u32,
    ) -> bool {
        let node = self.node_mut(dst);
        let Some((_, tag)) = node.ni.latch_rx() else {
            return false;
        };
        if tag != Tags::XFER_DATA {
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
                cpu.reg(Fine::RegOp, recovery::STRAY_DISCARD_REG);
            });
            node.ni.drop_latched();
            return true;
        }
        // The latch and header read above/below are physical device
        // accesses spent identifying the packet; the dispatch and
        // placement costs are only paid for packets that are accepted,
        // so a discarded duplicate charges nothing outside fault
        // tolerance beyond those reads.
        let header = node.ni.read_header();
        let offset = header & OFFSET_MASK;
        let idx = offset as usize / n;
        if header & !OFFSET_MASK != nonce || idx >= seen.len() {
            // A delayed duplicate from an earlier transfer.
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
                cpu.reg(Fine::RegOp, recovery::STRAY_DISCARD_REG);
            });
            node.ni.drop_latched();
            return true;
        }
        if seen[idx] {
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
                cpu.reg(Fine::RegOp, recovery::DUP_DATA_REG);
            });
            node.ni.drop_latched();
            return true;
        }
        node.cpu.reg(Fine::Handler, xfer_recv::PER_PACKET_REG);
        node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
            cpu.reg(Fine::RegOp, xfer_order::DST_PER_PACKET);
        });
        for d in 0..(n / 2) {
            let (w0, w1) = node.ni.read_payload2();
            node.mem
                .store2(rx.buffer.offset(offset as usize + 2 * d), w0, w1);
        }
        seen[idx] = true;
        rx.packets_received += 1;
        true
    }
}

enum ReliablePhase {
    Handshake,
    Transfer,
    SendAck,
    AwaitAck,
}

/// `CMAM_xfer` plus end-to-end recovery, as an engine operation.
pub(crate) struct ReliableOp {
    src: NodeId,
    dst: NodeId,
    data: Vec<u32>,
    n: usize,
    packets: u64,
    policy: RetryPolicy,
    phase: ReliablePhase,
    src_buf: Addr,
    // Session epoch for this (src, dst) handshake, allocated at start;
    // the data nonce is derived from it, so packets of a prior epoch
    // between the same pair are recognizably stale.
    epoch: u32,
    nonce: u32,
    // Restart counters of both endpoints observed at start; a mismatch
    // mid-flight means a peer crashed and restarted — fail fast with a
    // retryable `SessionReset`.
    peer_restarts: (u32, u32),
    // Handshake state.
    req_sent: bool,
    resend_due: bool,
    segment: Option<(u32, Addr)>,
    reply_pending: Option<Feature>,
    hs_attempt: u32,
    hs_waited: u64,
    // Transfer state.
    rx: XferRx,
    seen: Vec<bool>,
    next_packet: u64,
    send_retries: u64,
    data_retransmits: u64,
    nack_rounds: u32,
    drain_attempt: u32,
    drain_waited: u64,
    nack_pending: bool,
    nack_charge_due: bool,
    retransmit_queue: VecDeque<u64>,
    // Acknowledgement state.
    ack_attempt: u32,
    ack_waited: u64,
    ack_probes: u32,
    probe_pending: bool,
    reack_pending: bool,
    stalled: bool,
}

impl ReliableOp {
    pub(crate) fn new(
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        n: usize,
        policy: RetryPolicy,
    ) -> Self {
        let packets = (data.len() as u64).div_ceil(n as u64);
        ReliableOp {
            src,
            dst,
            data,
            n,
            packets,
            policy,
            phase: ReliablePhase::Handshake,
            src_buf: Addr(0),
            epoch: 0,
            nonce: 0,
            peer_restarts: (0, 0),
            req_sent: false,
            resend_due: false,
            segment: None,
            reply_pending: None,
            hs_attempt: 0,
            hs_waited: 0,
            rx: XferRx {
                buffer: Addr(0),
                packets_expected: packets,
                packets_received: 0,
            },
            seen: vec![false; packets as usize],
            next_packet: 0,
            send_retries: 0,
            data_retransmits: 0,
            nack_rounds: 0,
            drain_attempt: 0,
            drain_waited: 0,
            nack_pending: false,
            nack_charge_due: false,
            retransmit_queue: VecDeque::new(),
            ack_attempt: 0,
            ack_waited: 0,
            ack_probes: 0,
            probe_pending: false,
            reack_pending: false,
            stalled: false,
        }
    }

    /// Discard stale packets of *prior* epochs between this pair at
    /// either endpoint's queue head: duplicated handshakes or data of an
    /// earlier same-pair transfer must not be mistaken for this
    /// session's traffic. Every discard is recovery work
    /// ([`Feature::FaultTol`]); a clean run peeks (cost-free) and finds
    /// nothing stale. Returns `true` if anything was discarded.
    fn sweep_stale(&mut self, m: &mut Machine) -> bool {
        let mut any = false;
        while let Some(meta) = m.rx_peek_at(self.src) {
            if meta.src != self.dst {
                break;
            }
            let stale = match meta.tag {
                Tags::XFER_REPLY | Tags::XFER_ACK => meta.header != self.epoch,
                Tags::XFER_NACK => (meta.header & !OFFSET_MASK) != self.nonce,
                _ => false,
            };
            if !stale {
                break;
            }
            m.discard_stray(self.src);
            any = true;
        }
        while let Some(meta) = m.rx_peek_at(self.dst) {
            if meta.src != self.src {
                break;
            }
            let stale = match meta.tag {
                Tags::XFER_REQ | Tags::XFER_PROBE => meta.header != self.epoch,
                Tags::XFER_DATA => (meta.header & !OFFSET_MASK) != self.nonce,
                _ => false,
            };
            if !stale {
                break;
            }
            m.discard_stray(self.dst);
            any = true;
        }
        any
    }

    fn step_handshake(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        let (src, dst, n) = (self.src, self.dst, self.n);
        // Window expiry: the reply is overdue — retransmit the request.
        if self.req_sent && self.hs_waited > self.policy.backoff(self.hs_attempt) {
            self.hs_attempt += 1;
            if self.hs_attempt >= self.policy.max_attempts {
                return Err(ProtocolError::Timeout {
                    waiting_for: "xfer reply",
                    cycles: self.policy.backoff(self.hs_attempt - 1),
                    node: Some(src),
                    attempts: self.hs_attempt,
                });
            }
            self.resend_due = true;
            self.hs_waited = 0;
        }
        let mut progress = false;
        // Allocation request. The first issue is ordinary buffer
        // management; recovery retransmissions are fault tolerance.
        if !self.stalled && (!self.req_sent || self.resend_due) {
            let feature = if self.req_sent {
                Feature::FaultTol
            } else {
                Feature::BufferMgmt
            };
            // The request is epoch-stamped: the header carries the
            // session epoch, the length rides in the (always-sent)
            // payload words — same packet shape, same cost.
            let len = self.data.len() as u32;
            let epoch = self.epoch;
            let node = m.node_mut(src);
            if node.send_ctl_as(feature, dst, Tags::XFER_REQ, epoch, [len, 0, 0, 0]) {
                self.req_sent = true;
                self.resend_due = false;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // The destination answers a request — the first from the
        // allocation body (buffer management), a duplicate from its
        // epoch-keyed session table (fault tolerance). The table lookup
        // is what a crash-restart observably erases.
        if self.reply_pending.is_none() && peek_is(m, dst, src, Tags::XFER_REQ) {
            let open = m.session(dst, src).copied().filter(|s| s.epoch == self.epoch);
            if let Some(entry) = open {
                debug_assert_eq!(Some((entry.seg, entry.buffer)), self.segment);
                let node = m.node_mut(dst);
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    let (_, tag, _, _) = node.recv_ctl_now();
                    debug_assert_eq!(tag, Tags::XFER_REQ);
                });
                self.reply_pending = Some(Feature::FaultTol);
            } else {
                // A leftover same-pair session of an *earlier* epoch —
                // its sender crashed mid-transfer, or the op was
                // re-executed by the recovery plane — is reclaimed
                // before the fresh allocation. Recovery work, billed
                // like the TTL sweep would bill it.
                if m.session(dst, src).is_some_and(|s| s.epoch != self.epoch) {
                    m.close_session(dst, src);
                    let cpu = m.cpu(dst);
                    cpu.with_feature(Feature::FaultTol, |c| {
                        c.reg(Fine::RegOp, recovery::SESSION_GC_REG);
                        c.mem_store(recovery::SESSION_GC_MEM);
                    });
                }
                let epoch = self.epoch;
                let node = m.node_mut(dst);
                let cpu = node.cpu.clone();
                let seg = cpu.with_feature(Feature::BufferMgmt, |_| {
                    let (_, tag, header, words) = node.recv_ctl_now();
                    debug_assert_eq!(tag, Tags::XFER_REQ);
                    debug_assert_eq!(header, epoch);
                    let words = words[0] as usize;
                    let buffer = node.mem.alloc(words.div_ceil(n) * n);
                    node.cpu.reg(Fine::RegOp, segment::ASSOCIATE_REG);
                    node.cpu.mem_store(segment::ASSOCIATE_MEM);
                    ((buffer.0 & 0xffff) as u32 ^ 0x5e60_0000, buffer)
                });
                self.segment = Some(seg);
                // Record the open session so a crash-restart of the
                // receiver observably erases it — and so the TTL sweep
                // can reclaim it if the *sender* crashes and never
                // finishes the transfer.
                m.open_session(dst, src, self.epoch, seg);
                self.reply_pending = Some(Feature::BufferMgmt);
            }
            progress = true;
        }
        // The reply itself.
        if let Some(feature) = self.reply_pending {
            if !self.stalled {
                let seg = self.segment.expect("reply implies allocation").0;
                let epoch = self.epoch;
                let node = m.node_mut(dst);
                if node.send_ctl_as(feature, src, Tags::XFER_REPLY, epoch, [seg, 0, 0, 0]) {
                    self.reply_pending = None;
                    progress = true;
                } else {
                    self.stalled = true;
                }
            }
        }
        // Source receives the reply. On the first window this is what
        // the plain protocol pays (buffer management); after a
        // retransmission it is recovery work.
        if let Some((seg, buffer)) = self.segment.filter(|_| peek_is(m, src, dst, Tags::XFER_REPLY)) {
            let feature = if self.hs_attempt == 0 {
                Feature::BufferMgmt
            } else {
                Feature::FaultTol
            };
            let epoch = self.epoch;
            let node = m.node_mut(src);
            let cpu = node.cpu.clone();
            cpu.with_feature(feature, |_| {
                let (_, tag, header, words) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_REPLY);
                debug_assert_eq!(header, epoch);
                debug_assert_eq!(words[0], seg);
            });
            self.rx.buffer = buffer;
            transfer_prologue(m, src, dst);
            self.phase = ReliablePhase::Transfer;
            self.drain_waited = 0;
            return Ok(Stepped::Progress);
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }

    fn step_transfer(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        let (src, dst, n) = (self.src, self.dst, self.n);
        // Drain stalled for a whole backoff window with packets still
        // missing: recover via NACK + selective retransmission.
        if self.rx.packets_received < self.rx.packets_expected
            && self.next_packet == self.packets
            && self.drain_waited > self.policy.backoff(self.drain_attempt)
        {
            self.drain_attempt += 1;
            if self.drain_attempt >= self.policy.max_attempts {
                return Err(ProtocolError::Timeout {
                    waiting_for: "xfer data packets",
                    cycles: self.drain_waited,
                    node: Some(dst),
                    attempts: self.drain_attempt,
                });
            }
            self.nack_rounds += 1;
            self.nack_pending = true;
            self.nack_charge_due = true;
            self.drain_waited = 0;
        }
        let mut progress = false;
        // Selective retransmissions named by a received NACK go first.
        while let Some(&k) = self.retransmit_queue.front() {
            if self.stalled {
                break;
            }
            let offset = k * n as u64;
            let nonce = self.nonce;
            let src_buf = self.src_buf;
            let cpu = m.cpu(src);
            let accepted = cpu.with_feature(Feature::FaultTol, |_| {
                m.send_data_packet(src, dst, src_buf, offset, n, PayloadEngine::Cpu, nonce)
            });
            if accepted {
                self.retransmit_queue.pop_front();
                self.data_retransmits += 1;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // Initial injection — identical to the plain protocol.
        if !self.stalled {
            while self.next_packet < self.packets {
                let offset = self.next_packet * n as u64;
                if m.send_data_packet(
                    src,
                    dst,
                    self.src_buf,
                    offset,
                    n,
                    PayloadEngine::Cpu,
                    self.nonce,
                ) {
                    self.next_packet += 1;
                    progress = true;
                } else {
                    self.send_retries += 1;
                    self.stalled = true;
                    break;
                }
            }
        }
        // Fault-tolerant drain. Anything from our source at the queue
        // head is ours to classify (data, duplicated handshake
        // request, stray probe).
        while self.rx.packets_received < self.rx.packets_expected {
            let Some(meta) = m.rx_peek_at(dst) else { break };
            if meta.src != src
                || !(meta.tag == Tags::XFER_DATA
                    || meta.tag == Tags::XFER_REQ
                    || meta.tag == Tags::XFER_PROBE)
            {
                break;
            }
            if m.recv_one_data_tolerant(dst, n, &mut self.rx, &mut self.seen, self.nonce) {
                progress = true;
            } else {
                break;
            }
        }
        // A late duplicated reply at the source is recovery noise.
        if peek_is(m, src, dst, Tags::XFER_REPLY) {
            m.discard_stray(src);
            progress = true;
        }
        // NACK emission (destination): gap scan + NACK packet.
        if self.nack_pending && !self.stalled {
            if self.nack_charge_due {
                let node = m.node_mut(dst);
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    node.cpu.reg(Fine::RegOp, recovery::GAP_SCAN_REG);
                    node.cpu.mem_store(recovery::NACK_STATE_MEM);
                });
                self.nack_charge_due = false;
            }
            match first_missing(&self.seen) {
                None => self.nack_pending = false, // gap closed meanwhile
                Some(first) => {
                    let bits = missing_bitmap(&self.seen, first);
                    // Epoch-stamp the NACK: nonce in the high bits, the
                    // first missing offset (< 2^20) below it.
                    let hdr = self.nonce | first as u32;
                    let node = m.node_mut(dst);
                    if node.send_ctl_as(Feature::FaultTol, src, Tags::XFER_NACK, hdr, bits) {
                        self.nack_pending = false;
                        progress = true;
                    } else {
                        self.stalled = true;
                    }
                }
            }
        }
        // NACK reception (source): build the retransmit queue.
        if peek_is(m, src, dst, Tags::XFER_NACK) {
            let node = m.node_mut(src);
            let cpu = node.cpu.clone();
            let (first, bits) = cpu.with_feature(Feature::FaultTol, |c| {
                let (_, tag, header, words) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_NACK);
                c.reg(Fine::RegOp, recovery::RETRANSMIT_SETUP_REG);
                (header & OFFSET_MASK, words)
            });
            for rel in 0..128u32 {
                if bits[rel as usize / 32] >> (rel % 32) & 1 == 0 {
                    continue;
                }
                let k = u64::from(first) + u64::from(rel);
                if k >= self.packets {
                    break;
                }
                self.retransmit_queue.push_back(k);
            }
            progress = true;
        }
        if progress {
            self.drain_waited = 0;
        }
        if self.next_packet == self.packets
            && self.rx.packets_received == self.rx.packets_expected
            && self.retransmit_queue.is_empty()
            && !self.nack_pending
        {
            // Free the segment — identical to the plain protocol.
            let node = m.node_mut(dst);
            node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, xfer_order::DST_FINAL);
            });
            node.cpu.mem_store(xfer_recv::EXIT_STATE_MEM);
            node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                cpu.reg(Fine::RegOp, segment::DISASSOCIATE_REG);
                cpu.mem_store(segment::DISASSOCIATE_MEM);
            });
            m.close_session(dst, src);
            self.phase = ReliablePhase::SendAck;
            self.ack_waited = 0;
            return Ok(Stepped::Progress);
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }

    fn step_send_ack(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if self.ack_waited > m.config().max_wait_cycles {
            return Err(ProtocolError::timeout(
                "control-packet injection",
                self.ack_waited,
            ));
        }
        if self.stalled {
            return Ok(Stepped::Idle);
        }
        let seg = self.segment.expect("segment allocated").0;
        let epoch = self.epoch;
        let src = self.src;
        let node = m.node_mut(self.dst);
        if node.send_ctl_as(Feature::FaultTol, src, Tags::XFER_ACK, epoch, [seg, 0, 0, 0]) {
            self.phase = ReliablePhase::AwaitAck;
            self.ack_waited = 0;
            Ok(Stepped::Progress)
        } else {
            self.stalled = true;
            Ok(Stepped::Idle)
        }
    }

    fn step_await_ack(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        let (src, dst) = (self.src, self.dst);
        let seg = self.segment.expect("segment allocated").0;
        let epoch = self.epoch;
        // Window expiry: the acknowledgement is overdue — probe.
        if self.ack_waited > self.policy.backoff(self.ack_attempt) {
            self.ack_attempt += 1;
            if self.ack_attempt >= self.policy.max_attempts {
                return Err(ProtocolError::Timeout {
                    waiting_for: "xfer acknowledgement",
                    cycles: self.policy.backoff(self.ack_attempt - 1),
                    node: Some(src),
                    attempts: self.ack_attempt,
                });
            }
            self.ack_probes += 1;
            self.probe_pending = true;
            self.ack_waited = 0;
        }
        let mut progress = false;
        if self.probe_pending && !self.stalled {
            let node = m.node_mut(src);
            if node.send_ctl_as(Feature::FaultTol, dst, Tags::XFER_PROBE, epoch, [seg, 0, 0, 0]) {
                self.probe_pending = false;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // The destination answers a probe with a re-acknowledgement.
        if peek_is(m, dst, src, Tags::XFER_PROBE) {
            let node = m.node_mut(dst);
            let cpu = node.cpu.clone();
            cpu.with_feature(Feature::FaultTol, |_| {
                let (_, tag, _, _) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_PROBE);
            });
            self.reack_pending = true;
            progress = true;
        }
        if self.reack_pending && !self.stalled {
            let node = m.node_mut(dst);
            if node.send_ctl_as(Feature::FaultTol, src, Tags::XFER_ACK, epoch, [seg, 0, 0, 0]) {
                self.reack_pending = false;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // Stray late data at the destination (retransmitted duplicates
        // still in flight) is discarded as recovery work.
        if m.rx_peek_at(dst).is_some_and(|meta| {
            meta.src == src && (meta.tag == Tags::XFER_DATA || meta.tag == Tags::XFER_REQ)
        }) {
            m.discard_stray(dst);
            progress = true;
        }
        // A duplicated reply of this same epoch arriving after the
        // transfer completed (handshake retransmission crossing the
        // data phase) would otherwise sit at the head of the source's
        // queue and block the final acknowledgement.
        if peek_is(m, src, dst, Tags::XFER_REPLY) {
            m.discard_stray(src);
            progress = true;
        }
        if peek_is(m, src, dst, Tags::XFER_ACK) {
            let node = m.node_mut(src);
            let cpu = node.cpu.clone();
            cpu.with_feature(Feature::FaultTol, |_| {
                let (_, tag, header, words) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_ACK);
                debug_assert_eq!(header, epoch);
                debug_assert_eq!(words[0], seg);
            });
            return Ok(Stepped::Done(OpOutcome::Reliable(ReliableOutcome {
                xfer: XferOutcome {
                    dst_buffer: self.rx.buffer,
                    packets: self.packets,
                    segment_id: seg,
                    send_retries: self.send_retries,
                },
                handshake_retries: self.hs_attempt,
                data_retransmits: self.data_retransmits,
                nack_rounds: self.nack_rounds,
                ack_probes: self.ack_probes,
            })));
        }
        // A stale NACK arriving after the data phase completed.
        if peek_is(m, src, dst, Tags::XFER_NACK) {
            m.discard_stray(src);
            progress = true;
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

impl OpMachine for ReliableOp {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)> {
        Some((KeyClass::Xfer, self.src, self.dst))
    }

    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        claims_transfer(node, meta, self.src, self.dst)
    }

    /// A parked transfer shields nothing: its next execution opens a
    /// fresh epoch, so the receiver's stale-epoch session is exactly
    /// what the sweep should reclaim.
    fn gc_exempt(&self, parked: bool) -> Option<GcExempt> {
        (!parked).then_some(GcExempt::Session(self.dst, self.src))
    }

    /// A re-execution restarts from scratch (`start` opens a fresh
    /// session epoch).
    fn reset(&mut self) {
        let data = std::mem::take(&mut self.data);
        *self = ReliableOp::new(self.src, self.dst, data, self.n, self.policy.clone());
    }

    fn start(&mut self, m: &mut Machine) {
        self.src_buf = m.write_buffer(self.src, &self.data);
        // Epoch allocation is host-side session bookkeeping (the epoch
        // rides in header fields the wire format already carries), so a
        // clean run stays instruction-identical to the plain protocol.
        self.epoch = m.next_session_epoch(self.src, self.dst);
        self.nonce = (self.epoch & 0xfff) << OFFSET_BITS;
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        match self.phase {
            ReliablePhase::Handshake => self.hs_waited += k,
            ReliablePhase::Transfer => self.drain_waited += k,
            ReliablePhase::SendAck | ReliablePhase::AwaitAck => self.ack_waited += k,
        }
    }

    /// Per-phase quiet windows. Only the phase's own waited counter
    /// advances on a tick, so the next timer-driven action (handshake
    /// resend, receiver NACK round, ack resend/probe) is a closed form
    /// over that counter. A source mid-burst or a receiver mid-drain is
    /// packet-driven: it acts on arrivals (endpoint wakes) or because
    /// an injection stall cleared, never from a timer alone — `MAX`
    /// with the no-progress watchdog as the backstop.
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled {
            return 1;
        }
        match self.phase {
            ReliablePhase::Handshake => {
                if self.req_sent {
                    win(self.policy.backoff(self.hs_attempt), self.hs_waited)
                } else {
                    1
                }
            }
            ReliablePhase::Transfer => {
                if self.rx.packets_received < self.rx.packets_expected
                    && self.next_packet == self.packets
                {
                    // Receiver drain window: a quiet stretch triggers
                    // the next NACK round.
                    win(self.policy.backoff(self.drain_attempt), self.drain_waited)
                } else {
                    u64::MAX
                }
            }
            ReliablePhase::SendAck => win(max_wait, self.ack_waited),
            ReliablePhase::AwaitAck => win(self.policy.backoff(self.ack_attempt), self.ack_waited),
        }
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        check_restart(m, self.src, self.dst, self.peer_restarts)?;
        if self.sweep_stale(m) {
            return Ok(Stepped::Progress);
        }
        match self.phase {
            ReliablePhase::Handshake => self.step_handshake(m),
            ReliablePhase::Transfer => self.step_transfer(m),
            ReliablePhase::SendAck => self.step_send_ack(m),
            ReliablePhase::AwaitAck => self.step_await_ack(m),
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
    use timego_netsim::{
        DeliveryScript, FaultConfig, Mesh2D, ScriptedNetwork, SwitchedConfig, SwitchedNetwork,
    };
    use timego_ni::share;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn scripted_machine(script: DeliveryScript) -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, script)),
            2,
            CmamConfig::default(),
        )
    }

    fn switched_machine(fault: FaultConfig, seed: u64) -> Machine {
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
            let out = reliable
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
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
        reliable
            .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
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
            let out = m
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
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
            let out = m
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
                .unwrap();
            if out.data_retransmits == 0 || out.handshake_retries > 0 || out.ack_probes > 0 {
                continue;
            }
            let mut clean = switched_machine(FaultConfig::default(), seed);
            clean.reset_costs();
            clean
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
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
            m.xfer_reliable(n(0), n(1), &data, &RetryPolicy::default()),
            Err(ProtocolError::BadTransfer(_))
        ));
    }
}
