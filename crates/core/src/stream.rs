//! The CMAM indefinite-sequence, multi-packet protocol (ordered
//! streams / sockets).
//!
//! Protocol steps (Figure 4 of the paper):
//!
//! 1. the sender **buffers** each outgoing packet (to support
//!    retransmission) — fault tolerance;
//! 2. the sender transmits it as a single-packet transfer carrying a
//!    **sequence number** — base + in-order delivery;
//! 3. the receiver **buffers out-of-order packets**, invoking the user
//!    handler for each packet that arrives in transmission order —
//!    in-order delivery;
//! 4. each packet (or each group of [`StreamConfig::ack_period`]
//!    packets) is **acknowledged**, releasing source storage — fault
//!    tolerance.
//!
//! Unlike the finite-sequence protocol, this one is genuinely reliable:
//! unacknowledged packets are retransmitted after a timeout and
//! duplicates are discarded (and re-acknowledged, in case the
//! acknowledgement itself was lost), so a stream completes even over a
//! corrupting, detect-only network.

use std::collections::VecDeque;

use timego_cost::{Feature, Fine};
use timego_netsim::{NodeId, RxMeta};

use crate::costs::{ctl_send, stream_dst, stream_src};
use crate::engine::OpOutcome;
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::{check_restart, pairwise, win, KeyClass, Op, OpMachine, Stepped};
use crate::retry::RecoveryPolicy;

/// Identifies an open stream on a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// Stream protocol parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Acknowledge every `ack_period` packets (1 = the paper's
    /// per-packet acknowledgement; larger values are its group-
    /// acknowledgement variant, which trades source-buffer residency
    /// for fewer acknowledgements).
    pub ack_period: u64,
    /// Maximum unacknowledged packets in flight (source-buffer slots).
    /// A send on a stream with no slot could never inject, so it is
    /// rejected at submission.
    pub window: usize,
    /// Driver iterations without progress before the oldest
    /// unacknowledged packet is retransmitted.
    pub rto_iterations: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ack_period: 1,
            window: 1 << 20,
            rto_iterations: 4096,
        }
    }
}

/// Result of one [`Machine::stream_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Data packets transmitted (excluding retransmissions).
    pub packets: u64,
    /// Acknowledgement packets processed at the source.
    pub acks: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Duplicate packets discarded at the receiver.
    pub duplicates: u64,
    /// Packets that arrived out of transmission order and were buffered.
    pub out_of_order: u64,
}

/// Per-stream protocol state (split between what conceptually lives at
/// the source and at the destination; costs are always charged to the
/// owning node's recorder).
#[derive(Debug)]
pub(crate) struct StreamState {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    cfg: StreamConfig,
    // Source side.
    next_seq: u64,
    unacked: SeqWindow,
    // Destination side.
    expected: u64,
    ooo: SeqWindow,
    arrived_contig: u64,
    arrivals_since_ack: u64,
    delivered: Vec<u32>,
    total_pushed_words: usize,
    /// The payload of the packet being received, read out of the NI
    /// before the sequence check decides where it goes.
    rx: Vec<u32>,
}

/// The stream's host-side buffer of sequenced payloads — the source's
/// unacknowledged copies and the destination's out-of-order arrivals:
/// at most one `n`-word payload per sequence number, kept in a ring at
/// slot `seq % capacity` with the payloads in one flat buffer of `n`
/// words per slot. Insert, remove, lookup and the oldest entry are
/// O(1) amortised and allocate nothing; the ring is re-laid at the next
/// power of two only when a sequence number falls outside it, and a
/// cumulative release walks the span it releases.
///
/// Every present sequence number lies in `base..end`, `base` is the
/// oldest one present, and `end - base` never exceeds the capacity
/// (0 or a power of two). While empty, `end == base`.
#[derive(Debug)]
struct SeqWindow {
    /// Payload words per slot.
    n: usize,
    base: u64,
    end: u64,
    /// Present entries.
    live: usize,
    /// One occupancy flag per slot.
    present: Vec<bool>,
    /// `n` words per slot.
    words: Vec<u32>,
}

impl SeqWindow {
    fn new(n: usize) -> Self {
        SeqWindow { n, base: 0, end: 0, live: 0, present: Vec::new(), words: Vec::new() }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The ring slot of `seq` (the capacity is a power of two).
    fn slot(&self, seq: u64) -> usize {
        (seq as usize) & (self.present.len() - 1)
    }

    fn payload(&self, slot: usize) -> &[u32] {
        &self.words[slot * self.n..(slot + 1) * self.n]
    }

    fn contains(&self, seq: u64) -> bool {
        (self.base..self.end).contains(&seq) && self.present[self.slot(seq)]
    }

    fn get(&self, seq: u64) -> Option<&[u32]> {
        self.contains(seq).then(|| self.payload(self.slot(seq)))
    }

    /// The oldest entry.
    fn oldest(&self) -> Option<(u64, &[u32])> {
        (self.live > 0).then(|| (self.base, self.payload(self.slot(self.base))))
    }

    /// File `payload` (at most `n` words, zero-padded to `n`) under
    /// `seq`, replacing what is there. `seq` may lie behind the oldest
    /// entry: a resumed send refiles sequence numbers below `next_seq`.
    fn insert(&mut self, seq: u64, payload: &[u32]) {
        let (lo, hi) = if self.live == 0 {
            (seq, seq + 1)
        } else {
            (self.base.min(seq), self.end.max(seq + 1))
        };
        if hi - lo > self.present.len() as u64 {
            self.grow(hi - lo);
        }
        (self.base, self.end) = (lo, hi);
        let slot = self.slot(seq);
        if !self.present[slot] {
            self.present[slot] = true;
            self.live += 1;
        }
        let n = self.n;
        let words = &mut self.words[slot * n..(slot + 1) * n];
        words[..payload.len()].copy_from_slice(payload);
        words[payload.len()..].fill(0);
    }

    /// Re-lay the ring at the power-of-two capacity covering `span`.
    fn grow(&mut self, span: u64) {
        let cap = usize::try_from(span)
            .ok()
            .and_then(usize::checked_next_power_of_two)
            .expect("stream window span fits in memory");
        let n = self.n;
        let mut grown = SeqWindow {
            present: vec![false; cap],
            words: vec![0; cap * n],
            ..*self
        };
        for seq in self.base..self.end {
            if let Some(payload) = self.get(seq) {
                let to = grown.slot(seq);
                grown.present[to] = true;
                grown.words[to * n..(to + 1) * n].copy_from_slice(payload);
            }
        }
        *self = grown;
    }

    /// Drop `seq`'s entry (nothing if absent, e.g. a duplicate ack) and
    /// return its payload, readable until the next insert.
    fn remove(&mut self, seq: u64) -> Option<&[u32]> {
        if !self.contains(seq) {
            return None;
        }
        let slot = self.slot(seq);
        self.present[slot] = false;
        self.live -= 1;
        self.settle();
        Some(self.payload(slot))
    }

    /// Drop every entry below `seq` (a cumulative acknowledgement,
    /// which may lie past the newest entry).
    fn retain_from(&mut self, seq: u64) {
        while self.live > 0 && self.base < seq {
            let slot = self.slot(self.base);
            if self.present[slot] {
                self.present[slot] = false;
                self.live -= 1;
            }
            self.base += 1;
        }
        self.settle();
    }

    /// Drop everything (a crash-restart of the holding node).
    fn clear(&mut self) {
        self.present.fill(false);
        self.live = 0;
        self.end = self.base;
    }

    /// Restore "`base` is the oldest entry" after a removal.
    fn settle(&mut self) {
        if self.live == 0 {
            self.end = self.base;
            return;
        }
        while !self.present[self.slot(self.base)] {
            self.base += 1;
        }
    }
}

impl StreamState {
    /// The configured acknowledgement grouping (at least 1).
    fn ack_period(&self) -> u64 {
        self.cfg.ack_period.max(1)
    }

    /// Erase the in-flight cursors a crash-restart of `node` loses: the
    /// source side forgets what it had in flight, the destination side
    /// forgets what arrived out of order. Delivered words and sequence
    /// counters survive on the *other* endpoint, so only state held at
    /// the crashed node is dropped. Cost-free shadow-state erasure.
    pub(crate) fn crash_reset(&mut self, node: NodeId) {
        if self.src == node {
            self.unacked.clear();
        }
        if self.dst == node {
            self.ooo.clear();
        }
    }

    /// Whether the source window admits another in-flight packet.
    fn window_open(&self) -> bool {
        self.unacked.len() < self.cfg.window
    }

    /// Source-buffer slots (0 can never inject; submission rejects it).
    pub(crate) fn window(&self) -> usize {
        self.cfg.window
    }

    /// Idle iterations before the retransmission timer fires.
    pub(crate) fn rto_iterations(&self) -> u64 {
        self.cfg.rto_iterations
    }
}

impl Machine {
    /// Open a stream (a static channel, in the paper's terms) from `src`
    /// to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `src == dst`.
    pub fn open_stream(&mut self, src: NodeId, dst: NodeId, cfg: StreamConfig) -> StreamId {
        assert!(src.index() < self.nodes.len() && dst.index() < self.nodes.len());
        assert_ne!(src, dst, "stream endpoints must differ");
        let id = StreamId(self.streams.len());
        let n = self.cfg.packet_words;
        self.streams.push(StreamState {
            src,
            dst,
            cfg,
            next_seq: 0,
            unacked: SeqWindow::new(n),
            expected: 0,
            ooo: SeqWindow::new(n),
            arrived_contig: 0,
            arrivals_since_ack: 0,
            delivered: Vec::new(),
            total_pushed_words: 0,
            rx: Vec::with_capacity(n),
        });
        id
    }

    /// The words delivered *in order* to the receiving endpoint so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn stream_received(&self, id: StreamId) -> &[u32] {
        &self.streams[id.0].delivered
    }

    /// Send `data` down the stream, driving both endpoints until every
    /// packet is delivered, in order, and every source buffer slot is
    /// released by an acknowledgement.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for empty data, a stream id this
    /// machine never opened, or a stream opened with `window: 0`;
    /// [`ProtocolError::Timeout`] if the stream
    /// cannot make progress for the configured bound (even with
    /// retransmission — e.g. the substrate is wedged).
    pub fn stream_send(&mut self, id: StreamId, data: &[u32]) -> Result<StreamOutcome, ProtocolError> {
        match self.run_blocking(Op::stream_send(id, data))? {
            (OpOutcome::Stream(out), _) => Ok(out),
            _ => unreachable!("stream op yields a stream outcome"),
        }
    }

    /// [`Machine::stream_send`] hardened against node crash-restarts:
    /// when the send dies with a retryable error (an endpoint crashed
    /// mid-burst, the watchdog fired), the engine parks the op for the
    /// policy's backoff window and *resumes* it — the re-execution keeps
    /// the original sequence range and consults the receiver's
    /// next-expected cursor, so packets the first execution already
    /// delivered are skipped, convergence is exactly-once and the
    /// delivered byte stream is exact. Every re-execution bills the
    /// session-restart shape to `Feature::FaultTol` at the source; a
    /// clean run is instruction-identical to [`Machine::stream_send`].
    ///
    /// Returns the outcome plus the number of re-executions (zero when
    /// the first execution succeeded).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for empty data, a stream id this
    /// machine never opened, a stream opened with `window: 0`, or a
    /// zero-execution policy; otherwise the
    /// last execution's error once the recovery budget is exhausted
    /// (non-retryable errors surface immediately).
    pub fn stream_send_recovering(
        &mut self,
        id: StreamId,
        data: &[u32],
        recovery: &RecoveryPolicy,
    ) -> Result<(StreamOutcome, u32), ProtocolError> {
        match self.run_blocking(Op::stream_send(id, data).recovering(recovery))? {
            (OpOutcome::Stream(out), re_executions) => Ok((out, re_executions)),
            _ => unreachable!("stream op yields a stream outcome"),
        }
    }

    /// Immutable view of a stream's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub(crate) fn stream_state(&self, id: StreamId) -> &StreamState {
        &self.streams[id.0]
    }

    /// Whether `id` names a stream opened on this machine.
    pub(crate) fn has_stream(&self, id: StreamId) -> bool {
        id.0 < self.streams.len()
    }

    /// Per-burst receiver entry: one receive poll + handler prologue
    /// (the "+13" constant of Table 3's destination base).
    fn stream_entry_charge(&mut self, id: StreamId) {
        let dstn = self.streams[id.0].dst;
        let node = self.node_mut(dstn);
        node.cpu.call(stream_dst::ENTRY_CALL);
        node.cpu.ctrl(stream_dst::ENTRY_CTRL);
        let _ = node.ni.poll_status();
    }

    /// Retransmit the oldest unacknowledged packet (one attempt, charged
    /// to fault tolerance). Returns `false` when nothing is buffered.
    fn stream_retransmit_oldest(&mut self, id: StreamId) -> bool {
        let st = &self.streams[id.0];
        let Some((seq, payload)) = st.unacked.oldest() else {
            return false;
        };
        let node = &mut self.nodes[st.src.index()];
        let n = payload.len();
        node.cpu.clone().with_feature(Feature::FaultTol, |_| {
            let _ = send_stream_packet(node, st.dst, Tags::STREAM_DATA, seq, payload, n);
        });
        true
    }

    /// Trim padding from the final packet (harness bookkeeping; the
    /// application-level framing is outside the measured layer).
    fn stream_epilogue(&mut self, id: StreamId, pushed_words: usize) {
        let st = &mut self.streams[id.0];
        st.total_pushed_words += pushed_words;
        st.delivered.truncate(st.total_pushed_words);
    }

    /// Inject one sequenced, source-buffered `n`-word data packet whose
    /// payload is `payload` zero-padded to `n` words. Returns `false`
    /// on backpressure.
    fn stream_inject(&mut self, id: StreamId, seq: u64, payload: &[u32], n: usize) -> bool {
        let (srcn, dstn) = (self.streams[id.0].src, self.streams[id.0].dst);
        let node = self.node_mut(srcn);

        // In-order delivery: generate the sequence number (the channel
        // sequence state lives in memory).
        node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
            cpu.reg(Fine::RegOp, stream_src::SEQ_REG);
            cpu.mem_load(1);
            cpu.mem_store(2);
        });
        // Fault tolerance: keep a copy for retransmission.
        node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
            cpu.reg(Fine::RegOp, stream_src::BUF_REG);
            cpu.mem_store((n / 2) as u64);
        });
        // Base: the single-packet send itself.
        if !send_stream_packet(node, dstn, Tags::STREAM_DATA, seq, payload, n) {
            return false;
        }

        let st = &mut self.streams[id.0];
        st.unacked.insert(seq, payload);
        st.next_seq = st.next_seq.max(seq + 1);
        true
    }

    /// Receive and process one stream packet at the destination, if one
    /// is pending. Returns `true` if a packet was consumed. Owed
    /// acknowledgements are queued on `acks` as `(value, cumulative)`
    /// pairs rather than injected inline, so the caller can retry them
    /// under backpressure without re-draining.
    fn stream_drain_one(
        &mut self,
        id: StreamId,
        n: usize,
        outcome: &mut StreamOutcome,
        acks: &mut VecDeque<(u64, bool)>,
    ) -> bool {
        let dstn = self.streams[id.0].dst;
        let srcn = self.streams[id.0].src;
        // Harness-level emptiness/identification check (cost-free): the
        // paper's counts take "execution paths which minimize the
        // instruction count", i.e. the poll that would discover an empty
        // FIFO is not charged to the protocol, and packets belonging to
        // other in-flight operations are left for their owners.
        let Some(meta) = self.rx_peek_at(dstn) else {
            return false;
        };
        if meta.src != srcn || meta.tag != Tags::STREAM_DATA {
            return false;
        }
        let node = &mut self.nodes[dstn.index()];

        let Some((_, tag)) = node.ni.latch_rx() else {
            return false;
        };
        debug_assert_eq!(tag, Tags::STREAM_DATA);
        node.cpu.reg(Fine::Handler, stream_dst::PER_PACKET_REG);
        let seq = u64::from(node.ni.read_header());
        let st = &mut self.streams[id.0];
        st.rx.clear();
        for _ in 0..(n / 2) {
            let (w0, w1) = node.ni.read_payload2();
            st.rx.extend([w0, w1]);
        }

        let cpu = node.cpu.clone();
        if seq == st.expected {
            // In sequence: the cheap path — compare, deliver, bump.
            cpu.with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, stream_dst::INSEQ_REG);
            });
            st.delivered.extend_from_slice(&st.rx);
            st.expected += 1;
            // Drain any buffered successors now in sequence.
            while let Some(buffered) = st.ooo.remove(st.expected) {
                cpu.with_feature(Feature::InOrder, |cpu| {
                    cpu.reg(Fine::RegOp, stream_dst::OOO_DRAIN_REG);
                    cpu.mem_load((n + 1) as u64); // word-granularity copy-out
                    cpu.mem_load(stream_dst::OOO_UNLINK_MEM);
                });
                st.delivered.extend_from_slice(buffered);
                st.expected += 1;
            }
        } else if seq > st.expected {
            // Out of order: buffer it (the expensive path).
            outcome.out_of_order += 1;
            cpu.with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, stream_dst::OOO_BUFFER_REG);
                cpu.mem_store((n + 1) as u64); // word-granularity copy-in
                cpu.mem_store(stream_dst::OOO_INSERT_MEM);
            });
            st.ooo.insert(seq, &st.rx);
        } else {
            // Duplicate (a retransmission of something already seen):
            // discard, and re-acknowledge in case the ack was lost.
            outcome.duplicates += 1;
            cpu.with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, stream_dst::INSEQ_REG + stream_dst::DUP_EXTRA_REG);
            });
            acks.push_back((seq, false));
            return true;
        }

        // Acknowledgement policy.
        let st = &mut self.streams[id.0];
        st.arrived_contig = contiguous_arrived(st);
        st.arrivals_since_ack += 1;
        let period = st.cfg.ack_period.max(1);
        let due = st.arrivals_since_ack >= period;
        if period == 1 {
            acks.push_back((seq, false));
            self.streams[id.0].arrivals_since_ack = 0;
        } else if due {
            // Group (cumulative) acknowledgement: everything below the
            // contiguous-arrival mark is covered.
            let cum = self.streams[id.0].arrived_contig;
            acks.push_back((cum, true));
            self.streams[id.0].arrivals_since_ack = 0;
        }
        true
    }

    /// One attempt at injecting a (possibly cumulative) acknowledgement
    /// from the stream's receiver back to its source. Returns `false` on
    /// backpressure; the caller requeues and retries.
    fn stream_try_send_ack(&mut self, id: StreamId, value: u64, cumulative: bool) -> bool {
        let (srcn, dstn) = (self.streams[id.0].src, self.streams[id.0].dst);
        let flags = if cumulative { [1, 0, 0, 0] } else { [0, 0, 0, 0] };
        self.node_mut(dstn).send_ctl_as(Feature::FaultTol, srcn, Tags::STREAM_ACK, value as u32, flags)
    }

    /// Receive one acknowledgement at the source, if pending, releasing
    /// the covered source-buffer slot(s).
    fn stream_take_ack(&mut self, id: StreamId, outcome: &mut StreamOutcome) -> bool {
        let srcn = self.streams[id.0].src;
        let dstn = self.streams[id.0].dst;
        // Cost-free emptiness/identification check, as in the drain
        // path: the status poll is charged per processed acknowledgement
        // (part of its 18 reg + 5 dev budget), not for discovering an
        // idle FIFO.
        let Some(meta) = self.rx_peek_at(srcn) else {
            return false;
        };
        if meta.src != dstn || meta.tag != Tags::STREAM_ACK {
            return false;
        }
        let node = self.node_mut(srcn);
        let cpu = node.cpu.clone();
        let taken = cpu.with_feature(Feature::FaultTol, |cpu| {
            if !node.ni.poll_status() {
                return None;
            }
            let ack = node.read_msg()?;
            debug_assert_eq!(ack.tag, Tags::STREAM_ACK);
            cpu.reg(Fine::RegOp, stream_src::ACK_RECV_REG);
            Some((u64::from(ack.header), ack.words[0] == 1))
        });
        let Some((seq, cumulative)) = taken else {
            return false;
        };
        let st = &mut self.streams[id.0];
        if cumulative {
            st.unacked.retain_from(seq);
        } else {
            st.unacked.remove(seq);
        }
        outcome.acks += 1;
        true
    }
}

/// One burst on an open stream as an engine operation: both endpoints
/// of Figure 4's four steps, interleaved one driver iteration per step.
pub(crate) struct StreamOp {
    id: StreamId,
    src: NodeId,
    dst: NodeId,
    data: Vec<u32>,
    n: usize,
    packets: u64,
    rto_iterations: u64,
    // Captured at start (an earlier send on the same stream may still
    // be advancing the sequence when this op is submitted).
    first_seq: u64,
    // Set on recovery re-executions: the first execution's `first_seq`,
    // learned once by `reset`. Resuming from it (instead of reading
    // `next_seq`) keeps the burst in its original sequence range, and
    // the start logic skips packets the receiver has already delivered
    // in-sequence — exactly-once.
    resume_base: Option<u64>,
    target_contig: u64,
    expected_acks: u64,
    outcome: StreamOutcome,
    sent: u64,
    pending_acks: VecDeque<(u64, bool)>,
    stalled: bool,
    rto_due: bool,
    idle_iterations: u64,
    total_iterations: u64,
    // Endpoint restart counters at start; see `check_restart`.
    peer_restarts: (u32, u32),
}

impl StreamOp {
    pub(crate) fn new(
        id: StreamId,
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        n: usize,
        rto_iterations: u64,
        resume_base: Option<u64>,
    ) -> Self {
        let packets = (data.len() as u64).div_ceil(n as u64);
        StreamOp {
            id,
            src,
            dst,
            data,
            n,
            packets,
            rto_iterations,
            first_seq: 0,
            resume_base,
            target_contig: 0,
            expected_acks: 0,
            outcome: StreamOutcome {
                packets,
                acks: 0,
                retransmits: 0,
                duplicates: 0,
                out_of_order: 0,
            },
            sent: 0,
            pending_acks: VecDeque::new(),
            stalled: false,
            rto_due: false,
            idle_iterations: 0,
            total_iterations: 0,
            peer_restarts: (0, 0),
        }
    }

    fn flush_acks(&mut self, m: &mut Machine) -> bool {
        let mut progress = false;
        while let Some(&(value, cumulative)) = self.pending_acks.front() {
            if self.stalled {
                break;
            }
            if m.stream_try_send_ack(self.id, value, cumulative) {
                self.pending_acks.pop_front();
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        progress
    }
}

impl OpMachine for StreamOp {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)> {
        Some((KeyClass::Stream, self.src, self.dst))
    }

    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        pairwise(node, meta.src, self.src, self.dst)
            && (meta.tag == Tags::STREAM_DATA || meta.tag == Tags::STREAM_ACK)
    }

    /// A failed first execution teaches the machine its base sequence,
    /// so re-executions resume the burst (exactly-once) instead of
    /// restarting it at a fresh sequence range.
    fn reset(&mut self) {
        let base = *self.resume_base.get_or_insert(self.first_seq);
        *self = StreamOp::new(
            self.id,
            self.src,
            self.dst,
            std::mem::take(&mut self.data),
            self.n,
            self.rto_iterations,
            Some(base),
        );
    }

    fn start(&mut self, m: &mut Machine) {
        let st = &m.streams[self.id.0];
        self.first_seq = self.resume_base.unwrap_or(st.next_seq);
        self.target_contig = self.first_seq + self.packets;
        self.expected_acks = self.packets.div_ceil(st.ack_period());
        if self.resume_base.is_some() {
            // Resume where the receiver's contiguous prefix ends:
            // packets already delivered in-sequence are not re-sent
            // (exactly-once); anything at or past the receiver's
            // expectation is. Stale unacked copies at the source drain
            // via the ordinary RTO/duplicate-ack machinery.
            self.sent = st.expected.saturating_sub(self.first_seq).min(self.packets);
        }
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
        m.stream_entry_charge(self.id);
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        // `total_iterations` counts engine cycles without progress
        // anywhere (each reference quantum that advances the clock
        // ticks every running op exactly once), so a batched tick is a
        // plain sum and the RTO counter wraps modulo its period.
        self.total_iterations += k;
        let total = self.idle_iterations + k;
        if total >= self.rto_iterations {
            self.rto_due = true;
            self.idle_iterations = total % self.rto_iterations.max(1);
        } else {
            self.idle_iterations = total;
        }
    }

    /// Injection stalls and ack-flush stalls set `stalled`; receives
    /// are head-gated. With neither a stall nor a due RTO, only the RTO
    /// counter reaching its period or the completion-timeout window
    /// closing can make a step non-idle without new packets.
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled || self.rto_due {
            return 1;
        }
        win(max_wait, self.total_iterations)
            .min(self.rto_iterations.saturating_sub(self.idle_iterations).max(1))
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        check_restart(m, self.src, self.dst, self.peer_restarts)?;
        let n = self.n;
        let mut progress = false;

        // Acknowledgements owed from earlier drains go out first: they
        // release source window slots.
        progress |= self.flush_acks(m);

        // Fault tolerance in action: retransmit the oldest
        // unacknowledged packet after a quiet window.
        if self.rto_due {
            self.rto_due = false;
            if m.stream_retransmit_oldest(self.id) {
                self.outcome.retransmits += 1;
                progress = true;
            }
        }

        // Phase 1: inject while the window is open.
        while self.sent < self.packets && !self.stalled && m.streams[self.id.0].window_open() {
            let seq = self.first_seq + self.sent;
            let base = (self.sent as usize) * n;
            let payload = &self.data[base..(base + n).min(self.data.len())];
            if m.stream_inject(self.id, seq, payload, n) {
                self.sent += 1;
                progress = true;
            } else {
                self.stalled = true;
            }
        }

        // Phase 2: the receiver drains data gated on this stream,
        // queueing acknowledgements as it goes.
        while self.pending_acks.is_empty()
            && m.stream_drain_one(self.id, n, &mut self.outcome, &mut self.pending_acks)
        {
            progress = true;
            progress |= self.flush_acks(m);
        }

        // Group-ack flush: the burst fully arrived but the final
        // partial group is not yet acknowledged.
        let st = &mut m.streams[self.id.0];
        if st.cfg.ack_period > 1
            && st.arrived_contig >= self.target_contig
            && st.arrivals_since_ack > 0
        {
            self.pending_acks.push_back((st.arrived_contig, true));
            st.arrivals_since_ack = 0;
            progress = true;
            progress |= self.flush_acks(m);
        }

        // Phase 3: the source processes acknowledgements.
        while (self.outcome.acks < self.expected_acks || !m.streams[self.id.0].unacked.is_empty())
            && m.stream_take_ack(self.id, &mut self.outcome)
        {
            progress = true;
        }

        // Termination: everything sent, delivered, and acknowledged.
        let st = &m.streams[self.id.0];
        if self.sent == self.packets
            && st.unacked.is_empty()
            && st.arrived_contig >= self.target_contig
            && self.pending_acks.is_empty()
        {
            m.stream_epilogue(self.id, self.data.len());
            return Ok(Stepped::Done(OpOutcome::Stream(self.outcome)));
        }

        if progress {
            self.idle_iterations = 0;
        }
        // `total_iterations` advances on ticks (once per no-progress
        // engine cycle), making the completion timeout a bound on quiet
        // *time* rather than on scheduler step count — the same clock
        // under both schedulers.
        if self.total_iterations > m.config().max_wait_cycles {
            return Err(ProtocolError::timeout(
                "stream completion",
                self.total_iterations,
            ));
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

/// Send one stream data packet carrying `payload` zero-padded to `n`
/// words (the control-send shape generalized to `n` payload words:
/// 14 reg + 1 mem + (n/2 + 3) dev).
fn send_stream_packet(
    node: &mut crate::machine::Node,
    dst: NodeId,
    tag: u8,
    seq: u64,
    payload: &[u32],
    n: usize,
) -> bool {
    node.cpu.call(ctl_send::CALL);
    node.cpu.reg(Fine::NiSetup, ctl_send::SETUP_REG);
    node.cpu.mem_load(ctl_send::STATE_MEM);
    node.ni.stage_envelope(dst, tag, seq as u32);
    let word = |i: usize| payload.get(i).copied().unwrap_or(0);
    for i in (0..n).step_by(2) {
        node.ni.push_payload2(word(i), word(i + 1));
    }
    node.cpu.reg(Fine::CheckStatus, ctl_send::STATUS_REG);
    node.cpu.ctrl(ctl_send::CTRL);
    node.ni.commit_send() && {
        node.ni.load_send_status();
        true
    }
}

fn contiguous_arrived(st: &StreamState) -> u64 {
    let mut mark = st.expected;
    // Packets buffered out of order extend the contiguous-arrival mark
    // only if they are consecutive from `expected`.
    while st.ooo.contains(mark) {
        mark += 1;
    }
    mark
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use crate::measure::pair_cost;
    use timego_cost::analytic::{cmam_indefinite, IndefiniteOpts, MsgShape};
    use timego_cost::paper::{self, Block};
    use timego_cost::Feature;
    use timego_netsim::{DeliveryScript, ScriptedNetwork};
    use timego_ni::share;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn machine(script: DeliveryScript) -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, script)),
            2,
            CmamConfig::default(),
        )
    }

    #[test]
    fn delivers_in_order_over_in_order_substrate() {
        let mut m = machine(DeliveryScript::InOrder);
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        let data: Vec<u32> = (100..164).collect();
        let out = m.stream_send(id, &data).unwrap();
        assert_eq!(out.packets, 16);
        assert_eq!(out.out_of_order, 0);
        assert_eq!(out.duplicates, 0);
        assert_eq!(m.stream_received(id), data.as_slice());
    }

    #[test]
    fn reorders_correctly_over_swapping_substrate() {
        let mut m = machine(DeliveryScript::AlternateSwap);
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        let data: Vec<u32> = (0..128).map(|i| i * 7).collect();
        let out = m.stream_send(id, &data).unwrap();
        // Exactly half the packets arrive out of order…
        assert_eq!(out.out_of_order, out.packets / 2);
        // …yet the user sees them in order.
        assert_eq!(m.stream_received(id), data.as_slice());
    }

    #[test]
    fn sequential_sends_continue_the_sequence() {
        let mut m = machine(DeliveryScript::AlternateSwap);
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        m.stream_send(id, &[1, 2, 3, 4, 5]).unwrap();
        m.stream_send(id, &[6, 7, 8]).unwrap();
        assert_eq!(m.stream_received(id), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn empty_send_is_rejected() {
        let mut m = machine(DeliveryScript::InOrder);
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        assert!(matches!(
            m.stream_send(id, &[]),
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
    fn matches_table2_at_16_words() {
        let mut m = machine(DeliveryScript::AlternateSwap);
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        let data: Vec<u32> = (0..16).collect();
        m.reset_costs();
        m.stream_send(id, &data).unwrap();
        assert_paper(Block::Indefinite16, &m);
    }

    #[test]
    fn matches_analytic_model_at_1024_words() {
        let mut m = machine(DeliveryScript::AlternateSwap);
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        let data: Vec<u32> = (0..1024).collect();
        m.reset_costs();
        m.stream_send(id, &data).unwrap();
        let shape = MsgShape::paper(1024).unwrap();
        let model = cmam_indefinite(shape, IndefiniteOpts::paper(shape));
        assert_eq!(pair_cost(&m), model);
        assert_paper(Block::Indefinite1024, &m);
    }

    #[test]
    fn group_acks_reduce_fault_tolerance_cost() {
        let data: Vec<u32> = (0..256).collect();
        let mut per_packet = machine(DeliveryScript::AlternateSwap);
        let id1 = per_packet.open_stream(n(0), n(1), StreamConfig::default());
        per_packet.reset_costs();
        per_packet.stream_send(id1, &data).unwrap();
        let ft_per_packet = per_packet.cpu(n(0)).snapshot().feature_total(Feature::FaultTol)
            + per_packet.cpu(n(1)).snapshot().feature_total(Feature::FaultTol);

        let mut grouped = machine(DeliveryScript::AlternateSwap);
        let id2 = grouped.open_stream(
            n(0),
            n(1),
            StreamConfig { ack_period: 8, ..StreamConfig::default() },
        );
        grouped.reset_costs();
        let out = grouped.stream_send(id2, &data).unwrap();
        let ft_grouped = grouped.cpu(n(0)).snapshot().feature_total(Feature::FaultTol)
            + grouped.cpu(n(1)).snapshot().feature_total(Feature::FaultTol);

        assert!(ft_grouped < ft_per_packet / 2, "{ft_grouped} vs {ft_per_packet}");
        assert_eq!(grouped.stream_received(id2), data.as_slice());
        assert_eq!(out.acks, 8);
    }

    /// The window against the map it replaced, on seeded operation
    /// mixes: inserts behind, at and far ahead of the oldest entry,
    /// overwrites, removes of present and absent numbers, cumulative
    /// releases short of and past the newest entry, and clears. After
    /// every operation both agree on `len`, `is_empty`, the oldest
    /// entry, and which numbers are present with which payload.
    #[test]
    fn window_matches_a_btreemap_model() {
        use std::collections::BTreeMap;
        use timego_netsim::rng::SimRng;

        for n in [2usize, 8] {
            for seed in 0..8u64 {
                let mut rng = SimRng::new(seed * 2 + n as u64);
                let mut win = SeqWindow::new(n);
                let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                // The stream's front moves forward; numbers land around it.
                let mut head = 1000u64;
                for step in 0..600 {
                    head += rng.gen_inclusive(2);
                    let near = |rng: &mut SimRng| head - 32 + rng.gen_inclusive(64);
                    match rng.gen_index(20) {
                        0..=8 => {
                            let seq = if rng.gen_index(25) == 0 {
                                head + 200 + rng.gen_inclusive(100)
                            } else {
                                near(&mut rng)
                            };
                            let len = 1 + rng.gen_index(n);
                            let payload: Vec<u32> = (0..len).map(|_| rng.gen_u32()).collect();
                            win.insert(seq, &payload);
                            let mut padded = payload;
                            padded.resize(n, 0);
                            model.insert(seq, padded);
                        }
                        9..=15 => {
                            let seq = match model.keys().nth(rng.gen_index(model.len() + 1)) {
                                Some(&s) if rng.gen_bool(0.7) => s,
                                _ => near(&mut rng),
                            };
                            let got = win.remove(seq).map(<[u32]>::to_vec);
                            assert_eq!(got, model.remove(&seq), "n {n} seed {seed} step {step}");
                        }
                        16..=18 => {
                            let seq = near(&mut rng) + rng.gen_inclusive(1) * 400;
                            win.retain_from(seq);
                            model.retain(|&s, _| s >= seq);
                        }
                        _ => {
                            if rng.gen_index(10) == 0 {
                                win.clear();
                                model.clear();
                            }
                        }
                    }
                    let ctx = format!("n {n} seed {seed} step {step}");
                    assert_eq!(win.len(), model.len(), "{ctx}");
                    assert_eq!(win.is_empty(), model.is_empty(), "{ctx}");
                    assert_eq!(
                        win.oldest().map(|(s, p)| (s, p.to_vec())),
                        model.first_key_value().map(|(&s, p)| (s, p.clone())),
                        "{ctx}"
                    );
                    for (&seq, payload) in &model {
                        assert_eq!(win.get(seq), Some(payload.as_slice()), "{ctx} seq {seq}");
                    }
                    for seq in head - 40..head + 40 {
                        let present = model.contains_key(&seq);
                        assert_eq!(win.get(seq).is_some(), present, "{ctx} seq {seq}");
                    }
                }
            }
        }
    }
}
