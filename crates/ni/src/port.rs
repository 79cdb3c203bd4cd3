//! The memory-mapped network-interface port.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use timego_cost::{CostHandle, Fine};
use timego_netsim::{InjectError, Network, NodeId, Packet, RxMeta};

use crate::memory::{Addr, Memory};

/// A network shared between the NI ports of its nodes. The simulator is
/// single-threaded, so this is `Rc<RefCell<…>>`.
pub type SharedNetwork = Rc<RefCell<dyn Network>>;

/// Wrap a network for sharing among [`NiPort`]s.
pub fn share<N: Network + 'static>(network: N) -> SharedNetwork {
    Rc::new(RefCell::new(network))
}

/// One node's view of the network interface.
///
/// The port models the CM-5 NI's register map. Each method that touches
/// a register records exactly one `dev`-class instruction into the
/// node's cost recorder, under the fine category the paper's Table 1
/// uses for that access:
///
/// | method | register | fine category |
/// |---|---|---|
/// | [`load_send_status`](NiPort::load_send_status) | send status | check NI status |
/// | [`stage_envelope`](NiPort::stage_envelope) | send setup (dest, tag, header) | NI setup |
/// | [`push_payload2`](NiPort::push_payload2) / [`push_payload1`](NiPort::push_payload1) | send FIFO | write to NI |
/// | [`commit_send`](NiPort::commit_send) | send status | check NI status |
/// | [`poll_status`](NiPort::poll_status) | receive status | check NI status |
/// | [`latch_rx`](NiPort::latch_rx) | receive latch + tag | check NI status |
/// | [`read_header`](NiPort::read_header) | receive FIFO | read from NI |
/// | [`read_payload2`](NiPort::read_payload2) | receive FIFO | read from NI |
pub struct NiPort {
    node: NodeId,
    net: SharedNetwork,
    cpu: CostHandle,
    staged: Option<Staged>,
    /// The send FIFO's words for the staged packet: one buffer per port,
    /// reused by every packet, copied into the packet on commit.
    payload: Vec<u32>,
    latched: Option<Latched>,
}

#[derive(Debug, Clone)]
struct Staged {
    dst: NodeId,
    tag: u8,
    header: u32,
}

#[derive(Debug, Clone)]
struct Latched {
    packet: Packet,
    read_pos: usize,
}

impl NiPort {
    /// A port for `node` on `net`, recording device costs into `cpu`.
    pub fn new(node: NodeId, net: SharedNetwork, cpu: CostHandle) -> Self {
        NiPort {
            node,
            net,
            cpu,
            staged: None,
            payload: Vec::new(),
            latched: None,
        }
    }

    /// The node this port belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's cost recorder.
    pub fn cpu(&self) -> &CostHandle {
        &self.cpu
    }

    /// The shared network (for harness code that needs to drive or
    /// inspect it; protocol code only uses the register methods).
    pub fn network(&self) -> &SharedNetwork {
        &self.net
    }

    /// Advance the underlying network by `cycles`. Free of instruction
    /// cost — time passes, the processor does not execute.
    pub fn advance(&self, cycles: u64) {
        self.net.borrow_mut().advance(cycles);
    }

    // --- send side -----------------------------------------------------

    /// Load the send-status register (1 `dev`). On the real machine this
    /// tells the sender whether the NI can accept another packet; the
    /// model is optimistic and the authoritative answer comes from
    /// [`commit_send`](NiPort::commit_send).
    pub fn load_send_status(&mut self) -> bool {
        self.cpu.dev(Fine::CheckStatus, 1);
        true
    }

    /// Store the send-setup registers: destination node, message tag and
    /// the header word (offset / sequence number) in one store (1 `dev`).
    /// Begins a new packet, discarding any previously staged one.
    pub fn stage_envelope(&mut self, dst: NodeId, tag: u8, header: u32) {
        self.cpu.dev(Fine::NiSetup, 1);
        self.staged = Some(Staged { dst, tag, header });
        self.payload.clear();
    }

    /// Store two payload words into the send FIFO with one double-word
    /// store (1 `dev`).
    ///
    /// # Panics
    ///
    /// Panics if no envelope is staged.
    pub fn push_payload2(&mut self, w0: u32, w1: u32) {
        self.cpu.dev(Fine::WriteNi, 1);
        self.send_fifo("push_payload").extend_from_slice(&[w0, w1]);
    }

    /// Store one payload word into the send FIFO (1 `dev`).
    ///
    /// # Panics
    ///
    /// Panics if no envelope is staged.
    pub fn push_payload1(&mut self, w: u32) {
        self.cpu.dev(Fine::WriteNi, 1);
        self.send_fifo("push_payload").push(w);
    }

    /// Store a DMA descriptor (1 `dev`): the NI's DMA engine fetches
    /// `words` payload words directly from node memory — **without CPU
    /// memory instructions** — and loads them into the send FIFO. This
    /// models the "DMA hardware can reduce the cost of moving large
    /// amounts of data" discussion in the paper's §5.
    ///
    /// # Panics
    ///
    /// Panics if no envelope is staged or the address range is out of
    /// bounds.
    pub fn dma_stage_payload(&mut self, mem: &Memory, addr: Addr, words: usize) {
        self.cpu.dev(Fine::NiSetup, 1);
        self.send_fifo("dma_stage_payload")
            .extend_from_slice(mem.peek(addr, words));
    }

    /// Load the send-status register to commit and confirm the send
    /// (1 `dev`). Returns `true` if the network accepted the packet;
    /// on `false` (backpressure) the staged packet is discarded and the
    /// software must re-stage it, exactly as on the CM-5.
    ///
    /// # Panics
    ///
    /// Panics if no packet is staged.
    pub fn commit_send(&mut self) -> bool {
        self.cpu.dev(Fine::CheckStatus, 1);
        let staged = self.staged.take().expect("nothing staged to send");
        let packet = Packet::new(
            self.node,
            staged.dst,
            staged.tag,
            staged.header,
            &self.payload,
        );
        match self.net.borrow_mut().try_inject(packet) {
            Ok(()) => true,
            Err(InjectError::Backpressure) => false,
            Err(e @ InjectError::BadDestination(_)) => {
                panic!("protocol bug: {e}")
            }
        }
    }

    // --- receive side ----------------------------------------------------

    /// Load the receive-status register (1 `dev`): is a packet waiting?
    pub fn poll_status(&mut self) -> bool {
        self.cpu.dev(Fine::CheckStatus, 1);
        let net = self.net.borrow();
        net.rx_pending(self.node) > 0 || self.latched.is_some()
    }

    /// Envelope metadata (source, tag, header) of the packet the next
    /// [`latch_rx`](NiPort::latch_rx) would pop — the already-latched
    /// packet if one is held, otherwise the head of the network's
    /// receive queue. Free of modeled cost: this is the harness-level
    /// dispatch surface an event-driven scheduler uses to decide *which*
    /// protocol state machine should pay for the receive; the machine
    /// that consumes the packet still pays every NI register access.
    pub fn rx_peek(&mut self) -> Option<RxMeta> {
        if let Some(l) = &self.latched {
            return Some(RxMeta::of(&l.packet));
        }
        self.net.borrow_mut().rx_peek(self.node)
    }

    /// [`rx_peek`](NiPort::rx_peek) for an observer that must not
    /// disturb the substrate: the latched packet, else the queue head
    /// *only if the queue is non-empty*. An empty queue is "no head" —
    /// never a peek, because a holding substrate (the scripted
    /// network's liveness flush) releases packets when an empty queue is
    /// peeked, and a scheduler deciding whom to wake may not move them.
    pub fn rx_head(&self) -> Option<RxMeta> {
        if let Some(l) = &self.latched {
            return Some(RxMeta::of(&l.packet));
        }
        let mut net = self.net.borrow_mut();
        if net.rx_pending(self.node) == 0 {
            return None;
        }
        net.rx_peek(self.node)
    }

    /// Pop the next waiting packet into the receive latch and load its
    /// source/tag word for handler vectoring (1 `dev`). Returns `None`
    /// if nothing is waiting.
    ///
    /// # Panics
    ///
    /// Panics if a latched packet has not been fully consumed — that is
    /// a protocol bug, the latch is a single register set.
    pub fn latch_rx(&mut self) -> Option<(NodeId, u8)> {
        self.cpu.dev(Fine::CheckStatus, 1);
        assert!(
            self.latched.is_none(),
            "protocol bug: latching over an unconsumed packet"
        );
        let packet = self.net.borrow_mut().try_receive(self.node)?;
        let meta = (packet.src(), packet.tag());
        self.latched = Some(Latched { packet, read_pos: 0 });
        Some(meta)
    }

    /// Load the latched packet's header word (1 `dev`).
    ///
    /// # Panics
    ///
    /// Panics if no packet is latched.
    pub fn read_header(&mut self) -> u32 {
        self.cpu.dev(Fine::ReadNi, 1);
        self.latched.as_ref().expect("no packet latched").packet.header()
    }

    /// Load the next two payload words with one double-word load
    /// (1 `dev`). Missing words read as zero (short packets).
    ///
    /// # Panics
    ///
    /// Panics if no packet is latched.
    pub fn read_payload2(&mut self) -> (u32, u32) {
        self.cpu.dev(Fine::ReadNi, 1);
        let latched = self.latched.as_mut().expect("no packet latched");
        let d = latched.packet.data();
        let w0 = d.get(latched.read_pos).copied().unwrap_or(0);
        let w1 = d.get(latched.read_pos + 1).copied().unwrap_or(0);
        latched.read_pos += 2;
        self.maybe_release();
        (w0, w1)
    }

    /// Payload words remaining unread in the latch.
    pub fn latched_remaining(&self) -> usize {
        self.latched
            .as_ref()
            .map_or(0, |l| l.packet.len().saturating_sub(l.read_pos))
    }

    /// Discard the latched packet without reading the rest of it (free:
    /// the NI advances past it on the next status access).
    pub fn drop_latched(&mut self) {
        self.latched = None;
    }

    /// The send FIFO, once an envelope is staged.
    fn send_fifo(&mut self, caller: &str) -> &mut Vec<u32> {
        assert!(self.staged.is_some(), "stage_envelope before {caller}");
        &mut self.payload
    }

    fn maybe_release(&mut self) {
        if let Some(l) = &self.latched {
            if l.read_pos >= l.packet.len() {
                self.latched = None;
            }
        }
    }
}

impl fmt::Debug for NiPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NiPort")
            .field("node", &self.node)
            .field("staged", &self.staged)
            .field("payload", &self.payload)
            .field("latched", &self.latched)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timego_cost::{Class, Feature};
    use timego_netsim::{DeliveryScript, ScriptedNetwork};

    fn pair() -> (NiPort, NiPort) {
        let net = share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
        let a = NiPort::new(NodeId::new(0), net.clone(), CostHandle::new());
        let b = NiPort::new(NodeId::new(1), net, CostHandle::new());
        (a, b)
    }

    #[test]
    fn send_receive_roundtrip_with_exact_dev_costs() {
        let (mut tx, mut rx) = pair();
        tx.stage_envelope(NodeId::new(1), 3, 99);
        tx.push_payload2(1, 2);
        tx.push_payload2(3, 4);
        assert!(tx.commit_send());
        // 1 setup + 2 payload + 1 commit = 4 dev instructions.
        assert_eq!(tx.cpu().snapshot().class_total(Class::Dev), 4);

        assert!(rx.poll_status());
        let (src, tag) = rx.latch_rx().expect("waiting");
        assert_eq!(src, NodeId::new(0));
        assert_eq!(tag, 3);
        assert_eq!(rx.read_header(), 99);
        assert_eq!(rx.read_payload2(), (1, 2));
        assert_eq!(rx.read_payload2(), (3, 4));
        // 1 poll + 1 latch + 1 header + 2 payload = 5 dev instructions.
        assert_eq!(rx.cpu().snapshot().class_total(Class::Dev), 5);
        // Fully consumed: latch released.
        assert_eq!(rx.latched_remaining(), 0);
        assert!(!rx.poll_status());
    }

    #[test]
    fn costs_attribute_to_current_feature() {
        let (mut tx, _rx) = pair();
        tx.cpu().clone().with_feature(Feature::FaultTol, |_| {
            tx.stage_envelope(NodeId::new(1), 1, 0);
            tx.push_payload1(5);
            assert!(tx.commit_send());
        });
        let v = tx.cpu().snapshot();
        assert_eq!(v.feature_total(Feature::FaultTol), 3);
        assert_eq!(v.feature_total(Feature::Base), 0);
    }

    #[test]
    fn latch_empty_returns_none_but_costs_a_load() {
        let (_tx, mut rx) = pair();
        assert!(rx.latch_rx().is_none());
        assert_eq!(rx.cpu().snapshot().class_total(Class::Dev), 1);
    }

    #[test]
    fn short_packet_reads_zero_padding() {
        let (mut tx, mut rx) = pair();
        tx.stage_envelope(NodeId::new(1), 1, 7);
        tx.push_payload1(42);
        assert!(tx.commit_send());
        rx.latch_rx().unwrap();
        assert_eq!(rx.read_payload2(), (42, 0));
    }

    #[test]
    fn drop_latched_discards_rest() {
        let (mut tx, mut rx) = pair();
        tx.stage_envelope(NodeId::new(1), 1, 0);
        tx.push_payload2(1, 2);
        assert!(tx.commit_send());
        rx.latch_rx().unwrap();
        assert_eq!(rx.latched_remaining(), 2);
        rx.drop_latched();
        assert_eq!(rx.latched_remaining(), 0);
        assert!(rx.latch_rx().is_none());
    }

    #[test]
    #[should_panic(expected = "stage_envelope")]
    fn payload_without_envelope_panics() {
        let (mut tx, _rx) = pair();
        tx.push_payload2(1, 2);
    }

    #[test]
    #[should_panic(expected = "unconsumed")]
    fn double_latch_panics() {
        let (mut tx, mut rx) = pair();
        for _ in 0..2 {
            tx.stage_envelope(NodeId::new(1), 1, 0);
            tx.push_payload1(1);
            assert!(tx.commit_send());
        }
        rx.latch_rx().unwrap();
        let _ = rx.latch_rx();
    }

    #[test]
    fn load_send_status_costs_one_dev() {
        let (mut tx, _rx) = pair();
        assert!(tx.load_send_status());
        assert_eq!(tx.cpu().snapshot().class_total(Class::Dev), 1);
    }
}
