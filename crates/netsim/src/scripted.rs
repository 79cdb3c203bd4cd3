//! An instant, reliable network with scripted delivery order.
//!
//! The paper's Table 2 measurements are made under controlled
//! assumptions — most importantly that *half the packets of an
//! indefinite-sequence stream arrive out of order*. Real multipath
//! routing produces some other, load-dependent fraction, so the
//! table-regeneration harness runs the protocols over this substrate:
//! zero latency, no loss, unbounded buffering, and a delivery-order
//! policy chosen by [`DeliveryScript`].
//!
//! [`DeliveryScript::AlternateSwap`] delivers packets `1, 0, 3, 2, 5, 4,
//! …`: every odd-numbered packet arrives before its predecessor, so for
//! an even packet count exactly half the packets are out of order —
//! precisely the paper's assumption.
//!
//! Per-pair state (the injection sequence counter and the packets the
//! script is holding) lives in one dense `nodes × nodes` table indexed
//! `src * nodes + dst`, so a lookup is an index, and walking the table
//! in index order *is* ascending `(src, dst)`, the arbitration order
//! every substrate uses. The table is sized at the first injection, not
//! at construction: a paper sweep builds a fresh machine per message,
//! thousands of them up front, and building one stays as cheap as an
//! empty hash map made it.

use crate::id::NodeId;
use crate::network::{check_endpoints, stamp_next, Guarantees, InjectError, Network, RxMeta, RxQueues};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::Time;

/// Delivery-order policy of a [`ScriptedNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryScript {
    /// Deliver in injection order (models an in-order network).
    InOrder,
    /// Deliver adjacent pairs swapped (`1, 0, 3, 2, …`) — exactly half
    /// of an even-length stream arrives out of order, the paper's
    /// Table 2 assumption for the indefinite-sequence protocol.
    AlternateSwap,
    /// Buffer `window` packets per pair and release them in a random
    /// permutation (seeded; deterministic for a given seed).
    WindowShuffle {
        /// Packets buffered before each shuffled release.
        window: usize,
    },
}

/// One `(src, dst)` pair's entry in the dense table.
#[derive(Debug, Default)]
struct PairSlot {
    /// Sequence number of the pair's next injection.
    next_seq: u64,
    /// Packets the script is holding back.
    held: Vec<Packet>,
}

/// Zero-latency, loss-free network whose delivery order follows a
/// [`DeliveryScript`].
#[derive(Debug)]
pub struct ScriptedNetwork {
    nodes: usize,
    script: DeliveryScript,
    now: Time,
    /// The receive queues. Their wake marks go untaken: this network
    /// delivers inside `try_inject`, and the trait's default depth scan
    /// answers `take_delivered` at less cost on the paper sweep.
    rx: RxQueues,
    /// `nodes × nodes` pair slots, empty until the first injection.
    pairs: Vec<PairSlot>,
    held_count: usize,
    stats: NetStats,
    rng: SimRng,
}

impl ScriptedNetwork {
    /// Build a scripted network over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or a [`DeliveryScript::WindowShuffle`]
    /// window is zero.
    pub fn new(nodes: usize, script: DeliveryScript) -> Self {
        ScriptedNetwork::with_seed(nodes, script, 0xC0FFEE)
    }

    /// Build with an explicit RNG seed (only [`DeliveryScript::WindowShuffle`]
    /// consumes randomness).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or a shuffle window is zero.
    pub fn with_seed(nodes: usize, script: DeliveryScript, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        if let DeliveryScript::WindowShuffle { window } = script {
            assert!(window >= 1, "shuffle window must be at least 1");
        }
        ScriptedNetwork {
            nodes,
            script,
            now: Time::ZERO,
            rx: RxQueues::new(nodes),
            pairs: Vec::new(),
            held_count: 0,
            stats: NetStats::new(),
            rng: SimRng::new(seed),
        }
    }

    /// The active delivery script.
    pub fn script(&self) -> DeliveryScript {
        self.script
    }

    fn deliver(&mut self, packet: Packet) {
        self.rx.land(packet, self.now, &mut self.stats);
    }

    /// Where `(src, dst)` sits in the pair table.
    fn pair_index(&self, src: NodeId, dst: NodeId) -> usize {
        src.index() * self.nodes + dst.index()
    }

    /// The pair slot of `(src, dst)`, sizing the table on first use.
    fn slot(&mut self, src: NodeId, dst: NodeId) -> &mut PairSlot {
        if self.pairs.is_empty() {
            self.pairs
                .resize_with(self.nodes * self.nodes, PairSlot::default);
        }
        let i = self.pair_index(src, dst);
        &mut self.pairs[i]
    }

    /// Release every held packet destined for `node` (used when a stream
    /// ends with a packet still buffered by the script). Passing `None`
    /// flushes every pair.
    fn flush_node(&mut self, node: Option<NodeId>) {
        // Several pairs may release into one receive queue (and draw on
        // one shuffle stream), so the walk order decides what software
        // sees: ascending `(src, dst)`, which is ascending slot index.
        let (first, step) = match node {
            Some(dst) => (dst.index(), self.nodes),
            None => (0, 1),
        };
        for i in (first..self.pairs.len()).step_by(step) {
            if !self.pairs[i].held.is_empty() {
                self.release(i);
            }
        }
    }

    /// Deliver everything slot `i` holds (shuffled first under
    /// [`DeliveryScript::WindowShuffle`]), keeping the slot's buffer.
    fn release(&mut self, i: usize) {
        let mut held = std::mem::take(&mut self.pairs[i].held);
        if matches!(self.script, DeliveryScript::WindowShuffle { .. }) {
            self.rng.shuffle(&mut held);
        }
        self.held_count -= held.len();
        for p in held.drain(..) {
            self.deliver(p);
        }
        self.pairs[i].held = held;
    }

    /// Liveness: a stream may end while the script still holds a packet
    /// (e.g. odd-length AlternateSwap) — release what is held for an
    /// empty queue rather than strand it.
    fn flush_if_empty(&mut self, node: NodeId) {
        if self.held_count > 0 && node.index() < self.nodes && self.rx.pending(node) == 0 {
            self.flush_node(Some(node));
        }
    }
}

impl Network for ScriptedNetwork {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn now(&self) -> Time {
        self.now
    }

    fn advance(&mut self, cycles: u64) {
        self.now += cycles;
        // Time passing delivers whatever the script was still holding —
        // a trailing odd packet of an AlternateSwap stream, or a partial
        // shuffle window. Without this, an odd-length stream would
        // strand its last packet until a receive-side probe.
        if cycles > 0 && self.held_count > 0 {
            self.flush_node(None);
        }
    }

    fn try_inject(&mut self, mut packet: Packet) -> Result<(), InjectError> {
        check_endpoints(&packet, self.nodes)?;
        let (src, dst, now) = (packet.src(), packet.dst(), self.now);
        let seq = stamp_next(&mut self.slot(src, dst).next_seq, &mut packet, now);
        self.stats.injected += 1;

        match self.script {
            DeliveryScript::InOrder => self.deliver(packet),
            DeliveryScript::AlternateSwap => {
                if seq.is_multiple_of(2) {
                    self.slot(src, dst).held.push(packet);
                    self.held_count += 1;
                } else {
                    self.deliver(packet);
                    if let Some(held) = self.slot(src, dst).held.pop() {
                        self.held_count -= 1;
                        self.deliver(held);
                    }
                }
            }
            DeliveryScript::WindowShuffle { window } => {
                self.held_count += 1;
                let slot = self.slot(src, dst);
                slot.held.push(packet);
                if slot.held.len() >= window {
                    self.release(self.pair_index(src, dst));
                }
            }
        }
        Ok(())
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        // Mirror try_receive's liveness flush so the peeked head is
        // exactly what try_receive would pop.
        self.flush_if_empty(node);
        self.rx.peek(node)
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        self.flush_if_empty(node);
        self.rx.pop(node)
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.rx.pending(node)
    }

    fn in_flight(&self) -> usize {
        self.held_count
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees {
            in_order: matches!(self.script, DeliveryScript::InOrder),
            reliable: true,
            flow_controlled: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pkt(src: usize, dst: usize, seq: u32) -> Packet {
        Packet::new(n(src), n(dst), 1, seq, &[seq])
    }

    fn inject_burst(net: &mut ScriptedNetwork, count: u32) {
        for s in 0..count {
            net.try_inject(pkt(0, 1, s)).unwrap();
        }
    }

    fn receive_all(net: &mut ScriptedNetwork, node: NodeId) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(p) = net.try_receive(node) {
            out.push(p.header());
        }
        out
    }

    #[test]
    fn in_order_script_preserves_order() {
        let mut net = ScriptedNetwork::new(2, DeliveryScript::InOrder);
        inject_burst(&mut net, 10);
        assert_eq!(receive_all(&mut net, n(1)), (0..10).collect::<Vec<_>>());
        assert_eq!(net.stats().order.out_of_order(), 0);
    }

    #[test]
    fn alternate_swap_is_exactly_half_out_of_order() {
        let mut net = ScriptedNetwork::new(2, DeliveryScript::AlternateSwap);
        inject_burst(&mut net, 8);
        assert_eq!(receive_all(&mut net, n(1)), vec![1, 0, 3, 2, 5, 4, 7, 6]);
        assert_eq!(net.stats().order.out_of_order(), 4);
        assert_eq!(net.stats().order.in_order(), 4);
    }

    #[test]
    fn alternate_swap_flushes_trailing_packet() {
        let mut net = ScriptedNetwork::new(2, DeliveryScript::AlternateSwap);
        inject_burst(&mut net, 5); // packet 4 is held
        assert_eq!(net.in_flight(), 1);
        let got = receive_all(&mut net, n(1));
        assert_eq!(got, vec![1, 0, 3, 2, 4]);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn window_shuffle_delivers_everything() {
        let mut net =
            ScriptedNetwork::with_seed(2, DeliveryScript::WindowShuffle { window: 4 }, 9);
        inject_burst(&mut net, 10); // 2 packets left held, flushed on read
        let mut got = receive_all(&mut net, n(1));
        assert_eq!(got.len(), 10);
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pairs_are_independent() {
        let mut net = ScriptedNetwork::new(3, DeliveryScript::AlternateSwap);
        net.try_inject(pkt(0, 2, 100)).unwrap();
        net.try_inject(pkt(1, 2, 200)).unwrap();
        // Both held (seq 0 per pair); a read flushes both.
        let got = receive_all(&mut net, n(2));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn flush_releases_pairs_in_ascending_order_on_every_rerun() {
        // 15 pairs each hold a partial shuffle window for node 0; the
        // flush that releases them decides both the receive order and
        // which pair draws from the shuffle stream first.
        let run = || {
            let mut net = ScriptedNetwork::with_seed(16, DeliveryScript::WindowShuffle { window: 4 }, 9);
            for src in (1..16).rev() {
                for k in 0..3 {
                    net.try_inject(pkt(src, 0, (src * 10 + k) as u32)).unwrap();
                }
            }
            receive_all(&mut net, n(0))
        };
        let first = run();
        let sources: Vec<u32> = first.iter().map(|h| h / 10).collect();
        assert!(sources.is_sorted(), "pairs release in ascending (src, dst) order: {first:?}");
        for _ in 0..10 {
            assert_eq!(run(), first, "same seed, same run");
        }
    }

    #[test]
    fn alternate_swap_flush_on_advance_releases_ascending_pairs() {
        // Three sources feed node 0 in interleaved odd-length bursts, so
        // each pair ends up holding its last packet; time passing
        // releases the three in ascending (src, dst) order. Headers are
        // `src * 100 + global injection index`.
        let mut net = ScriptedNetwork::new(4, DeliveryScript::AlternateSwap);
        for (src, burst) in [(3, 3), (1, 5), (2, 1), (3, 2), (1, 2)] {
            for _ in 0..burst {
                let header = (src * 100) as u32 + net.stats().injected as u32;
                net.try_inject(pkt(src, 0, header)).unwrap();
            }
        }
        assert_eq!(net.in_flight(), 3);
        net.advance(1);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(
            receive_all(&mut net, n(0)),
            [301, 300, 104, 103, 106, 105, 309, 302, 111, 107, 112, 208, 310]
        );
    }

    #[test]
    fn stats_count_latency_zero() {
        let mut net = ScriptedNetwork::new(2, DeliveryScript::InOrder);
        net.advance(10);
        inject_burst(&mut net, 3);
        assert_eq!(net.stats().latency.mean(), 0.0);
        assert_eq!(net.stats().delivered, 3);
    }

    #[test]
    fn bad_destination_is_rejected() {
        let mut net = ScriptedNetwork::new(2, DeliveryScript::InOrder);
        assert!(net.try_inject(pkt(0, 7, 0)).is_err());
    }
}
