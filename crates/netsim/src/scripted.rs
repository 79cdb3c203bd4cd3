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

use std::collections::VecDeque;

use crate::id::NodeId;
use crate::network::{Guarantees, InjectError, Network, RxMeta};
use crate::packet::Packet;
use crate::pair::{sorted_keys, PairMap};
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

#[derive(Debug, Default)]
struct PairBuffer {
    held: Vec<Packet>,
}

/// Zero-latency, loss-free network whose delivery order follows a
/// [`DeliveryScript`].
#[derive(Debug)]
pub struct ScriptedNetwork {
    nodes: usize,
    script: DeliveryScript,
    now: Time,
    rx: Vec<VecDeque<Packet>>,
    buffers: PairMap<PairBuffer>,
    pair_seq: PairMap<u64>,
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
            rx: (0..nodes).map(|_| VecDeque::new()).collect(),
            buffers: PairMap::default(),
            pair_seq: PairMap::default(),
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
        let (src, dst) = (packet.src(), packet.dst());
        let seq = packet.pair_seq().expect("stamped at injection");
        let injected = packet.injected_at();
        self.rx[dst.index()].push_back(packet);
        let depth = self.rx[dst.index()].len();
        self.stats
            .record_delivery(src, dst, seq, injected, self.now, depth);
    }

    /// Release every held packet destined for `node` (used when a stream
    /// ends with a packet still buffered by the script). Passing `None`
    /// flushes every pair.
    fn flush_node(&mut self, node: Option<NodeId>) {
        // Several pairs may release into one receive queue (and draw on
        // one shuffle stream), so the walk order decides what software
        // sees: ascending `(src, dst)`.
        let keys = sorted_keys(&self.buffers, |_, dst, b| {
            node.is_none_or(|n| dst == n) && !b.held.is_empty()
        });
        for key in keys {
            let mut held = std::mem::take(
                &mut self.buffers.get_mut(&key).expect("key just listed").held,
            );
            if matches!(self.script, DeliveryScript::WindowShuffle { .. }) {
                self.rng.shuffle(&mut held);
            }
            self.held_count -= held.len();
            for p in held {
                self.deliver(p);
            }
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
        let (src, dst) = (packet.src(), packet.dst());
        if dst.index() >= self.nodes {
            return Err(InjectError::BadDestination(dst));
        }
        if src.index() >= self.nodes {
            return Err(InjectError::BadDestination(src));
        }
        let seq = self.pair_seq.entry((src, dst)).or_insert(0);
        let this_seq = *seq;
        packet.stamp(this_seq, self.now);
        *seq += 1;
        self.stats.injected += 1;

        match self.script {
            DeliveryScript::InOrder => self.deliver(packet),
            DeliveryScript::AlternateSwap => {
                if this_seq.is_multiple_of(2) {
                    self.buffers.entry((src, dst)).or_default().held.push(packet);
                    self.held_count += 1;
                } else {
                    self.deliver(packet);
                    let buf = self.buffers.entry((src, dst)).or_default();
                    if let Some(held) = buf.held.pop() {
                        self.held_count -= 1;
                        self.deliver(held);
                    }
                }
            }
            DeliveryScript::WindowShuffle { window } => {
                let buf = self.buffers.entry((src, dst)).or_default();
                buf.held.push(packet);
                self.held_count += 1;
                if buf.held.len() >= window {
                    let mut held = std::mem::take(&mut buf.held);
                    self.rng.shuffle(&mut held);
                    self.held_count -= held.len();
                    for p in held {
                        self.deliver(p);
                    }
                }
            }
        }
        Ok(())
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        // Mirror try_receive's liveness flush so the peeked head is
        // exactly what try_receive would pop.
        if self.rx.get(node.index())?.is_empty() && self.held_count > 0 {
            self.flush_node(Some(node));
        }
        self.rx.get(node.index())?.front().map(RxMeta::of)
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        if self.rx.get(node.index())?.is_empty() && self.held_count > 0 {
            // Liveness: a stream may end while the script still holds a
            // packet (e.g. odd-length AlternateSwap) — release it rather
            // than strand it.
            self.flush_node(Some(node));
        }
        self.rx.get_mut(node.index())?.pop_front()
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.rx.get(node.index()).map_or(0, VecDeque::len)
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
        Packet::new(n(src), n(dst), 1, seq, vec![seq])
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
