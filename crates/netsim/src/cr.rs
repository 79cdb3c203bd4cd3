//! The Compressionless-Routing-like substrate (§4 of the paper).
//!
//! Compressionless Routing exploits flow-control backpressure so that a
//! message must begin arriving at its destination before it has fully
//! entered the network. Three consequences matter to software:
//!
//! * **order-preserving transmission** — packets of one `(src, dst)`
//!   pair cannot overtake each other;
//! * **deadlock freedom independent of acceptance** — a destination that
//!   cannot absorb a packet *rejects the header*; the path is torn down
//!   and the NI retries later, so a stuck receiver never wedges the
//!   network (this is hardware end-to-end flow control);
//! * **packet-level fault tolerance** — acceptance of the last flit acts
//!   as an implicit end-to-end acknowledgement; a corrupted packet is
//!   killed and retransmitted by hardware.
//!
//! The model here is behavioral: per-pair FIFO channels with a bounded
//! in-flight window (the held path), delivery latency, probabilistic
//! corruption repaired by hardware retransmission, and rejection +
//! backoff when the destination buffer is full. Software on top of this
//! substrate observes [`Guarantees::HIGH_LEVEL`].

use std::collections::VecDeque;

use crate::id::NodeId;
use crate::network::{Guarantees, InjectError, Network, RxMeta, WakeSet};
use crate::packet::Packet;
use crate::pair::{sorted_keys, PairMap};
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::Time;

/// Configuration for [`CrNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrConfig {
    /// Number of attached nodes.
    pub nodes: usize,
    /// Delivery latency in cycles (header launch to last flit).
    pub base_latency: u64,
    /// Maximum packets in flight per `(src, dst)` pair — the capacity of
    /// the held wormhole path. Injection beyond this backpressures.
    pub pair_window: usize,
    /// Packets a node's receive queue holds before headers are rejected.
    pub rx_queue_capacity: usize,
    /// Cycles before a rejected header is retried by the NI.
    pub reject_backoff: u64,
    /// Probability a packet is corrupted in flight. The hardware
    /// detects, kills, and retransmits it (software never notices).
    pub corruption_prob: f64,
    /// Extra cycles a hardware retransmission costs.
    pub retransmit_penalty: u64,
    /// RNG seed.
    pub seed: u64,
}

impl CrConfig {
    /// A reasonable default for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        CrConfig {
            nodes,
            base_latency: 6,
            pair_window: 4,
            rx_queue_capacity: 16,
            reject_backoff: 8,
            corruption_prob: 0.0,
            retransmit_penalty: 12,
            seed: 0xC0FFEE,
        }
    }
}

#[derive(Debug, Clone)]
struct CrTransit {
    packet: Packet,
    deliver_at: Time,
}

/// A Compressionless-Routing-like network: in-order, reliable,
/// flow-controlled packet delivery.
#[derive(Debug, Clone)]
pub struct CrNetwork {
    cfg: CrConfig,
    now: Time,
    pairs: PairMap<VecDeque<CrTransit>>,
    rx: Vec<VecDeque<Packet>>,
    pair_seq: PairMap<u64>,
    in_flight: usize,
    stats: NetStats,
    rng: SimRng,
    wake: WakeSet,
}

impl CrNetwork {
    /// Build a CR network.
    ///
    /// # Panics
    ///
    /// Panics if `nodes`, `pair_window` or `rx_queue_capacity` is zero.
    pub fn new(cfg: CrConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(cfg.pair_window >= 1, "pair window must be at least 1");
        assert!(cfg.rx_queue_capacity >= 1, "rx queue must hold at least 1 packet");
        let rx = (0..cfg.nodes).map(|_| VecDeque::new()).collect();
        let rng = SimRng::new(cfg.seed);
        let wake = WakeSet::new(cfg.nodes);
        CrNetwork {
            cfg,
            now: Time::ZERO,
            pairs: PairMap::default(),
            rx,
            pair_seq: PairMap::default(),
            in_flight: 0,
            stats: NetStats::new(),
            rng,
            wake,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CrConfig {
        &self.cfg
    }

    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        let cap = self.cfg.rx_queue_capacity;
        let backoff = self.cfg.reject_backoff;
        let mut delivered: Vec<Packet> = Vec::new();
        // Pairs compete for the room left in a receive queue, so the
        // walk order is the arbitration rule: ascending `(src, dst)`.
        for key in sorted_keys(&self.pairs, |_, _, q| q.front().is_some_and(|h| h.deliver_at <= now)) {
            let queue = self.pairs.get_mut(&key).expect("key just listed");
            // In-order: only the head of a pair channel may complete.
            while let Some(head) = queue.front() {
                if head.deliver_at > now {
                    break;
                }
                let dst = head.packet.dst().index();
                let room = cap - self_rx_len(&self.rx, dst).min(cap);
                let pending_here = delivered
                    .iter()
                    .filter(|p| p.dst().index() == dst)
                    .count();
                if pending_here < room {
                    let t = queue.pop_front().expect("head exists");
                    delivered.push(t.packet);
                } else {
                    // Header rejected: tear down, automatic NI retry.
                    self.stats.rejects += 1;
                    queue.front_mut().expect("head exists").deliver_at = now + backoff;
                    break;
                }
            }
        }
        for packet in delivered {
            self.in_flight -= 1;
            let (src, dst) = (packet.src(), packet.dst());
            let seq = packet.pair_seq().expect("stamped at injection");
            let injected = packet.injected_at();
            self.rx[dst.index()].push_back(packet);
            self.wake.mark(dst);
            let depth = self.rx[dst.index()].len();
            self.stats
                .record_delivery(src, dst, seq, injected, self.now, depth);
        }
        self.pairs.retain(|_, q| !q.is_empty());
    }
}

fn self_rx_len(rx: &[VecDeque<Packet>], node: usize) -> usize {
    rx[node].len()
}

impl Network for CrNetwork {
    fn num_nodes(&self) -> usize {
        self.cfg.nodes
    }

    fn now(&self) -> Time {
        self.now
    }

    fn advance(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    fn try_inject(&mut self, mut packet: Packet) -> Result<(), InjectError> {
        let (src, dst) = (packet.src(), packet.dst());
        if dst.index() >= self.cfg.nodes {
            return Err(InjectError::BadDestination(dst));
        }
        if src.index() >= self.cfg.nodes {
            return Err(InjectError::BadDestination(src));
        }
        let queue = self.pairs.entry((src, dst)).or_default();
        if queue.len() >= self.cfg.pair_window {
            self.stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        }
        let seq = self.pair_seq.entry((src, dst)).or_insert(0);
        packet.stamp(*seq, self.now);
        *seq += 1;

        let mut deliver_at = self.now + self.cfg.base_latency;
        // Hardware fault tolerance: corruption is detected via the
        // killed-path mechanism and the packet is retransmitted — it
        // just takes longer. Retransmissions can themselves be hit.
        while self.cfg.corruption_prob > 0.0 && self.rng.gen_bool(self.cfg.corruption_prob) {
            self.stats.hw_retransmits += 1;
            deliver_at += self.cfg.retransmit_penalty;
        }
        packet.repair();

        queue.push_back(CrTransit { packet, deliver_at });
        self.in_flight += 1;
        self.stats.injected += 1;
        Ok(())
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        self.rx.get(node.index())?.front().map(RxMeta::of)
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        self.rx.get_mut(node.index())?.pop_front()
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.rx.get(node.index()).map_or(0, VecDeque::len)
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn take_delivered(&mut self) -> Vec<NodeId> {
        self.wake.take()
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees::HIGH_LEVEL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pkt(src: usize, dst: usize, seq: u32) -> Packet {
        Packet::new(n(src), n(dst), 1, seq, vec![seq; 4])
    }

    fn net(nodes: usize) -> CrNetwork {
        CrNetwork::new(CrConfig::new(nodes))
    }

    #[test]
    fn delivers_in_order_always() {
        let mut net = net(4);
        let mut sent = 0u32;
        let mut got = Vec::new();
        while sent < 100 || net.in_flight() > 0 {
            if sent < 100 && net.try_inject(pkt(0, 3, sent)).is_ok() {
                sent += 1;
            }
            net.advance(1);
            while let Some(p) = net.try_receive(n(3)) {
                got.push(p.header());
            }
        }
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly in order");
        assert_eq!(net.stats().order.out_of_order(), 0);
    }

    #[test]
    fn window_backpressures_injection() {
        let mut net = net(2);
        let mut accepted = 0;
        for s in 0..32u32 {
            if net.try_inject(pkt(0, 1, s)).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, net.config().pair_window as u32);
        assert!(net.stats().backpressure > 0);
    }

    #[test]
    fn corruption_is_repaired_by_hardware() {
        let mut net = CrNetwork::new(CrConfig {
            corruption_prob: 0.4,
            seed: 5,
            ..CrConfig::new(2)
        });
        let mut sent = 0u32;
        let mut got = Vec::new();
        while sent < 200 || net.in_flight() > 0 {
            if sent < 200 && net.try_inject(pkt(0, 1, sent)).is_ok() {
                sent += 1;
            }
            net.advance(1);
            while let Some(p) = net.try_receive(n(1)) {
                assert!(!p.is_corrupted());
                got.push(p.header());
            }
        }
        // Reliable: every packet arrives, in order, despite corruption.
        assert_eq!(got.len(), 200);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert!(net.stats().hw_retransmits > 20, "{}", net.stats());
        assert_eq!(net.stats().dropped_corrupt, 0);
    }

    #[test]
    fn full_receiver_causes_rejects_not_deadlock() {
        let mut net = CrNetwork::new(CrConfig {
            rx_queue_capacity: 2,
            pair_window: 8,
            ..CrConfig::new(3)
        });
        // Node 1 never polls; node 0 keeps sending to it.
        for s in 0..8u32 {
            net.try_inject(pkt(0, 1, s)).unwrap();
        }
        net.advance(200);
        assert!(net.stats().rejects > 0, "headers should be rejected");
        // Crucially, traffic between *other* nodes still flows — the
        // stuck receiver does not wedge the network.
        net.try_inject(pkt(0, 2, 0)).unwrap();
        net.advance(200);
        assert!(net.try_receive(n(2)).is_some());
        // And when node 1 finally polls, everything drains in order.
        let mut got = Vec::new();
        for _ in 0..10_000 {
            while let Some(p) = net.try_receive(n(1)) {
                got.push(p.header());
            }
            if got.len() == 8 {
                break;
            }
            net.advance(1);
        }
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fan_in_arbitration_is_ascending_pair_order_on_every_rerun() {
        // 15 sources race for a one-packet receive queue. Which header
        // is accepted each round used to follow the hash map's walk —
        // a different order on every construction, same seed or not.
        let run = || {
            let mut net = CrNetwork::new(CrConfig { rx_queue_capacity: 1, ..CrConfig::new(16) });
            for src in (1..16).rev() {
                net.try_inject(pkt(src, 0, src as u32)).unwrap();
            }
            let mut got = Vec::new();
            while net.in_flight() > 0 {
                net.advance(1);
                got.extend(net.try_receive(n(0)).map(|p| p.header()));
            }
            (got, net.stats().rejects)
        };
        let first = run();
        assert_eq!(first.0, (1..16).collect::<Vec<_>>(), "lowest (src, dst) wins each round");
        for _ in 0..10 {
            assert_eq!(run(), first, "same seed, same run");
        }
    }

    #[test]
    fn distinct_pairs_progress_independently() {
        let mut net = net(4);
        net.try_inject(pkt(0, 1, 0)).unwrap();
        net.try_inject(pkt(2, 3, 0)).unwrap();
        net.advance(net.config().base_latency + 1);
        assert!(net.try_receive(n(1)).is_some());
        assert!(net.try_receive(n(3)).is_some());
    }

    #[test]
    fn guarantees_are_high_level() {
        let net = net(2);
        assert_eq!(net.guarantees(), Guarantees::HIGH_LEVEL);
    }

    #[test]
    fn bad_destination_is_rejected() {
        let mut net = net(2);
        assert!(matches!(
            net.try_inject(pkt(0, 5, 0)),
            Err(InjectError::BadDestination(_))
        ));
    }
}
