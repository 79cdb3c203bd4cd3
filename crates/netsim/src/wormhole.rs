//! Flit-level wormhole routing — the switching discipline the paper's
//! networks actually use, including a faithful Compressionless Routing
//! mode.
//!
//! A packet travels as a *worm*: a head flit that allocates channels
//! hop by hop, body flits that follow through the reserved chain, and a
//! tail that releases each channel as it passes. Channels have small
//! flit buffers; when the head blocks, the body *compresses* into those
//! buffers and, if they fill, backpressure holds flits at the source.
//! Three classic consequences, all observable here:
//!
//! * **path holding** — a blocked worm pins a chain of channels, so
//!   congestion spreads (and a non-draining receiver wedges paths);
//! * **deadlock** — cyclic channel dependencies (e.g. dimension-order
//!   routing across a torus's wraparound links) can deadlock outright;
//!   the dateline virtual-channel discipline
//!   ([`VcDiscipline::Dateline`]) breaks the cycle;
//! * **Compressionless Routing** ([`WormholeConfig::cr`]) — because a
//!   worm longer than its path must begin arriving before it fully
//!   leaves the source, the source can detect a blocked or corrupted
//!   delivery (no "compression relief"), *kill* the path, and
//!   retransmit. That yields deadlock freedom independent of packet
//!   acceptance, packet-level fault tolerance, and — with per-pair
//!   injection serialization — in-order delivery: exactly the
//!   high-level services of the paper's §4.

use std::collections::HashMap;

use crate::fault::{FaultConfig, FaultSchedule};
use crate::id::NodeId;
use crate::network::{Guarantees, InjectError, Network, RxMeta, WakeSet};
use crate::packet::Packet;
use crate::pair::PairMap;
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::Time;
use crate::topology::{LinkId, Topology};

/// Virtual-channel assignment discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcDiscipline {
    /// Every worm uses VC 0 of each link. Susceptible to deadlock on
    /// topologies with cyclic channel dependencies (torus wrap links).
    Single,
    /// Worms start on VC 0 and switch to VC 1 at a *dateline* (modeled
    /// as: a worm whose path wraps uses VC 1 throughout) — the standard
    /// torus deadlock-avoidance scheme. Requires ≥ 2 VCs.
    Dateline,
    /// Random VC per worm (throughput, not safety).
    Random,
}

/// Compressionless-Routing mode parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrMode {
    /// Cycles a worm may sit completely blocked before the source
    /// detects the lack of compression relief and kills the path.
    pub kill_timeout: u64,
    /// Cycles before a killed worm is retried.
    pub retry_backoff: u64,
    /// Pad the worm so it is at least as long (in flits) as its path,
    /// guaranteeing the head must begin arriving before the tail leaves
    /// the source (the CR invariant).
    pub pad_to_path: bool,
}

impl Default for CrMode {
    fn default() -> Self {
        CrMode {
            kill_timeout: 32,
            retry_backoff: 16,
            pad_to_path: true,
        }
    }
}

/// Configuration of a [`WormholeNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct WormholeConfig {
    /// Flit buffer depth per (link, VC) channel (≥ 1).
    pub flit_buffer: usize,
    /// Virtual channels per physical link (≥ 1).
    pub virtual_channels: usize,
    /// VC assignment discipline.
    pub discipline: VcDiscipline,
    /// Completed packets a node's receive queue holds.
    pub rx_queue_capacity: usize,
    /// Fault plane (see [`FaultConfig`]), executed by a seeded
    /// [`FaultSchedule`]. Corruption: without CR the packet is dropped
    /// at the receiving NI (detect-only); with CR the tail
    /// acknowledgement fails and the source retransmits. Under CR the
    /// duplicate/reorder faults are suppressed (the substrate's
    /// in-order guarantee is part of its contract).
    pub fault: FaultConfig,
    /// Compressionless Routing mode; `None` is a plain wormhole network.
    pub cr: Option<CrMode>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        WormholeConfig {
            flit_buffer: 2,
            virtual_channels: 1,
            discipline: VcDiscipline::Single,
            rx_queue_capacity: 16,
            fault: FaultConfig::default(),
            cr: None,
            seed: 0xC0FFEE,
        }
    }
}

/// A channel is one virtual channel of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChannelId {
    link: LinkId,
    vc: usize,
}

#[derive(Debug, Clone)]
struct Worm {
    packet: Packet,
    path: Vec<LinkId>,
    vc: usize,
    /// Next path index the head will try to allocate; `path.len()`
    /// means the head has reached the destination.
    head_idx: usize,
    /// Channels currently held, oldest (tail-most) first, with the
    /// number of flits buffered in each.
    chain: Vec<(ChannelId, usize)>,
    /// Flits not yet injected at the source.
    at_source: usize,
    /// Flits delivered into the destination's assembly buffer.
    delivered: usize,
    /// Total flits (head + body + tail).
    total_flits: usize,
    blocked_since: Option<Time>,
    corrupted: bool,
    retries: u64,
    retry_at: Option<Time>,
}

impl Worm {
    fn fully_delivered(&self) -> bool {
        self.delivered == self.total_flits
    }
}

/// A flit-level wormhole-routed network over a [`Topology`].
#[derive(Debug, Clone)]
pub struct WormholeNetwork<T> {
    topo: T,
    cfg: WormholeConfig,
    owners: HashMap<ChannelId, u64>,
    worms: HashMap<u64, Worm>,
    order: Vec<u64>, // processing order (injection order)
    next_worm: u64,
    rx: Vec<std::collections::VecDeque<Packet>>,
    now: Time,
    pair_seq: PairMap<u64>,
    pair_active: PairMap<u64>, // CR serialization
    last_progress: Time,
    stats: NetStats,
    kills: u64,
    rng: SimRng,
    faults: FaultSchedule,
    wake: WakeSet,
}

impl<T: Topology> WormholeNetwork<T> {
    /// Build a wormhole network.
    ///
    /// # Panics
    ///
    /// Panics if buffers/VCs are zero, or [`VcDiscipline::Dateline`] is
    /// requested with fewer than 2 virtual channels.
    pub fn new(topo: T, cfg: WormholeConfig) -> Self {
        assert!(cfg.flit_buffer >= 1, "flit buffer must hold at least one flit");
        assert!(cfg.virtual_channels >= 1, "need at least one virtual channel");
        if cfg.discipline == VcDiscipline::Dateline {
            assert!(
                cfg.virtual_channels >= 2,
                "dateline discipline needs at least two virtual channels"
            );
        }
        let rx = (0..topo.num_nodes()).map(|_| Default::default()).collect();
        let rng = SimRng::new(cfg.seed);
        let faults = FaultSchedule::new(cfg.fault.clone(), cfg.seed);
        let wake = WakeSet::new(topo.num_nodes());
        WormholeNetwork {
            topo,
            cfg,
            owners: HashMap::new(),
            worms: HashMap::new(),
            order: Vec::new(),
            next_worm: 0,
            rx,
            now: Time::ZERO,
            pair_seq: PairMap::default(),
            pair_active: PairMap::default(),
            last_progress: Time::ZERO,
            stats: NetStats::new(),
            kills: 0,
            rng,
            faults,
            wake,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WormholeConfig {
        &self.cfg
    }

    /// Paths killed and retried by Compressionless Routing (0 outside
    /// CR mode).
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Cycles since any flit moved. A large value with worms in flight
    /// means wedged — on a plain wormhole network, possibly true
    /// deadlock.
    pub fn stalled_for(&self) -> u64 {
        self.now.since(self.last_progress)
    }

    fn flits_for(&self, payload_words: usize, path_len: usize) -> usize {
        // head + one flit per two payload words + tail.
        let base = 2 + payload_words.div_ceil(2);
        match self.cfg.cr {
            Some(cr) if cr.pad_to_path => base.max(path_len + 1),
            _ => base,
        }
    }

    fn pick_vc(&mut self, path: &[LinkId], src: NodeId, dst: NodeId) -> usize {
        match self.cfg.discipline {
            VcDiscipline::Single => 0,
            VcDiscipline::Random => self.rng.gen_index(self.cfg.virtual_channels),
            VcDiscipline::Dateline => {
                // Wrapping worms (canonical torus paths whose first link
                // differs in direction class) ride VC 1. We approximate
                // "crosses the dateline" as: the path's links are not
                // monotone in index — cheap and adequate for the torus
                // topologies here, where wrap links have the highest
                // indices per direction block.
                let wraps = path
                    .windows(2)
                    .any(|w| w[1].index() < w[0].index())
                    || (src.index() > dst.index());
                usize::from(wraps)
            }
        }
    }

    /// Build a worm for `packet` if its injection channel is free.
    /// `stamped` packets (re-entering from a reorder hold) keep their
    /// sequence number; fresh ones are stamped here, after the channel
    /// check, so a refused injection never consumes a sequence slot.
    /// `delay` postpones the head's first allocation attempt
    /// (fault-plane jitter). On refusal the packet is handed back.
    fn spawn_worm(
        &mut self,
        mut packet: Packet,
        stamped: bool,
        corrupted: bool,
        delay: u64,
    ) -> Result<(), Packet> {
        let (src, dst) = (packet.src(), packet.dst());
        let path = self.topo.canonical_path(src, dst);
        let vc = self.pick_vc(&path, src, dst);
        // The injection port is the first channel: refuse if held.
        let first = ChannelId { link: path[0], vc };
        if self.owners.contains_key(&first) {
            return Err(packet);
        }
        if !stamped {
            let seq = self.pair_seq.entry((src, dst)).or_insert(0);
            packet.stamp(*seq, self.now);
            *seq += 1;
        }
        let total_flits = self.flits_for(packet.len(), path.len());
        let id = self.next_worm;
        self.next_worm += 1;
        let worm = Worm {
            packet,
            path,
            vc,
            head_idx: 0,
            chain: Vec::new(),
            at_source: total_flits,
            delivered: 0,
            total_flits,
            blocked_since: None,
            corrupted,
            retries: 0,
            retry_at: (delay > 0).then(|| self.now + delay),
        };
        self.worms.insert(id, worm);
        self.order.push(id);
        if self.cfg.cr.is_some() {
            self.pair_active.insert((src, dst), id);
        }
        Ok(())
    }

    /// Re-inject packets whose reorder hold has expired.
    fn release_due_holds(&mut self) {
        for p in self.faults.take_released(self.now) {
            if let Err(p) = self.spawn_worm(p, true, false, 0) {
                self.faults.hold_again(p, self.now);
            }
        }
    }

    fn step(&mut self) {
        self.now += 1;
        self.release_due_holds();
        let ids: Vec<u64> = self.order.clone();
        for id in ids {
            self.step_worm(id);
        }
        self.worms.retain(|_, w| !(w.fully_delivered() && w.chain.is_empty()));
        let alive: std::collections::HashSet<u64> = self.worms.keys().copied().collect();
        self.order.retain(|id| alive.contains(id));
        self.pair_active.retain(|_, id| alive.contains(id));
    }

    fn step_worm(&mut self, id: u64) {
        let Some(worm) = self.worms.get(&id) else { return };

        // Waiting out a retry backoff?
        if let Some(at) = worm.retry_at {
            if self.now >= at {
                self.worms.get_mut(&id).expect("exists").retry_at = None;
            }
            return;
        }

        let mut progressed = false;

        // 1. Head allocation: try to grab the next channel.
        let (head_idx, path_len) = (worm.head_idx, worm.path.len());
        if head_idx < path_len {
            let ch = ChannelId {
                link: worm.path[head_idx],
                vc: worm.vc,
            };
            if let std::collections::hash_map::Entry::Vacant(e) = self.owners.entry(ch) {
                e.insert(id);
                let w = self.worms.get_mut(&id).expect("exists");
                w.chain.push((ch, 0));
                w.head_idx += 1;
                progressed = true;
            }
        }

        // 2. Flit movement, head-most first: drain into the destination,
        //    shuffle forward through the chain, feed from the source.
        let w = self.worms.get_mut(&id).expect("exists");
        let at_dest = w.head_idx == w.path.len() && !w.chain.is_empty();
        if at_dest {
            // The head channel delivers one flit per cycle into the
            // packet assembly at the destination (free of the rx-queue
            // bound until the packet completes).
            let last = w.chain.len() - 1;
            if w.chain[last].1 > 0 {
                w.chain[last].1 -= 1;
                w.delivered += 1;
                progressed = true;
            }
        }
        // Forward flits between adjacent held channels.
        let buf = self.cfg.flit_buffer;
        let w = self.worms.get_mut(&id).expect("exists");
        for i in (1..w.chain.len()).rev() {
            if w.chain[i - 1].1 > 0 && w.chain[i].1 < buf {
                w.chain[i - 1].1 -= 1;
                w.chain[i].1 += 1;
                progressed = true;
            }
        }
        // Feed from the source into the first held channel.
        if !w.chain.is_empty() && w.at_source > 0 && w.chain[0].1 < buf {
            w.chain[0].1 += 1;
            w.at_source -= 1;
            progressed = true;
        }
        // Degenerate loopback-like case: zero-length path (src == dst
        // is handled at injection, so chain empties only by delivery).
        // 3. Tail release: once the source is empty, trailing channels
        //    with no buffered flits have been fully passed.
        let mut released = Vec::new();
        let w = self.worms.get_mut(&id).expect("exists");
        if w.at_source == 0 {
            while w.chain.len() > 1 && w.chain[0].1 == 0 {
                released.push(w.chain.remove(0).0);
            }
            if w.fully_delivered() {
                while let Some((ch, f)) = w.chain.first() {
                    debug_assert_eq!(*f, 0);
                    let _ = f;
                    released.push(*ch);
                    w.chain.remove(0);
                }
            }
        }
        for ch in &released {
            self.owners.remove(ch);
        }
        if !released.is_empty() {
            progressed = true;
        }

        // 4. Completion: all flits delivered.
        let (done, corrupted, dst) = {
            let w = self.worms.get(&id).expect("exists");
            (
                w.fully_delivered() && w.chain.is_empty() && w.delivered > 0,
                w.corrupted,
                w.packet.dst(),
            )
        };
        if done {
            if corrupted && self.cfg.cr.is_none() {
                // Detect-only: CRC failure at the NI, packet dropped
                // (the worm is consumed and reaped by `step`).
                self.stats.dropped_corrupt += 1;
                self.last_progress = self.now;
                return;
            }
            if corrupted {
                // CR: the tail acknowledgement fails; kill and retry.
                self.kill_worm(id, "corruption");
                return;
            }
            if self.rx[dst.index()].len() < self.cfg.rx_queue_capacity {
                let packet = self.worms.get(&id).expect("exists").packet.clone();
                let (src, seq, injected) = (
                    packet.src(),
                    packet.pair_seq().expect("stamped"),
                    packet.injected_at(),
                );
                self.rx[dst.index()].push_back(packet);
                self.wake.mark(dst);
                let depth = self.rx[dst.index()].len();
                self.stats
                    .record_delivery(src, dst, seq, injected, self.now, depth);
                self.last_progress = self.now;
            } else if self.cfg.cr.is_some() {
                // Rejection: the destination cannot absorb the packet;
                // tear down and retry later (end-to-end flow control).
                self.stats.rejects += 1;
                self.kill_worm(id, "rejection");
            } else {
                // Plain wormhole: the completed packet waits, holding
                // its final channel as the reassembly slot; delivery is
                // retried next cycle (head-of-line blocking).
                let ch = {
                    let w = self.worms.get_mut(&id).expect("exists");
                    let ch = ChannelId { link: w.path[w.path.len() - 1], vc: w.vc };
                    w.delivered = w.total_flits - 1;
                    w.chain.push((ch, 1));
                    ch
                };
                self.owners.insert(ch, id);
            }
            return;
        }

        // 5. Blocked-time accounting and CR kill detection.
        if progressed {
            let w = self.worms.get_mut(&id).expect("exists");
            w.blocked_since = None;
            self.last_progress = self.now;
        } else {
            let since = {
                let w = self.worms.get_mut(&id).expect("exists");
                *w.blocked_since.get_or_insert(self.now)
            };
            if let Some(cr) = self.cfg.cr {
                if self.now.since(since) >= cr.kill_timeout {
                    self.kill_worm(id, "no compression relief");
                }
            }
        }
    }

    /// Tear down a worm's path and schedule a retransmission from the
    /// source (Compressionless Routing's kill mechanism).
    fn kill_worm(&mut self, id: u64, _reason: &str) {
        let cr = self.cfg.cr.expect("kill only happens in CR mode");
        // Jittered backoff: symmetric retries would re-create the same
        // cyclic allocation forever (livelock); randomization breaks the
        // symmetry, as in the CR paper's probabilistic progress argument.
        let jitter = self.rng.gen_inclusive(cr.retry_backoff.max(1));
        // A retransmission may be corrupted again, independently.
        let prob = self.cfg.fault.corruption_prob;
        let corrupted_again = prob > 0.0 && self.rng.gen_bool(prob);
        let Some(w) = self.worms.get_mut(&id) else { return };
        let released: Vec<ChannelId> = w.chain.drain(..).map(|(ch, _)| ch).collect();
        w.head_idx = 0;
        w.at_source = w.total_flits;
        w.delivered = 0;
        w.blocked_since = None;
        w.retries += 1;
        w.retry_at = Some(self.now + cr.retry_backoff + jitter);
        w.corrupted = corrupted_again;
        for ch in released {
            self.owners.remove(&ch);
        }
        self.kills += 1;
        self.stats.hw_retransmits += 1;
        self.last_progress = self.now;
    }
}

impl<T: Topology> Network for WormholeNetwork<T> {
    fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
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
        if dst.index() >= self.num_nodes() {
            return Err(InjectError::BadDestination(dst));
        }
        if src.index() >= self.num_nodes() {
            return Err(InjectError::BadDestination(src));
        }
        if src == dst {
            if self.rx[dst.index()].len() >= self.cfg.rx_queue_capacity {
                self.stats.backpressure += 1;
                return Err(InjectError::Backpressure);
            }
            let seq = self.pair_seq.entry((src, dst)).or_insert(0);
            packet.stamp(*seq, self.now);
            *seq += 1;
            self.stats.injected += 1;
            let pseq = packet.pair_seq().expect("stamped");
            let injected = packet.injected_at();
            self.rx[dst.index()].push_back(packet);
            self.wake.mark(dst);
            let depth = self.rx[dst.index()].len();
            self.stats
                .record_delivery(src, dst, pseq, injected, self.now, depth);
            return Ok(());
        }

        // CR serializes worms per pair: in-order delivery needs the
        // previous worm to finish before the next enters.
        if self.cfg.cr.is_some() && self.pair_active.contains_key(&(src, dst)) {
            self.stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        }

        let faults = self.faults.on_inject(src, dst, self.now, &mut self.stats);
        if faults.vanish {
            // Lost before a worm ever forms. The packet was never
            // stamped, so surviving per-pair sequence numbers stay
            // contiguous for the order tracker.
            self.stats.injected += 1;
            return Ok(());
        }
        if faults.hold && self.cfg.cr.is_none() {
            // Reorder burst: stamp now (the packet keeps its place in
            // the pair sequence) but let later traffic overtake it.
            // Suppressed under CR, whose contract is in-order delivery.
            let seq = self.pair_seq.entry((src, dst)).or_insert(0);
            packet.stamp(*seq, self.now);
            *seq += 1;
            self.stats.injected += 1;
            self.faults.hold(packet, self.now);
            return Ok(());
        }

        let dup = (faults.duplicate && self.cfg.cr.is_none()).then(|| packet.clone());
        if self.spawn_worm(packet, false, faults.corrupt, faults.extra_delay).is_err() {
            self.stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        }
        self.stats.injected += 1;
        if let Some(dup) = dup {
            // Link-level retry ghost: a second worm carrying the same
            // payload under the next sequence number.
            if self.spawn_worm(dup, false, false, 0).is_ok() {
                self.stats.duplicated += 1;
            }
        }
        self.faults.note_injection();
        self.release_due_holds();
        self.last_progress = self.now;
        Ok(())
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        self.rx.get(node.index())?.front().map(RxMeta::of)
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        self.rx.get_mut(node.index())?.pop_front()
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.rx.get(node.index()).map_or(0, |q| q.len())
    }

    fn in_flight(&self) -> usize {
        self.worms.len() + self.faults.held_count()
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn guarantees(&self) -> Guarantees {
        if self.cfg.cr.is_some() {
            Guarantees::HIGH_LEVEL
        } else {
            Guarantees::RAW
        }
    }

    fn restarts(&self, node: NodeId) -> u32 {
        self.faults.restarts(node, self.now)
    }

    fn restarts_hint(&self) -> u64 {
        self.faults.restarts_total(self.now)
    }

    fn next_restart_at(&self) -> Option<Time> {
        self.faults.next_restart_after(self.now)
    }

    fn take_delivered(&mut self) -> Vec<NodeId> {
        self.wake.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Mesh2D, Torus2D};

    fn pkt(src: usize, dst: usize, seq: u32) -> Packet {
        Packet::new(NodeId::new(src), NodeId::new(dst), 1, seq, vec![seq; 4])
    }

    fn mesh(cfg: WormholeConfig) -> WormholeNetwork<Mesh2D> {
        WormholeNetwork::new(Mesh2D::new(4, 4), cfg)
    }

    #[test]
    fn delivers_a_packet_flit_by_flit() {
        let mut net = mesh(WormholeConfig::default());
        net.try_inject(pkt(0, 15, 9)).unwrap();
        assert_eq!(net.in_flight(), 1);
        assert!(net.drain(10_000));
        let got = net.try_receive(NodeId::new(15)).expect("delivered");
        assert_eq!(got.data(), &[9, 9, 9, 9]);
        // 6 hops at ~1 flit/cycle: latency must exceed the hop count.
        assert!(net.stats().latency.mean() > 6.0);
    }

    #[test]
    fn worms_preserve_pair_order() {
        let mut net = mesh(WormholeConfig::default());
        let mut sent = 0u32;
        let mut got = Vec::new();
        while sent < 40 || net.in_flight() > 0 {
            if sent < 40 && net.try_inject(pkt(0, 15, sent)).is_ok() {
                sent += 1;
            }
            net.advance(1);
            while let Some(p) = net.try_receive(NodeId::new(15)) {
                got.push(p.header());
            }
        }
        assert_eq!(got.len(), 40);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn blocked_receiver_holds_paths() {
        // Node 5 never drains; with a tiny rx queue the worms to it
        // stay wedged holding channels, and stall time grows.
        let mut net = mesh(WormholeConfig {
            rx_queue_capacity: 1,
            ..WormholeConfig::default()
        });
        for s in 0..4u32 {
            let _ = net.try_inject(pkt(0, 5, s));
            net.advance(20);
        }
        net.advance(500);
        assert!(net.in_flight() > 0, "worms should be wedged behind the full rx");
        assert!(net.stalled_for() > 100);
    }

    #[test]
    fn torus_dor_without_vcs_deadlocks() {
        // Four nodes around a 4x1 torus ring, each sending 2 hops
        // forward: the wraparound closes a cyclic channel dependency
        // and the worms (padded long by their flit count) deadlock.
        let mut net = WormholeNetwork::new(
            Torus2D::new(4, 1),
            WormholeConfig {
                flit_buffer: 1,
                ..WormholeConfig::default()
            },
        );
        for s in 0..4usize {
            let d = (s + 2) % 4;
            let p = Packet::new(NodeId::new(s), NodeId::new(d), 1, 0, vec![7; 8]);
            net.try_inject(p).unwrap();
        }
        net.advance(2_000);
        assert!(net.in_flight() > 0, "expected deadlock");
        assert!(
            net.stalled_for() > 1_500,
            "no flit should move once the cycle closes (stalled {})",
            net.stalled_for()
        );
    }

    #[test]
    fn dateline_vcs_break_the_torus_deadlock() {
        let mut net = WormholeNetwork::new(
            Torus2D::new(4, 1),
            WormholeConfig {
                flit_buffer: 1,
                virtual_channels: 2,
                discipline: VcDiscipline::Dateline,
                ..WormholeConfig::default()
            },
        );
        for s in 0..4usize {
            let d = (s + 2) % 4;
            let p = Packet::new(NodeId::new(s), NodeId::new(d), 1, 0, vec![7; 8]);
            net.try_inject(p).unwrap();
        }
        assert!(net.drain_extracting(20_000), "dateline VCs must drain the ring");
        assert_eq!(net.stats().delivered, 4);
    }

    #[test]
    fn cr_mode_breaks_the_same_deadlock_by_killing() {
        // Same deadlock-prone workload, single VC — but Compressionless
        // Routing detects the lack of compression relief, kills paths,
        // and retries until everything delivers.
        let mut net = WormholeNetwork::new(
            Torus2D::new(4, 1),
            WormholeConfig {
                flit_buffer: 1,
                cr: Some(CrMode::default()),
                ..WormholeConfig::default()
            },
        );
        // Inject all four in the same cycle so the cyclic allocation
        // actually forms (distinct pairs, distinct first channels).
        for s in 0..4usize {
            let d = (s + 2) % 4;
            net.try_inject(Packet::new(NodeId::new(s), NodeId::new(d), 1, 0, vec![7; 8]))
                .unwrap();
        }
        assert!(net.drain_extracting(50_000), "CR must resolve the deadlock");
        assert_eq!(net.stats().delivered, 4);
        assert!(net.kills() > 0, "resolution should have used kills");
    }

    #[test]
    fn cr_mode_retransmits_corrupted_worms() {
        let mut net = mesh(WormholeConfig {
            fault: FaultConfig { corruption_prob: 0.3, ..FaultConfig::default() },
            cr: Some(CrMode::default()),
            seed: 11,
            ..WormholeConfig::default()
        });
        let mut sent = 0u32;
        let mut got = Vec::new();
        while sent < 50 || net.in_flight() > 0 {
            if sent < 50 && net.try_inject(pkt(0, 15, sent)).is_ok() {
                sent += 1;
            }
            net.advance(1);
            while let Some(p) = net.try_receive(NodeId::new(15)) {
                assert!(!p.is_corrupted());
                got.push(p.header());
            }
        }
        assert_eq!(got.len(), 50, "reliable despite corruption");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "and in order");
        assert!(net.stats().hw_retransmits > 5);
        assert_eq!(net.stats().dropped_corrupt, 0);
    }

    #[test]
    fn plain_mode_drops_corrupted_worms() {
        let mut net = mesh(WormholeConfig {
            fault: FaultConfig { corruption_prob: 0.4, ..FaultConfig::default() },
            seed: 3,
            // Room for every packet: nothing must block on the receive
            // queue while the source is still injecting.
            rx_queue_capacity: 64,
            ..WormholeConfig::default()
        });
        let mut sent = 0u32;
        while sent < 50 {
            if net.try_inject(pkt(0, 15, sent)).is_ok() {
                sent += 1;
            }
            net.advance(1);
        }
        assert!(net.drain_extracting(50_000));
        let st = net.stats();
        assert!(st.dropped_corrupt > 5, "{st}");
        assert_eq!(st.delivered + st.dropped_corrupt, 50);
    }

    #[test]
    fn cr_rejection_on_full_receiver_keeps_network_live() {
        let mut net = mesh(WormholeConfig {
            rx_queue_capacity: 1,
            cr: Some(CrMode::default()),
            ..WormholeConfig::default()
        });
        // Fill node 5's queue and keep pushing: headers get rejected,
        // paths killed, but traffic to node 10 still flows.
        for s in 0..3u32 {
            let _ = net.try_inject(pkt(0, 5, s));
            net.advance(60);
        }
        net.try_inject(pkt(4, 10, 0)).unwrap();
        let mut delivered_other = false;
        for _ in 0..2_000 {
            net.advance(1);
            if net.try_receive(NodeId::new(10)).is_some() {
                delivered_other = true;
                break;
            }
        }
        assert!(delivered_other, "CR must not let a stuck receiver wedge others");
        assert!(net.stats().rejects > 0 || net.kills() > 0);
    }

    #[test]
    fn cr_guarantees_are_high_level_plain_are_raw() {
        assert_eq!(mesh(WormholeConfig::default()).guarantees(), Guarantees::RAW);
        assert_eq!(
            mesh(WormholeConfig { cr: Some(CrMode::default()), ..WormholeConfig::default() })
                .guarantees(),
            Guarantees::HIGH_LEVEL
        );
    }

    #[test]
    fn loopback_and_bad_destination() {
        let mut net = mesh(WormholeConfig::default());
        net.try_inject(pkt(3, 3, 1)).unwrap();
        assert_eq!(net.rx_pending(NodeId::new(3)), 1);
        assert!(net.try_inject(pkt(0, 99, 0)).is_err());
    }
}
