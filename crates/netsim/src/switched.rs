//! The CM-5-like store-and-forward switched network.
//!
//! One bounded FIFO per directed link; a packet occupies the head of a
//! link for `link_latency` cycles, then moves to the next link on its
//! path (or the destination's receive queue) if there is space, otherwise
//! it blocks — finite buffering with backpressure all the way to the
//! injection port. Multipath route strategies reorder packets; corrupted
//! packets are detected (CRC) at the receiving NI and silently discarded,
//! never repaired — exactly the three network features whose software
//! cost the paper measures.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::fault::{FaultConfig, FaultSchedule};
use crate::id::{NodeId, PacketId};
use crate::network::{Guarantees, InjectError, Network, RxMeta, WakeSet};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::Time;
use crate::topology::{rng_fn, LinkId, Topology};

/// How the network chooses among minimal paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStrategy {
    /// One fixed path per `(src, dst)` pair. Preserves per-pair delivery
    /// order (at the cost of load imbalance).
    Deterministic,
    /// Pick the least-loaded of `candidates` sampled minimal paths
    /// (multipath adaptive routing — reorders).
    Adaptive {
        /// Minimal paths sampled per injection.
        candidates: usize,
    },
    /// Pick uniformly among `candidates` sampled minimal paths
    /// (randomized routing — reorders).
    Randomized {
        /// Minimal paths sampled per injection.
        candidates: usize,
    },
}

/// Configuration for [`SwitchedNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchedConfig {
    /// Cycles a packet occupies a link (≥ 1).
    pub link_latency: u64,
    /// Packets a link queue can hold (≥ 1).
    pub link_queue_capacity: usize,
    /// Packets a node's receive queue can hold before the network backs
    /// up (≥ 1) — the finite node buffering of §2.2.
    pub rx_queue_capacity: usize,
    /// Path-selection strategy.
    pub strategy: RouteStrategy,
    /// Virtual channels per link (≥ 1). With more than one, packets on
    /// the *same* physical path can overtake each other — the second
    /// source of arbitrary delivery order §2.2 names (after multipath
    /// routing), and a reason even deterministic routing cannot promise
    /// order on such hardware.
    pub virtual_channels: usize,
    /// Fault injection (see [`FaultConfig`]); executed by a
    /// [`FaultSchedule`] seeded from `seed`.
    pub fault: FaultConfig,
    /// RNG seed (the simulation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SwitchedConfig {
    fn default() -> Self {
        SwitchedConfig {
            link_latency: 2,
            link_queue_capacity: 4,
            rx_queue_capacity: 16,
            strategy: RouteStrategy::Deterministic,
            virtual_channels: 1,
            fault: FaultConfig::default(),
            seed: 0xC0FFEE,
        }
    }
}

#[derive(Debug, Clone)]
struct Transit {
    packet: Packet,
    path: Vec<LinkId>,
    hop: usize,
    vc: usize,
    ready_at: Time,
    /// Fault-plane delay jitter still to be applied, consumed the first
    /// time the packet reaches a queue head.
    jitter: u64,
}

#[derive(Debug, Clone, Default)]
struct Link {
    // One FIFO per virtual channel; the physical link serves the VC
    // heads round-robin, one packet movement per cycle.
    queues: Vec<VecDeque<Transit>>,
    rr: usize,
}

impl Link {
    fn with_vcs(vcs: usize) -> Self {
        Link {
            queues: (0..vcs).map(|_| VecDeque::new()).collect(),
            rr: 0,
        }
    }

    fn occupancy(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// In-flight network state saved by [`SwitchedNetwork::swap_out`]
/// during a timesharing context switch.
#[derive(Debug)]
pub struct SwappedContext {
    transits: Vec<Transit>,
}

impl SwappedContext {
    /// Packets held in this context.
    pub fn len(&self) -> usize {
        self.transits.len()
    }

    /// Whether the context holds no packets.
    pub fn is_empty(&self) -> bool {
        self.transits.is_empty()
    }
}

/// A CM-5-like packet-switched network over a [`Topology`].
#[derive(Debug, Clone)]
pub struct SwitchedNetwork<T> {
    topo: T,
    cfg: SwitchedConfig,
    links: Vec<Link>,
    rx: Vec<VecDeque<Packet>>,
    now: Time,
    next_id: u64,
    pair_seq: HashMap<(NodeId, NodeId), u64>,
    in_flight: usize,
    last_progress: Time,
    stats: NetStats,
    rng: SimRng,
    faults: FaultSchedule,
    wake: WakeSet,
    // Links with at least one queued packet, in ascending index order.
    // `step` scans only these instead of every link in the topology; on
    // a large, mostly-idle fabric that is the difference between O(L)
    // and O(occupied) per cycle. Scanning a link with empty queues is a
    // no-op (no head to move, `rr` untouched), so skipping empty links
    // is trace-exact.
    occupied: BTreeSet<usize>,
    // Reusable snapshot buffer for the per-cycle scan.
    scan: Vec<usize>,
}

impl<T: Topology> SwitchedNetwork<T> {
    /// Build a network over `topo` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `link_latency`, `link_queue_capacity` or
    /// `rx_queue_capacity` is zero.
    pub fn new(topo: T, cfg: SwitchedConfig) -> Self {
        assert!(cfg.link_latency >= 1, "link latency must be at least 1 cycle");
        assert!(cfg.link_queue_capacity >= 1, "link queues must hold at least 1 packet");
        assert!(cfg.rx_queue_capacity >= 1, "rx queues must hold at least 1 packet");
        assert!(cfg.virtual_channels >= 1, "need at least one virtual channel");
        let links = (0..topo.num_links())
            .map(|_| Link::with_vcs(cfg.virtual_channels))
            .collect();
        let rx = (0..topo.num_nodes()).map(|_| VecDeque::new()).collect();
        let rng = SimRng::new(cfg.seed);
        let faults = FaultSchedule::new(cfg.fault.clone(), cfg.seed);
        let wake = WakeSet::new(topo.num_nodes());
        SwitchedNetwork {
            topo,
            cfg,
            links,
            rx,
            now: Time::ZERO,
            next_id: 0,
            pair_seq: HashMap::new(),
            in_flight: 0,
            last_progress: Time::ZERO,
            stats: NetStats::new(),
            rng,
            faults,
            wake,
            occupied: BTreeSet::new(),
            scan: Vec::new(),
        }
    }

    /// The fault schedule driving this network's fault plane.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Suspend the network for a timesharing context switch: every
    /// in-flight packet is extracted from the links into an opaque
    /// context (the CM-5's "all-fall-down" mode, where packets drop out
    /// of the network to be saved by the operating system).
    ///
    /// Receive queues are node-local state and are left in place.
    pub fn swap_out(&mut self) -> SwappedContext {
        let mut transits = Vec::new();
        for link in &mut self.links {
            for q in &mut link.queues {
                transits.extend(q.drain(..));
            }
        }
        self.occupied.clear();
        self.in_flight -= transits.len();
        SwappedContext { transits }
    }

    /// Resume a previously swapped context: the saved packets are
    /// reinjected at the hop where they fell, in an **arbitrary order**
    /// — this is the delivery-order hazard §2.2 attributes to
    /// timesharing, and it happens even under deterministic routing.
    /// Reinjection bypasses link-queue capacity (the OS owns the
    /// buffers during the swap).
    pub fn swap_in(&mut self, mut context: SwappedContext) {
        self.rng.shuffle(&mut context.transits);
        self.in_flight += context.transits.len();
        for mut transit in context.transits.drain(..) {
            let li = transit.path[transit.hop].index();
            let vc = transit.vc;
            transit.ready_at = if self.links[li].queues[vc].is_empty() {
                self.now + self.cfg.link_latency
            } else {
                Time::from_cycles(u64::MAX)
            };
            self.links[li].queues[vc].push_back(transit);
            self.occupied.insert(li);
        }
        self.last_progress = self.now;
    }

    /// The topology this network routes over.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The active configuration.
    pub fn config(&self) -> &SwitchedConfig {
        &self.cfg
    }

    /// Cycles since any packet last moved or was delivered. A large
    /// value while packets are [in flight](Network::in_flight) indicates
    /// the network is stalled — e.g. a destination has stopped
    /// extracting packets and backpressure has propagated (the
    /// deadlock/overflow hazard of §2.2).
    pub fn stalled_for(&self) -> u64 {
        self.now.since(self.last_progress)
    }

    fn choose_path(&mut self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        match self.cfg.strategy {
            RouteStrategy::Deterministic => self.topo.canonical_path(src, dst),
            RouteStrategy::Adaptive { candidates } => {
                let cands = {
                    let mut f = rng_fn(&mut self.rng);
                    self.topo.candidate_paths(src, dst, &mut f, candidates.max(1))
                };
                cands
                    .into_iter()
                    .min_by_key(|p| {
                        p.iter()
                            .map(|l| self.links[l.index()].occupancy())
                            .sum::<usize>()
                    })
                    .expect("candidate_paths returns at least one path")
            }
            RouteStrategy::Randomized { candidates } => {
                let mut cands = {
                    let mut f = rng_fn(&mut self.rng);
                    self.topo.candidate_paths(src, dst, &mut f, candidates.max(1))
                };
                let pick = self.rng.gen_index(cands.len());
                cands.swap_remove(pick)
            }
        }
    }

    fn deliver(&mut self, transit: Transit) {
        let packet = transit.packet;
        self.in_flight -= 1;
        self.last_progress = self.now;
        let (src, dst) = (packet.src(), packet.dst());
        if packet.is_corrupted() {
            // CRC check at the receiving NI: detect and discard.
            self.stats.dropped_corrupt += 1;
            return;
        }
        let seq = packet.pair_seq().expect("stamped at injection");
        let injected = packet.injected_at();
        self.rx[dst.index()].push_back(packet);
        self.wake.mark(dst);
        let depth = self.rx[dst.index()].len();
        self.stats
            .record_delivery(src, dst, seq, injected, self.now, depth);
    }

    fn step(&mut self) {
        self.now += 1;
        self.release_due_holds();
        if self.occupied.is_empty() {
            return;
        }
        let vcs = self.cfg.virtual_channels;
        // Move at most one packet per physical link per cycle: the
        // round-robin scan over virtual-channel heads finds the first
        // one whose traversal completed and whose next buffer has
        // space. A ready head on another VC can thereby overtake a
        // blocked one — that is exactly how virtual channels break
        // delivery order.
        //
        // Only occupied links are visited, in ascending index order —
        // the same order the full scan would reach them. A link that
        // *becomes* occupied mid-scan (a head moved onto it) holds only
        // packets with `ready_at > now`, so the full scan's visit to it
        // would be a no-op; a link occupied at snapshot time cannot
        // empty before its visit (only its own visit pops it).
        let mut scan = std::mem::take(&mut self.scan);
        scan.clear();
        scan.extend(self.occupied.iter().copied());
        for &li in &scan {
            let start = self.links[li].rr;
            for k in 0..vcs {
                let vc = (start + k) % vcs;
                if self.try_move_head(li, vc) {
                    self.links[li].rr = (vc + 1) % vcs;
                    break;
                }
            }
        }
        self.scan = scan;
    }

    /// Attempt to move the head of `(link, vc)`; returns whether a
    /// packet moved (or was delivered/dropped).
    fn try_move_head(&mut self, li: usize, vc: usize) -> bool {
        let Some(head) = self.links[li].queues[vc].front() else {
            return false;
        };
        if head.ready_at > self.now {
            return false;
        }
        let last_hop = head.hop + 1 == head.path.len();
        if last_hop {
            let dst = head.packet.dst().index();
            let corrupt = head.packet.is_corrupted();
            if corrupt || self.rx[dst].len() < self.cfg.rx_queue_capacity {
                let transit = self.links[li].queues[vc].pop_front().expect("head exists");
                if self.links[li].occupancy() == 0 {
                    self.occupied.remove(&li);
                }
                self.deliver(transit);
                self.wake_new_head(li, vc);
                return true;
            }
            false // destination buffer full — block in place
        } else {
            let next = head.path[head.hop + 1].index();
            if next != li && self.links[next].queues[vc].len() < self.cfg.link_queue_capacity {
                let mut transit = self.links[li].queues[vc].pop_front().expect("head exists");
                if self.links[li].occupancy() == 0 {
                    self.occupied.remove(&li);
                }
                self.occupied.insert(next);
                transit.hop += 1;
                transit.ready_at = if self.links[next].queues[vc].is_empty() {
                    self.now + self.cfg.link_latency
                } else {
                    Time::from_cycles(u64::MAX)
                };
                self.links[next].queues[vc].push_back(transit);
                self.last_progress = self.now;
                self.wake_new_head(li, vc);
                return true;
            }
            false
        }
    }

    fn wake_new_head(&mut self, li: usize, vc: usize) {
        if let Some(new_head) = self.links[li].queues[vc].front_mut() {
            if new_head.ready_at == Time::from_cycles(u64::MAX) {
                new_head.ready_at = self.now + self.cfg.link_latency + new_head.jitter;
                new_head.jitter = 0;
            }
        }
    }

    /// Put one packet (already stamped and counted) onto the first hop
    /// of a freshly chosen path. Returns `false` if the first-hop queue
    /// is full.
    fn enqueue_on_path(&mut self, packet: Packet, jitter: u64) -> bool {
        let (src, dst) = (packet.src(), packet.dst());
        let path = self.choose_path(src, dst);
        let first = path[0].index();
        let vc = if self.cfg.virtual_channels == 1 {
            0
        } else {
            self.rng.gen_index(self.cfg.virtual_channels)
        };
        if self.links[first].queues[vc].len() >= self.cfg.link_queue_capacity {
            return false;
        }
        let (ready_at, pending_jitter) = if self.links[first].queues[vc].is_empty() {
            (self.now + self.cfg.link_latency + jitter, 0)
        } else {
            (Time::from_cycles(u64::MAX), jitter)
        };
        self.links[first].queues[vc].push_back(Transit {
            packet,
            path,
            hop: 0,
            vc,
            ready_at,
            jitter: pending_jitter,
        });
        self.occupied.insert(first);
        true
    }

    /// Re-enter any reorder-held packets that are now due. They were
    /// counted in `in_flight` when first accepted, so only the queue
    /// entry happens here.
    fn release_due_holds(&mut self) {
        if self.faults.held_count() == 0 {
            return;
        }
        let now = self.now;
        for packet in self.faults.take_released(now) {
            if self.enqueue_on_path(packet.clone(), 0) {
                self.last_progress = now;
            } else {
                self.faults.hold_again(packet, now);
            }
        }
    }
}

impl<T: Topology> Network for SwitchedNetwork<T> {
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

        // Loopback: straight into the local receive queue.
        if src == dst {
            if self.rx[dst.index()].len() >= self.cfg.rx_queue_capacity {
                self.stats.backpressure += 1;
                return Err(InjectError::Backpressure);
            }
            let seq = self.pair_seq.entry((src, dst)).or_insert(0);
            packet.stamp(PacketId::new(self.next_id), *seq, self.now);
            self.next_id += 1;
            *seq += 1;
            self.stats.injected += 1;
            let pseq = packet.pair_seq().expect("just stamped");
            let injected = packet.injected_at();
            self.rx[dst.index()].push_back(packet);
            self.wake.mark(dst);
            let depth = self.rx[dst.index()].len();
            self.stats
                .record_delivery(src, dst, pseq, injected, self.now, depth);
            return Ok(());
        }

        // The fault plane decides this packet's fate up front (its RNG
        // stream is independent of the routing stream).
        let faults = self.faults.on_inject(src, dst, self.now, &mut self.stats);

        if faults.vanish {
            // Lost outright (random drop or outage): software paid for
            // a successful injection, the packet just never arrives.
            // The pair sequence is *not* advanced — the order tracker
            // only reasons about packets that can still be delivered.
            self.stats.injected += 1;
            return Ok(());
        }

        if faults.hold {
            // Reorder burst: park the packet so later traffic overtakes
            // it. Held packets bypass the first-hop queue (they are,
            // conceptually, stuck inside the fabric), so no
            // backpressure applies.
            let seq = self.pair_seq.entry((src, dst)).or_insert(0);
            packet.stamp(PacketId::new(self.next_id), *seq, self.now);
            self.next_id += 1;
            *seq += 1;
            self.stats.injected += 1;
            self.in_flight += 1;
            self.last_progress = self.now;
            self.faults.hold(packet, self.now);
            return Ok(());
        }

        let path = self.choose_path(src, dst);
        let first = path[0].index();
        // Hardware assigns the virtual channel; software has no say.
        let vc = if self.cfg.virtual_channels == 1 {
            0
        } else {
            self.rng.gen_index(self.cfg.virtual_channels)
        };
        if self.links[first].queues[vc].len() >= self.cfg.link_queue_capacity {
            self.stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        }

        let seq = self.pair_seq.entry((src, dst)).or_insert(0);
        packet.stamp(PacketId::new(self.next_id), *seq, self.now);
        self.next_id += 1;
        *seq += 1;
        let duplicate = faults.duplicate.then(|| packet.clone());
        if faults.corrupt {
            packet.corrupt();
        }
        let (ready_at, jitter) = if self.links[first].queues[vc].is_empty() {
            (self.now + self.cfg.link_latency + faults.extra_delay, 0)
        } else {
            (Time::from_cycles(u64::MAX), faults.extra_delay)
        };
        self.links[first].queues[vc].push_back(Transit {
            packet,
            path,
            hop: 0,
            vc,
            ready_at,
            jitter,
        });
        self.occupied.insert(first);
        self.in_flight += 1;
        self.stats.injected += 1;
        self.last_progress = self.now;

        // Link-level retry duplication: a second, identical copy enters
        // on its own (freshly routed) path with its own pair sequence,
        // if the fabric has room for it.
        if let Some(mut dup) = duplicate {
            let next_seq = *self.pair_seq.get(&(src, dst)).expect("pair just stamped");
            dup.stamp(PacketId::new(self.next_id), next_seq, self.now);
            if self.enqueue_on_path(dup, 0) {
                self.next_id += 1;
                *self.pair_seq.get_mut(&(src, dst)).expect("pair just stamped") += 1;
                self.in_flight += 1;
                self.stats.duplicated += 1;
            }
        }

        // Accepted traffic pushes reorder-held packets toward release.
        self.faults.note_injection();
        self.release_due_holds();
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

    fn guarantees(&self) -> Guarantees {
        // Deterministic single-path routing happens to preserve per-pair
        // order in this model, but the CM-5-like substrate promises
        // nothing to software.
        Guarantees::RAW
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
    use crate::fault::OutageWindow;
    use crate::topology::{FatTree, Mesh2D};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pkt(src: usize, dst: usize, seq: u32) -> Packet {
        Packet::new(n(src), n(dst), 1, seq, vec![seq; 4])
    }

    fn drain_all<T: Topology>(net: &mut SwitchedNetwork<T>, node: NodeId) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some(p) = net.try_receive(node) {
            out.push(p);
        }
        out
    }

    #[test]
    fn delivers_a_packet_end_to_end() {
        let mut net = SwitchedNetwork::new(Mesh2D::new(4, 4), SwitchedConfig::default());
        net.try_inject(pkt(0, 15, 7)).unwrap();
        assert_eq!(net.in_flight(), 1);
        assert!(net.drain(1_000));
        let got = net.try_receive(n(15)).expect("delivered");
        assert_eq!(got.header(), 7);
        assert_eq!(got.data(), &[7, 7, 7, 7]);
        assert_eq!(net.stats().delivered, 1);
        assert!(net.stats().latency.mean() > 0.0);
    }

    #[test]
    fn loopback_delivers_immediately() {
        let mut net = SwitchedNetwork::new(Mesh2D::new(2, 2), SwitchedConfig::default());
        net.try_inject(pkt(1, 1, 3)).unwrap();
        assert_eq!(net.rx_pending(n(1)), 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn deterministic_routing_preserves_pair_order() {
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 3, 4),
            SwitchedConfig {
                strategy: RouteStrategy::Deterministic,
                link_queue_capacity: 64,
                rx_queue_capacity: 1024,
                ..SwitchedConfig::default()
            },
        );
        for s in 0..50 {
            // Inject with pauses so injection never hits backpressure.
            while net.try_inject(pkt(0, 63, s)).is_err() {
                net.advance(1);
            }
        }
        assert!(net.drain(100_000));
        let got = drain_all(&mut net, n(63));
        assert_eq!(got.len(), 50);
        let seqs: Vec<u32> = got.iter().map(Packet::header).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "deterministic routing must not reorder");
        assert_eq!(net.stats().order.out_of_order(), 0);
    }

    #[test]
    fn adaptive_routing_reorders_under_load() {
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 3, 4),
            SwitchedConfig {
                strategy: RouteStrategy::Adaptive { candidates: 4 },
                link_queue_capacity: 64,
                rx_queue_capacity: 4096,
                seed: 42,
                ..SwitchedConfig::default()
            },
        );
        // Cross traffic to skew queue lengths.
        for s in 0..200u32 {
            let _ = net.try_inject(pkt((s as usize) % 16, 48 + (s as usize) % 16, s));
        }
        for s in 0..200u32 {
            while net.try_inject(pkt(0, 63, s)).is_err() {
                net.advance(1);
            }
            net.advance(1);
        }
        assert!(net.drain(1_000_000));
        assert!(
            net.stats().order.out_of_order() > 0,
            "adaptive multipath routing should reorder some packets: {}",
            net.stats()
        );
    }

    #[test]
    fn corrupted_packets_are_detected_and_dropped() {
        let mut net = SwitchedNetwork::new(
            Mesh2D::new(4, 4),
            SwitchedConfig {
                fault: FaultConfig { corruption_prob: 0.5, ..FaultConfig::default() },
                rx_queue_capacity: 4096,
                link_queue_capacity: 64,
                seed: 7,
                ..SwitchedConfig::default()
            },
        );
        for s in 0..100u32 {
            while net.try_inject(pkt(0, 15, s)).is_err() {
                net.advance(1);
            }
            net.advance(1);
        }
        assert!(net.drain(1_000_000));
        let (dropped, delivered) = (net.stats().dropped_corrupt, net.stats().delivered);
        assert!(dropped > 10, "expected many CRC drops: {}", net.stats());
        assert_eq!(delivered + dropped, 100);
        // Software never sees a corrupted packet.
        let got = drain_all(&mut net, n(15));
        assert!(got.iter().all(|p| !p.is_corrupted()));
        assert_eq!(got.len() as u64, delivered);
    }

    #[test]
    fn full_receive_queue_backpressures_to_injection() {
        // Tiny buffers, destination never polls: the network must fill
        // up and refuse injections rather than drop packets.
        let mut net = SwitchedNetwork::new(
            Mesh2D::new(2, 1),
            SwitchedConfig {
                link_queue_capacity: 2,
                rx_queue_capacity: 2,
                ..SwitchedConfig::default()
            },
        );
        let mut accepted = 0;
        for s in 0..64u32 {
            if net.try_inject(pkt(0, 1, s)).is_ok() {
                accepted += 1;
            }
            net.advance(4);
        }
        assert!(accepted < 64, "finite buffering must eventually refuse");
        assert!(net.stats().backpressure > 0);
        // Everything in flight is stuck behind the full rx queue.
        net.advance(1_000);
        assert!(net.stalled_for() >= 1_000, "network should be stalled");
        assert!(net.in_flight() > 0);
        // Extracting packets restores progress (overflow safety is the
        // *software's* job — polling is what keeps the CM-5 alive).
        let _ = net.try_receive(n(1));
        let _ = net.try_receive(n(1));
        net.advance(100);
        assert!(net.stalled_for() < 100);
    }

    #[test]
    fn no_packets_are_lost_without_faults() {
        let mut net = SwitchedNetwork::new(
            FatTree::new(2, 4, 2),
            SwitchedConfig {
                strategy: RouteStrategy::Randomized { candidates: 3 },
                link_queue_capacity: 8,
                rx_queue_capacity: 4096,
                seed: 11,
                ..SwitchedConfig::default()
            },
        );
        let total = 300u32;
        let mut sent = 0;
        while sent < total {
            let s = sent;
            if net
                .try_inject(pkt((s as usize) % 8, 8 + (s as usize) % 8, s))
                .is_ok()
            {
                sent += 1;
            }
            net.advance(1);
        }
        assert!(net.drain(1_000_000));
        let delivered: usize = (0..net.num_nodes())
            .map(|i| {
                let node = n(i);
                let mut c = 0;
                while net.try_receive(node).is_some() {
                    c += 1;
                }
                c
            })
            .sum();
        assert_eq!(delivered as u32, total);
    }

    #[test]
    fn bad_destination_is_rejected() {
        let mut net = SwitchedNetwork::new(Mesh2D::new(2, 2), SwitchedConfig::default());
        let err = net.try_inject(pkt(0, 99, 0)).unwrap_err();
        assert_eq!(err, InjectError::BadDestination(n(99)));
    }

    #[test]
    fn virtual_channels_reorder_even_on_one_path() {
        // Deterministic routing, one fixed path — but two virtual
        // channels let packets overtake (the §2.2 claim about Dally-
        // style virtual channels).
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 3, 1),
            SwitchedConfig {
                strategy: RouteStrategy::Deterministic,
                virtual_channels: 4,
                link_queue_capacity: 16,
                rx_queue_capacity: 4096,
                seed: 21,
                ..SwitchedConfig::default()
            },
        );
        for s in 0..200u32 {
            while net.try_inject(pkt(0, 63, s)).is_err() {
                net.advance(1);
            }
        }
        assert!(net.drain(1_000_000));
        assert_eq!(net.stats().delivered, 200);
        assert!(
            net.stats().order.out_of_order() > 0,
            "virtual channels should reorder: {}",
            net.stats()
        );
    }

    #[test]
    fn single_vc_deterministic_stays_in_order() {
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 3, 1),
            SwitchedConfig {
                strategy: RouteStrategy::Deterministic,
                virtual_channels: 1,
                link_queue_capacity: 16,
                rx_queue_capacity: 4096,
                seed: 21,
                ..SwitchedConfig::default()
            },
        );
        for s in 0..200u32 {
            while net.try_inject(pkt(0, 63, s)).is_err() {
                net.advance(1);
            }
        }
        assert!(net.drain(1_000_000));
        assert_eq!(net.stats().order.out_of_order(), 0);
    }

    #[test]
    fn timesharing_swap_preserves_packets_but_not_order() {
        // Deterministic routing would deliver in order — but a network
        // swap mid-flight (timesharing) reinjects in arbitrary order,
        // the third delivery-order hazard §2.2 names.
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 3, 1),
            SwitchedConfig {
                strategy: RouteStrategy::Deterministic,
                link_queue_capacity: 32,
                rx_queue_capacity: 4096,
                seed: 13,
                ..SwitchedConfig::default()
            },
        );
        let mut sent = 0u32;
        while sent < 100 {
            if net.try_inject(pkt(0, 63, sent)).is_ok() {
                sent += 1;
            } else {
                net.advance(1);
            }
        }
        net.advance(3);
        let ctx = net.swap_out();
        assert!(ctx.len() > 10, "plenty of packets were in flight");
        assert!(!ctx.is_empty());
        assert_eq!(net.in_flight(), 0);
        // ... another application's time slice passes ...
        net.advance(50);
        net.swap_in(ctx);
        assert!(net.drain(1_000_000));
        assert_eq!(net.stats().delivered, 100, "nothing lost across the swap");
        assert!(
            net.stats().order.out_of_order() > 0,
            "swap/restore reorders even deterministic routing: {}",
            net.stats()
        );
    }

    #[test]
    fn empty_swap_roundtrip_is_a_noop() {
        let mut net = SwitchedNetwork::new(Mesh2D::new(2, 2), SwitchedConfig::default());
        let ctx = net.swap_out();
        assert!(ctx.is_empty());
        net.swap_in(ctx);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = || {
            let mut net = SwitchedNetwork::new(
                FatTree::new(4, 2, 3),
                SwitchedConfig {
                    strategy: RouteStrategy::Randomized { candidates: 3 },
                    seed: 99,
                    rx_queue_capacity: 4096,
                    link_queue_capacity: 16,
                    ..SwitchedConfig::default()
                },
            );
            for s in 0..50u32 {
                while net.try_inject(pkt(0, 15, s)).is_err() {
                    net.advance(1);
                }
                net.advance(1);
            }
            net.drain(1_000_000);
            let mut order = Vec::new();
            while let Some(p) = net.try_receive(n(15)) {
                order.push(p.header());
            }
            order
        };
        assert_eq!(run(), run());
    }

    fn faulty_net(fault: FaultConfig, seed: u64) -> SwitchedNetwork<Mesh2D> {
        SwitchedNetwork::new(
            Mesh2D::new(4, 4),
            SwitchedConfig {
                fault,
                rx_queue_capacity: 4096,
                link_queue_capacity: 64,
                seed,
                ..SwitchedConfig::default()
            },
        )
    }

    fn pump(net: &mut SwitchedNetwork<Mesh2D>, count: u32) {
        for s in 0..count {
            while net.try_inject(pkt(0, 15, s)).is_err() {
                net.advance(1);
            }
            net.advance(1);
        }
        assert!(net.drain(1_000_000));
    }

    #[test]
    fn fault_plane_drops_packets_silently() {
        let mut net = faulty_net(
            FaultConfig { drop_prob: 0.3, ..FaultConfig::default() },
            19,
        );
        pump(&mut net, 100);
        let s = net.stats().clone();
        assert!(s.dropped_fault > 10, "{s}");
        assert_eq!(s.delivered + s.dropped_fault, 100, "{s}");
        assert_eq!(drain_all(&mut net, n(15)).len() as u64, s.delivered);
    }

    #[test]
    fn fault_plane_duplicates_packets() {
        let mut net = faulty_net(
            FaultConfig { duplicate_prob: 0.4, ..FaultConfig::default() },
            23,
        );
        pump(&mut net, 100);
        let s = net.stats();
        assert!(s.duplicated > 10, "{s}");
        assert_eq!(s.delivered, 100 + s.duplicated, "every copy arrives: {s}");
        let got = drain_all(&mut net, n(15));
        // Some header value must appear twice — software really does
        // see the duplicate.
        let mut seen = std::collections::HashMap::new();
        for p in &got {
            *seen.entry(p.header()).or_insert(0u32) += 1;
        }
        assert!(seen.values().any(|&c| c >= 2));
    }

    #[test]
    fn fault_plane_reorders_deterministic_routing() {
        let mut net = faulty_net(
            FaultConfig { reorder_prob: 0.2, reorder_depth: 3, ..FaultConfig::default() },
            31,
        );
        pump(&mut net, 100);
        let s = net.stats();
        assert_eq!(s.delivered, 100, "nothing lost: {s}");
        assert!(s.reordered > 5, "{s}");
        assert!(
            s.order.out_of_order() > 0,
            "held packets must be overtaken: {s}"
        );
    }

    #[test]
    fn fault_plane_jitter_delays_but_loses_nothing() {
        let mut net = faulty_net(
            FaultConfig { delay_jitter: 24, ..FaultConfig::default() },
            37,
        );
        pump(&mut net, 50);
        let s = net.stats();
        assert_eq!(s.delivered, 50, "{s}");
        assert!(s.jitter_delayed > 10, "{s}");
    }

    #[test]
    fn outage_window_silences_traffic_then_recovers() {
        let mut net = faulty_net(
            FaultConfig {
                outages: vec![OutageWindow { node: n(15), start: 0, end: 40 }],
                ..FaultConfig::default()
            },
            41,
        );
        pump(&mut net, 60);
        let s = net.stats();
        assert!(s.outage_drops > 0, "{s}");
        assert_eq!(s.delivered + s.outage_drops, 60, "{s}");
        assert!(s.delivered > 0, "traffic resumes after the window: {s}");
    }

    #[test]
    fn full_fault_mix_is_deterministic_per_seed() {
        let run = || {
            let mut net = faulty_net(
                FaultConfig {
                    corruption_prob: 0.05,
                    drop_prob: 0.05,
                    duplicate_prob: 0.1,
                    delay_jitter: 8,
                    reorder_prob: 0.1,
                    reorder_depth: 4,
                    outages: vec![OutageWindow { node: n(3), start: 5, end: 25 }],
                    crashes: Vec::new(),
                },
                77,
            );
            for s in 0..80u32 {
                let d = if s % 4 == 0 { 3 } else { 15 };
                while net.try_inject(pkt(0, d, s)).is_err() {
                    net.advance(1);
                }
                net.advance(1);
            }
            assert!(net.drain(1_000_000));
            let mut order: Vec<u32> = drain_all(&mut net, n(15)).iter().map(Packet::header).collect();
            order.extend(drain_all(&mut net, n(3)).iter().map(Packet::header));
            (order, format!("{}", net.stats()))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn occupied_set_tracks_queued_links_exactly() {
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 2, 2),
            SwitchedConfig {
                strategy: RouteStrategy::Adaptive { candidates: 4 },
                fault: FaultConfig { delay_jitter: 4, duplicate_prob: 0.1, ..FaultConfig::default() },
                seed: 5,
                ..SwitchedConfig::default()
            },
        );
        let check = |net: &SwitchedNetwork<FatTree>| {
            let truth: std::collections::BTreeSet<usize> = (0..net.links.len())
                .filter(|&li| net.links[li].occupancy() > 0)
                .collect();
            assert_eq!(net.occupied, truth, "occupied index out of sync with link queues");
        };
        for s in 0..60u32 {
            let _ = net.try_inject(pkt((s as usize) % 16, (s as usize * 7 + 3) % 16, s));
            check(&net);
            net.advance(1 + (s as u64) % 2);
            check(&net);
        }
        assert!(net.drain(10_000));
        check(&net);
        assert!(net.occupied.is_empty(), "drained network has no queued links");
    }
}
