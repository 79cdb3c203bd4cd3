//! The substrate-independent network interface.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::id::NodeId;
use crate::packet::Packet;
use crate::pair::PairMap;
use crate::stats::NetStats;
use crate::time::Time;

/// What a network guarantees to the software above it. The messaging
/// layer consults this to decide which software protocol machinery is
/// required (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guarantees {
    /// Packets between one `(src, dst)` pair are delivered in injection
    /// order.
    pub in_order: bool,
    /// Every accepted packet is eventually delivered uncorrupted.
    pub reliable: bool,
    /// Injection acceptance implies the destination can absorb the packet
    /// (end-to-end flow control / deadlock freedom independent of
    /// acceptance guarantees).
    pub flow_controlled: bool,
}

impl Guarantees {
    /// A CM-5-like network: none of the high-level guarantees.
    pub const RAW: Guarantees = Guarantees {
        in_order: false,
        reliable: false,
        flow_controlled: false,
    };

    /// A Compressionless-Routing-like network: all three guarantees.
    pub const HIGH_LEVEL: Guarantees = Guarantees {
        in_order: true,
        reliable: true,
        flow_controlled: true,
    };
}

/// Envelope metadata of the packet at the head of a node's receive
/// buffer, surfaced by [`Network::rx_peek`] without consuming it.
///
/// This is the substrate's "non-blocking poll" surface: an event-driven
/// messaging layer inspects the head to decide *which* protocol state
/// machine should pay for the receive, then latches it through the NI as
/// usual. Peeking is free (pure harness introspection) — all modeled
/// costs are still charged by the NI register operations that actually
/// consume the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxMeta {
    /// Sending node.
    pub src: NodeId,
    /// Hardware message tag (handler selector).
    pub tag: u8,
    /// The header word (offset or sequence number).
    pub header: u32,
}

impl RxMeta {
    /// Extract the envelope metadata from a delivered packet.
    pub fn of(packet: &Packet) -> Self {
        RxMeta {
            src: packet.src(),
            tag: packet.tag(),
            header: packet.header(),
        }
    }
}

/// Why an injection attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The injection port (first-hop queue or held path) is full; retry
    /// after advancing the network. This is what the software sees as a
    /// "send not ok" NI status.
    Backpressure,
    /// The destination node does not exist.
    BadDestination(NodeId),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::Backpressure => write!(f, "injection refused: backpressure"),
            InjectError::BadDestination(n) => write!(f, "no such destination node {n}"),
        }
    }
}

impl Error for InjectError {}

/// The host edge every substrate shares: each node's receive queue, and
/// the wake marks over those queues that back a precise
/// [`Network::take_delivered`].
///
/// [`land`](RxQueues::land) is the only code that delivers a packet:
/// it pushes onto the queue, marks the node, and records the delivery
/// with the queue's depth after the push. The fabric decides *when* a
/// packet lands; what landing means is the same on every network (§4.1:
/// the NI is the same hardware whichever network is behind it).
///
/// A mark is a link in a list of the marked nodes, in the order they
/// were first marked: marking deduplicates, so the list is bounded by
/// the node count however long a blocking (non-engine) caller goes
/// without taking it. The links are sized at the first mark, not at
/// construction: a paper sweep builds a fresh substrate per message.
///
/// The substrates' receive paths are instantiated in the crates that
/// name a topology, so the per-packet methods are `#[inline]` to be
/// compiled in place there.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RxQueues {
    queues: Vec<VecDeque<Packet>>,
    /// Per node: the next marked node, `LAST` at the end of the list,
    /// or `UNMARKED`.
    next: Vec<usize>,
    /// The first and last marked nodes (`LAST` while none is).
    first: usize,
    last: usize,
    /// How many nodes are marked.
    woken: usize,
}

const UNMARKED: usize = usize::MAX;
const LAST: usize = usize::MAX - 1;

impl RxQueues {
    /// Empty receive queues for `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        // Empty `VecDeque`s own no heap memory: one allocation in all.
        let queues = (0..nodes).map(|_| VecDeque::new()).collect();
        RxQueues { queues, next: Vec::new(), first: LAST, last: LAST, woken: 0 }
    }

    /// Deliver `packet` into its destination's queue.
    #[inline]
    pub(crate) fn land(&mut self, packet: Packet, now: Time, stats: &mut NetStats) {
        self.land_at(packet.dst(), packet, now, stats);
    }

    /// Deliver `packet` into queue `slot`, which need not be the id the
    /// packet carries (a shard's boundary queues are indexed by local
    /// node while their packets keep global ids); `stats` see the
    /// packet's own ids.
    #[inline]
    pub(crate) fn land_at(&mut self, slot: NodeId, packet: Packet, now: Time, stats: &mut NetStats) {
        let (src, dst) = (packet.src(), packet.dst());
        let (seq, injected) = (packet.stamped_seq(), packet.injected_at());
        let i = slot.index();
        let queue = &mut self.queues[i];
        queue.push_back(packet);
        let depth = queue.len();
        if self.next.is_empty() {
            self.next = vec![UNMARKED; self.queues.len()];
        }
        if self.next[i] == UNMARKED {
            self.next[i] = LAST;
            match self.last {
                LAST => self.first = i,
                tail => self.next[tail] = i,
            }
            self.last = i;
            self.woken += 1;
        }
        stats.record_delivery(src, dst, seq, injected, now, depth);
    }

    /// The one loopback path: a packet a node sends itself skips the
    /// fabric, is stamped and counted as injected, and lands at once —
    /// unless its queue already holds `capacity` packets.
    pub(crate) fn loopback(
        &mut self,
        mut packet: Packet,
        capacity: usize,
        seqs: &mut PairMap<u64>,
        now: Time,
        stats: &mut NetStats,
    ) -> Result<(), InjectError> {
        let node = packet.dst();
        if self.pending(node) >= capacity {
            stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        }
        stamp_next(seqs.entry((node, node)).or_insert(0), &mut packet, now);
        stats.injected += 1;
        self.land(packet, now, stats);
        Ok(())
    }

    /// Envelope of the packet at the head of `node`'s queue.
    #[inline]
    pub(crate) fn peek(&self, node: NodeId) -> Option<RxMeta> {
        self.queues.get(node.index())?.front().map(RxMeta::of)
    }

    /// Pop the head of `node`'s queue.
    #[inline]
    pub(crate) fn pop(&mut self, node: NodeId) -> Option<Packet> {
        self.queues.get_mut(node.index())?.pop_front()
    }

    /// Packets waiting in `node`'s queue (0 for a node out of range).
    #[inline]
    pub(crate) fn pending(&self, node: NodeId) -> usize {
        self.queues.get(node.index()).map_or(0, VecDeque::len)
    }

    /// Whether a packet has landed since the last
    /// [`take_woken`](RxQueues::take_woken).
    pub(crate) fn has_woken(&self) -> bool {
        self.woken > 0
    }

    /// Drain the nodes packets landed at since the last take, each
    /// once, in the order they were first marked.
    pub(crate) fn take_woken(&mut self) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(std::mem::take(&mut self.woken));
        let mut at = std::mem::replace(&mut self.first, LAST);
        self.last = LAST;
        while at != LAST {
            nodes.push(NodeId::new(at));
            at = std::mem::replace(&mut self.next[at], UNMARKED);
        }
        nodes
    }
}

/// Refuse a packet whose destination, then source, is not one of
/// `nodes` nodes.
#[inline]
pub(crate) fn check_endpoints(packet: &Packet, nodes: usize) -> Result<(), InjectError> {
    match [packet.dst(), packet.src()].into_iter().find(|n| n.index() >= nodes) {
        Some(bad) => Err(InjectError::BadDestination(bad)),
        None => Ok(()),
    }
}

/// Stamp `packet` with its pair's next sequence number `*next` and the
/// injection cycle, advance the counter, and return the number stamped.
#[inline]
pub(crate) fn stamp_next(next: &mut u64, packet: &mut Packet, now: Time) -> u64 {
    let seq = *next;
    *next += 1;
    packet.stamp(seq, now);
    seq
}

/// A packet-switched network connecting `num_nodes` nodes.
///
/// All the substrates (switched CM-5-like, Compressionless-Routing-like,
/// scripted, and the parallel sharded front) implement this trait; the
/// NI and messaging layers are generic over it. Implementations may
/// step packets on worker threads internally (see
/// [`sharded`](crate::sharded)), but the trait itself is a
/// single-threaded surface: one caller injects, receives, and advances.
///
/// # Example
///
/// The inject → advance → peek → receive cycle every substrate obeys:
///
/// ```
/// use timego_netsim::{DeliveryScript, Network, NodeId, Packet, ScriptedNetwork};
///
/// let mut net = ScriptedNetwork::new(4, DeliveryScript::InOrder);
/// let (src, dst) = (NodeId::new(0), NodeId::new(3));
/// net.try_inject(Packet::new(src, dst, 7, 99, &[1, 2])).unwrap();
/// net.advance(1);
/// assert_eq!(net.take_delivered(), vec![dst]); // the scheduler's wake set
///
/// let meta = net.rx_peek(dst).expect("head visible before paying to receive");
/// assert_eq!((meta.src, meta.tag, meta.header), (src, 7, 99));
/// let got = net.try_receive(dst).expect("delivered");
/// assert_eq!(got.data(), &[1, 2]);
/// assert_eq!(net.stats().delivered, 1);
/// ```
pub trait Network {
    /// Number of attached nodes.
    fn num_nodes(&self) -> usize;

    /// Current simulated time.
    fn now(&self) -> Time;

    /// Advance simulated time by `cycles`, moving packets through the
    /// network.
    fn advance(&mut self, cycles: u64);

    /// Attempt to inject a packet at its source node.
    ///
    /// # Errors
    ///
    /// [`InjectError::Backpressure`] if the network cannot accept the
    /// packet right now, [`InjectError::BadDestination`] if the
    /// destination is out of range.
    fn try_inject(&mut self, packet: Packet) -> Result<(), InjectError>;

    /// Pop the next delivered packet waiting at `node`'s receive buffer,
    /// if any. Corrupted packets on detect-only substrates are discarded
    /// internally (counted in [`NetStats::dropped_corrupt`]) and never
    /// surface here.
    fn try_receive(&mut self, node: NodeId) -> Option<Packet>;

    /// Envelope metadata of the packet [`try_receive`](Network::try_receive)
    /// would return next for `node`, without consuming it. Must be
    /// consistent with `try_receive`: if this returns `Some`, an
    /// immediate `try_receive` returns that packet. Takes `&mut self`
    /// because substrates that release held packets on receive (e.g. the
    /// scripted network's liveness flush) do the same here.
    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta>;

    /// Packets currently waiting in `node`'s receive buffer.
    fn rx_pending(&self, node: NodeId) -> usize;

    /// Packets accepted but not yet delivered or dropped.
    fn in_flight(&self) -> usize;

    /// Aggregate statistics.
    fn stats(&self) -> &NetStats;

    /// The delivery guarantees this substrate provides.
    fn guarantees(&self) -> Guarantees;

    /// How many times `node` has crashed and restarted so far (scripted
    /// crash-restart faults). Substrates without a crash plane never
    /// restart anything; the protocol layer polls this to detect peer
    /// restarts and erase stale endpoint state.
    fn restarts(&self, node: NodeId) -> u32 {
        let _ = node;
        0
    }

    /// Drain the set of nodes that have received packets since the last
    /// call — the scheduler's wake set. A node appears at most once per
    /// call; the set is cumulative across [`advance`](Network::advance)
    /// calls until taken.
    ///
    /// The default derives the set from current receive-queue depths
    /// (`rx_pending > 0`), which is *conservative*: a node whose queue
    /// was drained between calls may be missed, but every node with
    /// something pending is always reported, which is what a
    /// readiness-driven scheduler needs (it re-checks queues on wake
    /// anyway). Substrates with an internal delivery step override this
    /// with a precise per-delivery record.
    fn take_delivered(&mut self) -> Vec<NodeId> {
        (0..self.num_nodes())
            .filter(|&i| self.rx_pending(NodeId::new(i)) > 0)
            .map(NodeId::new)
            .collect()
    }

    /// A cheap change-detector over [`restarts`](Network::restarts):
    /// any value that changes whenever some node's restart counter
    /// does. Callers compare against the last value they saw to skip
    /// the per-node scan on the (overwhelmingly common) quanta where
    /// nothing crashed. The default sums all per-node counters.
    fn restarts_hint(&self) -> u64 {
        (0..self.num_nodes()).map(|i| self.restarts(NodeId::new(i)) as u64).sum()
    }

    /// The earliest scripted crash-restart strictly after the current
    /// cycle, if the substrate knows of one. Event-driven schedulers
    /// clamp idle clock-jumps here so the restart is observed on
    /// exactly the cycle its window closes — jumping past it would
    /// defer the peers' `SessionReset` detection. Substrates without a
    /// crash plane have nothing to clamp to.
    fn next_restart_at(&self) -> Option<Time> {
        None
    }

    /// A cycle after [`now`](Network::now) before which no receive queue
    /// can gain a packet: for every `k` with `now + k < quiet_until()`,
    /// `advance(k)` pushes onto no receive queue and marks no node for
    /// [`take_delivered`](Network::take_delivered). An injection may
    /// lower the answer; time passing, receives and peeks never do. An
    /// event-driven scheduler whose operations all sleep on deliveries
    /// may therefore hand the substrate the whole quiet span in one
    /// `advance` instead of one cycle at a time.
    ///
    /// The answer is a lower bound on the next delivery, not a
    /// prediction of it, and callers may use it for speed only — a
    /// decorator that does not forward this method gets the default,
    /// `now + 1` ("I don't know"), and must see the same run. A
    /// substrate with nothing in transit answers the far future.
    fn quiet_until(&self) -> Time {
        self.now() + 1
    }

    /// Advance until the network is drained (nothing in flight) or
    /// `max_cycles` have elapsed; returns `true` if drained. Default
    /// implementation steps one cycle at a time.
    ///
    /// Note that on finite-buffer substrates a drain can fail simply
    /// because no one is extracting packets at the destinations — see
    /// [`drain_extracting`](Network::drain_extracting).
    fn drain(&mut self, max_cycles: u64) -> bool {
        let mut elapsed = 0;
        while self.in_flight() > 0 && elapsed < max_cycles {
            self.advance(1);
            elapsed += 1;
        }
        self.in_flight() == 0
    }

    /// Like [`drain`](Network::drain), but every node's receive queue is
    /// emptied (and the packets discarded) as time advances, so finite
    /// receive buffers cannot wedge the drain. Returns `true` if the
    /// network emptied. Useful for harnesses that only care about
    /// delivery statistics.
    fn drain_extracting(&mut self, max_cycles: u64) -> bool {
        let mut elapsed = 0;
        while self.in_flight() > 0 && elapsed < max_cycles {
            self.advance(1);
            elapsed += 1;
            for i in 0..self.num_nodes() {
                while self.try_receive(NodeId::new(i)).is_some() {}
            }
        }
        self.in_flight() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CrConfig, CrNetwork, DeliveryScript, DualNetwork, FatTree, Mesh2D, ScriptedNetwork,
        ShardedConfig, ShardedNetwork, SwitchedConfig, SwitchedNetwork, WormholeConfig,
        WormholeNetwork,
    };

    const NODES: usize = 16;
    const REPLY_TAG: u8 = 200;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Every substrate over `NODES` nodes: the five, the sharded one
    /// split three ways, and a dual network over two different ones.
    fn substrates() -> Vec<(&'static str, Box<dyn Network>)> {
        let switched = || SwitchedNetwork::new(FatTree::new(4, 2, 2), SwitchedConfig::default());
        let sharded = ShardedConfig { shards: 3, threads: 1, ..ShardedConfig::default() };
        vec![
            ("scripted", Box::new(ScriptedNetwork::new(NODES, DeliveryScript::AlternateSwap))),
            ("cr", Box::new(CrNetwork::new(CrConfig::new(NODES)))),
            ("switched", Box::new(switched())),
            ("wormhole", Box::new(WormholeNetwork::new(Mesh2D::new(4, 4), WormholeConfig::default()))),
            ("sharded", Box::new(ShardedNetwork::new(NODES, sharded))),
            ("dual", Box::new(DualNetwork::new(CrNetwork::new(CrConfig::new(NODES)), switched(), REPLY_TAG))),
        ]
    }

    /// Inject `packets` in order (the head waits out backpressure), and
    /// advance, take the wake set and receive at every node until the
    /// network is empty. Returns the packets each node received; checks
    /// that no take names a node twice.
    fn drive(name: &str, net: &mut dyn Network, packets: &[Packet]) -> Vec<u64> {
        let mut unsent: VecDeque<Packet> = packets.iter().cloned().collect();
        let mut received = vec![0; NODES];
        for _ in 0..100_000 {
            while let Some(head) = unsent.front() {
                match net.try_inject(head.clone()) {
                    Ok(()) => drop(unsent.pop_front()),
                    Err(InjectError::Backpressure) => break,
                    Err(e) => panic!("{name}: {e}"),
                }
            }
            net.advance(1);
            let mut woken = net.take_delivered();
            let taken = woken.len();
            woken.sort_unstable();
            woken.dedup();
            assert_eq!(woken.len(), taken, "{name}: one take named a node twice");
            for (i, got) in received.iter_mut().enumerate() {
                while net.try_receive(n(i)).is_some() {
                    *got += 1;
                }
            }
            if unsent.is_empty() && net.in_flight() == 0 {
                return received;
            }
        }
        panic!("{name}: the network never drained");
    }

    #[test]
    fn a_bad_endpoint_is_refused_naming_dst_before_src() {
        for (name, mut net) in substrates() {
            for tag in [1, REPLY_TAG] {
                let both_bad = Packet::new(n(NODES + 1), n(NODES + 2), tag, 0, &[1]);
                assert_eq!(net.try_inject(both_bad), Err(InjectError::BadDestination(n(NODES + 2))), "{name}");
                let bad_src = Packet::new(n(NODES), n(0), tag, 0, &[1]);
                assert_eq!(net.try_inject(bad_src), Err(InjectError::BadDestination(n(NODES))), "{name}");
                let bad_dst = Packet::new(n(0), n(NODES), tag, 0, &[1]);
                assert_eq!(net.try_inject(bad_dst), Err(InjectError::BadDestination(n(NODES))), "{name}");
            }
            assert_eq!(net.stats().injected, 0, "{name}: a refused packet is not injected");
        }
    }

    #[test]
    fn a_loopback_is_delivered_and_counted_once() {
        for (name, mut net) in substrates() {
            let received = drive(name, net.as_mut(), &[Packet::new(n(5), n(5), 1, 0, &[7])]);
            assert_eq!(received.iter().sum::<u64>(), 1, "{name}");
            assert_eq!(received[5], 1, "{name}");
            let stats = net.stats();
            assert_eq!((stats.injected, stats.delivered), (1, 1), "{name}");
            assert_eq!(stats.occupancy(n(5)).delivered_to, 1, "{name}");
            assert_eq!(stats.occupancy(n(5)).delivered_from, 1, "{name}");
        }
    }

    #[test]
    fn delivery_counts_equal_the_packets_received_at_every_node() {
        // Every node sends to itself and to three others, some across
        // shards, half on the dual network's reply side.
        let packets: Vec<Packet> = (0..NODES)
            .flat_map(|src| {
                [0, 1, 5, 11].map(|k| {
                    let tag = if k % 2 == 0 { 1 } else { REPLY_TAG };
                    Packet::new(n(src), n((src + k) % NODES), tag, k as u32, &[src as u32; 6])
                })
            })
            .collect();
        for (name, mut net) in substrates() {
            let received = drive(name, net.as_mut(), &packets);
            let stats = net.stats();
            assert_eq!(stats.delivered, packets.len() as u64, "{name}");
            assert_eq!(received.iter().sum::<u64>(), stats.delivered, "{name}");
            for (i, &got) in received.iter().enumerate() {
                assert_eq!(stats.occupancy(n(i)).delivered_to, got, "{name}: node {i}");
            }
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn guarantee_presets() {
        assert!(!Guarantees::RAW.in_order);
        assert!(Guarantees::HIGH_LEVEL.reliable);
        assert!(Guarantees::HIGH_LEVEL.flow_controlled);
    }

    #[test]
    fn inject_error_display() {
        assert!(InjectError::Backpressure.to_string().contains("backpressure"));
        assert!(InjectError::BadDestination(NodeId::new(9))
            .to_string()
            .contains("n9"));
    }
}
