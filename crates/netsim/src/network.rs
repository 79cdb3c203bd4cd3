//! The substrate-independent network interface.

use std::error::Error;
use std::fmt;

use crate::id::NodeId;
use crate::packet::Packet;
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

/// A per-node delivery recorder backing precise
/// [`Network::take_delivered`] implementations.
///
/// Substrates call [`WakeSet::mark`] at every receive-queue push; the
/// mark bitmap deduplicates, so the pending list is bounded by the node
/// count no matter how long a blocking (non-engine) caller goes without
/// taking the set.
#[derive(Debug, Clone, Default)]
pub struct WakeSet {
    marked: Vec<bool>,
    nodes: Vec<NodeId>,
}

impl WakeSet {
    /// An empty wake set over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        WakeSet { marked: vec![false; num_nodes], nodes: Vec::new() }
    }

    /// Record a delivery at `node` (idempotent until taken).
    pub fn mark(&mut self, node: NodeId) {
        if !self.marked[node.index()] {
            self.marked[node.index()] = true;
            self.nodes.push(node);
        }
    }

    /// Whether no delivery has been recorded since the last
    /// [`take`](WakeSet::take).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drain the recorded nodes, clearing the marks.
    pub fn take(&mut self) -> Vec<NodeId> {
        for n in &self.nodes {
            self.marked[n.index()] = false;
        }
        std::mem::take(&mut self.nodes)
    }
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
