//! Two physical networks presented as one — the CM-5's paired data
//! networks.
//!
//! Footnote 6 of the paper: *"The CMAM round-trip protocol using the
//! two separate CM-5 networks however is safe."* Request/reply traffic
//! on a single finite-buffer network can deadlock: every node's receive
//! queue fills with requests, replies cannot be injected, and no one
//! can drain anything. Splitting requests and replies onto independent
//! networks breaks the cycle: replies always have a clear channel.
//!
//! [`DualNetwork`] composes any two [`Network`]s and routes injections
//! by hardware tag: tags at or above `reply_tag_min` ride the reply
//! network. Receives drain the reply network first (reply priority),
//! which is what makes round-trip protocols safe to run from within a
//! handler.

use std::cell::OnceCell;

use crate::id::NodeId;
use crate::network::{Guarantees, InjectError, Network, RxMeta};
use crate::packet::Packet;
use crate::stats::NetStats;
use crate::time::Time;

/// Two independent networks behind one [`Network`] interface, with
/// tag-based traffic splitting.
#[derive(Debug)]
pub struct DualNetwork<A, B> {
    request: A,
    reply: B,
    reply_tag_min: u8,
    /// Both sides' statistics, merged on the first read after a change:
    /// every `&mut self` method empties it.
    merged: OnceCell<NetStats>,
}

impl<A: Network, B: Network> DualNetwork<A, B> {
    /// Compose `request` and `reply` networks; packets with
    /// `tag >= reply_tag_min` use the reply network.
    ///
    /// # Panics
    ///
    /// Panics if the two networks disagree on node count.
    pub fn new(request: A, reply: B, reply_tag_min: u8) -> Self {
        assert_eq!(
            request.num_nodes(),
            reply.num_nodes(),
            "both networks must connect the same nodes"
        );
        DualNetwork {
            request,
            reply,
            reply_tag_min,
            merged: OnceCell::new(),
        }
    }

    /// The request-side network and its statistics.
    pub fn request_side(&self) -> &A {
        &self.request
    }

    /// The reply-side network and its statistics.
    pub fn reply_side(&self) -> &B {
        &self.reply
    }

    /// The tag threshold routing onto the reply network.
    pub fn reply_tag_min(&self) -> u8 {
        self.reply_tag_min
    }

    fn merge_stats(&self) -> NetStats {
        let (a, b) = (self.request.stats(), self.reply.stats());
        // Scalar statistics merge; delivery-order accounting and
        // latency stay per-side (each side numbers its own pair
        // sequences), so use `request_side()`/`reply_side()` for them.
        let mut merged = NetStats::new();
        merged.zip_scalars(a, |m, x| *m = x);
        merged.zip_scalars(b, |m, y| *m += y);
        merged.merge_per_node(a, b);
        merged
    }
}

impl<A: Network, B: Network> Network for DualNetwork<A, B> {
    fn num_nodes(&self) -> usize {
        self.request.num_nodes()
    }

    fn now(&self) -> Time {
        self.request.now()
    }

    fn advance(&mut self, cycles: u64) {
        self.merged.take();
        self.request.advance(cycles);
        self.reply.advance(cycles);
    }

    fn try_inject(&mut self, packet: Packet) -> Result<(), InjectError> {
        self.merged.take();
        if packet.tag() >= self.reply_tag_min {
            self.reply.try_inject(packet)
        } else {
            self.request.try_inject(packet)
        }
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        // Reply priority: drain replies before requests, so a node
        // blocked injecting can always make progress on incoming
        // replies first.
        self.merged.take();
        self.reply
            .try_receive(node)
            .or_else(|| self.request.try_receive(node))
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        // Mirror try_receive's reply priority.
        self.merged.take();
        self.reply
            .rx_peek(node)
            .or_else(|| self.request.rx_peek(node))
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.request.rx_pending(node) + self.reply.rx_pending(node)
    }

    fn in_flight(&self) -> usize {
        self.request.in_flight() + self.reply.in_flight()
    }

    fn stats(&self) -> &NetStats {
        self.merged.get_or_init(|| self.merge_stats())
    }

    fn guarantees(&self) -> Guarantees {
        let a = self.request.guarantees();
        let b = self.reply.guarantees();
        Guarantees {
            in_order: a.in_order && b.in_order,
            reliable: a.reliable && b.reliable,
            flow_controlled: a.flow_controlled && b.flow_controlled,
        }
    }

    fn restarts(&self, node: NodeId) -> u32 {
        // A crash window scripted on either side means the node was
        // down; both sides normally script the same windows, so take
        // the larger count rather than double-counting.
        self.request.restarts(node).max(self.reply.restarts(node))
    }

    fn restarts_hint(&self) -> u64 {
        // Sum of the sides is a valid change detector even though the
        // per-node counter above takes the max: any per-node change
        // moves at least one side's total.
        self.request.restarts_hint() + self.reply.restarts_hint()
    }

    fn next_restart_at(&self) -> Option<Time> {
        // Earliest across both sides: a restart on either side must not
        // be jumped over.
        match (self.request.next_restart_at(), self.reply.next_restart_at()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn take_delivered(&mut self) -> Vec<NodeId> {
        // Union of both sides' wake sets; a node delivered to on both
        // sides appears once.
        self.merged.take();
        let mut nodes = self.request.take_delivered();
        for n in self.reply.take_delivered() {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NodeOccupancy;
    use crate::switched::{SwitchedConfig, SwitchedNetwork};
    use crate::topology::Mesh2D;

    const REPLY_MIN: u8 = 128;

    fn tight() -> SwitchedNetwork<Mesh2D> {
        SwitchedNetwork::new(
            Mesh2D::new(2, 1),
            SwitchedConfig {
                link_queue_capacity: 4,
                rx_queue_capacity: 4,
                ..SwitchedConfig::default()
            },
        )
    }

    fn pkt(src: usize, dst: usize, tag: u8, seq: u32) -> Packet {
        Packet::new(NodeId::new(src), NodeId::new(dst), tag, seq, &[seq; 4])
    }

    /// The classic fetch-deadlock workload: both nodes first flood each
    /// other with requests until the network saturates, then serve —
    /// where "serving" a request means the handler must inject the
    /// reply before the node extracts anything else. On one
    /// finite-buffer network the replies get trapped behind the stuck
    /// requests and everything wedges; on split networks replies always
    /// drain. Returns (requests completed, finished without wedging).
    fn run_request_reply(net: &mut dyn Network, rounds: u32) -> (u32, bool) {
        let mut requests_sent = [0u32; 2];

        // Flood phase: pump requests until the network refuses for a
        // sustained stretch (saturation) or everything is accepted.
        let mut stuck = 0;
        while stuck < 50 && (requests_sent[0] < rounds || requests_sent[1] < rounds) {
            let mut progressed = false;
            for (me, sent) in requests_sent.iter_mut().enumerate() {
                if *sent < rounds && net.try_inject(pkt(me, 1 - me, 1, *sent)).is_ok() {
                    *sent += 1;
                    progressed = true;
                }
            }
            net.advance(1);
            stuck = if progressed { 0 } else { stuck + 1 };
        }

        // Serve phase. A fetch reply carries data and spans two
        // packets; the handler must inject the whole reply before the
        // node may extract anything else (it can issue at most one
        // packet per cycle).
        const REPLY_PACKETS: u32 = 2;
        let total: u32 = requests_sent.iter().sum();
        let mut reply_pkts_owed = [0u32; 2];
        let mut reply_pkts_got = 0u32;
        for _ in 0..20_000 {
            for me in 0..2usize {
                let peer = 1 - me;
                if reply_pkts_owed[me] > 0 {
                    if net.try_inject(pkt(me, peer, REPLY_MIN, 0)).is_ok() {
                        reply_pkts_owed[me] -= 1;
                    }
                    continue; // still inside the handler either way
                }
                if let Some(p) = net.try_receive(NodeId::new(me)) {
                    if p.tag() >= REPLY_MIN {
                        reply_pkts_got += 1;
                    } else {
                        reply_pkts_owed[me] += REPLY_PACKETS;
                    }
                }
                if requests_sent[me] < rounds
                    && net.try_inject(pkt(me, peer, 1, requests_sent[me])).is_ok()
                {
                    requests_sent[me] += 1;
                }
            }
            net.advance(1);
            let completed = reply_pkts_got / REPLY_PACKETS;
            if completed >= total && requests_sent.iter().sum::<u32>() == completed {
                return (completed, true);
            }
        }
        (reply_pkts_got / REPLY_PACKETS, false)
    }

    #[test]
    fn single_network_request_reply_wedges() {
        let mut net = tight();
        let (completed, done) = run_request_reply(&mut net, 64);
        assert!(
            !done,
            "expected the single tight network to wedge, but {completed} completed"
        );
    }

    #[test]
    fn dual_network_request_reply_completes() {
        let mut net = DualNetwork::new(tight(), tight(), REPLY_MIN);
        let (completed, done) = run_request_reply(&mut net, 64);
        assert!(done, "dual networks must not wedge ({completed} completed)");
        assert_eq!(completed, 128, "all 2×64 requests served");
    }

    #[test]
    fn tags_route_to_the_right_side() {
        let mut net = DualNetwork::new(tight(), tight(), REPLY_MIN);
        net.try_inject(pkt(0, 1, 1, 0)).unwrap();
        net.try_inject(pkt(0, 1, 200, 0)).unwrap();
        assert_eq!(net.request_side().stats().injected, 1);
        assert_eq!(net.reply_side().stats().injected, 1);
        assert_eq!(net.stats().injected, 2);
    }

    #[test]
    fn replies_have_receive_priority() {
        let mut net = DualNetwork::new(tight(), tight(), REPLY_MIN);
        net.try_inject(pkt(0, 1, 1, 7)).unwrap();
        net.try_inject(pkt(0, 1, 200, 9)).unwrap();
        net.drain(10_000);
        let first = net.try_receive(NodeId::new(1)).expect("delivered");
        assert_eq!(first.tag(), 200, "reply drains first");
        let second = net.try_receive(NodeId::new(1)).expect("delivered");
        assert_eq!(second.tag(), 1);
    }

    #[test]
    fn merged_stats_track_both_sides() {
        let mut net = DualNetwork::new(tight(), tight(), REPLY_MIN);
        net.try_inject(pkt(0, 1, 1, 0)).unwrap();
        net.try_inject(pkt(1, 0, 200, 0)).unwrap();
        net.advance(100);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.rx_pending(NodeId::new(1)), 1);
    }

    /// `net.stats()` against both sides read afresh: scalars add,
    /// per-node delivery counts add and high-water marks take the
    /// larger.
    fn assert_merged(net: &DualNetwork<SwitchedNetwork<Mesh2D>, SwitchedNetwork<Mesh2D>>, after: &str) {
        let (got, a, b) = (net.stats(), net.request_side().stats(), net.reply_side().stats());
        let mut want = NetStats::new();
        want.zip_scalars(a, |w, x| *w = x);
        want.zip_scalars(b, |w, y| *w += y);
        assert_eq!(got.to_string(), want.to_string(), "stale scalars after {after}");
        for node in (0..net.num_nodes()).map(NodeId::new) {
            let (x, y) = (a.occupancy(node), b.occupancy(node));
            let sum = NodeOccupancy {
                delivered_to: x.delivered_to + y.delivered_to,
                delivered_from: x.delivered_from + y.delivered_from,
                peak_rx_depth: x.peak_rx_depth.max(y.peak_rx_depth),
            };
            assert_eq!(got.occupancy(node), sum, "stale {node:?} after {after}");
        }
    }

    #[test]
    fn merged_stats_are_current_after_every_call() {
        let mut net = DualNetwork::new(tight(), tight(), REPLY_MIN);
        assert_merged(&net, "new");
        for round in 0..12u32 {
            for (src, tag) in [(0, 1), (1, REPLY_MIN), (0, 200)] {
                let _ = net.try_inject(pkt(src, 1 - src, tag, round));
                assert_merged(&net, "try_inject");
            }
            net.advance(1 + u64::from(round % 3));
            assert_merged(&net, "advance");
            for node in (0..2).map(NodeId::new) {
                let _ = net.rx_peek(node);
                assert_merged(&net, "rx_peek");
                if round % 2 == 0 {
                    let _ = net.try_receive(node);
                    assert_merged(&net, "try_receive");
                }
            }
            let _ = net.take_delivered();
            assert_merged(&net, "take_delivered");
        }
        let st = net.stats();
        assert!(st.delivered > 0 && st.backpressure > 0, "the script exercised nothing: {st}");
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn mismatched_node_counts_panic() {
        let a = tight();
        let b = SwitchedNetwork::new(Mesh2D::new(3, 1), SwitchedConfig::default());
        let _ = DualNetwork::new(a, b, REPLY_MIN);
    }
}
