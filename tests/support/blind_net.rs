//! `Blind`: a substrate that cannot say how long it stays quiet.
//!
//! Forwards every [`Network`] method — the defaulted ones included —
//! except [`Network::quiet_until`], which keeps the trait's default
//! (`now + 1`, "I don't know"). That is what a decorator written
//! against the trait before the method existed does (the frozen
//! benchmark's `TimedNetwork`), so a run over `Blind(net)` must be the
//! run over `net`: the engine may use the answer for speed only.

use timego_netsim::{Guarantees, InjectError, NetStats, Network, NodeId, Packet, RxMeta, Time};
use timego_ni::{share, SharedNetwork};

pub struct Blind<N>(pub N);

/// Share `net`, behind the decorator if `blind`.
pub fn shared<N: Network + 'static>(net: N, blind: bool) -> SharedNetwork {
    if blind {
        share(Blind(net))
    } else {
        share(net)
    }
}

impl<N: Network> Network for Blind<N> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn now(&self) -> Time {
        self.0.now()
    }
    fn advance(&mut self, cycles: u64) {
        self.0.advance(cycles);
    }
    fn try_inject(&mut self, packet: Packet) -> Result<(), InjectError> {
        self.0.try_inject(packet)
    }
    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        self.0.try_receive(node)
    }
    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        self.0.rx_peek(node)
    }
    fn rx_pending(&self, node: NodeId) -> usize {
        self.0.rx_pending(node)
    }
    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }
    fn stats(&self) -> &NetStats {
        self.0.stats()
    }
    fn guarantees(&self) -> Guarantees {
        self.0.guarantees()
    }
    fn restarts(&self, node: NodeId) -> u32 {
        self.0.restarts(node)
    }
    fn take_delivered(&mut self) -> Vec<NodeId> {
        self.0.take_delivered()
    }
    fn restarts_hint(&self) -> u64 {
        self.0.restarts_hint()
    }
    fn next_restart_at(&self) -> Option<Time> {
        self.0.next_restart_at()
    }
    fn drain(&mut self, max_cycles: u64) -> bool {
        self.0.drain(max_cycles)
    }
    fn drain_extracting(&mut self, max_cycles: u64) -> bool {
        self.0.drain_extracting(max_cycles)
    }
}
