//! `TimedNetwork`: a decorator that measures a substrate from outside.
//!
//! The traced pass wraps the real substrate in this before handing it
//! to `timego_ni::share`, so every call the NI ports, the engine and
//! the service driver make into `netsim` crosses it. The four methods
//! that do the substrate's work are timed with two clock reads each;
//! `rx_peek` and `rx_pending` are only counted, because the hotspot
//! workload makes millions of them and clock reads would outweigh the
//! calls; on the instant scripted substrate of `paper_sweep`, where
//! every call is that cheap, the decorator is built count-only.
//! Everything else forwards untouched, including the trait's
//! defaulted methods, so the wrapped run is step-for-step the bare one
//! (`tests/selftest.rs` pins that).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use timego_netsim::{Guarantees, InjectError, NetStats, Network, NodeId, Packet, RxMeta, Time};

use crate::trace::CallTotals;

/// One timed method's running totals.
#[derive(Debug, Default)]
pub struct Timed {
    calls: Cell<u64>,
    busy_ns: Cell<u64>,
    first_start_ns: Cell<u64>,
    last_end_ns: Cell<u64>,
}

impl Timed {
    fn add(&self, start_ns: u64, end_ns: u64) {
        if self.calls.get() == 0 {
            self.first_start_ns.set(start_ns);
        }
        self.calls.set(self.calls.get() + 1);
        self.busy_ns.set(self.busy_ns.get() + (end_ns - start_ns));
        self.last_end_ns.set(end_ns);
    }

    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    pub fn totals(&self) -> CallTotals {
        CallTotals {
            calls: self.calls.get(),
            busy_ns: self.busy_ns.get(),
            first_start_ns: self.first_start_ns.get(),
            last_end_ns: self.last_end_ns.get(),
        }
    }
}

/// What the decorator has seen so far. Shared with the harness through
/// an `Rc`, because the network itself disappears behind
/// `Rc<RefCell<dyn Network>>`.
#[derive(Debug, Default)]
pub struct NetProbe {
    pub advance: Timed,
    pub inject: Timed,
    pub receive: Timed,
    pub take_delivered: Timed,
    pub advance_cycles: Cell<u64>,
    pub inject_refused: Cell<u64>,
    pub rx_peek_calls: Cell<u64>,
    pub rx_pending_calls: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// The decorator. `epoch` is the span recorder's, so first/last call
/// stamps sit on the same clock as the spans around them.
pub struct TimedNetwork<N> {
    inner: N,
    probe: Rc<NetProbe>,
    epoch: Instant,
    /// `false` counts the four work methods without timing them.
    timing: bool,
}

impl<N: Network> TimedNetwork<N> {
    pub fn new(inner: N, probe: Rc<NetProbe>, epoch: Instant, timing: bool) -> Self {
        TimedNetwork {
            inner,
            probe,
            epoch,
            timing,
        }
    }

    fn timed<T>(&mut self, pick: fn(&NetProbe) -> &Timed, call: impl FnOnce(&mut N) -> T) -> T {
        if !self.timing {
            pick(&self.probe).count();
            return call(&mut self.inner);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call(&mut self.inner);
        let end = self.epoch.elapsed().as_nanos() as u64;
        pick(&self.probe).add(start, end);
        out
    }
}

impl<N: Network> Network for TimedNetwork<N> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn advance(&mut self, cycles: u64) {
        bump(&self.probe.advance_cycles, cycles);
        self.timed(|p| &p.advance, |n| n.advance(cycles));
    }

    fn try_inject(&mut self, packet: Packet) -> Result<(), InjectError> {
        let out = self.timed(|p| &p.inject, |n| n.try_inject(packet));
        if out.is_err() {
            bump(&self.probe.inject_refused, 1);
        }
        out
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        self.timed(|p| &p.receive, |n| n.try_receive(node))
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        bump(&self.probe.rx_peek_calls, 1);
        self.inner.rx_peek(node)
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        bump(&self.probe.rx_pending_calls, 1);
        self.inner.rx_pending(node)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn guarantees(&self) -> Guarantees {
        self.inner.guarantees()
    }

    fn restarts(&self, node: NodeId) -> u32 {
        self.inner.restarts(node)
    }

    fn take_delivered(&mut self) -> Vec<NodeId> {
        self.timed(|p| &p.take_delivered, Network::take_delivered)
    }

    fn restarts_hint(&self) -> u64 {
        self.inner.restarts_hint()
    }

    fn next_restart_at(&self) -> Option<Time> {
        self.inner.next_restart_at()
    }

    fn drain(&mut self, max_cycles: u64) -> bool {
        self.inner.drain(max_cycles)
    }

    fn drain_extracting(&mut self, max_cycles: u64) -> bool {
        self.inner.drain_extracting(max_cycles)
    }
}
