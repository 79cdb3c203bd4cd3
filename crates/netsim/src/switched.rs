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
//!
//! ## The link schedule
//!
//! The model is a full scan: every cycle, every link in ascending index
//! order gets one chance to move one queue head. Almost all of those
//! visits are no-ops — under saturation a head is either still
//! traversing or blocked on a full buffer — so [`SwitchedNetwork`] makes
//! only the visits that could move something, filed from four sources:
//!
//! 1. a packet that becomes a queue head files a visit at its
//!    `ready_at` (pushed onto an empty queue, or promoted by the pop in
//!    front of it);
//! 2. a ready head whose next link queue is full registers its link as
//!    a waiter on that link, and is woken when that link pops;
//! 3. a ready head whose destination receive queue is full registers on
//!    the node, and is woken by `try_receive`;
//! 4. a visit that moved a packet while another virtual channel's head
//!    was ready but never reached re-files the link for the next cycle
//!    (one movement per physical link per cycle).
//!
//! Due visits pop in `(cycle, link)` order, duplicates collapse, and a
//! wake obeys the *cursor rule*: a link woken while the scan stands at
//! link `c` is visited this cycle if its index is above `c` — the full
//! scan would still reach it and find the space — and next cycle
//! otherwise, as is every wake outside a scan. A visit the schedule
//! skips is one the full scan would have made without changing any
//! state (`rr` and `last_progress` only change on a move), and an extra
//! visit is one the full scan makes anyway, so the schedule is exact:
//! the test module steps a clone by the full scan and compares.
//!
//! ## How long the receive queues stay quiet
//!
//! A packet accepted at cycle `t` onto a path of `L` links cannot reach
//! its receive queue before `t + L × link_latency`: it occupies every
//! link for `link_latency` cycles, and contention, jitter and a full
//! buffer only ever add to that. The bound is filed once, when the
//! packet enters the link queues (injection, a released reorder hold, a
//! duplicate, `swap_in`), in a 64-slot ring of counts indexed by cycle;
//! a slot the clock passes moves its count to `overdue`, and every
//! delivery (or CRC drop) takes one from `overdue` — so no per-packet
//! state, no allocation. [`Network::quiet_until`] is then the first
//! occupied slot, or `now + 1` while anything is overdue or held by the
//! reorder fault (whose release is not a matter of time alone).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::fault::{FaultConfig, FaultSchedule};
use crate::id::NodeId;
use crate::network::{Guarantees, InjectError, Network, RxMeta, WakeSet};
use crate::packet::Packet;
use crate::pair::PairMap;
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

#[derive(Debug, Clone, PartialEq)]
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

/// `ready_at` of a packet queued behind another: it starts traversing
/// only once it is promoted to head.
const NOT_HEAD: Time = Time::from_cycles(u64::MAX);

/// `cursor` value between scans: no link index exceeds it, so the
/// cursor rule sends every wake to the next cycle.
const NO_SCAN: usize = usize::MAX;

/// Slots in the arrival-bound ring: bounds are filed at most
/// `BOUND_SLOTS - 1` cycles out (a nearer bound is still a bound).
const BOUND_SLOTS: u64 = 64;

/// [`Network::quiet_until`] of a network with nothing in transit.
const NEVER: Time = Time::from_cycles(u64::MAX);

/// What a visit found at the head of one `(link, vc)` queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    /// It moved: onto the next link, into the receive queue, or (CRC)
    /// out of the network.
    Moved,
    /// Nothing a wake could change: no head, a head still traversing
    /// (its visit is already filed), or a path that re-enters this link.
    Idle,
    /// Ready, but the next link's queue on this VC is full.
    LinkFull(usize),
    /// Ready, but the destination node's receive queue is full.
    RxFull(usize),
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
    // One FIFO per (link, virtual channel), link-major (`li * vcs + vc`):
    // the physical link serves its VC heads round-robin from `rr[li]`,
    // one packet movement per cycle.
    queues: Vec<VecDeque<Transit>>,
    rr: Vec<usize>,
    rx: Vec<VecDeque<Packet>>,
    now: Time,
    pair_seq: PairMap<u64>,
    in_flight: usize,
    last_progress: Time,
    stats: NetStats,
    rng: SimRng,
    faults: FaultSchedule,
    wake: WakeSet,
    // The link schedule (module docs). Visits still to make, popped in
    // ascending `(cycle, link)` order.
    due: BinaryHeap<Reverse<(Time, usize)>>,
    // Per link: the links whose ready head found its queue full.
    link_waiters: Vec<Vec<usize>>,
    // Per node: the links whose ready head found its receive queue full.
    node_waiters: Vec<Vec<usize>>,
    // The link the scan stands at (`NO_SCAN` between scans).
    cursor: usize,
    visits: u64,
    moves: u64,
    // Arrival bounds (module docs): `bound_counts[c % 64]` queued
    // packets cannot be delivered before cycle `c`, for `c` in
    // `now + 1 ..= now + 63`; `bound_mask` has a bit per non-zero slot;
    // `overdue` packets are past their bound and still queued.
    bound_counts: [u32; BOUND_SLOTS as usize],
    bound_mask: u64,
    overdue: usize,
}

/// Register `li` with whatever blocks its head (sources 2 and 3).
fn wait_on(waiters: &mut Vec<usize>, li: usize) {
    if !waiters.contains(&li) {
        waiters.push(li);
    }
}

/// A buffer gained space: re-file everyone who was waiting for it, by
/// the cursor rule.
fn wake_waiters(
    waiters: &mut Vec<usize>,
    due: &mut BinaryHeap<Reverse<(Time, usize)>>,
    now: Time,
    cursor: usize,
) {
    for li in waiters.drain(..) {
        let cycle = if li > cursor { now } else { now + 1 };
        due.push(Reverse((cycle, li)));
    }
}

impl<T: Topology> SwitchedNetwork<T> {
    /// Build a network over `topo` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `link_latency`, `link_queue_capacity`,
    /// `rx_queue_capacity` or `virtual_channels` is zero.
    pub fn new(topo: T, cfg: SwitchedConfig) -> Self {
        assert!(cfg.link_latency >= 1, "link latency must be at least 1 cycle");
        assert!(cfg.link_queue_capacity >= 1, "link queues must hold at least 1 packet");
        assert!(cfg.rx_queue_capacity >= 1, "rx queues must hold at least 1 packet");
        assert!(cfg.virtual_channels >= 1, "need at least one virtual channel");
        // Empty `VecDeque`s and `Vec`s own no heap memory, so set-up
        // costs a handful of allocations, not one per link.
        let links = topo.num_links();
        let queues = (0..links * cfg.virtual_channels).map(|_| VecDeque::new()).collect();
        let rx = (0..topo.num_nodes()).map(|_| VecDeque::new()).collect();
        let node_waiters = vec![Vec::new(); topo.num_nodes()];
        let rng = SimRng::new(cfg.seed);
        let faults = FaultSchedule::new(cfg.fault.clone(), cfg.seed);
        let wake = WakeSet::new(topo.num_nodes());
        SwitchedNetwork {
            topo,
            cfg,
            queues,
            rr: vec![0; links],
            rx,
            now: Time::ZERO,
            pair_seq: PairMap::default(),
            in_flight: 0,
            last_progress: Time::ZERO,
            stats: NetStats::new(),
            rng,
            faults,
            wake,
            due: BinaryHeap::new(),
            link_waiters: vec![Vec::new(); links],
            node_waiters,
            cursor: NO_SCAN,
            visits: 0,
            moves: 0,
            bound_counts: [0; BOUND_SLOTS as usize],
            bound_mask: 0,
            overdue: 0,
        }
    }

    /// Suspend the network for a timesharing context switch: every
    /// in-flight packet is extracted from the links into an opaque
    /// context (the CM-5's "all-fall-down" mode, where packets drop out
    /// of the network to be saved by the operating system).
    ///
    /// Receive queues are node-local state and are left in place.
    pub fn swap_out(&mut self) -> SwappedContext {
        let mut transits = Vec::new();
        for q in &mut self.queues {
            transits.extend(q.drain(..));
        }
        // No queue has a head any more, so nothing is left to schedule.
        self.due.clear();
        for waiters in self.link_waiters.iter_mut().chain(&mut self.node_waiters) {
            waiters.clear();
        }
        (self.bound_counts, self.bound_mask, self.overdue) = ([0; BOUND_SLOTS as usize], 0, 0);
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
            transit.ready_at = if self.queue(li, transit.vc).is_empty() {
                self.now + self.cfg.link_latency
            } else {
                NOT_HEAD
            };
            self.file_bound(transit.path.len() - transit.hop);
            self.enqueue(li, transit);
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

    /// Link visits made, and the packet movements they produced, since
    /// construction. The full scan the schedule stands in for makes
    /// `links × cycles` visits whatever the traffic; this pair says how
    /// close to one visit per movement the schedule runs.
    pub fn link_visits(&self) -> (u64, u64) {
        (self.visits, self.moves)
    }

    /// Whether a delivery has been recorded since the last
    /// [`take_delivered`](Network::take_delivered).
    pub(crate) fn has_delivered(&self) -> bool {
        !self.wake.is_empty()
    }

    fn queue(&self, li: usize, vc: usize) -> &VecDeque<Transit> {
        &self.queues[li * self.cfg.virtual_channels + vc]
    }

    fn queue_mut(&mut self, li: usize, vc: usize) -> &mut VecDeque<Transit> {
        &mut self.queues[li * self.cfg.virtual_channels + vc]
    }

    fn occupancy(&self, li: usize) -> usize {
        let vcs = self.cfg.virtual_channels;
        self.queues[li * vcs..(li + 1) * vcs].iter().map(VecDeque::len).sum()
    }

    /// Append `transit` to its queue on link `li`. A finite `ready_at`
    /// says the queue was empty and the packet is its head at once, so
    /// its visit is filed (source 1).
    fn enqueue(&mut self, li: usize, transit: Transit) {
        if transit.ready_at != NOT_HEAD {
            self.due.push(Reverse((transit.ready_at, li)));
        }
        self.queue_mut(li, transit.vc).push_back(transit);
    }

    /// File the arrival bound of a packet entering the link queues with
    /// `links` links still to cross.
    fn file_bound(&mut self, links: usize) {
        debug_assert!(links >= 1, "a queued packet has a link to cross");
        let ahead = (links as u64).saturating_mul(self.cfg.link_latency).min(BOUND_SLOTS - 1);
        let slot = (self.now.cycles() + ahead) % BOUND_SLOTS;
        self.bound_counts[slot as usize] += 1;
        self.bound_mask |= 1 << slot;
    }

    /// Let one cycle pass: whatever was bound to this cycle is overdue
    /// from here on.
    fn tick(&mut self) {
        self.now += 1;
        let slot = self.now.cycles() % BOUND_SLOTS;
        if self.bound_mask & (1 << slot) != 0 {
            self.overdue += std::mem::take(&mut self.bound_counts[slot as usize]) as usize;
            self.bound_mask &= !(1 << slot);
        }
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
                            .map(|l| self.occupancy(l.index()))
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
        // A packet leaves the last link at or after its bound.
        self.overdue -= 1;
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
        #[cfg(debug_assertions)]
        let was_busy = self.in_flight > 0;
        self.tick();
        self.release_due_holds();
        // Every visit due this cycle, in ascending link order — the
        // order the full scan reaches them. Wakes filed for this cycle
        // mid-scan (cursor rule) land ahead of the cursor and pop in
        // turn; an idle cycle is the one peek.
        while let Some(&Reverse((cycle, li))) = self.due.peek() {
            if cycle > self.now {
                break;
            }
            debug_assert_eq!(cycle, self.now, "a filed visit was skipped");
            self.due.pop();
            // Several sources may have filed the same visit; a second
            // one would be a second movement on one physical link.
            if li != self.cursor {
                self.cursor = li;
                self.visit(li);
            }
        }
        self.cursor = NO_SCAN;
        // The invariant walks every queue, so it is sampled.
        #[cfg(debug_assertions)]
        if self.now.cycles().is_power_of_two() || (was_busy && self.in_flight == 0) {
            self.check_schedule();
        }
    }

    /// Schedule invariant (debug builds, sampled; tests, every cycle):
    /// every queued head has a registered reason to wait — a visit
    /// filed at its `ready_at` while it traverses; once ready, its link
    /// on the waiter list of the buffer that blocks it, or a visit
    /// filed for the next cycle (mandatory if it could move right now);
    /// and every queued packet is counted once by the arrival bounds,
    /// in the ring or as overdue. Holds whenever no scan is running.
    #[cfg(any(test, debug_assertions))]
    fn check_schedule(&self) {
        let vcs = self.cfg.virtual_channels;
        let due: std::collections::BTreeSet<(Time, usize)> = self.due.iter().map(|r| r.0).collect();
        assert!(due.first().is_none_or(|&(cycle, _)| cycle > self.now), "a filed visit was skipped");
        let mut queued = 0;
        for (qi, queue) in self.queues.iter().enumerate() {
            queued += queue.len();
            let Some(head) = queue.front() else { continue };
            let (li, vc) = (qi / vcs, qi % vcs);
            assert_ne!(head.ready_at, NOT_HEAD, "link {li} vc {vc}: head never promoted");
            if head.ready_at > self.now {
                assert!(due.contains(&(head.ready_at, li)), "link {li} vc {vc}: no visit at ready_at");
                continue;
            }
            let waiting = if head.hop + 1 == head.path.len() {
                let dst = head.packet.dst().index();
                let full = self.rx[dst].len() >= self.cfg.rx_queue_capacity;
                !head.packet.is_corrupted() && full && self.node_waiters[dst].contains(&li)
            } else {
                let next = head.path[head.hop + 1].index();
                if next == li {
                    continue; // never movable: nothing to wait for
                }
                let full = self.queue(next, vc).len() >= self.cfg.link_queue_capacity;
                full && self.link_waiters[next].contains(&li)
            };
            assert!(
                waiting || due.contains(&(self.now + 1, li)),
                "link {li} vc {vc}: ready head neither waiting on its blocker nor due next cycle"
            );
        }
        assert_eq!(queued + self.faults.held_count(), self.in_flight, "in_flight out of step with the queues");
        let bound: usize = self.bound_counts.iter().map(|&c| c as usize).sum();
        assert_eq!(bound + self.overdue, queued, "arrival bounds out of step with the queues");
        let occupied = (0..BOUND_SLOTS).filter(|&s| self.bound_counts[s as usize] > 0);
        assert_eq!(occupied.fold(0, |mask, s| mask | 1 << s), self.bound_mask, "bound mask vs counts");
    }

    /// The model the schedule stands in for, kept as the test oracle:
    /// visit every link, every cycle, in ascending order.
    #[cfg(test)]
    fn step_full_scan(&mut self) {
        self.tick();
        self.release_due_holds();
        for li in 0..self.rr.len() {
            self.cursor = li;
            self.visit(li);
        }
        self.cursor = NO_SCAN;
        self.due.clear();
    }

    /// One full-scan visit: move at most one packet off link `li`. The
    /// round-robin pass over virtual-channel heads finds the first one
    /// whose traversal completed and whose next buffer has space. A
    /// ready head on another VC can thereby overtake a blocked one —
    /// that is exactly how virtual channels break delivery order. A
    /// blocked head leaves the link registered with what blocks it.
    fn visit(&mut self, li: usize) {
        self.visits += 1;
        let vcs = self.cfg.virtual_channels;
        let start = self.rr[li];
        for k in 0..vcs {
            let vc = (start + k) % vcs;
            match self.try_move_head(li, vc) {
                Head::Moved => {
                    self.moves += 1;
                    self.rr[li] = (vc + 1) % vcs;
                    // Source 4: the VCs this pass never reached.
                    let now = self.now;
                    let ready_behind = (k + 1..vcs).any(|j| {
                        let head = self.queue(li, (start + j) % vcs).front();
                        head.is_some_and(|h| h.ready_at <= now)
                    });
                    if ready_behind {
                        self.due.push(Reverse((now + 1, li)));
                    }
                    return;
                }
                Head::LinkFull(next) => wait_on(&mut self.link_waiters[next], li),
                Head::RxFull(dst) => wait_on(&mut self.node_waiters[dst], li),
                Head::Idle => {}
            }
        }
    }

    /// Attempt to move the head of `(link, vc)`, and say what became of
    /// it.
    fn try_move_head(&mut self, li: usize, vc: usize) -> Head {
        let Some(head) = self.queue(li, vc).front() else {
            return Head::Idle;
        };
        if head.ready_at > self.now {
            return Head::Idle;
        }
        let last_hop = head.hop + 1 == head.path.len();
        if last_hop {
            let dst = head.packet.dst().index();
            let corrupt = head.packet.is_corrupted();
            if !corrupt && self.rx[dst].len() >= self.cfg.rx_queue_capacity {
                return Head::RxFull(dst); // block in place
            }
            let transit = self.pop_head(li, vc);
            self.deliver(transit);
        } else {
            let next = head.path[head.hop + 1].index();
            if next == li {
                return Head::Idle;
            }
            if self.queue(next, vc).len() >= self.cfg.link_queue_capacity {
                return Head::LinkFull(next);
            }
            let mut transit = self.pop_head(li, vc);
            transit.hop += 1;
            transit.ready_at = if self.queue(next, vc).is_empty() {
                self.now + self.cfg.link_latency
            } else {
                NOT_HEAD
            };
            self.enqueue(next, transit);
            self.last_progress = self.now;
        }
        Head::Moved
    }

    /// Pop the head of `(link, vc)`: the packet behind it is promoted
    /// (source 1, jitter included) and the links blocked on this one
    /// are woken (source 2).
    fn pop_head(&mut self, li: usize, vc: usize) -> Transit {
        let (now, latency) = (self.now, self.cfg.link_latency);
        let queue = self.queue_mut(li, vc);
        let transit = queue.pop_front().expect("head exists");
        if let Some(new_head) = queue.front_mut() {
            if new_head.ready_at == NOT_HEAD {
                new_head.ready_at = now + latency + new_head.jitter;
                new_head.jitter = 0;
            }
            let ready_at = new_head.ready_at;
            self.due.push(Reverse((ready_at, li)));
        }
        wake_waiters(&mut self.link_waiters[li], &mut self.due, now, self.cursor);
        transit
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
        if self.queue(first, vc).len() >= self.cfg.link_queue_capacity {
            return false;
        }
        let (ready_at, pending_jitter) = if self.queue(first, vc).is_empty() {
            (self.now + self.cfg.link_latency + jitter, 0)
        } else {
            (NOT_HEAD, jitter)
        };
        self.file_bound(path.len());
        self.enqueue(
            first,
            Transit { packet, path, hop: 0, vc, ready_at, jitter: pending_jitter },
        );
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
        for left in (1..=cycles).rev() {
            if self.in_flight == 0 && self.due.is_empty() {
                // Nothing queued, held or filed: the remaining cycles
                // are clock arithmetic (the ring is empty, so there is
                // nothing to roll either).
                #[cfg(debug_assertions)]
                let sampled = (self.now.cycles() + 1).next_power_of_two() <= self.now.cycles() + left;
                self.now += left;
                #[cfg(debug_assertions)]
                if sampled {
                    self.check_schedule();
                }
                return;
            }
            self.step();
        }
    }

    fn quiet_until(&self) -> Time {
        if self.overdue > 0 || self.faults.held_count() > 0 {
            return self.now + 1;
        }
        if self.bound_mask == 0 {
            return NEVER;
        }
        // Slot `now % 64` was emptied by `tick`, so the ring reads
        // `now + 1 ..= now + 63` in order from the slot after it.
        let next = self.now.cycles() + 1;
        let ahead = self.bound_mask.rotate_right((next % BOUND_SLOTS) as u32).trailing_zeros();
        Time::from_cycles(next + u64::from(ahead))
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
            packet.stamp(*seq, self.now);
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
            packet.stamp(*seq, self.now);
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
        if self.queue(first, vc).len() >= self.cfg.link_queue_capacity {
            self.stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        }

        let seq = self.pair_seq.entry((src, dst)).or_insert(0);
        packet.stamp(*seq, self.now);
        *seq += 1;
        let duplicate = faults.duplicate.then(|| packet.clone());
        if faults.corrupt {
            packet.corrupt();
        }
        let (ready_at, jitter) = if self.queue(first, vc).is_empty() {
            (self.now + self.cfg.link_latency + faults.extra_delay, 0)
        } else {
            (NOT_HEAD, faults.extra_delay)
        };
        self.file_bound(path.len());
        self.enqueue(first, Transit { packet, path, hop: 0, vc, ready_at, jitter });
        self.in_flight += 1;
        self.stats.injected += 1;
        self.last_progress = self.now;

        // Link-level retry duplication: a second, identical copy enters
        // on its own (freshly routed) path with its own pair sequence,
        // if the fabric has room for it.
        if let Some(mut dup) = duplicate {
            let next_seq = *self.pair_seq.get(&(src, dst)).expect("pair just stamped");
            dup.stamp(next_seq, self.now);
            if self.enqueue_on_path(dup, 0) {
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
        let packet = self.rx.get_mut(node.index())?.pop_front()?;
        // Source 3: the receive queue gained a slot.
        wake_waiters(&mut self.node_waiters[node.index()], &mut self.due, self.now, self.cursor);
        Some(packet)
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
    fn every_queued_head_has_a_registered_reason_to_wait() {
        let mut net = SwitchedNetwork::new(
            FatTree::new(4, 2, 2),
            SwitchedConfig {
                strategy: RouteStrategy::Adaptive { candidates: 4 },
                fault: FaultConfig { delay_jitter: 4, duplicate_prob: 0.1, ..FaultConfig::default() },
                rx_queue_capacity: 2,
                virtual_channels: 2,
                seed: 5,
                ..SwitchedConfig::default()
            },
        );
        // Nobody receives for the first half, so heads block on full
        // receive queues and the blockage backs up link by link.
        let mut blocked_on = (false, false);
        for s in 0..240u32 {
            let _ = net.try_inject(pkt(4 + (s as usize) % 8, (s as usize * 7 + 3) % 4, s));
            net.check_schedule();
            for _ in 0..1 + s % 2 {
                net.advance(1);
                net.check_schedule();
            }
            blocked_on.0 |= net.link_waiters.iter().any(|w| !w.is_empty());
            blocked_on.1 |= net.node_waiters.iter().any(|w| !w.is_empty());
            if s >= 120 {
                let _ = net.try_receive(n((s as usize) % 4));
                net.check_schedule();
            }
        }
        assert_eq!(blocked_on, (true, true), "heads must have blocked on links and on nodes");
        for _ in 0..10_000 {
            if net.in_flight() == 0 {
                break;
            }
            net.advance(1);
            for node in 0..4 {
                let _ = net.try_receive(n(node));
            }
            net.check_schedule();
        }
        assert_eq!(net.in_flight(), 0, "drained");
        net.advance(1);
        assert!(net.due.is_empty(), "a drained network has no visit left to make");
    }

    /// Everything the full scan and the schedule must agree on.
    fn assert_same<T: Topology>(net: &SwitchedNetwork<T>, oracle: &SwitchedNetwork<T>, what: &str) {
        assert!(net.queues == oracle.queues, "{what}: link queues");
        assert_eq!(net.rr, oracle.rr, "{what}: round-robin pointers");
        assert_eq!(net.rx, oracle.rx, "{what}: receive queues");
        assert_eq!(net.wake.clone().take(), oracle.wake.clone().take(), "{what}: wake set");
        assert_eq!(net.in_flight(), oracle.in_flight(), "{what}: in_flight");
        assert_eq!(net.stalled_for(), oracle.stalled_for(), "{what}: stalled_for");
        assert_eq!(net.moves, oracle.moves, "{what}: moves");
        let (a, b) = (net.stats(), oracle.stats());
        assert_eq!(a.to_string(), b.to_string(), "{what}: stats");
        assert_eq!(
            (a.order.in_order(), a.order.out_of_order(), a.occupancy_table()),
            (b.order.in_order(), b.order.out_of_order(), b.occupancy_table()),
            "{what}: order and occupancy"
        );
    }

    /// Receive-queue depths and marked wakes: what a delivery changes.
    fn arrivals<T: Topology>(net: &SwitchedNetwork<T>) -> (Vec<usize>, usize) {
        (net.rx.iter().map(VecDeque::len).collect(), net.wake.clone().take().len())
    }

    /// Drive `net` by the schedule and a clone by the full scan through
    /// the same seeded traffic — bursts toward a few hot nodes, partial
    /// draining, multi-cycle advances, a swap-out/swap-in — comparing
    /// after every cycle, and holding every cycle to the quiet bound:
    /// `promised` is the latest `quiet_until()` any reading since the
    /// last injection gave, and no receive queue may grow and no wake be
    /// marked on a cycle short of it. Returns the cycles that were
    /// promised quiet more than one cycle ahead.
    fn drive_against_full_scan<T: Topology + Clone>(mut net: SwitchedNetwork<T>, what: &str) -> u64 {
        let mut oracle = net.clone();
        let mut rng = SimRng::new(net.cfg.seed ^ 0xD1FF);
        let nodes = net.num_nodes();
        let hot = 1 + rng.gen_index(3);
        let mut promised = net.quiet_until();
        let mut looked_ahead = 0;
        let mut cycle = |net: &mut SwitchedNetwork<T>, oracle: &mut SwitchedNetwork<T>, promised: &mut Time| {
            let before = arrivals(net);
            net.advance(1);
            oracle.step_full_scan();
            net.check_schedule();
            assert_same(net, oracle, what);
            if net.now() < *promised {
                assert_eq!(before, arrivals(net), "{what}: delivery at {}, promised quiet until {promised}", net.now());
                looked_ahead += 1;
            }
            assert!(net.quiet_until() > net.now(), "{what}: the bound is ahead of the clock");
            *promised = net.quiet_until().max(*promised);
        };
        for round in 0..48u32 {
            for k in 0..rng.gen_index(4) {
                let dst = if rng.gen_index(4) == 0 { rng.gen_index(nodes) } else { rng.gen_index(hot) };
                let p = pkt(rng.gen_index(nodes), dst, round * 4 + k as u32);
                assert_eq!(net.try_inject(p.clone()), oracle.try_inject(p), "{what}: inject");
                // An injection may lower the bound: earlier promises lapse.
                promised = net.quiet_until();
            }
            for _ in 0..1 + rng.gen_index(3) {
                cycle(&mut net, &mut oracle, &mut promised);
            }
            assert_eq!(net.take_delivered(), oracle.take_delivered(), "{what}: wakes");
            for _ in 0..rng.gen_index(3) {
                let node = n(rng.gen_index(hot + 1));
                assert_eq!(net.try_receive(node), oracle.try_receive(node), "{what}: receive");
            }
            if round == 30 {
                let (ctx, octx) = (net.swap_out(), oracle.swap_out());
                assert_eq!(ctx.len(), octx.len(), "{what}: swapped packets");
                // The reorder fault's holds are not part of the context.
                if net.in_flight() == 0 {
                    assert_eq!(net.quiet_until(), NEVER, "{what}: nothing is in transit during a swap");
                }
                for _ in 0..3 {
                    cycle(&mut net, &mut oracle, &mut promised);
                }
                net.swap_in(ctx);
                oracle.swap_in(octx);
                net.check_schedule();
                assert_same(&net, &oracle, what);
                promised = net.quiet_until();
            }
        }
        // Drain with every node extracting, so the last packets move too.
        for _ in 0..400 {
            if net.in_flight() == 0 {
                break;
            }
            cycle(&mut net, &mut oracle, &mut promised);
            for node in 0..nodes {
                assert_eq!(net.try_receive(n(node)), oracle.try_receive(n(node)), "{what}: drain");
            }
        }
        assert_eq!(net.in_flight(), 0, "{what}: drained");
        assert_eq!(net.quiet_until(), NEVER, "{what}: a drained network stays quiet");
        let (visits, moves) = net.link_visits();
        assert!(visits >= moves && visits < oracle.link_visits().0, "{what}: the schedule visits less");
        looked_ahead
    }

    #[test]
    fn schedule_matches_the_full_scan_on_a_seeded_grid() {
        let strategies = [
            RouteStrategy::Deterministic,
            RouteStrategy::Adaptive { candidates: 3 },
            RouteStrategy::Randomized { candidates: 3 },
        ];
        let faults = [
            FaultConfig::default(),
            FaultConfig { corruption_prob: 0.15, ..FaultConfig::default() },
            FaultConfig { duplicate_prob: 0.2, delay_jitter: 5, ..FaultConfig::default() },
            FaultConfig { reorder_prob: 0.2, reorder_depth: 3, drop_prob: 0.05, ..FaultConfig::default() },
            FaultConfig {
                corruption_prob: 0.05,
                drop_prob: 0.05,
                duplicate_prob: 0.1,
                delay_jitter: 8,
                reorder_prob: 0.1,
                reorder_depth: 4,
                outages: vec![OutageWindow { node: n(1), start: 10, end: 30 }],
                crashes: Vec::new(),
            },
        ];
        // VCs 1-3 x strategies x fault mixes x latency 1-3 x link depth
        // 1-4 x rx depth 1-5, each on a fat tree and on a mesh: 5400
        // runs. A release build (the CI step) makes them all; a debug
        // build strides through the grid with a step coprime to every
        // axis, so each value of each axis still comes up.
        let grid = 3 * 3 * 5 * 3 * 4 * 5;
        let stride = if cfg!(debug_assertions) { 23 } else { 1 };
        let (mut runs, mut looked_ahead) = (0, 0);
        for i in (0..grid).step_by(stride) {
            let cfg = SwitchedConfig {
                virtual_channels: 1 + i % 3,
                strategy: strategies[i / 3 % 3],
                fault: faults[i / 9 % 5].clone(),
                link_latency: 1 + (i / 45 % 3) as u64,
                link_queue_capacity: 1 + i / 135 % 4,
                rx_queue_capacity: 1 + i / 540 % 5,
                seed: 0x5EED ^ i as u64,
            };
            let what = format!("config {i} {cfg:?}");
            looked_ahead += drive_against_full_scan(SwitchedNetwork::new(FatTree::new(2, 3, 2), cfg.clone()), &what);
            looked_ahead += drive_against_full_scan(SwitchedNetwork::new(Mesh2D::new(3, 3), cfg), &what);
            runs += 2;
        }
        // The bound has to say something: a run is ~100 busy cycles, and
        // an uncontended packet is promised its whole route.
        assert!(looked_ahead >= 10 * runs, "{looked_ahead} cycles promised quiet ahead of time over {runs} runs");
    }

    #[test]
    fn a_long_advance_is_the_single_cycles_it_stands_for() {
        let cfg = SwitchedConfig {
            fault: FaultConfig { delay_jitter: 6, duplicate_prob: 0.2, ..FaultConfig::default() },
            virtual_channels: 2,
            seed: 9,
            ..SwitchedConfig::default()
        };
        let mut net = SwitchedNetwork::new(FatTree::new(4, 2, 2), cfg);
        let mut single = net.clone();
        let mut rng = SimRng::new(3);
        for round in 0..40u32 {
            // Bursts with long idle stretches between them, so an
            // advance starts busy and ends idle, or is idle throughout.
            for k in 0..rng.gen_index(3) {
                let p = pkt(rng.gen_index(16), rng.gen_index(16), round * 4 + k as u32);
                assert_eq!(net.try_inject(p.clone()), single.try_inject(p));
            }
            let cycles = [1, 3, 40, 1000, 1 << 20][rng.gen_index(5)];
            net.advance(cycles);
            // The arm under test returns at the first idle cycle; the
            // reference makes every step (it drains within the first 200).
            for _ in 0..cycles.min(200) {
                single.step();
            }
            single.now += cycles - cycles.min(200);
            net.check_schedule();
            assert_same(&net, &single, "long advance");
            assert_eq!(net.now(), single.now());
            assert_eq!(net.take_delivered(), single.take_delivered());
            for node in 0..16 {
                assert_eq!(net.try_receive(n(node)), single.try_receive(n(node)));
            }
        }
        assert!(net.stats().delivered > 20, "traffic flowed: {}", net.stats());
        assert!(net.now().cycles() > 1 << 20, "the idle stretches were long");
    }

    /// Acknowledged traffic, the shape every protocol above offers: each
    /// `(src, dst)` flow of `plan` sends `per_flow` packets as fast as
    /// injection allows; every node extracts one packet per cycle and
    /// answers a data packet with an acknowledgement; refused
    /// injections are retried. Returns `(visits, moves)`.
    fn saturate(plan: &[(usize, usize)], per_flow: u32) -> (u64, u64) {
        const ACK: u32 = 1 << 31;
        let mut net = SwitchedNetwork::new(FatTree::new(4, 4, 2), SwitchedConfig::default());
        let mut unsent = vec![per_flow; plan.len()];
        let mut unacked = per_flow as usize * plan.len();
        let mut owed: Vec<u32> = Vec::new();
        let mut waiting: Vec<NodeId> = Vec::new();
        while unacked > 0 {
            owed.retain(|&flow| {
                let (src, dst) = plan[flow as usize];
                net.try_inject(pkt(dst, src, flow | ACK)).is_err()
            });
            for (flow, &(src, dst)) in plan.iter().enumerate() {
                if unsent[flow] > 0 && net.try_inject(pkt(src, dst, flow as u32)).is_ok() {
                    unsent[flow] -= 1;
                }
            }
            net.advance(1);
            waiting.extend(net.take_delivered());
            waiting.retain(|&node| {
                let header = net.try_receive(node).expect("a marked node holds a packet").header();
                if header & ACK == 0 {
                    owed.push(header);
                } else {
                    unacked -= 1;
                }
                net.rx_pending(node) > 0
            });
            assert!(net.now().cycles() < 1_000_000, "saturated run must drain");
        }
        net.link_visits()
    }

    #[test]
    fn link_visits_stay_within_three_per_move_under_saturation() {
        // 256 nodes, five packets per flow: a random permutation (1.5
        // visits per move) and everyone-to-node-0 (2.3, the fan-in of
        // the saturated tree: each pop wakes every blocked feeder and
        // one of them gets the slot). Polling every occupied link
        // reads 42 and 36 on the benchmark's 4096-node permutation and
        // 1024-node hotspot, where the schedule reads 1.4 and 2.5.
        let mut perm: Vec<usize> = (0..256).collect();
        SimRng::new(42).shuffle(&mut perm);
        let permutation: Vec<_> = perm.into_iter().enumerate().filter(|(src, dst)| src != dst).collect();
        let hotspot: Vec<_> = (1..256).map(|src| (src, 0)).collect();
        for (name, plan) in [("permutation", permutation), ("hotspot", hotspot)] {
            let (visits, moves) = saturate(&plan, 5);
            assert!(moves >= 10 * plan.len() as u64, "{name}: five packets and five acknowledgements per flow");
            assert!(
                visits <= 3 * moves,
                "{name}: {visits} link visits for {moves} packet moves — the schedule is polling again"
            );
        }
    }
}
