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
//! ## The link queues
//!
//! Every packet in the link queues sits in one slot of a single slab,
//! and stays there from injection to delivery. Each `(link, vc)` FIFO
//! is a head, a tail and a length, threaded through a `next` index per
//! slot, so a hop unlinks a slot index from one FIFO and links it onto
//! the next: the packet is not copied and no queue allocates. Freed
//! slots go on a LIFO free list threaded the same way. A slot carries
//! the packet's route inline (up to [`ROUTE_INLINE`] links, a boxed
//! slice above that), filled from one reused path buffer, so a
//! deterministic route allocates nothing either.
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
//! A filed visit is a bit in a ring of [`RING`] per-cycle link bitmaps,
//! each with a summary word per 64 bitmap words; the rare visit filed
//! further out (fault-plane jitter) waits in an overflow heap until its
//! cycle comes within the ring. A cycle's scan takes its bitmap's set
//! bits upward from the cursor, so duplicates collapse by construction:
//! filing a visit twice sets one bit. A wake obeys the *cursor rule*: a
//! link woken while the scan stands at link `c` is visited this cycle
//! if its index is above `c` — its bit is set ahead of the scan, which
//! reaches it in turn, as the full scan would still reach it and find
//! the space — and next cycle otherwise, as is every wake outside a
//! scan. A visit the schedule skips is one the full scan would have
//! made without changing any state (`rr` and `last_progress` only
//! change on a move), and an extra visit is one the full scan makes
//! anyway, so the schedule is exact: the test module steps a clone by
//! the full scan and compares.
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
use std::collections::BinaryHeap;

use crate::fault::{FaultConfig, FaultSchedule};
use crate::id::NodeId;
use crate::network::{check_endpoints, stamp_next, Guarantees, InjectError, Network, RxMeta, RxQueues};
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

/// Links a route carries without a heap allocation: every route of a
/// 4-ary fat tree up to 7 levels (16 384 nodes), or of up to 14 mesh
/// hops.
const ROUTE_INLINE: usize = 14;

/// A packet's route as dense link indices.
#[derive(Debug, Clone, PartialEq)]
enum Route {
    /// Up to [`ROUTE_INLINE`] links; the slots past `len` hold zero.
    Inline { len: u8, links: [u32; ROUTE_INLINE] },
    /// A longer route.
    Spilled(Box<[u32]>),
}

impl Route {
    fn new(path: &[LinkId]) -> Route {
        // `SwitchedNetwork::new` checks every link index fits in a `u32`.
        if path.len() <= ROUTE_INLINE {
            let mut links = [0; ROUTE_INLINE];
            for (slot, link) in links.iter_mut().zip(path) {
                *slot = link.index() as u32;
            }
            Route::Inline { len: path.len() as u8, links }
        } else {
            Route::Spilled(path.iter().map(|link| link.index() as u32).collect())
        }
    }

    fn links(&self) -> &[u32] {
        match self {
            Route::Inline { len, links } => &links[..usize::from(*len)],
            Route::Spilled(links) => links,
        }
    }
}

/// A packet in the link queues, in its slab slot.
#[derive(Debug, Clone, PartialEq)]
struct Transit {
    packet: Packet,
    route: Route,
    /// Index in `route` of the link whose queue holds the packet.
    hop: usize,
    vc: usize,
    ready_at: Time,
    /// Fault-plane delay jitter still to be applied, consumed the first
    /// time the packet reaches a queue head.
    jitter: u64,
}

/// The slab index of no slot: the end of a FIFO or of the free list.
const NIL: u32 = u32::MAX;

/// One `(link, vc)` FIFO: its first and last slab slots, chained through
/// [`SwitchedNetwork`]'s `next`, and how many slots the chain holds.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo { head: NIL, tail: NIL, len: 0 };
}

/// Cycles the visit ring spans: a visit filed fewer than `RING` cycles
/// out is a bit in its cycle's bitmap, one filed further out waits in
/// the overflow heap.
const RING: u64 = 8;

/// The link schedule's filed visits (module docs): a ring of per-cycle
/// link bitmaps, slot `cycle % RING`, and an overflow heap.
#[derive(Debug, Clone)]
struct VisitRing {
    /// `u64` words per bitmap, a bit per link.
    words: usize,
    /// Summary words per bitmap, a bit per bitmap word.
    sums: usize,
    /// `RING` bitmaps of `words` words each.
    bits: Vec<u64>,
    /// `RING` summaries of `sums` words each: a bit is set exactly when
    /// its bitmap word is non-zero.
    summary: Vec<u64>,
    /// A bit per ring slot holding a visit.
    occupied: u8,
    /// Visits filed `RING` or more cycles out, by `(cycle, link)`.
    overflow: BinaryHeap<Reverse<(Time, u32)>>,
}

impl VisitRing {
    fn new(links: usize) -> Self {
        let words = links.div_ceil(64);
        let sums = words.div_ceil(64);
        VisitRing {
            words,
            sums,
            bits: vec![0; RING as usize * words],
            summary: vec![0; RING as usize * sums],
            occupied: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.occupied == 0 && self.overflow.is_empty()
    }

    fn clear(&mut self) {
        self.bits.fill(0);
        self.summary.fill(0);
        self.occupied = 0;
        self.overflow.clear();
    }

    /// File a visit to link `li` at `cycle`, which is no earlier than
    /// `now`.
    fn file(&mut self, now: Time, cycle: Time, li: usize) {
        debug_assert!(cycle >= now, "a visit filed in the past");
        if cycle.since(now) >= RING {
            self.overflow.push(Reverse((cycle, li as u32)));
            return;
        }
        let slot = (cycle.cycles() % RING) as usize;
        let word = li / 64;
        self.bits[slot * self.words + word] |= 1 << (li % 64);
        self.summary[slot * self.sums + word / 64] |= 1 << (word % 64);
        self.occupied |= 1 << slot;
    }

    /// Move the overflow visits that `now` brings within the ring into
    /// their bitmaps.
    fn refill(&mut self, now: Time) {
        while let Some(&Reverse((cycle, li))) = self.overflow.peek() {
            if cycle.since(now) >= RING {
                break;
            }
            self.overflow.pop();
            self.file(now, cycle, li as usize);
        }
    }

    /// Clear and return the lowest link at or above `from` filed for
    /// `now`.
    fn take_from(&mut self, now: Time, from: usize) -> Option<usize> {
        let slot = (now.cycles() % RING) as usize;
        let bits = &mut self.bits[slot * self.words..][..self.words];
        let summary = &mut self.summary[slot * self.sums..][..self.sums];
        let mut word = from / 64;
        let mut set = bits.get(word)? & (!0u64 << (from % 64));
        if set == 0 {
            // The summary names the next non-zero word.
            let after = word + 1;
            let mut sum = after / 64;
            let mut nonzero = summary.get(sum)? & (!0u64 << (after % 64));
            while nonzero == 0 {
                sum += 1;
                nonzero = *summary.get(sum)?;
            }
            word = sum * 64 + nonzero.trailing_zeros() as usize;
            set = bits[word];
        }
        let bit = set.trailing_zeros() as usize;
        bits[word] &= !(1 << bit);
        if bits[word] == 0 {
            summary[word / 64] &= !(1 << (word % 64));
        }
        Some(word * 64 + bit)
    }

    /// The scan of `now` took every bit of its bitmap.
    fn end_scan(&mut self, now: Time) {
        self.occupied &= !(1 << (now.cycles() % RING));
    }

    /// Whether a visit to `li` is filed at `cycle` (`now` between scans).
    #[cfg(any(test, debug_assertions))]
    fn is_filed(&self, now: Time, cycle: Time, li: usize) -> bool {
        if cycle.since(now) >= RING {
            return self.overflow.iter().any(|v| v.0 == (cycle, li as u32));
        }
        let slot = (cycle.cycles() % RING) as usize;
        self.bits[slot * self.words + li / 64] & 1 << (li % 64) != 0
    }

    /// Ring invariants between scans at `now`: `now`'s bitmap is taken,
    /// the summaries and `occupied` match the bitmaps, and the overflow
    /// heap holds only visits beyond the ring.
    #[cfg(any(test, debug_assertions))]
    fn check(&self, now: Time) {
        for slot in 0..RING as usize {
            let bits = &self.bits[slot * self.words..][..self.words];
            let summary = &self.summary[slot * self.sums..][..self.sums];
            for (word, &set) in bits.iter().enumerate() {
                assert_eq!(summary[word / 64] >> (word % 64) & 1 == 1, set != 0, "slot {slot} word {word}: summary");
            }
            let filed = bits.iter().any(|&set| set != 0);
            assert_eq!(self.occupied >> slot & 1 == 1, filed, "slot {slot}: occupied mask");
        }
        assert_eq!(self.occupied >> (now.cycles() % RING) & 1, 0, "a filed visit was skipped");
        assert!(
            self.overflow.iter().all(|Reverse((cycle, _))| cycle.since(now) >= RING),
            "an overflow visit missed the ring"
        );
    }
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
    // The link queues (module docs): queued transits in `slab` (`None`
    // is a free slot), one FIFO per (link, virtual channel), link-major
    // (`li * vcs + vc`), threading its slots through `next`, as does the
    // free list from `free`. The physical link serves its VC heads
    // round-robin from `rr[li]`, one packet movement per cycle.
    slab: Vec<Option<Transit>>,
    next: Vec<u32>,
    free: u32,
    fifos: Vec<Fifo>,
    rr: Vec<usize>,
    // The route of the packet being injected, reused across packets.
    path: Vec<LinkId>,
    rx: RxQueues,
    now: Time,
    pair_seq: PairMap<u64>,
    in_flight: usize,
    last_progress: Time,
    stats: NetStats,
    rng: SimRng,
    faults: FaultSchedule,
    // The link schedule (module docs): the visits still to make.
    ring: VisitRing,
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
fn wake_waiters(waiters: &mut Vec<usize>, ring: &mut VisitRing, now: Time, cursor: usize) {
    for li in waiters.drain(..) {
        let cycle = if li > cursor { now } else { now + 1 };
        ring.file(now, cycle, li);
    }
}

impl<T: Topology> SwitchedNetwork<T> {
    /// Build a network over `topo` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `link_latency`, `link_queue_capacity`,
    /// `rx_queue_capacity` or `virtual_channels` is zero, or if the
    /// topology has `u32::MAX` links or more.
    pub fn new(topo: T, cfg: SwitchedConfig) -> Self {
        assert!(cfg.link_latency >= 1, "link latency must be at least 1 cycle");
        assert!(cfg.link_queue_capacity >= 1, "link queues must hold at least 1 packet");
        assert!(cfg.rx_queue_capacity >= 1, "rx queues must hold at least 1 packet");
        assert!(cfg.virtual_channels >= 1, "need at least one virtual channel");
        let links = topo.num_links();
        assert!(links < NIL as usize, "routes carry link indices as u32");
        // Empty `VecDeque`s and `Vec`s own no heap memory, so set-up
        // costs a handful of allocations, not one per link.
        let rx = RxQueues::new(topo.num_nodes());
        let node_waiters = vec![Vec::new(); topo.num_nodes()];
        let rng = SimRng::new(cfg.seed);
        let faults = FaultSchedule::new(cfg.fault.clone(), cfg.seed);
        SwitchedNetwork {
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            fifos: vec![Fifo::EMPTY; links * cfg.virtual_channels],
            rr: vec![0; links],
            path: Vec::with_capacity(topo.diameter()),
            rx,
            now: Time::ZERO,
            pair_seq: PairMap::default(),
            in_flight: 0,
            last_progress: Time::ZERO,
            stats: NetStats::new(),
            rng,
            faults,
            ring: VisitRing::new(links),
            link_waiters: vec![Vec::new(); links],
            node_waiters,
            cursor: NO_SCAN,
            visits: 0,
            moves: 0,
            bound_counts: [0; BOUND_SLOTS as usize],
            bound_mask: 0,
            overdue: 0,
            topo,
            cfg,
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
        for fifo in &mut self.fifos {
            let mut slot = fifo.head;
            while let Some(entry) = self.slab.get_mut(slot as usize) {
                transits.extend(entry.take());
                slot = self.next[slot as usize];
            }
            *fifo = Fifo::EMPTY;
        }
        // Every slot is free, and no queue has a head any more, so
        // nothing is left to schedule.
        self.slab.clear();
        self.next.clear();
        self.free = NIL;
        self.ring.clear();
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
            let links = transit.route.links();
            let li = links[transit.hop] as usize;
            let ahead = links.len() - transit.hop;
            transit.ready_at = if self.queue_len(li, transit.vc) == 0 {
                self.now + self.cfg.link_latency
            } else {
                NOT_HEAD
            };
            self.file_bound(ahead);
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
        self.rx.has_woken()
    }

    fn fifo_index(&self, li: usize, vc: usize) -> usize {
        li * self.cfg.virtual_channels + vc
    }

    fn queue_len(&self, li: usize, vc: usize) -> usize {
        self.fifos[self.fifo_index(li, vc)].len as usize
    }

    /// The transit in slab slot `slot` (`None` for `NIL` or a free slot).
    fn transit(&self, slot: u32) -> Option<&Transit> {
        self.slab.get(slot as usize)?.as_ref()
    }

    fn transit_mut(&mut self, slot: u32) -> Option<&mut Transit> {
        self.slab.get_mut(slot as usize)?.as_mut()
    }

    /// The head of `(li, vc)`'s queue.
    fn head(&self, li: usize, vc: usize) -> Option<&Transit> {
        self.transit(self.fifos[self.fifo_index(li, vc)].head)
    }

    fn occupancy(&self, li: usize) -> usize {
        let vcs = self.cfg.virtual_channels;
        self.fifos[li * vcs..(li + 1) * vcs].iter().map(|f| f.len as usize).sum()
    }

    /// Put `transit` in a free slab slot (the most recently freed one),
    /// growing the slab only when none is free.
    fn store(&mut self, transit: Transit) -> u32 {
        let slot = self.free;
        if let Some(entry) = self.slab.get_mut(slot as usize) {
            self.free = self.next[slot as usize];
            *entry = Some(transit);
            slot
        } else {
            self.slab.push(Some(transit));
            self.next.push(NIL);
            (self.slab.len() - 1) as u32
        }
    }

    /// Take the transit out of `slot`, putting the slot on the free list.
    fn release(&mut self, slot: u32) -> Option<Transit> {
        let transit = self.slab.get_mut(slot as usize)?.take();
        self.next[slot as usize] = self.free;
        self.free = slot;
        transit
    }

    /// Append `transit` to its queue on link `li`.
    fn enqueue(&mut self, li: usize, transit: Transit) {
        let (vc, ready_at) = (transit.vc, transit.ready_at);
        let slot = self.store(transit);
        self.link_back(li, vc, slot, ready_at);
    }

    /// Link `slot` onto the tail of `(li, vc)`'s queue. A finite
    /// `ready_at` says the queue was empty and the packet is its head at
    /// once, so its visit is filed (source 1).
    fn link_back(&mut self, li: usize, vc: usize, slot: u32, ready_at: Time) {
        if ready_at != NOT_HEAD {
            self.ring.file(self.now, ready_at, li);
        }
        self.next[slot as usize] = NIL;
        let q = self.fifo_index(li, vc);
        let fifo = &mut self.fifos[q];
        if fifo.tail == NIL {
            fifo.head = slot;
        } else {
            self.next[fifo.tail as usize] = slot;
        }
        fifo.tail = slot;
        fifo.len += 1;
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

    /// Route `src -> dst` into `self.path`.
    fn choose_path(&mut self, src: NodeId, dst: NodeId) {
        match self.cfg.strategy {
            RouteStrategy::Deterministic => self.topo.canonical_path(src, dst, &mut self.path),
            RouteStrategy::Adaptive { candidates } => {
                let cands = {
                    let mut f = rng_fn(&mut self.rng);
                    self.topo.candidate_paths(src, dst, &mut f, candidates.max(1))
                };
                self.path = cands
                    .into_iter()
                    .min_by_key(|p| {
                        p.iter()
                            .map(|l| self.occupancy(l.index()))
                            .sum::<usize>()
                    })
                    .expect("candidate_paths returns at least one path");
            }
            RouteStrategy::Randomized { candidates } => {
                let mut cands = {
                    let mut f = rng_fn(&mut self.rng);
                    self.topo.candidate_paths(src, dst, &mut f, candidates.max(1))
                };
                let pick = self.rng.gen_index(cands.len());
                self.path = cands.swap_remove(pick);
            }
        }
    }

    /// Route `src -> dst` into `self.path` and pick the virtual channel:
    /// the channel, if the route's first-hop queue on it has room.
    fn first_hop(&mut self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.choose_path(src, dst);
        // Hardware assigns the virtual channel; software has no say.
        let vc = if self.cfg.virtual_channels == 1 {
            0
        } else {
            self.rng.gen_index(self.cfg.virtual_channels)
        };
        (self.queue_len(self.path[0].index(), vc) < self.cfg.link_queue_capacity).then_some(vc)
    }

    /// Put one packet (already stamped and counted) on virtual channel
    /// `vc` of the first hop of the route in `self.path`, `jitter` cycles
    /// of fault-plane delay ahead of it.
    fn enter(&mut self, vc: usize, packet: Packet, jitter: u64) {
        let first = self.path[0].index();
        let (ready_at, jitter) = if self.queue_len(first, vc) == 0 {
            (self.now + self.cfg.link_latency + jitter, 0)
        } else {
            (NOT_HEAD, jitter)
        };
        self.file_bound(self.path.len());
        let route = Route::new(&self.path);
        self.enqueue(first, Transit { packet, route, hop: 0, vc, ready_at, jitter });
    }

    /// Put one packet (already stamped and counted) onto the first hop
    /// of a freshly chosen path, or hand it back if that queue is full.
    fn enqueue_on_path(&mut self, packet: Packet, jitter: u64) -> Result<(), Packet> {
        match self.first_hop(packet.src(), packet.dst()) {
            Some(vc) => {
                self.enter(vc, packet, jitter);
                Ok(())
            }
            None => Err(packet),
        }
    }

    fn deliver(&mut self, packet: Packet) {
        self.in_flight -= 1;
        // A packet leaves the last link at or after its bound.
        self.overdue -= 1;
        self.last_progress = self.now;
        if packet.is_corrupted() {
            // CRC check at the receiving NI: detect and discard.
            self.stats.dropped_corrupt += 1;
            return;
        }
        self.rx.land(packet, self.now, &mut self.stats);
    }

    fn step(&mut self) {
        #[cfg(debug_assertions)]
        let was_busy = self.in_flight > 0;
        self.tick();
        self.ring.refill(self.now);
        self.release_due_holds();
        // Every visit due this cycle, in ascending link order — the
        // order the full scan reaches them. A wake filed for this cycle
        // mid-scan (cursor rule) is a bit ahead of the cursor, taken in
        // turn; an idle cycle is one empty bitmap.
        let mut from = 0;
        while let Some(li) = self.ring.take_from(self.now, from) {
            self.cursor = li;
            self.visit(li);
            from = li + 1;
        }
        self.ring.end_scan(self.now);
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
    /// every slab slot is on exactly one FIFO or the free list; and
    /// every queued packet is counted once by the arrival bounds, in
    /// the ring or as overdue. Holds whenever no scan is running.
    #[cfg(any(test, debug_assertions))]
    fn check_schedule(&self) {
        self.ring.check(self.now);
        let vcs = self.cfg.virtual_channels;
        let mut seen = vec![false; self.slab.len()];
        let mut mark = |slot: u32| {
            let first = seen.get_mut(slot as usize).map(|seen| !std::mem::replace(seen, true));
            assert_eq!(first, Some(true), "slot {slot} is on more than one chain");
        };
        let mut queued = 0;
        for (q, fifo) in self.fifos.iter().enumerate() {
            let (mut slot, mut last, mut len) = (fifo.head, NIL, 0);
            while slot != NIL {
                mark(slot);
                assert!(self.transit(slot).is_some(), "queue {q}: slot {slot} is free");
                (last, slot, len) = (slot, self.next[slot as usize], len + 1);
            }
            assert_eq!((last, len), (fifo.tail, fifo.len), "queue {q}: tail and length");
            queued += len as usize;
            let Some(head) = self.transit(fifo.head) else { continue };
            let (li, vc) = (q / vcs, q % vcs);
            assert_ne!(head.ready_at, NOT_HEAD, "link {li} vc {vc}: head never promoted");
            if head.ready_at > self.now {
                assert!(self.ring.is_filed(self.now, head.ready_at, li), "link {li} vc {vc}: no visit at ready_at");
                continue;
            }
            let waiting = match head.route.links().get(head.hop + 1) {
                None => {
                    let dst = head.packet.dst();
                    let full = self.rx.pending(dst) >= self.cfg.rx_queue_capacity;
                    !head.packet.is_corrupted() && full && self.node_waiters[dst.index()].contains(&li)
                }
                Some(&next) if next as usize == li => continue, // never movable: nothing to wait for
                Some(&next) => {
                    let next = next as usize;
                    let full = self.queue_len(next, vc) >= self.cfg.link_queue_capacity;
                    full && self.link_waiters[next].contains(&li)
                }
            };
            assert!(
                waiting || self.ring.is_filed(self.now, self.now + 1, li),
                "link {li} vc {vc}: ready head neither waiting on its blocker nor due next cycle"
            );
        }
        let mut slot = self.free;
        while slot != NIL {
            mark(slot);
            assert!(self.transit(slot).is_none(), "free slot {slot} holds a transit");
            slot = self.next[slot as usize];
        }
        assert!(seen.iter().all(|&s| s), "a slab slot is on no chain");
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
        self.ring.clear();
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
                        let head = self.head(li, (start + j) % vcs);
                        head.is_some_and(|h| h.ready_at <= now)
                    });
                    if ready_behind {
                        self.ring.file(now, now + 1, li);
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
        let now = self.now;
        let Some(head) = self.head(li, vc) else {
            return Head::Idle;
        };
        if head.ready_at > now {
            return Head::Idle;
        }
        match head.route.links().get(head.hop + 1) {
            None => {
                let dst = head.packet.dst();
                if !head.packet.is_corrupted() && self.rx.pending(dst) >= self.cfg.rx_queue_capacity {
                    return Head::RxFull(dst.index()); // block in place
                }
                let slot = self.pop_head(li, vc);
                if let Some(transit) = self.release(slot) {
                    self.deliver(transit.packet);
                }
            }
            Some(&next) => {
                let next = next as usize;
                if next == li {
                    return Head::Idle;
                }
                let queued = self.queue_len(next, vc);
                if queued >= self.cfg.link_queue_capacity {
                    return Head::LinkFull(next);
                }
                let ready_at = if queued == 0 { now + self.cfg.link_latency } else { NOT_HEAD };
                let slot = self.pop_head(li, vc);
                if let Some(transit) = self.transit_mut(slot) {
                    transit.hop += 1;
                    transit.ready_at = ready_at;
                }
                self.link_back(next, vc, slot, ready_at);
                self.last_progress = now;
            }
        }
        Head::Moved
    }

    /// Unlink the head slot of `(li, vc)`'s non-empty queue: the packet
    /// behind it is promoted (source 1, jitter included) and the links
    /// blocked on this one are woken (source 2).
    fn pop_head(&mut self, li: usize, vc: usize) -> u32 {
        let (now, latency) = (self.now, self.cfg.link_latency);
        let q = self.fifo_index(li, vc);
        let fifo = &mut self.fifos[q];
        let slot = fifo.head;
        fifo.head = self.next[slot as usize];
        if fifo.head == NIL {
            fifo.tail = NIL;
        }
        fifo.len -= 1;
        let new_head = fifo.head;
        let promoted = self.transit_mut(new_head).map(|head| {
            if head.ready_at == NOT_HEAD {
                head.ready_at = now + latency + head.jitter;
                head.jitter = 0;
            }
            head.ready_at
        });
        if let Some(ready_at) = promoted {
            self.ring.file(now, ready_at, li);
        }
        wake_waiters(&mut self.link_waiters[li], &mut self.ring, now, self.cursor);
        slot
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
            match self.enqueue_on_path(packet, 0) {
                Ok(()) => self.last_progress = now,
                Err(packet) => self.faults.hold_again(packet, now),
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
            if self.in_flight == 0 && self.ring.is_empty() {
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
        check_endpoints(&packet, self.num_nodes())?;
        let (src, dst) = (packet.src(), packet.dst());
        if src == dst {
            let cap = self.cfg.rx_queue_capacity;
            return self.rx.loopback(packet, cap, &mut self.pair_seq, self.now, &mut self.stats);
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
            stamp_next(self.pair_seq.entry((src, dst)).or_insert(0), &mut packet, self.now);
            self.stats.injected += 1;
            self.in_flight += 1;
            self.last_progress = self.now;
            self.faults.hold(packet, self.now);
            return Ok(());
        }

        let Some(vc) = self.first_hop(src, dst) else {
            self.stats.backpressure += 1;
            return Err(InjectError::Backpressure);
        };

        stamp_next(self.pair_seq.entry((src, dst)).or_insert(0), &mut packet, self.now);
        let duplicate = faults.duplicate.then(|| packet.clone());
        if faults.corrupt {
            packet.corrupt();
        }
        self.enter(vc, packet, faults.extra_delay);
        self.in_flight += 1;
        self.stats.injected += 1;
        self.last_progress = self.now;

        // Link-level retry duplication: a second, identical copy enters
        // on its own (freshly routed) path with its own pair sequence,
        // if the fabric has room for it.
        if let Some(mut dup) = duplicate {
            if let Some(vc) = self.first_hop(src, dst) {
                stamp_next(self.pair_seq.entry((src, dst)).or_insert(0), &mut dup, self.now);
                self.enter(vc, dup, 0);
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
        self.rx.peek(node)
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        let packet = self.rx.pop(node)?;
        // Source 3: the receive queue gained a slot.
        wake_waiters(&mut self.node_waiters[node.index()], &mut self.ring, self.now, self.cursor);
        Some(packet)
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        self.rx.pending(node)
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
        self.rx.take_woken()
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
        Packet::new(n(src), n(dst), 1, seq, &[seq; 4])
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
        assert!(net.ring.is_empty(), "a drained network has no visit left to make");
    }

    /// Everything the full scan and the schedule must agree on.
    fn assert_same<T: Topology>(net: &SwitchedNetwork<T>, oracle: &SwitchedNetwork<T>, what: &str) {
        assert!(queued(net) == queued(oracle), "{what}: link queues");
        assert_eq!(net.rr, oracle.rr, "{what}: round-robin pointers");
        assert_eq!(net.rx, oracle.rx, "{what}: receive queues and wake marks");
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

    /// Every link queue's transits, head first, queue by queue.
    fn queued<T: Topology>(net: &SwitchedNetwork<T>) -> Vec<Vec<&Transit>> {
        let queue = |fifo: &Fifo| {
            let mut transits = Vec::new();
            let mut slot = fifo.head;
            while let Some(transit) = net.transit(slot) {
                transits.push(transit);
                slot = net.next[slot as usize];
            }
            transits
        };
        net.fifos.iter().map(queue).collect()
    }

    /// Receive-queue depths and marked wakes: what a delivery changes.
    fn arrivals<T: Topology>(net: &SwitchedNetwork<T>) -> (Vec<usize>, usize) {
        let depths = (0..net.num_nodes()).map(|i| net.rx.pending(NodeId::new(i))).collect();
        (depths, net.rx.clone().take_woken().len())
    }

    /// What one [`drive_against_full_scan`] run exercised.
    #[derive(Default)]
    struct Drive {
        /// Cycles promised quiet more than one cycle ahead.
        looked_ahead: u64,
        /// Whether a visit was filed beyond the ring, in the overflow heap.
        overflowed: bool,
        /// Whether `swap_in` filled a link queue past its capacity.
        over_capacity: bool,
    }

    /// Drive `net` by the schedule and a clone by the full scan through
    /// the same seeded traffic — bursts toward a few hot nodes, partial
    /// draining, multi-cycle advances, a swap-out/swap-in with every
    /// node injecting while the context is out — comparing after every
    /// cycle, and holding every cycle to the quiet bound: `promised` is
    /// the latest `quiet_until()` any reading since the last injection
    /// gave, and no receive queue may grow and no wake be marked on a
    /// cycle short of it.
    fn drive_against_full_scan<T: Topology + Clone>(mut net: SwitchedNetwork<T>, what: &str) -> Drive {
        let mut oracle = net.clone();
        let mut rng = SimRng::new(net.cfg.seed ^ 0xD1FF);
        let nodes = net.num_nodes();
        let hot = 1 + rng.gen_index(3);
        let mut promised = net.quiet_until();
        let mut drive = Drive::default();
        // Set outside `cycle`, which holds `drive`.
        let mut over_capacity = false;
        let mut cycle = |net: &mut SwitchedNetwork<T>, oracle: &mut SwitchedNetwork<T>, promised: &mut Time| {
            let before = arrivals(net);
            drive.overflowed |= !net.ring.overflow.is_empty();
            net.advance(1);
            drive.overflowed |= !net.ring.overflow.is_empty();
            oracle.step_full_scan();
            net.check_schedule();
            assert_same(net, oracle, what);
            if net.now() < *promised {
                assert_eq!(before, arrivals(net), "{what}: delivery at {}, promised quiet until {promised}", net.now());
                drive.looked_ahead += 1;
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
                // Refill the emptied first-hop queues, so the context
                // lands on queues already at capacity. Each node sends
                // to its nearest neighbour (one mesh hop, or up and down
                // one fat-tree switch): such a packet cannot close a
                // cycle of waits, which multipath routing on a mesh of
                // one-packet queues otherwise can.
                for src in 0..nodes {
                    let hops = |dst: usize| {
                        let mut path = Vec::new();
                        net.topo.canonical_path(n(src), n(dst), &mut path);
                        path.len()
                    };
                    let dst = (0..nodes).filter(|&dst| dst != src).min_by_key(|&dst| hops(dst)).unwrap_or(src);
                    let p = pkt(src, dst, 1000 + src as u32);
                    assert_eq!(net.try_inject(p.clone()), oracle.try_inject(p), "{what}: inject while swapped out");
                }
                promised = net.quiet_until();
                for _ in 0..3 {
                    cycle(&mut net, &mut oracle, &mut promised);
                }
                net.swap_in(ctx);
                oracle.swap_in(octx);
                net.check_schedule();
                assert_same(&net, &oracle, what);
                let capacity = net.cfg.link_queue_capacity;
                over_capacity |= net.fifos.iter().any(|fifo| fifo.len as usize > capacity);
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
        Drive { over_capacity, ..drive }
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
        let (mut runs, mut looked_ahead, mut overflowed, mut over_capacity) = (0, 0, 0, 0);
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
            for drive in [
                drive_against_full_scan(SwitchedNetwork::new(FatTree::new(2, 3, 2), cfg.clone()), &what),
                drive_against_full_scan(SwitchedNetwork::new(Mesh2D::new(3, 3), cfg), &what),
            ] {
                looked_ahead += drive.looked_ahead;
                overflowed += u32::from(drive.overflowed);
                over_capacity += u32::from(drive.over_capacity);
                runs += 1;
            }
        }
        // The bound has to say something: a run is ~100 busy cycles, and
        // an uncontended packet is promised its whole route.
        assert!(looked_ahead >= 10 * runs, "{looked_ahead} cycles promised quiet ahead of time over {runs} runs");
        // Jitter at latency 3 files visits past the ring; injecting while
        // the context is out makes `swap_in` overfill queues.
        assert!(overflowed > 0, "no run filed a visit into the overflow heap");
        assert!(over_capacity > 0, "no run's swap_in filled a queue past capacity");
    }

    #[test]
    fn a_route_longer_than_its_inline_slots_spills_and_delivers() {
        let far = ROUTE_INLINE + 5;
        let mut net = SwitchedNetwork::new(Mesh2D::new(far + 1, 1), SwitchedConfig::default());
        for s in 0..8 {
            while net.try_inject(pkt(0, far, s)).is_err() {
                net.advance(1);
            }
        }
        assert!(net.slab.iter().flatten().any(|t| matches!(t.route, Route::Spilled(_))), "a route spilled");
        assert!(net.drain(10_000));
        let got: Vec<u32> = drain_all(&mut net, n(far)).iter().map(Packet::header).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
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
