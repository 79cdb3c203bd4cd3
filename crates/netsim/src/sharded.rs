//! The parallel sharded substrate: many [`SwitchedNetwork`] shards
//! stepped by a worker pool behind one [`Network`] front.
//!
//! PR 7's self-profiling showed the readiness-driven scheduler spending
//! ~86% of its wall time in the single-threaded `substrate_step` phase
//! at 4096-node permutation. This module attacks that share by
//! partitioning the node space into contiguous *shards*, each a
//! self-contained [`SwitchedNetwork`] over its own fat tree with its own
//! clock, RNG streams, and fault plane. Intra-shard traffic never leaves
//! its shard; cross-shard traffic rides *bounded boundary queues* with a
//! fixed crossing latency.
//!
//! ## Why any thread count produces bit-identical results
//!
//! Two parameters are deliberately kept apart:
//!
//! * **`shards` is a model parameter.** Changing it changes the
//!   simulated machine (smaller subnets, boundary crossings) and
//!   therefore the results — exactly like changing a topology.
//! * **`threads` is an execution resource.** It must never change any
//!   observable result, and the design makes that structural rather
//!   than probabilistic: cross-shard packets are injected *only* by the
//!   (single-threaded) protocol layer between `advance` calls, and a
//!   packet in flight inside a shard can never emit into another shard.
//!   An `advance(n)` is therefore embarrassingly parallel — each worker
//!   steps whole shards to completion with no mid-advance exchanges —
//!   and the conservative-sync condition ("a shard may advance past `t`
//!   only once its neighbors' emissions for `t` are published") is
//!   satisfied trivially: all emissions for the window were published
//!   before the window began, with `cross_latency >= 1` as lookahead.
//!
//! The merge points are all deterministic: wake notifications are
//! reduced in ascending global node-id order, statistics are absorbed
//! shard-by-shard in index order, and restarts come from a single
//! global fault schedule. No result ever depends on which worker
//! stepped which shard first.
//!
//! With `shards == 1` the front delegates everything to the one subnet
//! (same seed, same ids, pass-through wake order), making it byte-for-
//! byte identical to a plain [`SwitchedNetwork`] — which is how the
//! scheduler-equivalence soak pins the sharded substrate against the
//! unsharded one.
//!
//! ## Example
//!
//! ```
//! use timego_netsim::{Network, NodeId, Packet, ShardedConfig, ShardedNetwork};
//!
//! // 16 nodes in 4 shards, stepped by 2 worker threads.
//! let mut net = ShardedNetwork::new(16, ShardedConfig {
//!     shards: 4,
//!     threads: 2,
//!     ..ShardedConfig::default()
//! });
//! // Node 1 and node 9 live in different shards: the packet crosses a
//! // boundary queue instead of a fat tree, but software can't tell.
//! net.try_inject(Packet::new(NodeId::new(1), NodeId::new(9), 7, 0, &[42])).unwrap();
//! net.drain(1_000);
//! let got = net.try_receive(NodeId::new(9)).expect("delivered");
//! assert_eq!(got.src(), NodeId::new(1));
//! assert_eq!(got.data(), &[42]);
//! ```

use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::fault::{FaultConfig, FaultSchedule};
use crate::id::NodeId;
use crate::network::{check_endpoints, stamp_next, Guarantees, InjectError, Network, RxMeta, RxQueues};
use crate::packet::Packet;
use crate::pair::PairMap;
use crate::rng::splitmix64;
use crate::stats::NetStats;
use crate::switched::{SwitchedConfig, SwitchedNetwork};
use crate::time::Time;
use crate::topology::FatTree;

/// Configuration for [`ShardedNetwork`].
///
/// `shards` changes the simulated machine; `threads` only changes how
/// fast the host steps it (results are identical for every thread
/// count — see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// Number of shards the node space is partitioned into (≥ 1). A
    /// *model* parameter: each shard is its own fat-tree subnet, and
    /// cross-shard traffic pays `cross_latency` instead of tree hops.
    /// `shards == 1` is exactly a plain [`SwitchedNetwork`].
    pub shards: usize,
    /// Worker threads stepping shards during [`Network::advance`]
    /// (≥ 1, clamped to `shards`). A pure *execution* parameter: every
    /// thread count produces bit-identical results. The calling thread
    /// participates as one of the workers, so `threads == 1` spawns no
    /// OS threads at all.
    pub threads: usize,
    /// Cycles a cross-shard packet spends in its boundary queue before
    /// delivery (≥ 1) — the conservative-sync lookahead. Stands in for
    /// the fat-tree hops the packet no longer takes.
    pub cross_latency: u64,
    /// Template configuration for each shard's subnet. Probabilistic
    /// faults apply per shard (independent derived RNG streams);
    /// outage/crash windows are routed to the shard owning their node;
    /// the same faults also govern the boundary path under global ids.
    pub switched: SwitchedConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            threads: 1,
            cross_latency: 8,
            switched: SwitchedConfig::default(),
        }
    }
}

/// One shard: a subnet over shard-local node ids plus the boundary
/// ingress machinery feeding it cross-shard traffic.
#[derive(Debug)]
struct ShardCell {
    /// The shard's own switched network, routing over local ids
    /// `0..len` (its fat tree may be larger; the excess ports idle).
    subnet: SwitchedNetwork<FatTree>,
    /// First global node id of this shard.
    base: usize,
    /// Cross-shard packets in transit to this shard, keyed by absolute
    /// due cycle. Values preserve engine injection order, so delivery
    /// order within a cycle is deterministic.
    ingress: BTreeMap<u64, VecDeque<Packet>>,
    /// Total packets in `ingress`.
    ingress_len: usize,
    /// Per local node: boundary packets accepted but not yet received
    /// by software (calendar + `brx`). Bounds boundary buffering: when
    /// it reaches the rx capacity, further cross-shard injections to
    /// that node backpressure.
    pending_to: Vec<usize>,
    /// Boundary receive queues and their wake marks, one per local node
    /// (the subnet keeps its own for intra-shard deliveries). Drained
    /// *before* the subnet's rx queues (fixed priority, so receive order
    /// never depends on timing).
    brx: RxQueues,
    /// Statistics for the boundary deliveries this shard performed,
    /// under **global** node ids.
    ingress_stats: NetStats,
    /// Test-only step hook: wait at the barrier, then panic if the flag
    /// is set — a worker that dies mid-step, at a known moment.
    #[cfg(test)]
    hook: Option<(Arc<std::sync::Barrier>, bool)>,
}

/// Shared state between the front and its workers.
#[derive(Debug)]
struct Pool {
    cells: Vec<Mutex<ShardCell>>,
    ctl: Mutex<Ctl>,
    /// Signals workers that a new advance window was dispatched.
    work: Condvar,
    /// Signals the front that the last claimed shard finished.
    done: Condvar,
}

#[derive(Debug)]
struct Ctl {
    /// Next unclaimed shard index of the current window (`== cells.len()`
    /// when nothing is claimable).
    next: usize,
    /// Shards claimed but not yet finished this window.
    remaining: usize,
    /// Cycles to step each shard this window.
    cycles: u64,
    /// What the shards finished so far this window left behind.
    seen: Readback,
    /// A shard whose step panicked. Sticky: its cell lock is poisoned
    /// and its state half-stepped, so no later window can run either.
    failed: Option<usize>,
    shutdown: bool,
}

/// What an advance window left behind in the shards and the engine
/// polls, reduced as each shard finishes — a sum, an or and a minimum,
/// so the order workers finish in cannot show.
#[derive(Debug, Clone, Copy)]
struct Readback {
    /// Packets inside subnets and on ingress calendars.
    in_flight: usize,
    /// Whether any shard holds a wake mark not yet taken.
    woke: bool,
    /// The earliest cycle any shard's receive queues can gain a packet:
    /// its subnet's [`Network::quiet_until`] or the first key of its
    /// ingress calendar (`u64::MAX` with nothing in transit).
    quiet: u64,
}

impl Readback {
    const NOTHING: Readback = Readback { in_flight: 0, woke: false, quiet: u64::MAX };

    fn absorb(&mut self, shard: Readback) {
        self.in_flight += shard.in_flight;
        self.woke |= shard.woke;
        self.quiet = self.quiet.min(shard.quiet);
    }
}

/// A [`SwitchedNetwork`] sharded across worker threads — see the
/// [module docs](self) for the design and the determinism argument.
///
/// Implements [`Network`] over **global** node ids; internally each
/// shard routes over local ids and every packet crossing the front is
/// remapped, so software never observes the partitioning.
///
/// The aggregate [`stats`](Network::stats) carry exact scalar counters,
/// order verdicts, latency histograms and the per-node occupancy table
/// (under global ids) reduced over all shards. A node's receive-depth
/// high-water mark is that of its fuller queue, boundary or subnet.
pub struct ShardedNetwork {
    nodes: usize,
    threads: usize,
    cross_latency: u64,
    boundary_capacity: usize,
    shard_of: Vec<usize>,
    base: Vec<usize>,
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
    now: Time,
    pair_seq: PairMap<u64>,
    /// The full fault mix under global ids: decides cross-shard packet
    /// fates and answers all restart queries. Engine-thread only.
    boundary_faults: FaultSchedule,
    /// Boundary-path injection-side counters (global ids).
    boundary_stats: NetStats,
    /// The aggregate statistics, merged on demand: nothing reads them
    /// before a run ends, so [`stats`](Network::stats) fills the cell
    /// and the entry points that can move a counter (`advance`,
    /// `try_inject`) empty it.
    merged: OnceCell<NetStats>,
    /// The in-flight total, kept eagerly: the engine reads it every pump.
    in_flight_cache: usize,
    /// Whether some shard may hold a wake mark that
    /// [`take_delivered`](Network::take_delivered) has not collected.
    wakes_pending: bool,
    /// No shard's receive queues can gain a packet before this cycle
    /// ([`Readback::quiet`]): read back by `advance`, lowered by every
    /// injection that files something earlier.
    quiet: u64,
}

fn fat_tree_for(nodes: usize) -> FatTree {
    let mut levels = 1u32;
    while 4usize.pow(levels) < nodes {
        levels += 1;
    }
    FatTree::new(4, levels as usize, 2)
}

/// Derive shard `s`'s subnet seed. With one shard the template seed is
/// used untouched (exact identity with the unsharded substrate); with
/// more, each shard gets a decorrelated stream.
fn shard_seed(seed: u64, shard: usize, shards: usize) -> u64 {
    if shards == 1 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(0x5AAD_ED00 ^ shard as u64))
    }
}

/// Restrict a fault mix to one shard: probabilistic faults copy (each
/// shard draws from its own stream), scripted windows are kept only for
/// nodes the shard owns and remapped to local ids.
fn shard_fault(cfg: &FaultConfig, base: usize, len: usize) -> FaultConfig {
    let owns = |n: NodeId| n.index() >= base && n.index() < base + len;
    FaultConfig {
        outages: cfg
            .outages
            .iter()
            .filter(|w| owns(w.node))
            .map(|w| crate::fault::OutageWindow { node: NodeId::new(w.node.index() - base), ..*w })
            .collect(),
        crashes: cfg
            .crashes
            .iter()
            .filter(|w| owns(w.node))
            .map(|w| crate::fault::CrashWindow { node: NodeId::new(w.node.index() - base), ..*w })
            .collect(),
        ..cfg.clone()
    }
}

/// Step one shard through `cycles` cycles: advance the subnet, and
/// deliver every boundary packet on the cycle it comes due, in due-cycle
/// order and injection order within a cycle. The subnet and the boundary
/// path share nothing, so the subnet is handed the whole stretch to the
/// next due crossing at once — a shard with nothing in transit costs
/// clock arithmetic. Runs on worker threads; touches nothing outside the
/// cell, and says what the front would otherwise lock it again to read.
fn step_cell(cell: &mut ShardCell, cycles: u64) -> Readback {
    #[cfg(test)]
    if let Some((barrier, panics)) = &cell.hook {
        barrier.wait();
        assert!(!panics, "test hook: the shard step panics");
    }
    let end = cell.subnet.now().cycles() + cycles;
    loop {
        let now = cell.subnet.now();
        // Calendar keys are always ahead of the clock.
        let next = cell.ingress.first_key_value().map_or(end, |(&due, _)| due.min(end));
        cell.subnet.advance(next - now.cycles());
        if let Some(batch) = cell.ingress.remove(&next) {
            for packet in batch {
                deliver_boundary(cell, packet, cell.subnet.now());
            }
        }
        if next == end {
            break;
        }
    }
    let crossing = cell.ingress.first_key_value().map_or(u64::MAX, |(&due, _)| due);
    Readback {
        in_flight: cell.subnet.in_flight() + cell.ingress_len,
        woke: cell.subnet.has_delivered() || cell.brx.has_woken(),
        quiet: cell.subnet.quiet_until().cycles().min(crossing),
    }
}

/// Complete one boundary delivery: CRC-drop corrupted packets at the
/// receiving NI, otherwise land it in the node's boundary rx queue.
/// `pending_to` already counts the packet; a corrupt drop releases it
/// here, a delivery releases it when software receives.
fn deliver_boundary(cell: &mut ShardCell, packet: Packet, now: Time) {
    cell.ingress_len -= 1;
    let local = packet.dst().index() - cell.base;
    if packet.is_corrupted() {
        cell.pending_to[local] -= 1;
        cell.ingress_stats.dropped_corrupt += 1;
        return;
    }
    cell.brx.land_at(NodeId::new(local), packet, now, &mut cell.ingress_stats);
}

/// Claim the window's next shard, step it with the control lock
/// released, and report it back under the re-taken lock. Front and
/// workers alike step shards only through here.
fn step_next<'a>(pool: &'a Pool, mut ctl: MutexGuard<'a, Ctl>) -> MutexGuard<'a, Ctl> {
    let (shard, cycles) = (ctl.next, ctl.cycles);
    ctl.next += 1;
    drop(ctl);
    let unwinding = Unwinding { pool, shard };
    let readback = step_cell(&mut lock(&pool.cells[shard]), cycles);
    std::mem::forget(unwinding);
    let mut ctl = lock(&pool.ctl);
    ctl.seen.absorb(readback);
    ctl.finish_one(&pool.done);
    ctl
}

/// Armed across one shard step and dropped only if the step unwinds:
/// it reports the shard as failed and finished, so the front is not
/// left waiting on a shard nobody will finish and panics instead.
struct Unwinding<'a> {
    pool: &'a Pool,
    shard: usize,
}

impl Drop for Unwinding<'_> {
    fn drop(&mut self) {
        let mut ctl = self.pool.ctl.lock().unwrap_or_else(PoisonError::into_inner);
        ctl.failed.get_or_insert(self.shard);
        ctl.finish_one(&self.pool.done);
    }
}

impl Ctl {
    /// One claimed shard is done with; the last one wakes the front.
    fn finish_one(&mut self, done: &Condvar) {
        self.remaining -= 1;
        if self.remaining == 0 {
            done.notify_all();
        }
    }
}

fn worker_loop(pool: &Pool) {
    let mut ctl = lock(&pool.ctl);
    loop {
        if ctl.shutdown {
            return;
        }
        if ctl.next < pool.cells.len() {
            ctl = step_next(pool, ctl);
        } else {
            ctl = pool.work.wait(ctl).expect("pool lock poisoned");
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("pool lock poisoned")
}

impl ShardedNetwork {
    /// Build a sharded network over `nodes` nodes.
    ///
    /// Nodes are partitioned into `cfg.shards` contiguous ranges (as
    /// even as possible); each range gets a fat-tree subnet sized for
    /// it. `cfg.threads - 1` worker threads are spawned (the caller's
    /// thread is the remaining worker) and joined on drop.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `cfg.shards` is zero, `cfg.shards > nodes`,
    /// or `cfg.cross_latency` is zero.
    pub fn new(nodes: usize, cfg: ShardedConfig) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.shards <= nodes, "cannot have more shards than nodes");
        assert!(cfg.cross_latency >= 1, "boundary crossing takes at least 1 cycle");
        let shards = cfg.shards;
        let threads = cfg.threads.max(1).min(shards);

        let mut shard_of = Vec::with_capacity(nodes);
        let mut base = Vec::with_capacity(shards);
        let (q, r) = (nodes / shards, nodes % shards);
        let mut cells = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let len = q + usize::from(s < r);
            base.push(start);
            shard_of.extend(std::iter::repeat_n(s, len));
            let sub_cfg = SwitchedConfig {
                seed: shard_seed(cfg.switched.seed, s, shards),
                fault: if shards == 1 {
                    cfg.switched.fault.clone()
                } else {
                    shard_fault(&cfg.switched.fault, start, len)
                },
                ..cfg.switched.clone()
            };
            cells.push(Mutex::new(ShardCell {
                subnet: SwitchedNetwork::new(fat_tree_for(len), sub_cfg),
                base: start,
                ingress: BTreeMap::new(),
                ingress_len: 0,
                pending_to: vec![0; len],
                brx: RxQueues::new(len),
                ingress_stats: NetStats::new(),
                #[cfg(test)]
                hook: None,
            }));
            start += len;
        }

        let pool = Arc::new(Pool {
            cells,
            ctl: Mutex::new(Ctl {
                next: shards,
                remaining: 0,
                cycles: 0,
                seen: Readback::NOTHING,
                failed: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker_loop(&pool))
            })
            .collect();

        let boundary_faults = FaultSchedule::new(cfg.switched.fault.clone(), cfg.switched.seed);
        ShardedNetwork {
            nodes,
            threads,
            cross_latency: cfg.cross_latency,
            boundary_capacity: cfg.switched.rx_queue_capacity,
            shard_of,
            base,
            pool,
            workers,
            now: Time::ZERO,
            pair_seq: PairMap::default(),
            boundary_faults,
            boundary_stats: NetStats::new(),
            merged: OnceCell::new(),
            in_flight_cache: 0,
            wakes_pending: false,
            quiet: u64::MAX,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.pool.cells.len()
    }

    /// Worker threads stepping the shards (including the caller's).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shard owning global node `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()]
    }

    fn local(&self, node: NodeId) -> (usize, usize) {
        let s = self.shard_of[node.index()];
        (s, node.index() - self.base[s])
    }

    /// Compute the aggregate statistics. O(shards + nodes) — each shard
    /// contributes its counters, histograms and per-node rows in index
    /// order (a fixed reduction order, so the aggregate never depends on
    /// worker interleaving).
    fn merge_stats(&self) -> NetStats {
        let mut merged = NetStats::new();
        merged.absorb(&self.boundary_stats);
        for cell in &self.pool.cells {
            let cell = lock(cell);
            merged.absorb(cell.subnet.stats());
            merged.absorb(&cell.ingress_stats);
            merged.absorb_per_node(cell.subnet.stats(), cell.base);
            merged.absorb_per_node(&cell.ingress_stats, 0);
        }
        merged
    }

    /// Re-enter boundary packets the reorder fault released: they join
    /// their destination shard's ingress calendar a fresh crossing away.
    /// Like the unsharded substrate's held packets, they bypass the
    /// capacity check (conceptually they are already inside the fabric).
    fn release_boundary_holds(&mut self) {
        if self.boundary_faults.held_count() == 0 {
            return;
        }
        let now = self.now;
        for packet in self.boundary_faults.take_released(now) {
            let (ds, ldst) = self.local(packet.dst());
            let due = now.cycles() + self.cross_latency;
            self.quiet = self.quiet.min(due);
            let mut cell = lock(&self.pool.cells[ds]);
            cell.ingress.entry(due).or_default().push_back(packet);
            cell.ingress_len += 1;
            cell.pending_to[ldst] += 1;
        }
    }
}

impl Network for ShardedNetwork {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn now(&self) -> Time {
        self.now
    }

    fn advance(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.now += cycles;
        let mut seen = Readback::NOTHING;
        if self.workers.is_empty() {
            for cell in &self.pool.cells {
                seen.absorb(step_cell(&mut lock(cell), cycles));
            }
        } else {
            // The calling thread is worker 0: claim shards alongside
            // the spawned workers, then wait out the stragglers.
            let mut ctl = lock(&self.pool.ctl);
            ctl.next = 0;
            ctl.remaining = self.pool.cells.len();
            ctl.cycles = cycles;
            ctl.seen = Readback::NOTHING;
            self.pool.work.notify_all();
            loop {
                if ctl.next < self.pool.cells.len() {
                    ctl = step_next(&self.pool, ctl);
                } else if ctl.remaining > 0 {
                    ctl = self.pool.done.wait(ctl).expect("pool lock poisoned");
                } else {
                    break;
                }
            }
            seen = ctl.seen;
            let failed = ctl.failed;
            drop(ctl);
            if let Some(shard) = failed {
                panic!("ShardedNetwork::advance: a worker panicked stepping shard {shard}");
            }
        }
        // What the engine polls, as the window left it. A boundary hold
        // released below moves from held to in transit (the total stays)
        // and lowers the quiet bound itself.
        self.in_flight_cache = self.boundary_faults.held_count() + seen.in_flight;
        self.wakes_pending |= seen.woke;
        self.quiet = seen.quiet;
        self.release_boundary_holds();
        self.merged.take();
    }

    fn try_inject(&mut self, mut packet: Packet) -> Result<(), InjectError> {
        check_endpoints(&packet, self.nodes)?;
        let (src, dst) = (packet.src(), packet.dst());
        let (ss, lsrc) = self.local(src);
        let (ds, ldst) = self.local(dst);
        self.merged.take();

        if ss == ds {
            // Intra-shard (including loopback): the shard's subnet does
            // everything — routing, faults, stats — over local ids.
            packet.set_endpoints(NodeId::new(lsrc), NodeId::new(ldst));
            let mut cell = lock(&self.pool.cells[ss]);
            let before = cell.subnet.in_flight();
            let out = cell.subnet.try_inject(packet);
            // An injection only ever adds packets (the accepted one, a
            // duplicate); a loopback delivers, and marks its wake, at once.
            self.in_flight_cache += cell.subnet.in_flight() - before;
            self.wakes_pending |= cell.subnet.has_delivered();
            self.quiet = self.quiet.min(cell.subnet.quiet_until().cycles());
            return out;
        }

        // Cross-shard: the boundary path. Fault fate first (mirroring
        // the unsharded substrate, which draws faults before checking
        // capacity), under global ids so windows and probabilities read
        // exactly like the flat network's.
        let faults = self.boundary_faults.on_inject(src, dst, self.now, &mut self.boundary_stats);

        if faults.vanish {
            // Lost outright: software paid for a successful injection.
            self.boundary_stats.injected += 1;
            return Ok(());
        }

        if faults.hold {
            // Reorder burst: park it so later crossings overtake it.
            stamp_next(self.pair_seq.entry((src, dst)).or_insert(0), &mut packet, self.now);
            self.boundary_stats.injected += 1;
            self.boundary_faults.hold(packet, self.now);
            self.in_flight_cache += 1;
            return Ok(());
        }

        {
            let mut cell = lock(&self.pool.cells[ds]);
            if cell.pending_to[ldst] >= self.boundary_capacity {
                self.boundary_stats.backpressure += 1;
                return Err(InjectError::Backpressure);
            }

            stamp_next(self.pair_seq.entry((src, dst)).or_insert(0), &mut packet, self.now);
            let duplicate = faults.duplicate.then(|| packet.clone());
            if faults.corrupt {
                packet.corrupt();
            }
            let due = self.now.cycles() + self.cross_latency + faults.extra_delay;
            self.quiet = self.quiet.min(due);
            cell.ingress.entry(due).or_default().push_back(packet);
            cell.ingress_len += 1;
            cell.pending_to[ldst] += 1;
            self.boundary_stats.injected += 1;
            self.in_flight_cache += 1;

            // Link-level retry duplication: a second, identical copy
            // with its own pair sequence, if the boundary has room.
            if let Some(mut dup) = duplicate {
                if cell.pending_to[ldst] < self.boundary_capacity {
                    stamp_next(self.pair_seq.entry((src, dst)).or_insert(0), &mut dup, self.now);
                    let dup_due = self.now.cycles() + self.cross_latency;
                    self.quiet = self.quiet.min(dup_due);
                    cell.ingress.entry(dup_due).or_default().push_back(dup);
                    cell.ingress_len += 1;
                    cell.pending_to[ldst] += 1;
                    self.boundary_stats.duplicated += 1;
                    self.in_flight_cache += 1;
                }
            }
        }

        // Accepted traffic pushes reorder-held packets toward release
        // (held to in transit: the in-flight total does not move).
        self.boundary_faults.note_injection();
        self.release_boundary_holds();
        Ok(())
    }

    fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
        if node.index() >= self.nodes {
            return None;
        }
        let (s, local) = self.local(node);
        let base = self.base[s];
        let mut cell = lock(&self.pool.cells[s]);
        // Boundary queue first — a fixed priority, so what software
        // observes never depends on shard timing.
        if let Some(p) = cell.brx.pop(NodeId::new(local)) {
            cell.pending_to[local] -= 1;
            return Some(p);
        }
        cell.subnet.try_receive(NodeId::new(local)).map(|mut p| {
            let (ls, ld) = (p.src().index(), p.dst().index());
            p.set_endpoints(NodeId::new(base + ls), NodeId::new(base + ld));
            p
        })
    }

    fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
        if node.index() >= self.nodes {
            return None;
        }
        let (s, local) = self.local(node);
        let base = self.base[s];
        let mut cell = lock(&self.pool.cells[s]);
        let local = NodeId::new(local);
        cell.brx.peek(local).or_else(|| {
            let meta = cell.subnet.rx_peek(local)?;
            Some(RxMeta { src: NodeId::new(base + meta.src.index()), ..meta })
        })
    }

    fn rx_pending(&self, node: NodeId) -> usize {
        if node.index() >= self.nodes {
            return 0;
        }
        let (s, local) = self.local(node);
        let cell = lock(&self.pool.cells[s]);
        cell.brx.pending(NodeId::new(local)) + cell.subnet.rx_pending(NodeId::new(local))
    }

    fn in_flight(&self) -> usize {
        self.in_flight_cache
    }

    fn stats(&self) -> &NetStats {
        self.merged.get_or_init(|| self.merge_stats())
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees::RAW
    }

    fn restarts(&self, node: NodeId) -> u32 {
        self.boundary_faults.restarts(node, self.now)
    }

    fn restarts_hint(&self) -> u64 {
        self.boundary_faults.restarts_total(self.now)
    }

    fn next_restart_at(&self) -> Option<Time> {
        self.boundary_faults.next_restart_after(self.now)
    }

    fn quiet_until(&self) -> Time {
        // A boundary hold is released by traffic as well as by time.
        if self.boundary_faults.held_count() > 0 {
            return self.now + 1;
        }
        Time::from_cycles(self.quiet)
    }

    fn take_delivered(&mut self) -> Vec<NodeId> {
        // Called every pump, mostly with nothing to collect: skip the
        // locks unless some shard marked a wake since the last take.
        if !std::mem::take(&mut self.wakes_pending) {
            return Vec::new();
        }
        if self.pool.cells.len() == 1 {
            // Exact pass-through (boundary wake is necessarily empty):
            // the unsharded substrate's wake order, byte for byte.
            return lock(&self.pool.cells[0]).subnet.take_delivered();
        }
        let mut nodes = Vec::new();
        for (s, cell) in self.pool.cells.iter().enumerate() {
            let mut cell = lock(cell);
            let base = self.base[s];
            for n in cell.subnet.take_delivered() {
                nodes.push(NodeId::new(base + n.index()));
            }
            for n in cell.brx.take_woken() {
                nodes.push(NodeId::new(base + n.index()));
            }
        }
        // Canonical merge order: ascending global node id, independent
        // of shard iteration and worker interleaving alike.
        nodes.sort_unstable_by_key(|n| n.index());
        nodes.dedup();
        nodes
    }
}

impl Drop for ShardedNetwork {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        match self.pool.ctl.lock() {
            Ok(mut ctl) => ctl.shutdown = true,
            Err(poisoned) => poisoned.into_inner().shutdown = true,
        }
        self.pool.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ShardedNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNetwork")
            .field("nodes", &self.nodes)
            .field("shards", &self.pool.cells.len())
            .field("threads", &self.threads)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight_cache)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashWindow;
    use crate::switched::RouteStrategy;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pkt(src: usize, dst: usize, seq: u32) -> Packet {
        Packet::new(n(src), n(dst), 1, seq, &[seq; 4])
    }

    fn cfg(shards: usize, threads: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            threads,
            cross_latency: 4,
            switched: SwitchedConfig {
                rx_queue_capacity: 64,
                link_queue_capacity: 16,
                seed: 77,
                ..SwitchedConfig::default()
            },
        }
    }

    /// The lazily merged statistics and the eagerly kept in-flight total
    /// against a from-scratch reduction over the shards: a mutation
    /// that forgot to empty the cell, or to count a packet, shows here.
    fn assert_front_is_current(net: &ShardedNetwork) {
        let (lazy, eager) = (net.stats(), net.merge_stats());
        assert_eq!(lazy.to_string(), eager.to_string(), "stale merged stats");
        assert_eq!(
            (lazy.order.in_order(), lazy.order.out_of_order()),
            (eager.order.in_order(), eager.order.out_of_order()),
            "stale order verdicts"
        );
        let in_shards: usize = net
            .pool
            .cells
            .iter()
            .map(|cell| {
                let cell = lock(cell);
                cell.subnet.in_flight() + cell.ingress_len
            })
            .sum();
        assert_eq!(net.in_flight(), net.boundary_faults.held_count() + in_shards, "in-flight total");
        let quiet = net.pool.cells.iter().map(|cell| {
            let cell = lock(cell);
            let crossing = cell.ingress.first_key_value().map_or(u64::MAX, |(&due, _)| due);
            cell.subnet.quiet_until().cycles().min(crossing)
        });
        assert_eq!(net.quiet, quiet.min().expect("a shard"), "quiet bound");
    }

    #[test]
    fn cross_shard_traffic_delivers_with_global_ids() {
        let mut net = ShardedNetwork::new(16, cfg(4, 1));
        assert_eq!(net.shard_of(n(1)), 0);
        assert_eq!(net.shard_of(n(9)), 2);
        net.try_inject(pkt(1, 9, 5)).unwrap();
        assert_eq!(net.in_flight(), 1);
        assert!(net.drain(1_000));
        let got = net.try_receive(n(9)).expect("delivered");
        assert_eq!(got.src(), n(1));
        assert_eq!(got.dst(), n(9));
        assert_eq!(got.header(), 5);
        assert_eq!(net.stats().delivered, 1);
        assert!(net.stats().latency.mean() >= 4.0, "crossing pays cross_latency");
    }

    #[test]
    fn intra_shard_traffic_remaps_both_ways() {
        let mut net = ShardedNetwork::new(16, cfg(4, 1));
        // 12 and 15 both live in shard 3 (locals 0 and 3).
        net.try_inject(pkt(12, 15, 9)).unwrap();
        assert!(net.drain(1_000));
        let meta = net.rx_peek(n(15)).expect("peekable");
        assert_eq!(meta.src, n(12), "peek reports the global source");
        let got = net.try_receive(n(15)).expect("delivered");
        assert_eq!((got.src(), got.dst()), (n(12), n(15)));
    }

    #[test]
    fn single_shard_is_identical_to_plain_switched() {
        let template = SwitchedConfig {
            strategy: RouteStrategy::Adaptive { candidates: 4 },
            rx_queue_capacity: 64,
            link_queue_capacity: 16,
            seed: 99,
            fault: FaultConfig {
                duplicate_prob: 0.1,
                delay_jitter: 6,
                corruption_prob: 0.05,
                ..FaultConfig::default()
            },
            ..SwitchedConfig::default()
        };
        let mut flat = SwitchedNetwork::new(fat_tree_for(16), template.clone());
        let mut sharded = ShardedNetwork::new(
            16,
            ShardedConfig { shards: 1, threads: 1, cross_latency: 4, switched: template },
        );
        let mut flat_rx = Vec::new();
        let mut shard_rx = Vec::new();
        let mut flat_wakes = Vec::new();
        let mut shard_wakes = Vec::new();
        for s in 0..120u32 {
            let p = pkt((s as usize) % 8, 8 + (s as usize) % 8, s);
            assert_eq!(flat.try_inject(p.clone()).is_ok(), sharded.try_inject(p).is_ok());
            flat.advance(2);
            sharded.advance(2);
            flat_wakes.push(flat.take_delivered());
            shard_wakes.push(sharded.take_delivered());
            for i in 0..16 {
                while let Some(p) = flat.try_receive(n(i)) {
                    flat_rx.push((i, p.header(), p.pair_seq()));
                }
                while let Some(p) = sharded.try_receive(n(i)) {
                    shard_rx.push((i, p.header(), p.pair_seq()));
                }
            }
        }
        assert_eq!(flat_rx, shard_rx, "one shard must be byte-identical to flat");
        assert_eq!(flat_wakes, shard_wakes, "wake order passes through unsorted");
        let (a, b) = (flat.stats(), sharded.stats());
        assert_eq!(
            (a.injected, a.delivered, a.dropped_corrupt, a.duplicated),
            (b.injected, b.delivered, b.dropped_corrupt, b.duplicated)
        );
        assert_eq!(a.latency.count(), b.latency.count());
        assert_eq!(a.order.in_order(), b.order.in_order());
    }

    #[test]
    fn results_are_invariant_across_thread_counts() {
        let run = |threads: usize| {
            let mut net = ShardedNetwork::new(
                16,
                ShardedConfig {
                    switched: SwitchedConfig {
                        fault: FaultConfig {
                            duplicate_prob: 0.08,
                            delay_jitter: 5,
                            reorder_prob: 0.1,
                            ..FaultConfig::default()
                        },
                        ..cfg(4, threads).switched
                    },
                    ..cfg(4, threads)
                },
            );
            let mut rx = Vec::new();
            let mut wakes = Vec::new();
            for s in 0..200u32 {
                // A mix of intra-shard and cross-shard pairs.
                let src = (s as usize) % 16;
                let dst = (src + 1 + (s as usize) % 11) % 16;
                let _ = net.try_inject(pkt(src, dst, s));
                assert_front_is_current(&net);
                net.advance(1 + (s as u64) % 3);
                assert_front_is_current(&net);
                wakes.push(net.take_delivered());
                for i in 0..16 {
                    while let Some(p) = net.try_receive(n(i)) {
                        rx.push((i, p.src().index(), p.header()));
                    }
                }
            }
            net.drain(10_000);
            let st = net.stats().clone();
            (
                rx,
                wakes,
                st.injected,
                st.delivered,
                st.duplicated,
                st.reordered,
                st.latency.count(),
                net.now().cycles(),
            )
        };
        let t1 = run(1);
        assert_eq!(t1, run(2), "2 threads must match 1 thread bit for bit");
        assert_eq!(t1, run(4), "4 threads must match 1 thread bit for bit");
    }

    /// Cross-shard, intra-shard and loopback traffic with boundary and
    /// subnet reorder holds, duplicates and jitter, partly drained: the
    /// bound is read every cycle, and on a cycle short of the latest
    /// reading since the last injection no receive queue may grow and no
    /// wake may be marked. Every reading is returned, so thread counts
    /// can be compared.
    fn quiet_bounds_hold(threads: usize) -> Vec<u64> {
        let mut net = ShardedNetwork::new(
            16,
            ShardedConfig {
                switched: SwitchedConfig {
                    fault: FaultConfig {
                        duplicate_prob: 0.1,
                        delay_jitter: 5,
                        reorder_prob: 0.15,
                        reorder_depth: 3,
                        ..FaultConfig::default()
                    },
                    rx_queue_capacity: 3,
                    ..cfg(4, threads).switched
                },
                ..cfg(4, threads)
            },
        );
        let depths = |net: &ShardedNetwork| (0..16).map(|i| net.rx_pending(n(i))).collect::<Vec<_>>();
        let mut rng = crate::rng::SimRng::new(21);
        let mut promised = net.quiet_until();
        let (mut readings, mut looked_ahead, mut held) = (Vec::new(), 0, false);
        for s in 0..400u32 {
            // Injections thin out, so stretches with a few packets on
            // the wire (where the bound says something) alternate with
            // bursts (where contention makes packets overdue).
            let burst = if s % 40 < 10 { rng.gen_index(4) } else { usize::from(rng.gen_index(4) == 0) };
            for k in 0..burst {
                let src = rng.gen_index(16);
                let dst = if rng.gen_index(8) == 0 { src } else { rng.gen_index(16) };
                let _ = net.try_inject(pkt(src, dst, s * 4 + k as u32));
                assert_front_is_current(&net);
                promised = net.quiet_until();
            }
            held |= net.boundary_faults.held_count() > 0;
            // A loopback delivers, and marks its wake, inside `try_inject`.
            let _ = net.take_delivered();
            let before = depths(&net);
            net.advance(1);
            assert_front_is_current(&net);
            let woken = net.take_delivered();
            if net.now() < promised {
                assert_eq!((before, Vec::new()), (depths(&net), woken), "delivery at {} before {promised}", net.now());
                looked_ahead += 1;
            }
            assert!(net.quiet_until() > net.now(), "the bound is ahead of the clock");
            promised = net.quiet_until().max(promised);
            readings.push(net.quiet_until().cycles());
            if s % 3 == 0 {
                let _ = net.try_receive(n(rng.gen_index(16)));
            }
        }
        assert!(held, "the boundary reorder fault held something");
        assert!(net.stats().delivered > 100, "traffic flowed: {}", net.stats());
        assert!(looked_ahead > 40, "only {looked_ahead} cycles were promised quiet ahead of time");
        readings
    }

    #[test]
    fn no_packet_arrives_before_the_quiet_bound_at_any_thread_count() {
        assert_eq!(quiet_bounds_hold(1), quiet_bounds_hold(2), "the bound must not depend on threads");
    }

    #[test]
    fn a_long_advance_is_the_single_cycles_it_stands_for() {
        let run = |chunk: u64| {
            let mut net = ShardedNetwork::new(16, cfg(4, 2));
            let mut seen = Vec::new();
            for s in 0..30u32 {
                let src = (s as usize * 5) % 16;
                let _ = net.try_inject(pkt(src, (src + 1 + (s as usize) % 9) % 16, s));
                for _ in 0..60 / chunk {
                    net.advance(chunk);
                    assert_front_is_current(&net);
                }
                seen.push((net.now().cycles(), net.take_delivered()));
                for i in 0..16 {
                    while let Some(p) = net.try_receive(n(i)) {
                        seen.push((u64::from(p.header()), vec![p.src(), p.dst()]));
                    }
                }
            }
            (seen, net.stats().to_string())
        };
        let single = run(1);
        assert_eq!(single, run(60), "one advance per burst");
        assert_eq!(single, run(4), "boundary crossings come due mid-advance");
    }

    #[test]
    fn take_delivered_never_loses_a_loopback_or_boundary_wake() {
        let mut net = ShardedNetwork::new(16, cfg(4, 2));
        assert!(net.take_delivered().is_empty(), "nothing delivered yet");
        // A loopback delivers inside `try_inject`, between advances.
        net.try_inject(pkt(5, 5, 0)).unwrap();
        assert_eq!(net.take_delivered(), vec![n(5)]);
        assert!(net.take_delivered().is_empty(), "a take collects everything");
        // Boundary and intra-shard deliveries, taken every cycle and
        // never received: a node with a packet waiting was reported.
        let mut reported = [false; 16];
        reported[5] = true;
        for s in 0..60u32 {
            let src = (s as usize * 5) % 16;
            let _ = net.try_inject(pkt(src, (src + 1 + (s as usize) % 9) % 16, s));
            net.advance(1);
            for node in net.take_delivered() {
                reported[node.index()] = true;
            }
            for (i, &seen) in reported.iter().enumerate() {
                assert!(seen || net.rx_pending(n(i)) == 0, "cycle {s}: node {i}'s wake was lost");
            }
        }
        assert!(net.stats().delivered > 20, "traffic flowed: {}", net.stats());
    }

    #[test]
    fn wake_merge_is_in_ascending_node_order() {
        let mut net = ShardedNetwork::new(16, cfg(4, 2));
        // Cross-shard injections toward descending destinations.
        for (i, dst) in [15usize, 2, 9, 6].into_iter().enumerate() {
            net.try_inject(pkt((dst + 5) % 16, dst, i as u32)).unwrap();
        }
        net.drain(1_000);
        let wakes = net.take_delivered();
        assert!(!wakes.is_empty());
        let mut sorted = wakes.clone();
        sorted.sort_unstable_by_key(|n| n.index());
        assert_eq!(wakes, sorted, "merged wakes must come out in node-id order");
    }

    #[test]
    fn boundary_queue_backpressures_when_full() {
        let mut net = ShardedNetwork::new(
            8,
            ShardedConfig {
                shards: 2,
                threads: 1,
                cross_latency: 2,
                switched: SwitchedConfig { rx_queue_capacity: 3, ..SwitchedConfig::default() },
            },
        );
        // Node 6 lives in shard 1; never drain it.
        let mut accepted = 0;
        for s in 0..32u32 {
            if net.try_inject(pkt(0, 6, s)).is_ok() {
                accepted += 1;
            }
            net.advance(4);
        }
        assert_eq!(accepted, 3, "bounded boundary buffering must refuse the rest");
        assert!(net.stats().backpressure > 0);
        // Draining the node frees boundary space again.
        while net.try_receive(n(6)).is_some() {}
        assert!(net.try_inject(pkt(0, 6, 99)).is_ok());
    }

    #[test]
    fn crash_window_silences_cross_shard_traffic_and_reports_restart() {
        let mut net = ShardedNetwork::new(
            16,
            ShardedConfig {
                switched: SwitchedConfig {
                    fault: FaultConfig {
                        crashes: vec![CrashWindow { node: n(9), start: 0, end: 50 }],
                        ..FaultConfig::default()
                    },
                    ..cfg(4, 1).switched
                },
                ..cfg(4, 1)
            },
        );
        net.try_inject(pkt(1, 9, 0)).unwrap(); // crossing into the dead node
        assert_eq!(net.stats().crash_drops, 1);
        assert_eq!(net.restarts(n(9)), 0);
        assert_eq!(net.next_restart_at(), Some(Time::from_cycles(50)));
        net.advance(60);
        assert_eq!(net.restarts(n(9)), 1, "restart visible once the window closes");
        assert_eq!(net.restarts_hint(), 1);
        net.try_inject(pkt(1, 9, 1)).unwrap();
        assert!(net.drain(1_000));
        assert_eq!(net.stats().delivered, 1, "traffic flows after the restart");
    }

    #[test]
    fn uneven_partitions_cover_every_node() {
        let mut net = ShardedNetwork::new(10, ShardedConfig { shards: 3, ..cfg(3, 1) });
        for dst in 0..10 {
            net.try_inject(pkt((dst + 3) % 10, dst, dst as u32)).unwrap();
        }
        assert!(net.drain(10_000));
        assert_eq!(net.stats().delivered, 10);
        for dst in 0..10 {
            assert!(net.try_receive(n(dst)).is_some(), "node {dst} got its packet");
        }
    }

    /// A worker that panics mid-step makes `advance` panic, naming the
    /// shard, instead of leaving the front waiting on it forever. The
    /// front always claims shard 0 first, and shard 0's hook holds it
    /// there until a worker has claimed shard 3 and reached the same
    /// barrier, so the panic is on a worker thread in every run. The
    /// front runs on a helper thread: a regression times out instead of
    /// hanging the suite.
    #[test]
    fn a_panicking_worker_fails_advance_loudly() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let front = std::thread::spawn(move || {
            let mut net = ShardedNetwork::new(16, cfg(4, 4));
            let barrier = Arc::new(std::sync::Barrier::new(2));
            lock(&net.pool.cells[0]).hook = Some((Arc::clone(&barrier), false));
            lock(&net.pool.cells[3]).hook = Some((barrier, true));
            net.advance(1);
            tx.send(()).expect("the test waits for this");
        });
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
            Ok(()) => panic!("advance returned as if shard 3 had stepped"),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("advance still waits on the dead worker after 20 s")
            }
        }
        let payload = front.join().expect_err("advance panicked");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("stepping shard 3"), "{msg:?}");
    }
}
