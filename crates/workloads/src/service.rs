//! The RPC service plane: open-loop client populations driving a
//! sharded server pool through a gateway tier.
//!
//! This is the "millions of users" counterpart of [`crate::load`]: the
//! client population is *virtual* (an open-loop arrival schedule, far
//! larger than any node count), while the simulated nodes host the two
//! real tiers — **gateways**, where requests arrive, pass admission
//! control, and are routed by a pluggable [`Balancer`]; and
//! **servers**, whose registered RPC handlers perform the per-request
//! application work. Every request is an engine RPC from its gateway to
//! the chosen server, tagged with its QoS class via
//! [`Op::class`], so the run splits both completion times and
//! the paper's per-feature instruction bills *per request class* —
//! "where does the time go" for a service, not a kernel.
//!
//! # The failure domain
//!
//! Under partial failure the paper's question gets a new answer: the
//! time goes into timeouts, futile retries, and requests routed at
//! corpses. The serving plane therefore carries a full failure domain:
//!
//! * **Heartbeat failure detection** ([`DetectorSpec`]) — gateways
//!   probe every pool member with a cheap `am4` ping each probe
//!   period. A probe is delivery-confirmed (the op completes when the
//!   packet surfaces at the server) and deadline-bounded; consecutive
//!   misses past the suspicion threshold *eject* the server from the
//!   balancer. Probes ride the engine class plane under
//!   [`DETECTOR_CLASS`] and their bookkeeping is billed to `FaultTol`
//!   at the probing gateway, so detection itself shows up in the
//!   "where does the time go" split.
//! * **Health-aware balancing** — [`Balancer::eject`] removes a
//!   suspected server's consistent-hash ring points (its arcs fall to
//!   the next live point) and every scan policy skips ejected nodes;
//!   [`Balancer::reinstate`] restores the exact same ring points when
//!   probes succeed again (points are a pure function of server and
//!   vnode), so routing reacts within ~2 probe periods of a crash and
//!   recovers just as fast.
//! * **Hedged requests** ([`HedgeSpec`]) — a hedge-armed request still
//!   unsettled past the class's observed latency quantile gets a
//!   second leg submitted to a different healthy server.
//!   First-completion-wins: the winner settles the request and the
//!   loser is [`Engine::cancel`]led; a pool-wide idempotency ledger in
//!   [`ServerPool`] suppresses the duplicate handler run the losing
//!   leg may have already caused, keeping exactly-once accounting.
//! * **Retry budgets and the brownout breaker** — a per-class token
//!   bucket ([`RetryBudget`] → [`Engine::set_retry_budget`]) caps
//!   recovery amplification under correlated failure, and the gateway
//!   [`BreakerSpec`] sheds brownout-sheddable classes outright (billed
//!   like an admission shed) while the healthy-server fraction the
//!   detector reports is below threshold.
//!
//! Accounting invariants (pinned by `tests/serving_invariants.rs` and
//! `tests/serving_failover.rs`):
//!
//! * **Conservation** — `offered == admitted + shed` and
//!   `admitted == completed + failed` with nothing in flight after the
//!   drain.
//! * **Bill additivity** — on clean runs, the sum of per-class bills
//!   (engine split + gateway-side attribution) equals the untagged
//!   total the node recorders saw.
//! * **Exactly-once** — a recovery-armed class crossed with
//!   [`CrashWindow`](timego_netsim::CrashWindow)s runs every admitted
//!   request's handler exactly once, hedge legs included (reply-cache
//!   dedup within a server, idempotency ledger across servers).
//! * **Thread invariance** — on [`ShardedNetwork`] the whole outcome
//!   (bills, latencies, shed counts, ejections, hedge wins) is
//!   identical at every worker-thread count.

use std::collections::{BTreeMap, BTreeSet};

use timego_am::{CmamConfig, Engine, Machine, Op, OpId, RecoveryPolicy, RetryPolicy, Tags};
use timego_cost::{CostVector, Feature, Fine};
use timego_netsim::{FaultConfig, LatencyStats, NodeId, ShardedNetwork, SimRng};

pub use crate::apps::service::{
    Admission, AdmissionWindow, BreakerSpec, Gateway, ServerPool,
};
use crate::apps::service::cost;
use crate::scenarios;

/// SplitMix64 — the stateless mixer used for client keys and the
/// consistent-hash ring (same finalizer family as the netsim RNG, but
/// usable as a pure function of the key).
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Load-balancing policy of the gateway tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerPolicy {
    /// Uniform random pick from the live server set (seeded, so runs
    /// are reproducible).
    Random,
    /// Strict rotation over the live server set.
    RoundRobin,
    /// Pick the server with the fewest outstanding requests; ties break
    /// to the lowest node id (deterministic).
    LeastLoaded,
    /// Pick the server with the lowest completion-time EWMA measured
    /// from settled legs (servers with no sample yet count as fastest,
    /// so cold servers get probed with real traffic); ties break to the
    /// lowest node id.
    LatencyEwma,
    /// Consistent hashing on the client key over a ring of `vnodes`
    /// virtual points per server. Server add/remove (shard migration)
    /// remaps only the keys owned by the affected arcs — at most
    /// ~`K/n` of `K` keys for one server among `n`.
    ConsistentHash {
        /// Virtual ring points per server; more points flatten the
        /// per-server arc-length variance.
        vnodes: usize,
    },
}

impl BalancerPolicy {
    /// Short stable name, used in report keys.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BalancerPolicy::Random => "random",
            BalancerPolicy::RoundRobin => "round_robin",
            BalancerPolicy::LeastLoaded => "least_loaded",
            BalancerPolicy::LatencyEwma => "latency_ewma",
            BalancerPolicy::ConsistentHash { .. } => "consistent_hash",
        }
    }
}

/// The load signals a routing decision may read: outstanding request
/// counts (what least-loaded scans) and per-server completion-time
/// EWMAs (what [`BalancerPolicy::LatencyEwma`] scans). Servers absent
/// from a map count as idle / unsampled.
#[derive(Debug, Clone, Copy)]
pub struct LoadView<'a> {
    /// Outstanding (submitted, unsettled) request legs per server.
    pub outstanding: &'a BTreeMap<NodeId, usize>,
    /// Completion-time EWMA per server, in cycles.
    pub ewma: &'a BTreeMap<NodeId, u64>,
}

impl<'a> LoadView<'a> {
    /// Bundle the two signal maps.
    #[must_use]
    pub fn new(
        outstanding: &'a BTreeMap<NodeId, usize>,
        ewma: &'a BTreeMap<NodeId, u64>,
    ) -> Self {
        LoadView { outstanding, ewma }
    }
}

/// A pluggable request router over a mutable server set with a health
/// overlay.
///
/// The balancer is deliberately *driver-side* state (cursor, ring, RNG,
/// ejection set) — the instruction cost of a pick is billed separately
/// at the gateway node by [`Gateway`], per policy.
///
/// **Membership vs health:** `add_server`/`remove_server` change the
/// *member* set (shard migration); [`Balancer::eject`] /
/// [`Balancer::reinstate`] toggle a member's *health* (failure
/// detection). Routing draws from the live (member ∧ healthy) set and
/// falls back to the full member set only when everything is ejected —
/// degraded routing beats a panic when the whole pool browns out.
#[derive(Debug, Clone)]
pub struct Balancer {
    policy: BalancerPolicy,
    servers: Vec<NodeId>,
    ejected: BTreeSet<NodeId>,
    rr_cursor: usize,
    // Consistent-hash ring: (point, server), sorted by point, holding
    // points of *live* members only. Empty for the other policies.
    ring: Vec<(u64, NodeId)>,
    rng: SimRng,
}

impl Balancer {
    /// A balancer over `servers` (non-empty) with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    #[must_use]
    pub fn new(policy: BalancerPolicy, servers: &[NodeId], seed: u64) -> Self {
        assert!(!servers.is_empty(), "balancer needs at least one server");
        let mut b = Balancer {
            policy,
            servers: servers.to_vec(),
            ejected: BTreeSet::new(),
            rr_cursor: 0,
            ring: Vec::new(),
            rng: SimRng::new(seed),
        };
        if let BalancerPolicy::ConsistentHash { vnodes } = policy {
            for &s in servers {
                b.insert_ring_points(s, vnodes);
            }
        }
        b
    }

    /// The member server set, in insertion order (ejected members
    /// included — ejection is a health overlay, not membership).
    #[must_use]
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Whether `server` is a pool member (healthy or not).
    #[must_use]
    pub fn is_member(&self, server: NodeId) -> bool {
        self.servers.contains(&server)
    }

    /// Whether `server` is currently ejected by the failure detector.
    #[must_use]
    pub fn is_ejected(&self, server: NodeId) -> bool {
        self.ejected.contains(&server)
    }

    /// Member count, ejected included.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.servers.len()
    }

    /// Healthy member count.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.servers.iter().filter(|s| !self.ejected.contains(s)).count()
    }

    fn insert_ring_points(&mut self, server: NodeId, vnodes: usize) {
        for v in 0..vnodes {
            // A pure function of (server, vnode): reinstating a server
            // recreates exactly the points ejection removed, so a
            // crash-recover cycle is ownership-neutral.
            let point = splitmix64(
                (server.index() as u64) << 32 | (v as u64) | 0x5e47_0000_0000_0000,
            );
            let at = self.ring.partition_point(|&(p, _)| p < point);
            self.ring.insert(at, (point, server));
        }
    }

    /// Add a server to the member set (shard migration: recruit). A
    /// recruit that is already a member only gets its health back.
    /// Under consistent hashing only the keys whose ring arcs the new
    /// points capture move — everything else keeps its server.
    pub fn add_server(&mut self, server: NodeId) {
        if self.servers.contains(&server) {
            self.reinstate(server);
            return;
        }
        self.servers.push(server);
        if let BalancerPolicy::ConsistentHash { vnodes } = self.policy {
            self.insert_ring_points(server, vnodes);
        }
    }

    /// Remove a server from the member set (shard migration: retire).
    /// Safe on ejected and on never-added servers — all its state
    /// (membership, ring points, ejection) is purged, so a later
    /// `add_server` of the same node starts fresh.
    pub fn remove_server(&mut self, server: NodeId) {
        self.servers.retain(|&s| s != server);
        self.ring.retain(|&(_, s)| s != server);
        self.ejected.remove(&server);
    }

    /// Mark a member unhealthy (failure detector: suspicion threshold
    /// crossed). Its ring points leave the ring — each owned arc falls
    /// to the next live point — and scan policies skip it. Returns
    /// `false` if it is not a member or already ejected.
    pub fn eject(&mut self, server: NodeId) -> bool {
        if !self.servers.contains(&server) {
            return false;
        }
        if !self.ejected.insert(server) {
            return false;
        }
        self.ring.retain(|&(_, s)| s != server);
        true
    }

    /// Mark an ejected member healthy again (failure detector: probe
    /// succeeded). Its exact ring points return. Returns `false` if it
    /// was not ejected.
    pub fn reinstate(&mut self, server: NodeId) -> bool {
        if !self.ejected.remove(&server) {
            return false;
        }
        if let BalancerPolicy::ConsistentHash { vnodes } = self.policy {
            if self.servers.contains(&server) {
                self.insert_ring_points(server, vnodes);
            }
        }
        true
    }

    /// Route one request: `key` identifies the client (consistent
    /// hashing routes on it), `view` carries the load signals the scan
    /// policies read. Ejected members are skipped; if *every* member is
    /// ejected, routing falls back to the full member set (degraded
    /// beats down).
    ///
    /// # Panics
    ///
    /// Panics if every server has been removed.
    pub fn pick(&mut self, key: u64, view: &LoadView) -> NodeId {
        assert!(!self.servers.is_empty(), "balancer has no live servers");
        match self.policy {
            BalancerPolicy::Random => {
                let pool = self.pool();
                pool[self.rng.gen_index(pool.len())]
            }
            BalancerPolicy::RoundRobin => {
                let pool = self.pool();
                let s = pool[self.rr_cursor % pool.len()];
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                s
            }
            BalancerPolicy::LeastLoaded => self
                .pool()
                .into_iter()
                .min_by_key(|&s| (view.outstanding.get(&s).copied().unwrap_or(0), s.index()))
                .expect("non-empty pool"),
            BalancerPolicy::LatencyEwma => self
                .pool()
                .into_iter()
                .min_by_key(|&s| (view.ewma.get(&s).copied().unwrap_or(0), s.index()))
                .expect("non-empty pool"),
            BalancerPolicy::ConsistentHash { .. } => {
                let h = splitmix64(key);
                if self.ring.is_empty() {
                    // Every member ejected: degraded fallback keeps the
                    // key → server mapping stable (pure hash over the
                    // member list) until someone recovers.
                    let pool = self.pool();
                    pool[(h % pool.len() as u64) as usize]
                } else {
                    // The ring holds live members' points only: the
                    // pool is never built on this path.
                    let at = self.ring.partition_point(|&(p, _)| p < h);
                    self.ring[at % self.ring.len()].1
                }
            }
        }
    }

    /// The servers a pick draws from: the live members in insertion
    /// order, or every member when all are ejected.
    fn pool(&self) -> Vec<NodeId> {
        let live: Vec<NodeId> =
            self.servers.iter().copied().filter(|s| !self.ejected.contains(s)).collect();
        if live.is_empty() {
            self.servers.clone()
        } else {
            live
        }
    }

    /// Pick the target for a hedge leg: the least-outstanding healthy
    /// member other than `exclude` (the primary leg's server). `None`
    /// when no such server exists — a hedge to the same box buys
    /// nothing.
    #[must_use]
    pub fn pick_hedge(&self, exclude: NodeId, view: &LoadView) -> Option<NodeId> {
        self.servers
            .iter()
            .copied()
            .filter(|&s| s != exclude && !self.ejected.contains(&s))
            .min_by_key(|&s| (view.outstanding.get(&s).copied().unwrap_or(0), s.index()))
    }
}

/// The heartbeat failure detector's knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorSpec {
    /// Cycles between probe rounds. Each round sends one `am4` ping
    /// from a gateway to every pool member without a probe already in
    /// flight.
    pub period: u64,
    /// Per-probe deadline: a probe not delivery-confirmed within this
    /// many cycles counts as a miss.
    pub timeout: u64,
    /// Consecutive misses before a server is ejected.
    pub threshold: u32,
}

impl Default for DetectorSpec {
    fn default() -> Self {
        DetectorSpec { period: 1500, timeout: 1200, threshold: 2 }
    }
}

/// Hedged-request policy for hedge-armed classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeSpec {
    /// Latency quantile of the class's *observed* completions past
    /// which an unsettled request hedges (0.95 = hedge the slowest 5%).
    pub quantile: f64,
    /// Observed completions required before the quantile is trusted.
    pub min_samples: u64,
    /// Hedge delay in cycles used until `min_samples` completions have
    /// been observed.
    pub bootstrap: u64,
}

impl Default for HedgeSpec {
    fn default() -> Self {
        HedgeSpec { quantile: 0.95, min_samples: 32, bootstrap: 8192 }
    }
}

/// A per-class retry budget: the token bucket handed to
/// [`Engine::set_retry_budget`], capping recovery re-executions so a
/// correlated failure cannot amplify one class's offered load into an
/// unbounded retry storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Bucket capacity in re-execution tokens (also the initial fill).
    pub capacity: u32,
    /// Refill rate in milli-tokens per kilocycle (1000 = one
    /// re-execution per kilocycle sustained).
    pub refill_milli_per_kcycle: u32,
}

/// One QoS class: an open-loop client population plus the engine
/// primitives its requests are mapped onto.
#[derive(Debug, Clone)]
pub struct QosClass {
    /// Stable name, used in report keys ("interactive", "batch", …).
    pub name: &'static str,
    /// The class tag handed to [`Op::class`].
    pub class: u8,
    /// Cycles between successive arrivals of this population (open
    /// loop; smaller is a higher offered rate). Must be ≥ 1.
    pub interval: u64,
    /// Total requests this population offers.
    pub requests: usize,
    /// Application work units the server handler performs per request
    /// (each unit is a fixed load/store/ALU shape billed at the
    /// callee).
    pub work: u32,
    /// Per-request deadline in cycles from submission, if the class is
    /// latency-supervised: late requests are failed fast with
    /// `DeadlineExceeded` instead of occupying the pool.
    pub deadline: Option<u64>,
    /// Engine-native re-execution budget, if the class is
    /// recovery-armed: retryable failures (crash-window `SessionReset`s
    /// included) park and re-execute to exactly-once completion.
    pub recovery: Option<RecoveryPolicy>,
    /// Inner protocol retry policy for the RPC itself.
    pub retry: RetryPolicy,
    /// Whether requests of this class hedge when the run's
    /// [`HedgeSpec`] is armed (tail insurance is an interactive trait —
    /// batch work just waits).
    pub hedge: bool,
    /// Whether the brownout breaker may shed this class (see
    /// [`BreakerSpec`]).
    pub sheddable: bool,
    /// Per-class retry budget, if capped (see [`RetryBudget`]).
    pub retry_budget: Option<RetryBudget>,
}

impl QosClass {
    /// A latency-sensitive class: small work, per-request deadline, no
    /// re-execution (stale interactive replies are worthless), hedged
    /// and brownout-sheddable.
    #[must_use]
    pub fn interactive(interval: u64, requests: usize, deadline: u64) -> Self {
        QosClass {
            name: "interactive",
            class: 0,
            interval,
            requests,
            work: 4,
            deadline: Some(deadline),
            recovery: None,
            retry: RetryPolicy::default(),
            hedge: true,
            sheddable: true,
            retry_budget: None,
        }
    }

    /// A throughput-sensitive class: heavier work, no deadline,
    /// recovery-armed so crashes re-execute instead of failing; never
    /// hedged or breaker-shed.
    #[must_use]
    pub fn batch(interval: u64, requests: usize) -> Self {
        QosClass {
            name: "batch",
            class: 1,
            interval,
            requests,
            work: 16,
            deadline: None,
            recovery: Some(RecoveryPolicy::default()),
            retry: RetryPolicy::default(),
            hedge: false,
            sheddable: false,
            retry_budget: None,
        }
    }
}

/// One serving run: tiers, policy, admission window, failure-domain
/// knobs, and the class populations.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Gateway-tier nodes (requests arrive here; each RPC's caller).
    pub gateways: Vec<NodeId>,
    /// Server-pool nodes (RPC handlers live here).
    pub servers: Vec<NodeId>,
    /// How gateways route admitted requests.
    pub policy: BalancerPolicy,
    /// The admission window: tier-global or per-gateway in-flight
    /// bound. Arrivals past it are shed.
    pub window: AdmissionWindow,
    /// The client populations.
    pub classes: Vec<QosClass>,
    /// Shard migration script: at the arrival fraction `at` (0.0–1.0 of
    /// all arrivals), retire `retire` servers (the lowest-indexed live
    /// ones) and recruit these spare nodes into the pool.
    pub migration: Option<Migration>,
    /// Heartbeat failure detection, if armed.
    pub detector: Option<DetectorSpec>,
    /// Hedged requests for hedge-armed classes, if armed.
    pub hedge: Option<HedgeSpec>,
    /// Gateway brownout breaker, if armed (needs the detector to feed
    /// it a healthy fraction — without one it never trips).
    pub breaker: Option<BreakerSpec>,
    /// Seed for the balancer RNG and payload keys.
    pub seed: u64,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            gateways: Vec::new(),
            servers: Vec::new(),
            policy: BalancerPolicy::RoundRobin,
            window: AdmissionWindow::TierGlobal(64),
            classes: Vec::new(),
            migration: None,
            detector: None,
            hedge: None,
            breaker: None,
            seed: 0,
        }
    }
}

/// A scripted mid-run reshape of the server pool (see
/// [`ServiceSpec::migration`]).
#[derive(Debug, Clone)]
pub struct Migration {
    /// Fraction of total arrivals after which the migration runs.
    pub at: f64,
    /// How many live servers to retire (lowest node ids first; capped
    /// so at least one member always remains).
    pub retire: usize,
    /// Spare nodes to recruit.
    pub recruit: Vec<NodeId>,
}

/// Per-class results of one serving run.
#[derive(Debug, Clone)]
pub struct ClassOutcome {
    /// Class name from the spec.
    pub name: &'static str,
    /// Class tag from the spec.
    pub class: u8,
    /// Arrivals offered by this population.
    pub offered: usize,
    /// Arrivals admitted (submitted to the engine).
    pub admitted: usize,
    /// Arrivals shed at the gateway (admission bound hit or breaker
    /// open).
    pub shed: usize,
    /// The subset of [`ClassOutcome::shed`] the brownout breaker took.
    pub breaker_shed: usize,
    /// Admitted requests that completed successfully (first winning
    /// leg).
    pub completed: usize,
    /// Admitted requests whose every leg failed (deadline, retry
    /// exhaustion, …).
    pub failed: usize,
    /// Engine-native re-executions across this class's request legs.
    pub re_executions: u64,
    /// Recovery re-executions the class's retry budget denied.
    pub budget_denied: u64,
    /// Hedge legs launched for this class.
    pub hedges: usize,
    /// Requests settled by a hedge leg rather than the primary.
    pub hedge_wins: usize,
    /// Completion-time histogram (submission → settlement of the
    /// *request*: first winning leg or last failing one; queueing,
    /// re-execution, and hedging included) for this class only.
    pub completion: LatencyStats,
    /// The class's full cost bill: the engine's per-class split plus
    /// the gateway-side admission/routing/shed/hedge instructions
    /// attributed to this class.
    pub bill: CostVector,
}

/// Whole-run results of one serving run.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Per-class outcomes, in spec order.
    pub classes: Vec<ClassOutcome>,
    /// Cycles from the first arrival to the end of the drain.
    pub elapsed_cycles: u64,
    /// Highest in-flight admitted count the run reached (tier-wide).
    pub peak_in_flight: usize,
    /// Highest in-flight count per gateway node index.
    pub peak_per_gateway: BTreeMap<usize, usize>,
    /// Requests still in flight after the drain (0 on a conserved run).
    pub in_flight_at_end: usize,
    /// Substrate backpressure events over the run.
    pub backpressure: u64,
    /// Handler runs per server node index — what the exactly-once
    /// invariant audits: across crash re-executions *and hedge races*,
    /// the pool-wide sum stays equal to the admitted count.
    pub handler_runs: BTreeMap<usize, u64>,
    /// Handler invocations the pool's idempotency ledger suppressed
    /// (the losing hedge leg's duplicate).
    pub dup_suppressed: u64,
    /// Heartbeat probes the detector sent.
    pub probes: u64,
    /// Probes that missed (deadline or delivery failure).
    pub probe_failures: u64,
    /// Servers ejected by the detector (threshold crossings, not a
    /// distinct-server count).
    pub ejections: u64,
    /// Ejected servers reinstated after probes succeeded again.
    pub reinstatements: u64,
    /// What detection itself cost: the engine's bill for
    /// [`DETECTOR_CLASS`] (the probe ops) plus the driver-side
    /// suspicion bookkeeping billed at the gateways.
    pub detector_bill: CostVector,
    /// Engine quanta the driver pumped — host-side work, not simulated
    /// behaviour: the driver lets time pass to its next event, so this
    /// counts the cycles on which something could happen, and is not in
    /// [`ServiceOutcome::signature`].
    pub pumps: u64,
    /// Arrivals submitted (and timed from) a cycle later than their
    /// slot: with the fabric empty the engine's idle jump runs to its
    /// next timer whatever the driver is waiting for, and can overshoot
    /// an arrival. Implied by the rest of the outcome, so not in
    /// [`ServiceOutcome::signature`].
    pub late_arrivals: u64,
}

impl ServiceOutcome {
    /// Completed requests per elapsed kilocycle, across all classes —
    /// the goodput axis of the overload and failover curves.
    #[must_use]
    pub fn goodput_per_kcycle(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        let done: usize = self.classes.iter().map(|c| c.completed).sum();
        done as f64 * 1000.0 / self.elapsed_cycles as f64
    }

    /// Shed fraction across all classes: shed / offered.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        let offered: usize = self.classes.iter().map(|c| c.offered).sum();
        if offered == 0 {
            return 0.0;
        }
        let shed: usize = self.classes.iter().map(|c| c.shed).sum();
        shed as f64 / offered as f64
    }

    /// A compact determinism signature: every count, bill total, and
    /// histogram moment folded into one value. Two runs of the same
    /// spec on the same substrate parameters must produce equal
    /// signatures at every worker-thread count.
    #[must_use]
    pub fn signature(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        fold(self.elapsed_cycles);
        fold(self.peak_in_flight as u64);
        fold(self.in_flight_at_end as u64);
        fold(self.backpressure);
        fold(self.dup_suppressed);
        fold(self.probes);
        fold(self.probe_failures);
        fold(self.ejections);
        fold(self.reinstatements);
        fold(self.detector_bill.total());
        fold(self.detector_bill.overhead_total());
        for (&gw, &peak) in &self.peak_per_gateway {
            fold(gw as u64);
            fold(peak as u64);
        }
        for (&server, &runs) in &self.handler_runs {
            fold(server as u64);
            fold(runs);
        }
        for c in &self.classes {
            fold(c.class as u64);
            fold(c.offered as u64);
            fold(c.admitted as u64);
            fold(c.shed as u64);
            fold(c.breaker_shed as u64);
            fold(c.completed as u64);
            fold(c.failed as u64);
            fold(c.re_executions);
            fold(c.budget_denied);
            fold(c.hedges as u64);
            fold(c.hedge_wins as u64);
            fold(c.completion.count());
            fold(c.completion.max());
            fold(c.completion.quantile(0.5));
            fold(c.completion.quantile(0.99));
            fold(c.completion.quantile(0.999));
            fold(c.bill.total());
            fold(c.bill.overhead_total());
        }
        h
    }
}

/// The request tag the serving plane registers its handlers under.
pub const SERVICE_TAG: u8 = Tags::USER_BASE + 7;

/// The tag heartbeat probes ride on (no handler — the probe op itself
/// consumes the ping on delivery).
pub const PROBE_TAG: u8 = Tags::USER_BASE + 8;

/// The engine class tag detector probes are billed under, far outside
/// the QoS range so detection cost never pollutes a class bill.
pub const DETECTOR_CLASS: u8 = 0xff;

fn clock(m: &Machine) -> u64 {
    m.network().borrow().now().cycles()
}

/// One request leg (primary or hedge) in flight.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// Index into the request ledger.
    req: usize,
    server: NodeId,
    submitted_at: u64,
}

/// One admitted request: its legs and settlement state.
#[derive(Debug, Clone)]
struct Req {
    ci: usize,
    gw: NodeId,
    primary: NodeId,
    args: [u32; 4],
    submitted_at: u64,
    legs: Vec<OpId>,
    outstanding: usize,
    hedged: bool,
    settled: bool,
}

/// Driver-side detector state: suspicion counters, probes in flight,
/// and the probe schedule.
#[derive(Debug)]
struct DetectorState {
    spec: DetectorSpec,
    misses: BTreeMap<NodeId, u32>,
    outstanding: BTreeMap<OpId, NodeId>,
    next_round: u64,
    active: bool,
    probes: u64,
    failures: u64,
    ejections: u64,
    reinstatements: u64,
    bill: CostVector,
}

/// The run's mutable driver state, bundled so the pacing loop, the
/// harvest, the detector, and the hedger can hand it around without
/// borrow gymnastics.
struct Rt<'a> {
    spec: &'a ServiceSpec,
    balancer: Balancer,
    gateway: Gateway,
    det: Option<DetectorState>,
    reqs: Vec<Req>,
    legs: BTreeMap<OpId, Leg>,
    outstanding: BTreeMap<NodeId, usize>,
    ewma: BTreeMap<NodeId, u64>,
    lat: Vec<LatencyStats>,
    completed: Vec<usize>,
    failed: Vec<usize>,
    hedges: Vec<usize>,
    hedge_wins: Vec<usize>,
    hedge_due: BTreeMap<u64, Vec<usize>>,
    cursor: usize,
}

impl Rt<'_> {
    /// Drain new `Completed` trace events: settle requests first-win,
    /// cancel losing hedge legs, update load signals, and feed probe
    /// verdicts to the detector.
    fn harvest(&mut self, m: &Machine, eng: &mut Engine) {
        let done = eng.completions_since(&mut self.cursor);
        if done.is_empty() {
            return;
        }
        let mut verdicts: Vec<(NodeId, bool)> = Vec::new();
        for (id, ok, at) in done {
            // `ok` is all the driver reads; collect the boxed outcome
            // (leg, hedge loser or probe) so the ledger does not pin
            // one per settled op for the whole run.
            eng.take_outcome(id);
            let Some(leg) = self.legs.get(&id).copied() else {
                if let Some(ds) = self.det.as_mut() {
                    if let Some(server) = ds.outstanding.remove(&id) {
                        verdicts.push((server, ok));
                    }
                }
                continue;
            };
            if let Some(l) = self.outstanding.get_mut(&leg.server) {
                *l = l.saturating_sub(1);
            }
            if ok {
                let sample = at.saturating_sub(leg.submitted_at).max(1);
                match self.ewma.get_mut(&leg.server) {
                    Some(e) => *e = (*e * 7 + sample) / 8,
                    None => {
                        self.ewma.insert(leg.server, sample);
                    }
                }
            }
            let req = &mut self.reqs[leg.req];
            req.outstanding = req.outstanding.saturating_sub(1);
            if req.settled {
                continue;
            }
            if ok {
                // First completion wins: settle the request, cancel
                // every other leg (a cancelled leg's own `Completed`
                // event lands after the cursor and is absorbed on the
                // next harvest).
                req.settled = true;
                let (ci, gw, t0) = (req.ci, req.gw, req.submitted_at);
                let won_by_hedge = req.legs.first() != Some(&id);
                let losers: Vec<OpId> =
                    req.legs.iter().copied().filter(|&l| l != id).collect();
                self.completed[ci] += 1;
                if won_by_hedge {
                    self.hedge_wins[ci] += 1;
                }
                self.lat[ci].record(at.saturating_sub(t0).max(1));
                self.gateway.complete(gw);
                for l in losers {
                    eng.cancel(m, l);
                }
            } else if req.outstanding == 0 {
                // Every leg failed: the request fails.
                req.settled = true;
                let (ci, gw, t0) = (req.ci, req.gw, req.submitted_at);
                self.failed[ci] += 1;
                self.lat[ci].record(at.saturating_sub(t0).max(1));
                self.gateway.complete(gw);
            }
        }
        for (server, ok) in verdicts {
            self.probe_verdict(m, server, ok);
        }
    }

    /// Apply one probe verdict: clear or bump the suspicion counter,
    /// eject at the threshold, reinstate on recovery, and refresh the
    /// breaker's healthy fraction. The bookkeeping is billed to
    /// `FaultTol` at the probing gateway.
    fn probe_verdict(&mut self, m: &Machine, server: NodeId, ok: bool) {
        let Some(ds) = self.det.as_mut() else { return };
        let prober =
            self.spec.gateways[server.index() % self.spec.gateways.len()];
        let cpu = m.cpu(prober);
        let before = cpu.snapshot();
        cpu.with_feature(Feature::FaultTol, |c| {
            c.reg(Fine::RegOp, cost::PROBE_BOOK_REG);
            c.mem_store(cost::PROBE_BOOK_MEM);
        });
        ds.bill += cpu.snapshot() - before;
        if !self.balancer.is_member(server) {
            // Migrated away while the probe was in flight.
            ds.misses.remove(&server);
            return;
        }
        if ok {
            ds.misses.insert(server, 0);
            if self.balancer.is_ejected(server) && self.balancer.reinstate(server) {
                ds.reinstatements += 1;
            }
        } else {
            ds.failures += 1;
            let miss = ds.misses.entry(server).or_insert(0);
            *miss += 1;
            if *miss >= ds.spec.threshold
                && !self.balancer.is_ejected(server)
                && self.balancer.eject(server)
            {
                ds.ejections += 1;
            }
        }
        self.gateway
            .note_health(self.balancer.live_count(), self.balancer.member_count());
    }

    /// Launch a probe round if one is due: one deadline-bounded `am4`
    /// ping per member without a probe already outstanding.
    fn tick_detector(&mut self, m: &mut Machine, eng: &mut Engine) {
        let ngw = self.spec.gateways.len();
        let Some(ds) = self.det.as_mut() else { return };
        if !ds.active {
            return;
        }
        let now = clock(m);
        if now < ds.next_round {
            return;
        }
        let targets: Vec<NodeId> = self.balancer.servers().to_vec();
        for server in targets {
            if ds.outstanding.values().any(|&s| s == server) {
                continue;
            }
            let prober = self.spec.gateways[server.index() % ngw];
            // `RecoveryPolicy::none()` keeps the probe single-shot but
            // routes it through the token-stamped submission path, so a
            // ping landing after its op expired is orphan-discardable
            // instead of wedging the server's rx queue.
            let ping = [0x5052_4f42, server.index() as u32, 0, 0];
            let probe = Op::am4(prober, server, PROBE_TAG, ping)
                .recovering(&RecoveryPolicy::none())
                .class(DETECTOR_CLASS)
                .deadline(ds.spec.timeout);
            let id = eng.submit(m, probe).expect("probe submission");
            ds.outstanding.insert(id, server);
            ds.probes += 1;
        }
        while ds.next_round <= now {
            ds.next_round += ds.spec.period.max(1);
        }
    }

    /// Launch hedge legs for requests past their due point.
    fn tick_hedges(&mut self, m: &mut Machine, eng: &mut Engine) {
        if self.spec.hedge.is_none() {
            return;
        }
        let now = clock(m);
        while let Some((&due, _)) = self.hedge_due.first_key_value() {
            if due > now {
                break;
            }
            let (_, batch) = self.hedge_due.pop_first().expect("peeked entry");
            for ri in batch {
                self.launch_hedge(m, eng, ri, now);
            }
        }
    }

    fn launch_hedge(&mut self, m: &mut Machine, eng: &mut Engine, ri: usize, now: u64) {
        let (ci, gw, primary, args, t0, hedged, settled) = {
            let r = &self.reqs[ri];
            (r.ci, r.gw, r.primary, r.args, r.submitted_at, r.hedged, r.settled)
        };
        if settled || hedged {
            return;
        }
        let c = &self.spec.classes[ci];
        let mut remaining = None;
        if let Some(d) = c.deadline {
            // Hedging into an almost-dead deadline window buys nothing.
            let left = (t0 + d).saturating_sub(now);
            if left < 2 {
                return;
            }
            remaining = Some(left);
        }
        let view = LoadView::new(&self.outstanding, &self.ewma);
        let Some(target) = self.balancer.pick_hedge(primary, &view) else {
            return;
        };
        self.reqs[ri].hedged = true;
        self.gateway.bill_hedge(m, gw, ci, self.balancer.live_count());
        // The hedge leg is single-shot (no recovery): the primary owns
        // durability, the hedge owns the tail.
        let mut leg = Op::rpc(gw, target, SERVICE_TAG, args, Some(&c.retry)).class(c.class);
        if let Some(left) = remaining {
            leg = leg.deadline(left);
        }
        let id = eng.submit(m, leg).expect("hedge submission");
        self.legs.insert(id, Leg { req: ri, server: target, submitted_at: now });
        self.reqs[ri].legs.push(id);
        self.reqs[ri].outstanding += 1;
        *self.outstanding.entry(target).or_insert(0) += 1;
        self.hedges[ci] += 1;
    }

    /// One pacing step: pump the engine — letting time pass no further
    /// than the driver's own next event: the next arrival (`arrival`,
    /// `u64::MAX` once they are all in), the next probe round, the first
    /// hedge coming due — then absorb completions, probe, and hedge.
    fn step(&mut self, m: &mut Machine, eng: &mut Engine, arrival: u64) {
        let round = self.det.as_ref().filter(|ds| ds.active).map_or(u64::MAX, |ds| ds.next_round);
        let hedge = self.hedge_due.first_key_value().map_or(u64::MAX, |(&due, _)| due);
        eng.pump_until(m, arrival.min(round).min(hedge));
        self.harvest(m, eng);
        self.tick_detector(m, eng);
        self.tick_hedges(m, eng);
    }
}

/// Drive one serving run to completion: pace the merged per-class
/// arrival schedules on the substrate clock (pumping the engine in
/// between), pass every arrival through gateway admission and the
/// balancer, submit admitted requests as class-tagged RPCs — hedging,
/// probing, and ejecting along the way — then drain.
///
/// The machine should be freshly constructed for the run — substrate
/// counters are read as whole-run totals, and the server handlers are
/// (re)registered here.
///
/// # Panics
///
/// Panics if the spec has no classes, no gateways, no servers, a zero
/// interval, gateway/server tiers that overlap, a zero-period or
/// zero-threshold detector, or a class colliding with
/// [`DETECTOR_CLASS`] while the detector is armed.
#[allow(clippy::too_many_lines)]
pub fn run_service(m: &mut Machine, spec: &ServiceSpec) -> ServiceOutcome {
    assert!(!spec.classes.is_empty(), "need at least one QoS class");
    assert!(!spec.gateways.is_empty(), "need at least one gateway");
    assert!(!spec.servers.is_empty(), "need at least one server");
    assert!(spec.classes.iter().all(|c| c.interval >= 1), "intervals must be ≥ 1");
    assert!(
        spec.gateways.iter().all(|g| !spec.servers.contains(g)),
        "gateway and server tiers must not overlap"
    );
    if let Some(d) = spec.detector {
        assert!(d.period >= 1 && d.timeout >= 1 && d.threshold >= 1, "degenerate detector");
        assert!(
            spec.classes.iter().all(|c| c.class != DETECTOR_CLASS),
            "class tag {DETECTOR_CLASS:#x} is reserved for the failure detector"
        );
    }

    let nclasses = spec.classes.len();
    let pool = ServerPool::install(
        m,
        &spec.servers,
        spec.migration.as_ref().map_or(&[][..], |mig| &mig.recruit),
        SERVICE_TAG,
    );
    let mut eng = Engine::new();
    for c in &spec.classes {
        if let Some(rb) = &c.retry_budget {
            eng.set_retry_budget(c.class, rb.capacity, rb.refill_milli_per_kcycle);
        }
    }
    let mut gateway = Gateway::new(spec.window, nclasses);
    if let Some(b) = spec.breaker {
        gateway.set_breaker(b);
    }
    let start = clock(m);
    let mut rt = Rt {
        spec,
        balancer: Balancer::new(spec.policy, &spec.servers, spec.seed),
        gateway,
        det: spec.detector.map(|d| DetectorState {
            spec: d,
            misses: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            next_round: start,
            active: true,
            probes: 0,
            failures: 0,
            ejections: 0,
            reinstatements: 0,
            bill: CostVector::new(),
        }),
        reqs: Vec::new(),
        legs: BTreeMap::new(),
        outstanding: BTreeMap::new(),
        ewma: BTreeMap::new(),
        lat: (0..nclasses).map(|_| LatencyStats::default()).collect(),
        completed: vec![0; nclasses],
        failed: vec![0; nclasses],
        hedges: vec![0; nclasses],
        hedge_wins: vec![0; nclasses],
        hedge_due: BTreeMap::new(),
        cursor: 0,
    };

    // Merged arrival schedule: (due, class index, per-class arrival
    // index), ordered by due cycle then class — deterministic.
    let mut arrivals: Vec<(u64, usize, usize)> = Vec::new();
    for (ci, c) in spec.classes.iter().enumerate() {
        for i in 0..c.requests {
            arrivals.push((start + i as u64 * c.interval, ci, i));
        }
    }
    arrivals.sort_unstable_by_key(|&(due, ci, i)| (due, ci, i));
    let migrate_after = spec
        .migration
        .as_ref()
        .map(|mig| ((arrivals.len() as f64) * mig.at.clamp(0.0, 1.0)) as usize);

    let mut admitted = vec![0usize; nclasses];
    let mut late_arrivals = 0;
    for (k, &(due, ci, i)) in arrivals.iter().enumerate() {
        if migrate_after == Some(k) {
            let mig = spec.migration.as_ref().expect("migrate_after implies migration");
            let members: Vec<NodeId> = rt.balancer.servers().to_vec();
            // Never retire the whole pool: at least one member stays so
            // routing (and the detector's health denominator) survives
            // a misconfigured script.
            let retire_n = mig.retire.min(members.len().saturating_sub(1));
            for &s in members.iter().take(retire_n) {
                rt.balancer.remove_server(s);
                if let Some(ds) = rt.det.as_mut() {
                    ds.misses.remove(&s);
                }
            }
            for &s in &mig.recruit {
                rt.balancer.add_server(s);
            }
            if rt.det.is_some() {
                rt.gateway
                    .note_health(rt.balancer.live_count(), rt.balancer.member_count());
            }
        }
        while clock(m) < due {
            rt.step(m, &mut eng, due);
        }
        late_arrivals += u64::from(clock(m) > due);
        rt.tick_detector(m, &mut eng);
        rt.tick_hedges(m, &mut eng);
        let c = &spec.classes[ci];
        // The client key: stable per (class, arrival), what consistent
        // hashing routes on and what spreads arrivals over gateways.
        let key = splitmix64(spec.seed ^ ((ci as u64) << 48) ^ i as u64);
        let gw = spec.gateways[(key % spec.gateways.len() as u64) as usize];
        match rt.gateway.admit(m, gw, ci, c.sheddable) {
            Admission::Shed => continue,
            Admission::Granted => {}
        }
        let view = LoadView::new(&rt.outstanding, &rt.ewma);
        let server = rt.balancer.pick(key, &view);
        rt.gateway
            .bill_route(m, gw, ci, spec.policy, rt.balancer.live_count().max(1));
        let args = [ci as u32, i as u32, c.work, (key & 0xffff_ffff) as u32];
        let mut req = Op::rpc(gw, server, SERVICE_TAG, args, Some(&c.retry)).class(c.class);
        if let Some(rec) = &c.recovery {
            req = req.recovering(rec);
        }
        if let Some(d) = c.deadline {
            req = req.deadline(d);
        }
        let id = eng.submit(m, req).expect("request submission");
        let now = clock(m);
        let ri = rt.reqs.len();
        rt.reqs.push(Req {
            ci,
            gw,
            primary: server,
            args,
            submitted_at: now,
            legs: vec![id],
            outstanding: 1,
            hedged: false,
            settled: false,
        });
        rt.legs.insert(id, Leg { req: ri, server, submitted_at: now });
        *rt.outstanding.entry(server).or_insert(0) += 1;
        admitted[ci] += 1;
        if let Some(h) = &spec.hedge {
            if c.hedge {
                let s = &rt.lat[ci];
                let delay = if s.count() >= h.min_samples {
                    s.quantile(h.quantile).max(1)
                } else {
                    h.bootstrap.max(1)
                };
                rt.hedge_due.entry(now + delay).or_default().push(ri);
            }
        }
    }

    // Drain phase 1: every admitted request settles (probes keep
    // cycling so mid-drain crashes are still detected).
    while rt.gateway.in_flight_total() > 0 {
        rt.step(m, &mut eng, u64::MAX);
    }
    // Drain phase 2: stop probing, discard in-flight probe verdicts
    // (a post-run ejection would be noise), and let the engine empty.
    if let Some(ds) = rt.det.as_mut() {
        ds.active = false;
        let ids: Vec<OpId> = ds.outstanding.keys().copied().collect();
        ds.outstanding.clear();
        for id in ids {
            eng.cancel(m, id);
        }
    }
    while eng.unfinished() > 0 {
        eng.pump_until(m, u64::MAX);
        rt.harvest(m, &mut eng);
    }
    rt.harvest(m, &mut eng);
    let elapsed_cycles = clock(m) - start;

    let mut re_execs = vec![0u64; nclasses];
    for (&id, leg) in &rt.legs {
        re_execs[rt.reqs[leg.req].ci] += u64::from(eng.recovery_executions(id));
    }
    let backpressure = m.network().borrow().stats().backpressure;
    let classes = spec
        .classes
        .iter()
        .enumerate()
        .map(|(ci, c)| ClassOutcome {
            name: c.name,
            class: c.class,
            offered: c.requests,
            admitted: admitted[ci],
            shed: rt.gateway.shed(ci),
            breaker_shed: rt.gateway.breaker_shed(ci),
            completed: rt.completed[ci],
            failed: rt.failed[ci],
            re_executions: re_execs[ci],
            budget_denied: eng.retry_budget_denied(c.class),
            hedges: rt.hedges[ci],
            hedge_wins: rt.hedge_wins[ci],
            completion: rt.lat[ci],
            bill: eng.class_bill(c.class) + rt.gateway.bill(ci),
        })
        .collect();
    let handler_runs = pool.runs();
    let dup_suppressed = pool.dup_suppressed();
    drop(pool);
    let (probes, probe_failures, ejections, reinstatements, det_bill) =
        rt.det.as_ref().map_or((0, 0, 0, 0, CostVector::new()), |ds| {
            (ds.probes, ds.failures, ds.ejections, ds.reinstatements, ds.bill.clone())
        });
    ServiceOutcome {
        classes,
        elapsed_cycles,
        peak_in_flight: rt.gateway.peak_in_flight(),
        peak_per_gateway: rt.gateway.peak_per_gateway(),
        in_flight_at_end: rt.gateway.in_flight_total(),
        backpressure,
        handler_runs,
        dup_suppressed,
        probes,
        probe_failures,
        ejections,
        reinstatements,
        detector_bill: det_bill + eng.class_bill(DETECTOR_CLASS),
        pumps: eng.counters().quanta,
        late_arrivals,
    }
}

/// A serving machine on the parallel sharded substrate: `nodes`
/// endpoints on deterministic-routing fat-tree shards (the PR 8 server
/// pool backbone) with server-grade queue depths — many replies
/// converge on few gateways, so the substrate carries 64-deep rx
/// queues (see [`scenarios::cm5_sharded_serving`]). Results depend on
/// `shards`, never on `threads`.
#[must_use]
pub fn serving_machine(nodes: usize, shards: usize, threads: usize, seed: u64) -> Machine {
    let net: ShardedNetwork = scenarios::cm5_sharded_serving(nodes, shards, threads, seed);
    Machine::new(timego_ni::share(net), nodes, CmamConfig::default())
}

/// The chaos counterpart of [`serving_machine`]: same sharded fat-tree
/// pool with a fault plane (crash windows land on the shard owning the
/// node).
#[must_use]
pub fn serving_machine_chaos(
    nodes: usize,
    shards: usize,
    threads: usize,
    fault: FaultConfig,
    seed: u64,
) -> Machine {
    let net = scenarios::cm5_sharded_chaos(nodes, shards, threads, fault, seed);
    Machine::new(timego_ni::share(net), nodes, CmamConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn servers(lo: usize, count: usize) -> Vec<NodeId> {
        (lo..lo + count).map(n).collect()
    }

    /// An idle load view for tests that don't exercise load signals.
    macro_rules! idle_view {
        ($loads:ident, $ewma:ident, $view:ident) => {
            let $loads: BTreeMap<NodeId, usize> = BTreeMap::new();
            let $ewma: BTreeMap<NodeId, u64> = BTreeMap::new();
            let $view = LoadView::new(&$loads, &$ewma);
        };
    }

    #[test]
    fn round_robin_is_fair_over_a_full_rotation() {
        let pool = servers(4, 5);
        let mut b = Balancer::new(BalancerPolicy::RoundRobin, &pool, 1);
        idle_view!(loads, ewma, view);
        // Three full rotations: every server picked exactly three
        // times, in pool order, regardless of keys.
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for k in 0..15u64 {
            let s = b.pick(splitmix64(k), &view);
            assert_eq!(s, pool[(k % 5) as usize], "rotation order at pick {k}");
            *counts.entry(s).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 3), "fair rotation: {counts:?}");
    }

    #[test]
    fn least_loaded_tie_breaks_to_lowest_node_id_deterministically() {
        let pool = servers(10, 4);
        let mut b = Balancer::new(BalancerPolicy::LeastLoaded, &pool, 2);
        let mut loads = BTreeMap::new();
        let ewma = BTreeMap::new();
        // All idle: the lowest node id wins, every time.
        for k in 0..8u64 {
            let view = LoadView::new(&loads, &ewma);
            assert_eq!(b.pick(k, &view).index(), 10, "all-idle tie at pick {k}");
        }
        // Tie between 11 and 13 at load 1 (10 and 12 busier): 11 wins.
        loads.insert(n(10), 3);
        loads.insert(n(11), 1);
        loads.insert(n(12), 2);
        loads.insert(n(13), 1);
        for k in 0..8u64 {
            let view = LoadView::new(&loads, &ewma);
            assert_eq!(b.pick(k, &view).index(), 11, "two-way tie at pick {k}");
        }
        // Strictly least-loaded server wins when unique.
        loads.insert(n(13), 0);
        let view = LoadView::new(&loads, &ewma);
        assert_eq!(b.pick(99, &view).index(), 13);
    }

    #[test]
    fn latency_ewma_prefers_measured_fast_servers_and_tie_breaks_low() {
        let pool = servers(20, 4);
        let mut b = Balancer::new(BalancerPolicy::LatencyEwma, &pool, 3);
        let loads = BTreeMap::new();
        let mut ewma = BTreeMap::new();
        // No samples anywhere: all tie at "unsampled" and the lowest
        // node id wins, deterministically.
        for k in 0..6u64 {
            let view = LoadView::new(&loads, &ewma);
            assert_eq!(b.pick(k, &view).index(), 20, "unsampled tie at pick {k}");
        }
        // Measured EWMAs rule: 22 is the fastest sampled server, but an
        // unsampled server (21) still counts as fastest of all — cold
        // servers get probed with real traffic.
        ewma.insert(n(20), 900);
        ewma.insert(n(22), 300);
        ewma.insert(n(23), 700);
        let view = LoadView::new(&loads, &ewma);
        assert_eq!(b.pick(0, &view).index(), 21, "cold server probes first");
        ewma.insert(n(21), 500);
        for k in 0..6u64 {
            let view = LoadView::new(&loads, &ewma);
            assert_eq!(b.pick(k, &view).index(), 22, "fastest EWMA at pick {k}");
        }
        // Exact EWMA tie: lowest node id, every time.
        ewma.insert(n(21), 300);
        for k in 0..6u64 {
            let view = LoadView::new(&loads, &ewma);
            assert_eq!(b.pick(k, &view).index(), 21, "EWMA tie at pick {k}");
        }
        // Load is irrelevant to this policy.
        let mut heavy = BTreeMap::new();
        heavy.insert(n(21), 100usize);
        let view = LoadView::new(&heavy, &ewma);
        assert_eq!(b.pick(7, &view).index(), 21);
    }

    #[test]
    fn random_policy_reaches_every_server() {
        let pool = servers(0, 6);
        let mut b = Balancer::new(BalancerPolicy::Random, &pool, 42);
        idle_view!(loads, ewma, view);
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for k in 0..600u64 {
            *counts.entry(b.pick(k, &view)).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 6, "every server reached");
        // Seeded determinism: a fresh balancer with the same seed
        // repeats the sequence exactly.
        let mut b2 = Balancer::new(BalancerPolicy::Random, &pool, 42);
        let mut b3 = Balancer::new(BalancerPolicy::Random, &pool, 42);
        for k in 0..50u64 {
            assert_eq!(b2.pick(k, &view), b3.pick(k, &view));
        }
    }

    #[test]
    fn consistent_hash_add_moves_at_most_one_nth_of_keys() {
        const KEYS: u64 = 4000;
        let pool = servers(0, 8);
        idle_view!(loads, ewma, view);
        let mut before = Balancer::new(BalancerPolicy::ConsistentHash { vnodes: 128 }, &pool, 3);
        let owners: Vec<NodeId> = (0..KEYS).map(|k| before.pick(k, &view)).collect();

        // Recruit a ninth server: only arcs the new points capture may
        // move, and every moved key must land on the recruit.
        let mut after = before.clone();
        after.add_server(n(100));
        let mut moved = 0u64;
        for k in 0..KEYS {
            let now = after.pick(k, &view);
            if now != owners[k as usize] {
                moved += 1;
                assert_eq!(now.index(), 100, "key {k} moved to a non-recruit");
            }
        }
        assert!(moved > 0, "a recruit must take over some arcs");
        assert!(
            moved <= KEYS / pool.len() as u64,
            "add moved {moved} of {KEYS} keys over {} servers",
            pool.len()
        );

        // Retire one original server: exactly its keys move.
        let mut retired = before.clone();
        retired.remove_server(pool[3]);
        let mut moved = 0u64;
        for k in 0..KEYS {
            let now = retired.pick(k, &view);
            if now != owners[k as usize] {
                moved += 1;
                assert_eq!(
                    owners[k as usize],
                    pool[3],
                    "key {k} moved without its server retiring"
                );
            }
        }
        assert!(moved > 0);
        assert!(
            moved <= KEYS * 2 / pool.len() as u64,
            "remove moved {moved} of {KEYS} keys over {} servers",
            pool.len()
        );
    }

    #[test]
    fn consistent_hash_is_stable_per_key() {
        let pool = servers(0, 5);
        idle_view!(loads, ewma, view);
        let mut b = Balancer::new(BalancerPolicy::ConsistentHash { vnodes: 64 }, &pool, 9);
        for k in (0..200u64).step_by(7) {
            let first = b.pick(k, &view);
            for _ in 0..3 {
                assert_eq!(b.pick(k, &view), first, "key {k} must be sticky");
            }
        }
    }

    #[test]
    fn eject_and_reinstate_are_ownership_neutral() {
        const KEYS: u64 = 2000;
        let pool = servers(0, 6);
        idle_view!(loads, ewma, view);
        let mut b = Balancer::new(BalancerPolicy::ConsistentHash { vnodes: 64 }, &pool, 5);
        let owners: Vec<NodeId> = (0..KEYS).map(|k| b.pick(k, &view)).collect();

        // Eject: the victim's keys move, nothing else does, and no key
        // routes at the corpse.
        assert!(b.eject(pool[2]));
        assert!(!b.eject(pool[2]), "double eject is a no-op");
        assert!(b.is_ejected(pool[2]));
        assert!(b.is_member(pool[2]), "ejection is health, not membership");
        assert_eq!(b.live_count(), 5);
        for k in 0..KEYS {
            let now = b.pick(k, &view);
            assert_ne!(now, pool[2], "key {k} routed at an ejected server");
            if owners[k as usize] != pool[2] {
                assert_eq!(now, owners[k as usize], "key {k} moved needlessly");
            }
        }
        // Reinstate: the exact pre-ejection ownership returns (ring
        // points are a pure function of server and vnode).
        assert!(b.reinstate(pool[2]));
        assert!(!b.reinstate(pool[2]), "double reinstate is a no-op");
        for k in 0..KEYS {
            assert_eq!(b.pick(k, &view), owners[k as usize], "key {k} after recovery");
        }

        // Scan policies skip ejected servers too.
        let mut ll = Balancer::new(BalancerPolicy::LeastLoaded, &pool, 6);
        ll.eject(pool[0]);
        assert_eq!(ll.pick(0, &view), pool[1], "least-loaded skips the ejected head");
        // pick_hedge avoids both the primary and the ejected.
        assert_eq!(ll.pick_hedge(pool[1], &view), Some(pool[2]));
        ll.eject(pool[2]);
        assert_eq!(ll.pick_hedge(pool[1], &view), Some(pool[3]));
    }

    #[test]
    fn all_ejected_pool_degrades_to_members_instead_of_panicking() {
        let pool = servers(0, 3);
        idle_view!(loads, ewma, view);
        for policy in [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::LeastLoaded,
            BalancerPolicy::LatencyEwma,
            BalancerPolicy::ConsistentHash { vnodes: 16 },
        ] {
            let mut b = Balancer::new(policy, &pool, 8);
            for &s in &pool {
                b.eject(s);
            }
            assert_eq!(b.live_count(), 0);
            // Degraded routing still lands on a member.
            let s = b.pick(17, &view);
            assert!(pool.contains(&s), "{policy:?} fell off the member set");
            // No healthy hedge target exists.
            assert_eq!(b.pick_hedge(s, &view), None, "{policy:?}");
        }
    }

    #[test]
    fn removing_an_ejected_migration_target_is_safe() {
        // Regression: the failure detector ejects a server, then a
        // migration retires it. The remove must purge the ejection
        // bookkeeping so (a) routing never panics, (b) nothing routes
        // to it, and (c) a later recruit of the same node starts
        // fresh with exactly its vnodes ring points.
        let pool = servers(0, 4);
        idle_view!(loads, ewma, view);
        let mut b = Balancer::new(BalancerPolicy::ConsistentHash { vnodes: 32 }, &pool, 4);
        assert!(b.eject(pool[1]));
        b.remove_server(pool[1]);
        assert!(!b.is_member(pool[1]));
        assert!(!b.is_ejected(pool[1]), "remove purges ejection state");
        assert_eq!(b.live_count(), 3);
        for k in 0..500u64 {
            assert_ne!(b.pick(k, &view), pool[1], "key {k} routed at a removed server");
        }
        // Re-recruit the same node: it is healthy, owns arcs again, and
        // carries exactly one point set (no double insertion).
        b.add_server(pool[1]);
        assert!(b.is_member(pool[1]) && !b.is_ejected(pool[1]));
        assert_eq!(b.ring.iter().filter(|&&(_, s)| s == pool[1]).count(), 32);
        assert!((0..500u64).any(|k| b.pick(k, &view) == pool[1]), "recruit owns arcs");
        // And recruiting an *ejected* member is a reinstate, not a
        // duplicate membership.
        assert!(b.eject(pool[2]));
        b.add_server(pool[2]);
        assert!(!b.is_ejected(pool[2]), "add_server reinstates an ejected member");
        assert_eq!(b.servers().iter().filter(|&&s| s == pool[2]).count(), 1);
        assert_eq!(b.ring.iter().filter(|&&(_, s)| s == pool[2]).count(), 32);
    }

    #[test]
    fn splitmix_is_a_bijection_mixer() {
        // Spot-check: distinct inputs stay distinct, zero doesn't fix.
        assert_ne!(splitmix64(0), 0);
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000u64 {
            assert!(seen.insert(splitmix64(k)), "collision at {k}");
        }
    }

    #[test]
    fn small_service_run_conserves_and_completes() {
        let mut m = serving_machine(64, 2, 1, 11);
        let spec = ServiceSpec {
            gateways: vec![n(0), n(1)],
            servers: servers(8, 4),
            policy: BalancerPolicy::RoundRobin,
            window: AdmissionWindow::TierGlobal(64),
            classes: vec![
                QosClass::interactive(96, 30, 600_000),
                QosClass::batch(160, 20),
            ],
            seed: 5,
            ..ServiceSpec::default()
        };
        let out = run_service(&mut m, &spec);
        assert_eq!(out.in_flight_at_end, 0, "drained");
        for c in &out.classes {
            assert_eq!(c.offered, c.admitted + c.shed, "conservation ({})", c.name);
            assert_eq!(c.admitted, c.completed + c.failed, "conservation ({})", c.name);
            assert_eq!(c.shed, 0, "light load must not shed ({})", c.name);
            assert_eq!(c.failed, 0, "light load must not fail ({})", c.name);
            assert_eq!(c.completion.count() as usize, c.admitted);
            assert!(c.bill.total() > 0, "class {} billed nothing", c.name);
            assert_eq!(c.hedges, 0, "hedging disarmed");
        }
        assert_eq!(out.probes, 0, "detector disarmed");
        assert_eq!(out.dup_suppressed, 0);
        assert!(out.goodput_per_kcycle() > 0.0);
    }

    #[test]
    fn clean_run_with_full_failure_domain_stays_conserved() {
        // Detector + hedging + breaker armed on a healthy pool: probes
        // cycle and bill FaultTol, nothing is ejected, the breaker
        // never trips, and conservation holds with hedge legs deduped.
        let mut m = serving_machine(64, 2, 1, 17);
        let spec = ServiceSpec {
            gateways: vec![n(0), n(1)],
            servers: servers(8, 4),
            policy: BalancerPolicy::ConsistentHash { vnodes: 32 },
            window: AdmissionWindow::TierGlobal(64),
            classes: vec![
                QosClass::interactive(96, 40, 600_000),
                QosClass::batch(160, 20),
            ],
            detector: Some(DetectorSpec::default()),
            hedge: Some(HedgeSpec { quantile: 0.9, min_samples: 8, bootstrap: 4096 }),
            breaker: Some(BreakerSpec::default()),
            seed: 21,
            ..ServiceSpec::default()
        };
        let out = run_service(&mut m, &spec);
        assert_eq!(out.in_flight_at_end, 0, "drained");
        assert!(out.probes > 0, "detector probed");
        assert_eq!(out.ejections, 0, "healthy pool, no ejections");
        assert_eq!(out.probe_failures, 0, "healthy pool, no misses");
        assert!(out.detector_bill.total() > 0, "detection is not free");
        let total_runs: u64 = out.handler_runs.values().sum();
        let admitted: usize = out.classes.iter().map(|c| c.admitted).sum();
        assert_eq!(total_runs, admitted as u64, "exactly-once with hedging");
        for c in &out.classes {
            assert_eq!(c.offered, c.admitted + c.shed, "conservation ({})", c.name);
            assert_eq!(c.admitted, c.completed + c.failed, "conservation ({})", c.name);
            assert_eq!(c.breaker_shed, 0, "healthy pool, breaker closed");
            assert_eq!(c.completion.count() as usize, c.admitted);
        }
    }

    #[test]
    fn migration_mid_run_reshapes_the_pool_and_still_conserves() {
        let mut m = serving_machine(64, 2, 1, 13);
        let spec = ServiceSpec {
            gateways: vec![n(0)],
            servers: servers(8, 4),
            policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
            window: AdmissionWindow::TierGlobal(64),
            classes: vec![QosClass::batch(128, 40)],
            migration: Some(Migration { at: 0.5, retire: 2, recruit: vec![n(20), n(21)] }),
            seed: 7,
            ..ServiceSpec::default()
        };
        let out = run_service(&mut m, &spec);
        let c = &out.classes[0];
        assert_eq!(c.offered, c.admitted + c.shed);
        assert_eq!(c.admitted, c.completed + c.failed);
        assert_eq!(c.failed, 0, "retired servers must still answer in-flight work");
        assert_eq!(out.in_flight_at_end, 0);
    }
}
