//! One repetition of each workload: build the inputs from the seed,
//! build a fresh machine, run, check the outputs, report samples.
//!
//! Every layer is driven through its public functions only. A *plain*
//! repetition runs the bare substrate and yields the end-to-end
//! samples; a *traced* one wraps the substrate in
//! [`TimedNetwork`](crate::timed_net::TimedNetwork) and yields the
//! per-layer samples; a *profiled* one (engine workloads) turns on the
//! engine's own phase profiler.

use std::rc::Rc;

use timego_am::{
    measure_single_packet, CmamConfig, Engine, Machine, OpOutcome, RecoveryPolicy, RetryPolicy,
    SchedPhase, StreamConfig,
};
use timego_cost::{CostVector, Feature};
use timego_netsim::{CrashWindow, DeliveryScript, FaultConfig, Network, NodeId, ScriptedNetwork};
use timego_ni::{share, SharedNetwork};
use timego_workloads::patterns::Pattern;
use timego_workloads::service::{
    run_service, splitmix64, AdmissionWindow, BalancerPolicy, DetectorSpec, HedgeSpec, QosClass,
    ServiceOutcome, ServiceSpec,
};
use timego_workloads::{payloads, scenarios};

use crate::metrics::Workload;
use crate::timed_net::{NetProbe, TimedNetwork};
use crate::trace::{CallTotals, Recorder, SpanId};

/// Payload words per transfer on the engine workloads.
const XFER_WORDS: usize = 8;
/// Hardware packet payload, the CM-5's.
const PACKET_WORDS: usize = 4;

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Traced,
    Profiled,
    /// Build everything, time it, and stop before the run: one
    /// `setup_s` sample. Set-up is milliseconds and runs faster right
    /// after another set-up than right after a run, so `setup_s` comes
    /// only from back-to-back repetitions of this mode, never from the
    /// set-up phase of a full repetition.
    SetupOnly,
}

/// A serving tier and its load.
#[derive(Debug, Clone, Copy)]
pub struct ServingSize {
    pub nodes: usize,
    pub shards: usize,
    pub gateways: usize,
    pub servers: usize,
    /// Arrival interval and request count of the first class.
    pub interactive: (u64, usize),
    /// Arrival interval and request count of the batch class
    /// (`serving_policy` only).
    pub batch: (u64, usize),
}

/// Input sizes. `--seed` changes plans, payloads and keys, never these.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub perm_flat_nodes: usize,
    pub perm_sharded_nodes: usize,
    pub hotspot_nodes: usize,
    pub policy: ServingSize,
    pub failover: ServingSize,
    pub sweep_passes: usize,
    pub sweep_words: &'static [usize],
}

impl Sizes {
    /// The sizes the numbers in README.md were taken at.
    pub const FULL: Sizes = Sizes {
        perm_flat_nodes: 4096,
        perm_sharded_nodes: 16_384,
        hotspot_nodes: 1024,
        policy: ServingSize {
            nodes: 4096,
            shards: 4,
            gateways: 16,
            servers: 64,
            interactive: (4, 18_000),
            batch: (6, 12_000),
        },
        failover: ServingSize {
            nodes: 512,
            shards: 2,
            gateways: 4,
            servers: 8,
            interactive: (12, 15_000),
            batch: (0, 0),
        },
        sweep_passes: 100,
        sweep_words: &[16, 64, 256, 1024, 4096, 16_384],
    };

    /// Seconds-long sizes for the self-tests and a CI smoke run. Same
    /// code paths, same per-server load on the serving tiers.
    pub const SMOKE: Sizes = Sizes {
        perm_flat_nodes: 256,
        perm_sharded_nodes: 1024,
        hotspot_nodes: 64,
        policy: ServingSize {
            nodes: 512,
            shards: 2,
            gateways: 4,
            servers: 16,
            interactive: (16, 450),
            batch: (24, 300),
        },
        failover: ServingSize {
            nodes: 256,
            shards: 2,
            gateways: 4,
            servers: 8,
            interactive: (12, 5000),
            batch: (0, 0),
        },
        sweep_passes: 2,
        sweep_words: &[16, 1024],
    };
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// `(metric name, value)` samples.
    pub samples: Vec<(&'static str, f64)>,
    /// Operations offered: transfers, requests or messages.
    pub attempted: u64,
    /// Offered operations that did not complete with correct output.
    pub failed: u64,
    /// Hash of the deterministic outcome (steps, simulated cycles,
    /// packets delivered, or the service outcome's own signature):
    /// equal across repetitions, rounds and instrumentation modes.
    pub signature: u64,
    /// Output checks that failed, in words.
    pub problems: Vec<String>,
}

impl Rep {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }
}

/// Run one repetition of `w`. `divisor` shrinks the request counts of
/// the serving workloads (warm-up, and the half-size repetition behind
/// `scaling_exponent`); the others ignore it.
pub fn run_rep(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    mode: Mode,
    divisor: usize,
    rec: &mut Recorder,
) -> Rep {
    match w {
        Workload::PermFlat | Workload::PermSharded | Workload::Hotspot => {
            engine_rep(w, sizes, seed, mode, rec)
        }
        Workload::ServingPolicy | Workload::ServingFailover => {
            serving_rep(w, sizes, seed, mode, divisor, rec)
        }
        Workload::PaperSweep => sweep_rep(sizes, seed, mode, rec),
    }
}

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn range(lo: usize, count: usize) -> Vec<NodeId> {
    (lo..lo + count).map(n).collect()
}

fn mix(acc: u64, v: u64) -> u64 {
    splitmix64(acc ^ v)
}

/// Share the substrate, wrapped in the decorator when traced. `timing`
/// false makes the decorator count calls without timing them.
fn shared<N: Network + 'static>(
    net: N,
    probe: Option<&Rc<NetProbe>>,
    rec: &Recorder,
    timing: bool,
) -> SharedNetwork {
    match probe {
        Some(p) => share(TimedNetwork::new(net, Rc::clone(p), rec.epoch(), timing)),
        None => share(net),
    }
}

/// The decorator's timed totals at one moment.
#[derive(Debug, Clone, Copy, Default)]
struct NetTotals {
    advance: CallTotals,
    inject: CallTotals,
    receive: CallTotals,
    take_delivered: CallTotals,
}

impl NetTotals {
    fn read(probe: &NetProbe) -> Self {
        NetTotals {
            advance: probe.advance.totals(),
            inject: probe.inject.totals(),
            receive: probe.receive.totals(),
            take_delivered: probe.take_delivered.totals(),
        }
    }

    fn since(&self, earlier: &NetTotals) -> NetTotals {
        NetTotals {
            advance: self.advance.since(&earlier.advance),
            inject: self.inject.since(&earlier.inject),
            receive: self.receive.since(&earlier.receive),
            take_delivered: self.take_delivered.since(&earlier.take_delivered),
        }
    }

    /// Summed time of the four timed methods.
    fn busy_ns(&self) -> u64 {
        self.advance.busy_ns
            + self.inject.busy_ns
            + self.receive.busy_ns
            + self.take_delivered.busy_ns
    }

    /// Record the four aggregates as children of `parent`.
    fn record_under(&self, rec: &mut Recorder, parent: SpanId) {
        rec.aggregate(parent, "netsim.advance", &self.advance);
        rec.aggregate(parent, "netsim.inject", &self.inject);
        rec.aggregate(parent, "netsim.receive", &self.receive);
        rec.aggregate(parent, "netsim.take_delivered", &self.take_delivered);
    }
}

/// Substrate-side counters that are not call timings.
#[derive(Debug, Clone, Copy, Default)]
struct NetCounts {
    delivered: u64,
    backpressure: u64,
    crash_drops: u64,
}

impl NetCounts {
    fn of(m: &Machine) -> Self {
        let net = m.network().borrow();
        let s = net.stats();
        NetCounts {
            delivered: s.delivered,
            backpressure: s.backpressure,
            crash_drops: s.crash_drops,
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `netsim.*` samples of a traced repetition whose root span
/// (`Engine::run`, `run_service` or the sweep) lasted `root_s`.
fn push_netsim(rep: &mut Rep, probe: &NetProbe, t: &NetTotals, counts: &NetCounts, root_s: f64) {
    let cycles = probe.advance_cycles.get();
    rep.push("netsim.advance_s", secs(t.advance.busy_ns));
    rep.push("netsim.advance_calls", t.advance.calls as f64);
    rep.push("netsim.advance_cycles", cycles as f64);
    rep.push(
        "netsim.ns_per_advance_cycle",
        ratio(t.advance.busy_ns as f64, cycles as f64),
    );
    rep.push("netsim.inject_s", secs(t.inject.busy_ns));
    rep.push("netsim.inject_calls", t.inject.calls as f64);
    rep.push("netsim.inject_refused", probe.inject_refused.get() as f64);
    rep.push("netsim.receive_s", secs(t.receive.busy_ns));
    rep.push("netsim.receive_calls", t.receive.calls as f64);
    rep.push("netsim.take_delivered_s", secs(t.take_delivered.busy_ns));
    rep.push("netsim.take_delivered_calls", t.take_delivered.calls as f64);
    rep.push("netsim.rx_peek_calls", probe.rx_peek_calls.get() as f64);
    rep.push(
        "netsim.rx_pending_calls",
        probe.rx_pending_calls.get() as f64,
    );
    rep.push("netsim.share", ratio(secs(t.busy_ns()), root_s));
    rep.push("netsim.delivered", counts.delivered as f64);
    rep.push("netsim.backpressure", counts.backpressure as f64);
    rep.push("netsim.crash_drops", counts.crash_drops as f64);
}

/// The `cost.*` samples: modelled instructions by feature column.
fn push_cost(rep: &mut Rep, bill: &CostVector) {
    rep.push("cost.instr_total", bill.total() as f64);
    rep.push("cost.base", bill.feature_total(Feature::Base) as f64);
    rep.push(
        "cost.buffer_mgmt",
        bill.feature_total(Feature::BufferMgmt) as f64,
    );
    rep.push("cost.in_order", bill.feature_total(Feature::InOrder) as f64);
    rep.push(
        "cost.fault_tol",
        bill.feature_total(Feature::FaultTol) as f64,
    );
    rep.push("cost.overhead_share", bill.overhead_fraction());
}

/// Every node recorder of `m`, summed.
fn machine_bill(m: &Machine) -> CostVector {
    (0..m.num_nodes()).fold(CostVector::new(), |acc, i| acc + m.cpu(n(i)).snapshot())
}

/// The samples every repetition reports, whatever its mode.
fn push_end_to_end(
    rep: &mut Rep,
    wall_s: f64,
    completed: u64,
    packets: u64,
    sim_cycles: Option<u64>,
) {
    rep.push("wall_s", wall_s);
    rep.push("ops_per_s", ratio(completed as f64, wall_s));
    rep.push("packets_per_s", ratio(packets as f64, wall_s));
    if let Some(c) = sim_cycles {
        rep.push("sim_cycles_per_s", ratio(c as f64, wall_s));
        rep.push("sim_cycles", c as f64);
    }
}

// ---------------------------------------------------------------------
// perm_flat / perm_sharded / hotspot: one engine, all transfers at once
// ---------------------------------------------------------------------

fn engine_rep(w: Workload, sizes: &Sizes, seed: u64, mode: Mode, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let probe = (mode == Mode::Traced).then(|| Rc::new(NetProbe::default()));

    let setup = rec.open("bench.setup");
    let (nodes, pattern) = match w {
        Workload::PermFlat => (sizes.perm_flat_nodes, Pattern::RandomPermutation(seed)),
        Workload::PermSharded => (sizes.perm_sharded_nodes, Pattern::RandomPermutation(seed)),
        _ => (sizes.hotspot_nodes, Pattern::Hotspot),
    };
    let plan: Vec<(NodeId, NodeId, Vec<u32>)> = pattern
        .pairs(nodes)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            (
                src,
                dst,
                payloads::mixed(XFER_WORDS, seed.wrapping_add(i as u64)),
            )
        })
        .collect();
    let net = if w == Workload::PermSharded {
        // 4 shards stepped by 2 worker threads: the sandbox has 2 cores.
        shared(
            scenarios::cm5_sharded(nodes, 4, 2, seed),
            probe.as_ref(),
            rec,
            true,
        )
    } else {
        shared(
            scenarios::cm5_deterministic(nodes, seed),
            probe.as_ref(),
            rec,
            true,
        )
    };
    let mut m = Machine::new(net, nodes, CmamConfig::default());
    let mut eng = Engine::new();
    if mode == Mode::Profiled {
        eng.enable_profiling(1 << 16);
    }
    let submit = rec.open("core.engine.submit");
    let ids: Vec<_> = plan
        .iter()
        .map(|(src, dst, data)| {
            eng.submit_xfer(&m, *src, *dst, data)
                .expect("non-empty payload")
        })
        .collect();
    rec.close(submit);
    rec.close(setup);
    if mode == Mode::SetupOnly {
        rep.push("setup_s", rec.busy_s(setup));
        return rep;
    }

    let before = probe.as_deref().map(NetTotals::read).unwrap_or_default();
    let start_cycles = m.network().borrow().now().cycles();
    let run = rec.open("core.engine.run");
    eng.run(&mut m);
    rec.close(run);
    let sim_cycles = m.network().borrow().now().cycles() - start_cycles;

    // Word-exact destination buffers for every transfer.
    let mut completed = 0u64;
    for (id, (_, dst, data)) in ids.into_iter().zip(&plan) {
        match eng.take_outcome(id) {
            Some(Ok(OpOutcome::Xfer(x)))
                if m.read_buffer(*dst, x.dst_buffer, data.len()) == *data =>
            {
                completed += 1;
            }
            _ => {}
        }
    }
    rep.attempted = plan.len() as u64;
    rep.failed = rep.attempted - completed;

    let c = *eng.counters();
    let counts = NetCounts::of(&m);
    rep.signature = mix(mix(mix(0, c.steps), sim_cycles), counts.delivered);
    let wall_s = rec.busy_s(run);
    push_end_to_end(
        &mut rep,
        wall_s,
        completed,
        counts.delivered,
        Some(sim_cycles),
    );

    if let Some(probe) = &probe {
        let totals = NetTotals::read(probe).since(&before);
        totals.record_under(rec, run);
        push_netsim(&mut rep, probe, &totals, &counts, wall_s);
        rep.push("core.engine.run_s", wall_s);
        rep.push("core.engine.self_s", rec.self_s(run));
        rep.push("core.engine.submit_s", rec.busy_s(submit));
        rep.push("core.engine.steps", c.steps as f64);
        rep.push("core.engine.passes", c.passes as f64);
        rep.push("core.engine.quanta", c.quanta as f64);
        rep.push("core.engine.advances", c.advances as f64);
        rep.push("core.engine.timer_wakes", c.timer_wakes as f64);
        rep.push("core.engine.packet_wakes", c.packet_wakes as f64);
        rep.push("core.engine.idle_jumps", c.idle_jumps as f64);
        rep.push("core.engine.jumped_cycles", c.jumped_cycles as f64);
        rep.push("core.engine.trace_events", eng.trace().len() as f64);
        rep.push(
            "core.engine.ns_per_step",
            ratio(wall_s * 1e9, c.steps as f64),
        );
        push_cost(&mut rep, &machine_bill(&m));
    }
    if let Some(p) = eng.profiler_mut() {
        p.flush();
        let totals = p.totals();
        let all: u64 = totals.iter().map(|t| t.total_ns).sum();
        for (phase, t) in SchedPhase::ALL.iter().zip(totals) {
            let name = match phase {
                SchedPhase::ReadyPop => "core.engine.phase.ready_pop_share",
                SchedPhase::OpStep => "core.engine.phase.op_step_share",
                SchedPhase::WheelAdvance => "core.engine.phase.wheel_advance_share",
                SchedPhase::SubstrateStep => "core.engine.phase.substrate_step_share",
            };
            rep.push(name, ratio(t.total_ns as f64, all as f64));
        }
    }
    rep
}

// ---------------------------------------------------------------------
// serving_policy / serving_failover: the open-loop service driver
// ---------------------------------------------------------------------

/// The failover population: interactive-shaped (small work, hedged)
/// but recovery-armed and deadline-free, so every admitted request
/// settles and exactly-once stays checkable under crash windows.
fn failover_class(interval: u64, requests: usize) -> QosClass {
    QosClass {
        name: "interactive",
        class: 0,
        interval,
        requests,
        work: 4,
        deadline: None,
        recovery: Some(RecoveryPolicy::default()),
        retry: RetryPolicy::default(),
        hedge: true,
        sheddable: true,
        retry_budget: None,
    }
}

fn serving_spec(w: Workload, s: &ServingSize, seed: u64, divisor: usize) -> ServiceSpec {
    let (i_interval, i_requests) = (s.interactive.0, s.interactive.1 / divisor);
    let failover = w == Workload::ServingFailover;
    ServiceSpec {
        gateways: range(0, s.gateways),
        servers: range(s.gateways, s.servers),
        policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
        window: AdmissionWindow::TierGlobal(4 * s.servers),
        classes: if failover {
            vec![failover_class(i_interval, i_requests)]
        } else {
            vec![
                QosClass::interactive(i_interval, i_requests, 1 << 20),
                QosClass::batch(s.batch.0, s.batch.1 / divisor),
            ]
        },
        detector: failover.then_some(DetectorSpec {
            period: 600,
            timeout: 500,
            threshold: 2,
        }),
        hedge: failover.then_some(HedgeSpec {
            quantile: 0.95,
            min_samples: 32,
            bootstrap: 2048,
        }),
        seed,
        ..ServiceSpec::default()
    }
}

/// Four crash-restart windows: server `k` is dark for the middle half
/// of the `k`-th quarter of the arrival span.
fn failover_faults(s: &ServingSize, divisor: usize) -> FaultConfig {
    let span = s.interactive.0 * (s.interactive.1 / divisor) as u64;
    let quarter = span / 4;
    FaultConfig {
        crashes: (0..4u64)
            .map(|k| CrashWindow {
                node: n(s.gateways + k as usize),
                start: k * quarter + quarter / 4,
                end: k * quarter + 3 * quarter / 4,
            })
            .collect(),
        ..FaultConfig::default()
    }
}

fn check_conservation(out: &ServiceOutcome, problems: &mut Vec<String>) {
    for c in &out.classes {
        if c.offered != c.admitted + c.shed {
            problems.push(format!("{}: offered != admitted + shed", c.name));
        }
        if c.admitted != c.completed + c.failed {
            problems.push(format!("{}: admitted != completed + failed", c.name));
        }
    }
    let admitted: u64 = out.classes.iter().map(|c| c.admitted as u64).sum();
    let runs: u64 = out.handler_runs.values().sum();
    if runs != admitted {
        problems.push(format!("handler_runs {runs} != admitted {admitted}"));
    }
    if out.in_flight_at_end != 0 {
        problems.push(format!(
            "{} requests in flight at end",
            out.in_flight_at_end
        ));
    }
}

fn serving_rep(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    mode: Mode,
    divisor: usize,
    rec: &mut Recorder,
) -> Rep {
    let mut rep = Rep::default();
    let probe = (mode == Mode::Traced).then(|| Rc::new(NetProbe::default()));

    let setup = rec.open("bench.setup");
    let s = if w == Workload::ServingFailover {
        &sizes.failover
    } else {
        &sizes.policy
    };
    // One worker thread: the service driver is the subject here, and
    // results never depend on the thread count.
    let net = if w == Workload::ServingFailover {
        let faults = failover_faults(s, divisor);
        shared(
            scenarios::cm5_sharded_chaos(s.nodes, s.shards, 1, faults, seed),
            probe.as_ref(),
            rec,
            true,
        )
    } else {
        shared(
            scenarios::cm5_sharded_serving(s.nodes, s.shards, 1, seed),
            probe.as_ref(),
            rec,
            true,
        )
    };
    let mut m = Machine::new(net, s.nodes, CmamConfig::default());
    let spec = serving_spec(w, s, seed, divisor);
    rec.close(setup);
    if mode == Mode::SetupOnly {
        rep.push("setup_s", rec.busy_s(setup));
        return rep;
    }

    let run = rec.open("workloads.service.run");
    let out = run_service(&mut m, &spec);
    rec.close(run);

    check_conservation(&out, &mut rep.problems);
    let sum = |f: fn(&timego_workloads::service::ClassOutcome) -> u64| -> u64 {
        out.classes.iter().map(f).sum()
    };
    let completed = sum(|c| c.completed as u64);
    rep.attempted = sum(|c| c.offered as u64);
    // Shed or refused counts as failed.
    rep.failed = rep.attempted - completed;
    rep.signature = out.signature();

    let counts = NetCounts::of(&m);
    let wall_s = rec.busy_s(run);
    push_end_to_end(
        &mut rep,
        wall_s,
        completed,
        counts.delivered,
        Some(out.elapsed_cycles),
    );
    // Tail of the first (latency-sensitive) class: 18 000 and 15 000
    // requests leave at least 15 samples beyond p999.
    let tail = &out.classes[0].completion;
    rep.push("sim_p99_cycles", tail.quantile(0.99) as f64);
    rep.push("sim_p999_cycles", tail.quantile(0.999) as f64);

    if let Some(probe) = &probe {
        let totals = NetTotals::read(probe);
        totals.record_under(rec, run);
        push_netsim(&mut rep, probe, &totals, &counts, wall_s);
        rep.push("workloads.service.run_s", wall_s);
        rep.push("workloads.service.self_s", rec.self_s(run));
        rep.push(
            "workloads.service.us_per_request",
            ratio(wall_s * 1e6, rep.attempted as f64),
        );
        rep.push("workloads.service.offered", rep.attempted as f64);
        rep.push(
            "workloads.service.admitted",
            sum(|c| c.admitted as u64) as f64,
        );
        rep.push("workloads.service.shed", sum(|c| c.shed as u64) as f64);
        rep.push("workloads.service.completed", completed as f64);
        rep.push("workloads.service.failed", sum(|c| c.failed as u64) as f64);
        rep.push(
            "workloads.service.re_executions",
            sum(|c| c.re_executions) as f64,
        );
        rep.push("workloads.service.hedges", sum(|c| c.hedges as u64) as f64);
        rep.push(
            "workloads.service.hedge_wins",
            sum(|c| c.hedge_wins as u64) as f64,
        );
        rep.push("workloads.service.probes", out.probes as f64);
        rep.push(
            "workloads.service.probe_failures",
            out.probe_failures as f64,
        );
        rep.push("workloads.service.ejections", out.ejections as f64);
        rep.push(
            "workloads.service.reinstatements",
            out.reinstatements as f64,
        );
        rep.push(
            "workloads.service.handler_runs",
            out.handler_runs.values().sum::<u64>() as f64,
        );
        rep.push(
            "workloads.service.dup_suppressed",
            out.dup_suppressed as f64,
        );
        rep.push(
            "workloads.service.peak_in_flight",
            out.peak_in_flight as f64,
        );
        push_cost(&mut rep, &machine_bill(&m));
    }
    rep
}

// ---------------------------------------------------------------------
// paper_sweep: the blocking protocols over the scripted substrate
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Xfer,
    Stream,
    HlXfer,
    HlStream,
}

impl Family {
    const ALL: [Family; 4] = [
        Family::Xfer,
        Family::Stream,
        Family::HlXfer,
        Family::HlStream,
    ];

    fn span(self) -> &'static str {
        match self {
            Family::Xfer => "core.xfer",
            Family::Stream => "core.stream",
            Family::HlXfer => "core.hl_xfer",
            Family::HlStream => "core.hl_stream",
        }
    }

    fn metrics(self) -> (&'static str, &'static str) {
        match self {
            Family::Xfer => ("core.xfer_s", "core.xfer_ns_per_instr"),
            Family::Stream => ("core.stream_s", "core.stream_ns_per_instr"),
            Family::HlXfer => ("core.hl_xfer_s", "core.hl_xfer_ns_per_instr"),
            Family::HlStream => ("core.hl_stream_s", "core.hl_stream_ns_per_instr"),
        }
    }

    /// The paper's measurement substrate: in order, except that the
    /// indefinite-sequence protocol sees exactly half its packets out
    /// of order (Table 2's assumption).
    fn script(self) -> DeliveryScript {
        match self {
            Family::Stream => DeliveryScript::AlternateSwap,
            _ => DeliveryScript::InOrder,
        }
    }

    /// The paper's grand totals this family must reproduce at 16 and
    /// 1024 words (Tables 2 and 3, Figure 6).
    fn pinned(self, words: usize) -> Option<u64> {
        match (self, words) {
            (Family::Xfer, 16) => Some(397),
            (Family::Xfer, 1024) => Some(11_737),
            (Family::Stream, 16) => Some(481),
            (Family::Stream, 1024) => Some(29_965),
            (Family::HlStream, 16) => Some(149),
            (Family::HlStream, 1024) => Some(8717),
            _ => None,
        }
    }
}

/// Run one message of `family` on its prepared two-node machine and
/// check that the words arrived. Mirrors `timego_am::measure_*`, with
/// a seeded payload and a substrate the harness can wrap.
fn sweep_message(family: Family, m: &mut Machine, data: &[u32]) -> bool {
    let (src, dst) = (n(0), n(1));
    match family {
        Family::Xfer => m
            .xfer(src, dst, data)
            .is_ok_and(|o| m.read_buffer(dst, o.dst_buffer, data.len()) == data),
        Family::HlXfer => m
            .hl_xfer(src, dst, data)
            .is_ok_and(|o| m.read_buffer(dst, o.dst_buffer, data.len()) == data),
        Family::Stream => {
            let id = m.open_stream(src, dst, StreamConfig::default());
            m.reset_costs();
            m.stream_send(id, data).is_ok() && m.stream_received(id) == data
        }
        Family::HlStream => m
            .hl_stream_send(src, dst, data)
            .is_ok_and(|got| got == data),
    }
}

fn sweep_rep(sizes: &Sizes, seed: u64, mode: Mode, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let probe = (mode == Mode::Traced).then(|| Rc::new(NetProbe::default()));

    // Set-up: the seeded payloads and one fresh two-node machine per
    // message, as the paper's measurements use.
    let setup = rec.open("bench.setup");
    let payloads: Vec<Vec<u32>> = sizes
        .sweep_words
        .iter()
        .map(|&words| payloads::mixed(words, seed ^ words as u64))
        .collect();
    let per_family = sizes.sweep_passes * sizes.sweep_words.len();
    let machines: Vec<Vec<Machine>> = Family::ALL
        .iter()
        .map(|f| {
            (0..per_family)
                .map(|_| {
                    // Count-only: the scripted substrate's calls cost less
                    // than the clock reads that would time them.
                    let net = shared(
                        ScriptedNetwork::new(2, f.script()),
                        probe.as_ref(),
                        rec,
                        false,
                    );
                    Machine::new(
                        net,
                        2,
                        CmamConfig {
                            packet_words: PACKET_WORDS,
                            ..CmamConfig::default()
                        },
                    )
                })
                .collect()
        })
        .collect();
    rec.close(setup);
    if mode == Mode::SetupOnly {
        rep.push("setup_s", rec.busy_s(setup));
        return rep;
    }

    let mut bill = CostVector::new();
    let mut packets = 0u64;
    let mut completed = 0u64;
    let mut mismatches = 0u64;
    let mut family_stats = Vec::new();
    let mut last = NetTotals::default();

    let root = rec.open("core.sweep");
    for (family, machines) in Family::ALL.into_iter().zip(machines) {
        let span = rec.open(family.span());
        let mut instr = 0u64;
        // Each machine is dropped as soon as its message is done, as
        // `timego_am::measure_*` does; keeping all 2400 alive would
        // make the benchmark's own hoard the peak RSS.
        for (i, mut m) in machines.into_iter().enumerate() {
            let words = sizes.sweep_words[i % sizes.sweep_words.len()];
            let data = &payloads[i % sizes.sweep_words.len()];
            m.reset_costs();
            if sweep_message(family, &mut m, data) {
                completed += 1;
            }
            let cost = m.cpu(n(0)).snapshot() + m.cpu(n(1)).snapshot();
            if family
                .pinned(words)
                .is_some_and(|expect| cost.total() != expect)
            {
                mismatches += 1;
            }
            instr += cost.total();
            bill += cost;
            packets += m.network().borrow().stats().delivered;
        }
        rec.close(span);
        if let Some(probe) = &probe {
            let now = NetTotals::read(probe);
            now.since(&last).record_under(rec, span);
            last = now;
        }
        family_stats.push((family, span, instr));
    }
    rec.close(root);
    if measure_single_packet().total() != 47 {
        mismatches += 1;
    }

    rep.attempted = (4 * per_family) as u64;
    rep.failed = rep.attempted - completed;
    if mismatches > 0 {
        rep.problems
            .push(format!("{mismatches} paper table cells not reproduced"));
    }
    rep.signature = mix(mix(mix(0, bill.total()), packets), completed);
    let wall_s = rec.busy_s(root);
    push_end_to_end(&mut rep, wall_s, completed, packets, None);
    rep.push("paper_table_mismatches", mismatches as f64);

    if let Some(probe) = &probe {
        let counts = NetCounts {
            delivered: packets,
            ..NetCounts::default()
        };
        push_netsim(&mut rep, probe, &last, &counts, wall_s);
        rep.push("core.sweep_s", wall_s);
        rep.push("core.self_s", wall_s - secs(last.busy_ns()));
        for (family, span, instr) in family_stats {
            let (seconds, per_instr) = family.metrics();
            rep.push(seconds, rec.busy_s(span));
            rep.push(per_instr, ratio(rec.busy_s(span) * 1e9, instr as f64));
        }
        push_cost(&mut rep, &bill);
    }
    rep
}
