//! Scheduler equivalence soak: the readiness-driven event scheduler
//! must be observationally identical to the retained reference
//! round-robin stepper.
//!
//! For every substrate {switched, wormhole, dual} × fault variant
//! {clean, dup+jitter, crash window} × 6 seeds, the same mixed workload
//! (reliable transfers with engine-native recovery, a stream burst,
//! retried RPCs, an am4 run-after chain) is driven to completion twice
//! — once under [`SchedMode::EventDriven`], once under
//! [`SchedMode::ReferenceRoundRobin`] — on identically-seeded machines,
//! and the runs must agree on:
//!
//! * the **full scheduler trace** ([`TracedEvent`] sequence, stamps
//!   included) — same progress interleaving at the same cycles;
//! * the **per-node, per-feature instruction bills** — sleeping is
//!   cost-free, so skipping idle steps must not move a single count;
//! * every operation's **outcome** (payloads, retransmit tallies,
//!   errors);
//! * while the event scheduler takes **no more op steps** than the
//!   reference — and strictly fewer in aggregate, or the readiness
//!   machinery isn't doing anything.
//!
//! A second soak re-runs the same workload on the parallel sharded
//! substrate at 1, 2 and 4 worker threads and requires every thread
//! count to be byte-identical to the single-threaded run.
//!
//! A third turns the traffic into a fan-in — 63 senders of all five
//! families into node 0 — where the event scheduler wakes by `(node,
//! peer)` pair rather than by node: same trace, bills and outcomes as
//! the reference, at a step count that no longer grows with the number
//! of ops sharing the hot endpoint.
//!
//! A fourth hides [`Network::quiet_until`](timego_netsim::Network::quiet_until)
//! behind a decorator that does not forward it (`blind:` substrates):
//! the engine lets time pass to the next event only where the substrate
//! says how long its receive queues stay quiet, and a run must not be
//! able to tell — same trace, bills, outcomes and steps, fewer quanta.

use std::cell::RefCell;
use std::rc::Rc;

use timego_am::{
    CmamConfig, Engine, EngineEvent, Machine, Op, OpId, RecoveryPolicy, RetryPolicy, SchedMode,
    StreamConfig, Tags, TracedEvent,
};
use timego_cost::Feature;
use timego_netsim::{
    CrashWindow, DualNetwork, FaultConfig, NodeId, Torus2D, VcDiscipline, WormholeConfig,
    WormholeNetwork,
};
use timego_ni::share;
use timego_workloads::patterns::Pattern;
use timego_workloads::{payloads, scenarios};

#[path = "support/blind_net.rs"]
mod blind_net;
use blind_net::shared;

const NODES: usize = 16;
const SEEDS: u64 = 6;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn machine(sub: &str, fault: &FaultConfig, seed: u64) -> Machine {
    machine_of(sub, NODES, CmamConfig::default(), fault, seed)
}

fn machine_of(sub: &str, nodes: usize, cfg: CmamConfig, fault: &FaultConfig, seed: u64) -> Machine {
    let (blind, sub) = sub.strip_prefix("blind:").map_or((false, sub), |bare| (true, bare));
    let net = match sub {
        "switched" => shared(scenarios::cm5_chaos(nodes, fault.clone(), seed), blind),
        "wormhole" => {
            let side = nodes.isqrt();
            assert_eq!(side * side, nodes, "the torus is square");
            share(WormholeNetwork::new(
                Torus2D::new(side, side),
                WormholeConfig {
                    virtual_channels: 2,
                    discipline: VcDiscipline::Dateline,
                    fault: fault.clone(),
                    seed,
                    ..WormholeConfig::default()
                },
            ))
        }
        "dual" => share(DualNetwork::new(
            scenarios::cm5_chaos(nodes, fault.clone(), seed),
            scenarios::cm5_chaos(nodes, fault.clone(), seed ^ 0x9e37),
            Tags::RPC_REPLY,
        )),
        // Parallel sharded substrate at each thread count: the shard
        // layout (4 shards) is fixed, only the worker count varies —
        // results must not.
        "sharded-t1" | "sharded-t2" | "sharded-t4" => {
            let threads = sub.trim_start_matches("sharded-t").parse().expect("thread suffix");
            shared(scenarios::cm5_sharded_chaos(nodes, 4, threads, fault.clone(), seed), blind)
        }
        other => panic!("unknown substrate {other}"),
    };
    Machine::new(net, nodes, cfg)
}

fn fault_variant(name: &str) -> FaultConfig {
    match name {
        "clean" => FaultConfig::default(),
        "dup+jitter" => {
            FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() }
        }
        // One endpoint of the first transfer crashes mid-run and
        // restarts; engine-native recovery re-executes across it.
        "crash" => FaultConfig {
            crashes: vec![CrashWindow { node: n(9), start: 80, end: 220 }],
            ..FaultConfig::default()
        },
        other => panic!("unknown fault variant {other}"),
    }
}

/// Per-node, per-feature instruction totals.
fn feature_matrix(m: &Machine, nodes: usize) -> Vec<Vec<u64>> {
    (0..nodes)
        .map(|i| Feature::ALL.iter().map(|&f| m.cpu(n(i)).snapshot().feature_total(f)).collect())
        .collect()
}

struct Fingerprint {
    trace: Vec<TracedEvent>,
    bills: Vec<Vec<u64>>,
    outcomes: Vec<(OpId, String)>,
    steps: u64,
    quanta: u64,
}

impl Fingerprint {
    /// Drive everything submitted to completion and capture everything
    /// observable about the run.
    fn of_run(mut eng: Engine, mut m: Machine, nodes: usize, ids: &[OpId]) -> Fingerprint {
        eng.run(&mut m);
        assert_eq!(eng.unfinished(), 0, "run must settle everything");
        let trace = eng.trace().to_vec();
        let bills = feature_matrix(&m, nodes);
        let outcomes = ids
            .iter()
            .map(|&id| (id, format!("{:?}", eng.take_outcome(id).expect("finished"))))
            .collect();
        let (steps, quanta) = (eng.counters().steps, eng.counters().quanta);
        Fingerprint { trace, bills, outcomes, steps, quanta }
    }
}

/// Build the mixed workload under `mode` and run it.
fn run_one(mode: SchedMode, sub: &str, fault: &FaultConfig, seed: u64) -> Fingerprint {
    let mut m = machine(sub, fault, seed);
    let calls = Rc::new(RefCell::new(0u32));
    let counter = calls.clone();
    m.register_rpc_handler(n(1), 40, move |_, msg| {
        *counter.borrow_mut() += 1;
        [msg.words[0].wrapping_mul(3), 0, 0, 0]
    });

    let mut eng = Engine::with_mode(mode);
    let policy = RetryPolicy::default();
    let recovery = RecoveryPolicy::default();
    let mut ids: Vec<OpId> = Vec::new();

    // Two recovery-armed reliable transfers on disjoint pairs; the
    // crash variant fells node 9 mid-flight, so transfer A re-executes.
    for (i, (s, d)) in [(2usize, 9usize), (4, 11)].into_iter().enumerate() {
        let data = payloads::mixed(24 + 8 * i, seed + i as u64);
        ids.push(
            eng.submit(&mut m, Op::xfer_reliable(n(s), n(d), &data, &policy).recovering(&recovery))
                .expect("valid transfer"),
        );
    }
    // A stream burst with its own RTO machinery.
    let sid = m.open_stream(n(0), n(2), StreamConfig { rto_iterations: 256, ..StreamConfig::default() });
    ids.push(
        eng.submit(&mut m, Op::stream_send(sid, &payloads::mixed(20, seed.wrapping_add(55))))
            .expect("valid stream"),
    );
    // Two retried RPCs against one server.
    for v in 0..2u32 {
        let call = Op::rpc(n(3 + 2 * v as usize), n(1), 40, [v, 0, 0, 0], Some(&policy));
        ids.push(eng.submit(&mut m, call).expect("valid rpc"));
    }
    // An am4 run-after chain: the second hop releases only when the
    // first delivers.
    let hop =
        eng.submit(&mut m, Op::am4(n(6), n(7), 50, [seed as u32, 1, 2, 3])).expect("valid am4");
    ids.push(hop);
    ids.push(
        eng.submit(&mut m, Op::am4(n(7), n(8), 50, [seed as u32, 4, 5, 6]).after(&[hop]))
            .expect("valid am4 chain"),
    );

    Fingerprint::of_run(eng, m, NODES, &ids)
}

/// The event run must be the reference run: same trace (the first
/// divergence is printed with its neighbourhood), same bills, same
/// outcomes, no more steps.
fn assert_same_run(ctx: &str, evt: &Fingerprint, rr: &Fingerprint) {
    if evt.trace != rr.trace {
        let at = evt
            .trace
            .iter()
            .zip(rr.trace.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| evt.trace.len().min(rr.trace.len()));
        let window = |t: &[TracedEvent]| t[at.saturating_sub(3)..(at + 4).min(t.len())].to_vec();
        panic!(
            "{ctx}: traces diverge at entry {at} (event {} entries, reference {}):\n  event: {:?}\n  reference: {:?}",
            evt.trace.len(),
            rr.trace.len(),
            window(&evt.trace),
            window(&rr.trace),
        );
    }
    assert_eq!(evt.bills, rr.bills, "{ctx}: per-feature bills must match node by node");
    assert_eq!(evt.outcomes, rr.outcomes, "{ctx}: outcomes must match");
    assert!(
        evt.steps <= rr.steps,
        "{ctx}: event scheduler took more steps ({} > {})",
        evt.steps,
        rr.steps
    );
}

#[test]
fn event_scheduler_is_trace_and_bill_identical_to_reference() {
    let mut ref_steps = 0u64;
    let mut evt_steps = 0u64;
    for sub in ["switched", "wormhole", "dual"] {
        for variant in ["clean", "dup+jitter", "crash"] {
            let fault = fault_variant(variant);
            for seed in 0..SEEDS {
                let evt = run_one(SchedMode::EventDriven, sub, &fault, seed);
                let rr = run_one(SchedMode::ReferenceRoundRobin, sub, &fault, seed);
                let ctx = format!("{sub}/{variant}/seed {seed}");
                assert_same_run(&ctx, &evt, &rr);
                ref_steps += rr.steps;
                evt_steps += evt.steps;
            }
        }
    }
    assert!(
        evt_steps < ref_steps,
        "event scheduler must skip idle steps somewhere (event {evt_steps} vs reference {ref_steps})"
    );
}

/// The PR 7 soak re-run on the parallel sharded substrate, at 1, 2 and
/// 4 worker threads: within each thread count the event scheduler must
/// be trace/bill/outcome-identical to the reference stepper, and across
/// thread counts *everything* — traces, bills, outcomes, step counts —
/// must be byte-identical to the single-threaded run. Thread count is
/// an execution resource, never a model parameter.
#[test]
fn sharded_substrate_is_equivalent_at_every_thread_count() {
    for variant in ["clean", "dup+jitter", "crash"] {
        let fault = fault_variant(variant);
        for seed in 0..SEEDS {
            let baseline = run_one(SchedMode::EventDriven, "sharded-t1", &fault, seed);
            let rr = run_one(SchedMode::ReferenceRoundRobin, "sharded-t1", &fault, seed);
            let ctx = format!("sharded/{variant}/seed {seed}");
            assert_eq!(baseline.trace, rr.trace, "{ctx}: event vs reference trace");
            assert_eq!(baseline.bills, rr.bills, "{ctx}: event vs reference bills");
            assert_eq!(baseline.outcomes, rr.outcomes, "{ctx}: event vs reference outcomes");
            for sub in ["sharded-t2", "sharded-t4"] {
                let threaded = run_one(SchedMode::EventDriven, sub, &fault, seed);
                let ctx = format!("{sub}/{variant}/seed {seed}");
                assert_eq!(
                    threaded.trace, baseline.trace,
                    "{ctx}: trace must be byte-identical to 1 thread"
                );
                assert_eq!(threaded.bills, baseline.bills, "{ctx}: bills vs 1 thread");
                assert_eq!(threaded.outcomes, baseline.outcomes, "{ctx}: outcomes vs 1 thread");
                assert_eq!(threaded.steps, baseline.steps, "{ctx}: step count vs 1 thread");
            }
        }
    }
}

const FAN_NODES: usize = 64;

/// 63 senders into node 0, all five families mixed: plain and
/// recovery-armed reliable transfers, one stream, retried RPCs to the
/// one callee, and an am4 run-after chain. Every op has the hot node as
/// an endpoint, so a scheduler that wakes by node steps all of them on
/// every packet; one that wakes by `(node, peer)` steps the claimant.
fn run_fan_in(mode: SchedMode, sub: &str, fault: &FaultConfig, seed: u64) -> Fingerprint {
    // A short wait bound: ops the crash variants strand (plain
    // transfers and unmanaged am4s have no recovery) time out in
    // thousands of reference cycles, not a million.
    let cfg = CmamConfig { max_wait_cycles: 1 << 13, gc_ttl_cycles: 1 << 13, ..CmamConfig::default() };
    let mut m = machine_of(sub, FAN_NODES, cfg, fault, seed);
    m.register_rpc_handler(n(0), 40, |_, msg| [msg.words[0].wrapping_mul(3), 0, 0, 0]);

    let mut eng = Engine::with_mode(mode);
    let policy = RetryPolicy::default();
    let recovery = RecoveryPolicy::default();
    let sid = m.open_stream(n(4), n(0), StreamConfig { rto_iterations: 256, ..StreamConfig::default() });
    let mut ids: Vec<OpId> = Vec::new();
    let mut last_hop: Option<OpId> = None;
    for i in 1..FAN_NODES {
        let data = payloads::mixed(8 + 4 * (i % 3), seed + i as u64);
        let op = match i % 5 {
            _ if i == 4 => Op::stream_send(sid, &payloads::mixed(20, seed.wrapping_add(55))),
            0 => Op::xfer_reliable(n(i), n(0), &data, &policy).recovering(&recovery),
            1 | 4 => Op::xfer(n(i), n(0), &data),
            2 => Op::rpc(n(i), n(0), 40, [i as u32, 0, 0, 0], Some(&policy)),
            _ => {
                // Recovery-managed, so a duplicated hop carries a token
                // and is orphan-discarded instead of blocking node 0.
                let hop = Op::am4(n(i), n(0), 50, [seed as u32, i as u32, 2, 3])
                    .recovering(&recovery);
                last_hop.map_or(hop.clone(), |prev| hop.after(&[prev]))
            }
        };
        let id = eng.submit(&mut m, op).expect("valid op");
        if i % 5 == 3 {
            last_hop = Some(id);
        }
        ids.push(id);
    }

    Fingerprint::of_run(eng, m, FAN_NODES, &ids)
}

/// Fan-in equivalence: on the switched and the sharded substrate, clean
/// and under duplication, a crash of the hot node and a crash of one
/// sender, the event scheduler is the reference — and on the clean
/// variant it gets there in a bounded number of steps per op, however
/// many ops share node 0.
#[test]
fn fan_in_wakes_by_pair_and_stays_equivalent() {
    let ops = (FAN_NODES - 1) as u64;
    for sub in ["switched", "sharded-t1"] {
        for variant in ["clean", "dup+jitter", "crash-hot", "crash-sender"] {
            let fault = match variant {
                "crash-hot" => FaultConfig {
                    crashes: vec![CrashWindow { node: n(0), start: 80, end: 220 }],
                    ..FaultConfig::default()
                },
                "crash-sender" => FaultConfig {
                    crashes: vec![CrashWindow { node: n(10), start: 40, end: 220 }],
                    ..FaultConfig::default()
                },
                other => fault_variant(other),
            };
            for seed in 0..SEEDS {
                let evt = run_fan_in(SchedMode::EventDriven, sub, &fault, seed);
                let rr = run_fan_in(SchedMode::ReferenceRoundRobin, sub, &fault, seed);
                let ctx = format!("fan-in {sub}/{variant}/seed {seed}");
                assert_same_run(&ctx, &evt, &rr);
                if variant == "clean" {
                    assert!(
                        evt.steps <= 16 * ops,
                        "{ctx}: {} steps for {ops} ops — more than 16 each ({} reference)",
                        evt.steps,
                        rr.steps
                    );
                }
            }
        }
    }
}

/// One plain transfer per pair of `pattern`, all submitted up front: the
/// benchmark's permutation and hotspot plans at test size. The short
/// wait bound lets transfers a crash strands time out in thousands of
/// cycles.
fn run_plan(pattern: Pattern, sub: &str, fault: &FaultConfig, seed: u64) -> Fingerprint {
    let cfg = CmamConfig { max_wait_cycles: 1 << 13, gc_ttl_cycles: 1 << 13, ..CmamConfig::default() };
    let m = machine_of(sub, FAN_NODES, cfg, fault, seed);
    let mut eng = Engine::new();
    let ids: Vec<OpId> = (0u64..)
        .zip(pattern.pairs(FAN_NODES))
        .map(|(i, (src, dst))| {
            eng.submit_xfer(&m, src, dst, &payloads::mixed(8, seed + i)).expect("valid transfer")
        })
        .collect();
    Fingerprint::of_run(eng, m, FAN_NODES, &ids)
}

/// The lookahead is invisible: on the flat and the sharded substrate
/// (one and two workers), clean, under duplication and jitter, and
/// across a crash window, every plan — the mixed workload, the fan-in,
/// a random permutation, a hotspot — gives the same run whether or not
/// the substrate answers `quiet_until`. The answer buys quanta, nothing
/// else: never more of them, and in aggregate fewer (not many fewer —
/// plans submitted up front keep the fabric contended, and a contended
/// packet is past its bound; the serving cells are where it pays).
#[test]
fn lookahead_is_invisible_to_engine_run() {
    let (mut bare_quanta, mut blind_quanta) = (0u64, 0u64);
    for sub in ["switched", "sharded-t1", "sharded-t2"] {
        let blind_sub = format!("blind:{sub}");
        for variant in ["clean", "dup+jitter", "crash"] {
            let fault = fault_variant(variant);
            for seed in 0..SEEDS / 2 {
                for plan in ["mixed", "fan-in", "permutation", "hotspot"] {
                    let run = |sub: &str| match plan {
                        "mixed" => run_one(SchedMode::EventDriven, sub, &fault, seed),
                        "fan-in" => run_fan_in(SchedMode::EventDriven, sub, &fault, seed),
                        "permutation" => run_plan(Pattern::RandomPermutation(seed), sub, &fault, seed),
                        _ => run_plan(Pattern::Hotspot, sub, &fault, seed),
                    };
                    let (bare, blind) = (run(sub), run(&blind_sub));
                    let ctx = format!("{plan} on {sub}/{variant}/seed {seed}, bare vs blind");
                    assert_same_run(&ctx, &bare, &blind);
                    assert_eq!(bare.steps, blind.steps, "{ctx}: op steps");
                    assert!(bare.quanta <= blind.quanta, "{ctx}: {} > {} quanta", bare.quanta, blind.quanta);
                    bare_quanta += bare.quanta;
                    blind_quanta += blind.quanta;
                }
            }
        }
    }
    assert!(
        bare_quanta < blind_quanta,
        "the bound must save quanta somewhere ({bare_quanta} with it, {blind_quanta} without)"
    );
}

/// A crash window that closes while a packet is on the wire and nothing
/// else is due: a recovery-armed transfer into the crashed node 9 sleeps
/// on its retry timers while a chain of single-packet hops between two
/// far-apart nodes keeps exactly one packet in flight, twelve cycles a
/// hop, with every op asleep in between.
fn run_across_restart(mode: SchedMode, sub: &str, restart_at: u64) -> Fingerprint {
    let fault = FaultConfig {
        crashes: vec![CrashWindow { node: n(9), start: 20, end: restart_at }],
        ..FaultConfig::default()
    };
    let cfg = CmamConfig { max_wait_cycles: 1 << 13, gc_ttl_cycles: 1 << 13, ..CmamConfig::default() };
    let mut m = machine_of(sub, FAN_NODES, cfg, &fault, 1);
    let mut eng = Engine::with_mode(mode);
    let victim = Op::xfer_reliable(n(2), n(9), &payloads::mixed(24, 1), &RetryPolicy::default())
        .recovering(&RecoveryPolicy::default());
    let mut ids = vec![eng.submit(&mut m, victim).expect("valid transfer")];
    for hop in 0..60u32 {
        let (src, dst) = if hop % 2 == 0 { (n(16), n(63)) } else { (n(63), n(16)) };
        let op = Op::am4(src, dst, 50, [hop, 0, 0, 0]);
        let op = if hop == 0 { op } else { op.after(&ids[ids.len() - 1..]) };
        ids.push(eng.submit(&mut m, op).expect("valid hop"));
    }
    Fingerprint::of_run(eng, m, FAN_NODES, &ids)
}

/// The jump never crosses a restart. Fourteen consecutive window ends —
/// a hop and its hand-over take fewer cycles than that, so at least one
/// end falls strictly inside a span the quiet bound would let the clock
/// jump — and on each the victim must observe the `SessionReset` on the
/// cycle the window closes: the run with the bound is the run without
/// it and the reference's.
#[test]
fn lookahead_never_jumps_a_restart() {
    let mut jumped = 0;
    for restart_at in 300..314 {
        let bare = run_across_restart(SchedMode::EventDriven, "switched", restart_at);
        let blind = run_across_restart(SchedMode::EventDriven, "blind:switched", restart_at);
        let rr = run_across_restart(SchedMode::ReferenceRoundRobin, "switched", restart_at);
        assert_same_run(&format!("restart at {restart_at}, bare vs blind"), &bare, &blind);
        assert_same_run(&format!("restart at {restart_at}, event vs reference"), &bare, &rr);
        let observed = TracedEvent { at: restart_at, event: EngineEvent::Recovering(bare.outcomes[0].0) };
        assert!(bare.trace.contains(&observed), "the victim observes the restart at {restart_at}");
        jumped += blind.quanta - bare.quanta;
    }
    assert!(jumped > 14 * 100, "the chain's hops were jumped ({jumped} quanta saved)");
}

/// The default engine is the event scheduler — the whole test suite
/// re-pins equivalence implicitly, but make the default explicit here.
#[test]
fn default_engine_mode_is_event_driven() {
    assert_eq!(Engine::new().mode(), SchedMode::EventDriven);
}
