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

use std::cell::RefCell;
use std::rc::Rc;

use timego_am::{
    CmamConfig, Engine, Machine, Op, OpId, RecoveryPolicy, RetryPolicy, SchedMode, StreamConfig,
    Tags, TracedEvent,
};
use timego_cost::Feature;
use timego_netsim::{
    CrashWindow, DualNetwork, FaultConfig, NodeId, Torus2D, VcDiscipline, WormholeConfig,
    WormholeNetwork,
};
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

const NODES: usize = 16;
const SEEDS: u64 = 6;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn machine(sub: &str, fault: &FaultConfig, seed: u64) -> Machine {
    match sub {
        "switched" => Machine::new(
            share(scenarios::cm5_chaos(NODES, fault.clone(), seed)),
            NODES,
            CmamConfig::default(),
        ),
        "wormhole" => Machine::new(
            share(WormholeNetwork::new(
                Torus2D::new(4, 4),
                WormholeConfig {
                    virtual_channels: 2,
                    discipline: VcDiscipline::Dateline,
                    fault: fault.clone(),
                    seed,
                    ..WormholeConfig::default()
                },
            )),
            NODES,
            CmamConfig::default(),
        ),
        "dual" => Machine::new(
            share(DualNetwork::new(
                scenarios::cm5_chaos(NODES, fault.clone(), seed),
                scenarios::cm5_chaos(NODES, fault.clone(), seed ^ 0x9e37),
                Tags::RPC_REPLY,
            )),
            NODES,
            CmamConfig::default(),
        ),
        // Parallel sharded substrate at each thread count: the shard
        // layout (4 shards of 4 nodes) is fixed, only the worker count
        // varies — results must not.
        "sharded-t1" | "sharded-t2" | "sharded-t4" => {
            let threads = sub.trim_start_matches("sharded-t").parse().expect("thread suffix");
            Machine::new(
                share(scenarios::cm5_sharded_chaos(NODES, 4, threads, fault.clone(), seed)),
                NODES,
                CmamConfig::default(),
            )
        }
        other => panic!("unknown substrate {other}"),
    }
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
}

/// Drive the mixed workload to completion under `mode` and capture
/// everything observable about the run.
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

    eng.run(&mut m);
    assert_eq!(eng.unfinished(), 0, "{sub}/seed {seed}: run must settle everything");

    let trace = eng.trace().to_vec();
    let bills = feature_matrix(&m, NODES);
    let outcomes = ids
        .iter()
        .map(|&id| (id, format!("{:?}", eng.take_outcome(id).expect("finished"))))
        .collect();
    Fingerprint { trace, bills, outcomes, steps: eng.counters().steps }
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
                if evt.trace != rr.trace {
                    let at = evt
                        .trace
                        .iter()
                        .zip(rr.trace.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| evt.trace.len().min(rr.trace.len()));
                    let window = |t: &[TracedEvent]| {
                        t[at.saturating_sub(3)..(at + 4).min(t.len())].to_vec()
                    };
                    panic!(
                        "{ctx}: traces diverge at entry {at} (event {} entries, reference {}):\n  event: {:?}\n  reference: {:?}",
                        evt.trace.len(),
                        rr.trace.len(),
                        window(&evt.trace),
                        window(&rr.trace),
                    );
                }
                assert_eq!(
                    evt.bills, rr.bills,
                    "{ctx}: per-feature bills must match node by node"
                );
                assert_eq!(evt.outcomes, rr.outcomes, "{ctx}: outcomes must match");
                assert!(
                    evt.steps <= rr.steps,
                    "{ctx}: event scheduler took more steps ({} > {})",
                    evt.steps,
                    rr.steps
                );
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

/// The default engine is the event scheduler — the whole test suite
/// re-pins equivalence implicitly, but make the default explicit here.
#[test]
fn default_engine_mode_is_event_driven() {
    assert_eq!(Engine::new().mode(), SchedMode::EventDriven);
}
