//! Self-healing engine: engine-native recovery across every protocol
//! family, sender-crash garbage collection, and the composed-fault
//! chaos matrix.
//!
//! * **Engine-native recovery**: an operation submitted with a
//!   `RecoveryPolicy` that settles with a retryable error
//!   (`SessionReset`, `Timeout`, `DeadlineExceeded`) is parked by the
//!   scheduler for the backoff window and re-executed under a fresh
//!   session epoch — same `OpId`, no caller-side loop. Run-after
//!   dependents stay held across re-executions and release when the
//!   recovered predecessor finally completes, instead of cascading
//!   `DependencyFailed`.
//! * **Zero-cost-when-clean**: every recovering submission is
//!   instruction-identical, feature by feature, to its non-recovering
//!   counterpart on a fault-free run.
//! * **Receiver-side GC**: repeated sender crashes mid-transfer leave
//!   no half-filled segments and no unbounded session/reply-cache
//!   growth — dead sessions are replaced on the next epoch's handshake
//!   or reclaimed by the epoch-TTL sweep, and both reclaims bill
//!   `Feature::FaultTol` at the node holding the state.
//! * **Composed faults**: `CrashWindow` × {dup+jitter, drop-heavy,
//!   outage} × {switched, wormhole, dual} stays exactly-once,
//!   byte-exact, and bounded-memory.

use std::cell::RefCell;
use std::rc::Rc;

use timego_am::{
    CmamConfig, Engine, EngineEvent, Machine, Op, OpId, OpOutcome, ProtocolError, RecoveryPolicy,
    ReliableOutcome, RetryPolicy, StreamConfig, Tags, TracedEvent,
};
use timego_cost::Feature;
use timego_netsim::{
    CrashWindow, DualNetwork, FaultConfig, NodeId, OutageWindow, Torus2D, VcDiscipline,
    WormholeConfig, WormholeNetwork,
};
use timego_ni::share;
use timego_workloads::apps::collectives;
use timego_workloads::{payloads, scenarios};

const NODES: usize = 16;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn machine_cfg(sub: &str, fault: &FaultConfig, seed: u64, cfg: CmamConfig) -> Machine {
    match sub {
        "switched" => {
            Machine::new(share(scenarios::cm5_chaos(NODES, fault.clone(), seed)), NODES, cfg)
        }
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
            cfg,
        ),
        "dual" => Machine::new(
            share(DualNetwork::new(
                scenarios::cm5_chaos(NODES, fault.clone(), seed),
                scenarios::cm5_chaos(NODES, fault.clone(), seed ^ 0x9e37),
                Tags::RPC_REPLY,
            )),
            NODES,
            cfg,
        ),
        other => panic!("unknown substrate {other}"),
    }
}

fn machine(sub: &str, fault: &FaultConfig, seed: u64) -> Machine {
    machine_cfg(sub, fault, seed, CmamConfig::default())
}

fn crash(node: NodeId, start: u64, end: u64) -> FaultConfig {
    FaultConfig {
        crashes: vec![CrashWindow { node, start, end }],
        ..FaultConfig::default()
    }
}

fn fault_tol(m: &Machine, node: NodeId) -> u64 {
    m.cpu(node).snapshot().feature_total(Feature::FaultTol)
}

/// A recovering reliable transfer 2 → 9 whose executions are bounded by
/// its own retry budget (as many as it has attempts, backing off by
/// it); returns the outcome and the re-execution count.
fn recovering_xfer(
    m: &mut Machine,
    data: &[u32],
    policy: &RetryPolicy,
) -> Result<(ReliableOutcome, u32), ProtocolError> {
    let budget = RecoveryPolicy { max_executions: policy.max_attempts, backoff: policy.clone() };
    m.run(Op::xfer_reliable(n(2), n(9), data, policy).recovering(&budget))
}

// ---------------------------------------------------------------------
// Engine-level recovery: the ROADMAP remnant, closed.
// ---------------------------------------------------------------------

/// A `SessionReset` is recovered *inside* the engine: one submission,
/// no caller-side loop. The trace shows the `Recovering` parking event,
/// delivery is exactly-once and byte-exact, and the re-establishment
/// instructions land in `Feature::FaultTol`.
#[test]
fn session_reset_recovers_inside_the_engine() {
    let data = payloads::mixed(256, 42);
    let mut recovered = 0;
    for seed in 0..4u64 {
        let mut m = machine("switched", &crash(n(9), 50, 3000), seed);
        m.reset_costs();
        let mut eng = Engine::new();
        eng.enable_trace();
        let op = eng
            .submit(
                &mut m,
                Op::xfer_reliable(n(2), n(9), &data, &RetryPolicy::default())
                    .recovering(&RecoveryPolicy::default()),
            )
            .unwrap();
        eng.run(&mut m);
        let out = match eng.take_outcome(op).unwrap() {
            Ok(OpOutcome::Reliable(out)) => out,
            other => panic!("seed {seed}: recovery must converge, got {other:?}"),
        };
        assert_eq!(
            m.read_buffer(n(9), out.xfer.dst_buffer, data.len()),
            data,
            "seed {seed}: exactly-once, byte-exact"
        );
        if eng.recovery_executions(op) > 0 {
            recovered += 1;
            assert!(
                eng.trace().iter().any(|e| e.event == EngineEvent::Recovering(op)),
                "seed {seed}: the park must be traced"
            );
            assert!(
                fault_tol(&m, n(2)) > 0,
                "seed {seed}: re-establishment must bill fault tolerance"
            );
        }
    }
    assert!(recovered > 0, "the crash window must force at least one in-engine recovery");
}

/// DAG-aware recovery: a mid-DAG predecessor felled by a crash-restart
/// is re-executed by the engine while its dependent stays *held*; the
/// dependent then releases and completes instead of failing with
/// `DependencyFailed`.
#[test]
fn mid_dag_predecessor_recovers_and_releases_dependents() {
    let policy = RetryPolicy::default();
    let data_a = payloads::mixed(256, 7);
    let data_b = payloads::mixed(64, 8);
    let mut recovered = 0;
    for seed in 0..4u64 {
        let mut m = machine("switched", &crash(n(9), 50, 3000), seed);
        let mut eng = Engine::new();
        let a = eng
            .submit(
                &mut m,
                Op::xfer_reliable(n(2), n(9), &data_a, &policy)
                    .recovering(&RecoveryPolicy::default()),
            )
            .unwrap();
        let b = eng
            .submit(&mut m, Op::xfer_reliable(n(9), n(12), &data_b, &policy).after(&[a]))
            .unwrap();
        eng.run(&mut m);
        match eng.take_outcome(a).unwrap() {
            Ok(OpOutcome::Reliable(out)) => {
                assert_eq!(m.read_buffer(n(9), out.xfer.dst_buffer, data_a.len()), data_a);
            }
            other => panic!("seed {seed}: predecessor must recover, got {other:?}"),
        }
        match eng.take_outcome(b).unwrap() {
            Ok(OpOutcome::Reliable(out)) => {
                assert_eq!(
                    m.read_buffer(n(12), out.xfer.dst_buffer, data_b.len()),
                    data_b,
                    "seed {seed}: dependent must run after the recovered predecessor"
                );
            }
            other => panic!(
                "seed {seed}: dependent must complete, not cascade DependencyFailed: {other:?}"
            ),
        }
        if eng.recovery_executions(a) > 0 {
            recovered += 1;
        }
    }
    assert!(recovered > 0, "the crash window must force at least one mid-DAG recovery");
}

/// Clean-run cost identity, per protocol family: with no faults, every
/// recovering submission bills per-feature instruction counts identical
/// to its non-recovering counterpart, at every node. Recovery support
/// costs nothing until a fault actually happens.
#[test]
fn clean_recovering_runs_bill_identical_to_non_recovering() {
    let clean = FaultConfig::default();
    let assert_identical = |plain: &Machine, rec: &Machine, what: &str| {
        for i in 0..NODES {
            for f in Feature::ALL {
                assert_eq!(
                    plain.cpu(n(i)).snapshot().feature_total(f),
                    rec.cpu(n(i)).snapshot().feature_total(f),
                    "{what}: node {i}, {f:?}"
                );
            }
        }
    };
    let policy = RetryPolicy::default();
    let recovery = RecoveryPolicy::default();

    // Reliable transfer.
    let data = payloads::mixed(128, 3);
    let mut plain = machine("switched", &clean, 11);
    plain.reset_costs();
    plain.run(Op::xfer_reliable(n(2), n(9), &data, &policy)).unwrap();
    let mut rec = machine("switched", &clean, 11);
    rec.reset_costs();
    let (_, re) = recovering_xfer(&mut rec, &data, &policy).unwrap();
    assert_eq!(re, 0, "clean run must not re-execute");
    assert_identical(&plain, &rec, "xfer_reliable");

    // Stream.
    let mut plain = machine("switched", &clean, 12);
    let id = plain.open_stream(n(3), n(9), StreamConfig::default());
    plain.reset_costs();
    plain.stream_send(id, &data).unwrap();
    let mut rec = machine("switched", &clean, 12);
    let id = rec.open_stream(n(3), n(9), StreamConfig::default());
    rec.reset_costs();
    let (_, re) = rec.run(Op::stream_send(id, &data).recovering(&recovery)).unwrap();
    assert_eq!(re, 0, "clean run must not re-execute");
    assert_identical(&plain, &rec, "stream_send");

    // RPC.
    let mut plain = machine("switched", &clean, 13);
    plain.register_rpc_handler(n(11), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
    plain.reset_costs();
    plain.run(Op::rpc(n(4), n(11), 40, [7, 0, 0, 0], Some(&policy))).unwrap();
    let mut rec = machine("switched", &clean, 13);
    rec.register_rpc_handler(n(11), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
    rec.reset_costs();
    let call = Op::rpc(n(4), n(11), 40, [7, 0, 0, 0], Some(&policy));
    let (reply, re) = rec.run(call.recovering(&recovery)).unwrap();
    assert_eq!(reply, [8, 0, 0, 0]);
    assert_eq!(re, 0, "clean run must not re-execute");
    assert_identical(&plain, &rec, "rpc_call");

    // Collectives (broadcast + all-reduce), deterministic substrate.
    let table = || {
        Machine::new(share(scenarios::table_in_order(NODES)), NODES, CmamConfig::default())
    };
    let mut plain = table();
    plain.reset_costs();
    collectives::broadcast(&mut plain, n(0), [5; 4]).unwrap();
    let mut rec = table();
    rec.reset_costs();
    let (seen, re) = collectives::broadcast_recovering(&mut rec, n(0), [5; 4], &recovery).unwrap();
    assert!(seen.iter().all(|v| *v == [5; 4]));
    assert_eq!(re, 0, "clean run must not re-execute");
    assert_identical(&plain, &rec, "broadcast");
    // The Table 1 pin carries over: 15 edges × (20 send + 27 receive).
    let total: u64 = (0..NODES).map(|i| rec.cpu(n(i)).snapshot().total()).sum();
    assert_eq!(total, 15 * 47, "recovering broadcast keeps the Table 1 edge bill");

    let inputs: Vec<u32> = (0..NODES as u32).collect();
    let mut plain = table();
    plain.reset_costs();
    collectives::allreduce_sum(&mut plain, &inputs).unwrap();
    let mut rec = table();
    rec.reset_costs();
    let (sums, re) = collectives::allreduce_sum_recovering(&mut rec, &inputs, &recovery).unwrap();
    assert_eq!(sums, vec![120; NODES]);
    assert_eq!(re, 0, "clean run must not re-execute");
    assert_identical(&plain, &rec, "allreduce");
}

// ---------------------------------------------------------------------
// Per-family crash recovery.
// ---------------------------------------------------------------------

/// A stream send felled by a receiver crash-restart resumes inside the
/// engine: the re-execution keeps the original sequence range, skips
/// packets the first execution already delivered, and converges to an
/// exactly-once, byte-exact delivered stream.
#[test]
fn stream_crash_recovery_is_exactly_once_and_byte_exact() {
    let data = payloads::mixed(192, 21);
    let mut recovered = 0;
    for seed in 0..4u64 {
        let mut m = machine("switched", &crash(n(9), 50, 3000), seed);
        let id = m.open_stream(n(3), n(9), StreamConfig::default());
        m.reset_costs();
        let (_, re) = m
            .run(Op::stream_send(id, &data).recovering(&RecoveryPolicy::default()))
            .unwrap_or_else(|e| panic!("seed {seed}: stream recovery must converge: {e}"));
        assert_eq!(
            m.stream_received(id),
            &data[..],
            "seed {seed}: delivered stream must be exactly the data, once"
        );
        if re > 0 {
            recovered += 1;
            assert!(
                fault_tol(&m, n(3)) > 0,
                "seed {seed}: stream re-execution must bill fault tolerance"
            );
        }
    }
    assert!(recovered > 0, "the crash window must force at least one stream recovery");
}

/// RPC recovery is exactly-once end to end: when drop-heavy faults
/// exhaust the inner retry budget and the engine re-executes the call,
/// the re-execution reuses the same call id, so the callee either
/// answers from its reply cache or runs the handler for the first time
/// — never twice. The handler-run counter equals the number of logical
/// calls across every seed.
#[test]
fn rpc_recovery_is_exactly_once_via_reply_cache() {
    const CALLS: u32 = 8;
    // An inner budget small enough that drop-heavy faults exhaust it
    // and force engine-level re-execution.
    let inner = RetryPolicy { max_attempts: 2, base_wait: 256, ..RetryPolicy::default() };
    let recovery = RecoveryPolicy::default();
    let fault = FaultConfig { drop_prob: 0.25, ..FaultConfig::default() };
    let mut re_executed = 0;
    for seed in 0..6u64 {
        let mut m = machine("switched", &fault, seed);
        let runs = Rc::new(RefCell::new(0u32));
        let runs2 = Rc::clone(&runs);
        m.register_rpc_handler(n(11), 40, move |_, msg| {
            *runs2.borrow_mut() += 1;
            [msg.words[0] * 3, 0, 0, 0]
        });
        for v in 0..CALLS {
            let call = Op::rpc(n(4), n(11), 40, [v, 0, 0, 0], Some(&inner));
            let (reply, re) = m
                .run(call.recovering(&recovery))
                .unwrap_or_else(|e| panic!("seed {seed} call {v}: {e}"));
            assert_eq!(reply[0], v * 3, "seed {seed} call {v}");
            re_executed += re;
        }
        assert_eq!(
            *runs.borrow(),
            CALLS,
            "seed {seed}: the handler must run exactly once per logical call"
        );
    }
    assert!(re_executed > 0, "drop-heavy faults must force at least one re-execution");
}

/// Collectives survive a node crash-restart mid-broadcast and
/// mid-all-reduce: the felled edges are re-executed inside the engine,
/// held subtrees release when their recovered predecessor delivers,
/// and the results are correct at every node.
#[test]
fn collectives_survive_node_crash_restart() {
    let recovery = RecoveryPolicy::default();
    let mut recovered = 0;
    for seed in 0..3u64 {
        let mut m = machine("switched", &crash(n(5), 10, 2500), seed);
        let (seen, re) = collectives::broadcast_recovering(&mut m, n(0), [9, 9, 9, 9], &recovery)
            .unwrap_or_else(|e| panic!("seed {seed}: broadcast must survive the crash: {e}"));
        assert!(
            seen.iter().all(|v| *v == [9, 9, 9, 9]),
            "seed {seed}: every node must see the broadcast value: {seen:?}"
        );
        recovered += re;

        let mut m = machine("switched", &crash(n(5), 10, 2500), seed);
        let inputs: Vec<u32> = (1..=NODES as u32).collect();
        let (sums, re) = collectives::allreduce_sum_recovering(&mut m, &inputs, &recovery)
            .unwrap_or_else(|e| panic!("seed {seed}: all-reduce must survive the crash: {e}"));
        assert_eq!(sums, vec![136; NODES], "seed {seed}: every node must hold the global sum");
        recovered += re;
    }
    assert!(recovered > 0, "the crash window must force at least one edge re-execution");
}

// ---------------------------------------------------------------------
// Re-execution from the retained state machine.
// ---------------------------------------------------------------------

/// A recovery policy that parks for exactly `wait` cycles before every
/// re-execution, so crash windows can be placed against resume cycles.
fn fixed_backoff(wait: u64) -> RecoveryPolicy {
    let backoff =
        RetryPolicy { base_wait: wait, max_wait: wait, jitter: 0, ..RetryPolicy::default() };
    RecoveryPolicy { max_executions: 4, backoff }
}

/// Two crash windows on `node`, placed against `fixed_backoff(1000)`:
/// the first (from `first_start`) fells the first execution when it
/// closes at cycle 3000, so the second execution starts at 4000; the
/// second (from `second_start`) fells that one at 6000, and the third
/// execution, at 7000, runs clean.
fn two_crashes(node: NodeId, first_start: u64, second_start: u64) -> FaultConfig {
    FaultConfig {
        crashes: vec![
            CrashWindow { node, start: first_start, end: 3000 },
            CrashWindow { node, start: second_start, end: 6000 },
        ],
        ..FaultConfig::default()
    }
}

fn executions(trace: &[TracedEvent], id: OpId) -> Vec<u64> {
    trace.iter().filter(|e| e.event == EngineEvent::Started(id)).map(|e| e.at).collect()
}

/// Run the op `prepare` describes under `fault`. The run must take
/// exactly two re-executions — three `Started` events at cycles 0, 4000
/// and 7000 under one `OpId` — and converge to an outcome `check`
/// accepts. (That the reference round-robin takes the identical trace
/// is pinned in-crate against the oracle.)
fn twice_felled<F, T>(
    fault: &FaultConfig,
    prepare: impl Fn(&mut Machine) -> (Op<F>, T),
    check: impl Fn(&Machine, T, OpOutcome),
) {
    let mut m = machine("switched", fault, 1);
    let (op, ctx) = prepare(&mut m);
    let mut eng = Engine::new();
    eng.enable_trace();
    let id = eng.submit(&mut m, op.recovering(&fixed_backoff(1000))).unwrap();
    eng.run(&mut m);
    assert_eq!(eng.recovery_executions(id), 2, "each crash window fells one run");
    assert_eq!(executions(eng.trace(), id), [0, 4000, 7000]);
    let out = eng
        .take_outcome(id)
        .unwrap()
        .unwrap_or_else(|e| panic!("the third execution must converge: {e}"));
    check(&m, ctx, out);
}

/// A reliable transfer felled twice restarts from scratch both times:
/// each execution opens a fresh epoch over the same retained payload,
/// and the third delivers it word-exact, leaving no session behind.
#[test]
fn reliable_transfer_survives_two_re_executions() {
    let data = payloads::mixed(1024, 31);
    twice_felled(
        &two_crashes(n(9), 50, 4040),
        |_| (Op::xfer_reliable(n(2), n(9), &data, &RetryPolicy::default()), ()),
        |m, (), out| {
            let OpOutcome::Reliable(out) = out else { panic!("reliable outcome, got {out:?}") };
            assert_eq!(m.read_buffer(n(9), out.xfer.dst_buffer, data.len()), data);
            assert_eq!(m.open_sessions(), 0, "no half-filled segment survives");
        },
    );
}

/// A stream send felled twice resumes twice from the *same* base: the
/// first failure teaches the machine its sequence range, the second
/// re-execution reuses it, and each run skips what the receiver already
/// holds — the delivered stream is the data, once. (A base re-learned
/// from the stream's advanced `next_seq` would leave a gap the receiver
/// can never close.)
#[test]
fn stream_send_survives_two_re_executions_on_one_resume_base() {
    let data = payloads::mixed(1024, 32);
    twice_felled(
        &two_crashes(n(9), 50, 4040),
        |m| {
            let id = m.open_stream(n(2), n(9), StreamConfig::default());
            (Op::stream_send(id, &data), id)
        },
        |m, id, out| {
            let OpOutcome::Stream(out) = out else { panic!("stream outcome, got {out:?}") };
            assert_eq!(out.packets, 256);
            assert_eq!(m.stream_received(id), &data[..], "exactly-once, word-exact");
        },
    );
}

/// An RPC whose *caller* crashes twice keeps one call id throughout:
/// the callee served the first execution's request (the reply died with
/// the caller), so the third execution is answered from the reply cache
/// and the handler runs exactly once.
#[test]
fn rpc_survives_two_re_executions_on_one_call_id() {
    twice_felled(
        &two_crashes(n(4), 5, 3500),
        |m| {
            let runs = Rc::new(RefCell::new(0u32));
            let runs2 = Rc::clone(&runs);
            m.register_rpc_handler(n(11), 40, move |_, msg| {
                *runs2.borrow_mut() += 1;
                [msg.words[0] * 3, 0, 0, 0]
            });
            (Op::rpc(n(4), n(11), 40, [14, 0, 0, 0], Some(&RetryPolicy::default())), runs)
        },
        |_, runs, out| {
            assert_eq!(out, OpOutcome::Rpc([42, 0, 0, 0]));
            assert_eq!(*runs.borrow(), 1, "the call id is reused, so the cache deduplicates");
        },
    );
}

/// A recovering am4 whose destination is down for its first two
/// executions is delivered by the third, to its handler, exactly once.
#[test]
fn am4_survives_two_re_executions() {
    twice_felled(
        &two_crashes(n(9), 0, 3500),
        |m| {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen2 = Rc::clone(&seen);
            m.register_handler(n(9), 50, move |_, msg| seen2.borrow_mut().push(msg.words));
            (Op::am4(n(2), n(9), 50, [7, 8, 9, 10]), seen)
        },
        |_, seen, out| {
            assert_eq!(out, OpOutcome::Am4([0; 4]), "the handler owns the words");
            assert_eq!(*seen.borrow(), [[7, 8, 9, 10]], "exactly-once delivery");
        },
    );
}

/// A deadline that fires while the op is parked consumes recovery
/// budget and re-parks it — with no running machine to learn from. The
/// parked stream machine still carries the base its one execution
/// learned, so the resumed send is exact.
#[test]
fn deadline_while_parked_re_parks_and_still_resumes_exactly() {
    let data = payloads::mixed(1024, 33);
    let mut m = machine("switched", &crash(n(9), 50, 3000), 1);
    let stream = m.open_stream(n(2), n(9), StreamConfig::default());
    let mut eng = Engine::new();
    eng.enable_trace();
    // Felled at 3000 and parked until 5000; the deadline is due at 3500,
    // mid-park, and re-parks the op until 7000.
    let op = Op::stream_send(stream, &data).recovering(&fixed_backoff(2000)).deadline(3500);
    let id = eng.submit(&mut m, op).unwrap();
    eng.run(&mut m);
    assert_eq!(eng.recovery_executions(id), 2, "the crash, then the deadline");
    assert_eq!(executions(eng.trace(), id), [0, 7000], "one run per side of the park");
    let parks = eng.trace().iter().filter(|e| e.event == EngineEvent::Recovering(id)).count();
    assert_eq!(parks, 2);
    assert!(matches!(eng.take_outcome(id), Some(Ok(OpOutcome::Stream(_)))));
    assert_eq!(m.stream_received(stream), &data[..], "exactly-once, word-exact");
}

/// Cancelling a parked op settles it where it waits and frees the
/// conflict key it was holding: the same-pair transfer queued behind it
/// is admitted at once and completes.
#[test]
fn cancelling_a_parked_op_frees_its_conflict_key() {
    let policy = RetryPolicy::default();
    let data = payloads::mixed(256, 34);
    // As in the quiesce test below: an outage keeps a bystander running
    // so `pump` returns while the felled op sits parked.
    let fault = FaultConfig {
        crashes: vec![CrashWindow { node: n(9), start: 50, end: 600 }],
        outages: vec![OutageWindow { node: n(14), start: 0, end: 50_000 }],
        ..FaultConfig::default()
    };
    let mut m = machine("switched", &fault, 3);
    let mut eng = Engine::new();
    eng.enable_trace();
    let parked = eng
        .submit(
            &mut m,
            Op::xfer_reliable(n(2), n(9), &data, &policy).recovering(&RecoveryPolicy::default()),
        )
        .unwrap();
    let queued = eng.submit(&mut m, Op::xfer_reliable(n(2), n(9), &data, &policy)).unwrap();
    let patient = RetryPolicy { max_attempts: 4, base_wait: 512, ..RetryPolicy::default() };
    eng.submit(&mut m, Op::xfer_reliable(n(3), n(14), &data, &patient)).unwrap();
    let mut guard = 0;
    while eng.parked_count() == 0 {
        eng.pump(&mut m);
        guard += 1;
        assert!(guard < 200_000, "the crash must park the recovering op");
    }
    assert!(executions(eng.trace(), queued).is_empty(), "the parked op holds the key");
    assert!(eng.cancel(&m, parked));
    assert_eq!(eng.parked_count(), 0);
    eng.pump(&mut m);
    assert_eq!(executions(eng.trace(), queued).len(), 1, "the key is free");
    eng.run(&mut m);
    assert_eq!(eng.take_outcome(parked).unwrap(), Err(ProtocolError::Cancelled));
    match eng.take_outcome(queued).unwrap() {
        Ok(OpOutcome::Reliable(out)) => {
            assert_eq!(m.read_buffer(n(9), out.xfer.dst_buffer, data.len()), data);
        }
        other => panic!("the queued transfer must complete, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Receiver-side garbage collection.
// ---------------------------------------------------------------------

/// The bounded-memory pin: ≥ 20 sender crash cycles mid-transfer leave
/// no half-filled segments (no open sessions once transfers complete)
/// and no unbounded session/reply-cache growth. Dead sessions are
/// replaced on the recovered execution's fresh-epoch handshake; expired
/// reply-cache entries are reclaimed by the epoch-TTL sweep riding the
/// engine pump; a final forced sweep returns both tables to empty.
#[test]
fn sender_crash_cycles_leave_no_residual_receiver_state() {
    const CYCLES: u64 = 22;
    const PERIOD: u64 = 20_000;
    let crashes: Vec<CrashWindow> = (0..CYCLES)
        .map(|k| CrashWindow { node: n(2), start: k * PERIOD + 50, end: k * PERIOD + 2500 })
        .collect();
    let fault = FaultConfig { crashes, ..FaultConfig::default() };
    // A TTL shorter than the crash period, so the sweep reclaims one
    // cycle's leavings during the next cycle's engine run.
    let cfg = CmamConfig { gc_ttl_cycles: 8_192, ..CmamConfig::default() };
    let mut m = machine_cfg("switched", &fault, 5, cfg);
    let runs = Rc::new(RefCell::new(0u32));
    let runs2 = Rc::clone(&runs);
    m.register_rpc_handler(n(11), 40, move |_, msg| {
        *runs2.borrow_mut() += 1;
        [msg.words[0], 0, 0, 0]
    });
    let policy = RetryPolicy::default();
    let recovery = RecoveryPolicy::default();
    let data = payloads::mixed(256, 9);
    let mut max_sessions = 0usize;
    let mut max_replies = 0usize;
    let mut recovered = 0u32;
    for k in 0..CYCLES {
        // Align to this cycle's crash window.
        let now = m.network().borrow().now().cycles();
        let base = k * PERIOD;
        if base > now {
            m.advance(base - now);
        }
        // Sender n(2) crashes mid-transfer; the engine recovers.
        let (out, re) = recovering_xfer(&mut m, &data, &policy)
            .unwrap_or_else(|e| panic!("cycle {k}: recovery must converge: {e}"));
        assert_eq!(
            m.read_buffer(n(9), out.xfer.dst_buffer, data.len()),
            data,
            "cycle {k}: byte-exact after the sender crash"
        );
        recovered += re;
        // An RPC each cycle keeps the reply cache in play.
        let call = Op::rpc(n(4), n(11), 40, [k as u32, 0, 0, 0], Some(&policy));
        let (reply, _) = m
            .run(call.recovering(&recovery))
            .unwrap_or_else(|e| panic!("cycle {k}: rpc must complete: {e}"));
        assert_eq!(reply[0], k as u32);

        max_sessions = max_sessions.max(m.open_sessions());
        max_replies = max_replies.max(m.reply_cache_len());
        assert_eq!(
            m.open_sessions(),
            0,
            "cycle {k}: a completed transfer must leave no open session (no half-filled segments)"
        );
    }
    assert!(recovered > 0, "the crash windows must force re-executions");
    assert_eq!(*runs.borrow(), CYCLES as u32, "rpc handler exactly once per call");
    // Bounded across the whole soak: the TTL sweep and replace-on-epoch
    // reclaim keep both tables at a few entries, never O(cycles).
    assert!(max_sessions <= 2, "session table must stay bounded, saw {max_sessions}");
    assert!(
        max_replies <= 3,
        "reply cache must stay bounded by the TTL sweep, saw {max_replies}"
    );
    // The expiry bound changes when the tables are walked, never what a
    // walk reclaims or bills: every cycle's cached reply but the last
    // was reclaimed, and the `FaultTol` bills are the ones this run
    // produced when the pre-check walked both tables on every pump.
    let swept = CYCLES as usize - m.reply_cache_len();
    assert_eq!(swept, 21, "the TTL sweep reclaims each cycle's reply during the next");
    assert_eq!(fault_tol(&m, n(11)), 4 * swept as u64, "callee: 3 reg + 1 mem per reclaimed reply");
    assert_eq!(fault_tol(&m, n(9)), 854, "receiver: duplicate handshakes and epoch replaces");
    assert_eq!(fault_tol(&m, n(2)), 814, "sender: recovery re-executions");
    // One walk per reclaim, plus slack for a conservative bound — not
    // one per pump (this run pumps tens of thousands of times).
    assert!(
        m.gc_scans() <= swept as u64 + 2,
        "{} table walks to reclaim {swept} entries",
        m.gc_scans()
    );
    // A forced sweep returns both tables to the empty baseline and
    // reports exactly what it reclaimed.
    let before = (m.open_sessions(), m.reply_cache_len());
    let (s, r) = m.gc_sweep();
    assert_eq!((s, r), before, "the sweep must reclaim exactly what was left");
    assert_eq!(m.open_sessions(), 0);
    assert_eq!(m.reply_cache_len(), 0);
}

// ---------------------------------------------------------------------
// Quiesce: uniform cancellation wherever an op sits.
// ---------------------------------------------------------------------

/// `quiesce` settles dependency-held and recovery-parked operations
/// with `Cancelled` — not stranded, not `DependencyFailed` — and
/// records the uniform `Cancelled` trace event for each.
#[test]
fn quiesce_settles_parked_and_held_ops_with_uniform_events() {
    let policy = RetryPolicy::default();
    let data = payloads::mixed(256, 4);
    // A short crash window fells the recovering op early; a long outage
    // on an unrelated node keeps a third op running so the scheduler
    // returns control while the recovering op sits parked (with nothing
    // else running, `pump` would jump the clock through the backoff
    // window in one quantum and the park would never be observable).
    let fault = FaultConfig {
        crashes: vec![CrashWindow { node: n(9), start: 50, end: 600 }],
        outages: vec![OutageWindow { node: n(14), start: 0, end: 50_000 }],
        ..FaultConfig::default()
    };
    let mut m = machine("switched", &fault, 3);
    let mut eng = Engine::new();
    eng.enable_trace();
    let parked = eng
        .submit(
            &mut m,
            Op::xfer_reliable(n(2), n(9), &data, &policy).recovering(&RecoveryPolicy::default()),
        )
        .unwrap();
    let held = eng
        .submit(&mut m, Op::xfer_reliable(n(9), n(12), &data, &policy).after(&[parked]))
        .unwrap();
    let patient = RetryPolicy { max_attempts: 4, base_wait: 512, ..RetryPolicy::default() };
    let busy = eng.submit(&mut m, Op::xfer_reliable(n(3), n(14), &data, &patient)).unwrap();
    // Pump until the crash fells the first execution and the engine
    // parks the op for its backoff window.
    let mut guard = 0;
    while eng.parked_count() == 0 {
        eng.pump(&mut m);
        guard += 1;
        assert!(guard < 200_000, "the crash must park the recovering op");
    }
    eng.quiesce(&mut m);
    assert_eq!(eng.unfinished(), 0);
    assert_eq!(eng.take_outcome(parked).unwrap(), Err(ProtocolError::Cancelled));
    assert_eq!(eng.take_outcome(held).unwrap(), Err(ProtocolError::Cancelled));
    assert!(eng.take_outcome(busy).is_some(), "the running op is driven to a settled outcome");
    for id in [parked, held] {
        assert!(
            eng.trace().iter().any(|e| e.event == EngineEvent::Cancelled(id)),
            "uniform Cancelled event for {id:?}"
        );
    }
    assert_eq!(m.network().borrow().in_flight(), 0, "quiesce leaves the fabric empty");
}

// ---------------------------------------------------------------------
// Composed-fault chaos matrix.
// ---------------------------------------------------------------------

/// `CrashWindow` × {dup+jitter, drop-heavy, outage} × {switched,
/// wormhole, dual}: recovering transfers, streams, and RPCs all stay
/// exactly-once and byte-exact, and the receiver tables return to
/// baseline after GC (no half-filled segments, no unbounded
/// session/reply-cache growth).
#[test]
fn composed_fault_matrix_stays_exact_and_bounded() {
    let mixes: Vec<(&str, FaultConfig)> = vec![
        (
            "dup+jitter",
            FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() },
        ),
        ("drop-heavy", FaultConfig { drop_prob: 0.20, ..FaultConfig::default() }),
        (
            "outage",
            FaultConfig {
                drop_prob: 0.02,
                outages: vec![OutageWindow { node: n(12), start: 200, end: 1500 }],
                ..FaultConfig::default()
            },
        ),
    ];
    let inner = RetryPolicy { max_attempts: 3, base_wait: 512, ..RetryPolicy::default() };
    let recovery = RecoveryPolicy::default();
    let data = payloads::mixed(128, 17);
    let mut recovered = 0u32;
    for sub in ["switched", "wormhole", "dual"] {
        for (mix, fault) in &mixes {
            for seed in 0..2u64 {
                let fault = FaultConfig {
                    crashes: vec![CrashWindow { node: n(9), start: 50, end: 2500 }],
                    ..fault.clone()
                };
                let mut m = machine(sub, &fault, seed);
                let ctx = format!("{sub}/{mix}/seed {seed}");
                let runs = Rc::new(RefCell::new(0u32));
                let runs2 = Rc::clone(&runs);
                m.register_rpc_handler(n(12), 40, move |_, msg| {
                    *runs2.borrow_mut() += 1;
                    [msg.words[0] ^ 0xbeef, 0, 0, 0]
                });

                // Reliable transfer into the crashing node.
                let (out, re) = recovering_xfer(&mut m, &data, &inner)
                    .unwrap_or_else(|e| panic!("{ctx}: xfer: {e}"));
                assert_eq!(
                    m.read_buffer(n(9), out.xfer.dst_buffer, data.len()),
                    data,
                    "{ctx}: xfer byte-exact"
                );
                recovered += re;

                // Stream into the crashing node.
                let id = m.open_stream(n(3), n(9), StreamConfig::default());
                let (_, re) = m
                    .run(Op::stream_send(id, &data).recovering(&recovery))
                    .unwrap_or_else(|e| panic!("{ctx}: stream: {e}"));
                assert_eq!(m.stream_received(id), &data[..], "{ctx}: stream exactly-once");
                recovered += re;

                // RPCs to the outage-affected node: exactly-once via the
                // reply cache.
                for v in 0..3u32 {
                    let call = Op::rpc(n(4), n(12), 40, [v, 0, 0, 0], Some(&inner));
                    let (reply, re) = m
                        .run(call.recovering(&recovery))
                        .unwrap_or_else(|e| panic!("{ctx}: rpc {v}: {e}"));
                    assert_eq!(reply[0], v ^ 0xbeef, "{ctx}: rpc {v}");
                    recovered += re;
                }
                assert_eq!(*runs.borrow(), 3, "{ctx}: handler exactly once per call");

                // Bounded receiver tables: completed transfers leave no
                // sessions (no half-filled segments); the reply cache
                // holds at most one entry per logical call, and a forced
                // sweep returns everything to the empty baseline.
                assert_eq!(m.open_sessions(), 0, "{ctx}: no residual sessions");
                assert!(m.reply_cache_len() <= 3, "{ctx}: reply cache bounded");
                m.gc_sweep();
                assert_eq!(m.open_sessions(), 0, "{ctx}: baseline after GC");
                assert_eq!(m.reply_cache_len(), 0, "{ctx}: baseline after GC");
            }
        }
    }
    assert!(recovered > 0, "the matrix must exercise engine-native recovery");
}
