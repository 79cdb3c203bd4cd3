//! Liveness and crash-recovery plane: epoch-stamped sessions, engine
//! supervision, and node crash-restart faults.
//!
//! * **Epoch safety**: N back-to-back reliable transfers between the
//!   *same* ordered pair under a duplicating, jitter-delaying fault
//!   plane stay exactly-once and byte-exact on every substrate
//!   (switched fat tree, dateline wormhole torus, dual request/reply).
//!   Stale duplicates of earlier same-pair sessions are recognized by
//!   their epoch/nonce and discarded as fault-tolerance work — the
//!   in-order and buffer-management bills never move.
//! * **Crash recovery**: a node crash window mid-transfer erases the
//!   receiver's protocol state; the source detects the restart via the
//!   crash counter, fails fast with the retryable `SessionReset`, and
//!   a recovering reliable transfer re-executes under a fresh epoch until
//!   delivery is exactly-once and byte-exact, all billed to fault
//!   tolerance.
//! * **Supervision**: per-op deadlines and the no-progress watchdog
//!   settle individual wedged operations with the retryable
//!   `DeadlineExceeded`; `cancel` settles an op anywhere in the
//!   scheduler and cascades into dependents; `quiesce` cancels waiting
//!   work and drains the fabric.

use timego_am::{
    CmamConfig, Engine, Machine, Op, OpOutcome, ProtocolError, RecoveryPolicy, ReliableOutcome,
    RetryPolicy, Tags,
};
use timego_cost::Feature;
use timego_netsim::{
    CrashWindow, DualNetwork, FaultConfig, NodeId, Torus2D, VcDiscipline, WormholeConfig,
    WormholeNetwork,
};
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

const NODES: usize = 16;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// A blocking reliable transfer 2 → 9.
fn reliable(
    m: &mut Machine,
    data: &[u32],
    policy: &RetryPolicy,
) -> Result<ReliableOutcome, ProtocolError> {
    m.run(Op::xfer_reliable(n(2), n(9), data, policy)).map(|(out, _)| out)
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
        other => panic!("unknown substrate {other}"),
    }
}

fn dup_jitter() -> FaultConfig {
    FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() }
}

/// N back-to-back same-ordered-pair reliable transfers under dup+jitter
/// on all three substrates: every session must deliver exactly-once and
/// byte-exact. This is the wedge the epoch-stamped handshake fixes — a
/// jitter-delayed duplicate of session k's request or reply arriving
/// during session k+1 used to poison the later handshake.
#[test]
fn repeated_same_pair_transfers_stay_exact_under_dup_jitter() {
    const TRANSFERS: usize = 6;
    let policy = RetryPolicy::default();
    for sub in ["switched", "wormhole", "dual"] {
        for seed in 0..4u64 {
            let mut m = machine(sub, &dup_jitter(), seed);
            for k in 0..TRANSFERS {
                let data = payloads::mixed(24 + (k % 8), seed.wrapping_add(k as u64));
                let out = reliable(&mut m, &data, &policy)
                    .unwrap_or_else(|e| panic!("{sub}/seed {seed}/transfer {k}: {e}"));
                assert_eq!(
                    m.read_buffer(n(9), out.xfer.dst_buffer, data.len()),
                    data,
                    "{sub}/seed {seed}/transfer {k}: payload must be byte-exact"
                );
            }
        }
    }
}

/// Same-pair repetition under dup+jitter bills every discarded stale
/// packet to fault tolerance and nothing else: the in-order and
/// buffer-management totals of the faulted run equal the clean run's
/// exactly, and at least one seed must actually exercise a stale-epoch
/// discard (fault-tolerance bill strictly above clean).
#[test]
fn stale_epoch_discards_bill_fault_tolerance_only() {
    const TRANSFERS: usize = 6;
    let policy = RetryPolicy::default();
    let mut exercised = false;
    for seed in 0..6u64 {
        let run = |fault: &FaultConfig| {
            let mut m = machine("switched", fault, seed);
            m.reset_costs();
            for k in 0..TRANSFERS {
                let data = payloads::mixed(24 + (k % 8), seed.wrapping_add(k as u64));
                reliable(&mut m, &data, &policy)
                    .unwrap_or_else(|e| panic!("seed {seed}/transfer {k}: {e}"));
            }
            m
        };
        let faulted = run(&dup_jitter());
        let clean = run(&FaultConfig::default());
        for node in [n(2), n(9)] {
            let f = faulted.cpu(node).snapshot();
            let c = clean.cpu(node).snapshot();
            assert_eq!(
                f.feature_total(Feature::InOrder),
                c.feature_total(Feature::InOrder),
                "seed {seed}: in-order totals must not move under duplication"
            );
            assert_eq!(
                f.feature_total(Feature::BufferMgmt),
                c.feature_total(Feature::BufferMgmt),
                "seed {seed}: buffer-management totals must not move under duplication"
            );
        }
        let ft = |m: &Machine| {
            m.cpu(n(2)).snapshot().feature_total(Feature::FaultTol)
                + m.cpu(n(9)).snapshot().feature_total(Feature::FaultTol)
        };
        if ft(&faulted) > ft(&clean) {
            exercised = true;
        }
    }
    assert!(exercised, "at least one seed must discard recovery traffic");
}

/// A node crash mid-transfer erases the receiver's protocol state. The
/// session dies with a retryable error (`SessionReset` once the restart
/// is observed, or a phase timeout if the retry budget drains inside
/// the crash window first); a recovering reliable transfer re-executes
/// under a fresh epoch and converges to exactly-once byte-exact
/// delivery, with the re-establishment billed to fault tolerance.
#[test]
fn crash_mid_transfer_recovers_end_to_end() {
    let policy = RetryPolicy::default();
    let data = payloads::mixed(256, 42);
    let mut recovered = 0;
    for seed in 0..4u64 {
        let fault = FaultConfig {
            crashes: vec![CrashWindow { node: n(9), start: 50, end: 3000 }],
            ..FaultConfig::default()
        };
        let mut m = machine("switched", &fault, seed);
        m.reset_costs();
        // As many executions as the transfer has attempts.
        let budget =
            RecoveryPolicy { max_executions: policy.max_attempts, backoff: policy.clone() };
        let (out, re_executions) = m
            .run(Op::xfer_reliable(n(2), n(9), &data, &policy).recovering(&budget))
            .unwrap_or_else(|e| panic!("seed {seed}: recovery must converge: {e}"));
        assert_eq!(
            m.read_buffer(n(9), out.xfer.dst_buffer, data.len()),
            data,
            "seed {seed}: payload must be byte-exact after crash recovery"
        );
        if re_executions > 0 {
            recovered += 1;
            assert!(
                m.cpu(n(2)).snapshot().feature_total(Feature::FaultTol) > 0,
                "seed {seed}: session re-establishment must bill fault tolerance"
            );
        }
    }
    assert!(recovered > 0, "the crash window must force at least one re-execution");
}

/// A peer that crashed and restarted mid-session is detected by its
/// restart counter and surfaced as the retryable `SessionReset` naming
/// the crashed node (when the session survives long enough to observe
/// the restart rather than draining its retry budget inside the
/// window).
#[test]
fn restart_is_detected_and_retryable() {
    // A generous policy keeps the session alive across the whole crash
    // window, so the first failure it can die of is the restart
    // observation itself.
    let policy = RetryPolicy { max_attempts: 10, base_wait: 8192, ..RetryPolicy::default() };
    let fault = FaultConfig {
        crashes: vec![CrashWindow { node: n(9), start: 50, end: 4000 }],
        ..FaultConfig::default()
    };
    let mut m = machine("switched", &fault, 1);
    let err = reliable(&mut m, &payloads::mixed(256, 7), &policy)
        .expect_err("the crash must kill this session");
    assert!(err.is_retryable(), "crash-induced failure must be retryable: {err}");
    match err {
        ProtocolError::SessionReset { node } => assert_eq!(node, n(9)),
        other => panic!("expected SessionReset, got {other}"),
    }
}

/// A per-op deadline settles an op that cannot complete in time with
/// the retryable `DeadlineExceeded`, without touching other ops.
#[test]
fn deadline_settles_op_without_collateral() {
    let policy = RetryPolicy::default();
    let mut m = machine("switched", &FaultConfig::default(), 3);
    let mut eng = Engine::new();
    let doomed = eng
        .submit(
            &mut m,
            Op::xfer_reliable(n(2), n(9), &payloads::mixed(512, 1), &policy).deadline(5),
        )
        .unwrap();
    let data = payloads::mixed(64, 2);
    let fine = eng.submit(&mut m, Op::xfer_reliable(n(4), n(11), &data, &policy)).unwrap();
    eng.run(&mut m);
    match eng.take_outcome(doomed).unwrap() {
        Err(e @ ProtocolError::DeadlineExceeded { .. }) => {
            assert!(e.is_retryable(), "deadline expiry must be retryable");
        }
        other => panic!("a 5-cycle deadline cannot be met, got {other:?}"),
    }
    match eng.take_outcome(fine).unwrap() {
        Ok(OpOutcome::Reliable(out)) => {
            assert_eq!(m.read_buffer(n(11), out.xfer.dst_buffer, data.len()), data);
        }
        other => panic!("the undeadlined op must complete: {other:?}"),
    }
}

/// The watchdog settles an op that stops progressing (here: every
/// packet dropped, with protocol retry windows too wide to fire first)
/// instead of wedging the whole engine.
#[test]
fn watchdog_settles_wedged_op() {
    let fault = FaultConfig { drop_prob: 1.0, ..FaultConfig::default() };
    let mut m = machine("switched", &fault, 5);
    // Retry windows far beyond the watchdog bound: the op itself would
    // wait ~2^19 cycles before even retrying.
    let policy = RetryPolicy { max_attempts: 4, base_wait: 1 << 19, max_wait: 1 << 19, ..RetryPolicy::default() };
    let mut eng = Engine::new();
    eng.set_watchdog(500);
    let id = eng.submit(&mut m, Op::xfer_reliable(n(2), n(9), &[1, 2, 3, 4], &policy)).unwrap();
    eng.run(&mut m);
    match eng.take_outcome(id).unwrap() {
        Err(ProtocolError::DeadlineExceeded { what, .. }) => assert_eq!(what, "watchdog"),
        other => panic!("expected the watchdog to fire, got {other:?}"),
    }
}

/// `cancel` settles an op anywhere in the scheduler; dependents fail
/// with `DependencyFailed` rooted at the cancellation.
#[test]
fn cancel_cascades_into_dependents() {
    let policy = RetryPolicy::default();
    let mut m = machine("switched", &FaultConfig::default(), 7);
    let mut eng = Engine::new();
    let a = eng
        .submit(&mut m, Op::xfer_reliable(n(2), n(9), &payloads::mixed(64, 3), &policy))
        .unwrap();
    let b = eng
        .submit(
            &mut m,
            Op::xfer_reliable(n(9), n(12), &payloads::mixed(64, 4), &policy).after(&[a]),
        )
        .unwrap();
    assert!(eng.cancel(&m, a), "a is pending and must be cancellable");
    assert!(!eng.cancel(&m, a), "double-cancel is a no-op");
    eng.run(&mut m);
    assert_eq!(eng.take_outcome(a).unwrap(), Err(ProtocolError::Cancelled));
    match eng.take_outcome(b).unwrap() {
        Err(ProtocolError::DependencyFailed { failed, root }) => {
            assert_eq!(failed, a);
            assert_eq!(*root, ProtocolError::Cancelled);
        }
        other => panic!("b must fail on a's cancellation, got {other:?}"),
    }
}

/// `quiesce` cancels everything still waiting, completes what is
/// running, and leaves the fabric empty.
#[test]
fn quiesce_cancels_waiting_work_and_drains_the_fabric() {
    let policy = RetryPolicy::default();
    let mut m = machine("switched", &FaultConfig::default(), 9);
    let mut eng = Engine::new();
    let data = payloads::mixed(128, 5);
    let running = eng.submit(&mut m, Op::xfer_reliable(n(2), n(9), &data, &policy)).unwrap();
    // Same ordered pair: queued behind `running`'s conflict key.
    let waiting = eng.submit(&mut m, Op::xfer_reliable(n(2), n(9), &data, &policy)).unwrap();
    // Admit the first op so it is genuinely running before we quiesce.
    eng.pump(&mut m);
    eng.quiesce(&mut m);
    assert_eq!(eng.unfinished(), 0);
    match eng.take_outcome(running).unwrap() {
        Ok(OpOutcome::Reliable(out)) => {
            assert_eq!(m.read_buffer(n(9), out.xfer.dst_buffer, data.len()), data);
        }
        other => panic!("the running op must finish cleanly: {other:?}"),
    }
    assert_eq!(eng.take_outcome(waiting).unwrap(), Err(ProtocolError::Cancelled));
    assert_eq!(m.network().borrow().in_flight(), 0, "quiesce leaves the fabric empty");
}
