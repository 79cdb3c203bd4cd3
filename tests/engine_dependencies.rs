//! Run-after dependency semantics, proven from the scheduler trace.
//!
//! * **Topological order**: a diamond DAG admits each operation only
//!   after every predecessor completes — `Released`/`Started` events
//!   land strictly after the predecessors' `Completed` events.
//! * **Failure propagation**: a failing predecessor fails all
//!   transitive dependents with [`ProtocolError::DependencyFailed`],
//!   each naming its *direct* failed predecessor, and submitting
//!   against an already-failed predecessor fails at submission.
//! * **Cycle rejection**: dependency edges must point backward to ids
//!   the engine has already minted, so cycles (and self-edges) are
//!   structurally impossible and rejected at submission.
//! * **Held time**: `completion_times()` anchors at submission and so
//!   *includes* time held behind predecessors; `hold_times()` exposes
//!   the held span for callers that want pure execution latency.

use timego_am::{CmamConfig, Engine, EngineEvent, Machine, Op, OpId, OpOutcome, ProtocolError};
use timego_netsim::{DeliveryScript, FaultConfig, NodeId, ScriptedNetwork};
use timego_ni::share;
use timego_workloads::scenarios;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn instant_machine(nodes: usize) -> Machine {
    Machine::new(
        share(ScriptedNetwork::new(nodes, DeliveryScript::InOrder)),
        nodes,
        CmamConfig::default(),
    )
}

/// Trace position of the first matching event.
fn at(eng: &Engine, want: &EngineEvent) -> usize {
    eng.trace()
        .iter()
        .position(|e| e.event == *want)
        .unwrap_or_else(|| panic!("event {want:?} not in trace"))
}

#[test]
fn diamond_dag_completes_in_topological_order() {
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(4, 7)),
        4,
        CmamConfig::default(),
    );
    let mut eng = Engine::new();
    eng.enable_trace();
    let data: Vec<u32> = (0..32).collect();
    // Diamond: a → {b, c} → d, on four distinct node pairs.
    let a = eng.submit_xfer(&m, n(0), n(1), &data).unwrap();
    let b = eng.submit(&mut m, Op::xfer(n(1), n(2), &data).after(&[a])).unwrap();
    let c = eng.submit(&mut m, Op::xfer(n(1), n(3), &data).after(&[a])).unwrap();
    let d = eng.submit(&mut m, Op::xfer(n(2), n(3), &data).after(&[b, c])).unwrap();
    eng.run(&mut m);
    for id in [a, b, c, d] {
        assert!(eng.take_outcome(id).unwrap().is_ok(), "op {} failed", id.raw());
    }

    // A dependency-free op is released the moment it is submitted...
    assert_eq!(at(&eng, &EngineEvent::Released(a)), at(&eng, &EngineEvent::Submitted(a)) + 1);
    // ...while each dependent is released only after every predecessor
    // completed, and started only after release.
    let done = |id| at(&eng, &EngineEvent::Completed(id, true));
    for (dep, preds) in [(b, vec![a]), (c, vec![a]), (d, vec![b, c])] {
        let released = at(&eng, &EngineEvent::Released(dep));
        for p in preds {
            assert!(
                released > done(p),
                "op {} released at {} before predecessor {} completed at {}",
                dep.raw(),
                released,
                p.raw(),
                done(p)
            );
        }
        assert!(at(&eng, &EngineEvent::Started(dep)) > released);
    }
}

#[test]
fn failing_predecessor_fails_transitive_dependents() {
    // Every packet dropped: the root transfer can only time out.
    let fault = FaultConfig { drop_prob: 1.0, ..FaultConfig::default() };
    let mut m = Machine::new(
        share(scenarios::cm5_chaos(4, fault, 11)),
        4,
        CmamConfig { max_wait_cycles: 300, ..CmamConfig::default() },
    );
    let mut eng = Engine::new();
    eng.enable_trace();
    let a = eng.submit_xfer(&m, n(0), n(1), &[1, 2, 3]).unwrap();
    let b = eng.submit(&mut m, Op::xfer(n(1), n(2), &[1, 2, 3]).after(&[a])).unwrap();
    let c = eng.submit(&mut m, Op::xfer(n(2), n(3), &[1, 2, 3]).after(&[b])).unwrap();
    eng.run(&mut m);

    // The root dies on its own timeout — or, if the per-op watchdog
    // bound is tighter than the protocol timeout under this config, on
    // the watchdog's `DeadlineExceeded`. Both are retryable liveness
    // errors; either way the failure cone below must collapse.
    let root_err = match eng.take_outcome(a).unwrap() {
        Err(e @ (ProtocolError::Timeout { .. } | ProtocolError::DeadlineExceeded { .. })) => e,
        other => panic!("root should die of a liveness error, got {other:?}"),
    };
    // Each dependent carries its *direct* failed predecessor, spelling
    // out the propagation path a → b → c, and every link carries the
    // same flattened root cause.
    match eng.take_outcome(b).unwrap() {
        Err(ProtocolError::DependencyFailed { failed, root }) => {
            assert_eq!(failed, a);
            assert_eq!(*root, root_err);
        }
        other => panic!("b should fail on a's failure, got {other:?}"),
    }
    match eng.take_outcome(c).unwrap() {
        Err(ProtocolError::DependencyFailed { failed, root }) => {
            assert_eq!(failed, b);
            assert_eq!(*root, root_err, "root cause flattens through the chain");
        }
        other => panic!("c should fail on b's failure, got {other:?}"),
    }
    // Dependents were never released or started.
    assert!(!eng.trace().iter().any(|e| e.event == EngineEvent::Released(b)));
    assert!(!eng.trace().iter().any(|e| e.event == EngineEvent::Started(c)));
}

#[test]
fn submitting_after_settled_predecessors_resolves_immediately() {
    let mut m = instant_machine(4);
    let mut eng = Engine::new();
    let ok = eng.submit_xfer(&m, n(0), n(1), &[1]).unwrap();
    eng.run(&mut m);
    assert!(eng.take_outcome(ok).unwrap().is_ok());

    // After a *successful* predecessor: released immediately, runs.
    let after_ok = eng.submit(&mut m, Op::xfer(n(1), n(2), &[1]).after(&[ok])).unwrap();
    eng.run(&mut m);
    assert!(eng.take_outcome(after_ok).unwrap().is_ok());

    // Manufacture a deterministic failure on a full-drop machine.
    let fault = FaultConfig { drop_prob: 1.0, ..FaultConfig::default() };
    let mut fm = Machine::new(
        share(scenarios::cm5_chaos(4, fault, 5)),
        4,
        CmamConfig { max_wait_cycles: 200, ..CmamConfig::default() },
    );
    let mut feng = Engine::new();
    let doomed = feng.submit_xfer(&fm, n(0), n(1), &[1]).unwrap();
    feng.run(&mut fm);
    assert!(feng.take_outcome(doomed).unwrap().is_err());
    // After a *failed* predecessor: fails at submission, no engine run
    // needed, outcome available at once.
    let after_err = feng.submit(&mut fm, Op::xfer(n(1), n(2), &[1]).after(&[doomed])).unwrap();
    match feng.take_outcome(after_err).unwrap() {
        Err(ProtocolError::DependencyFailed { failed, .. }) => assert_eq!(failed, doomed),
        other => panic!("late dependent should fail at submission, got {other:?}"),
    }
}

#[test]
fn dependency_cycles_are_rejected_at_submission() {
    let mut m = instant_machine(4);
    let mut eng = Engine::new();
    // Mint ids 0 and 1 on a *different* engine so we hold OpIds whose
    // raw values this engine has not issued yet — the only way to even
    // express a forward (and hence potentially cyclic) edge, since ids
    // are unforgeable and this engine's own ids all point backward.
    let mut other = Engine::new();
    let _ = other.submit_xfer(&m, n(0), n(1), &[1]).unwrap();
    let forward = other.submit_xfer(&m, n(1), n(2), &[1]).unwrap();
    assert_eq!(forward.raw(), 1);

    // This engine has issued no ids, so raw id 1 is a forward edge.
    match eng.submit(&mut m, Op::xfer(n(0), n(1), &[1]).after(&[forward])) {
        Err(ProtocolError::BadTransfer(msg)) => {
            assert!(msg.contains("cycle"), "{msg}");
        }
        other => panic!("forward dependency accepted: {other:?}"),
    }
    // Nothing was enqueued by the rejected submission.
    assert_eq!(eng.unfinished(), 0);
}

#[test]
fn completion_times_include_held_span_and_hold_times_expose_it() {
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(4, 3)),
        4,
        CmamConfig::default(),
    );
    let mut eng = Engine::new();
    let data: Vec<u32> = (0..64).collect();
    let a = eng.submit_xfer(&m, n(0), n(1), &data).unwrap();
    let b = eng.submit(&mut m, Op::xfer(n(2), n(3), &data).after(&[a])).unwrap();
    eng.run(&mut m);
    assert!(eng.take_outcome(a).unwrap().is_ok());
    assert!(eng.take_outcome(b).unwrap().is_ok());

    let times = eng.completion_times();
    let completion = |id: OpId| times.iter().find(|(i, _)| *i == id).unwrap().1;
    let holds = eng.hold_times();
    let hold = |id: OpId| holds.iter().find(|(i, _)| *i == id).unwrap().1;

    // The dependency-free op was never held.
    assert_eq!(hold(a), 0);
    // Both were submitted in the same cycle, so b's hold span is
    // exactly a's completion time, and b's submission-anchored
    // completion time contains the whole held span on top of its own
    // execution.
    assert!(hold(b) > 0, "b must spend cycles held behind a");
    assert_eq!(hold(b), completion(a));
    assert!(completion(b) > hold(b));
}

#[test]
fn am4_op_delivers_words_at_table1_cost() {
    let mut m = instant_machine(2);
    m.reset_costs();
    let mut eng = Engine::new();
    let tag = timego_am::Tags::USER_BASE + 3;
    let id = eng.submit(&mut m, Op::am4(n(0), n(1), tag, [4, 5, 6, 7])).unwrap();
    eng.run(&mut m);
    assert_eq!(eng.take_outcome(id).unwrap(), Ok(OpOutcome::Am4([4, 5, 6, 7])));
    // One Table 1 round and nothing else: 20-instruction send plus
    // 27-instruction poll, no idle polls (the receive is peek-gated).
    let total: u64 =
        (0..2).map(|i| m.cpu(n(i)).snapshot().total()).sum();
    assert_eq!(total, 47);
}

#[test]
fn every_submitted_op_is_released_exactly_once() {
    let mut m = instant_machine(6);
    let mut eng = Engine::new();
    eng.enable_trace();
    let a = eng.submit_xfer(&m, n(0), n(1), &[1, 2]).unwrap();
    let _b =
        eng.submit(&mut m, Op::am4(n(2), n(3), timego_am::Tags::USER_BASE + 1, [9; 4])).unwrap();
    let _c = eng.submit(&mut m, Op::xfer(n(4), n(5), &[3]).after(&[a])).unwrap();
    eng.run(&mut m);
    let mut submitted = 0;
    let mut released = 0;
    for e in eng.trace() {
        match e.event {
            EngineEvent::Submitted(_) => submitted += 1,
            EngineEvent::Released(_) => released += 1,
            _ => {}
        }
    }
    assert_eq!(submitted, 3);
    assert_eq!(released, 3, "Released is recorded uniformly, deps or not");
}
