//! The single submission path, `Engine::submit(Op)`.
//!
//! * **Orthogonal modifiers**: every family × every subset of
//!   `{after, recovering, deadline, class}` submits, runs clean, and
//!   bills instruction-identically to the unmodified op — modifiers are
//!   columns, not new protocols. A class tag captures everything the op
//!   cost at its endpoints, admission `start` included.
//! * **Atomic landing**: all four modifiers in one call; the deadline is
//!   anchored at the submission cycle, not at release.
//! * **Reject before mutate**: an invalid submission returns
//!   `BadTransfer` naming the field and consumes nothing — no trace
//!   event, no queue entry, no RPC call id.

use std::cell::RefCell;
use std::rc::Rc;

use timego_am::{
    CmamConfig, Engine, EngineEvent, Machine, Op, OpId, ProtocolError, RecoveryPolicy,
    RetryPolicy, StreamConfig, StreamId, Tags,
};
use timego_cost::CostVector;
use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
use timego_ni::share;
use timego_workloads::scenarios;

const NODES: usize = 6;
const RPC_TAG: u8 = 40;
const AM_TAG: u8 = Tags::USER_BASE + 1;
const CLASS: u8 = 3;

const AFTER: u8 = 1;
const RECOVERING: u8 = 2;
const DEADLINE: u8 = 4;
const CLASSED: u8 = 8;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// A scripted machine with an echo RPC handler on node 1 (recording
/// every request's wire-visible call id) and one stream 0 → 1.
fn machine() -> (Machine, StreamId, Rc<RefCell<Vec<u32>>>) {
    let mut m = Machine::new(
        share(ScriptedNetwork::new(NODES, DeliveryScript::InOrder)),
        NODES,
        CmamConfig::default(),
    );
    let call_ids = Rc::new(RefCell::new(Vec::new()));
    let seen = call_ids.clone();
    m.register_rpc_handler(n(1), RPC_TAG, move |_, msg| {
        seen.borrow_mut().push(msg.header);
        msg.words
    });
    let sid = m.open_stream(n(0), n(1), StreamConfig::default());
    (m, sid, call_ids)
}

/// Submit one 0 → 1 op of `family` carrying the modifier subset `mods`
/// next to an untagged 2 → 3 predecessor, run to completion, and return
/// every node's bill plus the engine (for its class plane).
fn run(family: &str, mods: u8) -> Result<(Vec<CostVector>, Engine), ProtocolError> {
    let (mut m, sid, _) = machine();
    m.reset_costs();
    let mut eng = Engine::new();
    let pred = eng.submit_xfer(&m, n(2), n(3), &[1, 2, 3]).unwrap();
    let data: Vec<u32> = (0..40).collect();
    let mut op: Op = match family {
        "xfer" => Op::xfer(n(0), n(1), &data).into(),
        "xfer_reliable" => Op::xfer_reliable(n(0), n(1), &data, &RetryPolicy::default()).into(),
        "stream_send" => Op::stream_send(sid, &data).into(),
        "rpc" => Op::rpc(n(0), n(1), RPC_TAG, [1, 2, 3, 4], Some(&RetryPolicy::default())).into(),
        _ => Op::am4(n(0), n(1), AM_TAG, [5, 6, 7, 8]).into(),
    };
    if mods & AFTER != 0 {
        op = op.after(&[pred]);
    }
    if mods & RECOVERING != 0 {
        op = op.recovering(&RecoveryPolicy::default());
    }
    if mods & DEADLINE != 0 {
        op = op.deadline(1 << 20);
    }
    if mods & CLASSED != 0 {
        op = op.class(CLASS);
    }
    let id = eng.submit(&mut m, op)?;
    eng.run(&mut m);
    for op in [pred, id] {
        let outcome = eng.take_outcome(op).expect("ran to completion");
        assert!(outcome.is_ok(), "{family} mods {mods:#06b}: {outcome:?}");
    }
    assert_eq!(eng.recovery_executions(id), 0);
    Ok(((0..NODES).map(|i| m.cpu(n(i)).snapshot()).collect(), eng))
}

#[test]
fn every_family_takes_every_modifier_subset_at_the_unmodified_bill() {
    for family in ["xfer", "xfer_reliable", "stream_send", "rpc", "am4"] {
        let (plain, _) = run(family, 0).unwrap();
        for mods in 1..16u8 {
            if family == "xfer" && mods & RECOVERING != 0 {
                // A plain transfer has no re-execution recipe: an
                // error, not a silently ignored policy.
                match run(family, mods) {
                    Err(ProtocolError::BadTransfer(msg)) => assert!(msg.contains("recovering")),
                    other => panic!("xfer.recovering() accepted: {:?}", other.map(|(b, _)| b)),
                }
                continue;
            }
            let (bills, eng) = run(family, mods).unwrap();
            assert_eq!(bills, plain, "{family} mods {mods:#06b} changed the bill");
            if mods & CLASSED != 0 {
                // Only the 0 -> 1 op is tagged and only it touches
                // nodes 0 and 1, so its class owns their whole bill —
                // `start` cost included, whether the op was admitted in
                // the pump right after submission or released later.
                let endpoints = bills[0].clone() + bills[1].clone();
                assert!(!endpoints.is_empty());
                assert_eq!(eng.class_bill(CLASS), endpoints, "{family} mods {mods:#06b}");
            } else {
                assert!(eng.class_bills().is_empty());
            }
        }
    }
}

fn stamp(eng: &Engine, want: EngineEvent) -> u64 {
    eng.trace().iter().find(|e| e.event == want).unwrap_or_else(|| panic!("no {want:?}")).at
}

#[test]
fn all_four_modifiers_land_with_the_submission() {
    let mut m =
        Machine::new(share(scenarios::cm5_deterministic(8, 7)), 8, CmamConfig::default());
    m.register_rpc_handler(n(3), RPC_TAG, |_, msg| msg.words);
    m.advance(37);
    let mut eng = Engine::new();
    eng.enable_trace();
    let slow: Vec<u32> = (0..2048).collect();
    let pred = eng.submit_xfer(&m, n(0), n(1), &slow).unwrap();
    let call = |deadline: u64| {
        Op::rpc(n(2), n(3), RPC_TAG, [9; 4], None)
            .after(&[pred])
            .recovering(&RecoveryPolicy::default())
            .deadline(deadline)
            .class(CLASS)
    };
    // Held behind a transfer that outlasts it, a 9-cycle deadline fires
    // 9 cycles after *submission* — while the op is still held.
    let doomed = eng.submit(&mut m, call(9)).unwrap();
    let roomy = eng.submit(&mut m, call(1 << 20)).unwrap();
    m.reset_costs();
    eng.run(&mut m);
    match eng.take_outcome(doomed).unwrap() {
        Err(ProtocolError::DeadlineExceeded { what: "deadline", cycles: 9 }) => {}
        other => panic!("expected the 9-cycle deadline, got {other:?}"),
    }
    assert_eq!(stamp(&eng, EngineEvent::Submitted(doomed)), 37);
    let expired = stamp(&eng, EngineEvent::Completed(doomed, false));
    let released = stamp(&eng, EngineEvent::Released(roomy));
    assert!((46..released).contains(&expired), "expired at {expired}, pred done at {released}");
    // The survivor ran under its tag from the first instruction.
    assert_eq!(eng.take_outcome(roomy).unwrap().map(|_| ()), Ok(()));
    let endpoints = m.cpu(n(2)).snapshot() + m.cpu(n(3)).snapshot();
    assert_eq!(eng.class_bill(CLASS), endpoints);
    assert_eq!(eng.completion_times_for_class(CLASS).len(), 2);
}

#[test]
fn rejected_submission_changes_nothing() {
    // An id the engine under test has not minted yet.
    let forward: OpId = {
        let (m, _, _) = machine();
        let mut other = Engine::new();
        (0..3).map(|_| other.submit_xfer(&m, n(0), n(1), &[1]).unwrap()).last().unwrap()
    };
    // A stream id this machine never opened (it opens two below).
    let foreign: StreamId = {
        let (mut other, _, _) = machine();
        other.open_stream(n(2), n(3), StreamConfig::default());
        other.open_stream(n(2), n(3), StreamConfig::default())
    };
    let ok = RetryPolicy::default();
    let no_attempts = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
    let no_executions = RecoveryPolicy { max_executions: 0, ..RecoveryPolicy::default() };
    let huge = vec![0u32; 1 << 20];
    let rpc = || Op::rpc(n(0), n(1), RPC_TAG, [1; 4], None);
    let am4 = || Op::am4(n(0), n(1), AM_TAG, [1; 4]);
    let rejects: Vec<(Op, &str)> = vec![
        (Op::xfer(n(0), n(0), &[1]).into(), "src and dst"),
        (Op::am4(n(NODES), n(0), AM_TAG, [1; 4]).into(), "src"),
        (Op::rpc(n(0), n(NODES + 3), RPC_TAG, [1; 4], None).into(), "dst"),
        (Op::stream_send(foreign, &[1]).into(), "stream id"),
        (Op::xfer(n(0), n(1), &[]).into(), "empty transfer"),
        (Op::xfer_reliable(n(0), n(1), &[], &ok).into(), "empty transfer"),
        (Op::xfer_reliable(n(0), n(1), &huge, &ok).into(), "caps at"),
        (Op::am4(n(0), n(1), Tags::USER_BASE - 1, [1; 4]).into(), "reserved"),
        (Op::xfer_reliable(n(0), n(1), &[1], &no_attempts).into(), "policy.max_attempts"),
        (Op::rpc(n(0), n(1), RPC_TAG, [1; 4], Some(&no_attempts)).into(), "policy.max_attempts"),
        (Op::xfer(n(0), n(1), &[1]).recovering(&RecoveryPolicy::none()).into(), "recovering"),
        (rpc().recovering(&no_executions).into(), "recovery.max_executions"),
        (am4().recovering(&no_executions).into(), "recovery.max_executions"),
        (rpc().after(&[forward]).into(), "cycle"),
        (am4().recovering(&RecoveryPolicy::default()).after(&[forward]).into(), "cycle"),
    ];

    // The next RPC's call id, with and without the rejections before it.
    let wire_call_id = |rejects: Vec<(Op, &str)>| -> u32 {
        let (mut m, sid, call_ids) = machine();
        let mut eng = Engine::new();
        eng.enable_trace();
        eng.submit_xfer(&m, n(2), n(3), &[1, 2]).unwrap();
        let (events, unfinished) = (eng.trace().len(), eng.unfinished());
        // The empty stream send and the stream that can never inject
        // (no source-buffer slot) need this machine's own streams.
        let shut = m.open_stream(n(0), n(1), StreamConfig { window: 0, ..StreamConfig::default() });
        let own = [
            (Op::stream_send(sid, &[]).into(), "empty stream send"),
            (Op::stream_send(shut, &[1]).into(), "window"),
        ];
        for (op, field) in rejects.into_iter().chain(own) {
            match eng.submit(&mut m, op.clone()) {
                Err(ProtocolError::BadTransfer(msg)) => {
                    assert!(msg.contains(field), "{op:?}: {msg:?} does not name {field:?}");
                }
                other => panic!("{op:?} was not rejected: {other:?}"),
            }
            assert_eq!((eng.trace().len(), eng.unfinished()), (events, unfinished), "{op:?}");
        }
        let call = eng.submit(&mut m, rpc()).unwrap();
        eng.run(&mut m);
        assert!(eng.take_outcome(call).unwrap().is_ok());
        let seen = call_ids.borrow();
        assert_eq!(seen.len(), 1);
        seen[0]
    };
    assert_eq!(wire_call_id(rejects), wire_call_id(Vec::new()));
}

#[test]
fn an_id_this_engine_never_minted_is_unknown_not_a_panic() {
    // Ids are positions in the minting engine's ledger; another
    // engine's id may lie past the end of this one's.
    let (mut m, _, _) = machine();
    let foreign: OpId = {
        let mut other = Engine::new();
        (0..3).map(|_| other.submit_xfer(&m, n(2), n(3), &[1]).unwrap()).last().unwrap()
    };
    let mut eng = Engine::new();
    eng.enable_trace();
    let own = eng.submit_xfer(&m, n(0), n(1), &[1, 2]).unwrap();
    assert!(foreign.raw() > own.raw());
    for _ in 0..2 {
        assert_eq!(eng.take_outcome(foreign), None);
        assert!(!eng.cancel(&m, foreign));
        assert_eq!(eng.recovery_executions(foreign), 0);
        eng.run(&mut m);
    }
    let refused = EngineEvent::Cancelled(foreign);
    assert!(eng.trace().iter().all(|e| e.event != refused), "a refused cancel leaves no trace");
    assert!(eng.take_outcome(own).unwrap().is_ok(), "the engine's own op is untouched");
}
