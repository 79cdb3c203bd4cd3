//! Engine concurrency properties.
//!
//! * **One run, many machines**: at least 8 operations across at least
//!   8 nodes progress concurrently inside a single [`Engine::run`] —
//!   proven from the scheduler trace (operations alternate `Progressed`
//!   events; completions land while other operations are still moving),
//!   not from serialized end states.
//! * **Cost identity**: interleaving K operations charges exactly the
//!   same per-node, per-feature instruction totals as running the same
//!   operations serially through the blocking API — for disjoint node
//!   pairs, for operations sharing an endpoint, and for same-pair
//!   operations the engine serializes by conflict key.
//! * **Correlation**: concurrent RPCs to one server match replies by
//!   call id and run handlers exactly once each.
//! * **Time passes to the next event**: `pump_until` moves the clock to
//!   the first of the substrate's quiet bound and the caller's limit,
//!   one cycle when something settled, and never less than `pump`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use timego_am::{
    CmamConfig, Engine, EngineEvent, Machine, Op, OpId, OpOutcome, ProtocolError, RecoveryPolicy,
    RetryPolicy, StreamConfig, StreamId, TracedEvent,
};
use timego_cost::Feature;
use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
use timego_ni::share;
use timego_workloads::{concurrent, payloads, scenarios};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn instant_machine(nodes: usize) -> Machine {
    Machine::new(share(ScriptedNetwork::new(nodes, DeliveryScript::InOrder)), nodes, CmamConfig::default())
}

/// Per-node, per-feature instruction totals.
fn feature_matrix(m: &Machine, nodes: usize) -> Vec<Vec<u64>> {
    (0..nodes)
        .map(|i| {
            Feature::ALL.iter().map(|&f| m.cpu(n(i)).snapshot().feature_total(f)).collect()
        })
        .collect()
}

fn progressed(trace: &[TracedEvent]) -> Vec<OpId> {
    trace
        .iter()
        .filter_map(|e| match e.event {
            EngineEvent::Progressed(id) => Some(id),
            _ => None,
        })
        .collect()
}

#[test]
fn eight_plus_ops_across_eight_plus_nodes_interleave_in_one_run() {
    const NODES: usize = 16;
    let mut m = concurrent::switched_machine(NODES, 23);
    let mut eng = Engine::new();

    // 8 reliable transfers on disjoint pairs: 16 distinct nodes.
    let policy = RetryPolicy::default();
    let mut expected = Vec::new();
    for i in 0..8 {
        let (src, dst) = (n(2 * i), n(2 * i + 1));
        let data = payloads::mixed(64, i as u64);
        let id = eng.submit(&mut m, Op::xfer_reliable(src, dst, &data, &policy)).expect("valid");
        expected.push((id, dst, data));
    }
    // Plus 4 concurrent RPCs riding the same run (no conflict keys).
    let calls = Rc::new(RefCell::new(0u32));
    let counter = calls.clone();
    m.register_rpc_handler(n(1), 40, move |_, msg| {
        *counter.borrow_mut() += 1;
        [msg.words[0] * 3, 0, 0, 0]
    });
    let rpcs: Vec<(OpId, u32)> = (0..4u32)
        .map(|v| {
            let call = Op::rpc(n(2 + 2 * (v as usize)), n(1), 40, [v, 0, 0, 0], None);
            (eng.submit(&mut m, call).expect("valid rpc"), v)
        })
        .collect();

    eng.run(&mut m);
    assert_eq!(eng.unfinished(), 0);

    // Every operation completed, byte-exact.
    for (id, dst, data) in &expected {
        match eng.take_outcome(*id).expect("finished").expect("completed") {
            OpOutcome::Reliable(out) => {
                assert_eq!(&m.read_buffer(*dst, out.xfer.dst_buffer, data.len()), data);
            }
            other => panic!("expected reliable outcome, got {other:?}"),
        }
    }
    for (id, v) in &rpcs {
        match eng.take_outcome(*id).expect("finished").expect("completed") {
            OpOutcome::Rpc(reply) => assert_eq!(reply[0], v * 3),
            other => panic!("expected rpc outcome, got {other:?}"),
        }
    }
    assert_eq!(*calls.borrow(), 4, "each rpc handler runs exactly once");

    // Interleaving, from the trace. Serial execution would give exactly
    // (ops - 1) switches between consecutive Progressed events; demand
    // far more, and demand a strict a-b-a alternation for most ops.
    let prog = progressed(eng.trace());
    let distinct: HashMap<OpId, ()> = prog.iter().map(|id| (*id, ())).collect();
    assert!(distinct.len() >= 12, "all 12 ops progressed, saw {}", distinct.len());
    let switches = prog.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches >= 2 * distinct.len(),
        "expected heavy interleaving, saw only {switches} switches across {} ops",
        distinct.len()
    );
    let mut first = HashMap::new();
    let mut last = HashMap::new();
    for (i, id) in prog.iter().enumerate() {
        first.entry(*id).or_insert(i);
        last.insert(*id, i);
    }
    let aba = prog
        .iter()
        .enumerate()
        .filter(|(i, id)| {
            first.iter().any(|(o, &f)| o != *id && f < *i && last[o] > *i)
        })
        .count();
    assert!(aba > 0, "no operation progressed strictly inside another's lifetime");

    // Completions interleave with progress: after the first Completed
    // event, other operations are still making progress.
    let trace = eng.trace();
    let first_done = trace
        .iter()
        .position(|e| matches!(e.event, EngineEvent::Completed(_, _)))
        .expect("something completed");
    let done_id = match trace[first_done].event {
        EngineEvent::Completed(id, _) => id,
        _ => unreachable!(),
    };
    assert!(
        trace[first_done..]
            .iter()
            .any(|e| matches!(e.event, EngineEvent::Progressed(id) if id != done_id)),
        "first completion was not followed by progress of any other op — serialized run"
    );
}

#[test]
fn disjoint_concurrent_ops_cost_identical_to_serial_blocking_runs() {
    const NODES: usize = 16;
    for k in [2usize, 4, 8] {
        let pairs: Vec<_> = (0..k).map(|i| (n(2 * i), n(2 * i + 1))).collect();
        let payload = |i: usize| payloads::mixed(32, 100 + i as u64);

        let mut serial = instant_machine(NODES);
        for (i, (src, dst)) in pairs.iter().enumerate() {
            serial.xfer(*src, *dst, &payload(i)).expect("instant substrate");
        }

        let mut conc = instant_machine(NODES);
        let mut eng = Engine::new();
        let ids: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, (src, dst))| eng.submit_xfer(&conc, *src, *dst, &payload(i)).expect("valid"))
            .collect();
        eng.run(&mut conc);
        for id in ids {
            assert!(eng.take_outcome(id).expect("finished").is_ok());
        }

        assert_eq!(
            feature_matrix(&conc, NODES),
            feature_matrix(&serial, NODES),
            "k={k}: interleaving must not change any node's per-feature bill"
        );
    }
}

#[test]
fn shared_endpoint_concurrent_ops_cost_identical_to_serial() {
    const NODES: usize = 8;
    // Fan-out: node 0 transfers to 1..=3 concurrently (distinct conflict
    // keys), and fan-in: nodes 5..=7 transfer to node 4.
    let fan: Vec<(NodeId, NodeId)> =
        vec![(n(0), n(1)), (n(0), n(2)), (n(0), n(3)), (n(5), n(4)), (n(6), n(4)), (n(7), n(4))];
    let payload = |i: usize| payloads::mixed(24, 7 + i as u64);

    let mut serial = instant_machine(NODES);
    for (i, (src, dst)) in fan.iter().enumerate() {
        serial.xfer(*src, *dst, &payload(i)).expect("instant substrate");
    }

    let mut conc = instant_machine(NODES);
    let mut eng = Engine::new();
    let ids: Vec<_> = fan
        .iter()
        .enumerate()
        .map(|(i, (src, dst))| eng.submit_xfer(&conc, *src, *dst, &payload(i)).expect("valid"))
        .collect();
    eng.run(&mut conc);
    for (i, id) in ids.into_iter().enumerate() {
        let out = eng.take_outcome(id).expect("finished").expect("completed");
        match out {
            OpOutcome::Xfer(x) => {
                assert_eq!(conc.read_buffer(fan[i].1, x.dst_buffer, 24), payload(i));
            }
            other => panic!("expected xfer outcome, got {other:?}"),
        }
    }

    assert_eq!(
        feature_matrix(&conc, NODES),
        feature_matrix(&serial, NODES),
        "shared-endpoint interleaving must not change any node's per-feature bill"
    );
}

#[test]
fn same_pair_ops_serialize_fifo_with_serial_cost() {
    let mut serial = instant_machine(2);
    let a = payloads::mixed(16, 1);
    let b = payloads::mixed(16, 2);
    serial.xfer(n(0), n(1), &a).expect("instant substrate");
    serial.xfer(n(0), n(1), &b).expect("instant substrate");

    let mut conc = instant_machine(2);
    let mut eng = Engine::new();
    let ia = eng.submit_xfer(&conc, n(0), n(1), &a).expect("valid");
    let ib = eng.submit_xfer(&conc, n(0), n(1), &b).expect("valid");
    eng.run(&mut conc);

    // FIFO: the second op starts only after the first completes.
    let trace = eng.trace();
    let done_a = trace
        .iter()
        .position(|e| matches!(e.event, EngineEvent::Completed(id, _) if id == ia))
        .expect("first op completed");
    let start_b = trace
        .iter()
        .position(|e| matches!(e.event, EngineEvent::Started(id) if id == ib))
        .expect("second op started");
    assert!(start_b > done_a, "same-pair ops must serialize in submission order");

    let out_a = match eng.take_outcome(ia).unwrap().unwrap() {
        OpOutcome::Xfer(x) => x,
        other => panic!("{other:?}"),
    };
    let out_b = match eng.take_outcome(ib).unwrap().unwrap() {
        OpOutcome::Xfer(x) => x,
        other => panic!("{other:?}"),
    };
    assert_ne!(out_a.dst_buffer, out_b.dst_buffer, "each transfer gets its own segment");
    assert_eq!(conc.read_buffer(n(1), out_a.dst_buffer, 16), a);
    assert_eq!(conc.read_buffer(n(1), out_b.dst_buffer, 16), b);

    assert_eq!(feature_matrix(&conc, 2), feature_matrix(&serial, 2));
}

#[test]
fn completion_percentiles_derive_from_cycle_stamped_trace() {
    // The congestion study's foundation: per-operation completion-time
    // distributions must be recoverable from the cycle-stamped event
    // trace alone. Re-derive them here by hand and check the engine's
    // own accessors agree, percentile by percentile.
    const NODES: usize = 8;
    let mut m = concurrent::switched_machine(NODES, 17);
    let mut eng = Engine::new();
    let mut ids = Vec::new();
    for i in 0..NODES {
        let data = payloads::mixed(24, i as u64);
        ids.push(eng.submit_xfer(&m, n(i), n((i + 1) % NODES), &data).expect("valid"));
    }
    eng.run(&mut m);

    // Hand-derived: pair each op's Submitted stamp with its Completed
    // stamp, straight off the trace.
    let mut submitted = HashMap::new();
    let mut derived = HashMap::new();
    for e in eng.trace() {
        match e.event {
            EngineEvent::Submitted(id) => {
                submitted.insert(id, e.at);
            }
            EngineEvent::Completed(id, _) => {
                derived.insert(id, e.at - submitted[&id]);
            }
            _ => {}
        }
    }
    assert_eq!(derived.len(), ids.len(), "every op completed");

    let engine_times: HashMap<OpId, u64> = eng.completion_times().into_iter().collect();
    assert_eq!(engine_times, derived, "completion_times() is exactly the trace derivation");

    let mut by_hand = timego_netsim::LatencyStats::default();
    for &t in derived.values() {
        by_hand.record(t);
    }
    let stats = eng.completion_stats();
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(stats.quantile(q), by_hand.quantile(q), "q={q}");
    }
    assert!(stats.quantile(0.99) > 0, "real transfers take real cycles");
}

/// What the engine's latency accessors must report, re-derived from
/// the raw trace alone.
struct TraceDerivation {
    /// `(id, Completed - Submitted)` in trace (= completion) order.
    completion_times: Vec<(OpId, u64)>,
    /// `(id, Released - Submitted)`, ascending by id.
    hold_times: Vec<(OpId, u64)>,
    /// `(id, ok, Completed stamp)` in trace order.
    completions: Vec<(OpId, bool, u64)>,
}

fn derive_from_trace(trace: &[TracedEvent]) -> TraceDerivation {
    let mut submitted = HashMap::new();
    let mut d = TraceDerivation {
        completion_times: Vec::new(),
        hold_times: Vec::new(),
        completions: Vec::new(),
    };
    for e in trace {
        match e.event {
            EngineEvent::Submitted(id) => {
                submitted.insert(id, e.at);
            }
            EngineEvent::Released(id) => d.hold_times.push((id, e.at - submitted[&id])),
            EngineEvent::Completed(id, ok) => {
                d.completion_times.push((id, e.at - submitted[&id]));
                d.completions.push((id, ok, e.at));
            }
            _ => {}
        }
    }
    d.hold_times.sort_unstable();
    d
}

#[test]
fn ledger_accessors_equal_the_trace_derivation_on_a_mixed_run() {
    // The engine answers latency questions from its op ledger, never by
    // reading its own trace. This pins ledger == trace on one run that
    // takes every path an op can: run-after holds, a failed predecessor
    // (while held, and already failed at submission), a cancel, a
    // deadline expiry, and a recovery re-execution that dependents
    // stay held across — so the trace can stay the oracle.
    const NODES: usize = 16;
    const FAST: u8 = 1;
    const SLOW: u8 = 2;
    let mut m = concurrent::switched_machine(NODES, 29);
    let mut eng = Engine::new();
    let small = payloads::mixed(48, 1);
    let big = payloads::mixed(512, 2);
    let retry = RetryPolicy::default();
    let mut class_of = HashMap::new();
    let mut submit = |eng: &mut Engine, m: &mut Machine, op: Op, class: u8| {
        let id = eng.submit(m, op.class(class)).expect("valid");
        class_of.insert(id, class);
        id
    };

    let a = submit(&mut eng, &mut m, Op::xfer(n(0), n(1), &small), FAST);
    // Held behind `a`, then released.
    let b = submit(&mut eng, &mut m, Op::xfer(n(2), n(3), &small).after(&[a]), FAST);
    // Same pair as `a`: released at once, pending behind its conflict key.
    let same_pair = submit(&mut eng, &mut m, Op::xfer(n(0), n(1), &small), SLOW);
    // Cannot finish in 10 cycles and has no recovery: fails by deadline.
    let doomed =
        submit(&mut eng, &mut m, Op::xfer_reliable(n(4), n(5), &big, &retry).deadline(10), SLOW);
    // Held behind `doomed`: felled by its failure, never released.
    let felled = submit(&mut eng, &mut m, Op::xfer(n(6), n(7), &small).after(&[doomed]), SLOW);
    // Same deadline, but recovery-armed: parks, re-executes, completes.
    let healed = submit(
        &mut eng,
        &mut m,
        Op::xfer_reliable(n(8), n(9), &big, &retry)
            .recovering(&RecoveryPolicy::default())
            .deadline(10),
        FAST,
    );
    // Stays held across the re-execution of `healed`.
    let patient = submit(&mut eng, &mut m, Op::xfer(n(10), n(11), &small).after(&[healed]), FAST);
    // Cancelled while still held behind `a`.
    let cancelled = submit(&mut eng, &mut m, Op::xfer(n(12), n(13), &small).after(&[a]), SLOW);

    let mut cursor = 0;
    let mut harvested = Vec::new();
    let mut late = None;
    let mut first_pump = true;
    while eng.pump(&mut m) > 0 {
        if std::mem::take(&mut first_pump) {
            assert!(eng.cancel(&m, cancelled), "found still held behind `a`");
        }
        harvested.extend(eng.completions_since(&mut cursor));
        if late.is_none() && harvested.iter().any(|&(id, ..)| id == doomed) {
            // Submitted after its predecessor failed: felled on arrival.
            let op = Op::xfer(n(14), n(15), &small).after(&[doomed]);
            late = Some(submit(&mut eng, &mut m, op, SLOW));
        }
    }
    harvested.extend(eng.completions_since(&mut cursor));
    let late = late.expect("the doomed op's failure was harvested mid-run");

    // The run took the paths it was built to take.
    let traced = |event: EngineEvent| eng.trace().iter().any(|e| e.event == event);
    assert!(traced(EngineEvent::Cancelled(cancelled)));
    assert!(traced(EngineEvent::Recovering(healed)));
    assert_eq!(eng.recovery_executions(healed), 1, "answerable after settlement");
    for ok in [a, b, same_pair, healed, patient] {
        assert!(eng.take_outcome(ok).unwrap().is_ok(), "op {} completes", ok.raw());
    }
    assert!(matches!(
        eng.take_outcome(doomed).unwrap(),
        Err(ProtocolError::DeadlineExceeded { what: "deadline", cycles: 10 })
    ));
    for dep in [felled, late] {
        assert!(matches!(
            eng.take_outcome(dep).unwrap(),
            Err(ProtocolError::DependencyFailed { failed, .. }) if failed == doomed
        ));
    }
    assert_eq!(eng.take_outcome(cancelled).unwrap(), Err(ProtocolError::Cancelled));

    // Ledger == trace.
    let derived = derive_from_trace(eng.trace());
    assert_eq!(derived.completions.len(), 9, "every op settled exactly once");
    assert_eq!(eng.completion_times(), derived.completion_times);
    assert_eq!(eng.hold_times(), derived.hold_times);
    assert_eq!(harvested, derived.completions, "harvests concatenate to the Completed events");
    for class in [FAST, SLOW] {
        let of_class: Vec<(OpId, u64)> = derived
            .completion_times
            .iter()
            .copied()
            .filter(|(id, _)| class_of[id] == class)
            .collect();
        assert!(!of_class.is_empty());
        assert_eq!(eng.completion_times_for_class(class), of_class, "class {class}");
    }
    let hold = |id: OpId| derived.hold_times.iter().find(|(i, _)| *i == id).map(|&(_, h)| h);
    assert!(hold(b).unwrap() > 0 && hold(patient).unwrap() > 0, "held ops report their wait");
    assert_eq!(hold(same_pair), Some(0), "queueing on a conflict key is not a hold");
    for never_released in [felled, late, cancelled] {
        assert_eq!(hold(never_released), None);
    }
}

#[test]
fn concurrent_rpcs_to_one_server_correlate_by_call_id() {
    const NODES: usize = 9;
    let mut m = Machine::new(
        share(scenarios::cm5_adaptive(NODES, 3)),
        NODES,
        CmamConfig::default(),
    );
    let calls = Rc::new(RefCell::new(0u32));
    let counter = calls.clone();
    m.register_rpc_handler(n(0), 50, move |_, msg| {
        *counter.borrow_mut() += 1;
        [msg.words[0].wrapping_mul(7), msg.words[1], 0, 0]
    });

    let mut eng = Engine::new();
    let ids: Vec<(OpId, u32)> = (1..NODES)
        .map(|i| {
            let v = i as u32;
            let call = Op::rpc(n(i), n(0), 50, [v, v * 11, 0, 0], None);
            (eng.submit(&mut m, call).expect("valid rpc"), v)
        })
        .collect();
    eng.run(&mut m);

    for (id, v) in ids {
        match eng.take_outcome(id).expect("finished").expect("completed") {
            OpOutcome::Rpc(reply) => {
                assert_eq!(reply, [v.wrapping_mul(7), v * 11, 0, 0], "caller {v} got its own reply");
            }
            other => panic!("expected rpc outcome, got {other:?}"),
        }
    }
    assert_eq!(*calls.borrow(), (NODES - 1) as u32, "handlers ran exactly once per call");
}

/// ROADMAP satellite: shrink the receive queue until the network
/// actually refuses injections, and prove the engine's idle-cycle
/// advancement still drains everything — no livelock, no timeout —
/// with the queue's high-water mark pinned at its capacity.
///
/// An engine consumer alone can never make the receive queue the brake:
/// its peek-gated receives drain every delivery within the same sweep,
/// so depth never exceeds one and `rx_queue_capacity` stays
/// epiphenomenal. The honest construction is two-phase: first fill the
/// hot node's queue with raw injections while *no* consumer runs, until
/// the full queue blocks last-hop delivery, backs the link queues up to
/// the source, and the fabric refuses the injection — then hand the
/// saturated machine to the engine and let it drain.
#[test]
fn small_rx_queues_refuse_injections_but_never_livelock() {
    use timego_netsim::{FatTree, InjectError, Packet, SwitchedConfig, SwitchedNetwork};

    let tag = timego_am::Tags::USER_BASE + 5;
    let words = [9u32, 9, 9, 9];
    let mut admitted: Vec<(usize, usize)> = Vec::new();
    for cap in [16usize, 4, 2, 1] {
        let net = SwitchedNetwork::new(
            FatTree::new(4, 2, 2),
            SwitchedConfig { rx_queue_capacity: cap, seed: 9, ..SwitchedConfig::default() },
        );
        let mut m = Machine::new(share(net), 8, CmamConfig::default());

        // Fill: keep injecting 6 → 7 with no consumer. Early refusals
        // are transient (the first-hop queue drains forward at link
        // rate); once the receive queue is full, deliveries block in
        // place, the backup reaches the source, and injection stays
        // refused no matter how long the fabric settles — that wedge
        // is the stop condition.
        let mut injected = 0usize;
        'fill: loop {
            assert!(injected < 10_000, "cap {cap}: the fabric never pushed back");
            for _ in 0..400 {
                let accepted = {
                    let mut net = m.network().borrow_mut();
                    match net.try_inject(Packet::new(n(6), n(7), tag, 0, &words)) {
                        Ok(()) => true,
                        Err(InjectError::Backpressure) => false,
                        Err(e) => panic!("cap {cap}: unexpected inject error {e}"),
                    }
                };
                m.network().borrow_mut().advance(1);
                if accepted {
                    injected += 1;
                    continue 'fill;
                }
            }
            break; // refused for 400 straight cycles: saturated
        }
        // Let every in-flight packet land or park behind the full queue.
        m.network().borrow_mut().advance(200);

        let (peak, backpressure, pending) = {
            let net = m.network().borrow();
            let stats = net.stats();
            (
                stats.occupancy_table()[7].peak_rx_depth,
                stats.backpressure,
                net.rx_pending(n(7)),
            )
        };
        assert!(backpressure > 0, "cap {cap}: refusal was not counted");
        assert_eq!(peak, cap, "cap {cap}: high-water mark must pin at capacity");
        assert_eq!(pending, cap, "cap {cap}: queue must sit full with no consumer");
        admitted.push((cap, injected));

        // Drain: one engine op per admitted packet, all on the same
        // (src, dst) pair so the conflict key serializes them FIFO.
        // Each op's own send may itself be refused by the still-full
        // fabric — idle-cycle advancement must retry and drain the
        // whole backlog without livelock or timeout.
        let mut eng = Engine::new();
        let ids: Vec<OpId> =
            (0..injected)
                .map(|_| eng.submit(&mut m, Op::am4(n(6), n(7), tag, words)).unwrap())
                .collect();
        eng.run(&mut m);
        assert_eq!(eng.unfinished(), 0);
        for id in ids {
            match eng.take_outcome(id).expect("finished") {
                Ok(OpOutcome::Am4(w)) => assert_eq!(w, words, "cap {cap}: bytes survived"),
                other => panic!("cap {cap}: a refused injection must retry, not wedge: {other:?}"),
            }
        }
    }
    // Shrinking the queue tightens the brake: with the link path fixed,
    // every slot removed from the receive queue is one fewer injection
    // the fabric admits before refusing.
    let count = |cap: usize| admitted.iter().find(|(c, _)| *c == cap).unwrap().1;
    for pair in [16usize, 4, 2, 1].windows(2) {
        assert!(
            count(pair[0]) > count(pair[1]),
            "admitted injections must shrink with the queue: cap {} admitted {}, cap {} admitted {}",
            pair[0],
            count(pair[0]),
            pair[1],
            count(pair[1])
        );
    }
}

/// Holding scripts. A scripted substrate holds packets per `(src, dst)`
/// pair — the trailing packet of an odd-length `AlternateSwap` run, a
/// partial shuffle window — until the pair's next injection, time
/// passing, or a receive-side look at an *empty* queue releases them.
/// With several senders sharing one receiver an op can go to sleep
/// behind another's queue head while its own packet is still held:
/// nothing of its own reaches that queue's head to wake it by.
///
/// Liveness: the scheduler completes every op word-exact and without a
/// timeout. (So does the reference round-robin, and between one pair
/// the two agree to the cycle: both pinned in-crate against the
/// oracle.)
#[test]
fn holding_scripts_stay_live_with_three_senders_to_one_receiver() {
    for script in [DeliveryScript::AlternateSwap, DeliveryScript::WindowShuffle { window: 4 }] {
        let ctx = format!("{script:?}");
        let mut m = Machine::new(share(ScriptedNetwork::new(4, script)), 4, CmamConfig::default());
        let mut eng = Engine::new();
        // Odd packet counts (4 payload words per packet): 5, 7 and 9.
        let xfers: Vec<(OpId, usize, Vec<u32>)> = (1..=3)
            .map(|s| {
                let data = payloads::mixed(12 + 8 * s, 70 + s as u64);
                (eng.submit_xfer(&m, n(s), n(0), &data).expect("valid"), s, data)
            })
            .collect();
        // And a 3-packet stream burst on each of the same pairs.
        let streams: Vec<(OpId, StreamId, Vec<u32>)> = (1..=3)
            .map(|s| {
                let sid = m.open_stream(n(s), n(0), StreamConfig::default());
                let data = payloads::mixed(12, 90 + s as u64);
                (eng.submit(&mut m, Op::stream_send(sid, &data)).expect("valid"), sid, data)
            })
            .collect();
        eng.run(&mut m);
        let now = m.network().borrow().now().cycles();
        assert!(now < 1 << 16, "{ctx}: finished at cycle {now} — something timed out");
        for (id, s, data) in xfers {
            match eng.take_outcome(id).expect("finished") {
                Ok(OpOutcome::Xfer(out)) => {
                    let got = m.read_buffer(n(0), out.dst_buffer, data.len());
                    assert_eq!(got, data, "{ctx}: xfer from {s}");
                }
                other => panic!("{ctx}: xfer from {s} ended {other:?}"),
            }
        }
        for (id, sid, data) in streams {
            let out = eng.take_outcome(id).expect("finished");
            assert!(matches!(out, Ok(OpOutcome::Stream(_))), "{ctx}: stream ended {out:?}");
            assert_eq!(m.stream_received(sid), data.as_slice(), "{ctx}: stream words");
        }
    }
}

/// `pump_until` against `pump` on one packet crossing a 64-node fat
/// tree (six links at two cycles each): the quantum that finds every op
/// asleep lets the whole crossing pass, or as much of it as the limit
/// allows; the quantum in which the op settles lets one cycle pass; an
/// empty engine moves straight to the limit; and `pump` is a limit that
/// has already passed.
#[test]
fn pump_until_lets_time_pass_to_the_next_event_and_no_further_than_the_limit() {
    let clock = |m: &Machine| m.network().borrow().now().cycles();
    let hop = |eng: &mut Engine, m: &mut Machine| {
        let id = eng.submit(m, Op::am4(n(0), n(63), 50, [1, 2, 3, 4])).expect("valid hop");
        (id, clock(m))
    };
    let mut m = Machine::new(share(scenarios::cm5_deterministic(64, 7)), 64, CmamConfig::default());
    let mut eng = Engine::new();

    // No limit: inject, then straight to the delivery cycle.
    let (id, t0) = hop(&mut eng, &mut m);
    assert_eq!(eng.pump_until(&mut m, u64::MAX), 1);
    assert_eq!(clock(&m), t0 + 12, "the packet cannot arrive sooner, and nothing else is due");
    // The delivery settles the op: one cycle, whatever the limit.
    assert_eq!(eng.pump_until(&mut m, u64::MAX), 0);
    assert_eq!(eng.completions_since(&mut 0), vec![(id, true, t0 + 12)]);

    // An empty engine moves to the limit, or one cycle past a stale one.
    let now = clock(&m);
    eng.pump_until(&mut m, now + 40);
    eng.pump_until(&mut m, 3);
    eng.pump(&mut m);
    assert_eq!(clock(&m), now + 42);

    // A limit inside the crossing stops the clock there; then the rest.
    let (_, t0) = hop(&mut eng, &mut m);
    eng.pump_until(&mut m, t0 + 5);
    assert_eq!(clock(&m), t0 + 5);
    eng.pump_until(&mut m, t0 + 30);
    assert_eq!(clock(&m), t0 + 12, "the bound, not the limit");
    eng.run(&mut m);

    // `pump` makes the crossing one cycle at a time, to the same stamp.
    let (id, t0) = hop(&mut eng, &mut m);
    let quanta = eng.counters().quanta;
    while eng.pump(&mut m) > 0 {}
    assert_eq!(eng.counters().quanta - quanta, 13, "twelve cycles on the wire and the delivery");
    assert_eq!(eng.completions_since(&mut 2).last(), Some(&(id, true, t0 + 12)));
}
