//! Chaos soak: sweep seeds × fault mixes × protocols and assert the
//! recovery layer's end-to-end guarantees hold everywhere.
//!
//! For every named fault mix (drop, duplicate, reorder, outage, storm)
//! and twenty seeds each, the three fault-tolerant protocols — retried
//! RPC, `xfer_reliable`, and the indefinite-sequence stream — must:
//!
//! * **complete** (no timeout within the retry policy's bounds),
//! * invoke RPC handlers **exactly once** per logical call, even when
//!   the network duplicates requests or the caller retransmits them,
//! * deliver **byte-exact** payloads,
//! * keep **buffer occupancy bounded**: residual stray packets after a
//!   run are limited by the duplications the fault plane injected, not
//!   proportional to the data volume.
//!
//! A final case re-runs the sweep with every fault probability at zero
//! and checks the recovery-capable protocols cost exactly the same
//! per-feature instruction counts as their paper-faithful originals.
//!
//! The concurrency × fault-plane matrix extends the soak across
//! substrates: operation count {4, 12, 24} × fault mix {clean,
//! drop-heavy, dup+jitter, outage} × substrate {switched, wormhole,
//! dual}, with serial-blocking cost identity asserted at the clean
//! packet-switched points.

use std::cell::RefCell;
use std::rc::Rc;

use timego_am::{CmamConfig, Machine, Op, RetryPolicy, StreamConfig};
use timego_cost::Feature;
use timego_netsim::{FaultConfig, NodeId};
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

const SEEDS: u64 = 20;
const NODES: usize = 4;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn chaos_machine(fault: &FaultConfig, seed: u64) -> Machine {
    Machine::new(
        share(scenarios::cm5_chaos(NODES, fault.clone(), seed)),
        NODES,
        CmamConfig::default(),
    )
}

/// Drain every stray packet still queued or in flight after a run and
/// return the count. Late duplicates and crossed retransmissions may
/// linger, but their number must be bounded by what the fault plane
/// actually injected — not grow with payload size.
fn residual_packets(m: &Machine, nodes: usize) -> u64 {
    m.advance(4_096); // flush jitter/reorder holds
    let net = m.network();
    let mut strays = 0;
    for i in 0..nodes {
        while net.borrow_mut().try_receive(n(i)).is_some() {
            strays += 1;
        }
    }
    strays
}

fn assert_occupancy_bounded(m: &Machine, nodes: usize, label: &str, seed: u64) {
    let strays = residual_packets(m, nodes);
    let stats = m.network().borrow().stats().clone();
    // Every stray is either a fault-plane duplicate or a software
    // retransmission that crossed its own recovery; both are counted.
    let bound = stats.duplicated + stats.reordered + 16;
    assert!(
        strays <= bound,
        "{label}/seed {seed}: {strays} stray packets exceed bound {bound}"
    );
}

#[test]
fn retried_rpc_soaks_clean_across_fault_mixes() {
    for (mix, fault) in scenarios::fault_mixes() {
        let mut mix_faults = 0u64;
        for seed in 0..SEEDS {
            let mut m = chaos_machine(&fault, seed);
            let runs = Rc::new(RefCell::new(0u32));
            let counter = runs.clone();
            m.register_rpc_handler(n(1), 40, move |_, msg| {
                *counter.borrow_mut() += 1;
                [msg.words[0].wrapping_mul(3), msg.words[1] ^ 0xdead_beef, 0, 0]
            });
            let calls = 5u32;
            for v in 0..calls {
                let args = [v, seed as u32, 0, 0];
                let (reply, _) = m
                    .run(Op::rpc(n(0), n(1), 40, args, Some(&RetryPolicy::default())))
                    .unwrap_or_else(|e| panic!("{mix}/seed {seed} call {v}: {e}"));
                assert_eq!(
                    reply,
                    [v.wrapping_mul(3), seed as u32 ^ 0xdead_beef, 0, 0],
                    "{mix}/seed {seed} call {v}: reply must be byte-exact"
                );
            }
            assert_eq!(
                *runs.borrow(),
                calls,
                "{mix}/seed {seed}: handler must run exactly once per call"
            );
            assert_occupancy_bounded(&m, NODES, mix, seed);
            let s = m.network().borrow().stats().clone();
            mix_faults +=
                s.dropped_fault + s.duplicated + s.reordered + s.outage_drops + s.dropped_corrupt;
        }
        assert!(mix_faults > 0, "mix {mix:?} never injected a fault across {SEEDS} seeds");
    }
}

#[test]
fn xfer_reliable_soaks_byte_exact_across_fault_mixes() {
    let mut retransmitted = false;
    for (mix, fault) in scenarios::fault_mixes() {
        let mut mix_faults = 0u64;
        for seed in 0..SEEDS {
            let mut m = chaos_machine(&fault, seed);
            let words = 32 + (seed as usize % 48);
            let data = payloads::mixed(words, seed);
            let (out, _) = m
                .run(Op::xfer_reliable(n(0), n(1), &data, &RetryPolicy::default()))
                .unwrap_or_else(|e| panic!("{mix}/seed {seed}: {e}"));
            assert_eq!(
                m.read_buffer(n(1), out.xfer.dst_buffer, words),
                data,
                "{mix}/seed {seed}: payload must be byte-exact"
            );
            retransmitted |= out.handshake_retries > 0
                || out.data_retransmits > 0
                || out.nack_rounds > 0
                || out.ack_probes > 0;
            assert_occupancy_bounded(&m, NODES, mix, seed);
            let s = m.network().borrow().stats().clone();
            mix_faults +=
                s.dropped_fault + s.duplicated + s.reordered + s.outage_drops + s.dropped_corrupt;
        }
        // Every mix must demonstrably fault the network; reorder and
        // duplication are absorbed without retransmission (offset writes
        // and the duplicate-discard path), so the retransmit counters
        // are asserted once over the whole sweep below.
        assert!(mix_faults > 0, "mix {mix:?} never injected a fault across {SEEDS} seeds");
    }
    assert!(retransmitted, "no mix ever forced xfer_reliable to retransmit");
}

#[test]
fn stream_soaks_in_order_exactly_once_across_fault_mixes() {
    for (mix, fault) in scenarios::fault_mixes() {
        for seed in 0..SEEDS {
            let mut m = chaos_machine(&fault, seed);
            let words = 24 + (seed as usize % 40);
            let data = payloads::mixed(words, seed.wrapping_add(77));
            let id = m.open_stream(
                n(0),
                n(1),
                StreamConfig { rto_iterations: 256, ..StreamConfig::default() },
            );
            let out = m
                .stream_send(id, &data)
                .unwrap_or_else(|e| panic!("{mix}/seed {seed}: {e}"));
            // Byte-exact AND exactly-once: the delivered buffer holds the
            // payload once — duplicates were suppressed, not appended.
            assert_eq!(
                m.stream_received(id),
                data.as_slice(),
                "{mix}/seed {seed}: stream must deliver in order, exactly once"
            );
            assert!(
                out.duplicates <= m.network().borrow().stats().duplicated + out.retransmits,
                "{mix}/seed {seed}: receiver saw more duplicates than were created"
            );
            assert_occupancy_bounded(&m, NODES, mix, seed);
        }
    }
}

#[test]
fn engine_concurrent_ops_soak_exactly_once_across_fault_mixes() {
    use timego_am::{Engine, OpOutcome};

    const ENGINE_NODES: usize = 8;
    const ENGINE_SEEDS: u64 = 8;
    let policy = RetryPolicy::default();
    for (mix, fault) in scenarios::fault_mixes() {
        for seed in 0..ENGINE_SEEDS {
            let mut m = Machine::new(
                share(scenarios::cm5_chaos(ENGINE_NODES, fault.clone(), seed)),
                ENGINE_NODES,
                CmamConfig::default(),
            );
            let runs = Rc::new(RefCell::new(0u32));
            let counter = runs.clone();
            m.register_rpc_handler(n(1), 40, move |_, msg| {
                *counter.borrow_mut() += 1;
                [msg.words[0].wrapping_add(9), 0, 0, 0]
            });

            // One engine run: three reliable transfers on disjoint pairs,
            // one retried stream, two retried RPCs — all under the fault
            // plane at once.
            let mut eng = Engine::new();
            let transfers: Vec<_> = [(2usize, 3usize), (4, 5), (6, 7)]
                .iter()
                .enumerate()
                .map(|(i, (s, d))| {
                    let data = payloads::mixed(24 + (seed as usize % 24), seed + i as u64);
                    let id = eng
                        .submit(&mut m, Op::xfer_reliable(n(*s), n(*d), &data, &policy))
                        .expect("valid");
                    (id, n(*d), data)
                })
                .collect();
            let sid = m.open_stream(
                n(0),
                n(2),
                StreamConfig { rto_iterations: 256, ..StreamConfig::default() },
            );
            let stream_data = payloads::mixed(20 + (seed as usize % 16), seed.wrapping_add(55));
            let stream_op = eng.submit(&mut m, Op::stream_send(sid, &stream_data)).expect("valid");
            let rpcs: Vec<_> = (0..2u32)
                .map(|v| {
                    let call = Op::rpc(n(3 + v as usize), n(1), 40, [v, 0, 0, 0], Some(&policy));
                    (eng.submit(&mut m, call).expect("valid rpc"), v)
                })
                .collect();

            eng.run(&mut m);
            assert_eq!(eng.unfinished(), 0, "{mix}/seed {seed}");

            for (id, dst, data) in &transfers {
                match eng.take_outcome(*id).expect("finished") {
                    Ok(OpOutcome::Reliable(out)) => assert_eq!(
                        &m.read_buffer(*dst, out.xfer.dst_buffer, data.len()),
                        data,
                        "{mix}/seed {seed}: reliable payload must be byte-exact"
                    ),
                    other => panic!("{mix}/seed {seed}: {other:?}"),
                }
            }
            match eng.take_outcome(stream_op).expect("finished") {
                Ok(OpOutcome::Stream(_)) => assert_eq!(
                    m.stream_received(sid),
                    stream_data.as_slice(),
                    "{mix}/seed {seed}: stream must deliver in order, exactly once"
                ),
                other => panic!("{mix}/seed {seed}: {other:?}"),
            }
            for (id, v) in &rpcs {
                match eng.take_outcome(*id).expect("finished") {
                    Ok(OpOutcome::Rpc(reply)) => assert_eq!(
                        reply[0],
                        v.wrapping_add(9),
                        "{mix}/seed {seed}: rpc reply must be byte-exact"
                    ),
                    other => panic!("{mix}/seed {seed}: {other:?}"),
                }
            }
            assert_eq!(
                *runs.borrow(),
                2,
                "{mix}/seed {seed}: handlers must run exactly once per call under faults"
            );

            // Residual occupancy stays bounded by injected faults, as in
            // the blocking soaks.
            m.advance(4_096);
            let net = m.network();
            let mut strays = 0u64;
            for i in 0..ENGINE_NODES {
                while net.borrow_mut().try_receive(n(i)).is_some() {
                    strays += 1;
                }
            }
            let stats = net.borrow().stats().clone();
            let bound = stats.duplicated + stats.reordered + 16;
            assert!(
                strays <= bound,
                "{mix}/seed {seed}: {strays} stray packets exceed bound {bound}"
            );
        }
    }
}

/// ISSUE satellite: the concurrency × fault-plane matrix. A seeded
/// sweep over operation count {4, 12, 24} × fault mix {clean,
/// drop-heavy, dup+jitter, outage} × substrate {switched fat tree,
/// dateline wormhole torus, dual request/reply} — every point must
/// deliver exactly-once, byte-exact, with bounded residual occupancy,
/// and on the clean points the concurrent engine run must charge
/// exactly the per-node, per-feature instruction bill of the same
/// operations run serially through the blocking layer.
#[test]
fn engine_matrix_soaks_concurrency_by_fault_plane_by_substrate() {
    use timego_am::{Engine, Machine, OpOutcome, Tags};
    use timego_netsim::{
        DualNetwork, Torus2D, VcDiscipline, WormholeConfig, WormholeNetwork,
    };

    const M_NODES: usize = 16;
    const M_SEEDS: u64 = 2; // reduced grid: this sweep rides the tier-1 path
    let policy = RetryPolicy::default();

    let mixes: Vec<(&str, FaultConfig)> = vec![
        ("clean", FaultConfig::default()),
        ("drop-heavy", scenarios::fault_mix("drop")),
        (
            "dup+jitter",
            FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() },
        ),
        ("outage", scenarios::fault_mix("outage")),
    ];
    let machine = |sub: &str, fault: &FaultConfig, seed: u64| -> Machine {
        match sub {
            "switched" => Machine::new(
                share(scenarios::cm5_chaos(M_NODES, fault.clone(), seed)),
                M_NODES,
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
                M_NODES,
                CmamConfig::default(),
            ),
            "dual" => Machine::new(
                share(DualNetwork::new(
                    scenarios::cm5_chaos(M_NODES, fault.clone(), seed),
                    scenarios::cm5_chaos(M_NODES, fault.clone(), seed ^ 0x9e37),
                    Tags::RPC_REPLY,
                )),
                M_NODES,
                CmamConfig::default(),
            ),
            other => panic!("unknown substrate {other}"),
        }
    };
    // The op list for a matrix point: mostly reliable transfers, with
    // every fourth op a retried RPC to the server on node 1. Transfers
    // deliberately *repeat* the same four ordered pairs (low half →
    // high half): successive same-pair sessions under a duplicating,
    // jitter-delaying fault plane are exactly what the epoch-stamped
    // handshake exists for — a delayed duplicate of an earlier session's
    // request, reply, or data packet carries a stale epoch/nonce and is
    // discarded as fault-tolerance work instead of poisoning the next
    // handshake. Conflict keys serialize the same-pair ops in
    // submission order.
    let pair = |j: usize| (NodeId::new(j % 4), NodeId::new(8 + j % 4));
    let payload = |i: usize, seed: u64| payloads::mixed(16 + (i % 8), seed.wrapping_add(i as u64));

    for sub in ["switched", "wormhole", "dual"] {
        for (mix, fault) in &mixes {
            for ops in [4usize, 12, 24] {
                for seed in 0..M_SEEDS {
                    let label = format!("{sub}/{mix}/{ops} ops");
                    let mut m = machine(sub, fault, seed);
                    let runs = Rc::new(RefCell::new(0u32));
                    let counter = runs.clone();
                    m.register_rpc_handler(n(1), 40, move |_, msg| {
                        *counter.borrow_mut() += 1;
                        [msg.words[0].wrapping_mul(5), msg.words[1], 0, 0]
                    });

                    let mut eng = Engine::new();
                    let mut xfers = Vec::new();
                    let mut rpcs = Vec::new();
                    let mut xj = 0usize;
                    for i in 0..ops {
                        if i % 4 == 3 {
                            let caller = n((2 * i + 4) % M_NODES);
                            let v = i as u32;
                            let call =
                                Op::rpc(caller, n(1), 40, [v, seed as u32, 0, 0], Some(&policy));
                            let id = eng.submit(&mut m, call).expect("valid rpc");
                            rpcs.push((id, v));
                        } else {
                            let (src, dst) = pair(xj);
                            xj += 1;
                            let data = payload(i, seed);
                            let id = eng
                                .submit(&mut m, Op::xfer_reliable(src, dst, &data, &policy))
                                .expect("valid");
                            xfers.push((id, dst, data));
                        }
                    }
                    eng.run(&mut m);
                    assert_eq!(eng.unfinished(), 0, "{label}/seed {seed}");

                    for (id, dst, data) in &xfers {
                        match eng.take_outcome(*id).expect("finished") {
                            Ok(OpOutcome::Reliable(out)) => assert_eq!(
                                &m.read_buffer(*dst, out.xfer.dst_buffer, data.len()),
                                data,
                                "{label}/seed {seed}: payload must be byte-exact"
                            ),
                            other => panic!("{label}/seed {seed}: {other:?}"),
                        }
                    }
                    for (id, v) in &rpcs {
                        match eng.take_outcome(*id).expect("finished") {
                            Ok(OpOutcome::Rpc(reply)) => assert_eq!(
                                reply,
                                [v.wrapping_mul(5), seed as u32, 0, 0],
                                "{label}/seed {seed}: reply must be byte-exact"
                            ),
                            other => panic!("{label}/seed {seed}: {other:?}"),
                        }
                    }
                    assert_eq!(
                        *runs.borrow() as usize,
                        rpcs.len(),
                        "{label}/seed {seed}: handlers must run exactly once per call"
                    );
                    assert_occupancy_bounded(&m, M_NODES, &label, seed);

                    // Clean points: interleaving K operations must
                    // charge exactly the serial blocking bill, per node
                    // and per feature. Scoped to the packet-switched
                    // substrates: on the wormhole fabric concurrent
                    // worms contend for flit channels, so the number of
                    // (paid) injection attempts genuinely differs from
                    // a serial run over an empty fabric — equal results,
                    // different bills, by design.
                    if *mix == "clean" && sub != "wormhole" {
                        let mut serial = machine(sub, fault, seed);
                        let runs = Rc::new(RefCell::new(0u32));
                        let counter = runs.clone();
                        serial.register_rpc_handler(n(1), 40, move |_, msg| {
                            *counter.borrow_mut() += 1;
                            [msg.words[0].wrapping_mul(5), msg.words[1], 0, 0]
                        });
                        let mut xj = 0usize;
                        for i in 0..ops {
                            if i % 4 == 3 {
                                let caller = n((2 * i + 4) % M_NODES);
                                let args = [i as u32, seed as u32, 0, 0];
                                serial
                                    .run(Op::rpc(caller, n(1), 40, args, Some(&policy)))
                                    .expect("clean substrate");
                            } else {
                                let (src, dst) = pair(xj);
                                xj += 1;
                                serial
                                    .run(Op::xfer_reliable(src, dst, &payload(i, seed), &policy))
                                    .expect("clean substrate");
                            }
                        }
                        for node in 0..M_NODES {
                            for f in Feature::ALL {
                                assert_eq!(
                                    m.cpu(n(node)).snapshot().feature_total(f),
                                    serial.cpu(n(node)).snapshot().feature_total(f),
                                    "{label}/seed {seed}: node {node} feature {f:?} bill must \
                                     match the serial blocking run"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fault_free_soak_runs_cost_exactly_the_paper_protocols() {
    let clean = FaultConfig::default();
    let data = payloads::mixed(64, 9);

    // xfer_reliable vs xfer on the same (fault-free) chaos substrate.
    let mut base = chaos_machine(&clean, 5);
    base.reset_costs();
    let b = base.xfer(n(0), n(1), &data).unwrap();
    let mut rel = chaos_machine(&clean, 5);
    rel.reset_costs();
    let (r, _) = rel.run(Op::xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())).unwrap();
    assert_eq!(r.xfer.packets, b.packets);
    assert_eq!(
        (r.handshake_retries, r.data_retransmits, r.nack_rounds, r.ack_probes),
        (0, 0, 0, 0),
        "clean run must not exercise recovery"
    );
    for node in [n(0), n(1)] {
        for f in Feature::ALL {
            assert_eq!(
                rel.cpu(node).snapshot().feature_total(f),
                base.cpu(node).snapshot().feature_total(f),
                "xfer_reliable node {node:?} feature {f:?} must cost exactly xfer"
            );
        }
    }

    // An RPC with a retry policy vs one without.
    let mut base = chaos_machine(&clean, 6);
    base.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
    base.reset_costs();
    assert_eq!(base.run(Op::rpc(n(0), n(1), 40, [7, 0, 0, 0], None)).unwrap().0[0], 8);
    let mut ret = chaos_machine(&clean, 6);
    ret.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
    ret.reset_costs();
    let retried = Op::rpc(n(0), n(1), 40, [7, 0, 0, 0], Some(&RetryPolicy::default()));
    assert_eq!(ret.run(retried).unwrap().0[0], 8);
    for node in [n(0), n(1)] {
        for f in Feature::ALL {
            assert_eq!(
                ret.cpu(node).snapshot().feature_total(f),
                base.cpu(node).snapshot().feature_total(f),
                "retried rpc node {node:?} feature {f:?} must cost exactly the plain call"
            );
        }
    }
}
