//! Determinism properties of the parallel sharded substrate, below the
//! scheduler: for a fixed shard layout, the worker thread count must be
//! invisible in every observable — wake sequences (`take_delivered`
//! merge order), receive streams, aggregate `NetStats` totals, restart
//! counters, and final clocks — under clean, dup+jitter, and
//! crash-window fault variants, on both the bare sharded substrate and
//! a `DualNetwork` built from two sharded sides.
//!
//! The scheduler-level counterpart (traces/bills/outcomes) lives in
//! `sched_equivalence.rs`; this file pins the network layer directly so
//! a thread-count divergence is caught at its source, with a
//! packet-level diff instead of a trace diff.

use timego_netsim::{
    CrashWindow, DualNetwork, FaultConfig, Network, NodeId, Packet, ShardedConfig, ShardedNetwork,
    SwitchedConfig,
};
use timego_workloads::scenarios;

const NODES: usize = 16;
const SHARDS: usize = 4;
const SEEDS: u64 = 4;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn fault_variant(name: &str) -> FaultConfig {
    match name {
        "clean" => FaultConfig::default(),
        "dup+jitter" => {
            FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() }
        }
        "crash" => FaultConfig {
            crashes: vec![CrashWindow { node: n(9), start: 80, end: 220 }],
            ..FaultConfig::default()
        },
        other => panic!("unknown fault variant {other}"),
    }
}

/// Everything observable about one scripted run of a substrate.
#[derive(Debug, PartialEq)]
struct Observation {
    /// Wake sets per advance, in taken order.
    wakes: Vec<Vec<NodeId>>,
    /// Every received packet: (receiver, src, header, pair_seq).
    rx: Vec<(usize, usize, u32, Option<u64>)>,
    injected: u64,
    delivered: u64,
    duplicated: u64,
    dropped_corrupt: u64,
    backpressure: u64,
    crash_drops: u64,
    latency_count: u64,
    restarts: Vec<u32>,
    final_cycles: u64,
}

/// Drive a fixed inject/advance/receive script: a rotating all-pairs
/// mix (intra- and cross-shard), uneven advances, receives drained in
/// node order. Only the substrate under test varies.
fn observe(net: &mut dyn Network, seed: u64) -> Observation {
    let mut wakes = Vec::new();
    let mut rx = Vec::new();
    for s in 0..240u32 {
        let src = (s as usize).wrapping_mul(7).wrapping_add(seed as usize) % NODES;
        let dst = (src + 1 + (s as usize) % (NODES - 1)) % NODES;
        // Alternating tags so a DualNetwork under test exercises both
        // sides (reply_tag_min = 2 routes the odd injections).
        let tag = if s % 2 == 0 { 1 } else { 3 };
        let _ = net.try_inject(Packet::new(n(src), n(dst), tag, s, &[s; 3]));
        net.advance(1 + (s as u64) % 3);
        wakes.push(net.take_delivered());
        for i in 0..NODES {
            while let Some(p) = net.try_receive(n(i)) {
                rx.push((i, p.src().index(), p.header(), p.pair_seq()));
            }
        }
    }
    net.drain(20_000);
    for i in 0..NODES {
        while let Some(p) = net.try_receive(n(i)) {
            rx.push((i, p.src().index(), p.header(), p.pair_seq()));
        }
    }
    let st = net.stats().clone();
    Observation {
        wakes,
        rx,
        injected: st.injected,
        delivered: st.delivered,
        duplicated: st.duplicated,
        dropped_corrupt: st.dropped_corrupt,
        backpressure: st.backpressure,
        crash_drops: st.crash_drops,
        latency_count: st.latency.count(),
        restarts: (0..NODES).map(|i| net.restarts(n(i))).collect(),
        final_cycles: net.now().cycles(),
    }
}

#[test]
fn sharded_substrate_is_thread_invariant() {
    for variant in ["clean", "dup+jitter", "crash"] {
        let fault = fault_variant(variant);
        for seed in 0..SEEDS {
            let run = |threads: usize| {
                let mut net =
                    scenarios::cm5_sharded_chaos(NODES, SHARDS, threads, fault.clone(), seed);
                observe(&mut net, seed)
            };
            let baseline = run(1);
            for threads in [2, 4] {
                assert_eq!(
                    run(threads),
                    baseline,
                    "sharded/{variant}/seed {seed}: {threads} threads diverged from 1"
                );
            }
        }
    }
}

#[test]
fn dual_of_sharded_sides_is_thread_invariant() {
    for variant in ["clean", "dup+jitter", "crash"] {
        let fault = fault_variant(variant);
        for seed in 0..SEEDS {
            let run = |threads: usize| {
                // Tags >= 2 (half the script's traffic) ride the second
                // sharded side.
                let mut net = DualNetwork::new(
                    scenarios::cm5_sharded_chaos(NODES, SHARDS, threads, fault.clone(), seed),
                    scenarios::cm5_sharded_chaos(
                        NODES,
                        SHARDS,
                        threads,
                        fault.clone(),
                        seed ^ 0x9e37,
                    ),
                    2,
                );
                observe(&mut net, seed)
            };
            let baseline = run(1);
            for threads in [2, 4] {
                assert_eq!(
                    run(threads),
                    baseline,
                    "dual-sharded/{variant}/seed {seed}: {threads} threads diverged from 1"
                );
            }
        }
    }
}

/// One shard is *definitionally* the unsharded substrate: same seed,
/// same ids, same wake order, byte for byte — under faults too.
#[test]
fn single_shard_matches_flat_switched_under_faults() {
    for variant in ["clean", "dup+jitter", "crash"] {
        let fault = fault_variant(variant);
        for seed in 0..SEEDS {
            let mut flat = scenarios::cm5_chaos(NODES, fault.clone(), seed);
            let mut one = scenarios::cm5_sharded_chaos(NODES, 1, 1, fault.clone(), seed);
            assert_eq!(
                observe(&mut flat, seed),
                observe(&mut one, seed),
                "flat-vs-1-shard/{variant}/seed {seed}"
            );
        }
    }
}

/// The wake merge must come out in ascending global node-id order for
/// multi-shard layouts, independent of which shard delivered first.
#[test]
fn wake_merge_order_is_ascending_node_ids() {
    for threads in [1, 2, 4] {
        let mut net = scenarios::cm5_sharded_chaos(
            NODES,
            SHARDS,
            threads,
            fault_variant("dup+jitter"),
            7,
        );
        for s in 0..120u32 {
            let src = (s as usize) % NODES;
            let dst = (src + 5) % NODES;
            let _ = net.try_inject(Packet::new(n(src), n(dst), 1, s, &[s]));
            net.advance(2);
            let wakes = net.take_delivered();
            let mut sorted = wakes.clone();
            sorted.sort_unstable_by_key(|w| w.index());
            assert_eq!(wakes, sorted, "t{threads}: wake set not in node-id order");
            for i in 0..NODES {
                while net.try_receive(n(i)).is_some() {}
            }
        }
    }
}

/// Cross-shard crash semantics: packets into a crashed node vanish and
/// are billed as crash drops; the restart becomes visible exactly when
/// the window closes, at every thread count.
#[test]
fn cross_shard_crash_window_bills_drops_and_restarts() {
    for threads in [1, 2, 4] {
        let mut net = ShardedNetwork::new(
            NODES,
            ShardedConfig {
                shards: SHARDS,
                threads,
                switched: SwitchedConfig {
                    fault: FaultConfig {
                        crashes: vec![CrashWindow { node: n(9), start: 0, end: 100 }],
                        ..FaultConfig::default()
                    },
                    seed: 11,
                    ..SwitchedConfig::default()
                },
                ..ShardedConfig::default()
            },
        );
        // 1 → 9 crosses shards into the dead node: silently dropped.
        net.try_inject(Packet::new(n(1), n(9), 1, 0, &[0])).unwrap();
        assert_eq!(net.stats().crash_drops, 1, "t{threads}");
        assert_eq!(net.restarts(n(9)), 0, "t{threads}");
        net.advance(120);
        assert_eq!(net.restarts(n(9)), 1, "t{threads}: restart after window close");
        assert!(net.restarts_hint() >= 1, "t{threads}");
        net.try_inject(Packet::new(n(1), n(9), 1, 1, &[1])).unwrap();
        assert!(net.drain(10_000), "t{threads}");
        assert_eq!(net.stats().delivered, 1, "t{threads}: post-restart delivery");
    }
}
