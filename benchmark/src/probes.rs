//! Three micro-probes of the cheapest, most-called functions, timed
//! from outside in a tight loop. They do not depend on the workload;
//! the traced pass runs them once per child process.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use timego_cost::{CostHandle, Fine};
use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
use timego_ni::{share, NiPort};
use timego_workloads::service::{splitmix64, Balancer, BalancerPolicy, LoadView};

const RECORD_CALLS: u64 = 10_000_000;
const PACKETS: u64 = 200_000;
const PICKS: u64 = 100_000;

fn per_call_ns(start: Instant, calls: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `cost.record_ns`: one `CostHandle::dev` call, the unit every
/// modelled NI register access pays.
pub fn cost_record_ns() -> f64 {
    let cpu = CostHandle::new();
    let start = Instant::now();
    for _ in 0..RECORD_CALLS {
        black_box(&cpu).dev(Fine::CheckStatus, black_box(1));
    }
    let ns = per_call_ns(start, RECORD_CALLS);
    assert_eq!(
        cpu.snapshot().total(),
        RECORD_CALLS,
        "every call was recorded"
    );
    ns
}

/// `ni.send_recv_ns`: stage, commit, latch and read one 4-word packet
/// through two NI ports over the instant scripted substrate.
pub fn ni_send_recv_ns() -> f64 {
    let net = share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
    let (src, dst) = (NodeId::new(0), NodeId::new(1));
    let mut tx = NiPort::new(src, net.clone(), CostHandle::new());
    let mut rx = NiPort::new(dst, net, CostHandle::new());
    let mut sum = 0u64;
    let start = Instant::now();
    for i in 0..PACKETS {
        let w = i as u32;
        tx.stage_envelope(dst, 3, w);
        tx.push_payload2(w, w ^ 1);
        tx.push_payload2(w ^ 2, w ^ 3);
        assert!(tx.commit_send(), "the scripted substrate never refuses");
        rx.latch_rx().expect("delivered instantly");
        sum += u64::from(rx.read_header());
        let (a, b) = rx.read_payload2();
        let (c, d) = rx.read_payload2();
        sum += u64::from(a ^ b ^ c ^ d);
    }
    let ns = per_call_ns(start, PACKETS);
    black_box(sum);
    ns
}

/// `workloads.balancer.pick_ns`: one consistent-hash routing decision
/// over the `serving_policy` pool (64 servers x 64 virtual nodes).
pub fn balancer_pick_ns(seed: u64) -> f64 {
    let servers: Vec<NodeId> = (16..80).map(NodeId::new).collect();
    let mut balancer = Balancer::new(
        BalancerPolicy::ConsistentHash { vnodes: 64 },
        &servers,
        seed,
    );
    let (outstanding, ewma) = (BTreeMap::new(), BTreeMap::new());
    let view = LoadView::new(&outstanding, &ewma);
    let mut sum = 0usize;
    let start = Instant::now();
    for i in 0..PICKS {
        sum += balancer.pick(splitmix64(seed ^ i), &view).index();
    }
    let ns = per_call_ns(start, PICKS);
    black_box(sum);
    ns
}
