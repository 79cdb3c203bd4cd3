//! Behavioral verification of the network features (§2.2) whose
//! software costs the paper measures — experiment E8 of DESIGN.md.

use timego_netsim::{Network, NodeId, Packet};
use timego_workloads::{patterns, scenarios};

fn pkt(src: usize, dst: usize, seq: u32) -> Packet {
    Packet::new(NodeId::new(src), NodeId::new(dst), 1, seq, &[seq; 4])
}

#[test]
fn adaptive_routing_reorders_deterministic_does_not() {
    let run = |adaptive: bool| -> f64 {
        let mut net: Box<dyn Network> = if adaptive {
            Box::new(scenarios::cm5_adaptive(64, 42))
        } else {
            Box::new(scenarios::cm5_deterministic(64, 42))
        };
        let pairs = patterns::Pattern::RandomPermutation(3).pairs(64);
        for round in 0..30u32 {
            for (s, d) in &pairs {
                let _ = net.try_inject(Packet::new(*s, *d, 1, round, &[round; 4]));
            }
            net.advance(2);
        }
        assert!(net.drain_extracting(1_000_000), "network must drain");
        net.stats().order.ooo_fraction()
    };
    assert_eq!(run(false), 0.0, "deterministic single-path routing preserves order");
    assert!(run(true) > 0.01, "adaptive multipath routing reorders");
}

#[test]
fn randomized_routing_also_reorders() {
    let mut net = timego_netsim::SwitchedNetwork::new(
        timego_netsim::FatTree::new(4, 3, 4),
        timego_netsim::SwitchedConfig {
            strategy: timego_netsim::RouteStrategy::Randomized { candidates: 4 },
            rx_queue_capacity: 4096,
            link_queue_capacity: 16,
            seed: 17,
            ..timego_netsim::SwitchedConfig::default()
        },
    );
    for s in 0..300u32 {
        while net.try_inject(pkt(0, 63, s)).is_err() {
            net.advance(1);
        }
    }
    assert!(net.drain(1_000_000));
    assert!(net.stats().order.out_of_order() > 0);
}

#[test]
fn detect_only_network_drops_corrupted_packets() {
    let mut net = scenarios::cm5_lossy(16, 0.2, 5);
    let mut sent = 0u32;
    while sent < 200 {
        if net.try_inject(pkt((sent as usize) % 8, 8, sent)).is_ok() {
            sent += 1;
        }
        net.advance(1);
    }
    assert!(net.drain_extracting(1_000_000));
    let st = net.stats();
    assert!(st.dropped_corrupt > 10);
    assert_eq!(st.delivered + st.dropped_corrupt, 200, "detected, never repaired");
}

#[test]
fn raw_network_stalls_when_receiver_stops_extracting() {
    let mut net = scenarios::tight_mesh(2, 1, 1);
    for s in 0..32u32 {
        let _ = net.try_inject(pkt(0, 1, s));
        net.advance(4);
    }
    net.advance(2_000);
    assert!(net.in_flight() > 0);
    assert!(net.stalled_for() >= 2_000, "wedged behind the full receive queue");
    // Extraction restores liveness — overflow safety is software's job.
    while net.try_receive(NodeId::new(1)).is_some() {}
    net.advance(200);
    assert!(net.stalled_for() < 200);
}

#[test]
fn cr_network_never_reorders_never_loses() {
    let mut net = scenarios::cr_lossy(2, 0.3, 9);
    let mut sent = 0u32;
    let mut got = Vec::new();
    while sent < 300 || net.in_flight() > 0 {
        if sent < 300 && net.try_inject(pkt(0, 1, sent)).is_ok() {
            sent += 1;
        }
        net.advance(1);
        while let Some(p) = net.try_receive(NodeId::new(1)) {
            assert!(!p.is_corrupted());
            got.push(p.header());
        }
    }
    assert_eq!(got.len(), 300);
    assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly in order");
    assert!(net.stats().hw_retransmits > 30, "corruption really happened");
    assert_eq!(net.stats().dropped_corrupt, 0);
}

#[test]
fn cr_header_rejection_keeps_other_traffic_live() {
    let mut net = scenarios::cr(3, 4);
    // Saturate node 1 (which never polls).
    for s in 0..4u32 {
        net.try_inject(pkt(0, 1, s)).unwrap();
    }
    net.advance(500);
    assert!(net.stats().rejects > 0 || net.rx_pending(NodeId::new(1)) > 0);
    // Node 0 → node 2 still flows.
    net.try_inject(pkt(0, 2, 0)).unwrap();
    net.advance(200);
    assert!(net.try_receive(NodeId::new(2)).is_some());
}

#[test]
fn latency_grows_with_distance_on_the_mesh() {
    let mut close = timego_netsim::SwitchedNetwork::new(
        timego_netsim::Mesh2D::new(8, 8),
        timego_netsim::SwitchedConfig::default(),
    );
    close.try_inject(pkt(0, 1, 0)).unwrap();
    close.drain(10_000);
    let near = close.stats().latency.mean();

    let mut far = timego_netsim::SwitchedNetwork::new(
        timego_netsim::Mesh2D::new(8, 8),
        timego_netsim::SwitchedConfig::default(),
    );
    far.try_inject(pkt(0, 63, 0)).unwrap();
    far.drain(10_000);
    assert!(far.stats().latency.mean() > near, "hops cost cycles");
}

#[test]
fn torus_and_fat_tree_both_deliver_permutations() {
    let mut torus = timego_netsim::SwitchedNetwork::new(
        timego_netsim::Torus2D::new(4, 4),
        timego_netsim::SwitchedConfig { rx_queue_capacity: 256, ..Default::default() },
    );
    let pairs = patterns::Pattern::BitReverse.pairs(16);
    let expected = pairs.len() as u64;
    for (i, (s, d)) in pairs.iter().enumerate() {
        while torus
            .try_inject(Packet::new(*s, *d, 1, i as u32, &[i as u32; 4]))
            .is_err()
        {
            torus.advance(1);
        }
    }
    assert!(torus.drain(1_000_000));
    assert_eq!(torus.stats().delivered, expected);
}
