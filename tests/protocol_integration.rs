//! Cross-crate integration: the messaging protocols running over every
//! substrate, with multiple nodes, concurrent channels, and data
//! integrity verified end to end.

use timego_am::{CmamConfig, Machine, PollOutcome, ProtocolError, StreamConfig, Tags};
use timego_netsim::NodeId;
use timego_ni::share;
use timego_workloads::{patterns::Pattern, payloads, scenarios};

fn node(i: usize) -> NodeId {
    NodeId::new(i)
}

#[test]
fn xfer_over_deterministic_switched_network() {
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(4, 1)),
        4,
        CmamConfig::default(),
    );
    let data = payloads::mixed(512, 1);
    let out = m.xfer(node(0), node(3), &data).expect("completes");
    assert_eq!(m.read_buffer(node(3), out.dst_buffer, data.len()), data);
    // The destination's receive queue is smaller than the message; the
    // interleaved drain (enabled by preallocation) is what made this
    // work.
    assert!(out.packets as usize > 16);
}

#[test]
fn xfer_over_cr_network_also_works() {
    // The CMAM protocol does not *require* the raw network's weakness —
    // it runs (wastefully) over the high-level substrate too.
    let mut m = Machine::new(share(scenarios::cr(4, 2)), 4, CmamConfig::default());
    let data = payloads::mixed(256, 2);
    let out = m.xfer(node(1), node(2), &data).expect("completes");
    assert_eq!(m.read_buffer(node(2), out.dst_buffer, data.len()), data);
}

#[test]
fn stream_over_adaptive_network_with_real_reordering() {
    let mut m = Machine::new(share(scenarios::cm5_adaptive(16, 7)), 16, CmamConfig::default());
    let data = payloads::mixed(1024, 3);
    let id = m.open_stream(node(2), node(13), StreamConfig::default());
    let out = m.stream_send(id, &data).expect("completes");
    assert_eq!(m.stream_received(id), data.as_slice());
    assert_eq!(out.packets, 256);
}

#[test]
fn stream_recovers_from_corruption() {
    let mut m = Machine::new(
        share(scenarios::cm5_lossy(4, 0.03, 5)),
        4,
        CmamConfig::default(),
    );
    let data = payloads::mixed(768, 4);
    let id = m.open_stream(
        node(0),
        node(1),
        StreamConfig { rto_iterations: 128, ..StreamConfig::default() },
    );
    let out = m.stream_send(id, &data).expect("retransmission recovers");
    assert_eq!(m.stream_received(id), data.as_slice());
    let drops = m.network().borrow().stats().dropped_corrupt;
    assert!(drops > 0, "the run should actually have seen loss");
    assert!(out.retransmits > 0, "recovery should have used retransmission");
}

#[test]
fn two_concurrent_streams_do_not_interfere() {
    let mut m = Machine::new(share(scenarios::table_half_ooo(4)), 4, CmamConfig::default());
    let a = m.open_stream(node(0), node(1), StreamConfig::default());
    let b = m.open_stream(node(2), node(3), StreamConfig::default());
    let da = payloads::mixed(96, 10);
    let db = payloads::mixed(96, 11);
    m.stream_send(a, &da).unwrap();
    m.stream_send(b, &db).unwrap();
    assert_eq!(m.stream_received(a), da.as_slice());
    assert_eq!(m.stream_received(b), db.as_slice());
}

#[test]
fn am4_ring_pattern_over_switched_network() {
    let nodes = 16;
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(nodes, 9)),
        nodes,
        CmamConfig::default(),
    );
    // Each node forwards a token to its neighbor via a user handler.
    for (s, d) in Pattern::Ring.pairs(nodes) {
        m.am4_send(s, d, Tags::USER_BASE + 1, [s.index() as u32, 0, 0, 0])
            .unwrap();
    }
    m.advance(500);
    let mut received = 0;
    for i in 0..nodes {
        loop {
            match m.poll(node(i)) {
                PollOutcome::Idle => break,
                PollOutcome::Unclaimed(msg) => {
                    assert_eq!(msg.tag, Tags::USER_BASE + 1);
                    assert_eq!((msg.words[0] as usize + 1) % nodes, i);
                    received += 1;
                }
                PollOutcome::Handled(_) => unreachable!("no handlers registered"),
            }
        }
    }
    assert_eq!(received, nodes);
}

#[test]
fn hotspot_pattern_backpressures_but_loses_nothing() {
    let nodes = 16;
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(nodes, 3)),
        nodes,
        CmamConfig::default(),
    );
    for (s, d) in Pattern::Hotspot.pairs(nodes) {
        m.am4_send(s, d, Tags::USER_BASE, [s.index() as u32; 4]).unwrap();
    }
    let mut got = 0;
    let mut spins = 0;
    while got < nodes - 1 && spins < 10_000 {
        match m.poll(node(0)) {
            PollOutcome::Idle => {
                m.advance(1);
                spins += 1;
            }
            _ => got += 1,
        }
    }
    assert_eq!(got, nodes - 1, "every hotspot message must arrive");
}

#[test]
fn mixed_protocols_share_the_machine() {
    let mut m = Machine::new(share(scenarios::table_in_order(4)), 4, CmamConfig::default());
    let bulk = payloads::mixed(256, 21);
    let streamed = payloads::mixed(128, 22);

    let x = m.xfer(node(0), node(1), &bulk).unwrap();
    let s = m.open_stream(node(2), node(3), StreamConfig::default());
    m.stream_send(s, &streamed).unwrap();
    m.am4_send(node(1), node(2), Tags::USER_BASE, [5, 6, 7, 8]).unwrap();

    assert_eq!(m.read_buffer(node(1), x.dst_buffer, bulk.len()), bulk);
    assert_eq!(m.stream_received(s), streamed.as_slice());
    assert!(m.poll(node(2)).received());
}

#[test]
fn packet_size_generalization_carries_data_correctly() {
    for n in [4usize, 8, 16, 64] {
        let mut m = Machine::new(
            share(scenarios::table_half_ooo(2)),
            2,
            CmamConfig { packet_words: n, ..CmamConfig::default() },
        );
        let data = payloads::mixed(333, n as u64); // deliberately not a multiple of n
        let id = m.open_stream(node(0), node(1), StreamConfig::default());
        m.stream_send(id, &data).unwrap();
        assert_eq!(m.stream_received(id), data.as_slice(), "n={n}");
    }
}

#[test]
fn hl_protocols_over_flit_level_cr_wormhole() {
    // The high-level protocols run unchanged over the *flit-level*
    // Compressionless Routing substrate — per-pair worm serialization,
    // kill-and-retry, and hardware retransmission of corrupted worms
    // included.
    let net = scenarios::wormhole_torus_cr(3, 2, 0.05, 9); // 6 nodes
    let mut m = Machine::new(share(net), 6, CmamConfig::default());
    let data = payloads::mixed(120, 14);
    let out = m.hl_xfer(node(0), node(4), &data).expect("completes");
    assert_eq!(m.read_buffer(node(4), out.dst_buffer, data.len()), data);
    let got = m.hl_stream_send(node(0), node(4), &data).expect("completes");
    assert_eq!(got, data);
}

#[test]
fn cmam_stream_over_plain_wormhole_mesh() {
    // The CMAM protocols run over the flit-level substrate too; with
    // single-VC deterministic wormhole routing the network happens to
    // preserve order, so no out-of-order buffering occurs — the
    // sequencing machinery is pure insurance here, and still paid for.
    let net = timego_netsim::WormholeNetwork::new(
        timego_netsim::Mesh2D::new(2, 2),
        timego_netsim::WormholeConfig { rx_queue_capacity: 64, ..Default::default() },
    );
    let mut m = Machine::new(share(net), 4, CmamConfig::default());
    let data = payloads::mixed(96, 15);
    let id = m.open_stream(node(0), node(3), StreamConfig::default());
    let outcome = m.stream_send(id, &data).expect("completes");
    assert_eq!(m.stream_received(id), data.as_slice());
    assert_eq!(outcome.out_of_order, 0);
}

#[test]
fn stream_window_limits_inflight_buffers() {
    let mut m = Machine::new(share(scenarios::cr(2, 8)), 2, CmamConfig::default());
    let id = m.open_stream(
        node(0),
        node(1),
        StreamConfig { window: 2, ..StreamConfig::default() },
    );
    let data = payloads::mixed(200, 30);
    let out = m.stream_send(id, &data).expect("completes with a tiny window");
    assert_eq!(m.stream_received(id), data.as_slice());
    assert_eq!(out.packets, 50);
}

#[test]
fn entry_points_outside_the_engine_reject_bad_endpoints_instead_of_panicking() {
    // `xfer_batch`, `hl_xfer` and `hl_stream_send` drive both endpoints
    // themselves; they share the engine's endpoint check, so the error
    // names the offending field.
    let mut m = Machine::new(share(scenarios::cr(4, 2)), 4, CmamConfig::default());
    let data = payloads::mixed(16, 5);
    let cases = [
        (node(1), node(1), "src and dst are both"),
        (node(4), node(1), "src n4 is out of range"),
        (node(1), node(9), "dst n9 is out of range"),
    ];
    for (src, dst, needle) in cases {
        let errors = [
            m.xfer_batch(src, dst, &[&data]).unwrap_err(),
            m.hl_xfer(src, dst, &data).unwrap_err(),
            m.hl_stream_send(src, dst, &data).unwrap_err(),
        ];
        for err in errors {
            match err {
                ProtocolError::BadTransfer(what) => {
                    assert!(what.contains(needle), "{what:?} should name {needle:?}")
                }
                other => panic!("{src}->{dst}: expected BadTransfer, got {other:?}"),
            }
        }
    }
    // Nothing was injected or billed by the rejected calls.
    assert_eq!(m.network().borrow().in_flight(), 0);
    assert!((0..4).all(|i| m.cpu(node(i)).snapshot().total() == 0));
}
