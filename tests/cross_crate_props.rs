//! Property-based tests across the whole stack: for arbitrary message
//! sizes, packet sizes, delivery scripts and fault seeds, the protocols
//! must deliver data intact and the measured costs must equal the
//! closed-form models.
//!
//! The properties are exercised by deterministic seeded sweeps: every
//! case derives its parameters from a [`SimRng`] stream, so a failure
//! reports the exact case index and reproduces bit-for-bit. (An earlier
//! shrinker-found regression — `words = 897, pkt = 4, ack_period = 1` —
//! is pinned explicitly.)

use timego_am::{CmamConfig, Machine, StreamConfig};
use timego_cost::analytic::{self, IndefiniteOpts, MsgShape};
use timego_cost::{Endpoint, Feature};
use timego_netsim::rng::SimRng;
use timego_netsim::{DeliveryScript, FaultConfig, Network, NodeId, ScriptedNetwork};
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

const CASES: u64 = 32;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// Parameter stream for one property: seeded on the property's name so
/// sweeps are independent but reproducible.
fn rng_for(property: &str) -> SimRng {
    let seed = property
        .bytes()
        .fold(0xC0DEu64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    SimRng::new(seed)
}

#[test]
fn xfer_roundtrips_any_payload() {
    let mut rng = rng_for("xfer_roundtrips_any_payload");
    for case in 0..CASES {
        let words = 1 + rng.gen_index(599);
        let seed = rng.next_u64() % 1000;
        let data = payloads::mixed(words, seed);
        let mut m = Machine::new(share(scenarios::table_in_order(2)), 2, CmamConfig::default());
        let out = m.xfer(n(0), n(1), &data).unwrap();
        assert_eq!(m.read_buffer(n(1), out.dst_buffer, words), data, "case {case}");
    }
}

#[test]
fn xfer_cost_matches_model_for_any_shape() {
    let mut rng = rng_for("xfer_cost_matches_model_for_any_shape");
    for case in 0..CASES {
        let words = 1 + rng.next_u64() % 1999;
        let pkt = [4u64, 8, 16, 32][rng.gen_index(4)];
        let (measured, _) = timego_am::measure_xfer(words as usize, pkt as usize);
        let model = analytic::cmam_finite(MsgShape::for_message(words, pkt).unwrap());
        assert_eq!(measured, model, "case {case}: words {words} pkt {pkt}");
    }
}

#[test]
fn stream_cost_matches_model_for_any_shape() {
    let mut rng = rng_for("stream_cost_matches_model_for_any_shape");
    // Pinned shrinker-found regression, then the random sweep.
    let mut cases = vec![(897u64, 4u64, 1u64)];
    for _ in 0..CASES {
        cases.push((
            1 + rng.next_u64() % 1999,
            [4u64, 8, 16, 32][rng.gen_index(4)],
            1 + rng.next_u64() % 9,
        ));
    }
    for (case, (words, pkt, ack_period)) in cases.into_iter().enumerate() {
        let (measured, outcome) =
            timego_am::measure_stream(words as usize, pkt as usize, ack_period);
        let shape = MsgShape::for_message(words, pkt).unwrap();
        // The AlternateSwap script leaves a trailing packet in order
        // when the packet count is odd: ooo = p/2 exactly, like the
        // paper's assumption.
        assert_eq!(outcome.out_of_order, shape.packets() / 2, "case {case}");
        let model = analytic::cmam_indefinite(
            shape,
            IndefiniteOpts { ooo_packets: shape.packets() / 2, ack_period },
        );
        assert_eq!(measured, model, "case {case}: words {words} pkt {pkt} ack {ack_period}");
    }
}

/// The analytic model as an oracle under any reorder: whatever order
/// the substrate delivers in, the measured per-endpoint, per-feature
/// bill equals the closed form evaluated at the out-of-order count the
/// run reports — across odd lengths, partial last packets and group
/// acknowledgements.
#[test]
fn stream_cost_matches_model_under_any_reorder() {
    let scripts = [
        DeliveryScript::InOrder,
        DeliveryScript::AlternateSwap,
        DeliveryScript::WindowShuffle { window: 5 },
        DeliveryScript::WindowShuffle { window: 11 },
    ];
    for words in [1u64, 3, 16, 17, 64, 100, 399, 1024] {
        for pkt in [2u64, 4, 8] {
            for ack_period in [1u64, 3, 8] {
                for script in scripts {
                    let cell = format!("words {words} pkt {pkt} ack {ack_period} {script:?}");
                    let data = payloads::mixed(words as usize, words * 31 + pkt);
                    let net = ScriptedNetwork::with_seed(2, script, words ^ pkt ^ ack_period);
                    let cfg = CmamConfig { packet_words: pkt as usize, ..CmamConfig::default() };
                    let mut m = Machine::new(share(net), 2, cfg);
                    let stream_cfg = StreamConfig { ack_period, ..StreamConfig::default() };
                    let id = m.open_stream(n(0), n(1), stream_cfg);
                    m.reset_costs();
                    let out = m.stream_send(id, &data).unwrap();
                    assert_eq!(m.stream_received(id), data.as_slice(), "{cell}");
                    let model = analytic::cmam_indefinite(
                        MsgShape::for_message(words, pkt).unwrap(),
                        IndefiniteOpts { ooo_packets: out.out_of_order, ack_period },
                    );
                    for (end, node) in [(Endpoint::Source, n(0)), (Endpoint::Destination, n(1))] {
                        let bill = m.cpu(node).snapshot();
                        for f in Feature::ALL {
                            assert_eq!(bill.feature(f), model.get(end, f), "{cell}: {end:?} {f}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stream_delivers_in_order_under_any_window_shuffle() {
    let mut rng = rng_for("stream_delivers_in_order_under_any_window_shuffle");
    for case in 0..CASES {
        let words = 1 + rng.gen_index(399);
        let window = 1 + rng.gen_index(11);
        let seed = rng.next_u64() % 500;
        let data = payloads::mixed(words, seed);
        let net = ScriptedNetwork::with_seed(2, DeliveryScript::WindowShuffle { window }, seed);
        let mut m = Machine::new(share(net), 2, CmamConfig::default());
        let id = m.open_stream(n(0), n(1), StreamConfig::default());
        m.stream_send(id, &data).unwrap();
        assert_eq!(m.stream_received(id), data.as_slice(), "case {case}");
    }
}

#[test]
fn stream_survives_random_corruption() {
    let mut rng = rng_for("stream_survives_random_corruption");
    for case in 0..CASES {
        let words = 1 + rng.gen_index(199);
        let prob = 0.08 * (rng.next_u64() % 1000) as f64 / 1000.0;
        let seed = rng.next_u64() % 200;
        let data = payloads::mixed(words, seed);
        let mut m = Machine::new(
            share(scenarios::cm5_lossy(4, prob, seed)),
            4,
            CmamConfig::default(),
        );
        let id = m.open_stream(
            n(0),
            n(1),
            StreamConfig { rto_iterations: 128, ..StreamConfig::default() },
        );
        m.stream_send(id, &data).unwrap();
        assert_eq!(m.stream_received(id), data.as_slice(), "case {case}");
    }
}

/// Under simultaneous duplication and loss, the stream must deliver
/// exactly once (duplicate suppression) and still complete — lost
/// acknowledgements are recovered because duplicates and
/// retransmissions are re-acknowledged at the receiver.
#[test]
fn stream_suppresses_duplicates_and_reacks_under_faults() {
    let mut rng = rng_for("stream_suppresses_duplicates_and_reacks_under_faults");
    let mut dup_suppressed = false;
    let mut retransmitted = false;
    for case in 0..CASES {
        let words = 8 + rng.gen_index(120);
        let seed = rng.next_u64();
        let fault = FaultConfig {
            drop_prob: 0.02 + 0.06 * (rng.next_u64() % 1000) as f64 / 1000.0,
            duplicate_prob: 0.05 + 0.10 * (rng.next_u64() % 1000) as f64 / 1000.0,
            ..FaultConfig::default()
        };
        let data = payloads::mixed(words, seed);
        let mut m = Machine::new(
            share(scenarios::cm5_chaos(4, fault, seed)),
            4,
            CmamConfig::default(),
        );
        let id = m.open_stream(
            n(0),
            n(1),
            StreamConfig { rto_iterations: 256, ..StreamConfig::default() },
        );
        let out = m.stream_send(id, &data).unwrap();
        // Exactly once: the delivered buffer holds the payload once —
        // every duplicate was discarded, never appended.
        assert_eq!(m.stream_received(id), data.as_slice(), "case {case}");
        dup_suppressed |= out.duplicates > 0;
        retransmitted |= out.retransmits > 0;
    }
    assert!(dup_suppressed, "sweep never exercised duplicate suppression");
    assert!(retransmitted, "sweep never exercised loss recovery");
}

#[test]
fn hl_protocols_roundtrip_over_cr() {
    let mut rng = rng_for("hl_protocols_roundtrip_over_cr");
    for case in 0..CASES {
        let words = 1 + rng.gen_index(399);
        let seed = rng.next_u64() % 200;
        let data = payloads::mixed(words, seed);
        let mut m =
            Machine::new(share(scenarios::cr_lossy(2, 0.05, seed)), 2, CmamConfig::default());
        let out = m.hl_xfer(n(0), n(1), &data).unwrap();
        assert_eq!(m.read_buffer(n(1), out.dst_buffer, words), data, "case {case}");
        let got = m.hl_stream_send(n(0), n(1), &data).unwrap();
        assert_eq!(got, data, "case {case}");
    }
}

#[test]
fn switched_network_conserves_packets() {
    let mut rng = rng_for("switched_network_conserves_packets");
    for case in 0..CASES {
        let count = 1 + rng.gen_u32() % 149;
        let seed = rng.next_u64() % 300;
        let adaptive = rng.gen_bool(0.5);
        let mut net: Box<dyn Network> = if adaptive {
            Box::new(scenarios::cm5_adaptive(16, seed))
        } else {
            Box::new(scenarios::cm5_deterministic(16, seed))
        };
        let mut sent = 0u32;
        while sent < count {
            let s = (sent as usize * 7) % 16;
            let d = (s + 1 + (sent as usize * 3) % 15) % 16;
            if net
                .try_inject(timego_netsim::Packet::new(n(s), n(d), 1, sent, &[sent; 4]))
                .is_ok()
            {
                sent += 1;
            }
            net.advance(1);
        }
        assert!(net.drain_extracting(1_000_000), "case {case}");
        assert_eq!(net.stats().delivered, u64::from(count), "case {case}");
    }
}

#[test]
fn overhead_fraction_is_scale_free_for_streams() {
    // §3.2: the overhead fraction is "independent of the total volume
    // of data transmitted". Exhaustive over the old sweep's range.
    for words_exp in 5u32..12 {
        let words = 1u64 << words_exp;
        let (c, _) = timego_am::measure_stream(words as usize, 4, 1);
        assert!(
            (0.6..0.75).contains(&c.overhead_fraction()),
            "words 2^{words_exp}: fraction {}",
            c.overhead_fraction()
        );
    }
}

#[test]
fn costs_are_monotone_in_message_size() {
    let mut rng = rng_for("costs_are_monotone_in_message_size");
    for case in 0..CASES {
        let words = 1 + rng.gen_index(999);
        let (small, _) = timego_am::measure_xfer(words, 4);
        let (big, _) = timego_am::measure_xfer(words + 64, 4);
        assert!(big.total() > small.total(), "case {case}: words {words}");
    }
}

#[test]
fn wormhole_cr_conserves_and_orders_packets() {
    let mut rng = rng_for("wormhole_cr_conserves_and_orders_packets");
    for case in 0..CASES {
        let count = 1 + rng.gen_u32() % 59;
        let prob = 0.2 * (rng.next_u64() % 1000) as f64 / 1000.0;
        let seed = rng.next_u64() % 200;
        let mut net = scenarios::wormhole_torus_cr(4, 1, prob, seed);
        let mut sent = 0u32;
        let mut got = Vec::new();
        let mut spins = 0u64;
        while (sent < count || net.in_flight() > 0) && spins < 1_000_000 {
            if sent < count
                && net
                    .try_inject(timego_netsim::Packet::new(n(0), n(2), 1, sent, &[sent; 4]))
                    .is_ok()
            {
                sent += 1;
            }
            net.advance(1);
            spins += 1;
            while let Some(p) = net.try_receive(n(2)) {
                got.push(p.header());
            }
        }
        assert_eq!(got.len() as u32, count, "case {case}: every packet arrives");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "case {case}: in order");
    }
}

#[test]
fn allreduce_matches_scalar_sum() {
    let mut rng = rng_for("allreduce_matches_scalar_sum");
    for case in 0..CASES {
        let nodes = 1usize << (1 + rng.gen_index(3));
        let seed = rng.next_u64() % 500;
        let inputs = payloads::random(nodes, seed);
        let expected: u32 = inputs.iter().fold(0u32, |a, b| a.wrapping_add(*b));
        let mut m =
            Machine::new(share(scenarios::table_in_order(nodes)), nodes, CmamConfig::default());
        let out = timego_workloads::apps::collectives::allreduce_sum(&mut m, &inputs).unwrap();
        assert!(out.iter().all(|&v| v == expected), "case {case}: {nodes} nodes");
    }
}

#[test]
fn broadcast_reaches_everyone_from_any_root() {
    let mut rng = rng_for("broadcast_reaches_everyone_from_any_root");
    for case in 0..CASES {
        let nodes = 1 + rng.gen_index(11);
        let root = rng.gen_index(nodes);
        let seed = rng.next_u64() % 100;
        let value = {
            let v = payloads::random(4, seed);
            [v[0], v[1], v[2], v[3]]
        };
        let mut m =
            Machine::new(share(scenarios::table_in_order(nodes)), nodes, CmamConfig::default());
        let seen =
            timego_workloads::apps::collectives::broadcast(&mut m, n(root), value).unwrap();
        assert!(seen.iter().all(|v| *v == value), "case {case}: root {root}/{nodes}");
    }
}

#[test]
fn distributed_sort_always_sorts() {
    let mut rng = rng_for("distributed_sort_always_sorts");
    for case in 0..CASES {
        let block = 1 + rng.gen_index(39);
        let nodes = [2usize, 4, 8][rng.gen_index(3)];
        let seed = rng.next_u64() % 500;
        let data = payloads::random(block * nodes, seed);
        let mut expected = data.clone();
        expected.sort_unstable();
        let mut m =
            Machine::new(share(scenarios::table_in_order(nodes)), nodes, CmamConfig::default());
        let out = timego_workloads::apps::sort::run(&mut m, &data).unwrap();
        assert_eq!(out.data, expected, "case {case}: block {block} × {nodes}");
    }
}

#[test]
fn halo_exchange_matches_reference() {
    let mut rng = rng_for("halo_exchange_matches_reference");
    for case in 0..CASES {
        let nodes = 4usize;
        let block = 1usize << (2 + rng.gen_index(3)); // 4..16 words per node
        let iters = 1 + rng.gen_index(4);
        let seed = rng.next_u64() % 300;
        let data: Vec<u32> =
            payloads::random(block * nodes, seed).iter().map(|w| w % 10_000).collect();
        let mut m =
            Machine::new(share(scenarios::table_in_order(nodes)), nodes, CmamConfig::default());
        let out = timego_workloads::apps::halo::run(&mut m, &data, iters, 2).unwrap();
        assert_eq!(
            out.data,
            timego_workloads::apps::halo::reference(&data, iters, nodes, 2),
            "case {case}: block {block} iters {iters}"
        );
    }
}
