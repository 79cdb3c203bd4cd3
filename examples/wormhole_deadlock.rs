//! Flit-level wormhole routing: watch a real deadlock form, then watch
//! two different hardware mechanisms dissolve it.
//!
//! Four nodes on a torus ring each send a worm two hops clockwise. With
//! one virtual channel the wraparound closes a cyclic channel
//! dependency and every head blocks forever — a genuine routing
//! deadlock, not a metaphor. Dateline virtual channels (Dally) avoid
//! the cycle; Compressionless Routing (the paper's §4 substrate)
//! detects the lack of compression relief, kills paths, and retries —
//! deadlock freedom *independent of packet acceptance*, which is
//! exactly the property that lets the messaging layer drop its
//! preallocation handshake.
//!
//! Run with: `cargo run -p timego-bench --example wormhole_deadlock`

use timego_netsim::{Network, NodeId, Packet};
use timego_workloads::scenarios;

fn inject_ring(net: &mut dyn Network) {
    // Same-cycle injection on distinct first channels: the cyclic
    // allocation forms before anyone can slip through.
    for s in 0..4usize {
        let d = (s + 2) % 4;
        net.try_inject(Packet::new(NodeId::new(s), NodeId::new(d), 1, 0, &[7; 8]))
            .expect("first channels are free at time zero");
    }
}

fn main() {
    // 1. Plain wormhole, one VC: deadlock.
    let mut net = scenarios::wormhole_torus(4, 1, 3);
    inject_ring(&mut net);
    net.advance(3_000);
    println!(
        "1 VC, dimension-order torus ring: {} worms in flight, no flit moved for {} cycles -> DEADLOCK",
        net.in_flight(),
        net.stalled_for(),
    );

    // 2. Dateline virtual channels: the cycle never forms.
    let mut net = scenarios::wormhole_torus_dateline(4, 1, 3);
    inject_ring(&mut net);
    let drained = net.drain_extracting(20_000);
    println!(
        "dateline VCs: drained = {drained}, {} delivered (deadlock avoided in the channel graph)",
        net.stats().delivered,
    );

    // 3. Compressionless Routing: same single-VC hardware, but blocked
    //    worms are killed and retried.
    let mut net = scenarios::wormhole_torus_cr(4, 1, 0.0, 3);
    inject_ring(&mut net);
    let drained = net.drain_extracting(50_000);
    println!(
        "CR kill-&-retry: drained = {drained}, {} delivered after {} path kills (deadlock freedom independent of acceptance)",
        net.stats().delivered,
        net.kills(),
    );

    // 4. And CR's fault tolerance: corrupt 20% of worms; hardware
    //    retransmission delivers everything anyway, in order.
    let mut net = scenarios::wormhole_torus_cr(4, 4, 0.2, 5);
    let mut sent = 0u32;
    let mut got = Vec::new();
    while sent < 64 || net.in_flight() > 0 {
        if sent < 64
            && net
                .try_inject(Packet::new(NodeId::new(0), NodeId::new(9), 1, sent, &[sent; 4]))
                .is_ok()
        {
            sent += 1;
        }
        net.advance(1);
        while let Some(p) = net.try_receive(NodeId::new(9)) {
            got.push(p.header());
        }
    }
    let in_order = got.windows(2).all(|w| w[0] < w[1]);
    println!(
        "CR at 20% corruption: {}/64 delivered, in order = {in_order}, {} hardware retransmissions, 0 software fault handling",
        got.len(),
        net.stats().hw_retransmits,
    );
}
