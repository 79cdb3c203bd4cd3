//! A request/reply (fetch) workload — the round-trip pattern behind
//! footnote 6 of the paper: on one finite-buffer network a
//! flood-then-serve fetch pattern can deadlock (replies trapped behind
//! stuck requests); on the CM-5's *two* networks it is safe.

use timego_netsim::{Network, NodeId, Packet};

/// Tag used for request packets.
pub const REQUEST_TAG: u8 = 1;
/// Tag threshold for reply packets (route these to the reply network of
/// a [`DualNetwork`](timego_netsim::DualNetwork)).
pub const REPLY_TAG: u8 = 128;

/// Result of a fetch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Requests fully served (complete replies received).
    pub completed: u32,
    /// Whether the run finished; `false` means the network wedged.
    pub finished: bool,
}

/// Run a two-node fetch workload: both nodes flood `rounds` requests at
/// each other until the network saturates, then serve. Serving a
/// request means injecting a `reply_packets`-packet reply before
/// extracting anything else — the handler discipline that deadlocks a
/// single finite-buffer network once replies exceed one packet, and
/// that the split request/reply networks of
/// [`DualNetwork`](timego_netsim::DualNetwork) make safe.
pub fn run_fetch(net: &mut dyn Network, rounds: u32, reply_packets: u32) -> FetchOutcome {
    assert!(net.num_nodes() >= 2, "fetch needs two nodes");
    assert!(reply_packets >= 1, "a reply is at least one packet");
    let mut requests_sent = [0u32; 2];

    // Flood until saturation (or everything accepted).
    let mut stuck = 0;
    while stuck < 50 && (requests_sent[0] < rounds || requests_sent[1] < rounds) {
        let mut progressed = false;
        for (me, sent) in requests_sent.iter_mut().enumerate() {
            if *sent < rounds
                && net
                    .try_inject(Packet::new(
                        NodeId::new(me),
                        NodeId::new(1 - me),
                        REQUEST_TAG,
                        *sent,
                        &[0; 4],
                    ))
                    .is_ok()
            {
                *sent += 1;
                progressed = true;
            }
        }
        net.advance(1);
        stuck = if progressed { 0 } else { stuck + 1 };
    }

    // Serve.
    let total: u32 = requests_sent.iter().sum();
    let mut reply_pkts_owed = [0u32; 2];
    let mut reply_pkts_got = 0u32;
    for _ in 0..20_000 {
        for me in 0..2usize {
            let peer = NodeId::new(1 - me);
            if reply_pkts_owed[me] > 0 {
                if net
                    .try_inject(Packet::new(NodeId::new(me), peer, REPLY_TAG, 0, &[0; 4]))
                    .is_ok()
                {
                    reply_pkts_owed[me] -= 1;
                }
                continue; // still inside the handler either way
            }
            if let Some(p) = net.try_receive(NodeId::new(me)) {
                if p.tag() >= REPLY_TAG {
                    reply_pkts_got += 1;
                } else {
                    reply_pkts_owed[me] += reply_packets;
                }
            }
            if requests_sent[me] < rounds
                && net
                    .try_inject(Packet::new(
                        NodeId::new(me),
                        peer,
                        REQUEST_TAG,
                        requests_sent[me],
                        &[0; 4],
                    ))
                    .is_ok()
            {
                requests_sent[me] += 1;
            }
        }
        net.advance(1);
        let completed = reply_pkts_got / reply_packets;
        if completed >= total && requests_sent.iter().sum::<u32>() == completed {
            return FetchOutcome { completed, finished: true };
        }
    }
    FetchOutcome {
        completed: reply_pkts_got / reply_packets,
        finished: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timego_netsim::{DualNetwork, Mesh2D, SwitchedConfig, SwitchedNetwork};

    fn tight() -> SwitchedNetwork<Mesh2D> {
        SwitchedNetwork::new(
            Mesh2D::new(2, 1),
            SwitchedConfig {
                link_queue_capacity: 4,
                rx_queue_capacity: 4,
                ..SwitchedConfig::default()
            },
        )
    }

    #[test]
    fn single_network_wedges_with_multi_packet_replies() {
        let mut net = tight();
        let out = run_fetch(&mut net, 64, 2);
        assert!(!out.finished, "{out:?}");
    }

    #[test]
    fn dual_network_completes() {
        let mut net = DualNetwork::new(tight(), tight(), REPLY_TAG);
        let out = run_fetch(&mut net, 64, 2);
        assert!(out.finished, "{out:?}");
        assert_eq!(out.completed, 128);
    }

    #[test]
    fn single_packet_replies_survive_even_one_network() {
        // With one-packet replies the two-node pattern self-drains;
        // the hazard appears as replies grow.
        let mut net = tight();
        let out = run_fetch(&mut net, 32, 1);
        assert!(out.finished, "{out:?}");
    }
}
