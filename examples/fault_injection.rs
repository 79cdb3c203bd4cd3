//! Fault injection: what "error detection without error correction"
//! costs, and what hardware fault tolerance recovers.
//!
//! On a detect-only network (the CM-5 model), a corrupted packet is
//! dropped at the receiving NI. The finite-sequence protocol has no
//! per-packet retransmission — like the real machine, the transfer just
//! fails. The indefinite-sequence protocol retransmits from its source
//! buffers and completes. On the CR substrate, hardware retransmission
//! makes loss invisible to software.
//!
//! Run with: `cargo run -p timego-bench --example fault_injection`

use timego_am::{CmamConfig, Machine, Op, RetryPolicy, StreamConfig};
use timego_cost::Feature;
use timego_netsim::NodeId;
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

fn main() {
    let data = payloads::mixed(512, 5);
    let (src, dst) = (NodeId::new(0), NodeId::new(1));

    // 1. Finite-sequence transfer over a lossy detect-only network:
    //    detect-and-give-up, the paper's crash model.
    let mut m = Machine::new(
        share(scenarios::cm5_lossy(4, 0.05, 99)),
        4,
        CmamConfig {
            max_wait_cycles: 20_000,
            ..CmamConfig::default()
        },
    );
    match m.xfer(src, dst, &data) {
        Ok(out) => {
            let intact = m.read_buffer(dst, out.dst_buffer, data.len()) == data;
            println!("xfer over 5%-lossy network: completed, data intact = {intact} (got lucky)");
        }
        Err(e) => println!("xfer over 5%-lossy network: FAILED as expected ({e})"),
    }

    // 2. The stream protocol's fault tolerance actually works: source
    //    buffering + acks + retransmission deliver everything.
    let mut m = Machine::new(
        share(scenarios::cm5_lossy(4, 0.05, 99)),
        4,
        CmamConfig::default(),
    );
    let id = m.open_stream(src, dst, StreamConfig { rto_iterations: 256, ..StreamConfig::default() });
    let out = m.stream_send(id, &data).expect("stream recovers from loss");
    assert_eq!(m.stream_received(id), data.as_slice());
    let drops = m.network().borrow().stats().dropped_corrupt;
    println!(
        "stream over the same network: {} packets, {} CRC drops survived via {} retransmissions ({} duplicates discarded); data intact = true",
        out.packets, drops, out.retransmits, out.duplicates,
    );

    // 3. CR substrate: the same loss rate, handled entirely in hardware.
    let mut m = Machine::new(share(scenarios::cr_lossy(2, 0.05, 99)), 2, CmamConfig::default());
    let got = m.hl_stream_send(src, dst, &data).expect("hardware repairs loss");
    let retx = m.network().borrow().stats().hw_retransmits;
    println!(
        "HL stream over 5%-lossy CR network: {} hardware retransmissions, zero software fault handling; data intact = {}",
        retx,
        got == data,
    );

    // 4. The reliable finite-sequence variant: where plain xfer gave up,
    //    xfer_reliable NACKs the gaps and selectively retransmits — and
    //    the whole recovery bill lands under Feature::FaultTol.
    let fault = scenarios::fault_mix("storm");
    let mut m = Machine::new(share(scenarios::cm5_chaos(4, fault, 99)), 4, CmamConfig::default());
    let (out, _) = m
        .run(Op::xfer_reliable(src, dst, &data, &RetryPolicy::default()))
        .expect("reliable transfer recovers");
    assert_eq!(m.read_buffer(dst, out.xfer.dst_buffer, data.len()), data);
    let ft = m.cpu(src).snapshot().feature_total(Feature::FaultTol)
        + m.cpu(dst).snapshot().feature_total(Feature::FaultTol);
    let s = m.network().borrow().stats().clone();
    println!(
        "xfer_reliable under the 'storm' mix ({} dropped, {} duplicated, {} reordered): \
         {} retransmits / {} NACK rounds / {} ack probes; {} FaultTol instructions; data intact = true",
        s.dropped_fault + s.dropped_corrupt,
        s.duplicated,
        s.reordered,
        out.data_retransmits,
        out.nack_rounds,
        out.ack_probes,
        ft,
    );

    // 5. Retried RPC with exactly-once handlers: duplicated requests are
    //    answered from the callee's reply cache, never re-executed.
    let fault = scenarios::fault_mix("duplicate");
    let mut m = Machine::new(share(scenarios::cm5_chaos(4, fault, 7)), 4, CmamConfig::default());
    m.register_rpc_handler(dst, 40, |_, msg| [msg.words[0] * 10, 0, 0, 0]);
    for v in 0..8u32 {
        let (reply, _) = m
            .run(Op::rpc(src, dst, 40, [v, 0, 0, 0], Some(&RetryPolicy::default())))
            .expect("rpc recovers");
        assert_eq!(reply[0], v * 10);
    }
    println!(
        "8 retried RPCs over a duplicating network: {} duplicate deliveries suppressed at the callee, every reply exact",
        m.network().borrow().stats().duplicated,
    );
}
