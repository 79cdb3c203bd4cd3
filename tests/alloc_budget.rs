//! Heap allocations per data packet, per protocol family — a
//! deterministic proxy for the host cost of the packet path, whose
//! wall-clock side the frozen benchmark's `paper_sweep` measures.
//!
//! One 16 384-word message per family over a two-node scripted
//! substrate (the paper's measurement conditions: in order, except
//! that the stream sees half its packets swapped), counted by a
//! counting global allocator. The counter is process-wide, so this
//! binary holds exactly one test.
//!
//! A packet of up to four payload words owns no heap memory: the NI
//! stages its words in one reusable per-port buffer and the packet
//! carries them inline, and the scripted substrate's per-pair table is
//! sized once, at the first injection. What remains per message is
//! protocol-side buffering (segments, the stream's retransmission
//! copies and out-of-order arrivals) and table growth, so every
//! family's per-packet count is a few hundredths and shrinks with
//! message length. A packet longer than four words spills its payload
//! to the heap, one allocation per packet; the 16-word `xfer` row pins
//! that path.
//!
//! The last row is the switched substrate on its own: a fixed
//! permutation pushed twice through one `SwitchedNetwork`. A hop moves
//! a slab index and a deterministic route is written into a reused
//! buffer, so once the first pass has grown the slab, the receive
//! queues and the waiter lists, the second pass allocates (next to)
//! nothing per packet. Debug builds add what the sampled schedule
//! check allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use timego_am::{CmamConfig, Machine, Op, RetryPolicy, StreamConfig};
use timego_netsim::{
    DeliveryScript, FatTree, Network, NodeId, Packet, ScriptedNetwork, SwitchedConfig, SwitchedNetwork,
};
use timego_ni::share;

/// Counts every heap acquisition; a reallocation (the default
/// `realloc` is `alloc` + copy + `dealloc`) counts as one.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods forward unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every pointer this allocator hands out comes from
        // `System.alloc` with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WORDS: usize = 16_384;

/// Allocations a two-node `ScriptedNetwork` costs to build: its vector
/// of receive queues, and nothing per pair until the first injection.
/// The paper sweep builds one per message.
const SCRIPTED_BUILD_ALLOCATIONS: u64 = 1;

fn machine(script: DeliveryScript, packet_words: usize) -> Machine {
    let cfg = CmamConfig {
        packet_words,
        ..CmamConfig::default()
    };
    Machine::new(share(ScriptedNetwork::new(2, script)), 2, cfg)
}

/// Nodes of the substrate row's fat tree, and packets each one sends.
const NODES: usize = 256;
const PACKETS_PER_NODE: u32 = 5;

/// The substrate row's permutation: odd multiplier, odd offset, so no
/// node sends to itself.
fn partner(src: usize) -> usize {
    (src * 97 + 31) % NODES
}

/// Every node sends its partner `PACKETS_PER_NODE` four-word packets as
/// fast as the network accepts them, and every node extracts whatever
/// arrived, every cycle. Returns the packets received.
fn permutation_pass(net: &mut SwitchedNetwork<FatTree>) -> u64 {
    let mut unsent = [PACKETS_PER_NODE; NODES];
    let total = NODES as u64 * u64::from(PACKETS_PER_NODE);
    let deadline = net.now().cycles() + 100_000;
    let mut received = 0;
    while received < total {
        for (src, left) in unsent.iter_mut().enumerate().filter(|(_, left)| **left > 0) {
            let packet = Packet::new(NodeId::new(src), NodeId::new(partner(src)), 0, *left, &[*left; 4]);
            if net.try_inject(packet).is_ok() {
                *left -= 1;
            }
        }
        net.advance(1);
        for node in 0..NODES {
            while net.try_receive(NodeId::new(node)).is_some() {
                received += 1;
            }
        }
        assert!(net.now().cycles() < deadline, "the permutation must drain");
    }
    received
}

/// Run `send` and return its result with the allocations it made.
fn counted<T>(send: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = send();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn allocations_per_data_packet_stay_within_budget() {
    let (_, build) = counted(|| ScriptedNetwork::new(2, DeliveryScript::AlternateSwap));
    assert!(
        build <= SCRIPTED_BUILD_ALLOCATIONS,
        "a two-node scripted network took {build} allocations to build, \
         budget {SCRIPTED_BUILD_ALLOCATIONS}"
    );

    let (src, dst) = (NodeId::new(0), NodeId::new(1));
    let data: Vec<u32> = (0..WORDS as u32).map(|i| i.rotate_left(9) ^ 0x5bd1).collect();
    let default_words = CmamConfig::default().packet_words;

    let mut m = machine(DeliveryScript::AlternateSwap, default_words);
    let id = m.open_stream(src, dst, StreamConfig::default());
    let (out, stream) = counted(|| m.stream_send(id, &data));
    assert_eq!(out.unwrap().packets, WORDS.div_ceil(default_words) as u64);
    assert_eq!(m.stream_received(id), data.as_slice());

    let mut m = machine(DeliveryScript::InOrder, default_words);
    let (out, xfer) = counted(|| m.xfer(src, dst, &data));
    assert_eq!(m.read_buffer(dst, out.unwrap().dst_buffer, WORDS), data);

    // The same transfer under the default recovery policy: its recovery
    // state is one box and a receive bitmap, allocated once per message.
    let policy = RetryPolicy::default();
    let mut m = machine(DeliveryScript::InOrder, default_words);
    let (out, xfer_reliable) = counted(|| m.run(Op::xfer_reliable(src, dst, &data, &policy)));
    assert_eq!(m.read_buffer(dst, out.unwrap().0.xfer.dst_buffer, WORDS), data);

    // Sixteen-word packets spill their payload to the heap.
    let mut m = machine(DeliveryScript::InOrder, 16);
    let (out, xfer_spill) = counted(|| m.xfer(src, dst, &data));
    assert_eq!(m.read_buffer(dst, out.unwrap().dst_buffer, WORDS), data);

    // The same words as a segment-reuse batch of 16 messages.
    let messages: Vec<&[u32]> = data.chunks(WORDS / 16).collect();
    let mut m = machine(DeliveryScript::InOrder, default_words);
    let (outs, xfer_batch) = counted(|| m.xfer_batch(src, dst, &messages));
    for (out, msg) in outs.unwrap().iter().zip(&messages) {
        assert_eq!(m.read_buffer(dst, out.dst_buffer, msg.len()), *msg);
    }

    let mut m = machine(DeliveryScript::InOrder, default_words);
    let (out, hl_xfer) = counted(|| m.hl_xfer(src, dst, &data));
    assert_eq!(m.read_buffer(dst, out.unwrap().dst_buffer, WORDS), data);

    let mut m = machine(DeliveryScript::InOrder, default_words);
    let (out, hl_stream) = counted(|| m.hl_stream_send(src, dst, &data));
    assert_eq!(out.unwrap(), data);

    let mut net = SwitchedNetwork::new(FatTree::new(4, 4, 2), SwitchedConfig::default());
    permutation_pass(&mut net);
    let (delivered, substrate) = counted(|| permutation_pass(&mut net));

    let message = |packet_words: usize| WORDS.div_ceil(packet_words) as u64;
    for (family, packet_words, allocations, packets, budget) in [
        ("stream", default_words, stream, message(default_words), 0.05),
        ("xfer", default_words, xfer, message(default_words), 0.05),
        ("xfer_reliable", default_words, xfer_reliable, message(default_words), 0.05),
        // 1024 spills on top of the 4-word run's 37: 1061, or 1.036 per packet.
        ("xfer", 16, xfer_spill, message(16), 1.04),
        ("xfer_batch", default_words, xfer_batch, message(default_words), 0.05),
        ("hl_xfer", default_words, hl_xfer, message(default_words), 0.05),
        ("hl_stream_send", default_words, hl_stream, message(default_words), 0.05),
        ("switched permutation, second pass", 4, substrate, delivered, 0.01),
    ] {
        let packets = packets as f64;
        let per_packet = allocations as f64 / packets;
        assert!(
            per_packet <= budget,
            "{family} at {packet_words}-word packets: {allocations} allocations for \
             {packets} data packets = {per_packet:.4} per packet, budget {budget}"
        );
    }
}
