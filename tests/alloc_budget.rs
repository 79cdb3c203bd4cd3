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
//! What a data packet costs today is one payload `Vec` in the NI's
//! staging (`NiPort::stage_envelope`) — two for a stream packet, whose
//! acknowledgement is a packet too. Protocol-side buffers (the stream's
//! retransmission copies and out-of-order arrivals included) allocate
//! per message, not per packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use timego_am::{CmamConfig, Machine, StreamConfig};
use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
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

fn machine(script: DeliveryScript) -> Machine {
    Machine::new(share(ScriptedNetwork::new(2, script)), 2, CmamConfig::default())
}

/// Run `send` and return its result with the allocations it made.
fn counted<T>(send: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = send();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn allocations_per_data_packet_stay_within_budget() {
    let (src, dst) = (NodeId::new(0), NodeId::new(1));
    let data: Vec<u32> = (0..WORDS as u32).map(|i| i.rotate_left(9) ^ 0x5bd1).collect();
    let packets = WORDS.div_ceil(CmamConfig::default().packet_words) as f64;

    let mut m = machine(DeliveryScript::AlternateSwap);
    let id = m.open_stream(src, dst, StreamConfig::default());
    let (out, stream) = counted(|| m.stream_send(id, &data));
    assert_eq!(out.unwrap().packets as f64, packets);
    assert_eq!(m.stream_received(id), data.as_slice());

    let mut m = machine(DeliveryScript::InOrder);
    let (out, xfer) = counted(|| m.xfer(src, dst, &data));
    assert_eq!(m.read_buffer(dst, out.unwrap().dst_buffer, WORDS), data);

    let mut m = machine(DeliveryScript::InOrder);
    let (out, hl_xfer) = counted(|| m.hl_xfer(src, dst, &data));
    assert_eq!(m.read_buffer(dst, out.unwrap().dst_buffer, WORDS), data);

    let mut m = machine(DeliveryScript::InOrder);
    let (out, hl_stream) = counted(|| m.hl_stream_send(src, dst, &data));
    assert_eq!(out.unwrap(), data);

    for (family, allocations, budget) in [
        ("stream", stream, 2.1),
        ("xfer", xfer, 1.05),
        ("hl_xfer", hl_xfer, 1.05),
        ("hl_stream_send", hl_stream, 1.05),
    ] {
        let per_packet = allocations as f64 / packets;
        assert!(
            per_packet <= budget,
            "{family}: {allocations} allocations for {packets} data packets \
             = {per_packet:.3} per packet, budget {budget}"
        );
    }
}
