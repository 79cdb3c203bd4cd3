//! # timego-am — the messaging layer
//!
//! The core crate of the `timego` reproduction of Karamcheti & Chien,
//! *"Software Overhead in Messaging Layers: Where Does the Time Go?"*
//! (ASPLOS 1994): an active-messages layer and the multi-packet
//! protocols the paper dissects, running over the simulated substrates
//! of [`timego_netsim`] with instruction-level cost accounting from
//! [`timego_cost`].
//!
//! ## Protocols
//!
//! | paper protocol | CMAM-like (any substrate) | high-level network (§4) |
//! |---|---|---|
//! | single-packet delivery | [`Machine::am4_send`] / [`Machine::poll`] | identical |
//! | finite sequence, multi-packet | [`Machine::xfer`] | [`Machine::hl_xfer`] |
//! | indefinite sequence, multi-packet | [`Machine::stream_send`] | [`Machine::hl_stream_send`] |
//!
//! Variants for the paper's discussion sections reuse the code of the
//! protocol they vary: DMA payload injection ([`measure_xfer_dma`], §5)
//! and segment-reuse batching ([`Machine::xfer_batch`]) are the `xfer`
//! operation with another payload engine or more than one message (a
//! plain transfer is a batch of one), and interrupt-driven reception
//! ([`Machine::deliver_by_interrupt`], footnote 2) is [`Machine::poll`]'s
//! receive and dispatch between a trap entry and exit.
//!
//! Every CMAM-like multi-packet or RPC protocol is one [`Engine`]
//! operation, described as an [`Op`], so each protocol step has one
//! implementation. [`Machine::run`] is the one blocking entry point: it
//! runs an op to completion and returns its [family]'s own
//! outcome; `xfer`, `xfer_batch` and `stream_send` are one-line calls of
//! it. Only the high-level protocols of §4 drive the clock in loops of
//! their own.
//!
//! The CMAM-like protocols implement in software everything the raw
//! network lacks: the `xfer` protocol preallocates a destination segment
//! with a request/reply handshake, tags each packet with a target-buffer
//! offset, and finishes with an end-to-end acknowledgement; the `stream`
//! protocol sequences packets, buffers out-of-order arrivals, keeps
//! source copies for retransmission, and acknowledges (per packet or in
//! groups). The high-level variants require a substrate with
//! [`Guarantees::HIGH_LEVEL`](timego_netsim::Guarantees) semantics and
//! shrink to bare data movement, as the paper's §4 shows.
//!
//! All data movement is real: payloads travel through the network
//! substrate, out-of-order packets are really reordered by receiver
//! software, lost packets are really retransmitted. Instruction
//! accounting (calibrated to the paper's Tables 1–3; see `DESIGN.md §3`)
//! rides along on every NI register access, memory access, and annotated
//! register operation.
//!
//! ## Example
//!
//! ```
//! use timego_am::{CmamConfig, Machine};
//! use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
//! use timego_ni::share;
//!
//! # fn main() -> Result<(), timego_am::ProtocolError> {
//! let net = share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
//! let mut m = Machine::new(net, 2, CmamConfig::default());
//! let (src, dst) = (NodeId::new(0), NodeId::new(1));
//!
//! let data: Vec<u32> = (0..64).collect();
//! let outcome = m.xfer(src, dst, &data)?;
//! assert_eq!(m.read_buffer(dst, outcome.dst_buffer, data.len()), data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod am;
mod costs;
mod engine;
mod error;
mod hl;
mod interrupt;
mod machine;
mod measure;
mod op;
mod retry;
mod rpc;
mod sched;
mod stream;
mod xfer;
mod xfer_reliable;

pub use am::{Am4Msg, PollOutcome};
pub use engine::{Engine, EngineEvent, OpId, OpOutcome, TracedEvent};
pub use error::ProtocolError;
pub use interrupt::{polling_vs_interrupt, DisciplineCosts, InterruptModel};
pub use machine::{CmamConfig, Machine, Tags};
pub use measure::{
    measure_hl_stream, measure_hl_xfer, measure_single_packet, measure_stream, measure_xfer,
    measure_xfer_dma,
};
pub use op::{family, Op};
pub use retry::{RecoveryPolicy, RetryPolicy};
pub use sched::{PhaseTotal, SchedCounters, SchedPhase, SchedProfiler};
pub use stream::{StreamConfig, StreamId, StreamOutcome};
pub use xfer::XferOutcome;
pub use xfer_reliable::ReliableOutcome;
