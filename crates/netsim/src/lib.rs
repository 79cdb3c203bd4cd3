//! # timego-netsim — routing-network substrates
//!
//! Discrete, cycle-stepped packet-network simulators for the `timego`
//! reproduction of Karamcheti & Chien (ASPLOS 1994). The paper's software
//! overheads are consequences of three *network features*:
//!
//! * **arbitrary delivery order** — adaptive/multipath routing lets
//!   packets between the same pair of nodes overtake each other;
//! * **finite buffering** — network and node buffers are bounded, so
//!   injection can be refused (backpressure) and unextracted packets can
//!   stall the network;
//! * **fault detection without fault tolerance** — corrupted packets are
//!   detected (CRC) and discarded, never repaired.
//!
//! This crate provides three interchangeable substrates behind the
//! [`Network`] trait:
//!
//! * [`SwitchedNetwork`] — a CM-5-like store-and-forward network over a
//!   pluggable [`Topology`] (fat tree, mesh, torus) with deterministic,
//!   adaptive, or randomized minimal routing, bounded link and receive
//!   queues, and probabilistic packet corruption. Adaptive and randomized
//!   routing genuinely reorder packets; deterministic routing preserves
//!   per-pair order.
//! * [`CrNetwork`] — a Compressionless-Routing-like substrate (§4 of the
//!   paper): per-pair in-order delivery, header rejection with automatic
//!   hardware retry (end-to-end flow control), and packet-level hardware
//!   retransmission of corrupted packets (fault tolerance).
//! * [`ScriptedNetwork`] — an instant, reliable network whose delivery
//!   order follows a [`DeliveryScript`]. The paper's Table 2 assumes
//!   *exactly half* the packets of a stream arrive out of order;
//!   [`DeliveryScript::AlternateSwap`] reproduces that assumption
//!   deterministically, which is how the table-regeneration benches run.
//!
//! [`ShardedNetwork`] wraps many [`SwitchedNetwork`] shards behind the
//! same trait and steps them on a worker pool; its results are
//! bit-identical for every thread count (see the [`sharded`] module
//! docs for the argument).
//!
//! ## Example
//!
//! ```
//! use timego_netsim::{Network, NodeId, Packet, ScriptedNetwork, DeliveryScript};
//!
//! let mut net = ScriptedNetwork::new(2, DeliveryScript::InOrder);
//! let src = NodeId::new(0);
//! let dst = NodeId::new(1);
//! net.try_inject(Packet::new(src, dst, 7, 0, vec![1, 2, 3, 4])).unwrap();
//! net.advance(1);
//! let got = net.try_receive(dst).expect("delivered");
//! assert_eq!(got.data(), &[1, 2, 3, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cr;
mod dual;
mod fault;
mod id;
mod network;
mod packet;
mod pair;
pub mod rng;
mod scripted;
pub mod sharded;
mod stats;
mod switched;
mod time;
pub mod topology;
mod wormhole;

pub use cr::{CrConfig, CrNetwork};
pub use dual::DualNetwork;
pub use fault::{CrashWindow, FaultConfig, FaultSchedule, OutageWindow};
pub use id::NodeId;
pub use network::{Guarantees, InjectError, Network, RxMeta, WakeSet};
pub use packet::Packet;
pub use rng::SimRng;
pub use scripted::{DeliveryScript, ScriptedNetwork};
pub use sharded::{ShardedConfig, ShardedNetwork};
pub use stats::{LatencyStats, NetStats, NodeOccupancy, OrderTracker};
pub use switched::{RouteStrategy, SwappedContext, SwitchedConfig, SwitchedNetwork};
pub use time::Time;
pub use topology::{FatTree, Hypercube, LinkId, Mesh2D, Topology, Torus2D};
pub use wormhole::{CrMode, VcDiscipline, WormholeConfig, WormholeNetwork};
