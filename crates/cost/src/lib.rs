//! # timego-cost — instruction-count cost model
//!
//! This crate is the measurement substrate of the `timego` reproduction of
//! Karamcheti & Chien, *"Software Overhead in Messaging Layers: Where Does
//! the Time Go?"* (ASPLOS 1994).
//!
//! The paper characterizes messaging-layer cost as **dynamic instruction
//! counts**, classified along three orthogonal axes:
//!
//! * [`Feature`] — which user communication service the instruction pays
//!   for: base data movement, buffer management, in-order delivery, or
//!   fault tolerance (Table 2 of the paper).
//! * [`Class`] — the cost hierarchy of the instruction: register
//!   operation (`reg`), memory load/store (`mem`), or load/store to a
//!   memory-mapped device (`dev`) (Appendix A / Table 3).
//! * [`Fine`] — the fine-grained functional category: call/return, NI
//!   setup, write to NI, read from NI, check NI status, control flow, …
//!   (Table 1).
//!
//! Protocol code in the `timego-am` crate performs its work through costed
//! operations: every NI register access, every memory-buffer access, and
//! every annotated register operation records one entry into a
//! [`CostRecorder`]. Summing a recorder yields exactly the numbers the
//! paper reports, which [`paper`] holds as printed; the [`analytic`]
//! module provides the closed-form generalizations (`n` = packet payload
//! words, `p` = packets per message) behind Figure 8.
//!
//! ## Example
//!
//! ```
//! use timego_cost::{CostHandle, Feature, Fine, Class};
//!
//! let cpu = CostHandle::new();
//! cpu.with_feature(Feature::InOrder, |cpu| {
//!     cpu.reg(Fine::RegOp, 2); // e.g. increment + store a packet offset
//! });
//! let snapshot = cpu.snapshot();
//! assert_eq!(snapshot.feature_total(Feature::InOrder), 2);
//! assert_eq!(snapshot.class_total(Class::Reg), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axes;
mod recorder;
mod vector;

pub mod analytic;
pub mod cycles;
pub mod export;
pub mod latency;
pub mod paper;
pub mod table;

pub use axes::{Class, Endpoint, Feature, Fine};
pub use recorder::{CostHandle, CostRecorder};
pub use vector::{CostVector, FeatureCost};
