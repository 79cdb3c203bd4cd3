//! # timego-benchmark — where does `timego`'s own time go?
//!
//! Six macro workloads over the `timego` stack, end-to-end metrics
//! from an untraced pass and per-layer metrics from a traced one, with
//! output checks in the same command. Every layer is measured from
//! outside, through its public functions; this crate changes nothing
//! in the crates it measures. See `README.md` for the metric tables,
//! the run protocol and the layer → end-to-end interaction map.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod runner;
pub mod stats;
pub mod timed_net;
pub mod trace;
pub mod workloads;
