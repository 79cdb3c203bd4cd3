//! # timego-bench — table and figure regeneration harness
//!
//! One function per paper artifact, each returning the full plain-text
//! report; the one binary (`timego-bench <suite>`, `src/main.rs`)
//! prints them, `tests/golden_reports.rs` pins their bytes, and
//! `EXPERIMENTS.md` records their output.
//!
//! Every number in these reports is *measured* by running the real
//! protocol implementations over the simulated substrates — the
//! analytic closed forms of [`timego_cost::analytic`] are printed
//! alongside purely as cross-validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reports;
