//! Scheduler internals: the op slab and the self-profiling harness.
//!
//! The engine ([`crate::Engine`]) owns the protocol semantics and its
//! timer queue (a std `BinaryHeap` of op wakes, deadlines and
//! watchdogs, so that supervision never scans every op and idle time
//! can clock-jump straight to the next due event); this module owns the
//! rest of the machinery that decides *when* each op gets CPU:
//!
//! * `Slab` (crate-internal) — a free-list arena for running-op state:
//!   stable `u32` indices, no per-step `Box`/`BTreeMap` churn on the hot
//!   path.
//! * [`SchedProfiler`] / [`SchedCounters`] — cheap timestamps summed
//!   into per-phase running totals, plus always-on counters of
//!   steps/quanta/wakes, so the simulator's own overhead is measured
//!   rather than guessed. These stay public: they are what
//!   [`Engine::counters`](crate::Engine::counters) and
//!   [`Engine::profiler_mut`](crate::Engine::profiler_mut) hand out.
//!
//! See `DESIGN.md` §10 for the full methodology.

mod profile;
mod slab;

pub use profile::{PhaseTotal, SchedCounters, SchedPhase, SchedProfiler};
pub(crate) use slab::Slab;
