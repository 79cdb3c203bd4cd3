//! Scheduler internals: timing wheel, op slab, and the self-profiling
//! harness.
//!
//! The engine ([`crate::Engine`]) owns the protocol semantics; this
//! module owns the machinery that decides *when* each op gets CPU:
//!
//! * `TimingWheel` (crate-internal) — a hierarchical timer wheel holding
//!   op wake timers, deadlines and watchdogs, so that supervision never
//!   scans every op and idle time can clock-jump straight to the next
//!   due event.
//! * `Slab` (crate-internal) — a free-list arena for running-op state:
//!   stable `u32` indices, no per-step `Box`/`BTreeMap` churn on the hot
//!   path.
//! * [`SchedProfiler`] / [`SchedCounters`] — cheap timestamps into a
//!   ring buffer (aggregated outside the hot path) plus always-on
//!   counters of steps/quanta/wakes, so the simulator's own overhead is
//!   measured rather than guessed. These stay public: they are what
//!   [`Engine::counters`](crate::Engine::counters) and
//!   [`Engine::profiler_mut`](crate::Engine::profiler_mut) hand out.
//!
//! See `DESIGN.md` §10 for the full methodology.

mod profile;
mod slab;
mod wheel;

pub use profile::{PhaseTotal, SchedCounters, SchedPhase, SchedProfiler};
pub(crate) use slab::Slab;
pub(crate) use wheel::TimingWheel;
