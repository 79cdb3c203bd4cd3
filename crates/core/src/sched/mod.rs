//! Scheduler internals: the op slab, the run set, and the self-profiling
//! harness.
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
//! * `RunSet` (crate-internal) — the running ops as bits over their
//!   incarnation numbers, 64 to a chunk: a live word, a ready word and the
//!   64 slot numbers per chunk, with a summary bit per chunk for each word
//!   kind. It is the visiting order (ascending `inc`), the ready set and
//!   each op's readiness, and it retires leading chunks with no running op.
//! * `Bitmap` / `Summary` (crate-internal) — a two-level bitmap over dense
//!   indices (the orphan sweep's dirty nodes) and the summary level it
//!   shares with the run set: one bit per 64-bit word, the first summary
//!   word inline.
//! * [`SchedProfiler`] / [`SchedCounters`] — cheap timestamps summed
//!   into per-phase running totals, plus always-on counters of
//!   steps/quanta/wakes, so the simulator's own overhead is measured
//!   rather than guessed. These stay public: they are what
//!   [`Engine::counters`](crate::Engine::counters) and
//!   [`Engine::profiler_mut`](crate::Engine::profiler_mut) hand out.
//!
//! See `DESIGN.md` §10 for the full methodology.

mod bitmap;
mod profile;
mod run_set;
mod slab;

pub(crate) use bitmap::Bitmap;
pub use profile::{PhaseTotal, SchedCounters, SchedPhase, SchedProfiler};
pub(crate) use run_set::RunSet;
pub(crate) use slab::Slab;
