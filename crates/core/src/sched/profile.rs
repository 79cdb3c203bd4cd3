//! Self-profiling for the scheduler: where does the *simulator's* time
//! go?
//!
//! The same question the paper asks of messaging layers applies to the
//! thing asking it. [`SchedProfiler`] times the four scheduler phases —
//! two `Instant` reads per phase per quantum — and adds each sample
//! straight into that phase's running total, so the totals cover the
//! whole run in fixed memory. [`SchedCounters`] are always-on plain
//! integer counters (the bench acceptance metric is `steps`, the number
//! of op `step()` invocations).

/// A scheduler phase whose wall time is sampled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPhase {
    /// Scanning the run queue for ready ops (sweep overhead minus the
    /// op steps themselves).
    ReadyPop,
    /// Time inside op `step()` calls — the protocol work itself.
    OpStep,
    /// Firing due timers from the timer queue and absorbing substrate
    /// wake sets. (The name predates the queue; the frozen benchmark
    /// spells its metric `wheel_advance_share`.)
    WheelAdvance,
    /// Advancing the network substrate (`Machine::advance`).
    SubstrateStep,
}

impl SchedPhase {
    /// Every phase, in display order.
    pub const ALL: [SchedPhase; 4] = [
        SchedPhase::ReadyPop,
        SchedPhase::OpStep,
        SchedPhase::WheelAdvance,
        SchedPhase::SubstrateStep,
    ];

    /// Stable snake_case name (the frozen benchmark's
    /// `core.engine.phase.<name>_share` metrics are spelled with it).
    pub fn name(self) -> &'static str {
        match self {
            SchedPhase::ReadyPop => "ready_pop",
            SchedPhase::OpStep => "op_step",
            SchedPhase::WheelAdvance => "wheel_advance",
            SchedPhase::SubstrateStep => "substrate_step",
        }
    }

    fn index(self) -> usize {
        match self {
            SchedPhase::ReadyPop => 0,
            SchedPhase::OpStep => 1,
            SchedPhase::WheelAdvance => 2,
            SchedPhase::SubstrateStep => 3,
        }
    }
}

/// Aggregated samples for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Number of samples folded in.
    pub samples: u64,
    /// Total nanoseconds across those samples.
    pub total_ns: u64,
}

/// Per-phase running totals; see the module docs.
#[derive(Debug, Default)]
pub struct SchedProfiler {
    totals: [PhaseTotal; 4],
}

impl SchedProfiler {
    /// Add one `(phase, nanoseconds)` sample to that phase's total.
    pub fn record(&mut self, phase: SchedPhase, ns: u64) {
        let t = &mut self.totals[phase.index()];
        t.samples += 1;
        t.total_ns += ns;
    }

    /// A no-op, kept for callers written against the earlier buffered
    /// profiler: every sample is already in [`SchedProfiler::totals`].
    pub fn flush(&mut self) {}

    /// Per-phase totals of every sample recorded, indexed like
    /// [`SchedPhase::ALL`].
    pub fn totals(&self) -> [PhaseTotal; 4] {
        self.totals
    }
}

/// Always-on scheduler counters. `steps` is the acceptance metric for
/// the readiness refactor: how many op `step()` invocations were needed
/// to finish the workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Op `step()` invocations.
    pub steps: u64,
    /// Pump quanta executed.
    pub quanta: u64,
    /// Sweep passes across the run queue.
    pub passes: u64,
    /// Substrate advances issued by the scheduler.
    pub advances: u64,
    /// Advances that jumped more than one cycle.
    pub idle_jumps: u64,
    /// Cycles skipped by those jumps (beyond the single cycle a
    /// reference advance would have made).
    pub jumped_cycles: u64,
    /// Sleeping ops woken by their own timer.
    pub timer_wakes: u64,
    /// Sleeping ops woken by a packet arrival at a subscribed node.
    pub packet_wakes: u64,
    /// Scheduler events recorded ([`EngineEvent`](crate::EngineEvent)s),
    /// counted whether or not the engine keeps its trace.
    pub events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// More samples than the 65 536-entry ring the benchmark used to
    /// size, and every one of them is in the totals — flushed or not.
    #[test]
    fn totals_keep_every_sample() {
        const SAMPLES: u64 = (1 << 16) + 4_000;
        let mut p = SchedProfiler::default();
        for i in 0..SAMPLES {
            p.record(SchedPhase::ALL[(i % 4) as usize], i);
        }
        let sum_of = |phase: u64| (0..SAMPLES).filter(|i| i % 4 == phase).sum::<u64>();
        let expected: Vec<PhaseTotal> =
            (0..4).map(|ph| PhaseTotal { samples: SAMPLES / 4, total_ns: sum_of(ph) }).collect();
        assert_eq!(p.totals().to_vec(), expected);
        p.flush();
        assert_eq!(p.totals().to_vec(), expected, "flush changes nothing");
    }
}
