//! Self-profiling for the scheduler: where does the *simulator's* time
//! go?
//!
//! The same question the paper asks of messaging layers applies to the
//! thing asking it. [`SchedProfiler`] timestamps the four scheduler
//! phases into a fixed ring buffer — two `Instant` reads per phase per
//! quantum, nothing else on the hot path — and aggregation happens only
//! when the harness calls [`SchedProfiler::flush`] between runs.
//! [`SchedCounters`] are always-on plain integer counters (the bench
//! acceptance metric is `steps`, the number of op `step()` invocations).

/// A scheduler phase whose wall time is sampled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPhase {
    /// Scanning the run queue for ready ops (sweep overhead minus the
    /// op steps themselves).
    ReadyPop,
    /// Time inside op `step()` calls — the protocol work itself.
    OpStep,
    /// Advancing the timing wheel, harvesting ripe timers, and
    /// absorbing substrate wake sets.
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

/// Ring-buffered phase timer; see the module docs.
#[derive(Debug)]
pub struct SchedProfiler {
    ring: Vec<(u8, u64)>,
    head: usize,
    filled: usize,
    dropped: u64,
    totals: [PhaseTotal; 4],
}

impl SchedProfiler {
    /// A profiler whose ring holds `capacity` samples before the oldest
    /// are overwritten (and counted in [`SchedProfiler::dropped`]).
    pub fn new(capacity: usize) -> Self {
        SchedProfiler {
            ring: Vec::with_capacity(capacity.max(1)),
            head: 0,
            filled: 0,
            dropped: 0,
            totals: [PhaseTotal::default(); 4],
        }
    }

    /// Record one `(phase, nanoseconds)` sample. O(1), no allocation
    /// once the ring is full.
    pub fn record(&mut self, phase: SchedPhase, ns: u64) {
        let sample = (phase.index() as u8, ns);
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(sample);
            self.filled += 1;
        } else {
            if self.filled == self.ring.len() {
                self.dropped += 1;
            }
            self.ring[self.head] = sample;
            self.filled = self.ring.len();
        }
        self.head = (self.head + 1) % self.ring.capacity();
    }

    /// Fold the ring's contents into the persistent per-phase totals
    /// and clear it. Call this *outside* the hot path (between pump
    /// batches or after a run).
    pub fn flush(&mut self) {
        for &(p, ns) in self.ring.iter().take(self.filled) {
            let t = &mut self.totals[p as usize];
            t.samples += 1;
            t.total_ns += ns;
        }
        self.ring.clear();
        self.head = 0;
        self.filled = 0;
    }

    /// Per-phase totals accumulated by [`SchedProfiler::flush`],
    /// indexed like [`SchedPhase::ALL`].
    pub fn totals(&self) -> [PhaseTotal; 4] {
        self.totals
    }

    /// Samples lost to ring overwrite before they could be flushed.
    pub fn dropped(&self) -> u64 {
        self.dropped
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
    /// Sleeping ops woken by a wheel timer.
    pub timer_wakes: u64,
    /// Sleeping ops woken by a packet arrival at a subscribed node.
    pub packet_wakes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_flush_aggregates() {
        let mut p = SchedProfiler::new(3);
        p.record(SchedPhase::OpStep, 10);
        p.record(SchedPhase::OpStep, 20);
        p.record(SchedPhase::ReadyPop, 5);
        p.record(SchedPhase::OpStep, 30); // overwrites the 10ns sample
        assert_eq!(p.dropped(), 1);
        p.flush();
        let t = p.totals();
        assert_eq!(t[SchedPhase::OpStep.index()], PhaseTotal { samples: 2, total_ns: 50 });
        assert_eq!(t[SchedPhase::ReadyPop.index()], PhaseTotal { samples: 1, total_ns: 5 });
        // Flush is idempotent on an empty ring.
        p.flush();
        assert_eq!(p.totals()[SchedPhase::OpStep.index()].samples, 2);
    }
}
