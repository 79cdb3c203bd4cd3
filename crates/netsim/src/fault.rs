//! The unified fault-injection plane.
//!
//! The paper's fault-tolerance overheads exist because real networks
//! *detect* errors without *masking* them: packets are dropped,
//! duplicated by link-level retry, delayed, reordered by adaptive
//! routing, and whole nodes or links blink out. [`FaultConfig`]
//! describes such a fault mix; [`FaultSchedule`] turns it into a
//! seeded, fully deterministic per-packet decision stream that the
//! substrates ([`crate::SwitchedNetwork`], [`crate::WormholeNetwork`],
//! and through them [`crate::DualNetwork`]) consult at injection time.
//!
//! The schedule owns its own RNG, seeded independently of the routing
//! RNG, so enabling faults never perturbs routing decisions and a
//! fault-free configuration draws no random numbers at all.

use crate::id::NodeId;
use crate::packet::Packet;
use crate::rng::{splitmix64, SimRng};
use crate::stats::NetStats;
use crate::time::Time;

/// A scripted outage: every packet injected while `now` is inside
/// `[start, end)` whose source or destination is `node` is silently
/// discarded (the node is down — nothing it sends or should receive
/// gets through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The node that is down.
    pub node: NodeId,
    /// First cycle of the outage (inclusive).
    pub start: u64,
    /// First cycle after the outage (exclusive).
    pub end: u64,
}

impl OutageWindow {
    /// Does this window silence `src → dst` traffic at `now`?
    #[must_use]
    pub fn silences(&self, src: NodeId, dst: NodeId, now: Time) -> bool {
        let t = now.cycles();
        t >= self.start && t < self.end && (self.node == src || self.node == dst)
    }
}

/// A scripted node crash with restart: the node is dead during
/// `[start, end)` — every packet it sends or should receive is silently
/// discarded, exactly like an [`OutageWindow`] — and at `end` it comes
/// back *with amnesia*. Unlike an outage (where the node resumes with
/// its protocol state intact), a restart means every piece of endpoint
/// protocol state held for the node (segment tables, RPC reply caches,
/// stream cursors) must be erased by the protocol layer. Peers observe
/// that a restart happened via [`FaultSchedule::restarts`] and fail
/// their in-flight sessions fast with a retryable error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that crashes.
    pub node: NodeId,
    /// First cycle of the crash (inclusive) — the node goes dark here.
    pub start: u64,
    /// First cycle after the crash (exclusive) — the node restarts
    /// here, with all its endpoint protocol state erased.
    pub end: u64,
}

impl CrashWindow {
    /// Does this window silence `src → dst` traffic at `now`?
    #[must_use]
    pub fn silences(&self, src: NodeId, dst: NodeId, now: Time) -> bool {
        let t = now.cycles();
        t >= self.start && t < self.end && (self.node == src || self.node == dst)
    }

    /// Has the node already crashed *and restarted* by `now`?
    #[must_use]
    pub fn restarted_by(&self, now: Time) -> bool {
        now.cycles() >= self.end
    }
}

/// A fault mix: per-packet probabilities plus scripted outages.
///
/// The default is fault-free. All probabilities are evaluated
/// independently per packet by a [`FaultSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a packet is corrupted in flight. Corruption is
    /// *detected* (CRC) at delivery and the packet discarded — the
    /// paper's detect-only fault model.
    pub corruption_prob: f64,
    /// Probability a packet is silently dropped (lost outright, no
    /// detection possible at the network layer).
    pub drop_prob: f64,
    /// Probability a packet is duplicated (link-level retry after a
    /// lost acknowledgement delivers the same packet twice).
    pub duplicate_prob: f64,
    /// Maximum extra delivery delay in cycles; each packet draws a
    /// uniform jitter in `0..=delay_jitter`. Zero disables.
    pub delay_jitter: u64,
    /// Probability a packet is held back so later traffic overtakes it
    /// (a bounded reorder burst).
    pub reorder_prob: f64,
    /// How many subsequent injections overtake a held packet before it
    /// is released (it is also released after a bounded cycle count,
    /// so a held packet never hangs an idle network).
    pub reorder_depth: u64,
    /// Scripted node outage windows.
    pub outages: Vec<OutageWindow>,
    /// Scripted node crash-restart windows. A crash silences traffic
    /// like an outage *and* counts as a restart once the window closes,
    /// signalling the protocol layer to erase the node's endpoint state.
    pub crashes: Vec<CrashWindow>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            corruption_prob: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_jitter: 0,
            reorder_prob: 0.0,
            reorder_depth: 4,
            outages: Vec::new(),
            crashes: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A fault-free configuration (same as `Default`).
    #[must_use]
    pub fn clean() -> Self {
        FaultConfig::default()
    }

    /// True if any fault can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.corruption_prob > 0.0
            || self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_jitter > 0
            || self.reorder_prob > 0.0
            || !self.outages.is_empty()
            || !self.crashes.is_empty()
    }
}

/// What the schedule decided for one injected packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InjectFaults {
    /// Discard the packet silently (outage or random loss). Counters
    /// are already updated; the substrate just drops it.
    pub(crate) vanish: bool,
    /// Flip the packet's CRC so delivery discards it.
    pub(crate) corrupt: bool,
    /// Inject a second, identical copy.
    pub(crate) duplicate: bool,
    /// Extra delivery delay in cycles.
    pub(crate) extra_delay: u64,
    /// Hold the packet back for a reorder burst.
    pub(crate) hold: bool,
}

impl InjectFaults {
    pub(crate) const NONE: InjectFaults = InjectFaults {
        vanish: false,
        corrupt: false,
        duplicate: false,
        extra_delay: 0,
        hold: false,
    };
}

/// A packet held back by the reorder fault, waiting for later traffic
/// to overtake it.
#[derive(Debug, Clone)]
struct HeldPacket {
    packet: Packet,
    /// Released once this many further injections have happened…
    injections_remaining: u64,
    /// …or at this time, whichever comes first.
    release_at: Time,
}

/// The seeded, deterministic fault decision stream for one substrate.
///
/// Construction is cheap; a fault-free schedule makes no RNG draws, so
/// adding the plane to a substrate changes nothing when faults are off.
///
/// One schedule serves one decision site: each switched subnet owns its
/// own (per-shard streams in the sharded substrate), and the sharded
/// front keeps an additional engine-thread-only schedule under global
/// node ids for the cross-shard boundary path and all restart queries —
/// schedules are never shared across threads.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    cfg: FaultConfig,
    rng: SimRng,
    held: Vec<HeldPacket>,
}

impl FaultSchedule {
    /// Build a schedule from a fault mix and the substrate seed. The
    /// fault RNG stream is decorrelated from the routing stream derived
    /// from the same seed.
    #[must_use]
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultSchedule {
            cfg,
            rng: SimRng::new(splitmix64(seed ^ 0xFA_17_5C_8E_D0_1E_55_AA)),
            held: Vec::new(),
        }
    }

    /// The fault mix this schedule executes.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Packets currently held back by the reorder fault.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// How many times `node` has crashed *and restarted* by `now`.
    ///
    /// The protocol layer compares this monotonic counter against its
    /// own remembered value to detect a restart it has not yet absorbed
    /// (and then erases the node's endpoint protocol state). On a
    /// crash-free schedule this is always zero and costs nothing.
    #[must_use]
    pub fn restarts(&self, node: NodeId, now: Time) -> u32 {
        self.cfg
            .crashes
            .iter()
            .filter(|w| w.node == node && w.restarted_by(now))
            .count() as u32
    }

    /// Total restarts across *all* nodes by `now` — a change detector
    /// for [`crate::Network::restarts_hint`]. O(#crash windows), which
    /// is O(1) on the usual crash-free schedule.
    #[must_use]
    pub fn restarts_total(&self, now: Time) -> u64 {
        self.cfg.crashes.iter().filter(|w| w.restarted_by(now)).count() as u64
    }

    /// The earliest scripted restart strictly after `now` (the first
    /// cycle some crashed node comes back), if any. Event-driven
    /// schedulers clamp idle clock-jumps here so a restart is observed
    /// on exactly the cycle its window closes.
    pub fn next_restart_after(&self, now: Time) -> Option<Time> {
        self.cfg
            .crashes
            .iter()
            .map(|w| w.end)
            .filter(|&end| end > now.cycles())
            .min()
            .map(Time::from_cycles)
    }

    /// Decide the faults for one packet being injected now, updating
    /// the per-fault counters. Corruption is decided here but counted
    /// at delivery (where detection happens), matching the existing
    /// `dropped_corrupt` accounting.
    pub(crate) fn on_inject(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: Time,
        stats: &mut NetStats,
    ) -> InjectFaults {
        if !self.cfg.is_active() {
            return InjectFaults::NONE;
        }
        if self.cfg.outages.iter().any(|w| w.silences(src, dst, now)) {
            stats.outage_drops += 1;
            return InjectFaults { vanish: true, ..InjectFaults::NONE };
        }
        if self.cfg.crashes.iter().any(|w| w.silences(src, dst, now)) {
            stats.crash_drops += 1;
            return InjectFaults { vanish: true, ..InjectFaults::NONE };
        }
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            stats.dropped_fault += 1;
            return InjectFaults { vanish: true, ..InjectFaults::NONE };
        }
        let corrupt = self.cfg.corruption_prob > 0.0 && self.rng.gen_bool(self.cfg.corruption_prob);
        let duplicate = self.cfg.duplicate_prob > 0.0 && self.rng.gen_bool(self.cfg.duplicate_prob);
        let extra_delay = if self.cfg.delay_jitter > 0 {
            self.rng.gen_inclusive(self.cfg.delay_jitter)
        } else {
            0
        };
        let hold = self.cfg.reorder_prob > 0.0 && self.rng.gen_bool(self.cfg.reorder_prob);
        // `duplicated` is counted by the substrate when the extra copy
        // actually enters the network (it may find no buffer space).
        if extra_delay > 0 {
            stats.jitter_delayed += 1;
        }
        if hold {
            stats.reordered += 1;
        }
        InjectFaults { vanish: false, corrupt, duplicate, extra_delay, hold }
    }

    /// Park a packet for a reorder burst. It re-emerges from
    /// [`FaultSchedule::take_released`] after `reorder_depth` further
    /// injections or a bounded number of cycles, whichever comes first.
    pub(crate) fn hold(&mut self, packet: Packet, now: Time) {
        let depth = self.cfg.reorder_depth.max(1);
        self.held.push(HeldPacket {
            packet,
            injections_remaining: depth,
            // Liveness valve: even if traffic stops dead, the held
            // packet rejoins the network soon after.
            release_at: now + (4 * depth + 8),
        });
    }

    /// Note that another packet entered the network (advancing held
    /// packets toward release).
    pub(crate) fn note_injection(&mut self) {
        for h in &mut self.held {
            h.injections_remaining = h.injections_remaining.saturating_sub(1);
        }
    }

    /// Take every held packet now due for release (by overtake count or
    /// by deadline).
    pub(crate) fn take_released(&mut self, now: Time) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].injections_remaining == 0 || now >= self.held[i].release_at {
                out.push(self.held.swap_remove(i).packet);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Put a released packet back (e.g. the re-entry queue was full);
    /// it retries promptly.
    pub(crate) fn hold_again(&mut self, packet: Packet, now: Time) {
        self.held.push(HeldPacket {
            packet,
            injections_remaining: 0,
            release_at: now + 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn pkt() -> Packet {
        Packet::new(n(0), n(1), 1, 0, &[1, 2, 3, 4])
    }

    #[test]
    fn clean_schedule_decides_nothing_and_draws_nothing() {
        let mut s = FaultSchedule::new(FaultConfig::clean(), 1);
        let snapshot = s.rng.clone();
        let mut stats = NetStats::new();
        for _ in 0..100 {
            assert_eq!(s.on_inject(n(0), n(1), Time::ZERO, &mut stats), InjectFaults::NONE);
        }
        assert_eq!(s.rng, snapshot, "no RNG draws on the clean path");
        assert_eq!(stats.dropped_fault + stats.reordered + stats.jitter_delayed, 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            delay_jitter: 5,
            reorder_prob: 0.2,
            ..FaultConfig::default()
        };
        let mut a = FaultSchedule::new(cfg.clone(), 9);
        let mut b = FaultSchedule::new(cfg, 9);
        let mut sa = NetStats::new();
        let mut sb = NetStats::new();
        for _ in 0..200 {
            assert_eq!(
                a.on_inject(n(0), n(1), Time::ZERO, &mut sa),
                b.on_inject(n(0), n(1), Time::ZERO, &mut sb)
            );
        }
    }

    #[test]
    fn drop_probability_is_roughly_honored() {
        let cfg = FaultConfig { drop_prob: 0.3, ..FaultConfig::default() };
        let mut s = FaultSchedule::new(cfg, 3);
        let mut stats = NetStats::new();
        for _ in 0..10_000 {
            s.on_inject(n(0), n(1), Time::ZERO, &mut stats);
        }
        assert!(
            (2_600..3_400).contains(&(stats.dropped_fault as usize)),
            "{}",
            stats.dropped_fault
        );
    }

    #[test]
    fn outage_silences_only_its_node_and_window() {
        let cfg = FaultConfig {
            outages: vec![OutageWindow { node: n(1), start: 10, end: 20 }],
            ..FaultConfig::default()
        };
        let mut s = FaultSchedule::new(cfg, 0);
        let mut stats = NetStats::new();
        let inside = Time::from_cycles(15);
        let outside = Time::from_cycles(25);
        assert!(s.on_inject(n(0), n(1), inside, &mut stats).vanish, "dst down");
        assert!(s.on_inject(n(1), n(2), inside, &mut stats).vanish, "src down");
        assert!(!s.on_inject(n(0), n(2), inside, &mut stats).vanish, "bystanders fine");
        assert!(!s.on_inject(n(0), n(1), outside, &mut stats).vanish, "window over");
        assert_eq!(stats.outage_drops, 2);
    }

    #[test]
    fn crash_silences_its_window_and_counts_a_restart_after() {
        let cfg = FaultConfig {
            crashes: vec![CrashWindow { node: n(1), start: 10, end: 20 }],
            ..FaultConfig::default()
        };
        let mut s = FaultSchedule::new(cfg, 0);
        let mut stats = NetStats::new();
        let inside = Time::from_cycles(15);
        let after = Time::from_cycles(20);
        assert!(s.on_inject(n(0), n(1), inside, &mut stats).vanish, "dst crashed");
        assert!(s.on_inject(n(1), n(2), inside, &mut stats).vanish, "src crashed");
        assert!(!s.on_inject(n(0), n(2), inside, &mut stats).vanish, "bystanders fine");
        assert!(!s.on_inject(n(0), n(1), after, &mut stats).vanish, "restarted");
        assert_eq!(stats.crash_drops, 2);
        assert_eq!(stats.outage_drops, 0, "crash drops are their own counter");

        // The restart becomes visible exactly when the window closes,
        // and only for the crashed node.
        assert_eq!(s.restarts(n(1), Time::from_cycles(19)), 0);
        assert_eq!(s.restarts(n(1), after), 1);
        assert_eq!(s.restarts(n(0), after), 0);
    }

    #[test]
    fn held_packets_release_by_overtake_or_deadline() {
        let cfg = FaultConfig { reorder_prob: 1.0, reorder_depth: 2, ..FaultConfig::default() };
        let mut s = FaultSchedule::new(cfg, 0);
        s.hold(pkt(), Time::ZERO);
        assert!(s.take_released(Time::ZERO).is_empty());
        s.note_injection();
        assert!(s.take_released(Time::ZERO).is_empty());
        s.note_injection();
        assert_eq!(s.take_released(Time::ZERO).len(), 1, "overtaken twice");

        // Deadline release with no traffic at all.
        s.hold(pkt(), Time::ZERO);
        assert!(s.take_released(Time::from_cycles(5)).is_empty());
        assert_eq!(s.take_released(Time::from_cycles(1_000)).len(), 1);
        assert_eq!(s.held_count(), 0);
    }
}
