//! A hierarchical timing wheel.
//!
//! Four levels of 64 slots each cover dues up to `64^4` (~16.7M) cycles
//! out; anything farther sits on an overflow list until it comes into
//! range. Entries are placed at the shallowest level whose span covers
//! their distance from *now* and cascade toward level 0 as time
//! advances. Each slot tracks the minimum due it holds, so
//! [`TimingWheel::next_due`] is exact (not a slot-granular lower
//! bound) — the engine relies on that to clock-jump idle time without
//! overshooting an event.
//!
//! Entries carry a monotonically increasing insertion sequence;
//! [`TimingWheel::take_ripe`] yields due entries sorted by
//! `(due, seq)`, so same-cycle expiries fire in insertion order.

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

#[derive(Debug)]
struct Entry<T> {
    due: u64,
    seq: u64,
    item: T,
}

/// A ripe (due) timer: `(due, insertion_seq, item)`.
pub type Ripe<T> = (u64, u64, T);

/// Hierarchical timer wheel; see the module docs.
#[derive(Debug)]
pub struct TimingWheel<T> {
    now: u64,
    next_seq: u64,
    slots: Vec<Vec<Entry<T>>>,
    /// Minimum due held by each slot (`u64::MAX` when empty).
    slot_min: Vec<u64>,
    /// Per-level occupancy bitmap — bit `s` set iff slot `s` is
    /// non-empty.
    occ: [u64; LEVELS],
    overflow: Vec<Entry<T>>,
    overflow_min: u64,
    ripe: Vec<Entry<T>>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel at time 0.
    pub fn new() -> Self {
        TimingWheel {
            now: 0,
            next_seq: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            occ: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            ripe: Vec::new(),
        }
    }

    /// The wheel's current time.
    #[cfg(test)]
    fn now(&self) -> u64 {
        self.now
    }

    /// Number of entries held (including already-ripe ones not yet
    /// taken).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum::<usize>() + self.overflow.len() + self.ripe.len()
    }

    /// True when no entries are held at all.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an entry due at absolute time `due`; returns its
    /// insertion sequence (usable with `cancel` in tests). A due at or
    /// before *now* is immediately ripe.
    pub fn insert(&mut self, due: u64, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry { due, seq, item };
        if due <= self.now {
            self.ripe.push(e);
        } else {
            self.place(e);
        }
        seq
    }

    fn place(&mut self, e: Entry<T>) {
        let delta = e.due - self.now;
        for l in 0..LEVELS {
            if delta < 1u64 << (SLOT_BITS * (l as u32 + 1)) {
                let s = ((e.due >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
                let idx = l * SLOTS + s;
                self.slot_min[idx] = self.slot_min[idx].min(e.due);
                self.occ[l] |= 1u64 << s;
                self.slots[idx].push(e);
                return;
            }
        }
        self.overflow_min = self.overflow_min.min(e.due);
        self.overflow.push(e);
    }

    /// Advance the wheel to absolute time `t`, cascading entries toward
    /// level 0 and collecting everything with `due <= t` into the ripe
    /// queue. Going backwards is a no-op.
    pub fn advance_to(&mut self, t: u64) {
        if t <= self.now {
            return;
        }
        self.now = t;
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let idx = l * SLOTS + s;
                if self.slot_min[idx] > t {
                    continue;
                }
                let entries = std::mem::take(&mut self.slots[idx]);
                self.occ[l] &= !(1u64 << s);
                self.slot_min[idx] = u64::MAX;
                for e in entries {
                    if e.due <= t {
                        self.ripe.push(e);
                    } else {
                        // Still in the future but its old slot has
                        // expired: cascade to the level its (shrunken)
                        // distance now fits.
                        self.place(e);
                    }
                }
            }
        }
        if self.overflow_min != u64::MAX
            && self.overflow_min.saturating_sub(t) < (1u64 << (SLOT_BITS * LEVELS as u32))
        {
            let overflow = std::mem::take(&mut self.overflow);
            self.overflow_min = u64::MAX;
            for e in overflow {
                if e.due <= t {
                    self.ripe.push(e);
                } else if e.due - t < (1u64 << (SLOT_BITS * LEVELS as u32)) {
                    self.place(e);
                } else {
                    self.overflow_min = self.overflow_min.min(e.due);
                    self.overflow.push(e);
                }
            }
        }
    }

    /// Drain all ripe entries, sorted by `(due, insertion seq)`.
    pub fn take_ripe(&mut self) -> Vec<Ripe<T>> {
        if self.ripe.is_empty() {
            return Vec::new();
        }
        self.ripe.sort_by_key(|e| (e.due, e.seq));
        self.ripe.drain(..).map(|e| (e.due, e.seq, e.item)).collect()
    }

    /// The earliest due among all held entries (ripe entries report
    /// *now*). `None` when empty. Exact, thanks to per-slot minimums.
    pub fn next_due(&self) -> Option<u64> {
        if !self.ripe.is_empty() {
            return Some(self.now);
        }
        let mut best = self.overflow_min;
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                best = best.min(self.slot_min[l * SLOTS + s]);
            }
        }
        (best != u64::MAX).then_some(best)
    }

    /// Remove the entry with insertion sequence `seq`, wherever it
    /// lives (slot, overflow, or already ripe). Linear scan — the engine
    /// invalidates entries lazily instead.
    #[cfg(test)]
    fn cancel(&mut self, seq: u64) -> Option<T> {
        if let Some(pos) = self.ripe.iter().position(|e| e.seq == seq) {
            return Some(self.ripe.swap_remove(pos).item);
        }
        if let Some(pos) = self.overflow.iter().position(|e| e.seq == seq) {
            let e = self.overflow.swap_remove(pos);
            self.overflow_min = self.overflow.iter().map(|e| e.due).min().unwrap_or(u64::MAX);
            return Some(e.item);
        }
        for l in 0..LEVELS {
            let mut occ = self.occ[l];
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let idx = l * SLOTS + s;
                if let Some(pos) = self.slots[idx].iter().position(|e| e.seq == seq) {
                    let e = self.slots[idx].swap_remove(pos);
                    self.slot_min[idx] =
                        self.slots[idx].iter().map(|e| e.due).min().unwrap_or(u64::MAX);
                    if self.slots[idx].is_empty() {
                        self.occ[l] &= !(1u64 << s);
                    }
                    return Some(e.item);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a wheel holding `u32` payloads through a scripted advance
    /// and collect every firing as `(advance_to, due, item)`.
    fn run_script(inserts: &[(u64, u32)], advances: &[u64]) -> Vec<(u64, u64, u32)> {
        let mut w = TimingWheel::new();
        for &(due, item) in inserts {
            w.insert(due, item);
        }
        let mut fired = Vec::new();
        for &t in advances {
            w.advance_to(t);
            for (due, _seq, item) in w.take_ripe() {
                fired.push((t, due, item));
            }
        }
        fired
    }

    #[test]
    fn fires_exactly_at_bucket_boundaries() {
        // One entry per interesting due: slot edges of every level plus
        // the overflow threshold. Each row: (due, expected fire at).
        let table: &[u64] = &[
            1,
            63,         // last level-0 slot
            64,         // first level-1 due
            65,
            4_095,      // last level-1 due
            4_096,      // first level-2 due
            262_143,    // last level-2 due
            262_144,    // first level-3 due
            16_777_215, // last level-3 due
            16_777_216, // overflow
            16_777_217,
        ];
        let inserts: Vec<(u64, u32)> =
            table.iter().enumerate().map(|(i, &d)| (d, i as u32)).collect();
        // Advance in two stages per due: one cycle short (must not
        // fire), then exactly on the due (must fire).
        let mut w = TimingWheel::new();
        for &(due, item) in &inserts {
            w.insert(due, item);
        }
        for (i, &due) in table.iter().enumerate() {
            w.advance_to(due - 1);
            let early: Vec<_> = w.take_ripe();
            assert!(early.is_empty(), "due {due} fired early: {early:?}");
            assert_eq!(w.next_due(), Some(due), "next_due must be exact before {due}");
            w.advance_to(due);
            let fired = w.take_ripe();
            assert_eq!(fired.len(), 1, "due {due} must fire exactly once");
            assert_eq!(fired[0].0, due);
            assert_eq!(fired[0].2, i as u32);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn cascade_preserves_due_across_level_boundaries() {
        // Entry inserted at a high level must still fire at its exact
        // due after cascading down, for a table of (insert_at, due,
        // checkpoints) rows.
        let table: &[(u64, u64, &[u64])] = &[
            (0, 67, &[64, 66]),            // level 1 -> level 0 at t=64
            (0, 4_100, &[4_096, 4_099]),   // level 2 -> down
            (0, 262_200, &[262_144]),      // level 3 -> down
            (10, 70, &[64, 69]),           // non-zero start
            (0, 20_000_000, &[16_777_216]) // overflow -> wheel
        ];
        for &(start, due, checkpoints) in table {
            let mut w = TimingWheel::new();
            w.advance_to(start);
            w.insert(due, 7u32);
            for &cp in checkpoints {
                w.advance_to(cp);
                assert!(w.take_ripe().is_empty(), "due {due} fired early at {cp}");
                assert_eq!(w.next_due(), Some(due), "exact next_due after cascade at {cp}");
            }
            w.advance_to(due);
            let fired = w.take_ripe();
            assert_eq!(fired.len(), 1);
            assert_eq!(fired[0].0, due);
        }
    }

    #[test]
    fn same_cycle_expiries_fire_in_insertion_order() {
        // Mixed levels, same due; plus an earlier due inserted later.
        let fired = run_script(
            &[(100, 0), (100, 1), (50, 2), (100, 3)],
            &[49, 50, 99, 100],
        );
        assert_eq!(
            fired,
            vec![(50, 50, 2), (100, 100, 0), (100, 100, 1), (100, 100, 3)]
        );
    }

    #[test]
    fn cancellation_removes_entries_wherever_they_live() {
        let mut w = TimingWheel::new();
        let near = w.insert(5, 0u32); // level 0
        let mid = w.insert(500, 1); // level 1
        let far = w.insert(50_000_000, 2); // overflow
        w.advance_to(3);
        let ripe = w.insert(2, 3); // ripe on arrival
        assert_eq!(w.len(), 4);
        assert_eq!(w.cancel(mid), Some(1));
        assert_eq!(w.cancel(ripe), Some(3));
        assert_eq!(w.cancel(far), Some(2));
        assert_eq!(w.cancel(far), None, "double-cancel must miss");
        assert_eq!(w.len(), 1);
        w.advance_to(60_000_000);
        let fired = w.take_ripe();
        assert_eq!(fired.len(), 1, "only the uncancelled entry fires");
        assert_eq!(fired[0].1, near);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_and_idle_jumps() {
        let mut w = TimingWheel::new();
        w.insert(1u64 << 40, 9u32);
        assert_eq!(w.next_due(), Some(1u64 << 40), "overflow due is exact");
        // A giant single jump straight past the due fires it once.
        w.advance_to((1u64 << 40) + 5);
        let fired = w.take_ripe();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 1u64 << 40);
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn ripe_on_insert_and_backwards_advance_is_noop() {
        let mut w = TimingWheel::new();
        w.advance_to(100);
        w.insert(100, 1u32); // due == now -> ripe
        w.insert(40, 2); // already past -> ripe
        assert_eq!(w.next_due(), Some(100));
        w.advance_to(50); // backwards: ignored
        assert_eq!(w.now(), 100);
        let fired = w.take_ripe();
        assert_eq!(fired.len(), 2);
        // Sorted by (due, seq): the past-due entry first.
        assert_eq!(fired[0].2, 2);
        assert_eq!(fired[1].2, 1);
    }
}
