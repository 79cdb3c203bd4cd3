//! The running ops, indexed by incarnation.
//!
//! The engine hands every spawned op an incarnation number (`inc`) from
//! a counter that only grows, and visits running ops in `inc` order. So
//! the run set is a bitmap over incarnations rather than an ordered
//! container: a chunk covers 64 consecutive incarnations and holds a
//! *live* word (the op is running), a *ready* word (it is awake) and the
//! 64 run slots. Each word kind has a [`Summary`] bit per chunk, set
//! exactly when that chunk's word is non-zero, so the next set bit past a
//! cursor is a `trailing_zeros` in the current chunk or one jump through
//! the summary.
//!
//! Ending an op clears its bits; nothing moves. Whole summary words of
//! chunks (4 096 incarnations) with no live bit are retired from the
//! front as new chunks are opened, so the footprint is the span from the
//! oldest running `inc` to the newest plus at most 4 096, not the number
//! of ops ever spawned.

use super::bitmap::Summary;

/// Incarnations per chunk.
const CHUNK: u64 = 64;
/// Chunks per summary word: the unit of retirement.
const BLOCK: usize = 64;

#[derive(Clone, Copy)]
struct Chunk {
    live: u64,
    ready: u64,
    slots: [u32; CHUNK as usize],
}

const EMPTY: Chunk = Chunk { live: 0, ready: 0, slots: [0; CHUNK as usize] };

/// The set of running ops by incarnation; see the module docs.
#[derive(Default)]
pub(crate) struct RunSet {
    chunks: Vec<Chunk>,
    /// Chunk number (`inc / 64`) of `chunks[0]`.
    base: u64,
    live: Summary,
    ready: Summary,
    len: usize,
    ready_len: usize,
}

impl RunSet {
    /// Chunk position and bit of `inc`. An incarnation below the first
    /// chunk wraps to a position past the end, which every caller reads
    /// as absent.
    fn at(&self, inc: u64) -> (usize, u64) {
        ((inc / CHUNK).wrapping_sub(self.base) as usize, 1 << (inc % CHUNK))
    }

    /// Number of running ops.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no op is running.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of running ops that are ready.
    pub(crate) fn ready_len(&self) -> usize {
        self.ready_len
    }

    /// Enter op `slot` under `inc`, ready. `inc` must exceed every
    /// incarnation entered before.
    pub(crate) fn push(&mut self, inc: u64, slot: u32) {
        debug_assert!(inc / CHUNK + 1 >= self.base + self.chunks.len() as u64, "inc went back");
        let mut c = self.at(inc).0;
        if c >= self.chunks.len() {
            self.retire();
            c = self.at(inc).0;
            self.chunks.resize(c + 1, EMPTY);
        }
        let bit = 1 << (inc % CHUNK);
        let chunk = &mut self.chunks[c];
        chunk.live |= bit;
        chunk.ready |= bit;
        chunk.slots[(inc % CHUNK) as usize] = slot;
        self.live.set(c);
        self.ready.set(c);
        self.len += 1;
        self.ready_len += 1;
    }

    /// Drop leading summary words of chunks that hold no running op.
    /// Runs only when a new chunk is about to open, so the chunks
    /// dropped all lie below the newest incarnation.
    fn retire(&mut self) {
        while self.chunks.len() >= BLOCK && self.live.first_word_clear() {
            debug_assert!(
                self.chunks[..BLOCK].iter().all(|c| c.live == 0),
                "retiring a live chunk"
            );
            self.chunks.drain(..BLOCK);
            self.base += BLOCK as u64;
            self.live.shift_out_first_word();
            self.ready.shift_out_first_word();
        }
    }

    /// Take `inc` out of the set. Returns whether it was ready.
    pub(crate) fn remove(&mut self, inc: u64) -> bool {
        let (c, bit) = self.at(inc);
        let Some(chunk) = self.chunks.get_mut(c).filter(|ch| ch.live & bit != 0) else {
            debug_assert!(false, "remove of an incarnation not running");
            return false;
        };
        let was_ready = chunk.ready & bit != 0;
        chunk.live &= !bit;
        chunk.ready &= !bit;
        self.len -= 1;
        if chunk.live == 0 {
            self.live.clear(c);
        }
        if was_ready {
            self.ready_len -= 1;
            if chunk.ready == 0 {
                self.ready.clear(c);
            }
        }
        was_ready
    }

    /// Is `inc` running?
    #[cfg(test)]
    pub(crate) fn contains(&self, inc: u64) -> bool {
        let (c, bit) = self.at(inc);
        self.chunks.get(c).is_some_and(|ch| ch.live & bit != 0)
    }

    /// Is `inc` running and ready?
    pub(crate) fn is_ready(&self, inc: u64) -> bool {
        let (c, bit) = self.at(inc);
        self.chunks.get(c).is_some_and(|ch| ch.ready & bit != 0)
    }

    /// Mark running `inc` ready. Returns whether it was asleep.
    pub(crate) fn set_ready(&mut self, inc: u64) -> bool {
        let (c, bit) = self.at(inc);
        match self.chunks.get_mut(c) {
            Some(ch) if ch.live & bit != 0 && ch.ready & bit == 0 => {
                ch.ready |= bit;
                self.ready.set(c);
                self.ready_len += 1;
                true
            }
            _ => false,
        }
    }

    /// Mark running `inc` asleep. Returns whether it was ready.
    pub(crate) fn clear_ready(&mut self, inc: u64) -> bool {
        let (c, bit) = self.at(inc);
        match self.chunks.get_mut(c) {
            Some(ch) if ch.ready & bit != 0 => {
                ch.ready &= !bit;
                if ch.ready == 0 {
                    self.ready.clear(c);
                }
                self.ready_len -= 1;
                true
            }
            _ => false,
        }
    }

    /// The lowest `(inc, slot)` at or past `from` whose `word` bit is
    /// set, found through `summary`.
    fn next(
        &self,
        from: u64,
        summary: &Summary,
        word: impl Fn(&Chunk) -> u64,
    ) -> Option<(u64, u32)> {
        let (mut c, mut mask) = match (from / CHUNK).checked_sub(self.base) {
            Some(c) => (c as usize, !0u64 << (from % CHUNK)),
            None => (0, !0),
        };
        loop {
            let chunk = self.chunks.get(c)?;
            let bits = word(chunk) & mask;
            if bits != 0 {
                let b = bits.trailing_zeros();
                return Some((
                    (self.base + c as u64) * CHUNK + u64::from(b),
                    chunk.slots[b as usize],
                ));
            }
            c = summary.next_from(c + 1)?;
            mask = !0;
        }
    }

    /// The ready op with the lowest incarnation at or past `from`.
    pub(crate) fn next_ready(&self, from: u64) -> Option<(u64, u32)> {
        self.next(from, &self.ready, |c| c.ready)
    }

    /// The running op with the lowest incarnation at or past `from`.
    pub(crate) fn next_live(&self, from: u64) -> Option<(u64, u32)> {
        self.next(from, &self.live, |c| c.live)
    }

    /// Every running op as `(inc, slot)`, ascending by incarnation.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        std::iter::successors(self.next_live(0), |&(inc, _)| self.next_live(inc + 1))
    }

    /// Debug check: each summary bit is set exactly when its chunk word
    /// is non-zero, every ready op is running, and the counts are the
    /// bits.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check(&self) {
        self.live.check(self.chunks.iter().map(|c| c.live));
        self.ready.check(self.chunks.iter().map(|c| c.ready));
        assert!(self.chunks.iter().all(|c| c.ready & !c.live == 0), "a ready op is not running");
        let count = |w: fn(&Chunk) -> u64| -> usize {
            self.chunks.iter().map(|c| w(c).count_ones() as usize).sum()
        };
        assert_eq!(count(|c| c.live), self.len, "live count vs live bits");
        assert_eq!(count(|c| c.ready), self.ready_len, "ready count vs ready bits");
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use timego_netsim::SimRng;

    use super::*;

    /// Random pushes, removes, readiness flips and cursor queries against
    /// a `BTreeMap` of `inc -> (slot, ready)`. Occasional gaps in the
    /// incarnations and long-lived ops carry the run across chunk (64)
    /// and summary-word (4 096) boundaries, and leading chunks retire.
    /// The release build runs a million operations; the debug build a
    /// twentieth of that.
    #[test]
    fn run_set_matches_a_btree_model() {
        let steps = if cfg!(debug_assertions) { 50_000 } else { 1_000_000 };
        let mut rng = SimRng::new(37);
        let mut set = RunSet::default();
        let mut model: BTreeMap<u64, (u32, bool)> = BTreeMap::new();
        let (mut next_inc, mut widest, mut retired) = (0u64, 0, 0);
        let pick = |rng: &mut SimRng, model: &BTreeMap<u64, (u32, bool)>| {
            model.keys().nth(rng.gen_index(model.len())).copied()
        };
        for step in 0..steps {
            match rng.gen_index(8) {
                0 | 1 if model.len() < 200 => {
                    if rng.gen_index(64) == 0 {
                        next_inc += rng.gen_inclusive(5_000);
                    }
                    let slot = rng.gen_u32();
                    set.push(next_inc, slot);
                    model.insert(next_inc, (slot, true));
                    next_inc += 1;
                }
                2 => {
                    if let Some(inc) = pick(&mut rng, &model) {
                        let (_, ready) = model.remove(&inc).unwrap_or_default();
                        assert_eq!(set.remove(inc), ready);
                    }
                }
                3 => {
                    if let Some(inc) = pick(&mut rng, &model) {
                        let entry = model.get_mut(&inc).expect("picked from the model");
                        assert_eq!(set.set_ready(inc), !entry.1);
                        entry.1 = true;
                    }
                }
                4 => {
                    if let Some(inc) = pick(&mut rng, &model) {
                        let entry = model.get_mut(&inc).expect("picked from the model");
                        assert_eq!(set.clear_ready(inc), entry.1);
                        entry.1 = false;
                    }
                }
                _ => {
                    let from = next_inc.saturating_sub(rng.gen_inclusive(6_000));
                    let live = model.range(from..).next().map(|(&i, &(s, _))| (i, s));
                    assert_eq!(set.next_live(from), live, "next live from {from}");
                    let ready = model.range(from..).find(|e| e.1 .1).map(|(&i, &(s, _))| (i, s));
                    assert_eq!(set.next_ready(from), ready, "next ready from {from}");
                }
            }
            let probe = next_inc.saturating_sub(rng.gen_inclusive(300));
            assert_eq!(set.contains(probe), model.contains_key(&probe));
            assert_eq!(set.is_ready(probe), model.get(&probe).is_some_and(|e| e.1));
            assert_eq!(
                (set.len(), set.ready_len()),
                (model.len(), model.values().filter(|e| e.1).count())
            );
            widest = widest.max(set.chunks.len());
            retired = retired.max(set.base);
            if step % 1_000 == 0 {
                set.check();
                let all: Vec<(u64, u32)> = model.iter().map(|(&i, &(s, _))| (i, s)).collect();
                assert_eq!(set.iter().collect::<Vec<_>>(), all);
            }
        }
        set.check();
        assert!(widest > BLOCK, "never spanned two summary words ({widest} chunks)");
        assert!(retired > 0, "no chunk ever retired");
    }

    /// 100 000 spawn/finish pairs with at most two ops running: leading
    /// chunks retire, so the set never holds more than two summary words
    /// of chunks.
    #[test]
    fn run_set_footprint_follows_the_live_span() {
        let mut rng = SimRng::new(5);
        let mut set = RunSet::default();
        let mut live: Vec<u64> = Vec::new();
        for inc in 0..100_000u64 {
            set.push(inc, inc as u32);
            live.push(inc);
            if live.len() == 2 {
                let gone = live.swap_remove(rng.gen_index(2));
                set.remove(gone);
            }
            assert!(set.chunks.len() <= 2 * BLOCK, "{} chunks at inc {inc}", set.chunks.len());
        }
        assert!(set.base > 0);
        assert_eq!(set.iter().map(|(inc, _)| inc).collect::<Vec<_>>(), live);
        set.check();
    }
}
