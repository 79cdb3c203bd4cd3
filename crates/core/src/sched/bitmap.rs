//! Bitmaps over dense indices that find their lowest set bit through a
//! summary word per 64 words.
//!
//! [`Summary`] holds one bit per word of some other bitmap — set exactly
//! when that word is non-zero — with its first word inline, so a summary
//! over at most 64 words never allocates. [`Bitmap`] pairs one with the
//! words it summarises: a two-level set over indices that grows on
//! demand and finds its lowest member in two `trailing_zeros`. The run
//! set keeps its words in its chunks and uses `Summary` alone.

/// One bit per word of a bitmap, set exactly when the word is non-zero;
/// see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Summary {
    first: u64,
    rest: Vec<u64>,
}

impl Summary {
    /// Summary word `w` (zero past the end).
    fn word(&self, w: usize) -> u64 {
        match w {
            0 => self.first,
            _ => self.rest.get(w - 1).copied().unwrap_or(0),
        }
    }

    /// Mark word `i` non-zero.
    pub(crate) fn set(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if w == 0 {
            self.first |= bit;
            return;
        }
        if self.rest.len() < w {
            self.rest.resize(w, 0);
        }
        self.rest[w - 1] |= bit;
    }

    /// Mark word `i` zero.
    pub(crate) fn clear(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if w == 0 {
            self.first &= !bit;
        } else if let Some(word) = self.rest.get_mut(w - 1) {
            *word &= !bit;
        }
    }

    /// Is word `i` marked non-zero?
    #[cfg(any(test, debug_assertions))]
    fn get(&self, i: usize) -> bool {
        self.word(i / 64) >> (i % 64) & 1 != 0
    }

    /// The lowest marked word at or past `i`.
    pub(crate) fn next_from(&self, i: usize) -> Option<usize> {
        let mut w = i / 64;
        let mut bits = self.word(w) & (!0u64 << (i % 64));
        while bits == 0 {
            w += 1;
            bits = *self.rest.get(w - 1)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Whether none of the first 64 words is marked.
    pub(crate) fn first_word_clear(&self) -> bool {
        self.first == 0
    }

    /// Drop the first summary word, renumbering word `i + 64` as `i`.
    pub(crate) fn shift_out_first_word(&mut self) {
        self.first = if self.rest.is_empty() { 0 } else { self.rest.remove(0) };
    }

    /// Debug check: the summary marks exactly the non-zero words of
    /// `words`, and nothing past them.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check(&self, words: impl ExactSizeIterator<Item = u64>) {
        let n = words.len();
        for (i, word) in words.enumerate() {
            assert_eq!(self.get(i), word != 0, "summary bit {i} vs its word");
        }
        assert_eq!(self.next_from(n), None, "summary bit past the last word");
    }
}

/// A two-level set of `usize` indices: a bit per index, and a
/// [`Summary`] bit per 64 of them. Grows on insertion.
#[derive(Debug, Default)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    summary: Summary,
}

impl Bitmap {
    /// Add `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        if *word == 0 {
            self.summary.set(w);
        }
        *word |= bit;
    }

    /// Remove `i` (absent is a no-op).
    pub(crate) fn remove(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if let Some(word) = self.words.get_mut(w) {
            *word &= !bit;
            if *word == 0 {
                self.summary.clear(w);
            }
        }
    }

    /// The lowest member.
    pub(crate) fn first(&self) -> Option<usize> {
        let w = self.summary.next_from(0)?;
        let word = *self.words.get(w)?;
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Debug check: the summary marks exactly the non-zero words.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check(&self) {
        self.summary.check(self.words.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use timego_netsim::SimRng;

    use super::*;

    /// Inserts and removes across summary words, against a `BTreeSet`:
    /// the lowest member is always the reference's first.
    #[test]
    fn bitmap_lowest_member_matches_a_btree_set() {
        let mut rng = SimRng::new(11);
        let (mut bits, mut reference) = (Bitmap::default(), BTreeSet::new());
        for _ in 0..20_000 {
            let i = rng.gen_index(9_000);
            if rng.gen_bool(0.5) {
                bits.insert(i);
                reference.insert(i);
            } else {
                let low = reference.first().copied();
                let i = if rng.gen_bool(0.5) { low.unwrap_or(i) } else { i };
                bits.remove(i);
                reference.remove(&i);
            }
            assert_eq!(bits.first(), reference.first().copied());
        }
        bits.check();
        while let Some(i) = bits.first() {
            bits.remove(i);
            reference.remove(&i);
            assert_eq!(bits.first(), reference.first().copied());
        }
        assert!(reference.is_empty());
        bits.check();
    }

    #[test]
    fn summary_finds_the_next_marked_word_and_shifts() {
        let mut s = Summary::default();
        for i in [3, 40, 200, 4_100] {
            s.set(i);
        }
        assert_eq!(s.next_from(0), Some(3));
        assert_eq!(s.next_from(4), Some(40));
        assert_eq!(s.next_from(201), Some(4_100));
        assert_eq!(s.next_from(4_101), None);
        s.clear(3);
        assert!(!s.get(3) && s.get(200));
        assert!(!s.first_word_clear());
        s.clear(40);
        assert!(s.first_word_clear());
        s.shift_out_first_word();
        assert_eq!(s.next_from(0), Some(200 - 64));
        assert_eq!(s.next_from(137), Some(4_100 - 64));
    }
}
