//! The `(src, dst)`-keyed table the fabric substrates keep, and its
//! hasher.
//!
//! Pair sequence counters, order-tracker state and per-pair channels
//! are all looked up once or more per packet under a key of two small
//! node indices the simulator generated itself — no outside input, so
//! SipHash's collision resistance buys nothing and its per-process
//! random state costs reproducibility: with it, a map *walk* visits
//! pairs in a different order on every construction. [`PairMap`] is a
//! `HashMap` over a fixed multiply-mix hasher ([`splitmix64`]) instead.
//!
//! A fixed hasher makes a walk repeatable, not meaningful: iteration
//! order still depends on table capacity and insertion history. The
//! walks that *decide* behaviour (which pair delivers first into a
//! nearly full receive queue) therefore go through [`sorted_keys`] —
//! **ascending `(src, dst)` is the arbitration rule**. The scripted
//! network, a measurement substrate of a handful of nodes, keeps a
//! dense `nodes × nodes` table instead, whose index order is that rule.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::id::NodeId;
use crate::rng::splitmix64;

/// A table keyed by `(src, dst)` node pair.
pub(crate) type PairMap<V> = HashMap<(NodeId, NodeId), V, BuildHasherDefault<PairHasher>>;

/// The `(src, dst)` keys of the entries `keep` accepts, in ascending
/// order — the order every behaviour-deciding walk uses.
pub(crate) fn sorted_keys<V>(
    map: &PairMap<V>,
    keep: impl Fn(NodeId, NodeId, &V) -> bool,
) -> Vec<(NodeId, NodeId)> {
    let mut keys: Vec<_> = map.iter().filter(|(k, v)| keep(k.0, k.1, v)).map(|(k, _)| *k).collect();
    keys.sort_unstable();
    keys
}

/// Hasher for machine-word keys: each word is xored into the state and
/// the state put through [`splitmix64`], whose output is well mixed in
/// both the low bits (hashbrown's bucket index) and the top seven (its
/// control byte).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = splitmix64(self.0 ^ u64::from_le_bytes(word));
        }
    }

    // What a `NodeId` feeds: skip the byte-slice detour.
    fn write_usize(&mut self, word: usize) {
        self.0 = splitmix64(self.0 ^ word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(src: usize, dst: usize) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<PairHasher>::default().hash_one((NodeId::new(src), NodeId::new(dst)))
    }

    #[test]
    fn hash_is_fixed_and_order_sensitive() {
        assert_eq!(hash_of(3, 9), hash_of(3, 9));
        assert_ne!(hash_of(3, 9), hash_of(9, 3));
        assert_ne!(hash_of(0, 0), 0);
    }

    #[test]
    fn dense_pairs_spread_over_bucket_and_control_bits() {
        // Every pair of a 64-node machine: 4096 keys must not pile up in
        // either the low 12 bits (bucket index at this size) or the top
        // 7 (control byte) — the two fields hashbrown reads.
        let mut low = std::collections::HashSet::new();
        let mut top = [0u32; 128];
        for s in 0..64 {
            for d in 0..64 {
                let h = hash_of(s, d);
                low.insert(h & 0xFFF);
                top[(h >> 57) as usize] += 1;
            }
        }
        assert!(low.len() > 2400, "low bits collide: {} distinct of 4096", low.len());
        assert!(top.iter().all(|&c| c > 8 && c < 72), "control bytes skewed: {top:?}");
    }

    #[test]
    fn sorted_keys_filters_and_orders() {
        let mut map: PairMap<u32> = PairMap::default();
        for (s, d, v) in [(5, 1, 1), (0, 7, 0), (2, 2, 1), (0, 3, 1)] {
            map.insert((NodeId::new(s), NodeId::new(d)), v);
        }
        let keys: Vec<_> = sorted_keys(&map, |_, _, &v| v == 1)
            .into_iter()
            .map(|(s, d)| (s.index(), d.index()))
            .collect();
        assert_eq!(keys, vec![(0, 3), (2, 2), (5, 1)]);
    }
}
