//! Multi-node communication patterns.
//!
//! Each pattern yields a list of `(src, dst)` pairs describing who talks
//! to whom; the harness decides what each pair sends. These are the
//! classic patterns of the parallel-machine literature the paper's
//! machines ran.

use timego_netsim::{NodeId, SimRng};

/// A communication pattern over `nodes` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every node `i` sends to `i + 1 (mod N)` — neighborly, low
    /// contention.
    Ring,
    /// Node `i` sends to the bit-reversal of `i` (power-of-two node
    /// counts give a perfect permutation; others fall back to a shift).
    BitReverse,
    /// Matrix-transpose permutation for a square node grid.
    Transpose,
    /// Each node sends to one uniformly random peer (a random
    /// permutation, seeded).
    RandomPermutation(u64),
    /// All nodes send to node 0 — the hotspot that exposes finite
    /// buffering.
    Hotspot,
    /// Every ordered pair communicates (all-to-all).
    AllToAll,
}

impl Pattern {
    /// Materialize the pattern for `nodes` nodes. Self-pairs are
    /// omitted.
    pub fn pairs(&self, nodes: usize) -> Vec<(NodeId, NodeId)> {
        let id = NodeId::new;
        match *self {
            Pattern::Ring => (0..nodes)
                .map(|i| (id(i), id((i + 1) % nodes)))
                .filter(|(a, b)| a != b)
                .collect(),
            Pattern::BitReverse => {
                let bits = nodes.next_power_of_two().trailing_zeros();
                (0..nodes)
                    .map(|i| {
                        let mut r = 0usize;
                        for b in 0..bits {
                            if i & (1 << b) != 0 {
                                r |= 1 << (bits - 1 - b);
                            }
                        }
                        (id(i), id(r % nodes))
                    })
                    .filter(|(a, b)| a != b)
                    .collect()
            }
            Pattern::Transpose => {
                let side = (nodes as f64).sqrt() as usize;
                let side = side.max(1);
                (0..nodes)
                    .map(|i| {
                        let (x, y) = (i % side, i / side);
                        let t = if y < side && x < side { x * side + y } else { i };
                        (id(i), id(t % nodes))
                    })
                    .filter(|(a, b)| a != b)
                    .collect()
            }
            Pattern::RandomPermutation(seed) => {
                let mut rng = SimRng::new(seed);
                let mut targets: Vec<usize> = (0..nodes).collect();
                rng.shuffle(&mut targets);
                (0..nodes)
                    .map(|i| (id(i), id(targets[i])))
                    .filter(|(a, b)| a != b)
                    .collect()
            }
            Pattern::Hotspot => (1..nodes).map(|i| (id(i), id(0))).collect(),
            Pattern::AllToAll => {
                let mut v = Vec::with_capacity(nodes * nodes.saturating_sub(1));
                for s in 0..nodes {
                    for d in 0..nodes {
                        if s != d {
                            v.push((id(s), id(d)));
                        }
                    }
                }
                v
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Ring => "ring",
            Pattern::BitReverse => "bit-reverse",
            Pattern::Transpose => "transpose",
            Pattern::RandomPermutation(_) => "random-permutation",
            Pattern::Hotspot => "hotspot",
            Pattern::AllToAll => "all-to-all",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps() {
        let p = Pattern::Ring.pairs(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p[3], (NodeId::new(3), NodeId::new(0)));
    }

    #[test]
    fn bit_reverse_is_a_permutation_on_powers_of_two() {
        let p = Pattern::BitReverse.pairs(16);
        let mut dsts: Vec<usize> = p.iter().map(|(_, d)| d.index()).collect();
        dsts.sort_unstable();
        dsts.dedup();
        // Self-pairs (palindromic indices) are dropped; the rest are
        // distinct.
        assert_eq!(dsts.len(), p.len());
    }

    #[test]
    fn transpose_square() {
        let p = Pattern::Transpose.pairs(16);
        // (x=1,y=0) → index 1 maps to (0,1) → index 4.
        assert!(p.contains(&(NodeId::new(1), NodeId::new(4))));
    }

    #[test]
    fn random_permutation_is_deterministic_per_seed() {
        assert_eq!(
            Pattern::RandomPermutation(7).pairs(32),
            Pattern::RandomPermutation(7).pairs(32)
        );
        assert_ne!(
            Pattern::RandomPermutation(7).pairs(32),
            Pattern::RandomPermutation(8).pairs(32)
        );
    }

    #[test]
    fn hotspot_targets_node_zero() {
        let p = Pattern::Hotspot.pairs(5);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|(_, d)| d.index() == 0));
    }

    #[test]
    fn all_to_all_size() {
        assert_eq!(Pattern::AllToAll.pairs(4).len(), 12);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Pattern::Hotspot.name(), "hotspot");
        assert_eq!(Pattern::RandomPermutation(1).name(), "random-permutation");
    }
}
