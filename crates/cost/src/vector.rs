//! Dense cost tensors: counts indexed by `(feature, class)` and by fine
//! category.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::axes::{Class, Feature, Fine};

/// A `(reg, mem, dev)` triple of instruction counts — one cell group of
/// the paper's Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FeatureCost {
    /// Register-based instructions.
    pub reg: u64,
    /// Loads/stores to ordinary memory.
    pub mem: u64,
    /// Loads/stores to memory-mapped devices.
    pub dev: u64,
}

impl FeatureCost {
    /// A zero triple.
    pub const ZERO: FeatureCost = FeatureCost { reg: 0, mem: 0, dev: 0 };

    /// Construct from explicit per-class counts.
    pub const fn new(reg: u64, mem: u64, dev: u64) -> Self {
        FeatureCost { reg, mem, dev }
    }

    /// Total instruction count (`reg + mem + dev`) — the unit-cost model
    /// used in the body of the paper.
    pub const fn total(&self) -> u64 {
        self.reg + self.mem + self.dev
    }

    /// Count for one class.
    pub fn class(&self, class: Class) -> u64 {
        match class {
            Class::Reg => self.reg,
            Class::Mem => self.mem,
            Class::Dev => self.dev,
        }
    }

    /// Mutable count for one class.
    #[inline]
    pub fn class_mut(&mut self, class: Class) -> &mut u64 {
        match class {
            Class::Reg => &mut self.reg,
            Class::Mem => &mut self.mem,
            Class::Dev => &mut self.dev,
        }
    }

    /// Scale every class count by `k` (e.g. per-packet cost × packets).
    pub const fn scaled(&self, k: u64) -> FeatureCost {
        FeatureCost {
            reg: self.reg * k,
            mem: self.mem * k,
            dev: self.dev * k,
        }
    }
}

impl Add for FeatureCost {
    type Output = FeatureCost;
    fn add(self, rhs: FeatureCost) -> FeatureCost {
        FeatureCost {
            reg: self.reg + rhs.reg,
            mem: self.mem + rhs.mem,
            dev: self.dev + rhs.dev,
        }
    }
}

impl AddAssign for FeatureCost {
    fn add_assign(&mut self, rhs: FeatureCost) {
        self.reg += rhs.reg;
        self.mem += rhs.mem;
        self.dev += rhs.dev;
    }
}

impl Sub for FeatureCost {
    type Output = FeatureCost;
    fn sub(self, rhs: FeatureCost) -> FeatureCost {
        FeatureCost {
            reg: self.reg - rhs.reg,
            mem: self.mem - rhs.mem,
            dev: self.dev - rhs.dev,
        }
    }
}

impl fmt::Display for FeatureCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (reg {}, mem {}, dev {})",
            self.total(),
            self.reg,
            self.mem,
            self.dev
        )
    }
}

/// A full cost tensor for one node: counts by `(feature, class)` plus a
/// parallel fine-category histogram.
///
/// All of the paper's tables are projections of this structure:
/// Table 1 is the fine histogram, Table 2 the per-feature totals, Table 3
/// the `(feature, class)` matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostVector {
    by_feature: [FeatureCost; Feature::ALL.len()],
    by_fine: [u64; Fine::ALL.len()],
}

impl CostVector {
    /// An empty vector.
    pub fn new() -> Self {
        CostVector::default()
    }

    /// Record `count` instructions of fine category `fine` and cost class
    /// `class`, attributed to `feature`.
    #[inline]
    pub fn record(&mut self, feature: Feature, fine: Fine, class: Class, count: u64) {
        *self.by_feature[feature.index()].class_mut(class) += count;
        self.by_fine[fine.index()] += count;
    }

    /// The `(reg, mem, dev)` triple attributed to `feature`.
    pub fn feature(&self, feature: Feature) -> FeatureCost {
        self.by_feature[feature.index()]
    }

    /// Total instructions attributed to `feature`.
    pub fn feature_total(&self, feature: Feature) -> u64 {
        self.by_feature[feature.index()].total()
    }

    /// Total instructions of `class` across all features.
    pub fn class_total(&self, class: Class) -> u64 {
        Feature::ALL
            .iter()
            .map(|f| self.by_feature[f.index()].class(class))
            .sum()
    }

    /// Total instructions of fine category `fine`.
    pub fn fine_total(&self, fine: Fine) -> u64 {
        self.by_fine[fine.index()]
    }

    /// Grand total instruction count.
    pub fn total(&self) -> u64 {
        Feature::ALL.iter().map(|f| self.feature_total(*f)).sum()
    }

    /// Total *overhead* instructions (everything not [`Feature::Base`]).
    pub fn overhead_total(&self) -> u64 {
        Feature::ALL
            .iter()
            .filter(|f| f.is_overhead())
            .map(|f| self.feature_total(*f))
            .sum()
    }

    /// Fraction of the total cost that is messaging-layer overhead, in
    /// `[0, 1]`. Returns 0 for an empty vector.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.overhead_total() as f64 / total as f64
        }
    }

    /// The summed `(reg, mem, dev)` triple across all features.
    pub fn class_triple(&self) -> FeatureCost {
        Feature::ALL
            .iter()
            .fold(FeatureCost::ZERO, |acc, f| acc + self.by_feature[f.index()])
    }

    /// Whether no instructions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0 && self.by_fine.iter().all(|&c| c == 0)
    }
}

impl Add for CostVector {
    type Output = CostVector;
    fn add(mut self, rhs: CostVector) -> CostVector {
        self += rhs;
        self
    }
}

impl AddAssign for CostVector {
    fn add_assign(&mut self, rhs: CostVector) {
        for f in Feature::ALL {
            self.by_feature[f.index()] += rhs.by_feature[f.index()];
        }
        for f in Fine::ALL {
            self.by_fine[f.index()] += rhs.by_fine[f.index()];
        }
    }
}

impl Sub for CostVector {
    type Output = CostVector;
    /// Cell-wise difference. Panics on underflow (debug builds), so only
    /// subtract an earlier snapshot of the *same* recorder from a later one.
    fn sub(mut self, rhs: CostVector) -> CostVector {
        for f in Feature::ALL {
            let cell = &mut self.by_feature[f.index()];
            *cell = *cell - rhs.by_feature[f.index()];
        }
        for f in Fine::ALL {
            self.by_fine[f.index()] -= rhs.by_fine[f.index()];
        }
        self
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} ({} base + {} overhead)",
            self.total(),
            self.feature_total(Feature::Base),
            self.overhead_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_cost_arithmetic() {
        let a = FeatureCost::new(1, 2, 3);
        let b = FeatureCost::new(10, 20, 30);
        assert_eq!((a + b).total(), 66);
        assert_eq!((b - a), FeatureCost::new(9, 18, 27));
        assert_eq!(a.scaled(4), FeatureCost::new(4, 8, 12));
        assert_eq!(a.class(Class::Dev), 3);
    }

    #[test]
    fn record_and_project() {
        let mut v = CostVector::new();
        v.record(Feature::Base, Fine::WriteNi, Class::Dev, 2);
        v.record(Feature::Base, Fine::ControlFlow, Class::Reg, 3);
        v.record(Feature::InOrder, Fine::RegOp, Class::Reg, 5);
        v.record(Feature::FaultTol, Fine::MemStore, Class::Mem, 4);

        assert_eq!(v.total(), 14);
        assert_eq!(v.feature_total(Feature::Base), 5);
        assert_eq!(v.overhead_total(), 9);
        assert_eq!(v.class_total(Class::Reg), 8);
        assert_eq!(v.class_total(Class::Mem), 4);
        assert_eq!(v.class_total(Class::Dev), 2);
        assert_eq!(v.fine_total(Fine::WriteNi), 2);
        assert_eq!(v.feature(Feature::FaultTol), FeatureCost::new(0, 4, 0));
        assert!((v.overhead_fraction() - 9.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn vectors_add() {
        let mut a = CostVector::new();
        a.record(Feature::Base, Fine::ReadNi, Class::Dev, 1);
        let mut b = CostVector::new();
        b.record(Feature::Base, Fine::ReadNi, Class::Dev, 2);
        let sum = a + b;
        assert_eq!(sum.fine_total(Fine::ReadNi), 3);
        assert_eq!(sum.class_triple(), FeatureCost::new(0, 0, 3));
    }

    #[test]
    fn vectors_subtract() {
        let mut later = CostVector::new();
        later.record(Feature::Base, Fine::ReadNi, Class::Dev, 5);
        later.record(Feature::FaultTol, Fine::RegOp, Class::Reg, 7);
        let mut earlier = CostVector::new();
        earlier.record(Feature::Base, Fine::ReadNi, Class::Dev, 2);
        let delta = later.clone() - earlier.clone();
        assert_eq!(delta.fine_total(Fine::ReadNi), 3);
        assert_eq!(delta.feature_total(Feature::FaultTol), 7);
        assert_eq!(earlier + delta, later);
    }

    #[test]
    fn empty_vector_behaves() {
        let v = CostVector::new();
        assert!(v.is_empty());
        assert_eq!(v.overhead_fraction(), 0.0);
        assert_eq!(v.total(), 0);
    }
}
