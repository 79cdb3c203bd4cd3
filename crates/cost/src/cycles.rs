//! Weighted cycle models (Appendix A of the paper).
//!
//! The body of the paper uses a unit-cost model (every instruction costs
//! 1). Appendix A notes that the `reg`/`mem`/`dev` classification "enables
//! the messaging overhead to be characterized in terms of cycle counts
//! using a simple weighted cost model", giving as an example a CM-5 model
//! where `reg` and `mem` instructions cost 1 cycle and `dev` instructions
//! cost 5.

use std::fmt;

use crate::analytic::ProtocolCost;
use crate::axes::{Class, Endpoint, Feature};
use crate::vector::FeatureCost;

/// A per-class cycle weighting applied to instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleModel {
    /// Cycles per register instruction.
    pub reg: u64,
    /// Cycles per memory load/store.
    pub mem: u64,
    /// Cycles per device (NI) load/store.
    pub dev: u64,
}

impl CycleModel {
    /// The unit-cost model used in the body of the paper (all weights 1):
    /// cycles equal instruction counts.
    pub const UNIT: CycleModel = CycleModel { reg: 1, mem: 1, dev: 1 };

    /// The example CM-5 model from Appendix A: `reg` and `mem` cost 1
    /// cycle, `dev` costs 5.
    pub const CM5: CycleModel = CycleModel { reg: 1, mem: 1, dev: 5 };

    /// A model for a hypothetical machine with an on-chip NI where device
    /// access is as cheap as a cache hit but memory has grown relatively
    /// more expensive (used by the "improved network interfaces"
    /// discussion in §5: lowering the base cost *raises* the relative
    /// weight of protocol overhead).
    pub const ONCHIP_NI: CycleModel = CycleModel { reg: 1, mem: 2, dev: 1 };

    /// Construct a custom model.
    pub const fn new(reg: u64, mem: u64, dev: u64) -> Self {
        CycleModel { reg, mem, dev }
    }

    /// Weight for one class.
    pub fn weight(&self, class: Class) -> u64 {
        match class {
            Class::Reg => self.reg,
            Class::Mem => self.mem,
            Class::Dev => self.dev,
        }
    }

    /// Cycles for a `(reg, mem, dev)` triple.
    pub fn cycles(&self, cost: FeatureCost) -> u64 {
        cost.reg * self.reg + cost.mem * self.mem + cost.dev * self.dev
    }

    /// Total cycles of a protocol execution, both endpoints.
    pub fn total_cycles(&self, cost: &ProtocolCost) -> u64 {
        self.sum(cost, |_| true)
    }

    /// Cycles attributed to messaging-layer overhead (non-base features).
    pub fn overhead_cycles(&self, cost: &ProtocolCost) -> u64 {
        self.sum(cost, Feature::is_overhead)
    }

    /// Overhead fraction under this weighting, in `[0, 1]`.
    pub fn overhead_fraction(&self, cost: &ProtocolCost) -> f64 {
        let total = self.total_cycles(cost);
        if total == 0 {
            0.0
        } else {
            self.overhead_cycles(cost) as f64 / total as f64
        }
    }

    fn sum(&self, cost: &ProtocolCost, keep: impl Fn(Feature) -> bool) -> u64 {
        let features = Feature::ALL.into_iter().filter(|f| keep(*f));
        features.flat_map(|f| Endpoint::ALL.map(|e| self.cycles(cost.get(e, f)))).sum()
    }
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel::UNIT
    }
}

impl fmt::Display for CycleModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reg={} mem={} dev={}", self.reg, self.mem, self.dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_model_equals_instruction_count() {
        let mut c = ProtocolCost::new();
        c.set(Endpoint::Source, Feature::Base, FeatureCost::new(0, 0, 2));
        c.set(Endpoint::Destination, Feature::InOrder, FeatureCost::new(3, 0, 0));
        assert_eq!(CycleModel::UNIT.total_cycles(&c), c.total());
    }

    #[test]
    fn cm5_model_weights_dev_by_five() {
        let mut c = ProtocolCost::new();
        c.set(Endpoint::Source, Feature::Base, FeatureCost::new(4, 1, 2));
        assert_eq!(CycleModel::CM5.total_cycles(&c), 2 * 5 + 1 + 4);
    }

    #[test]
    fn overhead_fraction_shifts_with_weights() {
        let mut c = ProtocolCost::new();
        // base: dev-heavy; overhead: reg-heavy
        c.set(Endpoint::Source, Feature::Base, FeatureCost::new(0, 0, 10));
        c.set(Endpoint::Destination, Feature::InOrder, FeatureCost::new(10, 0, 0));
        let unit = CycleModel::UNIT.overhead_fraction(&c);
        let cm5 = CycleModel::CM5.overhead_fraction(&c);
        assert!((unit - 0.5).abs() < 1e-12);
        // weighting dev up makes the (dev-heavy) base dominate
        assert!(cm5 < unit);
        assert_eq!(CycleModel::CM5.overhead_cycles(&c), 10);
    }

    #[test]
    fn triple_cycles() {
        let c = FeatureCost::new(3, 2, 1);
        assert_eq!(CycleModel::new(1, 10, 100).cycles(c), 3 + 20 + 100);
        assert_eq!(CycleModel::CM5.weight(Class::Dev), 5);
    }
}
