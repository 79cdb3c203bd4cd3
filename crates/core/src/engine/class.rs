//! The request-class plane: per-class cost attribution around every
//! `start`, `step` and recovery restart of a tagged op.

use timego_cost::CostVector;
use timego_netsim::NodeId;

use super::{Engine, OpId};
use crate::machine::Machine;

impl Engine {
    /// The accumulated cost attributed to `class` — the Table-1/2/3
    /// projection for one request class. Empty if the class was never
    /// billed.
    #[must_use]
    pub fn class_bill(&self, class: u8) -> CostVector {
        self.class_bills.get(&class).cloned().unwrap_or_default()
    }

    /// Every `(class, bill)` pair accumulated so far, ascending by
    /// class.
    #[must_use]
    pub fn class_bills(&self) -> Vec<(u8, CostVector)> {
        self.class_bills.iter().map(|(&c, v)| (c, v.clone())).collect()
    }

    /// [`Engine::completion_times`] restricted to operations tagged
    /// with `class`.
    #[must_use]
    pub fn completion_times_for_class(&self, class: u8) -> Vec<(OpId, u64)> {
        self.completion_times()
            .into_iter()
            .filter(|(id, _)| self.ops[id.index()].class == Some(class))
            .collect()
    }

    /// Pre-step snapshot for the class plane: if `id` is tagged, the
    /// cost recorders at both endpoints as they stand *before* the
    /// about-to-run `start`/`step`. `None` (the untagged and
    /// class-plane-off cases) makes the post hook free.
    pub(super) fn class_pre(
        &self,
        m: &Machine,
        id: OpId,
        endpoints: (NodeId, NodeId),
    ) -> Option<(u8, CostVector, CostVector)> {
        if !self.class_plane {
            return None;
        }
        let class = self.ops[id.index()].class?;
        Some((class, m.cpu(endpoints.0).snapshot(), m.cpu(endpoints.1).snapshot()))
    }

    /// Post-step accumulation: whatever the endpoints' recorders gained
    /// since `pre` is credited to the op's class. Single-threaded
    /// stepping means the delta is exactly the cost this op caused.
    pub(super) fn class_post(
        &mut self,
        m: &Machine,
        pre: Option<(u8, CostVector, CostVector)>,
        endpoints: (NodeId, NodeId),
    ) {
        let Some((class, before_a, before_b)) = pre else { return };
        let mut delta = m.cpu(endpoints.0).snapshot() - before_a;
        if endpoints.1 != endpoints.0 {
            delta += m.cpu(endpoints.1).snapshot() - before_b;
        }
        if !delta.is_empty() {
            *self.class_bills.entry(class).or_default() += delta;
        }
    }
}
