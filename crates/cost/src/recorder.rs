//! The per-node cost recorder and its shared handle.
//!
//! Every simulated node owns one recorder. Protocol code (in `timego-am`)
//! and the NI model (in `timego-ni`) share a [`CostHandle`] to it; NI
//! register accesses record `dev` instructions as a side effect of doing
//! the real work, memory-buffer accesses record `mem` instructions, and
//! register arithmetic is recorded through explicit annotations calibrated
//! against the paper's measured code paths.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::axes::{Class, Feature, Fine};
use crate::vector::CostVector;

/// Accumulates instruction counts for one node, with a current-feature
/// attribution context.
#[derive(Debug, Clone)]
pub struct CostRecorder {
    vector: CostVector,
    feature: Option<Feature>,
}

impl Default for CostRecorder {
    fn default() -> Self {
        CostRecorder::new()
    }
}

impl CostRecorder {
    /// New recorder attributing to [`Feature::Base`] by default.
    pub fn new() -> Self {
        CostRecorder {
            vector: CostVector::new(),
            feature: None,
        }
    }

    /// The feature currently being attributed ([`Feature::Base`] unless a
    /// scope has been entered).
    #[inline]
    pub fn current_feature(&self) -> Feature {
        self.feature.unwrap_or(Feature::Base)
    }

    /// Set the attribution feature, returning the previous setting so the
    /// caller can restore it (see [`CostHandle::with_feature`] for the
    /// scoped version).
    pub fn set_feature(&mut self, feature: Option<Feature>) -> Option<Feature> {
        std::mem::replace(&mut self.feature, feature)
    }

    /// Record `count` instructions of the given fine category and class
    /// under the current feature.
    #[inline]
    pub fn record(&mut self, fine: Fine, class: Class, count: u64) {
        if count > 0 {
            self.vector.record(self.current_feature(), fine, class, count);
        }
    }

    /// The accumulated costs.
    pub fn vector(&self) -> &CostVector {
        &self.vector
    }

    /// Reset all counts (feature context and enablement are preserved).
    pub fn reset(&mut self) {
        self.vector = CostVector::new();
    }

    /// Take the accumulated costs, leaving the recorder empty.
    pub fn take(&mut self) -> CostVector {
        std::mem::take(&mut self.vector)
    }
}

/// A cheaply clonable, shared handle to a [`CostRecorder`].
///
/// The simulator is single-threaded; the handle is `Rc<RefCell<…>>` based
/// and therefore intentionally not `Send`.
///
/// # Example
///
/// ```
/// use timego_cost::{CostHandle, Feature, Fine};
///
/// let cpu = CostHandle::new();
/// cpu.call(3); // procedure-call overhead, 3 reg instructions
/// cpu.with_feature(Feature::FaultTol, |cpu| cpu.mem_store(2));
/// assert_eq!(cpu.snapshot().total(), 5);
/// ```
#[derive(Clone, Default)]
pub struct CostHandle {
    inner: Rc<RefCell<CostRecorder>>,
}

impl CostHandle {
    /// New handle to a fresh recorder.
    pub fn new() -> Self {
        CostHandle {
            inner: Rc::new(RefCell::new(CostRecorder::new())),
        }
    }

    /// Record `count` register instructions of category `fine`.
    #[inline]
    pub fn reg(&self, fine: Fine, count: u64) {
        self.inner.borrow_mut().record(fine, Class::Reg, count);
    }

    /// Record procedure call/return overhead (`count` reg instructions).
    #[inline]
    pub fn call(&self, count: u64) {
        self.reg(Fine::CallReturn, count);
    }

    /// Record control-flow instructions (branches, loop tests).
    #[inline]
    pub fn ctrl(&self, count: u64) {
        self.reg(Fine::ControlFlow, count);
    }

    /// Record generic register arithmetic.
    #[inline]
    pub fn reg_op(&self, count: u64) {
        self.reg(Fine::RegOp, count);
    }

    /// Record handler-dispatch instructions.
    #[inline]
    pub fn handler(&self, count: u64) {
        self.reg(Fine::Handler, count);
    }

    /// Record `count` loads from ordinary memory.
    #[inline]
    pub fn mem_load(&self, count: u64) {
        self.inner.borrow_mut().record(Fine::MemLoad, Class::Mem, count);
    }

    /// Record `count` stores to ordinary memory.
    #[inline]
    pub fn mem_store(&self, count: u64) {
        self.inner.borrow_mut().record(Fine::MemStore, Class::Mem, count);
    }

    /// Record `count` device (NI) instructions of category `fine`.
    /// Normally called by the NI model, not by protocol code.
    #[inline]
    pub fn dev(&self, fine: Fine, count: u64) {
        self.inner.borrow_mut().record(fine, Class::Dev, count);
    }

    /// Record with full control over all three axes.
    #[inline]
    pub fn record(&self, fine: Fine, class: Class, count: u64) {
        self.inner.borrow_mut().record(fine, class, count);
    }

    /// Run `body` with costs attributed to `feature`, restoring the
    /// previous attribution afterwards (scopes nest).
    pub fn with_feature<T>(&self, feature: Feature, body: impl FnOnce(&CostHandle) -> T) -> T {
        let prev = self.inner.borrow_mut().set_feature(Some(feature));
        let out = body(self);
        self.inner.borrow_mut().set_feature(prev);
        out
    }

    /// The feature currently being attributed.
    pub fn current_feature(&self) -> Feature {
        self.inner.borrow().current_feature()
    }

    /// A copy of the accumulated costs.
    pub fn snapshot(&self) -> CostVector {
        self.inner.borrow().vector().clone()
    }

    /// Reset accumulated costs to zero.
    pub fn reset(&self) {
        self.inner.borrow_mut().reset();
    }

    /// Take the accumulated costs, leaving the recorder empty.
    pub fn take(&self) -> CostVector {
        self.inner.borrow_mut().take()
    }
}

impl fmt::Debug for CostHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CostHandle")
            .field("recorder", &*self.inner.borrow())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::Feature;

    #[test]
    fn records_under_current_feature() {
        let h = CostHandle::new();
        h.reg_op(2); // Base by default
        h.with_feature(Feature::InOrder, |h| {
            h.reg_op(3);
            h.with_feature(Feature::FaultTol, |h| h.mem_store(1));
            h.reg_op(1); // back to InOrder after nested scope
        });
        let v = h.snapshot();
        assert_eq!(v.feature_total(Feature::Base), 2);
        assert_eq!(v.feature_total(Feature::InOrder), 4);
        assert_eq!(v.feature_total(Feature::FaultTol), 1);
    }

    #[test]
    fn clones_share_state() {
        let a = CostHandle::new();
        let b = a.clone();
        a.mem_load(2);
        b.mem_store(3);
        assert_eq!(a.snapshot().total(), 5);
        assert_eq!(b.snapshot().total(), 5);
    }

    #[test]
    fn take_empties_recorder() {
        let h = CostHandle::new();
        h.reg_op(7);
        let v = h.take();
        assert_eq!(v.total(), 7);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn zero_count_records_nothing() {
        let h = CostHandle::new();
        h.reg_op(0);
        assert!(h.snapshot().is_empty());
    }
}
