//! Supervision: deadlines, the no-progress watchdog, cancellation and
//! graceful shutdown.

use std::cmp::Reverse;

use super::{Engine, EngineEvent, OpEntry, OpId, Stage, Timer};
use crate::error::ProtocolError;
use crate::machine::Machine;

impl Engine {
    /// Override the per-operation no-progress watchdog bound (cycles an
    /// admitted operation may go without a `Progressed` event before the
    /// engine settles it with [`ProtocolError::DeadlineExceeded`]). The
    /// default, `4 × max_wait_cycles`, is deliberately looser than every
    /// protocol's own internal timeout so op-level errors fire first.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog = Some(cycles);
        // Arm fresh timers under the new bound: a shrunken bound must
        // not wait out timers armed under the old one.
        for (inc, slot) in self.running.iter() {
            let last = self.slots[slot].a.last_progress_at;
            let due = last.saturating_add(cycles).saturating_add(1);
            self.timers.push(Reverse((due, Timer::Watchdog { slot, inc })));
        }
    }

    /// The no-progress watchdog bound in cycles (see
    /// [`Engine::set_watchdog`]).
    pub(super) fn watchdog_bound(&self, m: &Machine) -> u64 {
        self.watchdog.unwrap_or(4 * m.config().max_wait_cycles)
    }

    /// Cancel an unfinished operation wherever it is (running, pending,
    /// held, or parked between recovery executions): it settles with
    /// [`ProtocolError::Cancelled`], its conflict key is released, and
    /// dependents fail with [`ProtocolError::DependencyFailed`] whose
    /// root is the cancellation. Returns `false` if the id was already
    /// finished (or never submitted). In-flight packets of a cancelled
    /// operation are left to the orphan-discard sweep.
    pub fn cancel(&mut self, m: &Machine, id: OpId) -> bool {
        self.expire(m, id, ProtocolError::Cancelled)
    }

    /// Settle one unfinished op with `err`, wherever it currently is —
    /// the ledger says where. Cancellations record the uniform
    /// [`EngineEvent::Cancelled`] trace event first. `false` for an op
    /// already settled or an id this engine never issued.
    fn expire(&mut self, m: &Machine, id: OpId, err: ProtocolError) -> bool {
        if self.ops.get(id.index()).is_none_or(OpEntry::done) {
            return false;
        }
        self.deadlines.remove(&id);
        if matches!(err, ProtocolError::Cancelled) {
            self.record(m, EngineEvent::Cancelled(id));
        }
        match self.ops[id.index()].stage {
            Stage::Running { slot } => self.finish(m, slot, Err(err)),
            Stage::Pending => {
                self.pending.retain(|op| op.id != id);
                self.settle(m, id, Err(err));
            }
            Stage::Held(_) => {
                self.held.remove(&id);
                self.settle(m, id, Err(err));
            }
            Stage::Parked { .. } => {
                // A retryable expiry (a deadline firing mid-backoff)
                // consumes recovery budget and re-parks; anything else —
                // cancellation included — releases the conflict key the
                // parked op was holding and settles it.
                let a = self.unpark(id);
                self.conclude(m, a, Err(err));
            }
            Stage::Done => unreachable!("settled ops returned above"),
        }
        true
    }

    /// The supervision candidates fired since the last call: deadlines
    /// by `OpId`, watchdogs in run order. Timers fire in due order,
    /// so both are sorted — run order is `inc` order.
    pub(super) fn take_fired(&mut self) -> (Vec<OpId>, Vec<(u32, u64)>) {
        let mut deadlines = std::mem::take(&mut self.fired_deadlines);
        deadlines.sort_unstable();
        let mut watchdogs = std::mem::take(&mut self.fired_watchdogs);
        watchdogs.sort_unstable_by_key(|&(_, inc)| inc);
        (deadlines, watchdogs)
    }

    /// Enforce deadlines and the no-progress watchdog over the
    /// candidates given — `deadlines` ascending by `OpId`, then
    /// `watchdogs` as `(slot, inc)` in run order. Returns `true` if any
    /// operation was settled (the pump loop restarts its sweep so
    /// released conflict keys are re-admitted in the same quantum).
    ///
    /// Timers are never cancelled, so each candidate is
    /// validated against current state: a settled op's deadline is
    /// dropped, and the watchdog of an op that progressed since it was
    /// armed is re-armed at its pushed-out expiry.
    pub(super) fn supervise(
        &mut self,
        m: &Machine,
        deadlines: Vec<OpId>,
        watchdogs: Vec<(u32, u64)>,
    ) -> bool {
        if deadlines.is_empty() && watchdogs.is_empty() {
            return false;
        }
        let now = m.now();
        let mut acted = false;
        for id in deadlines {
            let entry = &self.ops[id.index()];
            let (true, Some(budget)) = (self.deadlines.contains(&id), entry.deadline) else {
                continue;
            };
            if now >= entry.submitted_at.saturating_add(budget) {
                let err = ProtocolError::DeadlineExceeded { what: "deadline", cycles: budget };
                acted |= self.expire(m, id, err);
            }
        }
        let bound = self.watchdog_bound(m);
        for (slot, inc) in watchdogs {
            // Slots are reused: the incarnation tells whether this is
            // still the op the entry was armed for.
            let Some(s) = self.slots.get(slot).filter(|s| s.inc == inc) else { continue };
            let (id, last) = (s.a.id, s.a.last_progress_at);
            if now.saturating_sub(last) > bound {
                let err = ProtocolError::DeadlineExceeded { what: "watchdog", cycles: now - last };
                acted |= self.expire(m, id, err);
            } else {
                let due = last.saturating_add(bound).saturating_add(1);
                self.timers.push(Reverse((due, Timer::Watchdog { slot, inc })));
            }
        }
        acted
    }

    /// Graceful shutdown: cancel everything still waiting (pending,
    /// dependency-held, and parked between recovery executions), drive
    /// the already-running operations to completion, then drain
    /// orphaned in-flight packets until the network is empty. Every
    /// cancellation records the uniform [`EngineEvent::Cancelled`]
    /// trace event before settling with [`ProtocolError::Cancelled`].
    /// Returns the number of stray packets discarded during the drain.
    pub fn quiesce(&mut self, m: &mut Machine) -> usize {
        let mut parked: Vec<OpId> = self.parked.iter().map(|&(_, id)| id).collect();
        parked.sort_unstable();
        let waiting: Vec<OpId> = self
            .pending
            .iter()
            .map(|op| op.id)
            .chain(self.held.iter().copied())
            .chain(parked)
            .collect();
        for id in waiting {
            self.cancel(m, id);
        }
        self.run(m);
        let mut drained = 0;
        let mut guard = 0;
        loop {
            // The pump's own orphan sweep, fed the way the pump feeds
            // it: every delivery since the last look marks its node.
            self.absorb_deliveries(m);
            while self.discard_orphan(m) {
                drained += 1;
            }
            if m.network().borrow().in_flight() == 0 || guard > m.config().max_wait_cycles {
                break;
            }
            m.advance(1);
            guard += 1;
        }
        drained
    }
}
