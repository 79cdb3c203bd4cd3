//! Engine-native recovery: the park / reset / respawn cycle of a failed
//! op, per-class retry budgets, and the receiver-side garbage collection
//! that reclaims what crashed senders leave behind.

use std::collections::HashSet;

use timego_cost::{Feature, Fine};
use timego_netsim::NodeId;

use super::{ActiveOp, Engine, EngineEvent, OpId, OpOutcome, Stage};
use crate::costs::recovery;
use crate::error::ProtocolError;
use crate::machine::Machine;
use crate::op::GcExempt;

/// Token-bucket state of one class's retry budget. Tokens are held in
/// milli-units (1000 = one re-execution) so slow refills stay integer
/// and deterministic.
#[derive(Debug, Clone)]
pub(super) struct RetryBudgetState {
    capacity_milli: u64,
    refill_milli_per_kcycle: u64,
    tokens_milli: u64,
    // Substrate clock of the last *spend* — refills are computed from
    // here on demand, so precision is lost only when tokens move.
    last_spend_at: u64,
    denied: u64,
}

impl RetryBudgetState {
    fn available_milli(&self, now: u64) -> u64 {
        let gained = u64::try_from(
            u128::from(now.saturating_sub(self.last_spend_at))
                * u128::from(self.refill_milli_per_kcycle)
                / 1000,
        )
        .unwrap_or(u64::MAX);
        self.tokens_milli.saturating_add(gained).min(self.capacity_milli)
    }
}

impl Engine {
    /// Arm a *retry budget* for `class`: a token bucket holding at most
    /// `capacity` re-execution tokens, refilled at
    /// `refill_milli_per_kcycle` milli-tokens per thousand substrate
    /// cycles (1000 = one full re-execution per kilocycle). Every
    /// engine-native re-execution of an op tagged with `class` (via
    /// [`Op::class`](crate::Op::class)) spends one token *before*
    /// parking; when the bucket is dry the recovery is **denied** — the
    /// op settles with its retryable error exactly as if its
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) budget were exhausted —
    /// and the denial is counted ([`Engine::retry_budget_denied`]).
    ///
    /// This is the serving plane's cap on *recovery amplification*: a
    /// correlated failure (a crashed server absorbing a whole class's
    /// requests) otherwise multiplies every request into
    /// `max_executions` attempts at the worst possible time. The bucket
    /// starts full. Re-arming a class resets its bucket and counter.
    /// Ops of classes without a budget — and untagged ops — are never
    /// consulted.
    pub fn set_retry_budget(&mut self, class: u8, capacity: u32, refill_milli_per_kcycle: u32) {
        self.retry_budgets.insert(
            class,
            RetryBudgetState {
                capacity_milli: u64::from(capacity) * 1000,
                refill_milli_per_kcycle: u64::from(refill_milli_per_kcycle),
                tokens_milli: u64::from(capacity) * 1000,
                last_spend_at: 0,
                denied: 0,
            },
        );
    }

    /// How many re-executions the retry budget of `class` has denied so
    /// far (0 for classes without a budget).
    #[must_use]
    pub fn retry_budget_denied(&self, class: u8) -> u64 {
        self.retry_budgets.get(&class).map_or(0, |b| b.denied)
    }

    /// Spend one re-execution token from `id`'s class budget, if its
    /// class carries one. Returns `false` — and counts the denial — if
    /// the bucket is dry; the caller then lets the failure settle.
    fn charge_retry_budget(&mut self, m: &Machine, id: OpId) -> bool {
        if self.retry_budgets.is_empty() {
            return true;
        }
        let Some(class) = self.ops[id.index()].class else { return true };
        let Some(b) = self.retry_budgets.get_mut(&class) else { return true };
        let now = m.now();
        let available = b.available_milli(now);
        if available < 1000 {
            b.denied += 1;
            return false;
        }
        b.tokens_milli = available - 1000;
        b.last_spend_at = now;
        true
    }

    /// Nothing is running. If an op is parked, nothing is runnable until
    /// the first backoff window in the `parked` index closes: jump the
    /// clock there and return `true` so the next iteration re-admits it.
    /// Otherwise the engine is drained — `false`.
    pub(super) fn jump_to_parked(&mut self, m: &mut Machine) -> bool {
        if let Some(&(resume_at, _)) = self.parked.first() {
            let now = m.now();
            if resume_at > now {
                m.advance(resume_at - now);
                self.counters.advances += 1;
            }
            return true;
        }
        // Pending ops blocked on keys held by nothing running:
        // impossible, but don't spin.
        assert!(self.pending.is_empty(), "pending operations with no running key holder");
        // A held op always has a live predecessor somewhere in
        // running/pending/parked (release and failure both move it out
        // of `held` when the last one settles), so nothing can be held
        // here; sweep defensively rather than spin if that invariant
        // ever breaks.
        while let Some(id) = self.held.pop_first() {
            self.settle(m, id, Err(ProtocolError::timeout("engine progress", 0)));
        }
        false
    }

    /// An admitted op (running, or parked and expired) ended with
    /// `result`. Engine-native recovery decision: a retryable failure
    /// of a recovery-armed op with budget left *parks* the op — as its
    /// state machine, which `release_recovered` resets — for its backoff
    /// window instead of settling it, billing the session-restart
    /// instruction shape to `Feature::FaultTol` at the op's source —
    /// the same shape (and feature) the caller-side restart loop this
    /// replaces used to bill. Anything else frees the op's conflict key
    /// and settles it.
    pub(super) fn conclude(
        &mut self,
        m: &Machine,
        a: ActiveOp,
        result: Result<OpOutcome, ProtocolError>,
    ) {
        let id = a.id;
        let entry = &self.ops[id.index()];
        let budget_left = entry
            .recovery
            .as_ref()
            .is_some_and(|policy| entry.re_executions + 1 < policy.max_executions);
        // The class retry budget is spent *before* parking: a denial
        // means the failure settles normally (and is counted), capping
        // recovery amplification under correlated failure.
        let retry = result.as_ref().is_err_and(ProtocolError::is_retryable)
            && budget_left
            && self.charge_retry_budget(m, id);
        if !retry {
            if let Some(k) = a.key {
                self.busy.remove(&k);
            }
            return self.settle(m, id, result);
        }
        let entry = &mut self.ops[id.index()];
        entry.re_executions += 1;
        let policy = entry.recovery.as_ref().expect("recovery policy just checked");
        let wait = policy.window(entry.re_executions);
        let src = a.endpoints.0;
        let cpu = m.cpu(src);
        let cls = self.class_pre(m, id, (src, src));
        cpu.with_feature(Feature::FaultTol, |c| {
            c.reg(Fine::RegOp, recovery::SESSION_RESTART_REG);
            c.mem_store(recovery::SESSION_RESTART_MEM);
        });
        self.class_post(m, cls, (src, src));
        self.record(m, EngineEvent::Recovering(id));
        let resume_at = m.now().saturating_add(wait);
        // The parked op keeps its conflict key: queued same-key work
        // must not overtake the re-execution.
        self.ops[id.index()].stage = Stage::Parked { resume_at, op: Box::new(a) };
        self.parked.insert((resume_at, id));
    }

    /// Re-admit parked ops whose backoff window has closed — the due
    /// prefix of the `parked` index, spawned in id order: reset the
    /// retained state machine (a fresh session epoch is allocated in
    /// `start`) and put it straight back on the running set — its
    /// conflict key never left `busy`.
    pub(super) fn release_recovered(&mut self, m: &mut Machine) {
        let now = m.now();
        let mut due: Vec<OpId> =
            self.parked.iter().take_while(|&&(at, _)| at <= now).map(|&(_, id)| id).collect();
        due.sort_unstable();
        for id in due {
            let mut a = self.unpark(id);
            a.op.reset();
            self.spawn(m, a);
        }
    }

    /// Take a parked op out of the ledger row and the `parked` index.
    pub(super) fn unpark(&mut self, id: OpId) -> ActiveOp {
        match std::mem::take(&mut self.ops[id.index()].stage) {
            Stage::Parked { resume_at, op } => {
                self.parked.remove(&(resume_at, id));
                *op
            }
            _ => unreachable!("the parked index names only parked rows"),
        }
    }

    /// Epoch-TTL sweep of receiver-side tables (dead sessions left by
    /// crashed senders, reply-cache entries of long-settled calls).
    /// What an unfinished operation shields is its own to say
    /// ([`OpMachine::gc_exempt`](crate::op::OpMachine::gc_exempt)). The
    /// sweep itself happens in [`Machine::gc_expired`], billed to
    /// `Feature::FaultTol` at each reclaiming receiver.
    pub(super) fn collect_garbage(&mut self, m: &mut Machine) {
        // Fast path: nothing is past its TTL, so the sweep would
        // reclaim (and bill) nothing. The check is conservative —
        // ignoring live-set exemptions — so a `false` is always exact,
        // and O(1): the machine compares the clock with the earliest
        // cycle anything could expire and walks its tables only then.
        if !m.gc_has_expired() {
            return;
        }
        let mut live_sessions: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut live_replies: HashSet<(NodeId, NodeId, u32)> = HashSet::new();
        let admitted = self.running.iter().map(|(_, s)| &self.slots[s].a).chain(&self.pending);
        let parked = self.parked.iter().map(|(_, id)| id);
        let staged =
            self.held.iter().chain(parked).filter_map(|id| match &self.ops[id.index()].stage {
                Stage::Held(h) => Some((&h.op, false)),
                Stage::Parked { op, .. } => Some((&**op, true)),
                _ => None,
            });
        for (a, parked) in admitted.map(|a| (a, false)).chain(staged) {
            match a.op.gc_exempt(parked) {
                Some(GcExempt::Session(receiver, sender)) => {
                    live_sessions.insert((receiver, sender));
                }
                Some(GcExempt::Reply(callee, caller, call_id)) => {
                    live_replies.insert((callee, caller, call_id));
                }
                None => {}
            }
        }
        m.gc_expired(&live_sessions, &live_replies);
    }
}

#[cfg(test)]
mod tests {
    use timego_netsim::{DeliveryScript, RxMeta, ScriptedNetwork};
    use timego_ni::share;

    use super::*;
    use crate::engine::{ConflictKey, OpEntry};
    use crate::machine::CmamConfig;
    use crate::op::{OpMachine, Stepped};
    use crate::retry::{RecoveryPolicy, RetryPolicy};

    /// An op that never has anything to do: every step is `Idle`, no
    /// timer of its own wakes it, and it claims nothing.
    struct Idler;

    impl OpMachine for Idler {
        fn start(&mut self, _: &mut Machine) {}
        fn step(&mut self, _: &mut Machine) -> Result<Stepped, ProtocolError> {
            Ok(Stepped::Idle)
        }
        fn tick_n(&mut self, _: u64) {}
        fn wake_in(&self, _: u64) -> u64 {
            u64::MAX
        }
        fn claims(&self, _: NodeId, _: &RxMeta) -> bool {
            false
        }
        fn endpoints(&self) -> (NodeId, NodeId) {
            (NodeId::new(0), NodeId::new(1))
        }
        fn conflict_key(&self) -> Option<ConflictKey> {
            None
        }
        fn reset(&mut self) {}
    }

    /// Land an [`Idler`] as a released op, recovery-armed with a fixed
    /// `wait`-cycle backoff when one is given.
    fn land_idler(eng: &mut Engine, m: &Machine, wait: Option<u64>) -> OpId {
        let id = OpId(eng.ops.len() as u64);
        let recovery = wait.map(|w| {
            let backoff =
                RetryPolicy { base_wait: w, max_wait: w, jitter: 0, ..RetryPolicy::default() };
            Box::new(RecoveryPolicy { max_executions: 4, backoff })
        });
        eng.ops.push(OpEntry { recovery, ..OpEntry::default() });
        eng.release(m, ActiveOp::new(id, Box::new(Idler)));
        id
    }

    /// Ops 0..=3 felled at cycle 0 and parked until 300, 200, 300 and
    /// 100 — out of id order, two due together — then op 3 cancelled,
    /// leaving the earliest resume stale. With `sleeper`, a fifth op
    /// stays running.
    fn parked_out_of_order(m: &mut Machine, sleeper: bool) -> Engine {
        let mut eng = Engine::new();
        eng.enable_trace();
        let parked = [300, 200, 300, 100].map(|wait| land_idler(&mut eng, m, Some(wait)));
        if sleeper {
            land_idler(&mut eng, m, None);
        }
        eng.admit(m);
        for id in parked {
            let Stage::Running { slot } = eng.ops[id.index()].stage else { panic!("admitted") };
            eng.finish(m, slot, Err(ProtocolError::SessionReset { node: NodeId::new(0) }));
        }
        assert!(eng.cancel(m, parked[3]));
        assert_eq!(eng.parked_count(), 3);
        eng
    }

    fn machine() -> Machine {
        let net = share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
        Machine::new(net, 2, CmamConfig::default())
    }

    /// The ids `Started` at cycle `at`, in trace order.
    fn started_at(eng: &Engine, at: u64) -> Vec<u64> {
        let started = eng.trace().iter().filter(|e| e.at == at);
        started
            .filter_map(|e| match e.event {
                EngineEvent::Started(id) => Some(id.raw()),
                _ => None,
            })
            .collect()
    }

    /// The parked index answers both questions the scheduler asks of
    /// it: the next backoff window to close is its first *live* entry
    /// (a cancelled op's resume does not linger), and everything due
    /// respawns in id order, whatever order the windows close in.
    #[test]
    fn parked_ops_resume_in_id_order_at_the_earliest_live_window() {
        let mut m = machine();
        let mut eng = parked_out_of_order(&mut m, false);
        assert!(eng.jump_to_parked(&mut m));
        assert_eq!(m.now(), 200, "the cancelled op's stale resume at 100 is gone");
        m.advance(100);
        eng.release_recovered(&mut m);
        assert_eq!(started_at(&eng, 300), [0, 1, 2], "due at 200, 300 and 300: respawned by id");
        assert_eq!(eng.parked_count(), 0);

        // With an op running and asleep, each quantum jumps to the next
        // live resume: 200, then 300 — never the cancelled op's 100.
        let mut m = machine();
        let mut eng = parked_out_of_order(&mut m, true);
        let ends: Vec<u64> = (0..2)
            .map(|_| {
                eng.pump_until(&mut m, u64::MAX);
                m.now()
            })
            .collect();
        assert_eq!(ends, [200, 300]);
        assert_eq!(started_at(&eng, 200), [1]);
    }
}
