//! Event-driven protocol engine: concurrent per-node protocol state
//! machines replacing the world-driving blocking loops.
//!
//! Each in-flight operation (finite transfer, reliable transfer, stream
//! send, RPC, active message) is a state machine whose `step` performs
//! exactly one iteration of the corresponding blocking driver loop —
//! minus the `advance(1)` the blocking loop used to pass time. The
//! machines live with their families (`xfer`, `xfer_reliable`, `stream`,
//! `rpc`, `am`) behind one private trait, `OpMachine`; `op.rs` states
//! its contract and holds the one piece of family-aware code, the [`Op`]
//! descriptions with their validation and the body → machine
//! constructor. This module is the op ledger, submission, the
//! pump and settlement; over the same ledger, `wake` decides whom a
//! touch wakes and sweeps orphans, `supervise` enforces deadlines and
//! the watchdog, `recovery` parks and re-executes failed ops, and
//! `class` attributes cost per request class. The
//! [`Engine`] owns the clock and schedules by *readiness*: an operation
//! whose step finds nothing to do sleeps until a packet it can consume
//! reaches the head of one of its endpoints' queues (running operations
//! are indexed by `(endpoint, peer)`, and a touch at a node wakes the
//! sleepers its head's `claims` names — not everyone with an endpoint
//! there), an endpoint crash-restarts, or its own timer (retry window,
//! timeout, RTO) comes due on the timer queue; a pass visits only the
//! operations that are awake, upward through the run set's ready bits
//! (running operations are bits over their incarnation numbers, so
//! starting, waking, sleeping and ending an op each flip a bit and
//! nothing is kept sorted). When a pass makes no
//! progress, time passes — to the *next event*, not the next cycle: the
//! first of the next timer, the next parked op's resume, the next
//! scripted crash-restart, the
//! cycle the substrate says its receive queues stay quiet until
//! ([`Network::quiet_until`](timego_netsim::Network::quiet_until) —
//! packets on the wire are time no software runs in) and the caller's
//! own next event ([`Engine::pump_until`]) — and a sleeper receives the
//! timer ticks it slept
//! through at once when it wakes (this is what drives retry deadlines
//! from [`RetryPolicy`](crate::RetryPolicy) and stream retransmission
//! timeouts). The scheduler this replaced — step everything, advance
//! one cycle, tick everyone — survives only as a test oracle (the
//! `oracle` submodule, compiled for tests), which this one is pinned
//! trace- and bill-identical to.
//!
//! Because a single-operation engine run performs the same instruction
//! sequence as the old blocking loop, the one blocking entry point,
//! [`Machine::run`] (and [`Machine::xfer`] and [`Machine::stream_send`],
//! one-line calls of it), runs an op to completion on a fresh engine
//! and stays cost-identical per feature — the paper's tables regenerate
//! exactly.
//!
//! ## Op ledger: one home per piece of state
//!
//! Everything per-operation that outlives a run slot lives in one row
//! of the ledger (`Engine::ops`, indexed by [`OpId::raw`]): the
//! lifecycle stage — and with it the held state machine, or the parked
//! one and its resume cycle — the modifiers landed at submission (class,
//! deadline budget, recovery policy and re-execution count), the run-after
//! dependents, the outcome and flattened root error, and the
//! `Submitted` / `Released` stamps. Admitted and queued state machines
//! belong to the container the stage names (a run slot, `pending`);
//! three ordered sets only index rows — `held` and armed `deadlines` by
//! id, `parked` by `(resume cycle, id)` — and the completion log owns
//! completion order and `Completed` stamps. The trace is opt-in output:
//! every event bumps [`SchedCounters::events`] and stamps the cycle the
//! ledger stores, but only an engine that called [`Engine::enable_trace`]
//! keeps the events; the engine never reads them back.
//!
//! ## The substrate may be parallel; the engine stays sequential
//!
//! The engine is single-threaded by design: one thread owns the
//! machine, steps operations, and calls `advance` on the shared
//! substrate handle. That remains true when the substrate is the
//! parallel sharded network
//! ([`ShardedNetwork`](timego_netsim::ShardedNetwork)) — the network
//! steps its shards on an internal worker pool *inside* `advance`,
//! then presents merged wakes in ascending node-id order and reduced
//! statistics, so from here it is indistinguishable from a
//! single-threaded substrate. Nothing in the pump changes: injections
//! happen between advances (which is exactly the property the sharded
//! substrate's determinism argument rests on), `take_delivered` feeds
//! [`absorb_wakes`](Engine) the same byte-identical sequence at every
//! worker-thread count, and clock-jumps hand the substrate one
//! big `advance(n)` — which the sharded network turns into a single
//! parallel dispatch rather than `n` sequential ones.
//!
//! ## Concurrency model
//!
//! Operations are admitted in submission order. Two operations conflict
//! when they would consume each other's packets: finite transfers
//! (plain or reliable) between the same ordered `(src, dst)` pair, and
//! stream sends between the same ordered pair. Conflicting operations
//! are serialized; everything else interleaves freely. RPCs never
//! conflict — replies are correlated by call id, so any number of
//! concurrent calls (even between the same pair) sort themselves out.
//!
//! Packet consumption is *gated*: an operation only issues the receive
//! sequence when a cost-free NI peek ([`RxMeta`](timego_netsim::RxMeta)) shows that the
//! packet at the head of its node's queue belongs to it. Reserved-tag
//! packets claimed by no active operation (stale duplicates of
//! completed operations) are discarded by the engine with the same
//! instruction shape the blocking recovery paths charged for stray
//! discards.
//!
//! ## One submission path
//!
//! An operation is described as data — an [`Op`]: one family
//! constructor ([`Op::xfer`], [`Op::xfer_reliable`],
//! [`Op::stream_send`], [`Op::rpc`], [`Op::am4`]) plus orthogonal
//! modifiers ([`Op::after`], [`Op::recovering`], [`Op::deadline`],
//! [`Op::class`]) — and handed to [`Engine::submit`], which validates
//! everything before touching any state (a rejected submission consumes
//! no id, call id or trace event), then builds the state machine and
//! lands it, the id and every modifier together with the `Submitted`
//! event. The description ends there: from submission on the state
//! machine is the operation's only representation. A new family is one
//! module and one constructor; a new option is one modifier.
//! [`Engine::submit_xfer`] is shorthand for the commonest case.
//!
//! ## Recovery: the machine is its own re-execution recipe
//!
//! [`Op::recovering`] lands a [`RecoveryPolicy`] in the op's ledger row.
//! When a running op fails with a retryable error and the policy (and
//! its class's retry budget) has executions left, the engine does not
//! settle it: it bills the session-restart shape to `Feature::FaultTol`
//! at the op's source, records [`EngineEvent::Recovering`], and *parks
//! the failed machine itself* in the row for the backoff window, its
//! conflict key still busy. When the window closes the machine is
//! `reset` — `Self::new` over the arguments it was built with, so a
//! re-execution is the first execution again by construction — and
//! spawned back onto the running set; `start` opens a fresh session
//! epoch. What exactly-once needs across executions survives the reset
//! inside the machine: the stream's resume base (learned from the first
//! failed run), the RPC call id, the am4 delivery token. Nothing is
//! cloned, at submission or per re-execution, and an expiry that finds
//! the op parked (a deadline firing mid-backoff) re-parks the same
//! machine.
//!
//! ## Run-after dependencies
//!
//! [`Op::after`] names predecessors. A dependent operation stays
//! **held** — submitted but not admissible — until every predecessor
//! completes successfully; the moment the last one does, the scheduler
//! records
//! [`EngineEvent::Released`] and the operation joins the ordinary
//! admission queue (conflict-key FIFO applies from that point, not
//! before: a held operation does not occupy its conflict key). If a
//! predecessor fails, the dependent fails immediately with
//! [`ProtocolError::DependencyFailed`] naming that predecessor, and the
//! failure cascades through every transitive dependent. Dependencies
//! must name already-submitted operations — `OpId`s are handed out at
//! submission, so a forward edge (and therefore a cycle) is rejected at
//! submission time.
//!
//! ## Supervision: deadlines, watchdog, cancellation
//!
//! Liveness is enforced per operation, not globally. Every operation
//! can carry a *deadline* ([`Op::deadline`], anchored at the
//! submission cycle): when the substrate clock passes it, the
//! operation — running, pending, or held — is settled with the
//! retryable [`ProtocolError::DeadlineExceeded`], freeing its conflict
//! key so queued work proceeds. Independently, a
//! *watchdog* (default bound 4 × `max_wait_cycles`, override with
//! [`Engine::set_watchdog`]) settles any individual running operation
//! that has gone that many cycles without making progress — the
//! protocol state machines' own retry timeouts fire first in any sane
//! configuration, so the watchdog only catches operations wedged
//! outside their own envelope. [`Engine::cancel`] settles one
//! operation with [`ProtocolError::Cancelled`] (cascading
//! `DependencyFailed` to its dependents), and [`Engine::quiesce`]
//! drains the whole engine gracefully: not-yet-started work is
//! cancelled, admitted work runs to completion, and residual fabric
//! state is swept.
//!
//! ## Session epochs
//!
//! Reliable transfers stamp every handshake and control packet with a
//! per-ordered-pair monotonic *session epoch* (allocated at admission
//! from [`Machine::next_session_epoch`]). The data-packet nonce is
//! derived from the epoch, and both endpoints discard — under
//! `Feature::FaultTol`, with the stray-discard instruction shape — any
//! packet carrying a stale epoch. This closes the duplicate-poisoning
//! hole: a jitter-delayed duplicate of an *earlier* same-pair
//! handshake can no longer be mistaken for the current session's
//! traffic. Epoch stamps ride in header words the protocol already
//! paid to send, so a clean run bills exactly what the unstamped
//! protocol billed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashSet, VecDeque};
use std::time::Instant;

use timego_cost::CostVector;
use timego_netsim::{LatencyStats, NodeId};

use crate::error::ProtocolError;
use crate::machine::Machine;
use crate::op::{KeyClass, Op, OpBody, OpMachine, Stepped};
use crate::retry::RecoveryPolicy;
use crate::sched::{Bitmap, RunSet, SchedCounters, SchedPhase, SchedProfiler, Slab};
use crate::stream::StreamOutcome;
use crate::xfer::XferOutcome;
use crate::xfer_reliable::ReliableOutcome;

mod class;
#[cfg(test)]
mod oracle;
mod recovery;
mod supervise;
mod wake;

use recovery::RetryBudgetState;
use wake::Touch;

/// Identifies one submitted operation within an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

impl OpId {
    /// The raw id (monotonically increasing in submission order).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Mint an id from a raw value (crate-internal test helper).
    #[cfg(test)]
    pub(crate) fn from_raw(raw: u64) -> Self {
        OpId(raw)
    }

    /// Position in the op ledger. An id another engine minted may lie
    /// past its end, so public entry points `get` it, never index.
    fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

/// What a completed operation produced, whatever its family.
/// [`Machine::run`] hands back the op's own family's part of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A finite-sequence transfer completed.
    Xfer(XferOutcome),
    /// A segment-reuse batch completed: one outcome per message, in
    /// order. Only [`Machine::xfer_batch`] runs one: a batch has no
    /// public [`Op`] form.
    XferBatch(Vec<XferOutcome>),
    /// A fault-tolerant finite-sequence transfer completed.
    Reliable(ReliableOutcome),
    /// A stream send completed.
    Stream(StreamOutcome),
    /// An RPC completed with these reply words.
    Rpc([u32; 4]),
    /// A single four-word active message was delivered. The words are
    /// what the destination actually read off its NI (zeroed when a
    /// registered handler consumed the message instead of handing it
    /// back).
    Am4([u32; 4]),
}

/// Scheduler trace events, in order. Tests use the interleaving of
/// `Progressed` events to prove operations ran concurrently rather than
/// back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The operation was accepted into the engine.
    Submitted(OpId),
    /// Every run-after predecessor of the operation completed
    /// successfully: the operation became admissible and joined the
    /// admission queue. Operations submitted with no outstanding
    /// dependencies are released immediately after submission.
    Released(OpId),
    /// The operation was admitted (its conflict key was free) and
    /// started executing.
    Started(OpId),
    /// The operation's step made protocol progress (sent, received, or
    /// transitioned).
    Progressed(OpId),
    /// The operation finished; `true` means it produced an outcome,
    /// `false` an error.
    Completed(OpId, bool),
    /// The operation settled with a retryable error but carries a
    /// [`RecoveryPolicy`] with budget left: instead of completing, the
    /// engine parked it for the backoff window and will re-execute it
    /// under the same `OpId` with a fresh session epoch. Run-after
    /// dependents stay held across re-executions and release only when
    /// the operation finally completes successfully.
    Recovering(OpId),
    /// The operation was cancelled ([`Engine::cancel`] or
    /// [`Engine::quiesce`]) — recorded uniformly whether the operation
    /// was running, pending, dependency-held, or parked for recovery,
    /// immediately before the `Completed(id, false)` it settles with.
    Cancelled(OpId),
}

/// One scheduler trace entry: an [`EngineEvent`] stamped with the
/// substrate clock (network cycles) at the moment it was recorded.
///
/// The stamps turn the trace into a measurement instrument: the
/// distance from an operation's `Submitted` stamp to its `Completed`
/// stamp is its *completion time* — queueing delay included — which is
/// what an open-loop offered-load study needs (see
/// [`Engine::completion_times`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Substrate clock when the event was recorded, in network cycles.
    pub at: u64,
    /// The scheduler event itself.
    pub event: EngineEvent,
}

/// Conflict key: operations with equal keys are serialized.
type ConflictKey = (KeyClass, NodeId, NodeId);

/// One submitted operation: its state machine — the operation's only
/// representation from submission on, parked between recovery
/// executions included — plus what the scheduler reads every pass.
struct ActiveOp {
    id: OpId,
    op: Box<dyn OpMachine>,
    /// `op.conflict_key()`, read once (admission compares keys across
    /// the whole pending queue).
    key: Option<ConflictKey>,
    /// `op.endpoints()`, read once — what the event scheduler indexes
    /// the op under, and where the class plane looks for its cost.
    endpoints: (NodeId, NodeId),
    /// Substrate clock at admission / last step that made progress —
    /// what the no-progress watchdog measures against.
    last_progress_at: u64,
}

impl ActiveOp {
    fn new(id: OpId, op: Box<dyn OpMachine>) -> Self {
        ActiveOp { id, key: op.conflict_key(), endpoints: op.endpoints(), op, last_progress_at: 0 }
    }
}

/// A submitted operation still waiting on run-after predecessors.
struct HeldOp {
    op: ActiveOp,
    waiting_on: HashSet<OpId>,
}

/// Where an operation is in its life. An unfinished one sits in exactly
/// one scheduler container, and the tag names it: "where is op N?" is
/// one read, not a probe of every container.
#[derive(Default)]
enum Stage {
    /// Waiting on run-after predecessors, indexed by `Engine::held`.
    /// Its state machine waits here; it occupies no conflict key.
    Held(Box<HeldOp>),
    /// Released, in the `Engine::pending` admission queue.
    #[default]
    Pending,
    /// Admitted, in run slot `slot` (`Engine::slots`), entered in
    /// `Engine::running` under the slot's incarnation.
    Running { slot: u32 },
    /// Between recovery executions, indexed by `Engine::parked` under
    /// `(resume_at, id)`: the
    /// failed state machine waits here for its `reset`, the conflict
    /// key stays busy, and the backoff window closes at substrate cycle
    /// `resume_at`.
    Parked { resume_at: u64, op: Box<ActiveOp> },
    /// Settled; verdict and `Completed` stamp are in
    /// `Engine::completions`, a failure's cause in `root_error`.
    Done,
}

/// One row of the op ledger (`Engine::ops`, indexed by [`OpId::raw`]):
/// everything per-op that outlives a run slot, written where the work
/// happens and read back directly — never reconstructed from the trace.
#[derive(Default)]
struct OpEntry {
    stage: Stage,
    /// Landed by [`Op::class`].
    class: Option<u8>,
    /// Landed by [`Op::deadline`]: the budget, in cycles from
    /// `submitted_at`. Armed while the id is in `Engine::deadlines`.
    deadline: Option<u64>,
    /// Landed by [`Op::recovering`]. Dropped at settlement, while
    /// `re_executions` stays answerable.
    recovery: Option<Box<RecoveryPolicy>>,
    re_executions: u32,
    /// Held operations naming this one as a run-after predecessor.
    dependents: Vec<OpId>,
    /// The result, until [`Engine::take_outcome`] collects it.
    outcome: Option<Box<Result<OpOutcome, ProtocolError>>>,
    /// Flattened root cause of a failure. Kept (unlike `outcome`) so
    /// dependents submitted later can carry it.
    root_error: Option<Box<ProtocolError>>,
    /// Stamps of the `Submitted` and `Released` trace events (`None`
    /// while held, and for ops failed before release).
    submitted_at: u64,
    released_at: Option<u64>,
}

impl OpEntry {
    fn done(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }
}

/// One admitted operation's scheduler slot in the run arena. Whether
/// it is ready to be stepped is its ready bit in `Engine::running`,
/// cleared when a step returns `Idle` (the op goes to sleep on its wake
/// conditions) and set again by a touch that concerns it or its timer.
struct RunSlot {
    a: ActiveOp,
    /// Incarnation number, unique across the engine's lifetime and
    /// handed out in increasing order: the op's key in
    /// `Engine::running`. Slab slots are reused, so timers validate
    /// `(slot, inc)` before acting.
    inc: u64,
    /// The engine's tick epoch when the op last went to sleep — the
    /// lazy-tick anchor: on wake it receives `tick_epoch - slept_epoch`
    /// timer ticks at once. Ticks are counted in the *engine-advance*
    /// domain, not raw substrate cycles: the reference scheduler ticks
    /// ops once per engine-driven idle `advance`, while cycles burned
    /// *inside* an op's step (blocking NI waits) tick nobody.
    slept_epoch: u64,
    /// Bumped on every wake so a stale timer wake for an earlier sleep
    /// of the same slot is recognized and ignored.
    sleep_gen: u64,
}

/// What one timer expiry means to the scheduler. Every variant is
/// validated against current engine state when it fires — timers are
/// never eagerly cancelled, they just go stale. The derived order only
/// breaks ties between timers due on the same cycle, and nothing depends
/// on it: wakes are order-free, and `take_fired` sorts the rest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// Wake a sleeping op: the earliest future cycle at which its next
    /// step could be anything but a cost-free `Idle` (retry window,
    /// timeout threshold, RTO, or plain backpressure re-poll).
    Wake { slot: u32, inc: u64, gen: u64 },
    /// A deadline ([`Op::deadline`]) is due.
    Deadline { id: OpId },
    /// A running op's no-progress watchdog may have expired.
    Watchdog { slot: u32, inc: u64 },
}

/// The protocol engine: a scheduler interleaving NI polls, timer
/// expiries, and injections across every submitted operation.
///
/// Describe operations as [`Op`]s and hand them to [`Engine::submit`],
/// drive them to completion with [`Engine::run`], and collect `OpId`-keyed results
/// with [`Engine::take_outcome`]. [`Engine::default`] is [`Engine::new`].
#[derive(Default)]
pub struct Engine {
    // The op ledger (see the module docs): one row per submitted op,
    // indexed by `OpId::raw()` — ids are dense, the next is `ops.len()`.
    ops: Vec<OpEntry>,
    // The completion log: `(id, ok, Completed stamp)` per settled op, in
    // completion order. `completions_since` cursors index into it.
    completions: Vec<(OpId, bool, u64)>,
    pending: VecDeque<ActiveOp>,
    // Running ops live in a slot-stable arena, and `running` indexes
    // them by incarnation: a live bit per running op and a ready bit per
    // awake one. `inc` grows with every spawn, so ascending `inc` is
    // admission order — the order a pass visits ready ops in, and the
    // reference steps every op in.
    slots: Slab<RunSlot>,
    running: RunSet,
    next_inc: u64,
    // The timer queue: op wakes, deadlines and watchdogs, earliest due
    // on top.
    timers: BinaryHeap<Reverse<(u64, Timer)>>,
    // Timers fired by `absorb_wakes`, pending validation in
    // `supervise`. Watchdog tuples are `(slot, inc)`.
    fired_deadlines: Vec<OpId>,
    fired_watchdogs: Vec<(u32, u64)>,
    // Running ops by `(endpoint node, peer node)`: `by_pair[node]` holds
    // `(peer, slot)` for every running op with an endpoint at `node`,
    // sorted, so the ops a queue head from `peer` can concern are one
    // binary search away. Each op is in it twice (once per endpoint),
    // from `spawn` to `finish`, asleep or awake.
    by_pair: Vec<Vec<(NodeId, u32)>>,
    // Per node, how many of `by_pair[node]`'s ops are asleep. Zero makes
    // a touch free: nothing to wake, so no look at the substrate.
    sleepers: Vec<u32>,
    // Nodes whose rx queue saw activity since the orphan sweep last
    // proved their head clean, a bit per node index (grown on demand).
    // Invariant: any node whose queue head is a discardable unclaimed
    // packet has its bit set, so taking the lowest set bit finds the
    // same node a full 0..N scan would.
    orphan_dirty: Bitmap,
    // Engine-advance time: total cycles advanced by the *scheduler's
    // own* idle advances (each of which ticks every op once per cycle in
    // the reference). Cycles burned inside an op's step — blocking NI
    // waits advance the substrate clock mid-pass — tick nobody, so the
    // lazy-tick accounting anchors here rather than on the raw clock.
    tick_epoch: u64,
    counters: SchedCounters,
    profiler: Option<SchedProfiler>,
    busy: HashSet<ConflictKey>,
    // Ordered indices over the ledger; the state itself is in the row.
    // `held` and `deadlines` serve loops that visit "every op in this
    // state, ascending by id" (a deadline is disarmed when it fires or
    // its op settles); `parked` is keyed by resume cycle first, so the
    // next backoff window to close is its first entry.
    held: BTreeSet<OpId>,
    parked: BTreeSet<(u64, OpId)>,
    deadlines: BTreeSet<OpId>,
    // No-progress watchdog bound in cycles; `None` derives
    // 4 × max_wait_cycles from the machine config at enforcement time.
    watchdog: Option<u64>,
    // Append-only output, lent out through `trace()`; never read back.
    // `None` until `enable_trace`.
    trace: Option<Vec<TracedEvent>>,
    // Request-class plane (see `Op::class`): whether any op was ever
    // tagged, and the accumulated per-class cost split. Every hot-path
    // hook is gated on the flag — untagged workloads pay nothing.
    class_plane: bool,
    class_bills: BTreeMap<u8, CostVector>,
    // Per-class retry budgets (see `set_retry_budget`): a token bucket
    // consulted before every engine-native re-execution of a tagged
    // op. Empty unless a caller arms one — ops of unbudgeted classes
    // (and untagged ops) recover exactly as before.
    retry_budgets: BTreeMap<u8, RetryBudgetState>,
}

impl Engine {
    /// An empty engine.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// Always-on scheduler counters (step invocations, quanta, wakes,
    /// idle jumps). The bench harness' acceptance metric.
    #[must_use]
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// Attach a self-profiler; each pump quantum then adds per-phase
    /// wall times to its running totals (see [`SchedPhase`]). Off by
    /// default — profiling costs two `Instant` reads per phase per
    /// quantum. `capacity` is ignored: the totals take every sample, so
    /// there is nothing to size.
    pub fn enable_profiling(&mut self, _capacity: usize) {
        self.profiler = Some(SchedProfiler::default());
    }

    /// The attached profiler, if [`Engine::enable_profiling`] was
    /// called. Read its totals between runs.
    pub fn profiler_mut(&mut self) -> Option<&mut SchedProfiler> {
        self.profiler.as_mut()
    }

    /// Keep the scheduler trace from here on (see [`Engine::trace`]).
    /// Off by default — the trace grows by an event per state
    /// transition, and outside tests only its length is wanted, which
    /// [`SchedCounters::events`] counts either way. Call it before
    /// submitting: earlier events are not kept.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// Count `event`, stamp it with the substrate clock, append it to the
    /// trace if one is kept, and hand the stamp back: the ledger writes
    /// the same value into the op's row, so the row and the trace agree
    /// by construction.
    fn record(&mut self, m: &Machine, event: EngineEvent) -> u64 {
        let at = m.now();
        self.counters.events += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TracedEvent { at, event });
        }
        at
    }

    /// Submit one operation: validate everything, allocate its id (and
    /// the RPC call id / am4 delivery token), build its state machine,
    /// and land class, recovery policy and deadline together with the
    /// [`EngineEvent::Submitted`] event. The operation is released into
    /// the admission queue at once, or held until its [`Op::after`]
    /// predecessors complete. Every family takes this one path, typed
    /// (`Op<family::Rpc>`, …) or mixed ([`Op`]); its outcome comes back
    /// untyped from [`Engine::take_outcome`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`], naming the offending field, for
    /// equal or out-of-range endpoints, a stream id this machine never
    /// opened, empty or oversized data, a reserved (protocol-range) am4
    /// tag, a zero-attempt [`RetryPolicy`](crate::RetryPolicy) or zero-execution
    /// [`RecoveryPolicy`], [`Op::recovering`] on a plain transfer, or a
    /// dependency on an id this engine has not submitted (forward
    /// references — the only way to express a cycle). A rejected
    /// submission changes nothing: no id, call id, trace event or queue
    /// entry is consumed.
    pub fn submit<F>(&mut self, m: &mut Machine, op: Op<F>) -> Result<OpId, ProtocolError> {
        self.submit_mixed(m, op.retype())
    }

    /// [`Engine::submit`]'s body, compiled once in this crate rather than
    /// once per family in every calling crate (that copy cost the
    /// serving tier about 2 % of its wall time).
    fn submit_mixed(&mut self, m: &mut Machine, mut op: Op) -> Result<OpId, ProtocolError> {
        op.validate(m, self.ops.len() as u64)?;
        // Correlation ids are the only machine state a submission
        // touches, which is why `submit_xfer` gets by on `&Machine`.
        match &mut op.body {
            OpBody::Rpc { call_id, .. } => *call_id = m.alloc_call_id(),
            // Allocated from the same counter as RPC call ids; the high
            // bit keeps it nonzero, which is what distinguishes a
            // recovery-stamped message from plain header-0 user traffic.
            OpBody::Am4 { token, .. } if op.recovery.is_some() => {
                *token = (m.alloc_call_id() as u32) | 0x8000_0000;
            }
            _ => {}
        }
        Ok(self.enqueue(m, op))
    }

    /// Shorthand for `submit(m, Op::xfer(src, dst, data))` that needs
    /// only `&Machine` (a plain transfer allocates no correlation id).
    /// Kept for the frozen `benchmark/` crate, which calls it; it goes
    /// once that crate submits `Op::xfer`.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    pub fn submit_xfer(
        &mut self,
        m: &Machine,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
    ) -> Result<OpId, ProtocolError> {
        let op: Op = Op::xfer(src, dst, data).into();
        op.validate(m, self.ops.len() as u64).map(|()| self.enqueue(m, op))
    }

    /// The one submission path, past validation: build the state
    /// machine, open the op's ledger row with every modifier landed, then
    /// either release the operation into the admission queue or hold it
    /// until its predecessors complete.
    fn enqueue(&mut self, m: &Machine, op: Op) -> OpId {
        let Op { body, after, recovery, deadline, class, .. } = op;
        let id = OpId(self.ops.len() as u64);
        let op = ActiveOp::new(id, body.build(m, recovery.is_some()));
        let recovery = recovery.map(Box::new);
        self.class_plane |= class.is_some();
        let submitted_at = self.record(m, EngineEvent::Submitted(id));
        self.ops.push(OpEntry { class, deadline, recovery, submitted_at, ..OpEntry::default() });
        // A predecessor that already failed fells the dependent at
        // submission — same outcome it would get if the failure happened
        // while it was held.
        let failed = after
            .iter()
            .find_map(|&d| self.ops[d.index()].root_error.as_deref().map(|root| (d, root.clone())));
        if let Some((failed, root)) = failed {
            self.settle(m, id, Err(ProtocolError::dependency_failed(failed, &root)));
            return id;
        }
        let waiting_on: HashSet<OpId> =
            after.iter().copied().filter(|d| !self.ops[d.index()].done()).collect();
        if waiting_on.is_empty() {
            self.release(m, op);
        } else {
            for dep in &waiting_on {
                self.ops[dep.index()].dependents.push(id);
            }
            self.ops[id.index()].stage = Stage::Held(Box::new(HeldOp { op, waiting_on }));
            self.held.insert(id);
        }
        if let Some(budget) = deadline {
            self.deadlines.insert(id);
            // Timers are never cancelled: one that outlives its op finds
            // the deadline disarmed when it fires and is dropped.
            let due = submitted_at.saturating_add(budget);
            self.timers.push(Reverse((due, Timer::Deadline { id })));
        }
        id
    }

    /// The operation became admissible: record and stamp `Released`,
    /// and queue it for admission.
    fn release(&mut self, m: &Machine, op: ActiveOp) {
        let at = self.record(m, EngineEvent::Released(op.id));
        let entry = &mut self.ops[op.id.index()];
        entry.stage = Stage::Pending;
        entry.released_at = Some(at);
        self.pending.push_back(op);
    }

    /// How many engine-native re-executions `id` has undergone so far
    /// (0 for clean runs, for ops submitted without a
    /// [`RecoveryPolicy`], and for ids this engine never issued). Stays
    /// answerable after the op settles.
    #[must_use]
    pub fn recovery_executions(&self, id: OpId) -> u32 {
        self.ops.get(id.index()).map_or(0, |e| e.re_executions)
    }

    /// Number of operations currently parked between recovery
    /// executions (waiting out a backoff window).
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Number of operations not yet finished (held operations and ops
    /// parked between recovery executions included).
    #[must_use]
    pub fn unfinished(&self) -> usize {
        self.pending.len() + self.running.len() + self.held.len() + self.parked.len()
    }

    /// Number of operations currently held behind unfinished run-after
    /// predecessors.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// The scheduler trace so far, every event stamped with the
    /// substrate clock at the moment it was recorded. Empty unless
    /// [`Engine::enable_trace`] was called.
    #[must_use]
    pub fn trace(&self) -> &[TracedEvent] {
        self.trace.as_deref().unwrap_or_default()
    }

    /// Per-operation completion times: for every operation that has
    /// completed (successfully or not), in completion order, the
    /// network cycles from its `Submitted` stamp to its `Completed`
    /// stamp.
    ///
    /// Submission — not admission — anchors the interval, so for
    /// operations queued behind a busy conflict key the reported time
    /// includes the queueing delay. That is deliberate: under an
    /// open-loop offered load this is the latency an injected operation
    /// actually experiences. The same holds for run-after dependencies:
    /// cycles an operation spends **held** behind unfinished
    /// predecessors are *included* in its completion time — the
    /// `Released` stamps (see [`Engine::hold_times`]) let a caller
    /// subtract the held span when it wants pure execution latency.
    #[must_use]
    pub fn completion_times(&self) -> Vec<(OpId, u64)> {
        self.completions
            .iter()
            .map(|&(id, _, at)| (id, at.saturating_sub(self.ops[id.index()].submitted_at)))
            .collect()
    }

    /// Per-operation hold times: for every operation that was released,
    /// ascending by id, the network cycles from its `Submitted` stamp
    /// to its `Released` stamp. Operations submitted with no
    /// outstanding dependencies report `0` (they are released
    /// immediately); operations failed before release (a predecessor
    /// failed, or a deadline or cancellation settled them while held)
    /// do not appear.
    #[must_use]
    pub fn hold_times(&self) -> Vec<(OpId, u64)> {
        (0u64..)
            .zip(&self.ops)
            .filter_map(|(raw, e)| Some((OpId(raw), e.released_at?.saturating_sub(e.submitted_at))))
            .collect()
    }

    /// The [`completion_times`](Engine::completion_times) distribution
    /// folded into a [`LatencyStats`] histogram, ready for percentile
    /// queries (`quantile(0.99)` etc.).
    #[must_use]
    pub fn completion_stats(&self) -> LatencyStats {
        let mut stats = LatencyStats::default();
        for (_, cycles) in self.completion_times() {
            stats.record(cycles);
        }
        stats
    }

    /// Incremental completion harvest: every operation settled since
    /// `cursor` (opaque; start at `0`), in completion order, as `(id,
    /// ok, at)` tuples stamped like the `Completed` trace event,
    /// advancing `cursor` past them. This is the first-win primitive
    /// for drivers racing several submissions for one logical request
    /// (hedging): harvest after each pump, settle the request on its
    /// first successful leg, and [`Engine::cancel`] the losers — whose
    /// cancellations then show up in the *next* harvest.
    pub fn completions_since(&self, cursor: &mut usize) -> Vec<(OpId, bool, u64)> {
        let out = self.completions[*cursor..].to_vec();
        *cursor = self.completions.len();
        out
    }

    /// Take the outcome of a finished operation (at most once). `None`
    /// for an unfinished operation, an outcome already taken, or an id
    /// this engine never issued.
    pub fn take_outcome(&mut self, id: OpId) -> Option<Result<OpOutcome, ProtocolError>> {
        self.ops.get_mut(id.index())?.outcome.take().map(|boxed| *boxed)
    }

    /// Drive every submitted operation to completion (success or
    /// error), interleaving all of them over the machine's substrate.
    /// Outcomes are collected per [`OpId`]; an individual operation's
    /// failure does not abort the others. Nothing outside the engine is
    /// waiting on the clock, so every quantum may let time pass to the
    /// engine's own next event ([`Engine::pump_until`] with no limit).
    pub fn run(&mut self, m: &mut Machine) {
        while self.unfinished() > 0 {
            self.pump_until(m, u64::MAX);
        }
    }

    /// One scheduler quantum that lets exactly one cycle pass while
    /// packets are in flight: [`Engine::pump_until`] with a limit that
    /// has already passed.
    ///
    /// This is the open-loop building block for a driver that wants to
    /// look at the world every cycle: it alternates `pump` with
    /// [`Engine::submit`] calls to inject new operations at a controlled
    /// offered rate while earlier ones are still in flight. When the
    /// engine is empty, `pump` advances the clock one cycle so a driver
    /// waiting for its next injection slot still makes time pass.
    pub fn pump(&mut self, m: &mut Machine) -> usize {
        self.pump_until(m, 0)
    }

    /// One scheduler quantum: expire what supervision says is due,
    /// admit what is admissible, and step every *ready* operation in
    /// admission order, repeating until a pass makes no progress; then
    /// let time pass, at least one cycle and otherwise to the next
    /// event. An operation whose step finds nothing to do leaves the
    /// ready set until a packet touches one of its endpoints or its own
    /// timer comes due (it then receives the ticks it slept through at
    /// once), so a quantum costs the runnable work, not the operations
    /// in flight. Returns the number of operations still unfinished.
    ///
    /// Sleeping is *conservative*: a spurious wake costs one cost-free
    /// `Idle` step, while the wake conditions are chosen so an op can
    /// never sleep through a step that stepping everything every pass
    /// would have made non-idle — the trace and the bills are those of
    /// that round-robin. A pass visits the ready ops upward in `inc`
    /// — admission — order from a cursor, and an op woken mid-pass
    /// joins *this* pass iff its `inc` is past the cursor, which is
    /// exactly when a sweep of every running op would still reach it.
    ///
    /// **How much time passes** is one rule. With every running
    /// operation asleep, the next quantum can do something only when a
    /// timer comes due (an op wake, deadline or watchdog), a
    /// parked operation's backoff window closes, a scripted
    /// crash-restart closes, or a receive queue gains a packet; the
    /// caller can do something at `limit`, the substrate cycle of its
    /// own next event (an arrival to submit, a probe round). The clock
    /// moves to the earliest of these — the substrate answers the
    /// receive-queue question with
    /// [`Network::quiet_until`](timego_netsim::Network::quiet_until), a
    /// lower bound, so a quantum may end early and find nothing to do,
    /// never late. Two refinements keep existing callers exact:
    ///
    /// * a quantum in which an operation *settled* lets exactly one
    ///   cycle pass, so a caller that harvests completions
    ///   ([`Engine::completions_since`]) reacts to them — cancels a
    ///   hedge loser, frees an admission slot — on the cycle it would
    ///   have under [`Engine::pump`];
    /// * with the fabric empty the timers, the parked resumes and the
    ///   restart schedule alone decide, `limit` or no (what `pump` has
    ///   always done), so `pump_until` never lets *less* time pass than
    ///   `pump` would.
    ///
    /// The skipped quanta are exactly those that would have stepped no
    /// operation, recorded no trace event and billed no instruction:
    /// traces, bills and outcomes do not depend on `limit`, nor on
    /// whether the substrate answers `quiet_until` at all. The sweep of
    /// TTL-expired receiver state ([`CmamConfig::gc_ttl_cycles`]) may
    /// come due inside a skipped span; it runs at the top of the next
    /// quantum, before any operation steps or could have looked. When
    /// the engine is empty the clock simply moves to `limit` (one cycle
    /// if that has passed).
    ///
    /// [`CmamConfig::gc_ttl_cycles`]: crate::CmamConfig::gc_ttl_cycles
    pub fn pump_until(&mut self, m: &mut Machine, limit: u64) -> usize {
        self.counters.quanta += 1;
        if self.unfinished() == 0 {
            m.advance(limit.saturating_sub(m.now()).max(1));
            self.counters.advances += 1;
            return 0;
        }
        let settled = self.completions.len();
        // Fold node crash-restarts into protocol state before stepping:
        // erase the crashed endpoint's sessions and caches, and wake the
        // ops with an endpoint at a restarted node so their next step
        // observes the `SessionReset`, not ghosts of the old incarnation.
        for node in m.observe_restarts() {
            self.touch_node(m, node, Touch::Restart);
        }
        let t = self.profiler.as_ref().map(|_| Instant::now());
        self.absorb_wakes(m);
        self.profile(SchedPhase::WheelAdvance, t);
        // Receiver-side GC: epoch-TTL sweep of dead sessions and expired
        // reply-cache entries. Tables owned by live operations are
        // exempt; a clean run sweeps (and bills) nothing.
        self.collect_garbage(m);
        let left = loop {
            let (deadlines, watchdogs) = self.take_fired();
            if self.supervise(m, deadlines, watchdogs) {
                continue;
            }
            self.release_recovered(m);
            self.admit(m);
            // Collect clock-free delivery marks (self-sends during
            // `start`, same-cycle fast paths) so the sleepers they
            // concern join the coming pass.
            self.absorb_wakes(m);
            if self.running.is_empty() {
                if self.jump_to_parked(m) {
                    // Restart folding waits for the next pump top; the
                    // timers catch up so deadlines due inside the
                    // jumped window fire on this iteration.
                    self.absorb_wakes(m);
                    continue;
                }
                break 0;
            }
            let mut progressed = false;
            let now = m.now();
            self.counters.passes += 1;
            let pass_t = self.profiler.as_ref().map(|_| Instant::now());
            let mut step_ns: u64 = 0;
            // The lowest incarnation the pass may still visit.
            let mut cursor = 0;
            // Whether the op just stepped is still ready.
            let mut stays = false;
            // Visit-time readiness: an op woken by an earlier op's
            // progress in this pass is found past the cursor and stepped
            // *in this pass*.
            loop {
                // Most passes have no ready op, or the one just stepped:
                // then there is nothing past the cursor to search for.
                if self.running.ready_len() == usize::from(stays) {
                    break;
                }
                let Some((inc, slot)) = self.running.next_ready(cursor) else { break };
                cursor = inc + 1;
                self.counters.steps += 1;
                let st = self.profiler.as_ref().map(|_| Instant::now());
                let clock_before = m.now();
                let endpoints = self.slots[slot].a.endpoints;
                let cls = self.class_pre(m, self.slots[slot].a.id, endpoints);
                let stepped = self.slots[slot].a.op.step(m);
                self.class_post(m, cls, endpoints);
                // Blocking NI waits inside a step advance the substrate
                // clock mid-pass, delivering packets along the way.
                // Absorb those wakes immediately so sleepers at the
                // affected nodes are ready exactly when a sweep that
                // re-steps everyone would next reach them. Note this
                // burns *clock*, not tick epochs: in-step cycles tick
                // nobody.
                if m.now() != clock_before {
                    self.absorb_wakes(m);
                }
                if let Some(st) = st {
                    step_ns += st.elapsed().as_nanos() as u64;
                }
                stays = matches!(stepped, Ok(Stepped::Progress));
                match stepped {
                    Ok(Stepped::Progress) => {
                        let id = self.slots[slot].a.id;
                        self.slots[slot].a.last_progress_at = now;
                        self.record(m, EngineEvent::Progressed(id));
                        // Progress may have consumed or injected at the
                        // endpoints, revealing queued packets there:
                        // wake whom the new heads concern and mark the
                        // orphan sweep.
                        self.touch_endpoints(m, endpoints);
                        progressed = true;
                    }
                    Ok(Stepped::Idle) => self.sleep_slot(m, slot),
                    Ok(Stepped::Done(out)) => {
                        self.finish(m, slot, Ok(out));
                        progressed = true;
                    }
                    Err(e) => {
                        self.finish(m, slot, Err(e));
                        progressed = true;
                    }
                }
            }
            if let Some(pt) = pass_t {
                let total = pt.elapsed().as_nanos() as u64;
                if let Some(p) = self.profiler.as_mut() {
                    p.record(SchedPhase::OpStep, step_ns);
                    p.record(SchedPhase::ReadyPop, total.saturating_sub(step_ns));
                }
            }
            if progressed {
                continue;
            }
            if self.discard_orphan(m) {
                continue;
            }
            // Every running op is now asleep (a ready op either
            // progressed — and we looped — or idled and slept), so
            // nothing observable happens before the next event: jump
            // the clock straight there. Unless something settled: then
            // the caller has a completion to react to next cycle.
            let limit = if self.completions.len() == settled { limit } else { 0 };
            let jump = self.idle_jump(m, limit);
            let t = self.profiler.as_ref().map(|_| Instant::now());
            m.advance(jump);
            self.profile(SchedPhase::SubstrateStep, t);
            self.counters.advances += 1;
            // Engine-advance time: the cycles a round-robin would have
            // spent ticking every op once each.
            self.tick_epoch += jump;
            if jump > 1 {
                self.counters.idle_jumps += 1;
                self.counters.jumped_cycles += jump - 1;
            }
            let t = self.profiler.as_ref().map(|_| Instant::now());
            self.absorb_wakes(m);
            self.profile(SchedPhase::WheelAdvance, t);
            break self.unfinished();
        };
        #[cfg(debug_assertions)]
        self.check_ledger();
        left
    }

    /// Ledger invariant, checked after every quantum in debug builds:
    /// each scheduler container holds only ops whose row names it, and
    /// — a row names exactly one — together they hold every unfinished
    /// op. That second half walks the whole ledger, so it is sampled
    /// (power-of-two quanta, and whenever the engine drains) — and with
    /// it the scheduler's indices over the running set: one live bit per
    /// running op, the ready bits against the per-node sleeper counts,
    /// every running op indexed once under each endpoint, and both
    /// bitmaps' summaries against their words.
    #[cfg(debug_assertions)]
    fn check_ledger(&self) {
        let pending = self.pending.iter().map(|op| (op.id, "pending"));
        let running = self.running.iter().map(|(_, s)| (self.slots[s].a.id, "running"));
        let held = self.held.iter().map(|&id| (id, "held"));
        let parked = self.parked.iter().map(|&(_, id)| (id, "parked"));
        for (id, container) in pending.chain(running).chain(held).chain(parked) {
            let named = match self.ops[id.index()].stage {
                Stage::Pending => "pending",
                Stage::Running { slot } => {
                    assert_eq!(self.slots[slot].a.id, id, "op {}: row names another's slot", id.0);
                    "running"
                }
                Stage::Held(_) => "held",
                Stage::Parked { resume_at, .. } => {
                    let keyed = self.parked.contains(&(resume_at, id));
                    assert!(keyed, "op {}: parked index vs the row's resume cycle", id.0);
                    "parked"
                }
                Stage::Done => "done",
            };
            assert_eq!(container, named, "op {}: container vs the stage its row names", id.0);
        }
        for id in &self.deadlines {
            let entry = &self.ops[id.index()];
            assert!(entry.deadline.is_some() && !entry.done(), "op {}: stale armed deadline", id.0);
        }
        if self.counters.quanta.is_power_of_two() || self.unfinished() == 0 {
            let live = self.ops.iter().filter(|e| !e.done()).count();
            assert_eq!(live, self.unfinished(), "an unfinished op is in no container, or in two");
            assert_eq!(self.completions.len(), self.ops.len() - live, "completion log out of step");
            self.check_run_indices();
        }
    }

    #[cfg(debug_assertions)]
    fn check_run_indices(&self) {
        self.running.check();
        self.orphan_dirty.check();
        let mut sleepers = vec![0u32; self.sleepers.len()];
        // One live bit per running op and no other: every bit names an
        // occupied slot of that incarnation, and `check_ledger` has
        // matched each to a running row and the counts to the rows — so
        // no running op's bit sits in a retired chunk.
        for (inc, slot) in self.running.iter() {
            let s = &self.slots[slot];
            assert_eq!(s.inc, inc, "live bit {inc} names slot {slot} of another incarnation");
            let ready = self.running.is_ready(inc);
            let (a, b) = s.a.endpoints;
            for (node, peer) in [(a, b), (b, a)] {
                let listed = self.by_pair[node.index()].binary_search(&(peer, slot));
                assert!(listed.is_ok(), "slot {slot}: not indexed under ({node}, {peer})");
                sleepers[node.index()] += u32::from(!ready);
            }
        }
        assert_eq!(sleepers, self.sleepers, "per-node sleeper counts vs ready bits");
        let indexed: usize = self.by_pair.iter().map(Vec::len).sum();
        assert_eq!(indexed, 2 * self.running.len(), "an op indexed twice, or one not running");
        assert!(self.by_pair.iter().all(|v| v.is_sorted()), "pair index out of order");
    }

    fn profile(&mut self, phase: SchedPhase, started: Option<Instant>) {
        if let (Some(t), Some(p)) = (started, self.profiler.as_mut()) {
            p.record(phase, t.elapsed().as_nanos() as u64);
        }
    }

    /// How far the clock may advance in one quantum with every running
    /// op asleep ([`Engine::pump_until`] states the rule): to the next
    /// timer or parked resume, clamped so a scripted
    /// crash-restart is observed on the cycle its window closes —
    /// exactly when a per-cycle sweep would observe it — and, while
    /// packets are in flight, to the first cycle a delivery could wake
    /// someone and to the caller's `limit`.
    fn idle_jump(&self, m: &Machine, limit: u64) -> u64 {
        let next_due = || {
            let timer = self.timers.peek().map(|&Reverse((due, _))| due);
            let resume = self.parked.first().map(|&(at, _)| at);
            timer.into_iter().chain(resume).min()
        };
        let net = m.network().borrow();
        let now = net.now().cycles();
        let mut until = if net.in_flight() > 0 {
            // The cheap questions first: `pump`'s limit has passed, and
            // a contended fabric answers "next cycle" — neither needs
            // the timers or the parked index consulted.
            if limit <= now + 1 {
                return 1;
            }
            let quiet = net.quiet_until().cycles().min(limit);
            if quiet <= now + 1 {
                return 1;
            }
            next_due().map_or(quiet, |due| due.min(quiet))
        } else {
            let Some(due) = next_due() else { return 1 };
            due
        };
        if let Some(r) = net.next_restart_at() {
            until = until.min(r.cycles());
        }
        until.saturating_sub(now).max(1)
    }

    /// Fire every timer due by the substrate clock, and absorb the
    /// substrate's delivery wake set. Timer wakes are validated against
    /// the slot's incarnation and sleep generation (slots are reused;
    /// sleeps are re-entered); deadline and watchdog expiries are queued
    /// for [`Engine::supervise`].
    fn absorb_wakes(&mut self, m: &mut Machine) {
        let now = m.now();
        while let Some(&Reverse((due, timer))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            match timer {
                Timer::Wake { slot, inc, gen } => {
                    let live = self.slots.get(slot).is_some_and(|s| {
                        s.inc == inc && s.sleep_gen == gen && !self.running.is_ready(inc)
                    });
                    if live {
                        self.counters.timer_wakes += 1;
                        self.wake_slot(slot);
                    }
                }
                Timer::Deadline { id } => self.fired_deadlines.push(id),
                Timer::Watchdog { slot, inc } => self.fired_watchdogs.push((slot, inc)),
            }
        }
        self.absorb_deliveries(m);
    }

    /// Touch every node the substrate delivered to since the last call.
    fn absorb_deliveries(&mut self, m: &mut Machine) {
        for node in m.take_delivered() {
            self.counters.packet_wakes += 1;
            self.touch_node(m, node, Touch::Packet);
        }
    }

    /// Start an admitted op — a first execution and a recovery
    /// re-execution alike — under its class tag, then move it into the
    /// run arena: allocate its slot, enter it — ready — in the run set
    /// and the pair index, and arm its no-progress watchdog.
    fn spawn(&mut self, m: &mut Machine, mut a: ActiveOp) {
        self.record(m, EngineEvent::Started(a.id));
        let cls = self.class_pre(m, a.id, a.endpoints);
        a.op.start(m);
        self.class_post(m, cls, a.endpoints);
        let now = m.now();
        a.last_progress_at = now;
        let (id, endpoints) = (a.id, a.endpoints);
        let inc = self.next_inc;
        self.next_inc += 1;
        let slot =
            self.slots.insert(RunSlot { a, inc, slept_epoch: self.tick_epoch, sleep_gen: 0 });
        self.ops[id.index()].stage = Stage::Running { slot };
        self.running.push(inc, slot);
        let nodes = endpoints.0.index().max(endpoints.1.index()) + 1;
        if self.by_pair.len() < nodes {
            self.by_pair.resize_with(nodes, Vec::new);
            self.sleepers.resize(nodes, 0);
        }
        for (node, peer) in [endpoints, (endpoints.1, endpoints.0)] {
            let list = &mut self.by_pair[node.index()];
            let at = list.partition_point(|e| *e < (peer, slot));
            list.insert(at, (peer, slot));
        }
        let due = now.saturating_add(self.watchdog_bound(m)).saturating_add(1);
        self.timers.push(Reverse((due, Timer::Watchdog { slot, inc })));
    }

    fn admit(&mut self, m: &mut Machine) {
        let mut still_pending = VecDeque::new();
        while let Some(op) = self.pending.pop_front() {
            let key = op.key;
            let blocked = match key {
                Some(k) => {
                    self.busy.contains(&k)
                        // Keep same-key pending ops in submission order.
                        || still_pending.iter().any(|p: &ActiveOp| p.key == Some(k))
                }
                None => false,
            };
            if blocked {
                still_pending.push_back(op);
                continue;
            }
            if let Some(k) = key {
                self.busy.insert(k);
            }
            self.spawn(m, op);
        }
        self.pending = still_pending;
    }

    /// A running op ended with `result`: take its slot out of the run
    /// arena and every index over it, then decide its fate.
    fn finish(&mut self, m: &Machine, slot: u32, result: Result<OpOutcome, ProtocolError>) {
        let s = self.slots.remove(slot);
        let asleep = !self.running.remove(s.inc);
        let endpoints = s.a.endpoints;
        for (node, peer) in [endpoints, (endpoints.1, endpoints.0)] {
            let list = &mut self.by_pair[node.index()];
            let at = list.binary_search(&(peer, slot)).expect("a running op is indexed by pair");
            list.remove(at);
            self.sleepers[node.index()] -= u32::from(asleep);
        }
        // The op's remaining packets just became unclaimed, and a queue
        // head it was about to consume may now be someone else's to
        // reveal: mark both endpoints and wake whom they concern.
        self.touch_endpoints(m, endpoints);
        self.conclude(m, s.a, result);
    }

    /// Record an operation's final outcome and propagate it along
    /// run-after edges. Success releases each dependent whose *last*
    /// outstanding predecessor this was (held → pending, with a
    /// `Released` trace event); failure fails every direct dependent
    /// with [`ProtocolError::DependencyFailed`] naming this operation,
    /// which recurses through *their* dependents so the whole downstream
    /// cone settles in one pass.
    fn settle(&mut self, m: &Machine, id: OpId, result: Result<OpOutcome, ProtocolError>) {
        let ok = result.is_ok();
        // Chains of `DependencyFailed` flatten to the original error.
        let root = result.as_ref().err().map(|e| match e {
            ProtocolError::DependencyFailed { root, .. } => (**root).clone(),
            other => other.clone(),
        });
        let at = self.record(m, EngineEvent::Completed(id, ok));
        self.completions.push((id, ok, at));
        self.deadlines.remove(&id);
        let entry = &mut self.ops[id.index()];
        entry.stage = Stage::Done;
        entry.outcome = Some(Box::new(result));
        entry.root_error = root.clone().map(Box::new);
        entry.recovery = None;
        for dep in std::mem::take(&mut entry.dependents) {
            // Lift the dependent's state out of its row to decide its
            // fate. Any stage but `Held` means it was expired while
            // waiting and this edge is stale.
            let dep_stage = &mut self.ops[dep.index()].stage;
            let mut h = match std::mem::replace(dep_stage, Stage::Pending) {
                Stage::Held(h) => h,
                other => {
                    *dep_stage = other;
                    continue;
                }
            };
            h.waiting_on.remove(&id);
            if let Some(root) = &root {
                self.held.remove(&dep);
                self.settle(m, dep, Err(ProtocolError::dependency_failed(id, root)));
            } else if h.waiting_on.is_empty() {
                self.held.remove(&dep);
                self.release(m, h.op);
            } else {
                *dep_stage = Stage::Held(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use timego_netsim::{
        DeliveryScript, Guarantees, InjectError, NetStats, Network, Packet, RxMeta,
        ScriptedNetwork, Time,
    };
    use timego_ni::share;

    use super::*;
    use crate::machine::{CmamConfig, Tags};

    /// A scripted substrate that counts the `rx_peek` calls it receives.
    struct PeekCounting {
        inner: ScriptedNetwork,
        peeks: Rc<Cell<u64>>,
    }

    impl Network for PeekCounting {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn now(&self) -> Time {
            self.inner.now()
        }
        fn advance(&mut self, cycles: u64) {
            self.inner.advance(cycles);
        }
        fn try_inject(&mut self, packet: Packet) -> Result<(), InjectError> {
            self.inner.try_inject(packet)
        }
        fn try_receive(&mut self, node: NodeId) -> Option<Packet> {
            self.inner.try_receive(node)
        }
        fn rx_peek(&mut self, node: NodeId) -> Option<RxMeta> {
            self.peeks.set(self.peeks.get() + 1);
            self.inner.rx_peek(node)
        }
        fn rx_pending(&self, node: NodeId) -> usize {
            self.inner.rx_pending(node)
        }
        fn in_flight(&self) -> usize {
            self.inner.in_flight()
        }
        fn stats(&self) -> &NetStats {
            self.inner.stats()
        }
        fn guarantees(&self) -> Guarantees {
            self.inner.guarantees()
        }
    }

    /// The scheduler's look at a queue head is pure: a touch at a node
    /// whose queue is empty makes no `rx_peek` call, so a packet the
    /// script holds for that node stays held — whatever the cause of the
    /// touch, sleepers or not.
    #[test]
    fn a_touch_at_an_empty_queue_never_peeks_the_substrate() {
        let n = NodeId::new;
        let peeks = Rc::new(Cell::new(0));
        let inner = ScriptedNetwork::new(3, DeliveryScript::AlternateSwap);
        let net = share(PeekCounting { inner, peeks: peeks.clone() });
        let mut m = Machine::new(net, 3, CmamConfig::default());
        let mut eng = Engine::new();
        let id = eng.submit_xfer(&m, n(1), n(0), &[1, 2, 3, 4]).expect("valid");
        eng.admit(&mut m);
        let Stage::Running { slot } = eng.ops[id.index()].stage else { panic!("admitted") };
        eng.sleep_slot(&m, slot);
        assert_eq!(eng.sleepers, [1, 1], "one sleeper at each endpoint");

        // The first packet of a pair is held by the script: nothing is
        // pending at node 1, one packet is in flight.
        let held = Packet::new(n(2), n(1), 50, 0, &[7]);
        m.network().borrow_mut().try_inject(held).expect("accepted");
        assert_eq!(
            (m.network().borrow().rx_pending(n(1)), m.network().borrow().in_flight()),
            (0, 1)
        );

        let before = peeks.get();
        eng.touch_node(&m, n(1), Touch::Packet);
        let ready = |eng: &Engine| eng.running.is_ready(eng.slots[slot].inc);
        assert!(!ready(&eng), "an empty queue names no claimant");
        eng.touch_node(&m, n(2), Touch::Pair { peer: n(0) });
        eng.touch_node(&m, n(1), Touch::Restart);
        assert!(ready(&eng), "a restart wakes every op at the node");
        eng.sleep_slot(&m, slot);
        eng.touch_node(&m, n(1), Touch::Pair { peer: n(0) });
        assert!(ready(&eng), "its own pair's progress wakes the sleeper");
        assert_eq!(peeks.get(), before, "no touch peeked an empty queue");
        assert_eq!(m.network().borrow().in_flight(), 1, "the held packet is still held");

        // A packet at the head is looked at once, and wakes its claimant.
        eng.sleep_slot(&m, slot);
        let reply = Packet::new(n(0), n(1), Tags::XFER_REPLY, 0, &[0; 4]);
        m.network().borrow_mut().try_inject(reply).expect("accepted");
        m.advance(1);
        eng.touch_node(&m, n(1), Touch::Packet);
        assert_eq!(peeks.get(), before + 1);
        assert!(ready(&eng), "the head's claimant wakes");
    }

    /// A timer far in the future — past 2^24 cycles, beyond which a
    /// four-level, 64-slot timing wheel needs an overflow list — fires
    /// exactly on its due cycle, and idle time reaches it in one jump. The call's request is consumed
    /// unhandled (no handler is registered), so after its first cycles
    /// it waits for a reply that never comes; its own reply timeout and
    /// the watchdog are both raised past the deadline.
    #[test]
    fn a_far_future_deadline_fires_exactly_after_one_idle_jump() {
        const BUDGET: u64 = 20_000_000;
        let net = share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
        let cfg = CmamConfig { max_wait_cycles: 1 << 26, ..CmamConfig::default() };
        let mut m = Machine::new(net, 2, cfg);
        let mut eng = Engine::new();
        eng.set_watchdog(1 << 30);
        let op = Op::rpc(NodeId::new(0), NodeId::new(1), Tags::USER_BASE, [0; 4], None);
        let id = eng.submit(&mut m, op.deadline(BUDGET)).expect("valid");
        let submitted_at = eng.ops[id.index()].submitted_at;
        eng.run(&mut m);
        let err = ProtocolError::DeadlineExceeded { what: "deadline", cycles: BUDGET };
        assert_eq!(eng.take_outcome(id), Some(Err(err)));
        assert_eq!(eng.completions, [(id, false, submitted_at + BUDGET)]);
        assert_eq!(eng.counters.idle_jumps, 1, "one jump crosses the whole wait");
        assert!(eng.counters.jumped_cycles > BUDGET - 10, "{:?}", eng.counters);
    }
}
