//! Event-driven protocol engine: concurrent per-node protocol state
//! machines replacing the world-driving blocking loops.
//!
//! Each in-flight operation (finite transfer, reliable transfer, stream
//! send, RPC, active message) is a state machine whose `step` performs
//! exactly one iteration of the corresponding blocking driver loop —
//! minus the `advance(1)` the blocking loop used to pass time. The
//! machines live with their families (`xfer`, `xfer_reliable`, `stream`,
//! `rpc`, `am`) behind one private trait, `OpMachine` (`op.rs` states
//! its contract); this module is the scheduler, the op ledger,
//! supervision, recovery policy and the class plane, and the only
//! family-aware code in it is the [`Op`] constructors, their validation
//! and the body → machine constructor. The
//! [`Engine`] owns the clock and schedules by *readiness*: an operation
//! whose step finds nothing to do sleeps until a packet it can consume
//! reaches the head of one of its endpoints' queues (running operations
//! are indexed by `(endpoint, peer)`, and a touch at a node wakes the
//! sleepers its head's `claims` names — not everyone with an endpoint
//! there), an endpoint crash-restarts, or its own timer (retry window,
//! timeout, RTO) comes due on the timing wheel; a pass visits only the
//! ordered set of operations that are awake. When a pass makes no
//! progress, time passes — to the *next event*, not the next cycle: the
//! first of the next wheel entry, the next scripted crash-restart, the
//! cycle the substrate says its receive queues stay quiet until
//! ([`Network::quiet_until`](timego_netsim::Network::quiet_until) —
//! packets on the wire are time no software runs in) and the caller's
//! own next event ([`Engine::pump_until`]) — and a sleeper receives the
//! timer ticks it slept
//! through at once when it wakes (this is what drives retry deadlines
//! from [`RetryPolicy`](crate::RetryPolicy) and stream retransmission
//! timeouts). The scheduler this replaced — step everything, advance
//! one cycle, tick everyone — is kept as
//! [`SchedMode::ReferenceRoundRobin`], the oracle the default is pinned
//! trace- and bill-identical to.
//!
//! Because a single-operation engine run performs the same instruction
//! sequence as the old blocking loop, the blocking entry points
//! ([`Machine::xfer`], [`Machine::stream_send`], [`Machine::rpc_call`],
//! …) are now thin run-to-completion wrappers over the engine and stay
//! cost-identical per feature — the paper's tables regenerate exactly.
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
//! three ordered id sets (`held`, `parked`, armed `deadlines`) only
//! index rows a loop visits in id order; the completion log owns
//! completion order and `Completed` stamps. The trace is output: the
//! engine appends to it, lends it out, and never reads it back.
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
//! sequence when a cost-free NI peek ([`RxMeta`]) shows that the
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

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::ops::Bound;
use std::time::Instant;

use timego_cost::{CostVector, Feature, Fine};
use timego_netsim::{LatencyStats, NodeId, RxMeta};

use crate::am::Am4Op;
use crate::costs::recovery;
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::{GcExempt, KeyClass, OpMachine, Stepped};
use crate::retry::{RecoveryPolicy, RetryPolicy};
use crate::rpc::RpcOp;
use crate::sched::{SchedCounters, SchedMode, SchedPhase, SchedProfiler, Slab, TimingWheel};
use crate::stream::{StreamId, StreamOp, StreamOutcome};
use crate::xfer::{PayloadEngine, XferOp, XferOutcome};
use crate::xfer_reliable::{ReliableOp, ReliableOutcome, OFFSET_BITS};

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

/// What a completed operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A finite-sequence transfer completed.
    Xfer(XferOutcome),
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
    /// Admitted, in run slot `slot` (`Engine::slots` / `run_order`).
    Running { slot: u32 },
    /// Between recovery executions, indexed by `Engine::parked`: the
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

    /// When a parked op's backoff window closes.
    fn resume_at(&self) -> Option<u64> {
        match self.stage {
            Stage::Parked { resume_at, .. } => Some(resume_at),
            _ => None,
        }
    }
}

/// One admitted operation's scheduler slot in the run arena. Both
/// scheduler modes share this storage; the readiness fields (`ready`,
/// `slept_epoch`, `sleep_gen`) are only consulted by the event-driven
/// mode — the reference round-robin sweeps every slot in `run_order`
/// regardless.
struct RunSlot {
    a: ActiveOp,
    /// Incarnation number, unique across the engine's lifetime. Slab
    /// slots are reused, so timing-wheel entries validate `(slot, inc)`
    /// before acting.
    inc: u64,
    /// Eligible to be stepped: exactly the slots in `Engine::ready`.
    /// Cleared when a step returns `Idle` (the op goes to sleep on its
    /// wake conditions), set again by a touch that concerns it or its
    /// wheel timer.
    ready: bool,
    /// The engine's tick epoch when the op last went to sleep — the
    /// lazy-tick anchor: on wake it receives `tick_epoch - slept_epoch`
    /// timer ticks at once. Ticks are counted in the *engine-advance*
    /// domain, not raw substrate cycles: the reference scheduler ticks
    /// ops once per engine-driven idle `advance`, while cycles burned
    /// *inside* an op's step (blocking NI waits) tick nobody.
    slept_epoch: u64,
    /// Bumped on every wake so a stale wheel wake for an earlier sleep
    /// of the same slot is recognized and ignored.
    sleep_gen: u64,
}

/// Why a node is being touched — which sleepers the touch can concern
/// (see [`Engine::touch_node`]).
enum Touch {
    /// A delivery, or an engine stray discard surfacing the next packet:
    /// only the queue head's claimants.
    Packet,
    /// An op between this node and `peer` progressed or finished here:
    /// the head's claimants, plus the sleepers on that same pair.
    Pair { peer: NodeId },
    /// The node crash-restarted: every op with an endpoint here.
    Restart,
}

/// What one timing-wheel expiry means to the event-driven scheduler.
/// Every variant is validated against current engine state when it
/// fires — entries are never eagerly cancelled, they just go stale.
enum WheelItem {
    /// Wake a sleeping op: the earliest future cycle at which its next
    /// step could be anything but a cost-free `Idle` (retry window,
    /// timeout threshold, RTO, or plain backpressure re-poll).
    Wake { slot: u32, inc: u64, gen: u64 },
    /// A deadline ([`Op::deadline`]) is due.
    Deadline { id: OpId },
    /// A running op's no-progress watchdog may have expired.
    Watchdog { slot: u32, inc: u64 },
    /// A parked op's recovery backoff window closes here. Carries no
    /// payload — it exists so `next_due` bounds idle clock-jumps and the
    /// loop re-runs `release_recovered` at exactly the right cycle.
    ParkResume,
}

/// The family-specific half of an [`Op`]: what to run, between whom.
/// It exists only until submission — [`OpBody::build`] turns it into the
/// state machine, which is the operation from then on.
///
/// `call_id` and `token` are *resolved* fields — zero as constructed,
/// filled in by [`Engine::submit`] — and the machine keeps them across
/// re-executions, which is where exactly-once needs continuity: an RPC
/// re-execution reuses its call id so the callee's reply cache
/// deduplicates a handler that already ran, and a recovering am4 keeps
/// its delivery token.
#[derive(Debug, Clone)]
enum OpBody {
    Xfer {
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        engine: PayloadEngine,
    },
    Reliable {
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        policy: RetryPolicy,
    },
    Stream {
        id: StreamId,
        data: Vec<u32>,
    },
    Rpc {
        src: NodeId,
        dst: NodeId,
        tag: u8,
        args: [u32; 4],
        policy: Option<RetryPolicy>,
        call_id: u64,
    },
    Am4 {
        src: NodeId,
        dst: NodeId,
        tag: u8,
        words: [u32; 4],
        token: u32,
    },
}

impl OpBody {
    /// Build the state machine — the only body → machine constructor;
    /// a recovery re-execution is the machine's own `reset`. `managed`
    /// marks the op as recovery-managed (see [`Op::recovering`]).
    ///
    /// # Panics
    ///
    /// Panics on a stream id the machine never opened
    /// ([`Op::validate`] rejects those first).
    fn build(self, m: &Machine, managed: bool) -> Box<dyn OpMachine> {
        let n = m.config().packet_words;
        match self {
            OpBody::Xfer { src, dst, data, engine } => {
                Box::new(XferOp::new(src, dst, data, engine, n))
            }
            OpBody::Reliable { src, dst, data, policy } => {
                Box::new(ReliableOp::new(src, dst, data, n, policy))
            }
            OpBody::Stream { id, data } => {
                let st = m.stream_state(id);
                Box::new(StreamOp::new(id, st.src, st.dst, data, n, st.rto_iterations(), None))
            }
            OpBody::Rpc { src, dst, tag, args, policy, call_id } => {
                Box::new(RpcOp::new(src, dst, tag, args, call_id, policy, managed))
            }
            OpBody::Am4 { src, dst, tag, words, token } => {
                Box::new(Am4Op::new(src, dst, tag, words, token, managed))
            }
        }
    }
}

/// One operation to submit: a family constructor ([`Op::xfer`],
/// [`Op::xfer_reliable`], [`Op::stream_send`], [`Op::rpc`],
/// [`Op::am4`]) plus orthogonal modifiers ([`Op::after`],
/// [`Op::recovering`], [`Op::deadline`], [`Op::class`]), handed to
/// [`Engine::submit`]. The description is plain data: nothing is
/// validated, allocated or traced until submission.
///
/// ```
/// # use timego_am::{Op, RecoveryPolicy};
/// # use timego_netsim::NodeId;
/// let op = Op::rpc(NodeId::new(0), NodeId::new(1), 40, [1, 2, 3, 4], None)
///     .recovering(&RecoveryPolicy::default())
///     .deadline(10_000)
///     .class(2);
/// # let _ = op;
/// ```
#[derive(Debug, Clone)]
pub struct Op {
    body: OpBody,
    after: Vec<OpId>,
    recovery: Option<RecoveryPolicy>,
    deadline: Option<u64>,
    class: Option<u8>,
}

impl Op {
    fn new(body: OpBody) -> Self {
        Op { body, after: Vec::new(), recovery: None, deadline: None, class: None }
    }

    /// A finite-sequence transfer (the engine form of
    /// [`Machine::xfer`]).
    #[must_use]
    pub fn xfer(src: NodeId, dst: NodeId, data: &[u32]) -> Self {
        Op::xfer_via(src, dst, data, PayloadEngine::Cpu)
    }

    pub(crate) fn xfer_via(src: NodeId, dst: NodeId, data: &[u32], engine: PayloadEngine) -> Self {
        Op::new(OpBody::Xfer { src, dst, data: data.to_vec(), engine })
    }

    /// A fault-tolerant finite-sequence transfer (the engine form of
    /// [`Machine::xfer_reliable`]).
    #[must_use]
    pub fn xfer_reliable(src: NodeId, dst: NodeId, data: &[u32], policy: &RetryPolicy) -> Self {
        Op::new(OpBody::Reliable { src, dst, data: data.to_vec(), policy: policy.clone() })
    }

    /// A stream send (the engine form of [`Machine::stream_send`]).
    /// Sends on the same stream (or between the same node pair) are
    /// serialized in submission order.
    #[must_use]
    pub fn stream_send(id: StreamId, data: &[u32]) -> Self {
        Op::new(OpBody::Stream { id, data: data.to_vec() })
    }

    /// An RPC (the engine form of [`Machine::rpc_call`] without a
    /// policy, [`Machine::rpc_call_retrying`] with one). The call id is
    /// allocated at submission, so replies of concurrent calls — even
    /// between the same pair of nodes — are matched by correlation id.
    #[must_use]
    pub fn rpc(
        src: NodeId,
        dst: NodeId,
        tag: u8,
        args: [u32; 4],
        policy: Option<&RetryPolicy>,
    ) -> Self {
        Op::new(OpBody::Rpc { src, dst, tag, args, policy: policy.cloned(), call_id: 0 })
    }

    /// A single four-word active message (the engine form of
    /// [`Machine::am4_send`] plus the destination's gated poll) — the
    /// building block of engine-native collectives, where every tree
    /// edge is one active message released by the delivery that fed its
    /// sender. The source pays Table 1's 20-instruction injection path
    /// (again on every backpressure retry, exactly like the blocking
    /// call); the destination pays the 27-instruction poll-with-message
    /// path when the packet is latched — never an idle poll, because
    /// consumption is peek-gated. The outcome carries the words the
    /// destination read ([`OpOutcome::Am4`]).
    ///
    /// Messages between the same ordered pair are serialized in
    /// submission order (conflict key), so two concurrent sends with the
    /// same tag cannot swap deliveries.
    #[must_use]
    pub fn am4(src: NodeId, dst: NodeId, tag: u8, words: [u32; 4]) -> Self {
        Op::new(OpBody::Am4 { src, dst, tag, words, token: 0 })
    }

    /// Run-after dependencies: hold the operation until every op in
    /// `ids` completes successfully (repeated calls accumulate).
    #[must_use]
    pub fn after(mut self, ids: &[OpId]) -> Self {
        self.after.extend_from_slice(ids);
        self
    }

    /// Attach an engine-native [`RecoveryPolicy`]: if the operation
    /// settles with a retryable error (`SessionReset`, `Timeout`,
    /// `DeadlineExceeded`), the scheduler itself re-executes it under
    /// the same [`OpId`] after the policy's backoff window — no
    /// caller-side loop, and run-after dependents stay held instead of
    /// cascading [`ProtocolError::DependencyFailed`]. Each re-execution
    /// bills the session-restart instruction shape to
    /// `Feature::FaultTol` at the source; a clean run is
    /// instruction-identical to the unmodified op.
    ///
    /// Re-execution is exactly-once per family: a reliable transfer
    /// restarts under a fresh session epoch; a stream send *resumes*
    /// (packets the receiver already delivered in-sequence are not
    /// re-sent); an RPC reuses its call id, so a callee whose handler
    /// already ran answers from its reply cache (at most once per
    /// callee incarnation); an am4 rides a nonzero *delivery token* in
    /// the header word (plain user traffic always carries header `0`),
    /// so a duplicate left by a crash-straddling re-execution can never
    /// be mistaken for a later same-pair message and is
    /// orphan-discarded once its operation completes.
    ///
    /// Attaching any policy — even [`RecoveryPolicy::none`] — marks an
    /// RPC or am4 as *recovery-managed*: it fails fast with the
    /// retryable `SessionReset` when an endpoint crash-restarts, and
    /// the am4 carries its token. Plain [`Op::xfer`] has no
    /// re-execution recipe; submitting it with a policy is rejected.
    #[must_use]
    pub fn recovering(mut self, policy: &RecoveryPolicy) -> Self {
        self.recovery = Some(policy.clone());
        self
    }

    /// A completion deadline, in substrate cycles from the submission
    /// cycle: if the operation — running, pending, held or parked — has
    /// not completed by then, the engine settles it with the retryable
    /// [`ProtocolError::DeadlineExceeded`] and cascades
    /// [`ProtocolError::DependencyFailed`] into its dependents, exactly
    /// like any other failure. Supervision is host-side scheduling: it
    /// charges no simulated instructions.
    #[must_use]
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.deadline = Some(cycles);
        self
    }

    /// Tag the operation with a *request class* (QoS tier, tenant,
    /// priority band — any `u8` the caller chooses). Every instruction
    /// the operation causes at either of its endpoints — admission
    /// `start`, every `step` (including callee handler work an RPC
    /// drives at its destination), and engine-native recovery restarts
    /// — is *also* accumulated into that class's [`CostVector`],
    /// splitting the per-node bills by class. The split is attribution,
    /// not double-billing: the node recorders are untouched, and on
    /// clean runs the per-class bills sum exactly to the total the node
    /// recorders saw (see `tests/serving_invariants.rs`). The tag lands
    /// with the submission, so nothing the op costs escapes it.
    /// Untagged operations are never snapshotted, and a fully untagged
    /// engine skips the class plane entirely.
    #[must_use]
    pub fn class(mut self, class: u8) -> Self {
        self.class = Some(class);
        self
    }

    /// Everything that can reject the submission, checked before any
    /// engine or machine state is touched. `next_id` is the id the
    /// engine would assign: ids are handed out densely at submission,
    /// so a dependency at or past it is a forward (or self) reference —
    /// the only way a dependency cycle could ever be expressed.
    fn validate(&self, m: &Machine, next_id: u64) -> Result<(), ProtocolError> {
        let bad = |what: String| Err(ProtocolError::BadTransfer(what));
        let (src, dst) = match &self.body {
            OpBody::Xfer { src, dst, .. }
            | OpBody::Reliable { src, dst, .. }
            | OpBody::Rpc { src, dst, .. }
            | OpBody::Am4 { src, dst, .. } => (*src, *dst),
            OpBody::Stream { id, .. } if m.has_stream(*id) => {
                let st = m.stream_state(*id);
                (st.src, st.dst)
            }
            OpBody::Stream { .. } => {
                return bad("stream id was not opened on this machine".into());
            }
        };
        m.check_endpoints(src, dst)?;
        match &self.body {
            OpBody::Reliable { policy, .. } | OpBody::Rpc { policy: Some(policy), .. }
                if policy.max_attempts == 0 =>
            {
                return bad("policy.max_attempts is 0; need at least one attempt".into());
            }
            OpBody::Xfer { data, .. } | OpBody::Reliable { data, .. } if data.is_empty() => {
                return bad("empty transfer".into());
            }
            OpBody::Xfer { .. } if self.recovery.is_some() => {
                return bad(
                    "recovering: a plain xfer has no re-execution recipe (use Op::xfer_reliable)"
                        .into(),
                );
            }
            OpBody::Reliable { data, .. } if data.len() >= (1 << OFFSET_BITS) => {
                return bad(format!(
                    "reliable transfer caps at {} words, got {}",
                    (1 << OFFSET_BITS) - 1,
                    data.len()
                ));
            }
            OpBody::Stream { data, .. } if data.is_empty() => {
                return bad("empty stream send".into());
            }
            OpBody::Stream { id, .. } if m.stream_state(*id).window() == 0 => {
                return bad("stream window is 0; need at least one source-buffer slot".into());
            }
            OpBody::Am4 { tag, .. } if *tag < Tags::USER_BASE => {
                return bad(format!(
                    "am4 tag {tag} is in the reserved protocol range (< {})",
                    Tags::USER_BASE
                ));
            }
            _ => {}
        }
        if self.recovery.as_ref().is_some_and(|p| p.max_executions == 0) {
            return bad("recovery.max_executions is 0; need at least one execution".into());
        }
        if let Some(dep) = self.after.iter().find(|d| d.raw() >= next_id) {
            return bad(format!(
                "run-after dependency on op {} which this engine has not submitted; \
                 edges must point backward, so dependency cycles are rejected at submission",
                dep.raw()
            ));
        }
        Ok(())
    }
}

/// The substrate clock, as raw network cycles (cost-free introspection).
fn clock(m: &Machine) -> u64 {
    m.now()
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
    // Running ops live in a slot-stable arena; `run_order` preserves
    // admission order (what the sweep and the watchdog scan follow).
    slots: Slab<RunSlot>,
    run_order: Vec<u32>,
    next_inc: u64,
    mode: SchedMode,
    // Timing wheel carrying op wakes, deadlines, watchdogs, and
    // park-resume markers (event mode only; empty under the reference
    // round-robin).
    wheel: TimingWheel<WheelItem>,
    // Wheel expiries harvested by `absorb_wakes`, pending validation in
    // `supervise`. Watchdog tuples are `(slot, inc)`.
    fired_deadlines: Vec<OpId>,
    fired_watchdogs: Vec<(u32, u64)>,
    // The ready set: `(inc, slot)` of every running op whose `ready`
    // flag is set. `inc` order is `run_order` order, so a pass that
    // visits it from a cursor steps ops exactly where the reference
    // sweep would reach them, at the cost of the ops awake.
    ready: BTreeSet<(u64, u32)>,
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
    // proved their head clean. Invariant: any node whose queue head is
    // a discardable unclaimed packet is in this set, so scanning it
    // ascending finds the same node a full 0..N scan would.
    orphan_dirty: BTreeSet<usize>,
    // Engine-advance time: total cycles advanced by the *scheduler's
    // own* idle advances (each of which ticks every op once per cycle in
    // the reference). Cycles burned inside an op's step — blocking NI
    // waits advance the substrate clock mid-pass — tick nobody, so the
    // lazy-tick accounting anchors here rather than on the raw clock.
    tick_epoch: u64,
    counters: SchedCounters,
    profiler: Option<SchedProfiler>,
    busy: HashSet<ConflictKey>,
    // Ordered id indices over the ledger, for loops that visit "every
    // op in this state, ascending by id". The state itself is in the
    // row. A deadline is disarmed when it fires or its op settles.
    held: BTreeSet<OpId>,
    parked: BTreeSet<OpId>,
    deadlines: BTreeSet<OpId>,
    // No-progress watchdog bound in cycles; `None` derives
    // 4 × max_wait_cycles from the machine config at enforcement time.
    watchdog: Option<u64>,
    // Append-only output, lent out through `trace()`; never read back.
    trace: Vec<TracedEvent>,
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

/// Token-bucket state of one class's retry budget. Tokens are held in
/// milli-units (1000 = one re-execution) so slow refills stay integer
/// and deterministic.
#[derive(Debug, Clone)]
struct RetryBudgetState {
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
    /// An empty engine running the default readiness-driven scheduler.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// An empty engine with an explicit scheduler mode (see
    /// [`SchedMode`]). Both modes produce the identical trace and
    /// per-feature bills; [`SchedMode::ReferenceRoundRobin`] is kept as
    /// the equivalence baseline and for benchmarking.
    #[must_use]
    pub fn with_mode(mode: SchedMode) -> Self {
        Engine { mode, ..Engine::default() }
    }

    /// The scheduler mode this engine runs.
    #[must_use]
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// Always-on scheduler counters (step invocations, quanta, wakes,
    /// idle jumps). The bench harness' acceptance metric.
    #[must_use]
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// Attach a self-profiling ring buffer of `capacity` samples; each
    /// pump quantum then records per-phase wall times (see
    /// [`SchedPhase`]). Off by default — profiling costs two `Instant`
    /// reads per phase per quantum.
    pub fn enable_profiling(&mut self, capacity: usize) {
        self.profiler = Some(SchedProfiler::new(capacity));
    }

    /// The attached profiler, if [`Engine::enable_profiling`] was
    /// called. Flush and read totals between runs, outside the hot path.
    pub fn profiler_mut(&mut self) -> Option<&mut SchedProfiler> {
        self.profiler.as_mut()
    }

    /// Append `event` to the trace, stamped with the substrate clock,
    /// and hand the stamp back: the ledger writes the same value into
    /// the op's row, so the row and the trace agree by construction.
    fn record(&mut self, m: &Machine, event: EngineEvent) -> u64 {
        let at = clock(m);
        self.trace.push(TracedEvent { at, event });
        at
    }

    /// Submit one operation: validate everything, allocate its id (and
    /// the RPC call id / am4 delivery token), build its state machine,
    /// and land class, recovery policy and deadline together with the
    /// [`EngineEvent::Submitted`] event. The operation is released into
    /// the admission queue at once, or held until its [`Op::after`]
    /// predecessors complete.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`], naming the offending field, for
    /// equal or out-of-range endpoints, a stream id this machine never
    /// opened, empty or oversized data, a reserved (protocol-range) am4
    /// tag, a zero-attempt [`RetryPolicy`] or zero-execution
    /// [`RecoveryPolicy`], [`Op::recovering`] on a plain transfer, or a
    /// dependency on an id this engine has not submitted (forward
    /// references — the only way to express a cycle). A rejected
    /// submission changes nothing: no id, call id, trace event or queue
    /// entry is consumed.
    pub fn submit(&mut self, m: &mut Machine, mut op: Op) -> Result<OpId, ProtocolError> {
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
        let op = Op::xfer(src, dst, data);
        op.validate(m, self.ops.len() as u64).map(|()| self.enqueue(m, op))
    }

    /// The one submission path, past validation: build the state
    /// machine, open the op's ledger row with every modifier landed, then
    /// either release the operation into the admission queue or hold it
    /// until its predecessors complete.
    fn enqueue(&mut self, m: &Machine, op: Op) -> OpId {
        let Op { body, after, recovery, deadline, class } = op;
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
            if self.mode == SchedMode::EventDriven {
                // Wheel entries are never cancelled: one that outlives
                // its op finds the deadline disarmed when it fires and
                // is dropped.
                self.wheel.insert(submitted_at.saturating_add(budget), WheelItem::Deadline { id });
            }
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
        self.pending.len() + self.run_order.len() + self.held.len() + self.parked.len()
    }

    /// Number of operations currently held behind unfinished run-after
    /// predecessors.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// The scheduler trace so far, every event stamped with the
    /// substrate clock at the moment it was recorded.
    #[must_use]
    pub fn trace(&self) -> &[TracedEvent] {
        &self.trace
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
    /// failed, or the wedge backstop fired) do not appear.
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

    /// Arm a *retry budget* for `class`: a token bucket holding at most
    /// `capacity` re-execution tokens, refilled at
    /// `refill_milli_per_kcycle` milli-tokens per thousand substrate
    /// cycles (1000 = one full re-execution per kilocycle). Every
    /// engine-native re-execution of an op tagged with `class` (via
    /// [`Op::class`]) spends one token *before* parking; when
    /// the bucket is dry the recovery is **denied** — the op settles
    /// with its retryable error exactly as if its
    /// [`RecoveryPolicy`] budget were exhausted — and the denial is
    /// counted ([`Engine::retry_budget_denied`]).
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
        let now = clock(m);
        let available = b.available_milli(now);
        if available < 1000 {
            b.denied += 1;
            return false;
        }
        b.tokens_milli = available - 1000;
        b.last_spend_at = now;
        true
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

    /// Pre-step snapshot for the class plane: if `id` is tagged, the
    /// cost recorders at both endpoints as they stand *before* the
    /// about-to-run `start`/`step`. `None` (the untagged and
    /// class-plane-off cases) makes the post hook free.
    fn class_pre(
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
    fn class_post(
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
    /// **How much time passes** is one rule. With every running
    /// operation asleep, the next quantum can do something only when a
    /// wheel entry comes due (a timer wake, deadline, watchdog or
    /// park-resume), a scripted crash-restart closes, or a receive
    /// queue gains a packet; the caller can do something at `limit`,
    /// the substrate cycle of its own next event (an arrival to submit,
    /// a probe round). The clock moves to the earliest of the four —
    /// the substrate answers the third with
    /// [`Network::quiet_until`](timego_netsim::Network::quiet_until), a
    /// lower bound, so a quantum may end early and find nothing to do,
    /// never late. Two refinements keep existing callers exact:
    ///
    /// * a quantum in which an operation *settled* lets exactly one
    ///   cycle pass, so a caller that harvests completions
    ///   ([`Engine::completions_since`]) reacts to them — cancels a
    ///   hedge loser, frees an admission slot — on the cycle it would
    ///   have under [`Engine::pump`];
    /// * with the fabric empty the wheel and the restart schedule alone
    ///   decide, `limit` or no (what `pump` has always done), so
    ///   `pump_until` never lets *less* time pass than `pump` would.
    ///
    /// The skipped quanta are exactly those that would have stepped no
    /// operation, recorded no trace event and billed no instruction:
    /// traces, bills and outcomes do not depend on `limit`, nor on
    /// whether the substrate answers `quiet_until` at all. The sweep of
    /// TTL-expired receiver state ([`CmamConfig::gc_ttl_cycles`]) may
    /// come due inside a skipped span; it runs at the top of the next
    /// quantum, before any operation steps or could have looked.
    ///
    /// [`SchedMode::ReferenceRoundRobin`] instead steps everything
    /// every pass and always advances one cycle, for the identical
    /// trace and bills. When the engine is empty the clock simply moves
    /// to `limit` (one cycle if that has passed).
    ///
    /// [`CmamConfig::gc_ttl_cycles`]: crate::CmamConfig::gc_ttl_cycles
    pub fn pump_until(&mut self, m: &mut Machine, limit: u64) -> usize {
        self.counters.quanta += 1;
        if self.unfinished() == 0 {
            m.advance(limit.saturating_sub(clock(m)).max(1));
            self.counters.advances += 1;
            return 0;
        }
        let left = match self.mode {
            SchedMode::EventDriven => self.pump_event(m, limit),
            SchedMode::ReferenceRoundRobin => self.pump_reference(m),
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
    /// it the scheduler's indices over the running set: the ready set is
    /// the ready flags, every running op is indexed once under each
    /// endpoint, and the per-node sleeper counts are the sleeping slots.
    #[cfg(debug_assertions)]
    fn check_ledger(&self) {
        let pending = self.pending.iter().map(|op| (op.id, "pending"));
        let running = self.run_order.iter().map(|&s| (self.slots[s].a.id, "running"));
        let held = self.held.iter().map(|&id| (id, "held"));
        let parked = self.parked.iter().map(|&id| (id, "parked"));
        for (id, container) in pending.chain(running).chain(held).chain(parked) {
            let named = match self.ops[id.index()].stage {
                Stage::Pending => "pending",
                Stage::Running { slot } => {
                    assert_eq!(self.slots[slot].a.id, id, "op {}: row names another's slot", id.0);
                    "running"
                }
                Stage::Held(_) => "held",
                Stage::Parked { .. } => "parked",
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
        let mut ready = BTreeSet::new();
        let mut sleepers = vec![0u32; self.sleepers.len()];
        let mut last_inc = None;
        for &slot in &self.run_order {
            let s = &self.slots[slot];
            assert!(last_inc < Some(s.inc), "run_order is not in incarnation order");
            last_inc = Some(s.inc);
            if s.ready {
                ready.insert((s.inc, slot));
            }
            let (a, b) = s.a.endpoints;
            for (node, peer) in [(a, b), (b, a)] {
                let listed = self.by_pair[node.index()].binary_search(&(peer, slot));
                assert!(listed.is_ok(), "slot {slot}: not indexed under ({node}, {peer})");
                sleepers[node.index()] += u32::from(!s.ready);
            }
        }
        assert_eq!(ready, self.ready, "ready set vs ready flags");
        assert_eq!(sleepers, self.sleepers, "per-node sleeper counts vs sleeping slots");
        let indexed: usize = self.by_pair.iter().map(Vec::len).sum();
        assert_eq!(indexed, 2 * self.run_order.len(), "an op indexed twice, or one not running");
        assert!(self.by_pair.iter().all(|v| v.is_sorted()), "pair index out of order");
    }

    /// The retained reference scheduler: round-robin every running op
    /// each pass, scan every deadline and watchdog, `advance(1)` when
    /// nothing progresses. The `sched_equivalence` soak pins the
    /// event-driven scheduler's trace and bills against this.
    fn pump_reference(&mut self, m: &mut Machine) -> usize {
        // Fold any node crash-restarts into protocol state before
        // stepping: erase the crashed endpoint's sessions and caches so
        // the ops observe the restart, not ghosts of the old incarnation.
        m.observe_restarts();
        // Receiver-side GC: epoch-TTL sweep of dead sessions and
        // expired reply-cache entries. Tables owned by live operations
        // are exempt; a clean run sweeps (and bills) nothing.
        self.collect_garbage(m);
        loop {
            if self.supervise(m) {
                continue;
            }
            self.release_recovered(m);
            self.admit(m);
            if self.run_order.is_empty() {
                if self.jump_to_parked(m) {
                    continue;
                }
                return 0;
            }
            let mut progressed = false;
            let mut i = 0;
            let now = clock(m);
            self.counters.passes += 1;
            while i < self.run_order.len() {
                let slot = self.run_order[i];
                self.counters.steps += 1;
                let endpoints = self.slots[slot].a.endpoints;
                let cls = self.class_pre(m, self.slots[slot].a.id, endpoints);
                let stepped = self.slots[slot].a.op.step(m);
                self.class_post(m, cls, endpoints);
                match stepped {
                    Ok(Stepped::Progress) => {
                        let id = self.slots[slot].a.id;
                        self.slots[slot].a.last_progress_at = now;
                        self.record(m, EngineEvent::Progressed(id));
                        progressed = true;
                        i += 1;
                    }
                    Ok(Stepped::Idle) => i += 1,
                    // `finish` takes the slot out of `run_order`: the
                    // next op slides into position `i`.
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
            if progressed {
                continue;
            }
            if self.discard_orphan(m) {
                continue;
            }
            m.advance(1);
            self.counters.advances += 1;
            for i in 0..self.run_order.len() {
                let slot = self.run_order[i];
                self.slots[slot].a.op.tick_n(1);
            }
            return self.unfinished();
        }
    }

    /// The readiness-driven scheduler ([`Engine::pump_until`] describes
    /// its quantum). Same observable semantics as
    /// [`Engine::pump_reference`] — identical trace, identical
    /// per-feature bills — reached with far fewer op steps: idle ops
    /// sleep on their wake conditions; deadlines, watchdogs and
    /// park-resume markers ride the timing wheel instead of being
    /// scanned every quantum; idle jumps never overshoot a scripted
    /// crash-restart.
    ///
    /// Sleeping is *conservative*: a spurious wake costs one cost-free
    /// `Idle` step, while the wake conditions are chosen so an op can
    /// never sleep through a step the reference would have made
    /// non-idle. That is what makes the two schedulers
    /// trace-equivalent.
    ///
    /// A pass visits the ready set in `(inc, slot)` order from a cursor
    /// — `run_order` order, so ops are stepped in the order the
    /// reference sweep reaches them. The visit-time rule: an op woken
    /// mid-pass joins *this* pass iff its `inc` is past the cursor,
    /// which is exactly when the reference sweep would still reach it.
    fn pump_event(&mut self, m: &mut Machine, limit: u64) -> usize {
        let settled = self.completions.len();
        // Restart folding first, same slot the reference gives it; ops
        // with an endpoint at a restarted node wake so their next step
        // observes the `SessionReset`.
        for node in m.observe_restarts() {
            self.touch_node(m, node, Touch::Restart);
        }
        let t = self.profiler.as_ref().map(|_| Instant::now());
        self.absorb_wakes(m);
        self.profile(SchedPhase::WheelAdvance, t);
        self.collect_garbage(m);
        loop {
            if self.supervise(m) {
                continue;
            }
            self.release_recovered(m);
            self.admit(m);
            // Collect clock-free delivery marks (self-sends during
            // `start`, same-cycle fast paths) so the sleepers they
            // concern join the coming pass.
            self.absorb_wakes(m);
            if self.run_order.is_empty() {
                if self.jump_to_parked(m) {
                    // Restart folding waits for the next pump top in
                    // both modes; the wheel catches up so deadlines due
                    // inside the jumped window fire on this iteration.
                    self.absorb_wakes(m);
                    continue;
                }
                return 0;
            }
            let mut progressed = false;
            let now = clock(m);
            self.counters.passes += 1;
            let pass_t = self.profiler.as_ref().map(|_| Instant::now());
            let mut step_ns: u64 = 0;
            let mut cursor = Bound::Unbounded;
            // Whether the op at the cursor is still in the ready set.
            let mut stays = false;
            // Visit-time readiness: an op woken by an earlier op's
            // progress in this pass is found past the cursor and stepped
            // *in this pass* — exactly when the reference sweep would
            // reach it.
            loop {
                // Most passes have no ready op, or the one just stepped:
                // then there is nothing past the cursor to search for.
                if self.ready.len() == usize::from(stays) {
                    break;
                }
                let next = self.ready.range((cursor, Bound::Unbounded)).next();
                let Some(&(inc, slot)) = next else { break };
                cursor = Bound::Excluded((inc, slot));
                self.counters.steps += 1;
                let st = self.profiler.as_ref().map(|_| Instant::now());
                let clock_before = clock(m);
                let endpoints = self.slots[slot].a.endpoints;
                let cls = self.class_pre(m, self.slots[slot].a.id, endpoints);
                let stepped = self.slots[slot].a.op.step(m);
                self.class_post(m, cls, endpoints);
                // Blocking NI waits inside a step advance the substrate
                // clock mid-pass, delivering packets along the way.
                // Absorb those wakes immediately so sleepers at the
                // affected nodes are ready exactly when the reference
                // sweep (which re-steps everyone) would next reach them.
                // Note this burns *clock*, not tick epochs: the
                // reference never ticks ops for in-step cycles.
                if clock(m) != clock_before {
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
            if self.discard_orphan_event(m) {
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
            // Engine-advance time: these are the cycles the reference
            // scheduler would have spent ticking every op once each.
            self.tick_epoch += jump;
            if jump > 1 {
                self.counters.idle_jumps += 1;
                self.counters.jumped_cycles += jump - 1;
            }
            let t = self.profiler.as_ref().map(|_| Instant::now());
            self.absorb_wakes(m);
            self.profile(SchedPhase::WheelAdvance, t);
            return self.unfinished();
        }
    }

    /// Nothing is running (both pump loops share this). If an op is
    /// parked, nothing is runnable until its backoff window closes:
    /// jump the clock there and return `true` so the next iteration
    /// re-admits it. Otherwise the engine is drained — `false`.
    fn jump_to_parked(&mut self, m: &mut Machine) -> bool {
        let resumes = self.parked.iter().filter_map(|id| self.ops[id.index()].resume_at());
        if let Some(resume_at) = resumes.min() {
            let now = clock(m);
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

    fn profile(&mut self, phase: SchedPhase, started: Option<Instant>) {
        if let (Some(t), Some(p)) = (started, self.profiler.as_mut()) {
            p.record(phase, t.elapsed().as_nanos() as u64);
        }
    }

    /// How far the clock may advance in one quantum with every running
    /// op asleep ([`Engine::pump_until`] states the rule): to the next
    /// wheel event, clamped so a scripted crash-restart is observed on
    /// the cycle its window closes — exactly when the reference would
    /// observe it — and, while packets are in flight, to the first
    /// cycle a delivery could wake someone and to the caller's `limit`.
    fn idle_jump(&self, m: &Machine, limit: u64) -> u64 {
        let net = m.network().borrow();
        let now = net.now().cycles();
        let mut until = if net.in_flight() > 0 {
            // The cheap questions first: `pump`'s limit has passed, and
            // a contended fabric answers "next cycle" — neither needs
            // the wheel consulted.
            if limit <= now + 1 {
                return 1;
            }
            let quiet = net.quiet_until().cycles().min(limit);
            if quiet <= now + 1 {
                return 1;
            }
            self.wheel.next_due().map_or(quiet, |due| due.min(quiet))
        } else {
            let Some(due) = self.wheel.next_due() else { return 1 };
            due
        };
        if let Some(r) = net.next_restart_at() {
            until = until.min(r.cycles());
        }
        until.saturating_sub(now).max(1)
    }

    /// Advance the timing wheel to the substrate clock, harvest every
    /// ripe entry, and absorb the substrate's delivery wake set. Wheel
    /// wakes are validated against the slot's incarnation and sleep
    /// generation (slots are reused; sleeps are re-entered); deadline
    /// and watchdog expiries are queued for [`Engine::supervise`].
    fn absorb_wakes(&mut self, m: &mut Machine) {
        let now = clock(m);
        self.wheel.advance_to(now);
        for (_due, _seq, item) in self.wheel.take_ripe() {
            match item {
                WheelItem::Wake { slot, inc, gen } => {
                    let live = self
                        .slots
                        .get(slot)
                        .is_some_and(|s| s.inc == inc && !s.ready && s.sleep_gen == gen);
                    if live {
                        self.counters.timer_wakes += 1;
                        self.wake_slot(slot);
                    }
                }
                WheelItem::Deadline { id } => self.fired_deadlines.push(id),
                WheelItem::Watchdog { slot, inc } => {
                    self.fired_watchdogs.push((slot, inc));
                }
                WheelItem::ParkResume => {}
            }
        }
        for node in m.take_delivered() {
            self.counters.packet_wakes += 1;
            self.touch_node(m, node, Touch::Packet);
        }
    }

    /// Note activity at `node`: mark it for the orphan sweep and wake the
    /// sleepers the touch can concern. Called on substrate deliveries,
    /// crash-restarts, engine stray discards, and whenever an op
    /// progresses or finishes at its endpoints (consumption can reveal
    /// the next queued packet).
    ///
    /// By the [`OpMachine`] contract a sleeper's next step is non-idle
    /// only through its own timer (the wheel's business), a restart of
    /// an endpoint, or a queue head it `claims` — and every `claims`
    /// requires the head's sender to be the op's other endpoint. So, by
    /// cause:
    ///
    /// 1. any touch with a packet at the head wakes the sleepers keyed
    ///    `(node, head.src)` that claim it;
    /// 2. a touch by an op's own progress or finish also wakes the
    ///    sleepers on that op's pair, whatever the head (a handful at
    ///    most): one of them may have slept behind the head this op just
    ///    consumed with a packet of its own still held by a scripted
    ///    substrate, which holds per pair — nothing of its own reaches a
    ///    queue head to wake it by, but its next look at the emptied
    ///    queue releases the packet, as the reference's re-step would;
    /// 3. a restart wakes every op with an endpoint here — the
    ///    `SessionReset` is each one's to observe;
    /// 4. a head sent by the node itself fits no pair key and falls back
    ///    to 3.
    ///
    /// The look at the head is pure ([`Machine::rx_head_at`]): an empty
    /// queue is "no head", never a substrate peek. And when nothing
    /// sleeps here the touch returns before any substrate call.
    fn touch_node(&mut self, m: &Machine, node: NodeId, cause: Touch) {
        self.orphan_dirty.insert(node.index());
        if self.sleepers.get(node.index()).is_none_or(|&n| n == 0) {
            return;
        }
        let woken = match cause {
            Touch::Restart => return self.wake_all_at(node),
            Touch::Pair { peer } => {
                self.wake_pair(node, peer, None);
                Some(peer)
            }
            Touch::Packet => None,
        };
        match m.rx_head_at(node) {
            Some(head) if head.src == node => self.wake_all_at(node),
            // A head from the pair just woken wholesale has no one left
            // to name.
            Some(head) if Some(head.src) != woken => self.wake_pair(node, head.src, Some(&head)),
            _ => {}
        }
    }

    /// [`Engine::touch_node`] at both endpoints of an op that progressed
    /// or finished.
    fn touch_endpoints(&mut self, m: &Machine, (a, b): (NodeId, NodeId)) {
        self.touch_node(m, a, Touch::Pair { peer: b });
        self.touch_node(m, b, Touch::Pair { peer: a });
    }

    /// Where the ops keyed `(node, peer)` start in `by_pair[node]`.
    fn pair_start(&self, node: NodeId, peer: NodeId) -> usize {
        self.by_pair.get(node.index()).map_or(0, |v| v.partition_point(|e| e.0 < peer))
    }

    /// Wake the sleepers keyed `(node, peer)` — those that claim `head`,
    /// or all of them when there is no head to ask about.
    fn wake_pair(&mut self, node: NodeId, peer: NodeId, head: Option<&RxMeta>) {
        let mut k = self.pair_start(node, peer);
        while let Some(&(p, slot)) = self.by_pair[node.index()].get(k) {
            if p != peer {
                break;
            }
            k += 1;
            let s = &self.slots[slot];
            if !s.ready && head.is_none_or(|h| s.a.op.claims(node, h)) {
                self.wake_slot(slot);
            }
        }
    }

    /// Wake every sleeper with an endpoint at `node`.
    fn wake_all_at(&mut self, node: NodeId) {
        for k in 0..self.by_pair[node.index()].len() {
            let slot = self.by_pair[node.index()][k].1;
            self.wake_slot(slot);
        }
    }

    /// Wake a sleeping slot, delivering the timer ticks it slept
    /// through in one lazy batch. Ticks are engine-advance epochs, not
    /// raw clock cycles: a same-epoch wake delivers zero ticks —
    /// preserving `stalled` until an idle advance actually passes,
    /// exactly like the reference (which only clears it on a tick).
    fn wake_slot(&mut self, slot: u32) {
        let epoch = self.tick_epoch;
        let Some(s) = self.slots.get_mut(slot) else { return };
        if s.ready {
            return;
        }
        s.ready = true;
        // Invalidate the outstanding wheel wake for this sleep.
        s.sleep_gen += 1;
        let elapsed = epoch.saturating_sub(s.slept_epoch);
        if elapsed > 0 {
            s.a.op.tick_n(elapsed);
        }
        self.ready.insert((s.inc, slot));
        let (a, b) = s.a.endpoints;
        self.sleepers[a.index()] -= 1;
        self.sleepers[b.index()] -= 1;
    }

    /// Put a slot to sleep after an `Idle` step: record the sleep
    /// anchor, take it out of the ready set, and schedule the op's own
    /// timer wake — the earliest future cycle at which a timer tick
    /// could make its next step non-idle. A touch that concerns it
    /// ([`Engine::touch_node`]) wakes it earlier.
    fn sleep_slot(&mut self, m: &Machine, slot: u32) {
        let now = clock(m);
        let wake_in = self.slots[slot].a.op.wake_in(m.config().max_wait_cycles);
        let epoch = self.tick_epoch;
        let s = &mut self.slots[slot];
        s.ready = false;
        s.slept_epoch = epoch;
        let inc = s.inc;
        if wake_in != u64::MAX {
            let item = WheelItem::Wake { slot, inc, gen: s.sleep_gen };
            self.wheel.insert(now.saturating_add(wake_in), item);
        }
        self.ready.remove(&(inc, slot));
        let (a, b) = s.a.endpoints;
        self.sleepers[a.index()] += 1;
        self.sleepers[b.index()] += 1;
    }

    /// Start an admitted op — a first execution and a recovery
    /// re-execution alike — under its class tag, then move it into the
    /// run arena: allocate its slot, enter it — ready — in the ready set
    /// and the pair index, and arm its no-progress watchdog on the
    /// wheel.
    fn spawn(&mut self, m: &mut Machine, mut a: ActiveOp) {
        self.record(m, EngineEvent::Started(a.id));
        let cls = self.class_pre(m, a.id, a.endpoints);
        a.op.start(m);
        self.class_post(m, cls, a.endpoints);
        let now = clock(m);
        a.last_progress_at = now;
        let (id, endpoints) = (a.id, a.endpoints);
        let inc = self.next_inc;
        self.next_inc += 1;
        let slot = self.slots.insert(RunSlot {
            a,
            inc,
            ready: true,
            slept_epoch: self.tick_epoch,
            sleep_gen: 0,
        });
        self.ops[id.index()].stage = Stage::Running { slot };
        // `inc` only grows, so pushing keeps `run_order` sorted by it.
        self.run_order.push(slot);
        self.ready.insert((inc, slot));
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
        if self.mode == SchedMode::EventDriven {
            let bound = self.watchdog.unwrap_or(4 * m.config().max_wait_cycles);
            let due = now.saturating_add(bound).saturating_add(1);
            self.wheel.insert(due, WheelItem::Watchdog { slot, inc });
        }
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
        let inc = self.slots[slot].inc;
        let idx = self.run_order.binary_search_by_key(&inc, |&r| self.slots[r].inc);
        self.run_order.remove(idx.expect("a running op is in run_order"));
        let s = self.slots.remove(slot);
        let endpoints = s.a.endpoints;
        for (node, peer) in [endpoints, (endpoints.1, endpoints.0)] {
            let list = &mut self.by_pair[node.index()];
            let at = list.binary_search(&(peer, slot)).expect("a running op is indexed by pair");
            list.remove(at);
            self.sleepers[node.index()] -= u32::from(!s.ready);
        }
        self.ready.remove(&(inc, slot));
        // The op's remaining packets just became unclaimed, and a queue
        // head it was about to consume may now be someone else's to
        // reveal: mark both endpoints and wake whom they concern.
        self.touch_endpoints(m, endpoints);
        self.conclude(m, s.a, result);
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
    fn conclude(&mut self, m: &Machine, a: ActiveOp, result: Result<OpOutcome, ProtocolError>) {
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
        let resume_at = clock(m).saturating_add(wait);
        // The parked op keeps its conflict key: queued same-key work
        // must not overtake the re-execution.
        self.ops[id.index()].stage = Stage::Parked { resume_at, op: Box::new(a) };
        self.parked.insert(id);
        if self.mode == SchedMode::EventDriven {
            // Jump-bound marker only: release is decided from the
            // ledger, but the idle jump must not overshoot the resume.
            self.wheel.insert(resume_at, WheelItem::ParkResume);
        }
    }

    /// Re-admit parked ops whose backoff window has closed: reset the
    /// retained state machine (a fresh session epoch is allocated in
    /// `start`) and put it straight back on the running set — its
    /// conflict key never left `busy`.
    fn release_recovered(&mut self, m: &mut Machine) {
        let now = clock(m);
        let due: Vec<OpId> = self
            .parked
            .iter()
            .copied()
            .filter(|id| self.ops[id.index()].resume_at().is_some_and(|at| at <= now))
            .collect();
        for id in due {
            let mut a = self.unpark(id);
            a.op.reset();
            self.spawn(m, a);
        }
    }

    /// Take a parked op out of the ledger row and the `parked` index.
    fn unpark(&mut self, id: OpId) -> ActiveOp {
        self.parked.remove(&id);
        match std::mem::take(&mut self.ops[id.index()].stage) {
            Stage::Parked { op, .. } => *op,
            _ => unreachable!("the parked index names only parked rows"),
        }
    }

    /// Epoch-TTL sweep of receiver-side tables (dead sessions left by
    /// crashed senders, reply-cache entries of long-settled calls).
    /// What an unfinished operation shields is its own to say
    /// ([`OpMachine::gc_exempt`]). The sweep itself happens in
    /// [`Machine::gc_expired`], billed to `Feature::FaultTol` at each
    /// reclaiming receiver.
    fn collect_garbage(&mut self, m: &mut Machine) {
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
        let admitted = self.run_order.iter().map(|&s| &self.slots[s].a).chain(&self.pending);
        let staged = self.held.iter().chain(&self.parked).filter_map(|id| {
            match &self.ops[id.index()].stage {
                Stage::Held(h) => Some((&h.op, false)),
                Stage::Parked { op, .. } => Some((&**op, true)),
                _ => None,
            }
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

    /// Discard one reserved-tag packet claimed by no active operation
    /// (a stale duplicate of an already-completed operation). Charged
    /// with the same instruction shape the blocking recovery paths used
    /// for stray discards. Returns `true` if something was discarded.
    fn discard_orphan(&mut self, m: &mut Machine) -> bool {
        for node in (0..m.num_nodes()).map(NodeId::new) {
            if m.rx_peek_at(node).is_some_and(|meta| self.orphaned(node, &meta, true)) {
                m.discard_stray(node);
                return true;
            }
        }
        false
    }

    /// Is the packet at `node`'s queue head discardable? Reserved
    /// protocol tags are engine-owned. User-tag packets carrying a
    /// nonzero header are recovery-stamped am4 sends (plain user traffic
    /// always rides header 0) and equally discardable once no running
    /// op claims their token.
    ///
    /// `by_scan` asks every running op (the reference's oracle);
    /// otherwise only the ops keyed `(node, meta.src)` are asked — every
    /// `claims` requires the sender to be the op's other endpoint, so no
    /// one else can. A packet the node sent itself fits no pair key and
    /// is scanned for.
    fn orphaned(&self, node: NodeId, meta: &RxMeta, by_scan: bool) -> bool {
        let reserved = meta.tag < Tags::USER_BASE || meta.tag == Tags::RPC_REPLY;
        if !reserved && meta.header == 0 {
            return false;
        }
        let claims = |slot: u32| self.slots[slot].a.op.claims(node, meta);
        if by_scan || meta.src == node {
            return !self.run_order.iter().any(|&slot| claims(slot));
        }
        let keyed = self.by_pair.get(node.index()).map_or(&[][..], Vec::as_slice);
        let keyed = &keyed[self.pair_start(node, meta.src)..];
        !keyed.iter().take_while(|e| e.0 == meta.src).any(|e| claims(e.1))
    }

    /// Event-mode orphan discard: same decision as
    /// [`Engine::discard_orphan`], but only nodes with packet activity
    /// since their last clean verdict are examined. Every path that can
    /// surface a discardable head marks the node dirty (deliveries,
    /// restarts, claimant progress/finish, prior discards), so the
    /// dirty set is a superset of the nodes the full scan could act on.
    fn discard_orphan_event(&mut self, m: &mut Machine) -> bool {
        while let Some(&ni) = self.orphan_dirty.iter().next() {
            let node = NodeId::new(ni);
            if !m.rx_head_at(node).is_some_and(|meta| self.orphaned(node, &meta, false)) {
                self.orphan_dirty.remove(&ni);
                continue;
            }
            m.discard_stray(node);
            // The next queued packet (if any) surfaced: leave the node
            // dirty and wake whom it concerns.
            self.touch_node(m, node, Touch::Packet);
            return true;
        }
        debug_assert!(
            !self.discard_scan_would_find(m),
            "orphan-dirty set missed a discardable packet"
        );
        false
    }

    /// Debug cross-check for [`Engine::discard_orphan_event`]: would the
    /// reference full scan have discarded something the dirty scan just
    /// declared absent?
    fn discard_scan_would_find(&self, m: &Machine) -> bool {
        (0..m.num_nodes())
            .map(NodeId::new)
            .any(|node| m.rx_head_at(node).is_some_and(|meta| self.orphaned(node, &meta, true)))
    }

    // -----------------------------------------------------------------
    // Supervision: deadlines, watchdog, cancellation, quiesce.
    // -----------------------------------------------------------------

    /// Override the per-operation no-progress watchdog bound (cycles an
    /// admitted operation may go without a `Progressed` event before the
    /// engine settles it with [`ProtocolError::DeadlineExceeded`]). The
    /// default, `4 × max_wait_cycles`, is deliberately looser than every
    /// protocol's own internal timeout so op-level errors fire first.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog = Some(cycles);
        if self.mode == SchedMode::EventDriven {
            // Arm fresh wheel entries under the new bound: a shrunken
            // bound must not wait out entries armed under the old one.
            for &slot in &self.run_order {
                let s = &self.slots[slot];
                let due = s.a.last_progress_at.saturating_add(cycles).saturating_add(1);
                self.wheel.insert(due, WheelItem::Watchdog { slot, inc: s.inc });
            }
        }
    }

    /// Cancel an unfinished operation wherever it is (running, pending,
    /// or held): it settles with [`ProtocolError::Cancelled`], its
    /// conflict key is released, and dependents fail with
    /// [`ProtocolError::DependencyFailed`] whose root is the
    /// cancellation. Returns `false` if the id was already finished (or
    /// never submitted). In-flight packets of a cancelled operation are
    /// left to the orphan-discard sweep.
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

    /// Enforce deadlines and the no-progress watchdog. Returns `true`
    /// if any operation was settled (the pump loop restarts its sweep
    /// so released conflict keys are re-admitted in the same quantum).
    ///
    /// The modes differ only in where candidates come from: the
    /// reference scans every armed deadline and running op, the event
    /// mode only what the wheel has fired. Wheel entries are never
    /// cancelled, so each candidate is validated against current state
    /// — a settled op's deadline is dropped, the watchdog of an op that
    /// progressed since is re-armed at its pushed-out expiry. Expiry
    /// order is shared: deadlines by `OpId`, then starved ops in run
    /// order.
    fn supervise(&mut self, m: &Machine) -> bool {
        let event = self.mode == SchedMode::EventDriven;
        let (deadlines, watchdogs): (Vec<OpId>, Vec<(u32, u64)>) = if event {
            if self.fired_deadlines.is_empty() && self.fired_watchdogs.is_empty() {
                return false;
            }
            let mut deadlines = std::mem::take(&mut self.fired_deadlines);
            deadlines.sort_unstable();
            let mut watchdogs = std::mem::take(&mut self.fired_watchdogs);
            // Fired order is wheel (due, seq) order: re-sort into run
            // order, which is `inc` order.
            watchdogs.sort_unstable_by_key(|&(_, inc)| inc);
            (deadlines, watchdogs)
        } else {
            let running = self.run_order.iter().map(|&s| (s, self.slots[s].inc));
            (self.deadlines.iter().copied().collect(), running.collect())
        };
        let now = clock(m);
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
        let bound = self.watchdog.unwrap_or(4 * m.config().max_wait_cycles);
        for (slot, inc) in watchdogs {
            // Slots are reused: the incarnation tells whether this is
            // still the op the entry was armed for.
            let Some(s) = self.slots.get(slot).filter(|s| s.inc == inc) else { continue };
            let (id, last) = (s.a.id, s.a.last_progress_at);
            if now.saturating_sub(last) > bound {
                let err = ProtocolError::DeadlineExceeded { what: "watchdog", cycles: now - last };
                acted |= self.expire(m, id, err);
            } else if event {
                let due = last.saturating_add(bound).saturating_add(1);
                self.wheel.insert(due, WheelItem::Watchdog { slot, inc });
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
        let waiting: Vec<OpId> = self
            .pending
            .iter()
            .map(|op| op.id)
            .chain(self.held.iter().copied())
            .chain(self.parked.iter().copied())
            .collect();
        for id in waiting {
            self.cancel(m, id);
        }
        self.run(m);
        let mut drained = 0;
        let mut guard = 0;
        loop {
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

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use timego_netsim::{
        DeliveryScript, Guarantees, InjectError, NetStats, Network, Packet, ScriptedNetwork, Time,
    };
    use timego_ni::share;

    use super::*;
    use crate::machine::CmamConfig;

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
        let held = Packet::new(n(2), n(1), 50, 0, vec![7]);
        m.network().borrow_mut().try_inject(held).expect("accepted");
        assert_eq!((m.network().borrow().rx_pending(n(1)), m.network().borrow().in_flight()), (0, 1));

        let before = peeks.get();
        eng.touch_node(&m, n(1), Touch::Packet);
        assert!(!eng.slots[slot].ready, "an empty queue names no claimant");
        eng.touch_node(&m, n(2), Touch::Pair { peer: n(0) });
        eng.touch_node(&m, n(1), Touch::Restart);
        assert!(eng.slots[slot].ready, "a restart wakes every op at the node");
        eng.sleep_slot(&m, slot);
        eng.touch_node(&m, n(1), Touch::Pair { peer: n(0) });
        assert!(eng.slots[slot].ready, "its own pair's progress wakes the sleeper");
        assert_eq!(peeks.get(), before, "no touch peeked an empty queue");
        assert_eq!(m.network().borrow().in_flight(), 1, "the held packet is still held");

        // A packet at the head is looked at once, and wakes its claimant.
        eng.sleep_slot(&m, slot);
        let reply = Packet::new(n(0), n(1), Tags::XFER_REPLY, 0, vec![0; 4]);
        m.network().borrow_mut().try_inject(reply).expect("accepted");
        m.advance(1);
        eng.touch_node(&m, n(1), Touch::Packet);
        assert_eq!(peeks.get(), before + 1);
        assert!(eng.slots[slot].ready, "the head's claimant wakes");
    }
}
