//! Event-driven protocol engine: concurrent per-node protocol state
//! machines replacing the world-driving blocking loops.
//!
//! Each in-flight operation (finite transfer, reliable transfer, stream
//! send, RPC, active message) is a state machine whose `step` performs
//! exactly one iteration of the corresponding blocking driver loop —
//! minus the `advance(1)` the blocking loop used to pass time. The
//! [`Engine`] owns the clock and schedules by *readiness*: an operation
//! whose step finds nothing to do sleeps until a packet touches one of
//! its endpoints or its own timer (retry window, timeout, RTO) comes
//! due on the timing wheel, and a pass steps only operations that are
//! awake. When a pass makes no progress, time passes — one cycle while
//! packets are in flight, otherwise an *idle jump* straight to the next
//! wheel event — and a sleeper receives the timer ticks it slept
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
//! lifecycle stage — and with it the held state machine or the parked
//! resume cycle — the modifiers landed at submission (class, deadline
//! budget, recovery recipe and re-execution count), the run-after
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
//! worker-thread count, and idle clock-jumps hand the substrate one
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
//! no id, call id or trace event), then lands the id, the state
//! machine and every modifier together with the `Submitted` event. A
//! new family is one constructor; a new option is one modifier.
//! [`Engine::submit_xfer`] is shorthand for the commonest case.
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
use std::time::Instant;

use timego_cost::{CostVector, Feature, Fine};
use timego_netsim::{LatencyStats, NodeId, RxMeta};
use timego_ni::Addr;

use crate::am::PollOutcome;
use crate::costs::{recovery, segment, xfer_order, xfer_recv, xfer_send};
use crate::error::ProtocolError;
use crate::machine::{Machine, SessionEntry, Tags};
use crate::retry::{RecoveryPolicy, RetryPolicy};
use crate::rpc::RpcEvent;
use crate::sched::{SchedCounters, SchedMode, SchedPhase, SchedProfiler, Slab, TimingWheel};
use crate::stream::{StreamId, StreamOutcome};
use crate::xfer::{PayloadEngine, XferOutcome, XferRx};
use crate::xfer_reliable::{ReliableOutcome, OFFSET_BITS, OFFSET_MASK};

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

/// One step's verdict.
enum Stepped {
    /// The operation did real protocol work this step.
    Progress,
    /// Nothing to do until the world changes (a packet arrives or a
    /// cycle passes).
    Idle,
    /// The operation finished.
    Done(OpOutcome),
}

/// Conflict key: operations with equal keys are serialized.
type ConflictKey = (u8, NodeId, NodeId);

const CLASS_XFER: u8 = 0;
const CLASS_STREAM: u8 = 1;
const CLASS_AM: u8 = 2;

impl ActiveOp {
    /// `body` as a fresh state machine, for a first execution and a
    /// recovery re-execution alike.
    fn new(id: OpId, body: OpBody, m: &Machine, managed: bool) -> Self {
        let (key, endpoints) = (body.conflict_key(m), body.endpoints(m));
        ActiveOp { id, op: body.build(m, managed), key, endpoints, last_progress_at: 0 }
    }
}

struct ActiveOp {
    id: OpId,
    op: OpKind,
    /// Operations with equal keys are serialized ([`OpBody::conflict_key`]).
    key: Option<ConflictKey>,
    /// The two endpoint nodes whose packet activity can change this
    /// op's behavior — what the event scheduler subscribes it to, and
    /// where the class plane looks for its cost.
    endpoints: (NodeId, NodeId),
    /// Substrate clock at admission / last step that made progress —
    /// what the no-progress watchdog measures against.
    last_progress_at: u64,
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
    /// Admitted, in a run slot (`Engine::slots` / `run_order`).
    Running,
    /// Between recovery executions, indexed by `Engine::parked`: no
    /// state machine exists, the conflict key stays busy, and the
    /// backoff window closes at substrate cycle `resume_at`.
    Parked { resume_at: u64 },
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
    /// Landed by [`Op::recovering`]. Dropped at settlement — it pins a
    /// payload clone — while `re_executions` stays answerable.
    recovery: Option<Box<RecoveryRecipe>>,
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
            Stage::Parked { resume_at } => Some(resume_at),
            _ => None,
        }
    }
}

/// One admitted operation's scheduler slot in the run arena. Both
/// scheduler modes share this storage; the readiness fields (`ready`,
/// `slept_epoch`, `sleep_gen`, `subbed`) are only consulted by the
/// event-driven mode — the reference round-robin sweeps every slot in
/// `run_order` regardless.
struct RunSlot {
    a: ActiveOp,
    /// Incarnation number, unique across the engine's lifetime. Slab
    /// slots are reused, so timing-wheel entries validate `(slot, inc)`
    /// before acting.
    inc: u64,
    /// Eligible to be stepped this sweep. Cleared when a step returns
    /// `Idle` (the op goes to sleep on its wake conditions), set again
    /// by a packet touch or wheel timer.
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
    /// Whether this op currently holds a live entry in the subscriber
    /// list of `endpoints().0` / `endpoints().1` respectively. Lists
    /// hold only *sleeping* ops and are drained wholesale on touch, so
    /// a touch at a hot node costs its sleeper count, not its lifetime
    /// subscriber count; these flags keep re-sleeps from pushing
    /// duplicate entries while an undrained one is still queued.
    subbed: [bool; 2],
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

/// Re-execution recipe for one recovery-armed operation (see
/// [`RecoveryPolicy`] and [`Op::recovering`]).
struct RecoveryRecipe {
    /// The resolved body the operation was submitted with; every
    /// re-execution is [`OpBody::build`] over a clone of it.
    body: OpBody,
    policy: RecoveryPolicy,
}

/// The family-specific half of an [`Op`]: what to run, between whom.
///
/// `call_id`, `token` and `resume_base` are *resolved* fields — zero /
/// `None` as constructed, filled in by the engine — and they are where
/// exactly-once semantics need continuity across re-executions: an RPC
/// re-execution reuses its call id so the callee's reply cache
/// deduplicates a handler that already ran, a recovering am4 keeps its
/// delivery token, and a stream re-execution resumes at the receiver's
/// contiguous mark instead of re-sending delivered packets. Everything
/// else is rebuilt from first principles (a fresh `start` allocates a
/// fresh session epoch).
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
        /// First sequence number of the burst, learned from the first
        /// execution's `start` (earlier same-stream sends may still be
        /// advancing the sequence at submission time).
        resume_base: Option<u64>,
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
    /// `(source, destination)`. The source is where recovery work is
    /// billed.
    ///
    /// # Panics
    ///
    /// Panics on a stream id the machine never opened (submission
    /// rejects those before anything calls this).
    fn endpoints(&self, m: &Machine) -> (NodeId, NodeId) {
        match self {
            OpBody::Xfer { src, dst, .. }
            | OpBody::Reliable { src, dst, .. }
            | OpBody::Rpc { src, dst, .. }
            | OpBody::Am4 { src, dst, .. } => (*src, *dst),
            OpBody::Stream { id, .. } => {
                let st = m.stream_state(*id);
                (st.src, st.dst)
            }
        }
    }

    /// Operations with equal keys are serialized; `None` never
    /// conflicts. Answerable while the op is parked (no live [`OpKind`]
    /// exists between executions).
    fn conflict_key(&self, m: &Machine) -> Option<ConflictKey> {
        let class = match self {
            OpBody::Xfer { .. } | OpBody::Reliable { .. } => CLASS_XFER,
            OpBody::Stream { .. } => CLASS_STREAM,
            OpBody::Rpc { .. } => return None,
            OpBody::Am4 { .. } => CLASS_AM,
        };
        let (src, dst) = self.endpoints(m);
        Some((class, src, dst))
    }

    /// Build a fresh state machine — the one constructor behind the
    /// first execution and every recovery re-execution. `managed` marks
    /// the op as recovery-managed (see [`Op::recovering`]).
    fn build(self, m: &Machine, managed: bool) -> OpKind {
        let n = m.config().packet_words;
        match self {
            OpBody::Xfer { src, dst, data, engine } => {
                OpKind::Xfer(XferOp::new(src, dst, data, engine, n))
            }
            OpBody::Reliable { src, dst, data, policy } => {
                OpKind::Reliable(ReliableOp::new(src, dst, data, n, policy))
            }
            OpBody::Stream { id, data, resume_base } => {
                let st = m.stream_state(id);
                let mut op = StreamOp::new(id, st.src, st.dst, data, n, st.rto_iterations());
                op.resume_base = resume_base;
                OpKind::Stream(op)
            }
            OpBody::Rpc { src, dst, tag, args, policy, call_id } => {
                OpKind::Rpc(RpcOp::new(src, dst, tag, args, call_id, policy, managed))
            }
            OpBody::Am4 { src, dst, tag, words, token } => {
                OpKind::Am4(Am4Op::new(src, dst, tag, words, token, managed))
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
        Op::new(OpBody::Stream { id, data: data.to_vec(), resume_base: None })
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
        if let OpBody::Stream { id, .. } = &self.body {
            if !m.has_stream(*id) {
                return bad("stream id was not opened on this machine".into());
            }
        }
        let (src, dst) = self.body.endpoints(m);
        for (field, node) in [("src", src), ("dst", dst)] {
            if node.index() >= m.num_nodes() {
                return bad(format!("{field} {node} is out of range ({} nodes)", m.num_nodes()));
            }
        }
        if src == dst {
            return bad(format!("src and dst are both {src}; endpoints must differ"));
        }
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

enum OpKind {
    Xfer(XferOp),
    Reliable(ReliableOp),
    Stream(StreamOp),
    Rpc(RpcOp),
    Am4(Am4Op),
}

impl OpKind {
    fn start(&mut self, m: &mut Machine) {
        match self {
            OpKind::Xfer(op) => op.start(m),
            OpKind::Reliable(op) => op.start(m),
            OpKind::Stream(op) => op.start(m),
            OpKind::Rpc(op) => op.start(m),
            OpKind::Am4(op) => op.start(m),
        }
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        match self {
            OpKind::Xfer(op) => op.step(m),
            OpKind::Reliable(op) => op.step(m),
            OpKind::Stream(op) => op.step(m),
            OpKind::Rpc(op) => op.step(m),
            OpKind::Am4(op) => op.step(m),
        }
    }

    /// Deliver `k` timer ticks at once — exactly what `k` consecutive
    /// single ticks with no intervening steps would do. The
    /// event scheduler ticks sleeping ops lazily on wake, and a
    /// sleeping op by construction takes no steps in between, so the
    /// per-op closed forms are exact. `k == 0` is a no-op: a same-cycle
    /// wake must preserve `stalled` (the reference only clears it when
    /// a cycle actually passes).
    fn tick_n(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        match self {
            OpKind::Xfer(op) => op.tick_n(k),
            OpKind::Reliable(op) => op.tick_n(k),
            OpKind::Stream(op) => op.tick_n(k),
            OpKind::Rpc(op) => op.tick_n(k),
            OpKind::Am4(op) => op.tick_n(k),
        }
    }

    /// Cycles until this op's next step could be anything but a
    /// cost-free `Idle`, absent packet activity at its endpoints (which
    /// wakes it earlier). `u64::MAX` means purely packet-driven — no
    /// timer tick alone can change its behavior (the no-progress
    /// watchdog still bounds how long it can sleep). Conservative by
    /// design: waking early costs one traceless idle step; waking late
    /// would diverge from the reference scheduler.
    fn wake_in(&self, m: &Machine) -> u64 {
        let max_wait = m.config().max_wait_cycles;
        match self {
            OpKind::Xfer(op) => op.wake_in(max_wait),
            OpKind::Reliable(op) => op.wake_in(max_wait),
            OpKind::Stream(op) => op.wake_in(max_wait),
            OpKind::Rpc(op) => op.wake_in(max_wait),
            OpKind::Am4(op) => op.wake_in(max_wait),
        }
    }

    /// Does a reserved-tag packet at `node`'s queue head belong to this
    /// operation? Claims are pair-wide and conservative: anything an
    /// operation might still consume must be claimed, or the engine's
    /// orphan discard would eat it.
    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        const XFER_TAGS: [u8; 6] = [
            Tags::XFER_REQ,
            Tags::XFER_REPLY,
            Tags::XFER_DATA,
            Tags::XFER_ACK,
            Tags::XFER_NACK,
            Tags::XFER_PROBE,
        ];
        match self {
            OpKind::Xfer(op) => {
                pairwise(node, meta.src, op.src, op.dst) && XFER_TAGS.contains(&meta.tag)
            }
            OpKind::Reliable(op) => {
                pairwise(node, meta.src, op.src, op.dst) && XFER_TAGS.contains(&meta.tag)
            }
            OpKind::Stream(op) => {
                pairwise(node, meta.src, op.src, op.dst)
                    && (meta.tag == Tags::STREAM_DATA || meta.tag == Tags::STREAM_ACK)
            }
            OpKind::Rpc(op) => {
                (node == op.dst && meta.src == op.src && meta.tag == op.tag)
                    || (node == op.src
                        && meta.src == op.dst
                        && meta.tag == Tags::RPC_REPLY
                        && meta.header == op.call_id as u32)
            }
            OpKind::Am4(op) => {
                node == op.dst
                    && meta.src == op.src
                    && meta.tag == op.tag
                    && meta.header == op.token
            }
        }
    }
}

fn pairwise(node: NodeId, pkt_src: NodeId, a: NodeId, b: NodeId) -> bool {
    (node == a || node == b) && (pkt_src == a || pkt_src == b)
}

/// The substrate clock, as raw network cycles (cost-free introspection).
fn clock(m: &Machine) -> u64 {
    m.network().borrow().now().cycles()
}

/// Ticks until a `waited`-style counter first *exceeds* `bound` (the
/// protocols' window checks are all `waited > bound`), clamped to at
/// least one cycle out.
fn win(bound: u64, waited: u64) -> u64 {
    bound.saturating_add(1).saturating_sub(waited).max(1)
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
    // node index -> `(slot, inc, endpoint idx)` entries for ops
    // currently *sleeping* on packet activity at that node. Pushed by
    // `sleep_slot`, drained wholesale by `touch_node` (waking each
    // still-valid sleeper), so the total list work is bounded by the
    // number of sleeps rather than touches x lifetime subscribers —
    // the difference between O(n) and O(n^2) under hotspot traffic.
    node_subs: Vec<Vec<(u32, u64, u8)>>,
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

    /// The one submission path, past validation: open the op's ledger
    /// row with every modifier landed, build the state machine, then
    /// either release the operation into the admission queue or hold it
    /// until its predecessors complete.
    fn enqueue(&mut self, m: &Machine, op: Op) -> OpId {
        let Op { body, after, recovery, deadline, class } = op;
        let id = OpId(self.ops.len() as u64);
        let managed = recovery.is_some();
        let (op, recovery) = match recovery {
            // The one extra payload copy recovery costs: the body stays
            // behind as the re-execution recipe.
            Some(policy) if policy.max_executions > 1 => {
                let op = ActiveOp::new(id, body.clone(), m, managed);
                (op, Some(Box::new(RecoveryRecipe { body, policy })))
            }
            _ => (ActiveOp::new(id, body, m, managed), None),
        };
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
    /// failure does not abort the others.
    pub fn run(&mut self, m: &mut Machine) {
        while self.unfinished() > 0 {
            self.pump(m);
        }
    }

    /// One scheduler quantum: expire what supervision says is due,
    /// admit what is admissible, and step every *ready* operation in
    /// admission order, repeating until a pass makes no progress; then
    /// let time pass — one cycle while packets are in flight, or an
    /// *idle jump* straight to the next timer-wheel event when the
    /// fabric is empty. An operation whose step finds nothing to do
    /// leaves the ready set until a packet touches one of its endpoints
    /// or its own timer comes due (it then receives the ticks it slept
    /// through at once), so a quantum costs the runnable work, not the
    /// operations in flight. [`SchedMode::ReferenceRoundRobin`] instead
    /// steps everything every pass and always advances one cycle, for
    /// the identical trace and bills. Returns the number of operations
    /// still unfinished.
    ///
    /// This is the open-loop building block: a paced driver alternates
    /// `pump` with [`Engine::submit`] calls to inject new operations at a
    /// controlled offered rate while earlier ones are still in flight
    /// ([`Engine::run`] is just `pump` until nothing is left). When the
    /// engine is empty, `pump` advances the clock one cycle so a driver
    /// waiting for its next injection slot still makes time pass.
    pub fn pump(&mut self, m: &mut Machine) -> usize {
        self.counters.quanta += 1;
        if self.unfinished() == 0 {
            m.advance(1);
            self.counters.advances += 1;
            return 0;
        }
        let left = match self.mode {
            SchedMode::EventDriven => self.pump_event(m),
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
    /// (power-of-two quanta, and whenever the engine drains).
    #[cfg(debug_assertions)]
    fn check_ledger(&self) {
        let pending = self.pending.iter().map(|op| (op.id, "pending"));
        let running = self.run_order.iter().map(|&s| (self.slots[s].a.id, "running"));
        let held = self.held.iter().map(|&id| (id, "held"));
        let parked = self.parked.iter().map(|&id| (id, "parked"));
        for (id, container) in pending.chain(running).chain(held).chain(parked) {
            let named = match self.ops[id.index()].stage {
                Stage::Pending => "pending",
                Stage::Running => "running",
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
        }
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
                    Ok(Stepped::Done(out)) => {
                        self.finish(m, i, Ok(out));
                        progressed = true;
                    }
                    Err(e) => {
                        self.finish(m, i, Err(e));
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

    /// The readiness-driven scheduler ([`Engine::pump`] describes its
    /// quantum). Same observable semantics as
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
    fn pump_event(&mut self, m: &mut Machine) -> usize {
        // Restart folding first, same slot the reference gives it; ops
        // subscribed at a restarted endpoint wake so their next step
        // observes the `SessionReset`.
        for node in m.observe_restarts() {
            self.touch_node(node);
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
            // `start`, same-cycle fast paths) so sleepers subscribed at
            // those nodes join the coming pass.
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
            let mut i = 0;
            let now = clock(m);
            self.counters.passes += 1;
            let pass_t = self.profiler.as_ref().map(|_| Instant::now());
            let mut step_ns: u64 = 0;
            while i < self.run_order.len() {
                let slot = self.run_order[i];
                // Visit-time readiness: an op woken by an earlier op's
                // progress in this pass is stepped *in this pass* —
                // exactly when the reference sweep would reach it.
                if !self.slots[slot].ready {
                    i += 1;
                    continue;
                }
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
                match stepped {
                    Ok(Stepped::Progress) => {
                        let id = self.slots[slot].a.id;
                        self.slots[slot].a.last_progress_at = now;
                        self.record(m, EngineEvent::Progressed(id));
                        // Progress may have consumed or injected at the
                        // endpoints, revealing queued packets there:
                        // wake the subscribers and mark the orphan
                        // sweep.
                        self.touch_node(endpoints.0);
                        self.touch_node(endpoints.1);
                        progressed = true;
                        i += 1;
                    }
                    Ok(Stepped::Idle) => {
                        self.sleep_slot(m, slot);
                        i += 1;
                    }
                    Ok(Stepped::Done(out)) => {
                        self.finish(m, i, Ok(out));
                        progressed = true;
                    }
                    Err(e) => {
                        self.finish(m, i, Err(e));
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
            // progressed — and we looped — or idled and slept). With
            // traffic in flight a delivery can wake someone next cycle;
            // with the fabric empty nothing observable happens before
            // the next wheel event, so jump the clock straight there.
            let jump = self.idle_jump(m);
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
    /// op asleep. One cycle while packets are in flight (a delivery can
    /// wake someone); otherwise straight to the next wheel event,
    /// clamped so a scripted crash-restart is observed on the cycle its
    /// window closes — exactly when the reference would observe it.
    fn idle_jump(&self, m: &Machine) -> u64 {
        let net = m.network().borrow();
        if net.in_flight() > 0 {
            return 1;
        }
        let Some(mut due) = self.wheel.next_due() else { return 1 };
        if let Some(r) = net.next_restart_at() {
            due = due.min(r.cycles());
        }
        due.saturating_sub(net.now().cycles()).max(1)
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
            self.touch_node(node);
        }
    }

    /// Note packet activity at `node`: mark it for the orphan sweep and
    /// wake every op sleeping there. Called on substrate deliveries,
    /// crash-restarts, engine stray discards, and whenever an op
    /// progresses or finishes at its endpoints (consumption can reveal
    /// the next queued packet). Consumes the node's subscriber entries
    /// — woken ops re-subscribe when they next sleep — and skips stale
    /// entries whose slot was reused (incarnation mismatch).
    fn touch_node(&mut self, node: NodeId) {
        self.orphan_dirty.insert(node.index());
        if node.index() >= self.node_subs.len() {
            return;
        }
        let mut subs = std::mem::take(&mut self.node_subs[node.index()]);
        for &(slot, inc, ep) in &subs {
            let Some(s) = self.slots.get_mut(slot) else { continue };
            if s.inc != inc {
                continue;
            }
            s.subbed[ep as usize] = false;
            self.wake_slot(slot);
        }
        // Hand the emptied allocation back for the next sleepers.
        subs.clear();
        self.node_subs[node.index()] = subs;
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
        s.a.op.tick_n(elapsed);
    }

    /// Put a slot to sleep after an `Idle` step: record the sleep
    /// anchor, subscribe its endpoints for packet wakes, and schedule
    /// the op's own timer wake — the earliest future cycle at which a
    /// timer tick could make its next step non-idle. Packet activity at
    /// its endpoints wakes it earlier.
    fn sleep_slot(&mut self, m: &Machine, slot: u32) {
        let now = clock(m);
        let wake_in = self.slots[slot].a.op.wake_in(m);
        let endpoints = self.slots[slot].a.endpoints;
        let epoch = self.tick_epoch;
        let s = &mut self.slots[slot];
        s.ready = false;
        s.slept_epoch = epoch;
        let inc = s.inc;
        if wake_in != u64::MAX {
            let item = WheelItem::Wake { slot, inc, gen: s.sleep_gen };
            self.wheel.insert(now.saturating_add(wake_in), item);
        }
        // Re-subscribe endpoints whose entry was consumed by a touch
        // since the last sleep; a wake that didn't come through
        // `touch_node` (timer, spurious) leaves the entries queued, so
        // the flags keep this duplicate-free.
        for (ep, node) in [endpoints.0, endpoints.1].into_iter().enumerate() {
            if self.slots[slot].subbed[ep] {
                continue;
            }
            self.slots[slot].subbed[ep] = true;
            let ni = node.index();
            if ni >= self.node_subs.len() {
                self.node_subs.resize_with(ni + 1, Vec::new);
            }
            self.node_subs[ni].push((slot, inc, ep as u8));
        }
    }

    /// Start an admitted op — a first execution and a recovery
    /// re-execution alike — under its class tag, then move it into the
    /// run arena: allocate its slot and arm its no-progress watchdog on
    /// the wheel. Endpoint subscriptions happen lazily on first sleep —
    /// the op spawns ready.
    fn spawn(&mut self, m: &mut Machine, mut a: ActiveOp) {
        self.record(m, EngineEvent::Started(a.id));
        self.ops[a.id.index()].stage = Stage::Running;
        let cls = self.class_pre(m, a.id, a.endpoints);
        a.op.start(m);
        self.class_post(m, cls, a.endpoints);
        let now = clock(m);
        a.last_progress_at = now;
        let inc = self.next_inc;
        self.next_inc += 1;
        let slot = self.slots.insert(RunSlot {
            a,
            inc,
            ready: true,
            slept_epoch: self.tick_epoch,
            sleep_gen: 0,
            subbed: [false; 2],
        });
        self.run_order.push(slot);
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

    fn finish(&mut self, m: &Machine, idx: usize, result: Result<OpOutcome, ProtocolError>) {
        let slot = self.run_order.remove(idx);
        let s = self.slots.remove(slot);
        let endpoints = s.a.endpoints;
        // Any subscriber entries the op still holds go stale with its
        // slot: touches validate the incarnation and drop them lazily.
        // The op's remaining packets just became unclaimed, and a queue
        // head it was about to consume may now be someone else's to
        // reveal: mark both endpoints and wake their subscribers.
        self.touch_node(endpoints.0);
        self.touch_node(endpoints.1);
        if self.try_recover(m, s.a.id, Some(&s.a.op), &result) {
            // The parked op keeps its conflict key: queued same-key
            // work must not overtake the re-execution.
            return;
        }
        if let Some(k) = s.a.key {
            self.busy.remove(&k);
        }
        self.settle(m, s.a.id, result);
    }

    /// Engine-native recovery decision: a retryable failure of a
    /// recovery-armed op with budget left *parks* the op for its
    /// backoff window instead of settling it, billing the
    /// session-restart instruction shape to `Feature::FaultTol` at the
    /// op's source — the same shape (and feature) the caller-side
    /// restart loop this replaces used to bill. Returns `true` if the
    /// op was parked.
    fn try_recover(
        &mut self,
        m: &Machine,
        id: OpId,
        op: Option<&OpKind>,
        result: &Result<OpOutcome, ProtocolError>,
    ) -> bool {
        let Err(err) = result else { return false };
        if !err.is_retryable() {
            return false;
        }
        let entry = &self.ops[id.index()];
        let Some(recipe) = &entry.recovery else { return false };
        if entry.re_executions + 1 >= recipe.policy.max_executions {
            return false;
        }
        // The class retry budget is spent *before* parking: a denial
        // means the failure settles normally (and is counted), capping
        // recovery amplification under correlated failure.
        if !self.charge_retry_budget(m, id) {
            return false;
        }
        let entry = &mut self.ops[id.index()];
        let recipe = entry.recovery.as_mut().expect("recovery recipe just checked");
        // A failed first execution teaches the stream recipe its base
        // sequence, so re-executions resume the burst (exactly-once)
        // instead of restarting it at a fresh sequence range.
        if let (OpBody::Stream { resume_base, .. }, Some(OpKind::Stream(s))) =
            (&mut recipe.body, op)
        {
            resume_base.get_or_insert(s.first_seq);
        }
        entry.re_executions += 1;
        let wait = recipe.policy.window(entry.re_executions);
        let src = recipe.body.endpoints(m).0;
        let cpu = m.cpu(src);
        let cls = self.class_pre(m, id, (src, src));
        cpu.with_feature(Feature::FaultTol, |c| {
            c.reg(Fine::RegOp, recovery::SESSION_RESTART_REG);
            c.mem_store(recovery::SESSION_RESTART_MEM);
        });
        self.class_post(m, cls, (src, src));
        self.record(m, EngineEvent::Recovering(id));
        let resume_at = clock(m).saturating_add(wait);
        self.ops[id.index()].stage = Stage::Parked { resume_at };
        self.parked.insert(id);
        if self.mode == SchedMode::EventDriven {
            // Jump-bound marker only: release is decided from the
            // ledger, but the idle jump must not overshoot the resume.
            self.wheel.insert(resume_at, WheelItem::ParkResume);
        }
        true
    }

    /// Re-admit parked ops whose backoff window has closed: rebuild the
    /// state machine from its recovery recipe (a fresh session epoch is
    /// allocated in `start`) and put it straight back on the running
    /// set — its conflict key never left `busy`.
    fn release_recovered(&mut self, m: &mut Machine) {
        let now = clock(m);
        let due: Vec<OpId> = self
            .parked
            .iter()
            .copied()
            .filter(|id| self.ops[id.index()].resume_at().is_some_and(|at| at <= now))
            .collect();
        for id in due {
            self.parked.remove(&id);
            let recipe = self.ops[id.index()].recovery.as_ref().expect("parked ops keep a recipe");
            let op = ActiveOp::new(id, recipe.body.clone(), m, true);
            self.spawn(m, op);
        }
    }

    /// Epoch-TTL sweep of receiver-side tables (dead sessions left by
    /// crashed senders, reply-cache entries of long-settled calls).
    /// Sessions and replies belonging to live operations are exempt —
    /// including replies awaited by *parked* RPCs, so re-execution
    /// still deduplicates against a handler that already ran. The
    /// sweep itself happens in [`Machine::gc_expired`], billed to
    /// `Feature::FaultTol` at each reclaiming receiver.
    fn collect_garbage(&mut self, m: &mut Machine) {
        // Fast path: nothing is past its TTL, so the sweep would
        // reclaim (and bill) nothing. The check is conservative —
        // ignoring live-set exemptions — so a `false` is always exact.
        if !m.gc_has_expired() {
            return;
        }
        let mut live_sessions: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut live_replies: HashSet<(NodeId, NodeId, u32)> = HashSet::new();
        let live_ops = self
            .run_order
            .iter()
            .map(|&s| &self.slots[s].a)
            .chain(self.pending.iter())
            .chain(self.held.iter().filter_map(|id| match &self.ops[id.index()].stage {
                Stage::Held(h) => Some(&h.op),
                _ => None,
            }));
        for op in live_ops {
            match &op.op {
                OpKind::Xfer(o) => {
                    live_sessions.insert((o.dst, o.src));
                }
                OpKind::Reliable(o) => {
                    live_sessions.insert((o.dst, o.src));
                }
                OpKind::Rpc(o) => {
                    live_replies.insert((o.dst, o.src, o.call_id as u32));
                }
                OpKind::Stream(_) | OpKind::Am4(_) => {}
            }
        }
        // Parked reliable transfers are deliberately *not* exempt: the
        // next execution opens a fresh epoch, so the receiver's
        // stale-epoch session is exactly what the sweep should reclaim.
        for id in &self.parked {
            if let Some(OpBody::Rpc { src, dst, call_id, .. }) =
                self.ops[id.index()].recovery.as_ref().map(|r| &r.body)
            {
                live_replies.insert((*dst, *src, *call_id as u32));
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
            if m.rx_peek_at(node).is_some_and(|meta| self.orphaned(node, &meta)) {
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
    fn orphaned(&self, node: NodeId, meta: &RxMeta) -> bool {
        let reserved = meta.tag < Tags::USER_BASE || meta.tag == Tags::RPC_REPLY;
        (reserved || meta.header != 0)
            && !self.run_order.iter().any(|&s| self.slots[s].a.op.claims(node, meta))
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
            let Some(meta) = m.rx_peek_at(node) else {
                self.orphan_dirty.remove(&ni);
                continue;
            };
            if !self.orphaned(node, &meta) {
                self.orphan_dirty.remove(&ni);
                continue;
            }
            m.discard_stray(node);
            // The next queued packet (if any) surfaced: leave the node
            // dirty and wake its subscribers.
            self.touch_node(node);
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
    fn discard_scan_would_find(&self, m: &mut Machine) -> bool {
        (0..m.num_nodes())
            .map(NodeId::new)
            .any(|node| m.rx_peek_at(node).is_some_and(|meta| self.orphaned(node, &meta)))
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
            Stage::Running => {
                let idx = self.run_order.iter().position(|&s| self.slots[s].a.id == id);
                self.finish(m, idx.expect("a running op holds a run slot"), Err(err));
            }
            Stage::Pending => {
                self.pending.retain(|op| op.id != id);
                self.settle(m, id, Err(err));
            }
            Stage::Held(_) => {
                self.held.remove(&id);
                self.settle(m, id, Err(err));
            }
            Stage::Parked { .. } => {
                self.parked.remove(&id);
                // A retryable expiry (a deadline firing mid-backoff)
                // consumes recovery budget and re-parks; anything else —
                // cancellation included — releases the conflict key the
                // parked op was holding and settles it.
                if !self.try_recover(m, id, None, &Err(err.clone())) {
                    let recipe = self.ops[id.index()].recovery.as_ref();
                    if let Some(k) = recipe.and_then(|r| r.body.conflict_key(m)) {
                        self.busy.remove(&k);
                    }
                    self.settle(m, id, Err(err));
                }
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
            // Fired order is wheel (due, seq) order: re-sort by position.
            watchdogs.sort_by_key(|&(slot, _)| {
                self.run_order.iter().position(|&s| s == slot).unwrap_or(usize::MAX)
            });
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
        while self.unfinished() > 0 {
            self.pump(m);
        }
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

// ---------------------------------------------------------------------
// Finite-sequence transfer (plain).
// ---------------------------------------------------------------------

enum XferPhase {
    Handshake,
    Transfer,
    SendAck,
    AwaitAck,
}

struct XferOp {
    src: NodeId,
    dst: NodeId,
    data: Vec<u32>,
    engine: PayloadEngine,
    n: usize,
    packets: u64,
    phase: XferPhase,
    src_buf: Addr,
    req_sent: bool,
    reply_sent: bool,
    segment: Option<(u32, Addr)>,
    rx: XferRx,
    next_packet: u64,
    send_retries: u64,
    waited: u64,
    stalled: bool,
    // Endpoint restart counters at start; see `check_restart`.
    peer_restarts: (u32, u32),
}

impl XferOp {
    fn new(src: NodeId, dst: NodeId, data: Vec<u32>, engine: PayloadEngine, n: usize) -> Self {
        let packets = (data.len() as u64).div_ceil(n as u64);
        XferOp {
            src,
            dst,
            data,
            engine,
            n,
            packets,
            phase: XferPhase::Handshake,
            src_buf: Addr(0),
            req_sent: false,
            reply_sent: false,
            segment: None,
            rx: XferRx {
                buffer: Addr(0),
                packets_expected: packets,
                packets_received: 0,
            },
            next_packet: 0,
            send_retries: 0,
            waited: 0,
            stalled: false,
            peer_restarts: (0, 0),
        }
    }

    fn start(&mut self, m: &mut Machine) {
        // Harness setup: stage the data in source memory (cost-free).
        self.src_buf = m.write_buffer(self.src, &self.data);
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.waited += k;
        self.stalled = false;
    }

    /// Every injection attempt sets `stalled` on backpressure and every
    /// receive path is head-gated on a packet being present, so an idle
    /// step without `stalled` can only become non-idle when `waited`
    /// crosses the protocol's wait window (or a packet arrives, which
    /// wakes the op through its endpoint subscription).
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled {
            return 1;
        }
        win(max_wait, self.waited)
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if let Some(e) = check_restart(m, self.src, self.dst, self.peer_restarts) {
            return Err(e);
        }
        let max_wait = m.config().max_wait_cycles;
        let (src, dst, n) = (self.src, self.dst, self.n);
        match self.phase {
            XferPhase::Handshake => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("xfer reply", self.waited));
                }
                let mut progress = false;
                // Step 1: allocation request (buffer management).
                if !self.req_sent && !self.stalled {
                    let node = m.node_mut(src);
                    let sent = node.cpu.clone().with_feature(Feature::BufferMgmt, |_| {
                        node.send_ctl(dst, Tags::XFER_REQ, self.data.len() as u32, [0; 4])
                    });
                    if sent {
                        self.req_sent = true;
                        progress = true;
                    } else {
                        self.stalled = true;
                    }
                }
                // Step 2: receiver allocates a segment.
                if self.segment.is_none() && peek_is(m, dst, src, Tags::XFER_REQ) {
                    let node = m.node_mut(dst);
                    let cpu = node.cpu.clone();
                    let seg = cpu.with_feature(Feature::BufferMgmt, |_| {
                        let (_, tag, header, _) = node.recv_ctl_now();
                        debug_assert_eq!(tag, Tags::XFER_REQ);
                        let words = header as usize;
                        let buffer = node.mem.alloc(words.div_ceil(n) * n);
                        node.cpu.reg(Fine::RegOp, segment::ASSOCIATE_REG);
                        node.cpu.mem_store(segment::ASSOCIATE_MEM);
                        ((buffer.0 & 0xffff) as u32 ^ 0x5e60_0000, buffer)
                    });
                    self.segment = Some(seg);
                    progress = true;
                }
                // Step 3: the reply.
                if let Some((seg, _)) = self.segment {
                    if !self.reply_sent && !self.stalled {
                        let node = m.node_mut(dst);
                        let sent = node.cpu.clone().with_feature(Feature::BufferMgmt, |_| {
                            node.send_ctl(src, Tags::XFER_REPLY, seg, [0; 4])
                        });
                        if sent {
                            self.reply_sent = true;
                            progress = true;
                        } else {
                            self.stalled = true;
                        }
                    }
                    if self.reply_sent && peek_is(m, src, dst, Tags::XFER_REPLY) {
                        let node = m.node_mut(src);
                        let cpu = node.cpu.clone();
                        cpu.with_feature(Feature::BufferMgmt, |_| {
                            let (_, tag, header, _) = node.recv_ctl_now();
                            debug_assert_eq!(tag, Tags::XFER_REPLY);
                            debug_assert_eq!(header, seg);
                        });
                        self.rx.buffer = self.segment.expect("just checked").1;
                        transfer_prologue(m, src, dst);
                        self.phase = XferPhase::Transfer;
                        self.waited = 0;
                        return Ok(Stepped::Progress);
                    }
                }
                Ok(if progress { Stepped::Progress } else { Stepped::Idle })
            }
            XferPhase::Transfer => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("xfer data packets", self.waited));
                }
                let mut progress = false;
                // Step 4: inject (source side).
                if !self.stalled {
                    while self.next_packet < self.packets {
                        let offset = self.next_packet * n as u64;
                        if m.send_data_packet(src, dst, self.src_buf, offset, n, self.engine, 0) {
                            self.next_packet += 1;
                            progress = true;
                        } else {
                            self.send_retries += 1;
                            self.stalled = true;
                            break;
                        }
                    }
                }
                // Step 4: drain (destination side), gated on our data.
                while self.rx.packets_received < self.rx.packets_expected
                    && peek_is(m, dst, src, Tags::XFER_DATA)
                {
                    m.recv_one_data_packet(dst, n, &mut self.rx);
                    progress = true;
                }
                if progress {
                    self.waited = 0;
                }
                if self.next_packet == self.packets
                    && self.rx.packets_received == self.rx.packets_expected
                {
                    // Step 5: free the segment.
                    let node = m.node_mut(dst);
                    node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                        cpu.reg(Fine::RegOp, xfer_order::DST_FINAL);
                    });
                    node.cpu.mem_store(xfer_recv::EXIT_STATE_MEM);
                    node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                        cpu.reg(Fine::RegOp, segment::DISASSOCIATE_REG);
                        cpu.mem_store(segment::DISASSOCIATE_MEM);
                    });
                    self.phase = XferPhase::SendAck;
                    self.waited = 0;
                    return Ok(Stepped::Progress);
                }
                Ok(if progress { Stepped::Progress } else { Stepped::Idle })
            }
            XferPhase::SendAck => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("control-packet injection", self.waited));
                }
                if self.stalled {
                    return Ok(Stepped::Idle);
                }
                let seg = self.segment.expect("segment allocated").0;
                let node = m.node_mut(dst);
                let sent = node.cpu.clone().with_feature(Feature::FaultTol, |_| {
                    node.send_ctl(src, Tags::XFER_ACK, seg, [0; 4])
                });
                if sent {
                    self.phase = XferPhase::AwaitAck;
                    self.waited = 0;
                    Ok(Stepped::Progress)
                } else {
                    self.stalled = true;
                    Ok(Stepped::Idle)
                }
            }
            XferPhase::AwaitAck => {
                if self.waited > max_wait {
                    return Err(ProtocolError::timeout("xfer acknowledgement", self.waited));
                }
                if !peek_is(m, src, dst, Tags::XFER_ACK) {
                    return Ok(Stepped::Idle);
                }
                let seg = self.segment.expect("segment allocated").0;
                let node = m.node_mut(src);
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    let (_, tag, header, _) = node.recv_ctl_now();
                    debug_assert_eq!(tag, Tags::XFER_ACK);
                    debug_assert_eq!(header, seg);
                });
                Ok(Stepped::Done(OpOutcome::Xfer(XferOutcome {
                    dst_buffer: self.rx.buffer,
                    packets: self.packets,
                    segment_id: seg,
                    send_retries: self.send_retries,
                })))
            }
        }
    }
}

/// The per-message source prologue and destination handler entry charged
/// between the handshake and the data phase (identical in the plain and
/// reliable protocols).
fn transfer_prologue(m: &mut Machine, src: NodeId, dst: NodeId) {
    {
        let node = m.node_mut(src);
        node.cpu.reg(Fine::CallReturn, xfer_send::PROLOGUE_REG);
        node.cpu.mem_load(xfer_send::PROLOGUE_MEM);
    }
    {
        let node = m.node_mut(dst);
        node.cpu.call(xfer_recv::ENTRY_CALL);
        node.cpu.ctrl(xfer_recv::ENTRY_CTRL);
        node.cpu.handler(xfer_recv::ENTRY_HANDLER);
        node.cpu.mem_load(xfer_recv::ENTRY_STATE_MEM);
        let _ = node.ni.poll_status();
    }
}

/// Cost-free gate: is the packet at `node`'s queue head from `from`
/// with tag `tag`?
fn peek_is(m: &mut Machine, node: NodeId, from: NodeId, tag: u8) -> bool {
    m.rx_peek_at(node)
        .is_some_and(|meta| meta.src == from && meta.tag == tag)
}

// ---------------------------------------------------------------------
// RPC.
// ---------------------------------------------------------------------

struct RpcOp {
    src: NodeId,
    dst: NodeId,
    tag: u8,
    args: [u32; 4],
    call_id: u64,
    policy: Option<RetryPolicy>,
    sent: bool,
    stalled: bool,
    attempt: u32,
    waited: u64,
    total_waited: u64,
    // Recovery-managed ops fail fast with the retryable `SessionReset`
    // when an endpoint crash-restarts mid-call (counters captured at
    // start); unmanaged ops keep the pre-recovery-plane behavior and
    // ride out crashes through their own retry windows.
    managed: bool,
    peer_restarts: (u32, u32),
}

impl RpcOp {
    fn new(
        src: NodeId,
        dst: NodeId,
        tag: u8,
        args: [u32; 4],
        call_id: u64,
        policy: Option<RetryPolicy>,
        managed: bool,
    ) -> Self {
        RpcOp {
            src,
            dst,
            tag,
            args,
            call_id,
            policy,
            sent: false,
            stalled: false,
            attempt: 0,
            waited: 0,
            total_waited: 0,
            managed,
            peer_restarts: (0, 0),
        }
    }

    fn start(&mut self, m: &Machine) {
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        self.waited += k;
        if self.sent {
            self.total_waited += k;
        }
    }

    /// Unsent requests retry injection every cycle once the stall
    /// clears; a sent request is quiet until its retry window (or the
    /// global wait bound) closes. Request service and reply pickup are
    /// packet-driven and wake the op through its endpoints.
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled || !self.sent {
            return 1;
        }
        match &self.policy {
            Some(p) => win(p.backoff(self.attempt), self.waited),
            None => win(max_wait, self.waited),
        }
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if self.managed {
            if let Some(e) = check_restart(m, self.src, self.dst, self.peer_restarts) {
                return Err(e);
            }
        }
        // Deadline / retry-window bookkeeping.
        if let Some(policy) = self.policy.clone() {
            if self.sent && self.waited > policy.backoff(self.attempt) {
                self.attempt += 1;
                if self.attempt >= policy.max_attempts {
                    return Err(ProtocolError::Timeout {
                        waiting_for: "rpc reply",
                        cycles: self.total_waited,
                        node: Some(self.src),
                        attempts: policy.max_attempts - 1,
                    });
                }
                // Recover: retransmit the request in the next window.
                self.sent = false;
                self.waited = 0;
            }
        } else if self.sent && self.waited > m.config().max_wait_cycles {
            return Err(ProtocolError::timeout("rpc reply", self.waited));
        }
        if !self.sent && self.waited > m.config().max_wait_cycles {
            return Err(ProtocolError::timeout("rpc injection", self.waited));
        }

        let mut progress = false;
        if !self.sent && !self.stalled {
            let ok = if self.attempt == 0 {
                m.rpc_send_once(self.src, self.dst, self.tag, self.call_id, self.args)
            } else {
                let cpu = m.cpu(self.src);
                cpu.with_feature(Feature::FaultTol, |_| {
                    m.rpc_send_once(self.src, self.dst, self.tag, self.call_id, self.args)
                })
            };
            if ok {
                self.sent = true;
                self.waited = 0;
                progress = true;
            } else {
                self.stalled = true;
            }
        }

        // Serve the callee when our request is at its queue head.
        if peek_is(m, self.dst, self.src, self.tag) {
            let _ = m.rpc_service(self.dst);
            progress = true;
        }

        // Surface the reply when it is at the caller's queue head and
        // carries our correlation id (a concurrent call's reply stays
        // for its own operation).
        if m.rx_peek_at(self.src).is_some_and(|meta| {
            meta.src == self.dst
                && meta.tag == Tags::RPC_REPLY
                && meta.header == self.call_id as u32
        }) {
            match m.rpc_service(self.src) {
                RpcEvent::Reply(id, words) => {
                    debug_assert_eq!(id, self.call_id);
                    return Ok(Stepped::Done(OpOutcome::Rpc(words)));
                }
                other => unreachable!("gated reply peek yielded {other:?}"),
            }
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

// ---------------------------------------------------------------------
// Four-word active message (the paper's CMAM_4).
// ---------------------------------------------------------------------

/// One user-tag four-word active message as an engine operation: the
/// Table 1 20-instruction send on `src`, then a destination poll once
/// the packet is at `dst`'s queue head. The building block the
/// engine-native collectives compose into dependency DAGs.
struct Am4Op {
    src: NodeId,
    dst: NodeId,
    tag: u8,
    words: [u32; 4],
    // Delivery token riding the header word: 0 for plain submissions
    // (matching `Machine::am4_send`), nonzero for recovery-managed ops
    // so a duplicate left by a crash-straddling re-execution is
    // attributable — consumption is token-gated, and an unclaimed
    // leftover is orphan-discardable.
    token: u32,
    // Recovery-managed ops fail fast with `SessionReset` on an
    // endpoint crash-restart (counters captured at start).
    managed: bool,
    sent: bool,
    stalled: bool,
    waited: u64,
    peer_restarts: (u32, u32),
}

impl Am4Op {
    fn new(src: NodeId, dst: NodeId, tag: u8, words: [u32; 4], token: u32, managed: bool) -> Self {
        Am4Op {
            src,
            dst,
            tag,
            words,
            token,
            managed,
            sent: false,
            stalled: false,
            waited: 0,
            peer_restarts: (0, 0),
        }
    }

    fn start(&mut self, m: &Machine) {
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        self.waited += k;
    }

    /// Unsent messages retry injection every cycle once the stall
    /// clears; a sent message only acts again when the wait bound
    /// closes (delivery wakes it through the destination endpoint).
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled || !self.sent {
            return 1;
        }
        win(max_wait, self.waited)
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if self.managed {
            if let Some(e) = check_restart(m, self.src, self.dst, self.peer_restarts) {
                return Err(e);
            }
        }
        if self.waited > m.config().max_wait_cycles {
            let what = if self.sent { "am4 delivery" } else { "am4 injection" };
            return Err(ProtocolError::timeout(what, self.waited));
        }
        let mut progress = false;
        if !self.sent && !self.stalled {
            // One attempt of the Table 1 single-packet send; identical
            // instruction shape to `Machine::am4_send`'s loop body
            // (the token rides the header word the packet already
            // carries), paid again on every backpressure retry.
            if m.rpc_send_once(self.src, self.dst, self.tag, u64::from(self.token), self.words) {
                self.sent = true;
                self.waited = 0;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // Consume the message once it surfaces at the destination's
        // queue head (a cost-free harness peek gated on our delivery
        // token; the poll itself pays Table 1's 27-instruction message
        // path, plus handler dispatch when a handler is registered for
        // the tag).
        let token = self.token;
        if m.rx_peek_at(self.dst).is_some_and(|meta| {
            meta.src == self.src && meta.tag == self.tag && meta.header == token
        }) {
            return match m.poll(self.dst) {
                PollOutcome::Unclaimed(msg) => Ok(Stepped::Done(OpOutcome::Am4(msg.words))),
                // A registered handler consumed the payload; the
                // outcome reports zeros (the handler owns the words).
                PollOutcome::Handled(_) => Ok(Stepped::Done(OpOutcome::Am4([0; 4]))),
                PollOutcome::Idle => unreachable!("gated poll found an empty queue"),
            };
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

// ---------------------------------------------------------------------
// Stream send.
// ---------------------------------------------------------------------

struct StreamOp {
    id: StreamId,
    src: NodeId,
    dst: NodeId,
    data: Vec<u32>,
    n: usize,
    packets: u64,
    rto_iterations: u64,
    // Captured at start (an earlier send on the same stream may still
    // be advancing the sequence when this op is submitted).
    first_seq: u64,
    // Set on recovery re-executions: the first execution's `first_seq`.
    // Resuming from it (instead of reading `next_seq`) keeps the burst
    // in its original sequence range, and the start logic skips packets
    // the receiver has already delivered in-sequence — exactly-once.
    resume_base: Option<u64>,
    target_contig: u64,
    expected_acks: u64,
    outcome: StreamOutcome,
    sent: u64,
    pending_acks: VecDeque<(u64, bool)>,
    stalled: bool,
    rto_due: bool,
    idle_iterations: u64,
    total_iterations: u64,
    // Endpoint restart counters at start; see `check_restart`.
    peer_restarts: (u32, u32),
}

impl StreamOp {
    fn new(
        id: StreamId,
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        n: usize,
        rto_iterations: u64,
    ) -> Self {
        let packets = (data.len() as u64).div_ceil(n as u64);
        StreamOp {
            id,
            src,
            dst,
            data,
            n,
            packets,
            rto_iterations,
            first_seq: 0,
            resume_base: None,
            target_contig: 0,
            expected_acks: 0,
            outcome: StreamOutcome {
                packets,
                acks: 0,
                retransmits: 0,
                duplicates: 0,
                out_of_order: 0,
            },
            sent: 0,
            pending_acks: VecDeque::new(),
            stalled: false,
            rto_due: false,
            idle_iterations: 0,
            total_iterations: 0,
            peer_restarts: (0, 0),
        }
    }

    fn start(&mut self, m: &mut Machine) {
        let st = m.stream_state(self.id);
        let next_seq = st.next_seq;
        let ack_period = st.ack_period().max(1);
        self.first_seq = self.resume_base.unwrap_or(next_seq);
        self.target_contig = self.first_seq + self.packets;
        self.expected_acks = self.packets.div_ceil(ack_period);
        if self.resume_base.is_some() {
            // Resume where the receiver's contiguous prefix ends:
            // packets already delivered in-sequence are not re-sent
            // (exactly-once); anything at or past the receiver's
            // expectation is. Stale unacked copies at the source drain
            // via the ordinary RTO/duplicate-ack machinery.
            self.sent =
                m.stream_expected(self.id).saturating_sub(self.first_seq).min(self.packets);
        }
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
        m.stream_entry_charge(self.id);
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        // `total_iterations` counts engine cycles without progress
        // anywhere (each reference quantum that advances the clock
        // ticks every running op exactly once), so a batched tick is a
        // plain sum and the RTO counter wraps modulo its period.
        self.total_iterations += k;
        let total = self.idle_iterations + k;
        if total >= self.rto_iterations {
            self.rto_due = true;
            self.idle_iterations = total % self.rto_iterations.max(1);
        } else {
            self.idle_iterations = total;
        }
    }

    /// Injection stalls and ack-flush stalls set `stalled`; receives
    /// are head-gated. With neither a stall nor a due RTO, only the RTO
    /// counter reaching its period or the completion-timeout window
    /// closing can make a step non-idle without new packets.
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled || self.rto_due {
            return 1;
        }
        win(max_wait, self.total_iterations)
            .min(self.rto_iterations.saturating_sub(self.idle_iterations).max(1))
    }

    fn flush_acks(&mut self, m: &mut Machine) -> bool {
        let mut progress = false;
        while let Some(&(value, cumulative)) = self.pending_acks.front() {
            if self.stalled {
                break;
            }
            if m.stream_try_send_ack(self.id, value, cumulative) {
                self.pending_acks.pop_front();
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        progress
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if let Some(e) = check_restart(m, self.src, self.dst, self.peer_restarts) {
            return Err(e);
        }
        let n = self.n;
        let mut progress = false;

        // Acknowledgements owed from earlier drains go out first: they
        // release source window slots.
        progress |= self.flush_acks(m);

        // Fault tolerance in action: retransmit the oldest
        // unacknowledged packet after a quiet window.
        if self.rto_due {
            self.rto_due = false;
            if m.stream_retransmit_oldest(self.id) {
                self.outcome.retransmits += 1;
                progress = true;
            }
        }

        // Phase 1: inject while the window is open.
        while self.sent < self.packets && !self.stalled && m.stream_window_open(self.id) {
            let seq = self.first_seq + self.sent;
            let base = (self.sent as usize) * n;
            let payload: Vec<u32> = (0..n)
                .map(|i| self.data.get(base + i).copied().unwrap_or(0))
                .collect();
            if m.stream_inject(self.id, seq, &payload) {
                self.sent += 1;
                progress = true;
            } else {
                self.stalled = true;
            }
        }

        // Phase 2: the receiver drains data gated on this stream,
        // queueing acknowledgements as it goes.
        while self.pending_acks.is_empty()
            && m.stream_drain_one(self.id, n, &mut self.outcome, &mut self.pending_acks)
        {
            progress = true;
            progress |= self.flush_acks(m);
        }

        // Group-ack flush: the burst fully arrived but the final
        // partial group is not yet acknowledged.
        if m.stream_group_ack_due(self.id, self.target_contig) {
            let cum = m.stream_contig_mark(self.id);
            self.pending_acks.push_back((cum, true));
            m.stream_reset_ack_counter(self.id);
            progress = true;
            progress |= self.flush_acks(m);
        }

        // Phase 3: the source processes acknowledgements.
        while (self.outcome.acks < self.expected_acks || !m.stream_unacked_empty(self.id))
            && m.stream_take_ack(self.id, &mut self.outcome)
        {
            progress = true;
        }

        // Termination: everything sent, delivered, and acknowledged.
        if self.sent == self.packets
            && m.stream_unacked_empty(self.id)
            && m.stream_contig_mark(self.id) >= self.target_contig
            && self.pending_acks.is_empty()
        {
            m.stream_epilogue(self.id, self.data.len());
            return Ok(Stepped::Done(OpOutcome::Stream(self.outcome)));
        }

        if progress {
            self.idle_iterations = 0;
        }
        // `total_iterations` advances on ticks (once per no-progress
        // engine cycle), making the completion timeout a bound on quiet
        // *time* rather than on scheduler step count — the same clock
        // under both schedulers.
        if self.total_iterations > m.config().max_wait_cycles {
            return Err(ProtocolError::timeout(
                "stream completion",
                self.total_iterations,
            ));
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

// ---------------------------------------------------------------------
// Fault-tolerant finite-sequence transfer.
// ---------------------------------------------------------------------

enum ReliablePhase {
    Handshake,
    Transfer,
    SendAck,
    AwaitAck,
}

struct ReliableOp {
    src: NodeId,
    dst: NodeId,
    data: Vec<u32>,
    n: usize,
    packets: u64,
    policy: RetryPolicy,
    phase: ReliablePhase,
    src_buf: Addr,
    // Session epoch for this (src, dst) handshake, allocated at start;
    // the data nonce is derived from it, so packets of a prior epoch
    // between the same pair are recognizably stale.
    epoch: u32,
    nonce: u32,
    // Restart counters of both endpoints observed at start; a mismatch
    // mid-flight means a peer crashed and restarted — fail fast with a
    // retryable `SessionReset`.
    peer_restarts: (u32, u32),
    // Handshake state.
    req_sent: bool,
    resend_due: bool,
    segment: Option<(u32, Addr)>,
    reply_pending: Option<Feature>,
    hs_attempt: u32,
    hs_waited: u64,
    // Transfer state.
    rx: XferRx,
    seen: Vec<bool>,
    next_packet: u64,
    send_retries: u64,
    data_retransmits: u64,
    nack_rounds: u32,
    drain_attempt: u32,
    drain_waited: u64,
    nack_pending: bool,
    nack_charge_due: bool,
    retransmit_queue: VecDeque<u64>,
    // Acknowledgement state.
    ack_attempt: u32,
    ack_waited: u64,
    ack_probes: u32,
    probe_pending: bool,
    reack_pending: bool,
    stalled: bool,
}

impl ReliableOp {
    fn new(src: NodeId, dst: NodeId, data: Vec<u32>, n: usize, policy: RetryPolicy) -> Self {
        let packets = (data.len() as u64).div_ceil(n as u64);
        ReliableOp {
            src,
            dst,
            data,
            n,
            packets,
            policy,
            phase: ReliablePhase::Handshake,
            src_buf: Addr(0),
            epoch: 0,
            nonce: 0,
            peer_restarts: (0, 0),
            req_sent: false,
            resend_due: false,
            segment: None,
            reply_pending: None,
            hs_attempt: 0,
            hs_waited: 0,
            rx: XferRx {
                buffer: Addr(0),
                packets_expected: packets,
                packets_received: 0,
            },
            seen: vec![false; packets as usize],
            next_packet: 0,
            send_retries: 0,
            data_retransmits: 0,
            nack_rounds: 0,
            drain_attempt: 0,
            drain_waited: 0,
            nack_pending: false,
            nack_charge_due: false,
            retransmit_queue: VecDeque::new(),
            ack_attempt: 0,
            ack_waited: 0,
            ack_probes: 0,
            probe_pending: false,
            reack_pending: false,
            stalled: false,
        }
    }

    fn start(&mut self, m: &mut Machine) {
        self.src_buf = m.write_buffer(self.src, &self.data);
        // Epoch allocation is host-side session bookkeeping (the epoch
        // rides in header fields the wire format already carries), so a
        // clean run stays instruction-identical to the plain protocol.
        self.epoch = m.next_session_epoch(self.src, self.dst);
        self.nonce = (self.epoch & 0xfff) << OFFSET_BITS;
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        match self.phase {
            ReliablePhase::Handshake => self.hs_waited += k,
            ReliablePhase::Transfer => self.drain_waited += k,
            ReliablePhase::SendAck | ReliablePhase::AwaitAck => self.ack_waited += k,
        }
    }

    /// Per-phase quiet windows. Only the phase's own waited counter
    /// advances on a tick, so the next timer-driven action (handshake
    /// resend, receiver NACK round, ack resend/probe) is a closed form
    /// over that counter. A source mid-burst or a receiver mid-drain is
    /// packet-driven: it acts on arrivals (endpoint wakes) or because
    /// an injection stall cleared, never from a timer alone — `MAX`
    /// with the no-progress watchdog as the backstop.
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled {
            return 1;
        }
        match self.phase {
            ReliablePhase::Handshake => {
                if self.req_sent {
                    win(self.policy.backoff(self.hs_attempt), self.hs_waited)
                } else {
                    1
                }
            }
            ReliablePhase::Transfer => {
                if self.rx.packets_received < self.rx.packets_expected
                    && self.next_packet == self.packets
                {
                    // Receiver drain window: a quiet stretch triggers
                    // the next NACK round.
                    win(self.policy.backoff(self.drain_attempt), self.drain_waited)
                } else {
                    u64::MAX
                }
            }
            ReliablePhase::SendAck => win(max_wait, self.ack_waited),
            ReliablePhase::AwaitAck => win(self.policy.backoff(self.ack_attempt), self.ack_waited),
        }
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if let Some(e) = check_restart(m, self.src, self.dst, self.peer_restarts) {
            return Err(e);
        }
        if self.sweep_stale(m) {
            return Ok(Stepped::Progress);
        }
        match self.phase {
            ReliablePhase::Handshake => self.step_handshake(m),
            ReliablePhase::Transfer => self.step_transfer(m),
            ReliablePhase::SendAck => self.step_send_ack(m),
            ReliablePhase::AwaitAck => self.step_await_ack(m),
        }
    }

    /// Discard stale packets of *prior* epochs between this pair at
    /// either endpoint's queue head: duplicated handshakes or data of an
    /// earlier same-pair transfer must not be mistaken for this
    /// session's traffic. Every discard is recovery work
    /// ([`Feature::FaultTol`]); a clean run peeks (cost-free) and finds
    /// nothing stale. Returns `true` if anything was discarded.
    fn sweep_stale(&mut self, m: &mut Machine) -> bool {
        let mut any = false;
        while let Some(meta) = m.rx_peek_at(self.src) {
            if meta.src != self.dst {
                break;
            }
            let stale = match meta.tag {
                Tags::XFER_REPLY | Tags::XFER_ACK => meta.header != self.epoch,
                Tags::XFER_NACK => (meta.header & !OFFSET_MASK) != self.nonce,
                _ => false,
            };
            if !stale {
                break;
            }
            m.discard_stray(self.src);
            any = true;
        }
        while let Some(meta) = m.rx_peek_at(self.dst) {
            if meta.src != self.src {
                break;
            }
            let stale = match meta.tag {
                Tags::XFER_REQ | Tags::XFER_PROBE => meta.header != self.epoch,
                Tags::XFER_DATA => (meta.header & !OFFSET_MASK) != self.nonce,
                _ => false,
            };
            if !stale {
                break;
            }
            m.discard_stray(self.dst);
            any = true;
        }
        any
    }

    fn step_handshake(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        let (src, dst, n) = (self.src, self.dst, self.n);
        // Window expiry: the reply is overdue — retransmit the request.
        if self.req_sent && self.hs_waited > self.policy.backoff(self.hs_attempt) {
            self.hs_attempt += 1;
            if self.hs_attempt >= self.policy.max_attempts {
                return Err(ProtocolError::Timeout {
                    waiting_for: "xfer reply",
                    cycles: self.policy.backoff(self.hs_attempt - 1),
                    node: Some(src),
                    attempts: self.hs_attempt,
                });
            }
            self.resend_due = true;
            self.hs_waited = 0;
        }
        let mut progress = false;
        // Allocation request. The first issue is ordinary buffer
        // management; recovery retransmissions are fault tolerance.
        if !self.stalled && (!self.req_sent || self.resend_due) {
            let feature = if self.req_sent {
                Feature::FaultTol
            } else {
                Feature::BufferMgmt
            };
            // The request is epoch-stamped: the header carries the
            // session epoch, the length rides in the (always-sent)
            // payload words — same packet shape, same cost.
            let len = self.data.len() as u32;
            let epoch = self.epoch;
            let node = m.node_mut(src);
            let sent = {
                let cpu = node.cpu.clone();
                cpu.with_feature(feature, |_| {
                    node.send_ctl(dst, Tags::XFER_REQ, epoch, [len, 0, 0, 0])
                })
            };
            if sent {
                self.req_sent = true;
                self.resend_due = false;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // The destination answers a request — the first from the
        // allocation body (buffer management), a duplicate from its
        // epoch-keyed session table (fault tolerance). The table lookup
        // is what a crash-restart observably erases.
        if self.reply_pending.is_none() && peek_is(m, dst, src, Tags::XFER_REQ) {
            let open = m.sessions.get(&(dst, src)).copied().filter(|s| s.epoch == self.epoch);
            if let Some(entry) = open {
                debug_assert_eq!(Some((entry.seg, entry.buffer)), self.segment);
                let node = m.node_mut(dst);
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    let (_, tag, _, _) = node.recv_ctl_now();
                    debug_assert_eq!(tag, Tags::XFER_REQ);
                });
                self.reply_pending = Some(Feature::FaultTol);
            } else {
                // A leftover same-pair session of an *earlier* epoch —
                // its sender crashed mid-transfer, or the op was
                // re-executed by the recovery plane — is reclaimed
                // before the fresh allocation. Recovery work, billed
                // like the TTL sweep would bill it.
                if m.sessions.get(&(dst, src)).is_some_and(|s| s.epoch != self.epoch) {
                    m.sessions.remove(&(dst, src));
                    let cpu = m.cpu(dst);
                    cpu.with_feature(Feature::FaultTol, |c| {
                        c.reg(Fine::RegOp, recovery::SESSION_GC_REG);
                        c.mem_store(recovery::SESSION_GC_MEM);
                    });
                }
                let epoch = self.epoch;
                let node = m.node_mut(dst);
                let cpu = node.cpu.clone();
                let seg = cpu.with_feature(Feature::BufferMgmt, |_| {
                    let (_, tag, header, words) = node.recv_ctl_now();
                    debug_assert_eq!(tag, Tags::XFER_REQ);
                    debug_assert_eq!(header, epoch);
                    let words = words[0] as usize;
                    let buffer = node.mem.alloc(words.div_ceil(n) * n);
                    node.cpu.reg(Fine::RegOp, segment::ASSOCIATE_REG);
                    node.cpu.mem_store(segment::ASSOCIATE_MEM);
                    ((buffer.0 & 0xffff) as u32 ^ 0x5e60_0000, buffer)
                });
                self.segment = Some(seg);
                // Record the open session so a crash-restart of the
                // receiver observably erases it — and so the TTL sweep
                // can reclaim it if the *sender* crashes and never
                // finishes the transfer (host-side bookkeeping, no
                // simulated instructions on the clean path).
                let opened_at = clock(m);
                m.sessions.insert(
                    (dst, src),
                    SessionEntry { epoch: self.epoch, seg: seg.0, buffer: seg.1, opened_at },
                );
                self.reply_pending = Some(Feature::BufferMgmt);
            }
            progress = true;
        }
        // The reply itself.
        if let Some(feature) = self.reply_pending {
            if !self.stalled {
                let seg = self.segment.expect("reply implies allocation").0;
                let epoch = self.epoch;
                let node = m.node_mut(dst);
                let sent = {
                    let cpu = node.cpu.clone();
                    cpu.with_feature(feature, |_| {
                        node.send_ctl(src, Tags::XFER_REPLY, epoch, [seg, 0, 0, 0])
                    })
                };
                if sent {
                    self.reply_pending = None;
                    progress = true;
                } else {
                    self.stalled = true;
                }
            }
        }
        // Source receives the reply. On the first window this is what
        // the plain protocol pays (buffer management); after a
        // retransmission it is recovery work.
        if let Some((seg, buffer)) = self.segment.filter(|_| peek_is(m, src, dst, Tags::XFER_REPLY)) {
            let feature = if self.hs_attempt == 0 {
                Feature::BufferMgmt
            } else {
                Feature::FaultTol
            };
            let epoch = self.epoch;
            let node = m.node_mut(src);
            let cpu = node.cpu.clone();
            cpu.with_feature(feature, |_| {
                let (_, tag, header, words) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_REPLY);
                debug_assert_eq!(header, epoch);
                debug_assert_eq!(words[0], seg);
            });
            self.rx.buffer = buffer;
            transfer_prologue(m, src, dst);
            self.phase = ReliablePhase::Transfer;
            self.drain_waited = 0;
            return Ok(Stepped::Progress);
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }

    fn step_transfer(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        let (src, dst, n) = (self.src, self.dst, self.n);
        // Drain stalled for a whole backoff window with packets still
        // missing: recover via NACK + selective retransmission.
        if self.rx.packets_received < self.rx.packets_expected
            && self.next_packet == self.packets
            && self.drain_waited > self.policy.backoff(self.drain_attempt)
        {
            self.drain_attempt += 1;
            if self.drain_attempt >= self.policy.max_attempts {
                return Err(ProtocolError::Timeout {
                    waiting_for: "xfer data packets",
                    cycles: self.drain_waited,
                    node: Some(dst),
                    attempts: self.drain_attempt,
                });
            }
            self.nack_rounds += 1;
            self.nack_pending = true;
            self.nack_charge_due = true;
            self.drain_waited = 0;
        }
        let mut progress = false;
        // Selective retransmissions named by a received NACK go first.
        while let Some(&k) = self.retransmit_queue.front() {
            if self.stalled {
                break;
            }
            let offset = k * n as u64;
            let nonce = self.nonce;
            let src_buf = self.src_buf;
            let cpu = m.cpu(src);
            let accepted = cpu.with_feature(Feature::FaultTol, |_| {
                m.send_data_packet(src, dst, src_buf, offset, n, PayloadEngine::Cpu, nonce)
            });
            if accepted {
                self.retransmit_queue.pop_front();
                self.data_retransmits += 1;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // Initial injection — identical to the plain protocol.
        if !self.stalled {
            while self.next_packet < self.packets {
                let offset = self.next_packet * n as u64;
                if m.send_data_packet(
                    src,
                    dst,
                    self.src_buf,
                    offset,
                    n,
                    PayloadEngine::Cpu,
                    self.nonce,
                ) {
                    self.next_packet += 1;
                    progress = true;
                } else {
                    self.send_retries += 1;
                    self.stalled = true;
                    break;
                }
            }
        }
        // Fault-tolerant drain. Anything from our source at the queue
        // head is ours to classify (data, duplicated handshake
        // request, stray probe).
        while self.rx.packets_received < self.rx.packets_expected {
            let Some(meta) = m.rx_peek_at(dst) else { break };
            if meta.src != src
                || !(meta.tag == Tags::XFER_DATA
                    || meta.tag == Tags::XFER_REQ
                    || meta.tag == Tags::XFER_PROBE)
            {
                break;
            }
            if m.recv_one_data_tolerant(dst, n, &mut self.rx, &mut self.seen, self.nonce) {
                progress = true;
            } else {
                break;
            }
        }
        // A late duplicated reply at the source is recovery noise.
        if peek_is(m, src, dst, Tags::XFER_REPLY) {
            m.discard_stray(src);
            progress = true;
        }
        // NACK emission (destination): gap scan + NACK packet.
        if self.nack_pending && !self.stalled {
            if self.nack_charge_due {
                let node = m.node_mut(dst);
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    node.cpu.reg(Fine::RegOp, recovery::GAP_SCAN_REG);
                    node.cpu.mem_store(recovery::NACK_STATE_MEM);
                });
                self.nack_charge_due = false;
            }
            match first_missing(&self.seen) {
                None => self.nack_pending = false, // gap closed meanwhile
                Some(first) => {
                    let bits = missing_bitmap(&self.seen, first);
                    // Epoch-stamp the NACK: nonce in the high bits, the
                    // first missing offset (< 2^20) below it.
                    let hdr = self.nonce | first as u32;
                    let node = m.node_mut(dst);
                    let sent = {
                        let cpu = node.cpu.clone();
                        cpu.with_feature(Feature::FaultTol, |_| {
                            node.send_ctl(src, Tags::XFER_NACK, hdr, bits)
                        })
                    };
                    if sent {
                        self.nack_pending = false;
                        progress = true;
                    } else {
                        self.stalled = true;
                    }
                }
            }
        }
        // NACK reception (source): build the retransmit queue.
        if peek_is(m, src, dst, Tags::XFER_NACK) {
            let node = m.node_mut(src);
            let cpu = node.cpu.clone();
            let (first, bits) = cpu.with_feature(Feature::FaultTol, |c| {
                let (_, tag, header, words) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_NACK);
                c.reg(Fine::RegOp, recovery::RETRANSMIT_SETUP_REG);
                (header & OFFSET_MASK, words)
            });
            for rel in 0..128u32 {
                if bits[rel as usize / 32] >> (rel % 32) & 1 == 0 {
                    continue;
                }
                let k = u64::from(first) + u64::from(rel);
                if k >= self.packets {
                    break;
                }
                self.retransmit_queue.push_back(k);
            }
            progress = true;
        }
        if progress {
            self.drain_waited = 0;
        }
        if self.next_packet == self.packets
            && self.rx.packets_received == self.rx.packets_expected
            && self.retransmit_queue.is_empty()
            && !self.nack_pending
        {
            // Free the segment — identical to the plain protocol.
            let node = m.node_mut(dst);
            node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
                cpu.reg(Fine::RegOp, xfer_order::DST_FINAL);
            });
            node.cpu.mem_store(xfer_recv::EXIT_STATE_MEM);
            node.cpu.clone().with_feature(Feature::BufferMgmt, |cpu| {
                cpu.reg(Fine::RegOp, segment::DISASSOCIATE_REG);
                cpu.mem_store(segment::DISASSOCIATE_MEM);
            });
            m.sessions.remove(&(dst, src));
            self.phase = ReliablePhase::SendAck;
            self.ack_waited = 0;
            return Ok(Stepped::Progress);
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }

    fn step_send_ack(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if self.ack_waited > m.config().max_wait_cycles {
            return Err(ProtocolError::timeout(
                "control-packet injection",
                self.ack_waited,
            ));
        }
        if self.stalled {
            return Ok(Stepped::Idle);
        }
        let seg = self.segment.expect("segment allocated").0;
        let epoch = self.epoch;
        let src = self.src;
        let node = m.node_mut(self.dst);
        let sent = {
            let cpu = node.cpu.clone();
            cpu.with_feature(Feature::FaultTol, |_| {
                node.send_ctl(src, Tags::XFER_ACK, epoch, [seg, 0, 0, 0])
            })
        };
        if sent {
            self.phase = ReliablePhase::AwaitAck;
            self.ack_waited = 0;
            Ok(Stepped::Progress)
        } else {
            self.stalled = true;
            Ok(Stepped::Idle)
        }
    }

    fn step_await_ack(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        let (src, dst) = (self.src, self.dst);
        let seg = self.segment.expect("segment allocated").0;
        let epoch = self.epoch;
        // Window expiry: the acknowledgement is overdue — probe.
        if self.ack_waited > self.policy.backoff(self.ack_attempt) {
            self.ack_attempt += 1;
            if self.ack_attempt >= self.policy.max_attempts {
                return Err(ProtocolError::Timeout {
                    waiting_for: "xfer acknowledgement",
                    cycles: self.policy.backoff(self.ack_attempt - 1),
                    node: Some(src),
                    attempts: self.ack_attempt,
                });
            }
            self.ack_probes += 1;
            self.probe_pending = true;
            self.ack_waited = 0;
        }
        let mut progress = false;
        if self.probe_pending && !self.stalled {
            let node = m.node_mut(src);
            let sent = {
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    node.send_ctl(dst, Tags::XFER_PROBE, epoch, [seg, 0, 0, 0])
                })
            };
            if sent {
                self.probe_pending = false;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // The destination answers a probe with a re-acknowledgement.
        if peek_is(m, dst, src, Tags::XFER_PROBE) {
            let node = m.node_mut(dst);
            let cpu = node.cpu.clone();
            cpu.with_feature(Feature::FaultTol, |_| {
                let (_, tag, _, _) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_PROBE);
            });
            self.reack_pending = true;
            progress = true;
        }
        if self.reack_pending && !self.stalled {
            let node = m.node_mut(dst);
            let sent = {
                let cpu = node.cpu.clone();
                cpu.with_feature(Feature::FaultTol, |_| {
                    node.send_ctl(src, Tags::XFER_ACK, epoch, [seg, 0, 0, 0])
                })
            };
            if sent {
                self.reack_pending = false;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // Stray late data at the destination (retransmitted duplicates
        // still in flight) is discarded as recovery work.
        if m.rx_peek_at(dst).is_some_and(|meta| {
            meta.src == src && (meta.tag == Tags::XFER_DATA || meta.tag == Tags::XFER_REQ)
        }) {
            m.discard_stray(dst);
            progress = true;
        }
        // A duplicated reply of this same epoch arriving after the
        // transfer completed (handshake retransmission crossing the
        // data phase) would otherwise sit at the head of the source's
        // queue and block the final acknowledgement.
        if peek_is(m, src, dst, Tags::XFER_REPLY) {
            m.discard_stray(src);
            progress = true;
        }
        if peek_is(m, src, dst, Tags::XFER_ACK) {
            let node = m.node_mut(src);
            let cpu = node.cpu.clone();
            cpu.with_feature(Feature::FaultTol, |_| {
                let (_, tag, header, words) = node.recv_ctl_now();
                debug_assert_eq!(tag, Tags::XFER_ACK);
                debug_assert_eq!(header, epoch);
                debug_assert_eq!(words[0], seg);
            });
            return Ok(Stepped::Done(OpOutcome::Reliable(ReliableOutcome {
                xfer: XferOutcome {
                    dst_buffer: self.rx.buffer,
                    packets: self.packets,
                    segment_id: seg,
                    send_retries: self.send_retries,
                },
                handshake_retries: self.hs_attempt,
                data_retransmits: self.data_retransmits,
                nack_rounds: self.nack_rounds,
                ack_probes: self.ack_probes,
            })));
        }
        // A stale NACK arriving after the data phase completed.
        if peek_is(m, src, dst, Tags::XFER_NACK) {
            m.discard_stray(src);
            progress = true;
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

/// Compare both endpoints' crash-restart counters against the values
/// `seen` at the operation's start. A mismatch means that peer crashed
/// and lost its protocol state mid-flight: fail fast with the retryable
/// [`ProtocolError::SessionReset`] instead of timing out against a node
/// that no longer remembers the session. Pure host-side comparison —
/// no simulated instructions.
fn check_restart(
    m: &Machine,
    src: NodeId,
    dst: NodeId,
    seen: (u32, u32),
) -> Option<ProtocolError> {
    if m.restarts_of(src) != seen.0 {
        return Some(ProtocolError::SessionReset { node: src });
    }
    if m.restarts_of(dst) != seen.1 {
        return Some(ProtocolError::SessionReset { node: dst });
    }
    None
}

fn first_missing(seen: &[bool]) -> Option<u64> {
    seen.iter().position(|&s| !s).map(|i| i as u64)
}

fn missing_bitmap(seen: &[bool], first: u64) -> [u32; 4] {
    let mut bits = [0u32; 4];
    for (i, &got) in seen.iter().enumerate().skip(first as usize).take(first as usize + 128) {
        if !got {
            let rel = i - first as usize;
            if rel >= 128 {
                break;
            }
            bits[rel / 32] |= 1 << (rel % 32);
        }
    }
    bits
}
