//! The op-machine contract: everything the [`Engine`](crate::Engine)
//! asks of a protocol family, and the helpers the families share.
//!
//! A family is one module — `xfer` (plain, batched and reliable),
//! `stream`, `rpc`, `am` — holding its outcome type, its cost helpers
//! and one state machine implementing [`OpMachine`]; its [`family`]
//! marker types the [`Op`] that describes it. The engine
//! schedules `Box<dyn OpMachine>` and knows nothing else about a family
//! once [`Engine::submit`](crate::Engine::submit) has built the machine:
//! from then on the machine is the operation's only representation,
//! parked between recovery executions included.
//!
//! What each method owes the scheduler:
//!
//! * **`step`** performs one iteration of the family's driver loop,
//!   leaving the passing of time to the engine, and receives only
//!   behind a cost-free head-of-queue peek — an `Idle` step bills
//!   nothing.
//! * **`tick_n(k)`** is a closed form: exactly what `k ≥ 1` single timer
//!   ticks with no step in between would do. The event scheduler ticks
//!   a sleeper lazily on wake, and a sleeper by construction takes no
//!   steps, so the batch is exact. (A same-epoch wake delivers no tick
//!   at all: `stalled` survives until a cycle really passes.)
//! * **`wake_in`** is conservative: cycles until the next step could be
//!   anything but a cost-free `Idle`, absent packet activity at the
//!   endpoints (which wakes the op earlier); `u64::MAX` means purely
//!   packet-driven. Early costs one traceless idle step; late would
//!   diverge from the reference scheduler.
//! * **`claims`** is pair-wide and conservative: anything the op might
//!   still consume must be claimed, or the engine's orphan discard
//!   (billed to `Feature::FaultTol`) would eat it. It is also *what the
//!   scheduler wakes by*: a touch at a node wakes the sleepers that
//!   claim its queue head, and no one else, so a `step` may receive
//!   only what `claims` names — too narrow is a missed wake, not only
//!   an eaten packet. And it must hold only for a `node` that is one of
//!   the op's endpoints and a `meta.src` that is the other: the engine
//!   looks claimants up by `(node, meta.src)`.
//! * **`gc_exempt`** is bill-visible: the epoch-TTL sweep bills every
//!   entry it reclaims to `Feature::FaultTol` at the holder, so what an
//!   op shields — and that a *parked* reliable transfer shields
//!   nothing, its next execution opening a fresh epoch — decides who
//!   pays for which reclaim.
//! * **`reset`** is `Self::new` over the arguments the machine was built
//!   with, keeping only what exactly-once needs across executions (the
//!   stream's resume base, the RPC call id, the am4 delivery token): a
//!   re-execution is the first execution again, by construction.

use std::marker::PhantomData;

use timego_netsim::{NodeId, RxMeta};

use crate::am::Am4Op;
use crate::engine::{OpId, OpOutcome};
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::retry::{RecoveryPolicy, RetryPolicy};
use crate::rpc::RpcOp;
use crate::stream::{StreamId, StreamOp};
use crate::xfer::{PayloadEngine, XferOp, OFFSET_BITS};
use family::Family;

/// One step's verdict.
pub(crate) enum Stepped {
    /// The operation did real protocol work this step.
    Progress,
    /// Nothing to do until the world changes (a packet arrives or a
    /// cycle passes).
    Idle,
    /// The operation finished.
    Done(OpOutcome),
}

/// Which operations can consume each other's packets: two admitted ops
/// with the same class between the same ordered `(src, dst)` pair are
/// serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyClass {
    /// Finite transfers, plain and reliable alike.
    Xfer,
    Stream,
    Am,
}

/// A receiver-side table entry the epoch-TTL sweep must spare on an
/// operation's behalf.
pub(crate) enum GcExempt {
    /// The `(receiver, sender)` reliable-transfer session.
    Session(NodeId, NodeId),
    /// The `(callee, caller, call id)` cached RPC reply.
    Reply(NodeId, NodeId, u32),
}

/// One protocol family's state machine (see the module docs for what
/// each method owes the scheduler).
pub(crate) trait OpMachine {
    /// Admission: runs once per execution, before the first `step`.
    fn start(&mut self, m: &mut Machine);

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError>;

    /// Deliver `k ≥ 1` timer ticks at once.
    fn tick_n(&mut self, k: u64);

    /// Cycles until a timer tick alone could make the next step
    /// non-idle; `max_wait` is the machine's `max_wait_cycles`.
    fn wake_in(&self, max_wait: u64) -> u64;

    /// Does the packet `meta` at `node`'s queue head belong to this
    /// operation?
    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool;

    /// `(source, destination)`: the nodes whose packet activity can
    /// change this op's behavior. The source is where recovery work is
    /// billed.
    fn endpoints(&self) -> (NodeId, NodeId);

    /// Operations with equal keys are serialized; `None` never
    /// conflicts.
    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)>;

    /// What the epoch-TTL sweep must not reclaim while this op is
    /// unfinished; `parked` says it sits between recovery executions.
    fn gc_exempt(&self, _parked: bool) -> Option<GcExempt> {
        None
    }

    /// Back to the state `new` built, for a recovery re-execution.
    fn reset(&mut self);
}

/// Pair-wide claim test: `node` is one of the pair and the packet came
/// from one of the pair.
pub(crate) fn pairwise(node: NodeId, pkt_src: NodeId, a: NodeId, b: NodeId) -> bool {
    (node == a || node == b) && (pkt_src == a || pkt_src == b)
}

/// Ticks until a `waited`-style counter first *exceeds* `bound` (the
/// protocols' window checks are all `waited > bound`), clamped to at
/// least one cycle out.
pub(crate) fn win(bound: u64, waited: u64) -> u64 {
    bound.saturating_add(1).saturating_sub(waited).max(1)
}

/// Cost-free gate: is the packet at `node`'s queue head from `from`
/// with tag `tag`?
pub(crate) fn peek_is(m: &mut Machine, node: NodeId, from: NodeId, tag: u8) -> bool {
    m.rx_peek_at(node).is_some_and(|meta| meta.src == from && meta.tag == tag)
}

/// Compare both endpoints' crash-restart counters against the values
/// `seen` at the operation's start. A mismatch means that peer crashed
/// and lost its protocol state mid-flight: fail fast with the retryable
/// [`ProtocolError::SessionReset`] instead of timing out against a node
/// that no longer remembers the session. Pure host-side comparison —
/// no simulated instructions.
pub(crate) fn check_restart(
    m: &Machine,
    src: NodeId,
    dst: NodeId,
    seen: (u32, u32),
) -> Result<(), ProtocolError> {
    if m.restarts_of(src) != seen.0 {
        return Err(ProtocolError::SessionReset { node: src });
    }
    if m.restarts_of(dst) != seen.1 {
        return Err(ProtocolError::SessionReset { node: dst });
    }
    Ok(())
}

/// The family-specific half of an [`Op`]: what to run, between whom.
/// It exists only until submission — [`OpBody::build`] turns it into the
/// state machine, which is the operation from then on.
///
/// `call_id` and `token` are *resolved* fields — zero as constructed,
/// filled in by [`Engine::submit`](crate::Engine::submit) — and the machine keeps them across
/// re-executions, which is where exactly-once needs continuity: an RPC
/// re-execution reuses its call id so the callee's reply cache
/// deduplicates a handler that already ran, and a recovering am4 keeps
/// its delivery token.
#[derive(Debug, Clone)]
pub(crate) enum OpBody {
    /// `lens` splits `data` into the messages of a segment-reuse batch;
    /// empty for a transfer of one message. A `policy` makes the
    /// transfer reliable.
    Xfer {
        src: NodeId,
        dst: NodeId,
        data: Vec<u32>,
        lens: Vec<usize>,
        engine: PayloadEngine,
        policy: Option<RetryPolicy>,
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
    pub(crate) fn build(self, m: &Machine, managed: bool) -> Box<dyn OpMachine> {
        let n = m.config().packet_words;
        match self {
            OpBody::Xfer { src, dst, data, lens, engine, policy } => {
                Box::new(XferOp::new(src, dst, data, lens, engine, n, policy))
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
/// [`Engine::submit`](crate::Engine::submit) or run to completion by
/// [`Machine::run`]. The description is plain data: nothing is
/// validated, allocated or traced until submission.
///
/// The op carries its [family] in its type, and [`Machine::run`] returns
/// that family's own outcome. A list that mixes families holds the plain
/// `Op` (`Op<family::Mixed>`), which every typed op converts into.
///
/// ```
/// # use timego_am::{Op, RecoveryPolicy};
/// # use timego_netsim::NodeId;
/// let op = Op::rpc(NodeId::new(0), NodeId::new(1), 40, [1, 2, 3, 4], None)
///     .recovering(&RecoveryPolicy::default())
///     .deadline(10_000)
///     .class(2);
/// let ping = Op::am4(NodeId::new(0), NodeId::new(1), 40, [0; 4]);
/// let mixed: Vec<Op> = vec![op.into(), ping.into()];
/// # let _ = mixed;
/// ```
#[derive(Debug, Clone)]
pub struct Op<F = family::Mixed> {
    pub(crate) body: OpBody,
    pub(crate) after: Vec<OpId>,
    pub(crate) recovery: Option<RecoveryPolicy>,
    pub(crate) deadline: Option<u64>,
    pub(crate) class: Option<u8>,
    family: PhantomData<F>,
}

impl<F: Family> From<Op<F>> for Op {
    fn from(op: Op<F>) -> Op {
        op.retype()
    }
}

impl Op {
    fn new<F>(body: OpBody) -> Op<F> {
        let family = PhantomData;
        Op { body, after: Vec::new(), recovery: None, deadline: None, class: None, family }
    }

    /// A finite-sequence transfer: what [`Machine::xfer`] runs.
    #[must_use]
    pub fn xfer(src: NodeId, dst: NodeId, data: &[u32]) -> Op<family::Xfer> {
        Op::finite(src, dst, data, PayloadEngine::Cpu)
    }

    /// A finite transfer of one message whose payload `engine` moves.
    pub(crate) fn finite(
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        engine: PayloadEngine,
    ) -> Op<family::Xfer> {
        Op::new(OpBody::Xfer { src, dst, data: data.to_vec(), lens: Vec::new(), engine, policy: None })
    }

    /// The messages of a segment-reuse batch: what
    /// [`Machine::xfer_batch`] runs.
    pub(crate) fn batch(src: NodeId, dst: NodeId, messages: &[&[u32]]) -> Op<family::Batch> {
        let lens = messages.iter().map(|msg| msg.len()).collect();
        let data = messages.concat();
        Op::new(OpBody::Xfer { src, dst, data, lens, engine: PayloadEngine::Cpu, policy: None })
    }

    /// A fault-tolerant finite-sequence transfer. On a clean network it
    /// executes (and costs, feature by feature) exactly what
    /// [`Op::xfer`] does; on a lossy one it recovers from dropped,
    /// duplicated, reordered and outage-suppressed packets within
    /// `policy`'s attempt bounds, billing the recovery to
    /// `Feature::FaultTol`. Submission rejects data too large for the
    /// 20-bit offset encoding and a zero-attempt policy; a phase that
    /// exhausts its retry budget settles with
    /// [`ProtocolError::Timeout`].
    #[must_use]
    pub fn xfer_reliable(
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        policy: &RetryPolicy,
    ) -> Op<family::Reliable> {
        let (data, policy) = (data.to_vec(), Some(policy.clone()));
        Op::new(OpBody::Xfer { src, dst, data, lens: Vec::new(), engine: PayloadEngine::Cpu, policy })
    }

    /// A stream send: what [`Machine::stream_send`] runs. Sends on the
    /// same stream (or between the same node pair) are serialized in
    /// submission order.
    #[must_use]
    pub fn stream_send(id: StreamId, data: &[u32]) -> Op<family::Stream> {
        Op::new(OpBody::Stream { id, data: data.to_vec() })
    }

    /// An RPC to the handler registered for `tag` on `dst`; the outcome
    /// is its reply words. Without a `policy` it is the paper's
    /// cheapest safe round trip (a Table 1 send and receive at each
    /// end) and times out if the request or reply is lost. With one, a
    /// lost request or reply is recovered by retransmitting the request
    /// after the policy's backoff window; the callee answers
    /// retransmissions from its reply cache, so the handler runs
    /// exactly once per call, and a clean run costs exactly what the
    /// call without a policy does. The call id is allocated at
    /// submission, so replies of concurrent calls — even between the
    /// same pair of nodes — are matched by correlation id.
    #[must_use]
    pub fn rpc(
        src: NodeId,
        dst: NodeId,
        tag: u8,
        args: [u32; 4],
        policy: Option<&RetryPolicy>,
    ) -> Op<family::Rpc> {
        Op::new(OpBody::Rpc { src, dst, tag, args, policy: policy.cloned(), call_id: 0 })
    }

    /// A single four-word active message ([`Machine::am4_send`] plus
    /// the destination's gated poll) — the building block of
    /// engine-native collectives, where every tree
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
    pub fn am4(src: NodeId, dst: NodeId, tag: u8, words: [u32; 4]) -> Op<family::Am4> {
        Op::new(OpBody::Am4 { src, dst, tag, words, token: 0 })
    }
}

impl<F> Op<F> {
    /// The same op under another family type parameter.
    pub(crate) fn retype<G>(self) -> Op<G> {
        let Op { body, after, recovery, deadline, class, family: _ } = self;
        Op { body, after, recovery, deadline, class, family: PhantomData }
    }

    /// Run-after dependencies: hold the operation until every op in
    /// `ids` completes successfully (repeated calls accumulate).
    #[must_use]
    pub fn after(mut self, ids: &[OpId]) -> Self {
        self.after.extend_from_slice(ids);
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
    /// — is *also* accumulated into that class's [`CostVector`](timego_cost::CostVector),
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
    pub(crate) fn validate(&self, m: &Machine, next_id: u64) -> Result<(), ProtocolError> {
        let bad = |what: String| Err(ProtocolError::BadTransfer(what));
        let (src, dst) = match &self.body {
            OpBody::Xfer { src, dst, .. }
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
            OpBody::Xfer { policy: Some(policy), .. } | OpBody::Rpc { policy: Some(policy), .. }
                if policy.max_attempts == 0 =>
            {
                return bad("policy.max_attempts is 0; need at least one attempt".into());
            }
            OpBody::Xfer { data, .. } if data.is_empty() => {
                return bad("empty transfer".into());
            }
            OpBody::Xfer { lens, .. } if lens.contains(&0) => {
                return bad("empty message in batch".into());
            }
            OpBody::Xfer { data, policy: Some(_), .. } if data.len() >= (1 << OFFSET_BITS) => {
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

impl<F: family::Recoverable> Op<F> {
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
    /// the am4 carries its token.
    ///
    /// Only the families with a re-execution recipe
    /// ([`family::Recoverable`]) offer the modifier, and a mixed-family
    /// list applies it before converting: a plain transfer has no
    /// recipe, so asking for one does not compile.
    ///
    /// ```compile_fail
    /// # use timego_am::{Op, RecoveryPolicy};
    /// # use timego_netsim::NodeId;
    /// let op = Op::xfer(NodeId::new(0), NodeId::new(1), &[1]).recovering(&RecoveryPolicy::none());
    /// ```
    #[must_use]
    pub fn recovering(mut self, policy: &RecoveryPolicy) -> Self {
        self.recovery = Some(policy.clone());
        self
    }
}

/// The protocol families an [`Op`] belongs to. The family is a type
/// parameter of the op, so [`Machine::run`] returns the family's own
/// outcome: asking an RPC for a transfer's outcome does not compile.
pub mod family {
    use crate::engine::OpOutcome;
    use crate::stream::StreamOutcome;
    use crate::xfer::{ReliableOutcome, XferOutcome};

    /// A protocol family and what its ops yield. Sealed: the families
    /// of this module are all there are.
    pub trait Family: sealed::Project {
        /// What a completed op of the family yields.
        type Outcome;
    }

    pub(crate) mod sealed {
        use super::{Family, OpOutcome};

        /// The one projection from the engine's untyped outcome.
        pub trait Project {
            /// `outcome` as the family's own, if the family produced it.
            fn project(outcome: OpOutcome) -> Option<Self::Outcome>
            where
                Self: Family;
        }
    }

    macro_rules! families {
        ($($(#[$doc:meta])* $vis:vis $family:ident => $variant:ident($outcome:ty);)+) => {$(
            $(#[$doc])*
            #[derive(Debug, Clone)]
            $vis enum $family {}

            impl Family for $family {
                type Outcome = $outcome;
            }

            impl sealed::Project for $family {
                fn project(outcome: OpOutcome) -> Option<$outcome> {
                    match outcome {
                        OpOutcome::$variant(out) => Some(out),
                        _ => None,
                    }
                }
            }
        )+};
    }

    families! {
        /// [`Op::xfer`](crate::Op::xfer): a finite-sequence transfer.
        pub Xfer => Xfer(XferOutcome);
        /// A segment-reuse batch, one outcome per message
        /// ([`Machine::xfer_batch`](crate::Machine::xfer_batch)).
        pub(crate) Batch => XferBatch(Vec<XferOutcome>);
        /// [`Op::xfer_reliable`](crate::Op::xfer_reliable): a
        /// fault-tolerant finite-sequence transfer.
        pub Reliable => Reliable(ReliableOutcome);
        /// [`Op::stream_send`](crate::Op::stream_send): a stream send.
        pub Stream => Stream(StreamOutcome);
        /// [`Op::rpc`](crate::Op::rpc): an RPC, yielding the reply words.
        pub Rpc => Rpc([u32; 4]);
        /// [`Op::am4`](crate::Op::am4): one four-word active message,
        /// yielding the words the destination read.
        pub Am4 => Am4([u32; 4]);
    }

    /// A family with a re-execution recipe: the ones
    /// [`Op::recovering`](crate::Op::recovering) is offered on.
    pub trait Recoverable: Family {}

    impl Recoverable for Reliable {}
    impl Recoverable for Stream {}
    impl Recoverable for Rpc {}
    impl Recoverable for Am4 {}

    /// No one family: the plain [`Op`](crate::Op) a list mixing
    /// families holds. Every typed op converts into it, and
    /// [`Engine::submit`](crate::Engine::submit) takes it; its outcome
    /// is the untyped [`OpOutcome`], read with
    /// [`Engine::take_outcome`](crate::Engine::take_outcome).
    #[derive(Debug, Clone)]
    pub enum Mixed {}
}
