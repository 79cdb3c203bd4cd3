//! The op-machine contract: everything the [`Engine`](crate::Engine)
//! asks of a protocol family, and the helpers the families share.
//!
//! A family is one module — `xfer`, `xfer_reliable`, `stream`, `rpc`,
//! `am` — holding its outcome type, its blocking wrappers, its cost
//! helpers and one state machine implementing [`OpMachine`]. The engine
//! schedules `Box<dyn OpMachine>` and knows nothing else about a family
//! once [`Engine::submit`](crate::Engine::submit) has built the machine:
//! from then on the machine is the operation's only representation,
//! parked between recovery executions included.
//!
//! What each method owes the scheduler:
//!
//! * **`step`** performs one iteration of the family's blocking driver
//!   loop, minus the `advance(1)` that loop used to pass time, and
//!   receives only behind a cost-free head-of-queue peek — an `Idle`
//!   step bills nothing.
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

use timego_cost::Fine;
use timego_netsim::{NodeId, RxMeta};

use crate::costs::{xfer_recv, xfer_send};
use crate::engine::OpOutcome;
use crate::error::ProtocolError;
use crate::machine::Machine;

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

/// The per-message source prologue and destination handler entry charged
/// between the handshake and the data phase (identical in the plain,
/// reliable and batched protocols).
pub(crate) fn transfer_prologue(m: &mut Machine, src: NodeId, dst: NodeId) {
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
