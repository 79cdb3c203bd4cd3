//! The simulated parallel machine: nodes (NI + memory + cost recorder)
//! over a shared network substrate, plus the single-packet active-message
//! layer.

use std::collections::{HashMap, HashSet};

use timego_cost::{CostHandle, Feature, Fine};
use timego_netsim::{NodeId, RxMeta};
use timego_ni::{Addr, Memory, NiPort, SharedNetwork};

use crate::am::{Am4Msg, PollOutcome};
use crate::costs::{am4_recv, am4_send, ctl_send, recovery};
use crate::engine::Engine;
use crate::error::ProtocolError;
use crate::op::family::Family;
use crate::op::Op;
use crate::stream::StreamState;

/// Hardware message tags. Tags below [`Tags::USER_BASE`] are reserved
/// for the built-in protocols; user active messages use
/// [`Tags::USER_BASE`] and above.
#[derive(Debug, Clone, Copy)]
pub struct Tags;

impl Tags {
    /// Finite-sequence transfer: segment allocation request (header =
    /// session epoch, first payload word = segment length). A plain
    /// transfer's epoch is 0.
    pub const XFER_REQ: u8 = 1;
    /// Finite-sequence transfer: allocation reply (header = session
    /// epoch, first payload word = segment id).
    pub const XFER_REPLY: u8 = 2;
    /// Finite-sequence transfer: data packet (header = buffer offset; a
    /// reliable transfer's nonce in the bits above the low 20).
    pub const XFER_DATA: u8 = 3;
    /// Finite-sequence transfer: final end-to-end acknowledgement
    /// (header = session epoch, first payload word = segment id).
    pub const XFER_ACK: u8 = 4;
    /// Indefinite-sequence stream: data packet (header = sequence number).
    pub const STREAM_DATA: u8 = 5;
    /// Indefinite-sequence stream: acknowledgement (header = sequence number).
    pub const STREAM_ACK: u8 = 6;
    /// High-level-network finite transfer: data packet.
    pub const HL_DATA: u8 = 7;
    /// High-level-network stream: data packet.
    pub const HL_STREAM: u8 = 8;
    /// Reliable finite-sequence transfer: selective retransmission
    /// request (header = nonce above the index of the first missing
    /// packet, payload = missing-packet bitmap). Only the recovery
    /// branches of `xfer.rs` send it.
    pub const XFER_NACK: u8 = 9;
    /// Reliable finite-sequence transfer: acknowledgement probe (the
    /// source suspects the final ack was lost and asks for a resend;
    /// header = session epoch).
    pub const XFER_PROBE: u8 = 10;
    /// RPC reply packets (highest tag, so a
    /// [`DualNetwork`](timego_netsim::DualNetwork) with this threshold
    /// routes every reply onto its second network — footnote 6).
    pub const RPC_REPLY: u8 = 255;
    /// First tag available for user handlers.
    pub const USER_BASE: u8 = 16;
}

/// Configuration of the messaging layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmamConfig {
    /// Payload words per hardware packet (`n`; even, ≥ 2). The CM-5
    /// value is 4.
    pub packet_words: usize,
    /// Upper bound on cycles any protocol phase will wait for a packet
    /// before reporting [`ProtocolError::Timeout`].
    pub max_wait_cycles: u64,
    /// Receiver-side garbage-collection TTL in cycles: sessions and
    /// cached RPC replies older than this — and not owned by a live
    /// operation — are reclaimed by the engine's epoch-TTL sweep
    /// (billed to `Feature::FaultTol` at the receiver). The default
    /// equals `max_wait_cycles`, comfortably past every protocol's own
    /// retry envelope, so nothing live is ever collected. Must be ≥ 1:
    /// at zero every cached reply is expired at the next pump and a
    /// retransmitted request would re-run its handler.
    pub gc_ttl_cycles: u64,
}

/// Node memory capacity in words.
const MEM_WORDS: usize = 1 << 20;

impl Default for CmamConfig {
    fn default() -> Self {
        CmamConfig {
            packet_words: 4,
            max_wait_cycles: 1 << 20,
            gc_ttl_cycles: 1 << 20,
        }
    }
}

pub(crate) type Handler = Box<dyn FnMut(&mut Memory, Am4Msg)>;
pub(crate) type RpcHandler = Box<dyn FnMut(&mut Memory, Am4Msg) -> [u32; 4]>;

/// One processing node: its NI port, memory, cost recorder, and
/// registered active-message handlers.
pub(crate) struct Node {
    pub(crate) ni: NiPort,
    pub(crate) mem: Memory,
    pub(crate) cpu: CostHandle,
    handlers: HashMap<u8, Handler>,
    pub(crate) rpc_handlers: HashMap<u8, RpcHandler>,
}

impl Node {
    /// Send a 4-word control packet (request/reply/ack/stream data head):
    /// the 20-instruction shape of the paper's control packets
    /// (14 reg + 1 mem + 5 dev at 4 payload words). Returns `false` on
    /// backpressure — the caller must re-issue (paying again), exactly
    /// as CM-5 software re-stores a refused packet.
    pub(crate) fn send_ctl(&mut self, dst: NodeId, tag: u8, header: u32, words: [u32; 4]) -> bool {
        self.cpu.call(ctl_send::CALL);
        self.cpu.reg(Fine::NiSetup, ctl_send::SETUP_REG);
        self.cpu.mem_load(ctl_send::STATE_MEM);
        self.ni.stage_envelope(dst, tag, header);
        self.ni.push_payload2(words[0], words[1]);
        self.ni.push_payload2(words[2], words[3]);
        self.cpu.reg(Fine::CheckStatus, ctl_send::STATUS_REG);
        self.cpu.ctrl(ctl_send::CTRL);
        self.ni.commit_send() && {
            self.ni.load_send_status();
            true
        }
    }

    /// [`send_ctl`](Node::send_ctl), billed to `feature`.
    pub(crate) fn send_ctl_as(
        &mut self,
        feature: Feature,
        dst: NodeId,
        tag: u8,
        header: u32,
        words: [u32; 4],
    ) -> bool {
        self.cpu.clone().with_feature(feature, |_| self.send_ctl(dst, tag, header, words))
    }

    /// Latch the packet at the head of the receive queue and read it as
    /// a four-word message: latch, header and two double-word payload
    /// loads (4 `dev`). `None`, after the latch, if nothing is waiting.
    pub(crate) fn read_msg(&mut self) -> Option<Am4Msg> {
        let (src, tag) = self.ni.latch_rx()?;
        let header = self.ni.read_header();
        let (w0, w1) = self.ni.read_payload2();
        let (w2, w3) = self.ni.read_payload2();
        Some(Am4Msg { src, tag, header, words: [w0, w1, w2, w3] })
    }

    /// Table 1's polled receive up to the handler: procedure entry, the
    /// receive-status probe and, when a packet is waiting, tag vectoring
    /// and the latched read — 27 instructions with a message (22 reg +
    /// 5 dev), 13 without.
    pub(crate) fn poll_msg(&mut self) -> Option<Am4Msg> {
        self.cpu.call(am4_recv::CALL);
        self.cpu.ctrl(am4_recv::CTRL);
        if !self.ni.poll_status() {
            return None;
        }
        self.cpu.reg(Fine::CheckStatus, am4_recv::STATUS_REG);
        self.read_msg()
    }

    /// Receive one control packet that a cost-free peek has already
    /// shown to be pending: the 27-instruction shape of the paper's
    /// acknowledgement and handshake receives.
    pub(crate) fn recv_ctl_now(&mut self) -> Am4Msg {
        self.poll_msg().expect("recv_ctl_now requires a gated (peeked) packet")
    }

    /// Hand a received message to the user handler registered for its
    /// tag (2 handler instructions plus whatever the handler does), or
    /// back to the caller for a reserved tag or an unregistered one.
    pub(crate) fn dispatch(&mut self, msg: Am4Msg) -> PollOutcome {
        if msg.tag < Tags::USER_BASE {
            return PollOutcome::Unclaimed(msg);
        }
        match self.handlers.get_mut(&msg.tag) {
            Some(h) => {
                let tag = msg.tag;
                self.cpu.handler(2);
                h(&mut self.mem, msg);
                PollOutcome::Handled(tag)
            }
            None => PollOutcome::Unclaimed(msg),
        }
    }
}

/// Receiver-side bookkeeping for one reliable-transfer session: which
/// epoch the open segment belongs to, plus the segment id and buffer it
/// allocated. This is *shadow state* mirroring what the
/// instruction-charged segment registers hold, so a crash-restart can
/// erase it (modeling the state loss) without touching the cost model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionEntry {
    /// The session epoch the segment was allocated under.
    pub(crate) epoch: u32,
    /// The allocated segment id (what `XFER_REPLY` carries back).
    pub(crate) seg: u32,
    /// The destination buffer backing the segment.
    pub(crate) buffer: Addr,
    /// Substrate clock when the session opened — what the epoch-TTL
    /// garbage sweep ages against.
    pub(crate) opened_at: u64,
}

/// One cached RPC reply at a callee, stamped with the substrate clock
/// so the epoch-TTL sweep can age it out once no live caller can still
/// retransmit the request.
#[derive(Debug, Clone, Copy)]
struct ReplyEntry {
    /// The reply words the handler produced.
    words: [u32; 4],
    /// Substrate clock when the reply was cached.
    cached_at: u64,
}

/// The simulated machine: `n` nodes over one shared network substrate.
///
/// All protocol entry points live here because the drivers orchestrate
/// both endpoints of a transfer; per-node costs are nevertheless
/// recorded separately (see [`Machine::cpu`]).
///
/// Any [`Network`](timego_netsim::Network) substrate plugs in — the
/// parallel sharded one included, since it hides its worker pool behind
/// `advance`:
///
/// ```
/// use timego_am::{CmamConfig, Machine};
/// use timego_netsim::{NodeId, ShardedConfig, ShardedNetwork};
/// use timego_ni::share;
///
/// // 16 nodes over a 4-shard substrate stepped by 2 worker threads;
/// // the protocol layers can't tell it from a flat network (and its
/// // results don't depend on the thread count).
/// let net = ShardedNetwork::new(16, ShardedConfig {
///     shards: 4,
///     threads: 2,
///     ..ShardedConfig::default()
/// });
/// let mut m = Machine::new(share(net), 16, CmamConfig::default());
/// let data: Vec<u32> = (0..40).collect();
/// let outcome = m.xfer(NodeId::new(1), NodeId::new(9), &data).unwrap();
/// assert!(outcome.packets > 0);
/// ```
pub struct Machine {
    pub(crate) net: SharedNetwork,
    pub(crate) nodes: Vec<Node>,
    pub(crate) cfg: CmamConfig,
    pub(crate) streams: Vec<StreamState>,
    next_call_id: u64,
    /// Replies already computed per (callee, caller, call id), kept by
    /// the callee so a retransmitted request is answered from cache
    /// instead of re-running the handler (exactly-once execution under
    /// retry). Keyed by callee so a crash-restart can erase exactly the
    /// restarted node's cache. Private so that [`Machine::cache_reply`]
    /// is the only insert (see `gc_not_before`).
    rpc_replies: HashMap<(NodeId, NodeId, u32), ReplyEntry>,
    /// Monotonic per-ordered-pair session epoch counters for reliable
    /// transfers. Epochs survive restarts (model them as
    /// incarnation-qualified counters) so a post-restart session can
    /// never collide with a pre-restart one.
    session_epochs: HashMap<(NodeId, NodeId), u32>,
    /// Open reliable-transfer sessions at each receiver, keyed by
    /// (receiver, sender). Erased wholesale for a node when it
    /// crash-restarts. Private so that [`Machine::open_session`] is the
    /// only insert (see `gc_not_before`).
    sessions: HashMap<(NodeId, NodeId), SessionEntry>,
    /// No session or cached reply can be TTL-expired before this
    /// substrate cycle: a lower bound on `oldest stamp + gc_ttl_cycles`
    /// over both tables (`u64::MAX` while nothing has been inserted
    /// since they were last seen empty). The two insert helpers stamp
    /// with the substrate clock, which never runs backwards, so an
    /// insert can only arm an unarmed bound; a removal leaves it
    /// conservatively early. [`Machine::gc_has_expired`] is one
    /// comparison until the clock gets here.
    gc_not_before: u64,
    /// Full-table walks [`Machine::gc_has_expired`] has made.
    gc_scans: u64,
    /// Per-node restart counts already absorbed by
    /// [`Machine::observe_restarts`] (indexed by node).
    restart_seen: Vec<u32>,
    /// Last [`Network::restarts_hint`] value absorbed — the O(1) change
    /// detector that lets `observe_restarts` skip the per-node scan on
    /// crash-free quanta.
    restart_hint_seen: u64,
}

impl Machine {
    /// Build a machine with `nodes` nodes over `net`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the substrate's node count,
    /// if `cfg.packet_words` is zero or odd, or if `cfg.gc_ttl_cycles`
    /// is zero.
    pub fn new(net: SharedNetwork, nodes: usize, cfg: CmamConfig) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(
            nodes <= net.borrow().num_nodes(),
            "substrate has only {} nodes",
            net.borrow().num_nodes()
        );
        assert!(
            cfg.packet_words >= 2 && cfg.packet_words.is_multiple_of(2),
            "packet_words must be even and at least 2"
        );
        assert!(cfg.gc_ttl_cycles >= 1, "gc_ttl_cycles must be at least 1");
        let mut node_vec = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let cpu = CostHandle::new();
            node_vec.push(Node {
                ni: NiPort::new(NodeId::new(i), net.clone(), cpu.clone()),
                mem: Memory::new(MEM_WORDS, cpu.clone()),
                cpu,
                handlers: HashMap::new(),
                rpc_handlers: HashMap::new(),
            });
        }
        Machine {
            net,
            nodes: node_vec,
            cfg,
            streams: Vec::new(),
            next_call_id: 0,
            rpc_replies: HashMap::new(),
            session_epochs: HashMap::new(),
            sessions: HashMap::new(),
            gc_not_before: u64::MAX,
            gc_scans: 0,
            restart_seen: vec![0; nodes],
            restart_hint_seen: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration this machine runs with.
    pub fn config(&self) -> &CmamConfig {
        &self.cfg
    }

    /// The shared network substrate.
    pub fn network(&self) -> &SharedNetwork {
        &self.net
    }

    /// The cost recorder of `node` (shared handle — snapshot or reset it
    /// to measure a protocol run).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn cpu(&self, node: NodeId) -> CostHandle {
        self.nodes[node.index()].cpu.clone()
    }

    /// Reset every node's cost recorder.
    pub fn reset_costs(&mut self) {
        for n in &self.nodes {
            n.cpu.reset();
        }
    }

    /// Advance the network substrate by `cycles` (free of instruction
    /// cost).
    pub fn advance(&self, cycles: u64) {
        self.net.borrow_mut().advance(cycles);
    }

    pub(crate) fn node_mut(&mut self, node: NodeId) -> &mut Node {
        &mut self.nodes[node.index()]
    }

    /// The endpoint check every transfer entry point shares: both nodes
    /// in range, and distinct.
    pub(crate) fn check_endpoints(&self, src: NodeId, dst: NodeId) -> Result<(), ProtocolError> {
        let bad = |what: String| Err(ProtocolError::BadTransfer(what));
        for (field, node) in [("src", src), ("dst", dst)] {
            if node.index() >= self.nodes.len() {
                return bad(format!("{field} {node} is out of range ({} nodes)", self.nodes.len()));
            }
        }
        if src == dst {
            return bad(format!("src and dst are both {src}; endpoints must differ"));
        }
        Ok(())
    }

    /// Cost-free peek at the packet waiting at `node`'s NI (latched
    /// first, else the head of the substrate's receive queue).
    pub(crate) fn rx_peek_at(&mut self, node: NodeId) -> Option<RxMeta> {
        self.nodes[node.index()].ni.rx_peek()
    }

    /// The scheduler's look at the same head: pure — an empty queue is
    /// "no head", never a substrate peek (see [`NiPort::rx_head`]).
    pub(crate) fn rx_head_at(&self, node: NodeId) -> Option<RxMeta> {
        self.nodes[node.index()].ni.rx_head()
    }

    /// Run one operation to completion on a fresh [`Engine`] — the one
    /// blocking entry point of every engine protocol — and return its
    /// family's own outcome plus the number of re-executions it took
    /// (zero without [`Op::recovering`]). A modifier is a modifier
    /// here too: `run(Op::rpc(..).recovering(&p))` is an RPC the engine
    /// re-executes after a crash-restart, and a clean run of it costs
    /// exactly what the unmodified op does.
    ///
    /// ```
    /// use timego_am::{CmamConfig, Machine, Op, RecoveryPolicy, RetryPolicy};
    /// use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
    ///
    /// # fn main() -> Result<(), timego_am::ProtocolError> {
    /// let net = timego_ni::share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
    /// let mut m = Machine::new(net, 2, CmamConfig::default());
    /// let (caller, callee) = (NodeId::new(0), NodeId::new(1));
    /// m.register_rpc_handler(callee, 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
    ///
    /// let call = Op::rpc(caller, callee, 40, [7, 0, 0, 0], Some(&RetryPolicy::default()));
    /// let (reply, re_executions) = m.run(call.recovering(&RecoveryPolicy::default()))?;
    /// assert_eq!((reply, re_executions), ([8, 0, 0, 0], 0));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// The op's type names its family, so asking an RPC for a
    /// transfer's outcome does not compile:
    ///
    /// ```compile_fail,E0308
    /// # use timego_am::{CmamConfig, Machine, Op, XferOutcome};
    /// # use timego_netsim::{DeliveryScript, NodeId, ScriptedNetwork};
    /// # let net = timego_ni::share(ScriptedNetwork::new(2, DeliveryScript::InOrder));
    /// # let mut m = Machine::new(net, 2, CmamConfig::default());
    /// let call = Op::rpc(NodeId::new(0), NodeId::new(1), 40, [7, 0, 0, 0], None);
    /// let (out, _): (XferOutcome, u32) = m.run(call).unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// What [`Engine::submit`] rejects, or the error the op settled
    /// with (after its last execution, with a recovery policy).
    pub fn run<F: Family>(&mut self, op: Op<F>) -> Result<(F::Outcome, u32), ProtocolError> {
        let mut eng = Engine::new();
        let id = eng.submit(self, op)?;
        eng.run(self);
        let re_executions = eng.recovery_executions(id);
        let settled = eng.take_outcome(id).and_then(|done| done.map(F::project).transpose());
        Ok((settled.expect("a run op settles with its family's outcome")?, re_executions))
    }

    /// Allocate a fresh RPC correlation id.
    pub(crate) fn alloc_call_id(&mut self) -> u64 {
        let id = self.next_call_id;
        self.next_call_id += 1;
        id
    }

    /// Open a fresh session epoch for reliable transfers `src → dst`.
    /// Monotonic per ordered pair, starting at 1 (epoch 0 never names a
    /// live session: it is what a plain transfer stamps). Cost-free: the stamp rides in header words the
    /// handshake already pays to send.
    pub(crate) fn next_session_epoch(&mut self, src: NodeId, dst: NodeId) -> u32 {
        let e = self.session_epochs.entry((src, dst)).or_insert(0);
        *e += 1;
        *e
    }

    /// How many times the fault plane has crash-restarted `node` so far
    /// (cost-free substrate query).
    pub(crate) fn restarts_of(&self, node: NodeId) -> u32 {
        self.net.borrow().restarts(node)
    }

    /// Absorb any node crash-restarts the fault plane performed since
    /// the last call: a restarted node comes back with amnesia, so its
    /// reliable-transfer session table, its RPC reply cache, its stream
    /// cursors and whatever sat in its receive queue are erased.
    ///
    /// Cost-free by design — this models the *state loss itself*. The
    /// instruction bill of recovering from it is charged where peers
    /// detect the restart (stale-epoch discards, `SessionReset`
    /// fail-fast) and re-establish sessions, all under
    /// `Feature::FaultTol`. On a crash-free run the per-node counters
    /// never move and this is a single hint comparison. Returns the
    /// nodes whose restarts were absorbed this call (empty on the
    /// crash-free fast path) so a readiness scheduler can wake their
    /// subscribers.
    pub(crate) fn observe_restarts(&mut self) -> Vec<NodeId> {
        // O(1) early-out: the hint is any value that changes whenever a
        // per-node restart counter does.
        let hint = self.net.borrow().restarts_hint();
        if hint == self.restart_hint_seen {
            return Vec::new();
        }
        self.restart_hint_seen = hint;
        let mut restarted = Vec::new();
        for i in 0..self.nodes.len() {
            let node = NodeId::new(i);
            let count = self.net.borrow().restarts(node);
            if count == self.restart_seen[i] {
                continue;
            }
            self.restart_seen[i] = count;
            restarted.push(node);
            // The restarted node's own endpoint protocol state is gone.
            self.sessions.retain(|&(receiver, _), _| receiver != node);
            self.rpc_replies.retain(|&(callee, _, _), _| callee != node);
            for st in &mut self.streams {
                st.crash_reset(node);
            }
            // Anything queued for it at the NI was lost with the node.
            let mut net = self.net.borrow_mut();
            while net.try_receive(node).is_some() {}
        }
        restarted
    }

    /// Drain the substrate's per-node delivery wake set (see
    /// [`Network::take_delivered`](timego_netsim::Network::take_delivered)).
    pub(crate) fn take_delivered(&mut self) -> Vec<NodeId> {
        self.net.borrow_mut().take_delivered()
    }

    /// Consume and discard the (peeked) packet at `node`'s queue head as
    /// recovery noise: the control-receive identification shape plus the
    /// fault-tolerance stray-discard charge, mirroring what the blocking
    /// recovery paths paid for strays.
    pub(crate) fn discard_stray(&mut self, node: NodeId) {
        let n = self.node_mut(node);
        let ok = n.ni.poll_status();
        debug_assert!(ok, "discard_stray requires a gated (peeked) packet");
        n.cpu.call(am4_recv::CALL);
        n.cpu.reg(Fine::CheckStatus, am4_recv::STATUS_REG);
        n.cpu.ctrl(am4_recv::CTRL);
        let _ = n.ni.latch_rx();
        let _ = n.ni.read_header();
        n.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
            cpu.reg(Fine::RegOp, recovery::STRAY_DISCARD_REG);
        });
        n.ni.drop_latched();
    }

    /// The substrate clock, as raw network cycles (cost-free
    /// introspection).
    pub(crate) fn now(&self) -> u64 {
        self.net.borrow().now().cycles()
    }

    /// Arm the expiry bound for an entry stamped `now`. Every armed
    /// bound is some stamp ≤ `now` plus the TTL, so the `min` acts only
    /// on an unarmed one.
    fn gc_note_insert(&mut self, now: u64) {
        self.gc_not_before = self.gc_not_before.min(now.saturating_add(self.cfg.gc_ttl_cycles));
    }

    /// The open session `sender → receiver`, if any.
    pub(crate) fn session(&self, receiver: NodeId, sender: NodeId) -> Option<&SessionEntry> {
        self.sessions.get(&(receiver, sender))
    }

    /// Record a freshly opened session at `receiver`, stamped with the
    /// substrate clock (host-side bookkeeping, no simulated
    /// instructions).
    pub(crate) fn open_session(
        &mut self,
        receiver: NodeId,
        sender: NodeId,
        epoch: u32,
        (seg, buffer): (u32, Addr),
    ) {
        let opened_at = self.now();
        self.gc_note_insert(opened_at);
        self.sessions.insert((receiver, sender), SessionEntry { epoch, seg, buffer, opened_at });
    }

    /// Forget the session `sender → receiver` (transfer complete, or
    /// replaced by a later epoch).
    pub(crate) fn close_session(&mut self, receiver: NodeId, sender: NodeId) {
        self.sessions.remove(&(receiver, sender));
    }

    /// The reply `callee` cached for `caller`'s call `id`, if any.
    pub(crate) fn cached_reply(&self, callee: NodeId, caller: NodeId, id: u32) -> Option<[u32; 4]> {
        self.rpc_replies.get(&(callee, caller, id)).map(|r| r.words)
    }

    /// Remember a handler's reply for duplicate suppression, stamped
    /// with the substrate clock (harness state, cost-free).
    pub(crate) fn cache_reply(&mut self, callee: NodeId, caller: NodeId, id: u32, words: [u32; 4]) {
        let cached_at = self.now();
        self.gc_note_insert(cached_at);
        self.rpc_replies.insert((callee, caller, id), ReplyEntry { words, cached_at });
    }

    /// Epoch-TTL garbage sweep over the receiver-side protocol tables:
    /// reclaim reliable-transfer sessions and cached RPC replies whose
    /// age (against [`CmamConfig::gc_ttl_cycles`]) says no live peer can
    /// still be driving them, skipping entries a live operation owns.
    ///
    /// Each reclaimed entry bills the table-maintenance shape to
    /// `Feature::FaultTol` at the node holding it (the receiver for
    /// sessions, the callee for replies). Segment *memory* is a bump
    /// allocator with no free — what GC bounds is the shadow state the
    /// protocol consults (session table, reply cache), which is the
    /// state that grows per crash. Returns `(sessions, replies)`
    /// reclaimed.
    pub(crate) fn gc_expired(
        &mut self,
        live_sessions: &HashSet<(NodeId, NodeId)>,
        live_replies: &HashSet<(NodeId, NodeId, u32)>,
    ) -> (usize, usize) {
        self.gc_tables(self.cfg.gc_ttl_cycles, live_sessions, live_replies)
    }

    /// Cheap pre-check for the per-quantum sweep: is *any* session or
    /// cached reply TTL-expired right now, ignoring live-set
    /// exemptions? When this is `false` a full [`Machine::gc_expired`]
    /// is guaranteed to reclaim (and bill) nothing, so the engine can
    /// skip building the live sets entirely. Conservative in the safe
    /// direction: a live-exempt expired entry still returns `true`.
    ///
    /// One comparison while the clock is short of `gc_not_before`.
    /// Once it gets there the tables are walked, and either the oldest
    /// entry really has expired (`true`; the bound stays behind the
    /// clock, so while an expired entry is live-exempt every pump walks
    /// and sweeps) or the bound was conservative and re-arms from the
    /// oldest survivor.
    pub(crate) fn gc_has_expired(&mut self) -> bool {
        if self.sessions.is_empty() && self.rpc_replies.is_empty() {
            return false;
        }
        let now = self.now();
        let ttl = self.cfg.gc_ttl_cycles;
        if now < self.gc_not_before {
            // Debug builds check the bound against the full scan on
            // every quantum.
            debug_assert!(
                self.gc_oldest_stamp().is_none_or(|s| now.saturating_sub(s) < ttl),
                "an entry expired before gc_not_before = {}",
                self.gc_not_before
            );
            return false;
        }
        self.gc_scans += 1;
        let oldest = self.gc_oldest_stamp().expect("a table is non-empty");
        self.gc_not_before = oldest.saturating_add(ttl);
        now.saturating_sub(oldest) >= ttl
    }

    /// The oldest stamp in either table — the full walk.
    fn gc_oldest_stamp(&self) -> Option<u64> {
        let sessions = self.sessions.values().map(|s| s.opened_at);
        sessions.chain(self.rpc_replies.values().map(|r| r.cached_at)).min()
    }

    /// How many times the per-pump garbage pre-check has had to walk
    /// the session table and reply cache: once per expiry (or per pump
    /// while an expired entry is live-exempt), never on a run shorter
    /// than [`CmamConfig::gc_ttl_cycles`]. A deterministic stand-in for
    /// the sweep's wall-time cost; part of no outcome signature.
    #[must_use]
    pub fn gc_scans(&self) -> u64 {
        self.gc_scans
    }

    /// Force-run the garbage sweep with a zero TTL and no live-set
    /// exemptions: every session and cached reply still in the tables is
    /// reclaimed (and billed to `FaultTol` at its holder). For tests and
    /// benches that assert the bounded-table property after a run
    /// completes. Returns `(sessions, replies)` reclaimed.
    pub fn gc_sweep(&mut self) -> (usize, usize) {
        self.gc_tables(0, &HashSet::new(), &HashSet::new())
    }

    fn gc_tables(
        &mut self,
        ttl: u64,
        live_sessions: &HashSet<(NodeId, NodeId)>,
        live_replies: &HashSet<(NodeId, NodeId, u32)>,
    ) -> (usize, usize) {
        let now = self.now();
        // The same walk that picks the dead finds the oldest survivor,
        // which re-arms the expiry bound.
        let mut oldest = u64::MAX;
        let mut dead_sessions = Vec::new();
        self.sessions.retain(|k, s| {
            let dead = !live_sessions.contains(k) && now.saturating_sub(s.opened_at) >= ttl;
            if dead {
                dead_sessions.push(k.0);
            } else {
                oldest = oldest.min(s.opened_at);
            }
            !dead
        });
        for &receiver in &dead_sessions {
            self.cpu(receiver).with_feature(Feature::FaultTol, |c| {
                c.reg(Fine::RegOp, recovery::SESSION_GC_REG);
                c.mem_store(recovery::SESSION_GC_MEM);
            });
        }
        let mut dead_replies = Vec::new();
        self.rpc_replies.retain(|k, r| {
            let dead = !live_replies.contains(k) && now.saturating_sub(r.cached_at) >= ttl;
            if dead {
                dead_replies.push(k.0);
            } else {
                oldest = oldest.min(r.cached_at);
            }
            !dead
        });
        for &callee in &dead_replies {
            self.cpu(callee).with_feature(Feature::FaultTol, |c| {
                c.reg(Fine::RegOp, recovery::REPLY_GC_REG);
                c.mem_store(recovery::REPLY_GC_MEM);
            });
        }
        self.gc_not_before = oldest.saturating_add(self.cfg.gc_ttl_cycles);
        (dead_sessions.len(), dead_replies.len())
    }

    /// Number of reliable-transfer sessions currently open across all
    /// receivers (the table the epoch-TTL sweep bounds).
    #[must_use]
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of RPC replies currently cached across all callees (the
    /// exactly-once dedup table the epoch-TTL sweep bounds).
    #[must_use]
    pub fn reply_cache_len(&self) -> usize {
        self.rpc_replies.len()
    }

    // --- harness-side buffer helpers (cost-free by design) ------------

    /// Allocate `words` words of node memory (allocation is free, as in
    /// the paper).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or its memory is exhausted.
    pub fn alloc(&mut self, node: NodeId, words: usize) -> Addr {
        self.nodes[node.index()].mem.alloc(words)
    }

    /// Allocate a buffer on `node` and fill it with `data` without cost
    /// accounting (harness setup).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or its memory is exhausted.
    pub(crate) fn write_buffer(&mut self, node: NodeId, data: &[u32]) -> Addr {
        let n = &mut self.nodes[node.index()];
        let addr = n.mem.alloc(data.len().max(1));
        n.mem.poke(addr, data);
        addr
    }

    /// Read `words` words from `node` memory without cost accounting
    /// (harness verification).
    ///
    /// # Panics
    ///
    /// Panics if `node` or the address range is out of range.
    pub fn read_buffer(&self, node: NodeId, addr: Addr, words: usize) -> Vec<u32> {
        self.nodes[node.index()].mem.peek(addr, words).to_vec()
    }

    // --- single-packet delivery (Table 1) ------------------------------

    /// Send a four-word active message — the paper's `CMAM_4`,
    /// Table 1's 20-instruction source path (call/return 3, NI setup 5,
    /// write to NI 2, check status 7, control flow 3).
    ///
    /// Retries on backpressure (re-staging the packet and paying again)
    /// up to the configured wait bound.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] if the network refuses the packet for
    /// longer than `max_wait_cycles`; [`ProtocolError::BadTransfer`],
    /// naming the field, for equal or out-of-range endpoints (nothing
    /// is billed).
    pub fn am4_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u8,
        words: [u32; 4],
    ) -> Result<(), ProtocolError> {
        self.check_endpoints(src, dst)?;
        self.am4_send_retrying(src, dst, tag, 0, words, "am4 injection")
    }

    /// One attempt at Table 1's single-packet send, with `header` in the
    /// header word (0 for a plain active message; the RPC correlation id;
    /// an am4 delivery token). Returns `false` on backpressure; the
    /// costs are paid again on re-issue, as on the real machine.
    pub(crate) fn am4_send_once(
        &mut self,
        from: NodeId,
        to: NodeId,
        tag: u8,
        header: u32,
        words: [u32; 4],
    ) -> bool {
        let node = self.node_mut(from);
        node.cpu.call(am4_send::CALL);
        node.cpu.reg(Fine::NiSetup, am4_send::SETUP_REG);
        node.ni.stage_envelope(to, tag, header);
        node.ni.push_payload2(words[0], words[1]);
        node.ni.push_payload2(words[2], words[3]);
        node.cpu.reg(Fine::CheckStatus, am4_send::STATUS_REG);
        node.cpu.ctrl(am4_send::CTRL);
        node.ni.commit_send() && {
            node.ni.load_send_status();
            true
        }
    }

    /// [`Machine::am4_send_once`], re-issued on backpressure until the
    /// network accepts it, or [`ProtocolError::Timeout`] on `what` once
    /// the wait bound is exceeded.
    pub(crate) fn am4_send_retrying(
        &mut self,
        from: NodeId,
        to: NodeId,
        tag: u8,
        header: u32,
        words: [u32; 4],
        what: &'static str,
    ) -> Result<(), ProtocolError> {
        let max_wait = self.cfg.max_wait_cycles;
        let mut waited = 0;
        while !self.am4_send_once(from, to, tag, header, words) {
            if waited >= max_wait {
                return Err(ProtocolError::timeout(what, waited));
            }
            self.node_mut(from).ni.advance(1);
            waited += 1;
        }
        Ok(())
    }

    /// Register a user handler for `tag` on `node`. The handler runs
    /// when [`Machine::poll`] dispatches a matching message; it receives
    /// the node's memory and the message. Replaces any previous handler
    /// for the tag.
    ///
    /// # Panics
    ///
    /// Panics if the tag is in the reserved protocol range
    /// (below [`Tags::USER_BASE`]) or `node` is out of range.
    pub fn register_handler(
        &mut self,
        node: NodeId,
        tag: u8,
        handler: impl FnMut(&mut Memory, Am4Msg) + 'static,
    ) {
        assert!(tag >= Tags::USER_BASE, "tags below {} are reserved", Tags::USER_BASE);
        self.nodes[node.index()].handlers.insert(tag, Box::new(handler));
    }

    /// Poll `node` for one incoming message — the paper's
    /// `CMAM_request_poll` / `CMAM_handle_left` / `CMAM_got_left` path.
    ///
    /// With a user message waiting this costs Table 1's 27 destination
    /// instructions (call/return 10, read from NI 3, check status 12,
    /// control flow 2) plus whatever the handler itself does. An idle
    /// poll costs the 13-instruction entry (call/return 10, one status
    /// load, control flow 2).
    ///
    /// Packets with reserved protocol tags arriving outside their
    /// protocol phase are returned as [`PollOutcome::Unclaimed`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn poll(&mut self, node: NodeId) -> PollOutcome {
        let n = &mut self.nodes[node.index()];
        match n.poll_msg() {
            Some(msg) => n.dispatch(msg),
            None => PollOutcome::Idle,
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.nodes.len())
            .field("cfg", &self.cfg)
            .field("streams", &self.streams.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timego_cost::paper::{self, Block, Table};
    use timego_cost::{Class, Endpoint, Feature};
    use timego_netsim::{
        CrashWindow, DeliveryScript, FaultConfig, Mesh2D, ScriptedNetwork, SwitchedConfig,
        SwitchedNetwork,
    };
    use timego_ni::share;

    fn scripted_machine(nodes: usize, script: DeliveryScript) -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(nodes, script)),
            nodes,
            CmamConfig::default(),
        )
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// The total Table 1 prints for `endpoint`.
    fn table1(endpoint: Endpoint) -> u64 {
        let row = paper::find(Table::Table1, Block::SinglePacket, Some(endpoint), None);
        row.expect("Table 1 prints both endpoints").value.count()
    }

    #[test]
    fn am4_send_costs_exactly_twenty_instructions() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        m.am4_send(n(0), n(1), Tags::USER_BASE, [1, 2, 3, 4]).unwrap();
        let v = m.cpu(n(0)).snapshot();
        assert_eq!(v.total(), table1(Endpoint::Source), "Table 1 source cost");
        assert_eq!(v.class_total(Class::Dev), 5);
        assert_eq!(v.class_total(Class::Reg), 15);
        for &(fine, count) in paper::table1_fine(Endpoint::Source) {
            assert_eq!(v.fine_total(fine), count, "{fine}");
        }
    }

    #[test]
    fn poll_with_message_costs_twenty_seven_instructions() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        m.register_handler(n(1), Tags::USER_BASE, |_, _| {});
        m.am4_send(n(0), n(1), Tags::USER_BASE, [9, 8, 7, 6]).unwrap();
        m.cpu(n(1)).reset();
        let outcome = m.poll(n(1));
        assert_eq!(outcome, PollOutcome::Handled(Tags::USER_BASE));
        let v = m.cpu(n(1)).snapshot();
        // 27 for the reception path + 2 for handler dispatch.
        for &(fine, count) in paper::table1_fine(Endpoint::Destination) {
            assert_eq!(v.fine_total(fine), count, "{fine}");
        }
        assert_eq!(v.class_total(Class::Dev), 5);
        assert_eq!(v.total(), table1(Endpoint::Destination) + 2);
    }

    #[test]
    fn handler_receives_message_and_memory() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(None));
        let seen2 = seen.clone();
        m.register_handler(n(1), 20, move |mem, msg| {
            let a = mem.alloc(1);
            mem.store(a, msg.words[0] + msg.words[3]);
            *seen2.borrow_mut() = Some(msg);
        });
        m.am4_send(n(0), n(1), 20, [10, 0, 0, 32]).unwrap();
        assert_eq!(m.poll(n(1)), PollOutcome::Handled(20));
        let msg = seen.borrow().clone().expect("handler ran");
        assert_eq!(msg.src, n(0));
        assert_eq!(msg.words, [10, 0, 0, 32]);
    }

    #[test]
    fn idle_poll_is_cheap_and_returns_idle() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        assert_eq!(m.poll(n(1)), PollOutcome::Idle);
        let v = m.cpu(n(1)).snapshot();
        assert_eq!(v.total(), 13); // 10 call + 1 dev poll + 2 ctrl
    }

    #[test]
    fn unhandled_tag_is_unclaimed() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        m.am4_send(n(0), n(1), 99, [1, 1, 1, 1]).unwrap();
        match m.poll(n(1)) {
            PollOutcome::Unclaimed(msg) => assert_eq!(msg.tag, 99),
            other => panic!("expected unclaimed, got {other:?}"),
        }
    }

    #[test]
    fn am4_costs_land_in_base_feature() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        m.am4_send(n(0), n(1), 20, [0; 4]).unwrap();
        let v = m.cpu(n(0)).snapshot();
        assert_eq!(v.feature_total(Feature::Base), v.total());
    }

    #[test]
    fn am4_send_rejects_bad_endpoints_without_billing() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        let cases = [(n(2), n(1), "src n2"), (n(0), n(7), "dst n7"), (n(1), n(1), "both n1")];
        for (src, dst, field) in cases {
            match m.am4_send(src, dst, Tags::USER_BASE, [0; 4]) {
                Err(ProtocolError::BadTransfer(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("{src} -> {dst} must be rejected, got {other:?}"),
            }
        }
        for node in [n(0), n(1)] {
            assert_eq!(m.cpu(node).snapshot().total(), 0, "a rejected send bills nothing");
        }
        assert_eq!(m.network().borrow().stats().injected, 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn registering_reserved_tag_panics() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        m.register_handler(n(0), Tags::XFER_DATA, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "gc_ttl_cycles must be at least 1")]
    fn zero_gc_ttl_is_rejected() {
        let cfg = CmamConfig { gc_ttl_cycles: 0, ..CmamConfig::default() };
        let _ = Machine::new(share(ScriptedNetwork::new(2, DeliveryScript::InOrder)), 2, cfg);
    }

    // --- the TTL sweep's expiry bound ----------------------------------

    const TTL: u64 = 100;

    /// Four nodes, TTL 100, node 1 crash-restarting over cycles 10..20.
    fn gc_machine() -> Machine {
        let crashes = vec![CrashWindow { node: n(1), start: 10, end: 20 }];
        let net = SwitchedNetwork::new(
            Mesh2D::new(2, 2),
            SwitchedConfig {
                fault: FaultConfig { crashes, ..FaultConfig::default() },
                ..SwitchedConfig::default()
            },
        );
        Machine::new(share(net), 4, CmamConfig { gc_ttl_cycles: TTL, ..CmamConfig::default() })
    }

    /// The pre-check as it was before the bound: walk both tables.
    fn walk_has_expired(m: &Machine) -> bool {
        let now = m.now();
        m.sessions.values().any(|s| now.saturating_sub(s.opened_at) >= TTL)
            || m.rpc_replies.values().any(|r| now.saturating_sub(r.cached_at) >= TTL)
    }

    /// Advance cycle by cycle to `until`, holding `gc_has_expired` to
    /// the walk's answer on every one, as a pump would ask it.
    fn tick_to(m: &mut Machine, until: u64) {
        loop {
            let walk = walk_has_expired(m);
            assert_eq!(m.gc_has_expired(), walk, "at cycle {}", m.now());
            if m.now() >= until {
                return;
            }
            m.advance(1);
        }
    }

    #[test]
    fn expiry_bound_walks_once_per_expiry_and_every_pump_while_exempt() {
        let mut m = gc_machine();
        m.cache_reply(n(2), n(0), 1, [7; 4]);
        tick_to(&mut m, 40);
        m.open_session(n(3), n(0), 1, (9, Addr(0)));
        tick_to(&mut m, 99);
        assert_eq!(m.gc_scans(), 0, "nothing can expire before cycle 100");
        tick_to(&mut m, 100);
        assert!(walk_has_expired(&m));
        assert_eq!(m.gc_expired(&HashSet::new(), &HashSet::new()), (0, 1));
        // The sweep re-armed the bound from the surviving session.
        tick_to(&mut m, 139);
        assert_eq!(m.gc_scans(), 1);
        // Expired but live-exempt: every pump walks and sweeps, as the
        // unbounded pre-check made it.
        let live = HashSet::from([(n(3), n(0))]);
        for _ in 0..3 {
            m.advance(1);
            assert!(m.gc_has_expired());
            assert_eq!(m.gc_expired(&live, &HashSet::new()), (0, 0));
        }
        assert_eq!(m.gc_scans(), 4);
        assert_eq!(m.gc_expired(&HashSet::new(), &HashSet::new()), (1, 0));
        tick_to(&mut m, 400);
        assert_eq!(m.gc_scans(), 4, "empty tables never walk");
    }

    #[test]
    fn expiry_bound_survives_epoch_replace_and_close() {
        let mut m = gc_machine();
        m.open_session(n(3), n(0), 1, (9, Addr(0)));
        tick_to(&mut m, 50);
        // What `xfer_reliable` does on a later-epoch handshake.
        m.close_session(n(3), n(0));
        m.open_session(n(3), n(0), 2, (9, Addr(0)));
        // The bound still says 100: one walk there finds nothing
        // expired and re-arms from the replacement's stamp.
        tick_to(&mut m, 149);
        assert_eq!(m.gc_scans(), 1);
        assert!(!walk_has_expired(&m));
        tick_to(&mut m, 150);
        assert!(walk_has_expired(&m));
    }

    #[test]
    fn expiry_bound_survives_restart_amnesia() {
        let mut m = gc_machine();
        m.cache_reply(n(1), n(0), 1, [1; 4]);
        m.open_session(n(1), n(2), 1, (9, Addr(0)));
        tick_to(&mut m, 5);
        m.cache_reply(n(2), n(0), 2, [2; 4]);
        tick_to(&mut m, 30);
        assert_eq!(m.observe_restarts(), vec![n(1)]);
        assert_eq!((m.open_sessions(), m.reply_cache_len()), (0, 1));
        tick_to(&mut m, 104);
        assert!(!walk_has_expired(&m), "node 1's cycle-0 entries are gone");
        tick_to(&mut m, 105);
        assert!(walk_has_expired(&m));
    }

    #[test]
    fn expiry_bound_rearms_when_emptied_tables_refill() {
        let mut m = gc_machine();
        m.cache_reply(n(2), n(0), 1, [1; 4]);
        m.open_session(n(3), n(0), 1, (9, Addr(0)));
        tick_to(&mut m, 10);
        assert_eq!(m.gc_sweep(), (1, 1));
        tick_to(&mut m, 20);
        m.cache_reply(n(2), n(0), 2, [2; 4]);
        tick_to(&mut m, 119);
        assert_eq!(m.gc_scans(), 0);
        assert!(!walk_has_expired(&m));
        tick_to(&mut m, 120);
        assert!(walk_has_expired(&m));
    }

    #[test]
    fn matches_analytic_single_packet_model() {
        let mut m = scripted_machine(2, DeliveryScript::InOrder);
        m.register_handler(n(1), 20, |_, _| {});
        m.am4_send(n(0), n(1), 20, [0; 4]).unwrap();
        // Don't count handler dispatch: measure reception only up to
        // Table 1's boundary (which excludes the user handler's own work
        // but includes invoking it; our dispatch costs 2 extra handler
        // instructions, so compare src exactly and dst minus dispatch).
        assert_eq!(m.cpu(n(0)).snapshot().total(), table1(Endpoint::Source));
        m.cpu(n(1)).reset();
        let _ = m.poll(n(1));
        assert_eq!(m.cpu(n(1)).snapshot().total() - 2, table1(Endpoint::Destination));
    }
}
