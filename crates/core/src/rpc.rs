//! Request/reply active messages — CMAM's round-trip primitive.
//!
//! An RPC is two single-packet deliveries: a request that runs a
//! registered handler at the destination, and a reply carrying the
//! handler's result back. Footnote 6 of the paper notes that the CMAM
//! round-trip protocol is only *safe* because the CM-5 has two separate
//! networks; run this layer over a
//! [`DualNetwork`](timego_netsim::DualNetwork) with
//! [`Tags::RPC_REPLY`](crate::Tags) as the reply threshold to get the
//! same property (replies always drain even when the request network is
//! saturated).

use timego_cost::{Feature, Fine};
use timego_netsim::{NodeId, RxMeta};
use timego_ni::Memory;

use crate::am::Am4Msg;
use crate::costs::recovery;
use crate::engine::OpOutcome;
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::op::{check_restart, peek_is, win, GcExempt, KeyClass, OpMachine, Stepped};
use crate::retry::RetryPolicy;

/// The result of servicing one node once (see [`Machine::rpc_service`]).
#[derive(Debug)]
pub(crate) enum RpcEvent {
    /// Nothing was waiting.
    Idle,
    /// A request was handled and its reply injected.
    Served,
    /// A reply arrived (correlation id, payload).
    Reply(u64, [u32; 4]),
    /// A retransmitted request for a call already served arrived; the
    /// cached reply was re-sent without re-running the handler.
    Duplicate,
    /// A message with no RPC handler for its tag arrived, and was
    /// consumed unprocessed.
    Other,
}

impl Machine {
    /// Register an RPC handler on `node` for requests with `tag`. The
    /// handler receives the node's memory and the request, and returns
    /// the four reply words.
    ///
    /// # Panics
    ///
    /// Panics if the tag is reserved (below [`Tags::USER_BASE`] or equal
    /// to [`Tags::RPC_REPLY`]) or `node` is out of range.
    pub fn register_rpc_handler(
        &mut self,
        node: NodeId,
        tag: u8,
        handler: impl FnMut(&mut Memory, Am4Msg) -> [u32; 4] + 'static,
    ) {
        assert!(
            tag >= Tags::USER_BASE && tag != Tags::RPC_REPLY,
            "tag {tag} is reserved"
        );
        self.nodes[node.index()].rpc_handlers.insert(tag, Box::new(handler));
    }

    /// Poll `node` once in RPC terms: serve one pending request (run
    /// its handler, inject the reply) or surface one reply.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] (`"rpc injection"`) when the network
    /// refuses the reply for longer than `max_wait_cycles`.
    pub(crate) fn rpc_service(&mut self, node: NodeId) -> Result<RpcEvent, ProtocolError> {
        let Some(msg) = self.node_mut(node).poll_msg() else {
            return Ok(RpcEvent::Idle);
        };
        let (msg_src, tag, header) = (msg.src, msg.tag, msg.header);
        if tag == Tags::RPC_REPLY {
            return Ok(RpcEvent::Reply(u64::from(header), msg.words));
        }
        if !self.node_mut(node).rpc_handlers.contains_key(&tag) {
            return Ok(RpcEvent::Other);
        }
        // A retransmitted request for a call already served: answer from
        // the reply cache without re-running the handler, so handlers
        // execute exactly once per call id. The cache probe is only
        // charged on a hit — on the fault-free path the lookup folds
        // into the existing dispatch and the service costs exactly what
        // it did without retry support.
        if let Some(cached) = self.cached_reply(node, msg_src, header) {
            self.cpu(node).with_feature(Feature::FaultTol, |c| {
                c.reg(Fine::RegOp, recovery::RPC_DEDUP_REG);
                let what = "rpc injection";
                self.am4_send_retrying(node, msg_src, Tags::RPC_REPLY, header, cached, what)
            })?;
            return Ok(RpcEvent::Duplicate);
        }
        let n = self.node_mut(node);
        let handler = n.rpc_handlers.get_mut(&tag).expect("checked above");
        n.cpu.handler(2);
        let reply = handler(&mut n.mem, msg);
        // Remember the reply for duplicate suppression (the probe
        // above is what a hit costs).
        self.cache_reply(node, msg_src, header, reply);
        // Inject the reply (a Table 1 single-packet send, carrying
        // the correlation id in the header word).
        self.am4_send_retrying(node, msg_src, Tags::RPC_REPLY, header, reply, "rpc injection")?;
        Ok(RpcEvent::Served)
    }
}

/// One call as an engine operation: the request send, the callee's
/// service poll once the request heads its queue, and the reply pickup
/// gated on this call's correlation id.
pub(crate) struct RpcOp {
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
    pub(crate) fn new(
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
}

impl OpMachine for RpcOp {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    /// Replies are correlated by call id, so calls never conflict —
    /// even between the same pair.
    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)> {
        None
    }

    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        (node == self.dst && meta.src == self.src && meta.tag == self.tag)
            || (node == self.src
                && meta.src == self.dst
                && meta.tag == Tags::RPC_REPLY
                && meta.header == self.call_id as u32)
    }

    /// The cached reply stays shielded while the call is parked, so the
    /// re-execution still deduplicates against a handler that already
    /// ran.
    fn gc_exempt(&self, _parked: bool) -> Option<GcExempt> {
        Some(GcExempt::Reply(self.dst, self.src, self.call_id as u32))
    }

    /// Keeps the call id: the callee's reply cache answers a handler
    /// that already ran.
    fn reset(&mut self) {
        *self = RpcOp::new(
            self.src,
            self.dst,
            self.tag,
            self.args,
            self.call_id,
            self.policy.take(),
            self.managed,
        );
    }

    fn start(&mut self, m: &mut Machine) {
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
            check_restart(m, self.src, self.dst, self.peer_restarts)?;
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
            let id = self.call_id as u32;
            let ok = if self.attempt == 0 {
                m.am4_send_once(self.src, self.dst, self.tag, id, self.args)
            } else {
                let cpu = m.cpu(self.src);
                cpu.with_feature(Feature::FaultTol, |_| {
                    m.am4_send_once(self.src, self.dst, self.tag, id, self.args)
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
        // A reply the network refuses past the wait bound fails the call.
        if peek_is(m, self.dst, self.src, self.tag) {
            m.rpc_service(self.dst)?;
            progress = true;
        }

        // Surface the reply when it is at the caller's queue head and
        // carries our correlation id (a concurrent call's reply stays
        // for its own operation).
        if m.rx_peek_at(self.src).is_some_and(|meta| self.claims(self.src, &meta)) {
            match m.rpc_service(self.src)? {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use crate::op::Op;
    use timego_cost::Class;
    use timego_netsim::{
        DeliveryScript, DualNetwork, Mesh2D, ScriptedNetwork, SwitchedConfig, SwitchedNetwork,
    };
    use timego_ni::share;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// A blocking 0 → 1 RPC, retried under `policy` when it has one.
    fn call(
        m: &mut Machine,
        tag: u8,
        args: [u32; 4],
        policy: Option<&RetryPolicy>,
    ) -> Result<[u32; 4], ProtocolError> {
        m.run(Op::rpc(n(0), n(1), tag, args, policy)).map(|(reply, _)| reply)
    }

    fn machine() -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, DeliveryScript::InOrder)),
            2,
            CmamConfig::default(),
        )
    }

    #[test]
    fn rpc_round_trip_returns_handler_result() {
        let mut m = machine();
        m.register_rpc_handler(n(1), 40, |_, msg| {
            [msg.words.iter().sum(), msg.words[0], 0, 1]
        });
        let reply = call(&mut m, 40, [1, 2, 3, 4], None).unwrap();
        assert_eq!(reply, [10, 1, 0, 1]);
    }

    #[test]
    fn rpc_costs_two_round_trip_singles() {
        let mut m = machine();
        m.register_rpc_handler(n(1), 40, |_, _| [0; 4]);
        m.reset_costs();
        call(&mut m, 40, [0; 4], None).unwrap();
        let src = m.cpu(n(0)).snapshot();
        let dst = m.cpu(n(1)).snapshot();
        // Caller: one 20-instruction send + one 27-instruction receive
        // (plus the service polls the driver makes at the callee before
        // the request lands are charged to the callee).
        assert_eq!(src.class_total(Class::Dev), 5 + 5);
        assert_eq!(dst.class_total(Class::Dev) % 5, 0); // sends+receives only
        assert_eq!(src.total(), 20 + 27);
        // Callee: receive 27 + handler dispatch 2 + reply send 20.
        assert_eq!(dst.total(), 27 + 2 + 20);
    }

    #[test]
    fn concurrent_calls_correlate_correctly() {
        let mut m = machine();
        m.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] * 2, 0, 0, 0]);
        for v in [5u32, 9, 100] {
            let reply = call(&mut m, 40, [v, 0, 0, 0], None).unwrap();
            assert_eq!(reply[0], v * 2);
        }
    }

    #[test]
    fn rpc_over_dual_network_is_safe_under_request_pressure() {
        let tight = || {
            SwitchedNetwork::new(
                Mesh2D::new(2, 1),
                SwitchedConfig {
                    link_queue_capacity: 2,
                    rx_queue_capacity: 2,
                    ..SwitchedConfig::default()
                },
            )
        };
        let net = DualNetwork::new(tight(), tight(), Tags::RPC_REPLY);
        let mut m = Machine::new(share(net), 2, CmamConfig::default());
        m.register_rpc_handler(n(1), 33, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
        for v in 0..32u32 {
            let reply = call(&mut m, 33, [v, 0, 0, 0], None).unwrap();
            assert_eq!(reply[0], v + 1);
        }
    }

    /// A callee whose reply the network refuses past the wait bound
    /// fails the call with a `Timeout`, not a panic: raw packets nobody
    /// consumes fill every queue from the callee back to the caller.
    #[test]
    fn refused_reply_fails_the_call_with_a_timeout() {
        use timego_netsim::Packet;

        let cfg =
            SwitchedConfig { link_queue_capacity: 2, rx_queue_capacity: 2, ..SwitchedConfig::default() };
        let net = share(SwitchedNetwork::new(Mesh2D::new(2, 1), cfg));
        let cfg = CmamConfig { max_wait_cycles: 256, ..CmamConfig::default() };
        let mut m = Machine::new(net, 2, cfg);
        m.register_rpc_handler(n(1), 40, |_, _| [1, 2, 3, 4]);
        {
            let raw = || Packet::new(n(1), n(0), Tags::USER_BASE, 0, &[0; 4]);
            let mut net = m.network().borrow_mut();
            for _ in 0..64 {
                while net.try_inject(raw()).is_ok() {}
                net.advance(1);
            }
            assert!(net.try_inject(raw()).is_err(), "the path back to the caller is full");
        }
        match call(&mut m, 40, [0; 4], None) {
            Err(ProtocolError::Timeout { waiting_for, .. }) => {
                assert_eq!(waiting_for, "rpc injection");
            }
            other => panic!("the reply cannot be injected, got {other:?}"),
        }
    }

    #[test]
    fn handler_memory_access_is_costed_to_callee() {
        let mut m = machine();
        m.register_rpc_handler(n(1), 50, |mem, msg| {
            let a = mem.alloc(1);
            mem.store(a, msg.words[0]);
            [mem.load(a), 0, 0, 0]
        });
        m.reset_costs();
        let reply = call(&mut m, 50, [77, 0, 0, 0], None).unwrap();
        assert_eq!(reply[0], 77);
        assert_eq!(m.cpu(n(1)).snapshot().class_total(Class::Mem), 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reply_tag_cannot_be_registered() {
        let mut m = machine();
        m.register_rpc_handler(n(0), Tags::RPC_REPLY, |_, _| [0; 4]);
    }

    #[test]
    fn retried_rpc_on_clean_network_costs_exactly_rpc_call() {
        // Zero-cost-when-clean: with no faults, an RPC with a retry
        // policy executes (and costs) exactly what one without does,
        // feature by feature.
        let mut plain = machine();
        plain.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
        plain.reset_costs();
        call(&mut plain, 40, [7, 0, 0, 0], None).unwrap();

        let mut retried = machine();
        retried.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] + 1, 0, 0, 0]);
        retried.reset_costs();
        let reply = call(&mut retried, 40, [7, 0, 0, 0], Some(&RetryPolicy::default())).unwrap();
        assert_eq!(reply, [8, 0, 0, 0]);

        for node in [n(0), n(1)] {
            let a = plain.cpu(node).snapshot();
            let b = retried.cpu(node).snapshot();
            for f in Feature::ALL {
                assert_eq!(
                    a.feature_total(f),
                    b.feature_total(f),
                    "node {node:?} feature {f}: retried RPC must be free when clean"
                );
            }
        }
    }

    #[test]
    fn duplicated_request_runs_handler_exactly_once() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use timego_netsim::{FaultConfig, Mesh2D, SwitchedConfig, SwitchedNetwork};

        let fault = FaultConfig {
            duplicate_prob: 0.4,
            ..FaultConfig::default()
        };
        let mut dup_seen = false;
        for seed in 0..8u64 {
            let net = SwitchedNetwork::new(
                Mesh2D::new(2, 1),
                SwitchedConfig {
                    rx_queue_capacity: 64,
                    fault: fault.clone(),
                    seed,
                    ..SwitchedConfig::default()
                },
            );
            let mut m = Machine::new(share(net), 2, CmamConfig::default());
            let runs = Rc::new(RefCell::new(0u32));
            let runs2 = runs.clone();
            m.register_rpc_handler(n(1), 40, move |_, msg| {
                *runs2.borrow_mut() += 1;
                [msg.words[0] * 2, 0, 0, 0]
            });
            for v in 0..12u32 {
                let reply = call(&mut m, 40, [v, 0, 0, 0], Some(&RetryPolicy::default())).unwrap();
                assert_eq!(reply[0], v * 2, "seed {seed} call {v}");
            }
            assert_eq!(
                *runs.borrow(),
                12,
                "seed {seed}: handler must run exactly once per call despite duplication"
            );
            if m.network().borrow().stats().duplicated > 0 {
                dup_seen = true;
            }
        }
        assert!(dup_seen, "at least one seed must actually duplicate packets");
    }

    #[test]
    fn retried_rpc_recovers_from_drops() {
        use timego_netsim::{FaultConfig, Mesh2D, SwitchedConfig, SwitchedNetwork};
        let fault = FaultConfig {
            drop_prob: 0.25,
            ..FaultConfig::default()
        };
        for seed in 0..8u64 {
            let net = SwitchedNetwork::new(
                Mesh2D::new(2, 1),
                SwitchedConfig {
                    rx_queue_capacity: 64,
                    fault: fault.clone(),
                    seed,
                    ..SwitchedConfig::default()
                },
            );
            let mut m = Machine::new(share(net), 2, CmamConfig::default());
            m.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0] + 100, 0, 0, 0]);
            for v in 0..8u32 {
                let reply = call(&mut m, 40, [v, 0, 0, 0], Some(&RetryPolicy::default())).unwrap();
                assert_eq!(reply[0], v + 100, "seed {seed} call {v}");
            }
        }
    }
}
