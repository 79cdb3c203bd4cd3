//! The reference scheduler, kept as the test oracle the engine's one
//! scheduler is pinned against: step every running op each pass, offer
//! supervision every armed deadline and every overdue watchdog, scan
//! every node and ask every running op whether it claims the queue head,
//! and `advance(1)` — ticking every op once — when a pass makes no
//! progress. It shares the ledger, admission, recovery and settlement
//! with the product pump; only the three scans and the step loop are its
//! own. The tests below drive the same workloads through both and
//! require the identical cycle-stamped trace, per-node per-feature
//! bills and outcomes.

use timego_netsim::NodeId;

use super::*;

impl Engine {
    /// [`Engine::run`] under the reference scheduler.
    pub(crate) fn run_reference(&mut self, m: &mut Machine) {
        while self.unfinished() > 0 {
            self.pump_reference(m);
        }
    }

    /// [`Engine::pump`] under the reference scheduler: one quantum that
    /// lets exactly one cycle pass.
    pub(crate) fn pump_reference(&mut self, m: &mut Machine) -> usize {
        self.counters.quanta += 1;
        if self.unfinished() == 0 {
            m.advance(1);
            self.counters.advances += 1;
            return 0;
        }
        let left = self.reference_quantum(m);
        #[cfg(debug_assertions)]
        self.check_ledger();
        left
    }

    fn reference_quantum(&mut self, m: &mut Machine) -> usize {
        m.observe_restarts();
        self.collect_garbage(m);
        loop {
            let (deadlines, overdue) = self.scan_supervision(m);
            if self.supervise(m, deadlines, overdue) {
                continue;
            }
            self.release_recovered(m);
            self.admit(m);
            if self.running.is_empty() {
                if self.jump_to_parked(m) {
                    continue;
                }
                return 0;
            }
            let mut progressed = false;
            let mut cursor = 0;
            let now = m.now();
            self.counters.passes += 1;
            // Every running op, upward in `inc` from the cursor: an op
            // that finishes clears its own live bit and no other.
            while let Some((inc, slot)) = self.running.next_live(cursor) {
                cursor = inc + 1;
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
                    }
                    Ok(Stepped::Idle) => {}
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
            if progressed || self.discard_orphan_by_scan(m) {
                continue;
            }
            m.advance(1);
            self.counters.advances += 1;
            for (_, slot) in self.running.iter() {
                self.slots[slot].a.op.tick_n(1);
            }
            return self.unfinished();
        }
    }

    /// Supervision candidates by scan: every armed deadline, and the
    /// running ops — in run order — whose watchdog has actually expired.
    /// Handing over only the overdue ones keeps the shared expiry loop
    /// from re-arming timers on the oracle's behalf.
    fn scan_supervision(&self, m: &Machine) -> (Vec<OpId>, Vec<(u32, u64)>) {
        let (now, bound) = (m.now(), self.watchdog_bound(m));
        let overdue = self
            .running
            .iter()
            .filter(|&(_, slot)| now.saturating_sub(self.slots[slot].a.last_progress_at) > bound)
            .map(|(inc, slot)| (slot, inc))
            .collect();
        (self.deadlines.iter().copied().collect(), overdue)
    }

    /// Discard the first unclaimed discardable queue head, looking at
    /// every node in ascending order and asking every running op.
    fn discard_orphan_by_scan(&mut self, m: &mut Machine) -> bool {
        for node in (0..m.num_nodes()).map(NodeId::new) {
            let orphaned = m.rx_peek_at(node).is_some_and(|meta| {
                Self::discardable(&meta)
                    && !self.running.iter().any(|(_, s)| self.slots[s].a.op.claims(node, &meta))
            });
            if orphaned {
                m.discard_stray(node);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use timego_cost::Feature;
    use timego_netsim::{
        CrashWindow, DeliveryScript, DualNetwork, FatTree, FaultConfig, OutageWindow,
        RouteStrategy, ScriptedNetwork, ShardedConfig, ShardedNetwork, SwitchedConfig,
        SwitchedNetwork, Torus2D, VcDiscipline, WormholeConfig, WormholeNetwork,
    };
    use timego_ni::share;

    use super::*;
    use crate::machine::{CmamConfig, Tags};
    use crate::retry::RetryPolicy;
    use crate::stream::StreamConfig;

    /// Which scheduler drives a run.
    #[derive(Clone, Copy, Debug)]
    enum Sched {
        Event,
        Reference,
    }

    const BOTH: [Sched; 2] = [Sched::Event, Sched::Reference];

    impl Sched {
        fn run(self, eng: &mut Engine, m: &mut Machine) {
            match self {
                Sched::Event => eng.run(m),
                Sched::Reference => {
                    eng.run_reference(m);
                    // The oracle never fires a timer, so the queue holds
                    // exactly what submission and admission armed: one
                    // deadline per op that has one, one watchdog per
                    // execution. Anything more was re-armed on the
                    // oracle's behalf by a watchdog that was not due.
                    let started =
                        eng.trace().iter().filter(|e| matches!(e.event, EngineEvent::Started(_)));
                    let deadlines = eng.ops.iter().filter(|e| e.deadline.is_some()).count();
                    assert_eq!(
                        eng.timers.len(),
                        started.count() + deadlines,
                        "the oracle re-armed a watchdog"
                    );
                }
            }
        }

        fn pump(self, eng: &mut Engine, m: &mut Machine) -> usize {
            match self {
                Sched::Event => eng.pump(m),
                Sched::Reference => eng.pump_reference(m),
            }
        }
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Deterministic pseudo-random words (the workloads' mixed payload).
    fn mixed(words: usize, seed: u64) -> Vec<u32> {
        (0..words as u64)
            .map(|i| {
                let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x >> 32) ^ x) as u32
            })
            .collect()
    }

    /// The CM-5-like chaos fabric: an arity-4 fat tree with adaptive
    /// routing, 64-deep receive and 16-deep link queues.
    fn switched_config(fault: &FaultConfig, seed: u64) -> SwitchedConfig {
        SwitchedConfig {
            strategy: RouteStrategy::Adaptive { candidates: 4 },
            rx_queue_capacity: 64,
            link_queue_capacity: 16,
            fault: fault.clone(),
            seed,
            ..SwitchedConfig::default()
        }
    }

    fn switched(nodes: usize, fault: &FaultConfig, seed: u64) -> SwitchedNetwork<FatTree> {
        let mut levels = 1;
        while 4usize.pow(levels) < nodes {
            levels += 1;
        }
        SwitchedNetwork::new(FatTree::new(4, levels as usize, 2), switched_config(fault, seed))
    }

    fn machine_of(
        sub: &str,
        nodes: usize,
        cfg: CmamConfig,
        fault: &FaultConfig,
        seed: u64,
    ) -> Machine {
        let net = match sub {
            "switched" => share(switched(nodes, fault, seed)),
            "wormhole" => {
                let side = nodes.isqrt();
                share(WormholeNetwork::new(
                    Torus2D::new(side, side),
                    WormholeConfig {
                        virtual_channels: 2,
                        discipline: VcDiscipline::Dateline,
                        fault: fault.clone(),
                        seed,
                        ..WormholeConfig::default()
                    },
                ))
            }
            "dual" => share(DualNetwork::new(
                switched(nodes, fault, seed),
                switched(nodes, fault, seed ^ 0x9e37),
                Tags::RPC_REPLY,
            )),
            "sharded-t1" => share(ShardedNetwork::new(
                nodes,
                ShardedConfig {
                    shards: 4,
                    threads: 1,
                    switched: switched_config(fault, seed),
                    ..ShardedConfig::default()
                },
            )),
            other => panic!("unknown substrate {other}"),
        };
        Machine::new(net, nodes, cfg)
    }

    const NODES: usize = 16;
    const FAN_NODES: usize = 64;
    const SEEDS: u64 = 6;

    fn crash(node: NodeId, start: u64, end: u64) -> FaultConfig {
        FaultConfig { crashes: vec![CrashWindow { node, start, end }], ..FaultConfig::default() }
    }

    fn fault_variant(name: &str) -> FaultConfig {
        match name {
            "clean" => FaultConfig::default(),
            "dup+jitter" => {
                FaultConfig { duplicate_prob: 0.10, delay_jitter: 8, ..FaultConfig::default() }
            }
            "crash" => crash(n(9), 80, 220),
            "crash-hot" => crash(n(0), 80, 220),
            "crash-sender" => crash(n(10), 40, 220),
            other => panic!("unknown fault variant {other}"),
        }
    }

    /// Everything observable about a run.
    struct Fingerprint {
        trace: Vec<TracedEvent>,
        bills: Vec<Vec<u64>>,
        outcomes: Vec<(OpId, String)>,
        steps: u64,
    }

    impl Fingerprint {
        fn of_run(
            sched: Sched,
            mut eng: Engine,
            mut m: Machine,
            nodes: usize,
            ids: &[OpId],
        ) -> Self {
            sched.run(&mut eng, &mut m);
            assert_eq!(eng.unfinished(), 0, "run must settle everything");
            let bills = (0..nodes)
                .map(|i| {
                    let bill = m.cpu(n(i)).snapshot();
                    Feature::ALL.iter().map(|&f| bill.feature_total(f)).collect()
                })
                .collect();
            let outcomes = ids
                .iter()
                .map(|&id| (id, format!("{:?}", eng.take_outcome(id).expect("finished"))))
                .collect();
            Fingerprint {
                trace: eng.trace().to_vec(),
                bills,
                outcomes,
                steps: eng.counters().steps,
            }
        }
    }

    /// The event run must be the reference run: same trace (the first
    /// divergence is printed with its neighbourhood), same bills, same
    /// outcomes, no more steps.
    fn assert_same_run(ctx: &str, evt: &Fingerprint, rr: &Fingerprint) {
        assert!(
            !evt.trace.is_empty() && !rr.trace.is_empty(),
            "{ctx}: both runs keep a trace, so the comparison cannot pass vacuously"
        );
        if evt.trace != rr.trace {
            let at = evt
                .trace
                .iter()
                .zip(&rr.trace)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| evt.trace.len().min(rr.trace.len()));
            let window =
                |t: &[TracedEvent]| t[at.saturating_sub(3)..(at + 4).min(t.len())].to_vec();
            panic!(
                "{ctx}: traces diverge at entry {at} (event {} entries, reference {}):\n  event: {:?}\n  reference: {:?}",
                evt.trace.len(),
                rr.trace.len(),
                window(&evt.trace),
                window(&rr.trace),
            );
        }
        assert_eq!(evt.bills, rr.bills, "{ctx}: per-feature bills must match node by node");
        assert_eq!(evt.outcomes, rr.outcomes, "{ctx}: outcomes must match");
        assert!(
            evt.steps <= rr.steps,
            "{ctx}: event took more steps ({} > {})",
            evt.steps,
            rr.steps
        );
    }

    /// The mixed workload: two recovery-armed reliable transfers (the
    /// crash variant fells node 9 under the first), a stream burst,
    /// two retried RPCs against one server, and an am4 run-after chain.
    fn run_mixed(sched: Sched, sub: &str, fault: &FaultConfig, seed: u64) -> Fingerprint {
        let mut m = machine_of(sub, NODES, CmamConfig::default(), fault, seed);
        m.register_rpc_handler(n(1), 40, |_, msg| [msg.words[0].wrapping_mul(3), 0, 0, 0]);
        let mut eng = Engine::new();
        eng.enable_trace();
        let policy = RetryPolicy::default();
        let recovery = RecoveryPolicy::default();
        let mut ids = Vec::new();
        for (i, (s, d)) in [(2usize, 9usize), (4, 11)].into_iter().enumerate() {
            let data = mixed(24 + 8 * i, seed + i as u64);
            let op = Op::xfer_reliable(n(s), n(d), &data, &policy).recovering(&recovery);
            ids.push(eng.submit(&mut m, op).expect("valid transfer"));
        }
        let sid = m.open_stream(
            n(0),
            n(2),
            StreamConfig { rto_iterations: 256, ..StreamConfig::default() },
        );
        let burst = Op::stream_send(sid, &mixed(20, seed.wrapping_add(55)));
        ids.push(eng.submit(&mut m, burst).expect("valid stream"));
        for v in 0..2u32 {
            let call = Op::rpc(n(3 + 2 * v as usize), n(1), 40, [v, 0, 0, 0], Some(&policy));
            ids.push(eng.submit(&mut m, call).expect("valid rpc"));
        }
        let hop =
            eng.submit(&mut m, Op::am4(n(6), n(7), 50, [seed as u32, 1, 2, 3])).expect("valid am4");
        ids.push(hop);
        let next = Op::am4(n(7), n(8), 50, [seed as u32, 4, 5, 6]).after(&[hop]);
        ids.push(eng.submit(&mut m, next).expect("valid am4 chain"));
        Fingerprint::of_run(sched, eng, m, NODES, &ids)
    }

    #[test]
    fn event_scheduler_is_trace_and_bill_identical_to_reference() {
        let (mut ref_steps, mut evt_steps) = (0, 0);
        for sub in ["switched", "wormhole", "dual", "sharded-t1"] {
            for variant in ["clean", "dup+jitter", "crash"] {
                let fault = fault_variant(variant);
                for seed in 0..SEEDS {
                    let evt = run_mixed(Sched::Event, sub, &fault, seed);
                    let rr = run_mixed(Sched::Reference, sub, &fault, seed);
                    assert_same_run(&format!("{sub}/{variant}/seed {seed}"), &evt, &rr);
                    ref_steps += rr.steps;
                    evt_steps += evt.steps;
                }
            }
        }
        assert!(
            evt_steps < ref_steps,
            "no idle step skipped (event {evt_steps}, reference {ref_steps})"
        );
    }

    /// 63 senders of all five families into node 0 — plain and
    /// recovery-armed reliable transfers, one stream, retried RPCs to
    /// the one callee, a recovery-managed am4 run-after chain — with a
    /// short wait bound so ops a crash strands time out in thousands of
    /// cycles.
    fn run_fan_in(sched: Sched, sub: &str, fault: &FaultConfig, seed: u64) -> Fingerprint {
        let cfg = CmamConfig {
            max_wait_cycles: 1 << 13,
            gc_ttl_cycles: 1 << 13,
            ..CmamConfig::default()
        };
        let mut m = machine_of(sub, FAN_NODES, cfg, fault, seed);
        m.register_rpc_handler(n(0), 40, |_, msg| [msg.words[0].wrapping_mul(3), 0, 0, 0]);
        let mut eng = Engine::new();
        eng.enable_trace();
        let policy = RetryPolicy::default();
        let recovery = RecoveryPolicy::default();
        let sid = m.open_stream(
            n(4),
            n(0),
            StreamConfig { rto_iterations: 256, ..StreamConfig::default() },
        );
        let mut ids = Vec::new();
        let mut last_hop: Option<OpId> = None;
        for i in 1..FAN_NODES {
            let data = mixed(8 + 4 * (i % 3), seed + i as u64);
            let op: Op = match i % 5 {
                _ if i == 4 => Op::stream_send(sid, &mixed(20, seed.wrapping_add(55))).into(),
                0 => Op::xfer_reliable(n(i), n(0), &data, &policy).recovering(&recovery).into(),
                1 | 4 => Op::xfer(n(i), n(0), &data).into(),
                2 => Op::rpc(n(i), n(0), 40, [i as u32, 0, 0, 0], Some(&policy)).into(),
                _ => {
                    let hop = Op::am4(n(i), n(0), 50, [seed as u32, i as u32, 2, 3])
                        .recovering(&recovery);
                    last_hop.map_or(hop.clone(), |prev| hop.after(&[prev])).into()
                }
            };
            let id = eng.submit(&mut m, op).expect("valid op");
            if i % 5 == 3 {
                last_hop = Some(id);
            }
            ids.push(id);
        }
        Fingerprint::of_run(sched, eng, m, FAN_NODES, &ids)
    }

    /// Fan-in, where the event scheduler wakes by `(node, peer)` pair:
    /// on the flat and the sharded substrate, clean, under duplication,
    /// a crash of the hot node and a crash of one sender.
    #[test]
    fn fan_in_is_trace_and_bill_identical_to_reference() {
        for sub in ["switched", "sharded-t1"] {
            for variant in ["clean", "dup+jitter", "crash-hot", "crash-sender"] {
                let fault = fault_variant(variant);
                for seed in 0..SEEDS {
                    let evt = run_fan_in(Sched::Event, sub, &fault, seed);
                    let rr = run_fan_in(Sched::Reference, sub, &fault, seed);
                    assert_same_run(&format!("fan-in {sub}/{variant}/seed {seed}"), &evt, &rr);
                }
            }
        }
    }

    /// A crash window on node 9 closing at `restart_at` under a
    /// recovery-armed transfer into it, while `chains` run-after chains
    /// of single-packet hops, `hops` in all, each between two far-apart
    /// nodes, keep one packet per chain in flight, every op asleep in
    /// between.
    fn run_across_restart(sched: Sched, restart_at: u64, chains: u32, hops: u32) -> Fingerprint {
        let cfg = CmamConfig {
            max_wait_cycles: 1 << 13,
            gc_ttl_cycles: 1 << 13,
            ..CmamConfig::default()
        };
        let mut m = machine_of("switched", FAN_NODES, cfg, &crash(n(9), 20, restart_at), 1);
        let mut eng = Engine::new();
        eng.enable_trace();
        let victim = Op::xfer_reliable(n(2), n(9), &mixed(24, 1), &RetryPolicy::default())
            .recovering(&RecoveryPolicy::default());
        let mut ids = vec![eng.submit(&mut m, victim).expect("valid transfer")];
        for hop in 0..hops {
            let (c, k) = ((hop % chains) as usize, hop / chains);
            let (a, b) = (n(16 + c), n(63 - c));
            let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
            let op = Op::am4(src, dst, 50, [hop, 0, 0, 0]);
            let op = if k == 0 { op } else { op.after(&ids[ids.len() - chains as usize..][..1]) };
            ids.push(eng.submit(&mut m, op).expect("valid hop"));
        }
        Fingerprint::of_run(sched, eng, m, FAN_NODES, &ids)
    }

    /// Fourteen consecutive window ends: the jump to the next event
    /// never crosses a restart the reference observes cycle by cycle.
    #[test]
    fn restart_chain_is_trace_and_bill_identical_to_reference() {
        for restart_at in 300..314 {
            let evt = run_across_restart(Sched::Event, restart_at, 1, 60);
            let rr = run_across_restart(Sched::Reference, restart_at, 1, 60);
            assert_same_run(&format!("restart at {restart_at}"), &evt, &rr);
        }
    }

    /// Eight such chains, 4 200 hops in all: every hop is a new
    /// incarnation with at most nine running, so the run set opens
    /// chunks past its first summary word (4 096 incarnations) and
    /// retires the leading ones mid-run.
    #[test]
    fn chains_past_a_summary_word_of_incarnations_are_identical_to_reference() {
        let evt = run_across_restart(Sched::Event, 300, 8, 4_200);
        let rr = run_across_restart(Sched::Reference, 300, 8, 4_200);
        let started = evt.trace.iter().filter(|e| matches!(e.event, EngineEvent::Started(_)));
        assert!(started.count() > 4_096, "the chains must spawn past one summary word");
        assert_same_run("eight chains, 4 200 hops", &evt, &rr);
    }

    /// A recovery policy that parks for exactly `wait` cycles.
    fn fixed_backoff(wait: u64) -> RecoveryPolicy {
        let backoff =
            RetryPolicy { base_wait: wait, max_wait: wait, jitter: 0, ..RetryPolicy::default() };
        RecoveryPolicy { max_executions: 4, backoff }
    }

    /// Two crash windows on `node` against `fixed_backoff(1000)`: they
    /// fell the executions starting at 0 and 4000; the one at 7000 runs
    /// clean.
    fn two_crashes(node: NodeId, first_start: u64, second_start: u64) -> FaultConfig {
        FaultConfig {
            crashes: vec![
                CrashWindow { node, start: first_start, end: 3000 },
                CrashWindow { node, start: second_start, end: 6000 },
            ],
            ..FaultConfig::default()
        }
    }

    fn executions(trace: &[TracedEvent], id: OpId) -> Vec<u64> {
        trace.iter().filter(|e| e.event == EngineEvent::Started(id)).map(|e| e.at).collect()
    }

    fn machine(fault: &FaultConfig, seed: u64) -> Machine {
        machine_of("switched", NODES, CmamConfig::default(), fault, seed)
    }

    /// Run the op `prepare` describes under `fault` with both
    /// schedulers: each run re-executes twice — `Started` at 0, 4000 and
    /// 7000 under one `OpId` — and converges to an outcome `check`
    /// accepts, and the two traces are identical, stamps included.
    fn twice_felled<F, T>(
        fault: &FaultConfig,
        prepare: impl Fn(&mut Machine) -> (Op<F>, T),
        check: impl Fn(&Machine, T, OpOutcome),
    ) {
        let mut traces = Vec::new();
        for sched in BOTH {
            let mut m = machine(fault, 1);
            let (op, ctx) = prepare(&mut m);
            let mut eng = Engine::new();
            eng.enable_trace();
            let id = eng.submit(&mut m, op.recovering(&fixed_backoff(1000))).unwrap();
            sched.run(&mut eng, &mut m);
            assert_eq!(
                eng.recovery_executions(id),
                2,
                "{sched:?}: each crash window fells one run"
            );
            assert_eq!(executions(eng.trace(), id), [0, 4000, 7000], "{sched:?}");
            let out = eng.take_outcome(id).unwrap();
            let out =
                out.unwrap_or_else(|e| panic!("{sched:?}: the third execution must converge: {e}"));
            check(&m, ctx, out);
            traces.push(eng.trace().to_vec());
        }
        assert_eq!(traces[0], traces[1], "re-execution is scheduler-independent");
    }

    #[test]
    fn twice_felled_reliable_transfer_is_scheduler_independent() {
        let data = mixed(1024, 31);
        twice_felled(
            &two_crashes(n(9), 50, 4040),
            |_| (Op::xfer_reliable(n(2), n(9), &data, &RetryPolicy::default()), ()),
            |m, (), out| {
                let OpOutcome::Reliable(out) = out else { panic!("reliable outcome, got {out:?}") };
                assert_eq!(m.read_buffer(n(9), out.xfer.dst_buffer, data.len()), data);
                assert_eq!(m.open_sessions(), 0, "no half-filled segment survives");
            },
        );
    }

    #[test]
    fn twice_felled_stream_send_is_scheduler_independent() {
        let data = mixed(1024, 32);
        twice_felled(
            &two_crashes(n(9), 50, 4040),
            |m| {
                let id = m.open_stream(n(2), n(9), StreamConfig::default());
                (Op::stream_send(id, &data), id)
            },
            |m, id, out| {
                let OpOutcome::Stream(out) = out else { panic!("stream outcome, got {out:?}") };
                assert_eq!(out.packets, 256);
                assert_eq!(m.stream_received(id), &data[..], "exactly-once, word-exact");
            },
        );
    }

    #[test]
    fn twice_felled_rpc_is_scheduler_independent() {
        twice_felled(
            &two_crashes(n(4), 5, 3500),
            |m| {
                let runs = Rc::new(RefCell::new(0u32));
                let runs2 = Rc::clone(&runs);
                m.register_rpc_handler(n(11), 40, move |_, msg| {
                    *runs2.borrow_mut() += 1;
                    [msg.words[0] * 3, 0, 0, 0]
                });
                (Op::rpc(n(4), n(11), 40, [14, 0, 0, 0], Some(&RetryPolicy::default())), runs)
            },
            |_, runs, out| {
                assert_eq!(out, OpOutcome::Rpc([42, 0, 0, 0]));
                assert_eq!(*runs.borrow(), 1, "the call id is reused, so the cache deduplicates");
            },
        );
    }

    #[test]
    fn twice_felled_am4_is_scheduler_independent() {
        twice_felled(
            &two_crashes(n(9), 0, 3500),
            |m| {
                let seen = Rc::new(RefCell::new(Vec::new()));
                let seen2 = Rc::clone(&seen);
                m.register_handler(n(9), 50, move |_, msg| seen2.borrow_mut().push(msg.words));
                (Op::am4(n(2), n(9), 50, [7, 8, 9, 10]), seen)
            },
            |_, seen, out| {
                assert_eq!(out, OpOutcome::Am4([0; 4]), "the handler owns the words");
                assert_eq!(*seen.borrow(), [[7, 8, 9, 10]], "exactly-once delivery");
            },
        );
    }

    /// A deadline due mid-park (felled at 3000, parked until 5000,
    /// deadline at 3500) re-parks the op until 7000 under both
    /// schedulers, identically.
    #[test]
    fn deadline_while_parked_is_scheduler_independent() {
        let data = mixed(1024, 33);
        let mut traces = Vec::new();
        for sched in BOTH {
            let mut m = machine(&crash(n(9), 50, 3000), 1);
            let stream = m.open_stream(n(2), n(9), StreamConfig::default());
            let mut eng = Engine::new();
            eng.enable_trace();
            let op = Op::stream_send(stream, &data).recovering(&fixed_backoff(2000)).deadline(3500);
            let id = eng.submit(&mut m, op).unwrap();
            sched.run(&mut eng, &mut m);
            assert_eq!(eng.recovery_executions(id), 2, "{sched:?}: the crash, then the deadline");
            assert_eq!(
                executions(eng.trace(), id),
                [0, 7000],
                "{sched:?}: one run per side of the park"
            );
            let parks =
                eng.trace().iter().filter(|e| e.event == EngineEvent::Recovering(id)).count();
            assert_eq!(parks, 2, "{sched:?}");
            assert!(matches!(eng.take_outcome(id), Some(Ok(OpOutcome::Stream(_)))), "{sched:?}");
            assert_eq!(m.stream_received(stream), &data[..], "{sched:?}: exactly-once, word-exact");
            traces.push(eng.trace().to_vec());
        }
        assert_eq!(traces[0], traces[1], "re-parking is scheduler-independent");
    }

    /// Cancelling a parked op frees the conflict key it holds under
    /// both schedulers: the same-pair transfer queued behind it is
    /// admitted on the next pump and completes word-exact.
    #[test]
    fn cancelling_a_parked_op_is_scheduler_independent() {
        let policy = RetryPolicy::default();
        let data = mixed(256, 34);
        let fault = FaultConfig {
            crashes: vec![CrashWindow { node: n(9), start: 50, end: 600 }],
            outages: vec![OutageWindow { node: n(14), start: 0, end: 50_000 }],
            ..FaultConfig::default()
        };
        for sched in BOTH {
            let mut m = machine(&fault, 3);
            let mut eng = Engine::new();
            eng.enable_trace();
            let recovering = Op::xfer_reliable(n(2), n(9), &data, &policy)
                .recovering(&RecoveryPolicy::default());
            let parked = eng.submit(&mut m, recovering).unwrap();
            let queued = eng.submit(&mut m, Op::xfer_reliable(n(2), n(9), &data, &policy)).unwrap();
            let patient = RetryPolicy { max_attempts: 4, base_wait: 512, ..RetryPolicy::default() };
            eng.submit(&mut m, Op::xfer_reliable(n(3), n(14), &data, &patient)).unwrap();
            let mut guard = 0;
            while eng.parked_count() == 0 {
                sched.pump(&mut eng, &mut m);
                guard += 1;
                assert!(guard < 200_000, "{sched:?}: the crash must park the recovering op");
            }
            assert!(
                executions(eng.trace(), queued).is_empty(),
                "{sched:?}: the parked op holds the key"
            );
            assert!(eng.cancel(&m, parked));
            assert_eq!(eng.parked_count(), 0);
            sched.pump(&mut eng, &mut m);
            assert_eq!(executions(eng.trace(), queued).len(), 1, "{sched:?}: the key is free");
            sched.run(&mut eng, &mut m);
            assert_eq!(eng.take_outcome(parked).unwrap(), Err(ProtocolError::Cancelled));
            match eng.take_outcome(queued).unwrap() {
                Ok(OpOutcome::Reliable(out)) => {
                    assert_eq!(
                        m.read_buffer(n(9), out.xfer.dst_buffer, data.len()),
                        data,
                        "{sched:?}"
                    );
                }
                other => panic!("{sched:?}: the queued transfer must complete, got {other:?}"),
            }
        }
    }

    /// Holding scripts with three senders sharing one receiver: the
    /// reference completes every op word-exact and without a timeout,
    /// as the event scheduler does.
    #[test]
    fn holding_scripts_stay_live_under_the_reference() {
        for script in [DeliveryScript::AlternateSwap, DeliveryScript::WindowShuffle { window: 4 }] {
            let ctx = format!("{script:?}");
            let mut m =
                Machine::new(share(ScriptedNetwork::new(4, script)), 4, CmamConfig::default());
            let mut eng = Engine::new();
            eng.enable_trace();
            // Odd packet counts (4 payload words per packet): 5, 7 and 9.
            let xfers: Vec<(OpId, usize, Vec<u32>)> = (1..=3)
                .map(|s| {
                    let data = mixed(12 + 8 * s, 70 + s as u64);
                    (eng.submit_xfer(&m, n(s), n(0), &data).expect("valid"), s, data)
                })
                .collect();
            let streams: Vec<_> = (1..=3)
                .map(|s| {
                    let sid = m.open_stream(n(s), n(0), StreamConfig::default());
                    let data = mixed(12, 90 + s as u64);
                    (eng.submit(&mut m, Op::stream_send(sid, &data)).expect("valid"), sid, data)
                })
                .collect();
            Sched::Reference.run(&mut eng, &mut m);
            let now = m.now();
            assert!(now < 1 << 16, "{ctx}: finished at cycle {now} — something timed out");
            for (id, s, data) in xfers {
                match eng.take_outcome(id).expect("finished") {
                    Ok(OpOutcome::Xfer(out)) => {
                        assert_eq!(
                            m.read_buffer(n(0), out.dst_buffer, data.len()),
                            data,
                            "{ctx}: xfer from {s}"
                        );
                    }
                    other => panic!("{ctx}: xfer from {s} ended {other:?}"),
                }
            }
            for (id, sid, data) in streams {
                let out = eng.take_outcome(id).expect("finished");
                assert!(matches!(out, Ok(OpOutcome::Stream(_))), "{ctx}: stream ended {out:?}");
                assert_eq!(m.stream_received(sid), data.as_slice(), "{ctx}: stream words");
            }
        }
    }

    /// Transfers `1 -> 0` and `0 -> 1` run concurrently on an
    /// `AlternateSwap` script and claim each other's tags, so one sleeps
    /// behind the other's head with a packet of its own held; the wake
    /// of the progressing op's own pair (rule 2 of `touch_node`) lets
    /// the held packet be found in the cycle the reference's re-step
    /// finds it, not one `advance` later.
    #[test]
    fn holding_script_same_pair_ops_keep_the_reference_trace() {
        let run = |sched: Sched| {
            let script = DeliveryScript::AlternateSwap;
            let m = Machine::new(share(ScriptedNetwork::new(3, script)), 3, CmamConfig::default());
            let mut eng = Engine::new();
            eng.enable_trace();
            let ids: Vec<OpId> = [(1, 0, 24), (0, 1, 16), (1, 2, 4)]
                .into_iter()
                .map(|(s, d, words)| {
                    eng.submit_xfer(&m, n(s), n(d), &mixed(words, 11233 + words as u64))
                        .expect("valid")
                })
                .collect();
            Fingerprint::of_run(sched, eng, m, 3, &ids)
        };
        let (evt, rr) = (run(Sched::Event), run(Sched::Reference));
        assert!(evt.trace.iter().all(|e| !matches!(e.event, EngineEvent::Completed(_, false))));
        assert_same_run("same-pair holding script", &evt, &rr);
    }
}
