//! Serving-plane invariants: the accounting contracts of the RPC
//! service plane (`timego_workloads::service`), pinned under load,
//! faults, and parallel substrate stepping.
//!
//! * **Conservation** — every arrival is accounted for exactly once:
//!   `offered == admitted + shed` and `admitted == completed + failed`
//!   per class, with nothing in flight once the drain quiesces — even
//!   when the run spends most of its life past the admission bound.
//! * **Exactly-once** — crash windows on the gateway (the RPC caller)
//!   force engine-native re-executions of the recovery-armed class;
//!   the server pool's handler-run counters prove each admitted
//!   request's handler ran exactly once (the reply cache absorbs the
//!   re-sent requests).
//! * **Bill additivity** — on a clean run the per-class bills (engine
//!   class split plus gateway-side attribution) sum to exactly the
//!   untagged total the node cost recorders saw: class tagging is a
//!   partition of the bill, not an estimate.
//! * **Thread invariance** — the whole [`ServiceOutcome::signature`]
//!   (counts, bills, histograms, handler runs) is identical at 1, 2,
//!   and 4 substrate worker threads.
//! * **Overload knee** — past the admission knee, goodput holds within
//!   5% of its peak while the shed fraction keeps rising: admission
//!   control converts overload into shedding, not congestion collapse.
//! * **Sweep scaling** — the TTL sweep's pre-check walks the reply
//!   cache the same number of times at N and 4N requests (a count, not
//!   a wall time, so the tripwire is deterministic).
//! * **Lookahead invariance** — the driver lets time pass to its next
//!   event where the substrate says how long its receive queues stay
//!   quiet; hiding that answer changes the number of engine quanta and
//!   nothing else (signature and per-node bills, at 1, 2 and 4
//!   threads), and the quanta on the failover cell are pinned.

use timego_am::{CmamConfig, Machine, RecoveryPolicy, RetryPolicy};
use timego_cost::Feature;
use timego_netsim::{CrashWindow, FaultConfig, NodeId};
use timego_workloads::scenarios;
use timego_workloads::service::{
    run_service, serving_machine, serving_machine_chaos, AdmissionWindow, BalancerPolicy,
    DetectorSpec, HedgeSpec, QosClass, ServiceOutcome, ServiceSpec,
};

#[path = "support/blind_net.rs"]
mod blind_net;
use blind_net::shared;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn nodes(lo: usize, count: usize) -> Vec<NodeId> {
    (lo..lo + count).map(n).collect()
}

/// The overloaded fixture: a single gateway and a three-server pool
/// whose admission window is the bottleneck at small arrival intervals.
fn overload_spec(interval: u64) -> ServiceSpec {
    ServiceSpec {
        gateways: vec![n(0)],
        servers: nodes(1, 3),
        policy: BalancerPolicy::LeastLoaded,
        window: AdmissionWindow::TierGlobal(32),
        classes: vec![
            QosClass::interactive(interval, 260, 1 << 17),
            QosClass::batch(interval * 2, 130),
        ],
        seed: 42,
        ..ServiceSpec::default()
    }
}

fn assert_conserved(out: &ServiceOutcome) {
    assert_eq!(out.in_flight_at_end, 0, "quiesced run must have nothing in flight");
    for c in &out.classes {
        assert_eq!(c.offered, c.admitted + c.shed, "arrival conservation ({})", c.name);
        assert_eq!(c.admitted, c.completed + c.failed, "settlement conservation ({})", c.name);
        assert_eq!(
            c.completion.count() as usize,
            c.admitted,
            "every admitted request settles into the histogram ({})",
            c.name
        );
    }
}

#[test]
fn conservation_holds_at_quiesce_under_sustained_overload() {
    let mut m = serving_machine(128, 2, 1, 42);
    let out = run_service(&mut m, &overload_spec(1));
    assert_conserved(&out);
    let shed: usize = out.classes.iter().map(|c| c.shed).sum();
    assert!(shed > 0, "the overload fixture must actually shed (got none)");
    assert!(
        out.peak_in_flight <= 32,
        "admission bound violated: {} in flight",
        out.peak_in_flight
    );
    println!(
        "overload conservation: shed {shed}, peak in-flight {}, goodput {:.1}/kc",
        out.peak_in_flight,
        out.goodput_per_kcycle()
    );
}

#[test]
fn crash_windows_on_the_gateway_reexecute_to_exactly_once() {
    // Crash the gateway twice while the recovery-armed batch population
    // is in flight. Re-executions re-send requests the servers may
    // already have answered; the reply cache must absorb them.
    let fault = FaultConfig {
        crashes: vec![
            CrashWindow { node: n(0), start: 500, end: 900 },
            CrashWindow { node: n(0), start: 1600, end: 2000 },
        ],
        ..FaultConfig::default()
    };
    let mut m = serving_machine_chaos(64, 2, 1, fault, 42);
    let spec = ServiceSpec {
        gateways: vec![n(0)],
        servers: nodes(1, 4),
        policy: BalancerPolicy::RoundRobin,
        window: AdmissionWindow::TierGlobal(64),
        classes: vec![QosClass::batch(24, 120)],
        seed: 42,
        ..ServiceSpec::default()
    };
    let out = run_service(&mut m, &spec);
    assert_conserved(&out);
    let c = &out.classes[0];
    assert_eq!(c.failed, 0, "recovery must carry every request through the crashes");
    assert!(
        c.re_executions > 0,
        "the crash windows must force at least one engine re-execution"
    );
    let runs: u64 = out.handler_runs.values().sum();
    assert_eq!(
        runs, c.admitted as u64,
        "exactly-once: handler runs must equal admitted requests despite {} re-executions",
        c.re_executions
    );
    println!(
        "exactly-once: {} admitted, {} handler runs, {} re-executions",
        c.admitted, runs, c.re_executions
    );
}

#[test]
fn per_class_bills_sum_to_the_untagged_node_totals() {
    // A clean two-class run: every instruction recorded at any node was
    // induced by a classed request (op start/step at both endpoints,
    // gateway admission/routing) — so the per-class bills must be a
    // partition of the machine-wide total, not an approximation.
    const NODES: usize = 64;
    let mut m = serving_machine(NODES, 2, 1, 42);
    let spec = ServiceSpec {
        gateways: vec![n(0), n(1)],
        servers: nodes(8, 4),
        policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
        window: AdmissionWindow::TierGlobal(64),
        classes: vec![
            QosClass::interactive(8, 80, 1 << 20),
            QosClass::batch(12, 50),
        ],
        seed: 42,
        ..ServiceSpec::default()
    };
    let out = run_service(&mut m, &spec);
    assert_conserved(&out);
    for c in &out.classes {
        assert_eq!(c.shed, 0, "the additivity fixture must stay under the bound");
        assert_eq!(c.failed, 0, "the additivity fixture must stay clean");
    }
    let classed: u64 = out.classes.iter().map(|c| c.bill.total()).sum();
    let untagged: u64 = (0..NODES).map(|i| m.cpu(n(i)).snapshot().total()).sum();
    assert_eq!(
        classed, untagged,
        "per-class bills must partition the node recorders' total"
    );
    assert!(untagged > 0, "the run must have billed something");
    println!("bill additivity: {classed} classed == {untagged} recorded");
}

#[test]
fn outcome_signature_is_identical_at_every_thread_count() {
    // Same spec, same sharded substrate parameters, different worker
    // thread counts: bills, histograms, shed counts, and handler runs
    // must all be byte-identical (the signature folds them all).
    let spec = overload_spec(2);
    let mut signatures = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut m = serving_machine(128, 2, threads, 42);
        let out = run_service(&mut m, &spec);
        assert_conserved(&out);
        signatures.push((threads, out.signature()));
    }
    let (_, pinned) = signatures[0];
    for &(threads, sig) in &signatures[1..] {
        assert_eq!(
            sig, pinned,
            "worker-thread count {threads} changed the serving outcome"
        );
    }
    println!("thread invariance: signature {pinned:#018x} at t1/t2/t4");
}

#[test]
fn gc_scans_stay_constant_as_requests_grow() {
    // The scaling tripwire, as a count rather than a wall time: the
    // reply cache grows by one entry per request and the TTL sweep's
    // pre-check runs on every engine pump, so a pre-check that walks
    // the cache makes a run cost requests^2. A clean run shorter than
    // the TTL must walk it the same (small) number of times at N and
    // at 4N requests.
    let run = |requests: usize| {
        let mut m = serving_machine(64, 2, 1, 42);
        let spec = ServiceSpec {
            gateways: vec![n(0), n(1)],
            servers: nodes(8, 4),
            policy: BalancerPolicy::RoundRobin,
            window: AdmissionWindow::TierGlobal(64),
            classes: vec![QosClass::batch(12, requests)],
            seed: 42,
            ..ServiceSpec::default()
        };
        let out = run_service(&mut m, &spec);
        assert_conserved(&out);
        let c = &out.classes[0];
        assert_eq!((c.shed, c.failed), (0, 0), "the fixture must stay clean");
        assert_eq!(c.admitted, requests);
        let runs: u64 = out.handler_runs.values().sum();
        assert_eq!(runs, requests as u64, "exactly-once: one handler run per admitted request");
        assert_eq!(m.reply_cache_len(), requests, "every reply must still be cached");
        m.gc_scans()
    };
    let (small, large) = (run(100), run(400));
    assert_eq!(small, large, "table walks must not grow with the request count");
    assert!(large <= 2, "a run shorter than the TTL has nothing to walk for, saw {large} walks");
    println!("gc scans: {small} at 100 requests, {large} at 400");
}

#[test]
fn goodput_holds_within_five_percent_of_peak_past_the_admission_knee() {
    // Sweep the overload fixture from light load to 2x past its knee.
    // Admission control must convert the excess into shedding while
    // goodput stays within 5% of the peak — the anti-collapse contract
    // the serving bench's overload curve reports.
    let mut curve = Vec::new();
    for interval in [8u64, 2, 1] {
        let mut m = serving_machine(128, 2, 1, 42);
        let out = run_service(&mut m, &overload_spec(interval));
        assert_conserved(&out);
        curve.push((interval, out.goodput_per_kcycle(), out.shed_fraction()));
    }
    let peak = curve.iter().map(|&(_, g, _)| g).fold(0.0f64, f64::max);
    let (_, light_g, light_shed) = curve[0];
    let (_, knee_g, knee_shed) = curve[1];
    let (_, past_g, past_shed) = curve[2];
    assert_eq!(light_shed, 0.0, "light load must not shed");
    assert!(light_g < knee_g, "goodput must rise up to the knee");
    assert!(knee_shed > 0.0, "the knee point must shed");
    assert!(
        past_shed > knee_shed,
        "pushing past the knee must shed more ({past_shed:.3} vs {knee_shed:.3})"
    );
    for (interval, g, shed) in &curve {
        println!("interval {interval}: goodput {g:.1}/kc, shed {:.1}%", shed * 100.0);
        if *shed > 0.0 {
            assert!(
                *g >= 0.95 * peak,
                "goodput at interval {interval} fell {:.1}% below the {peak:.1} peak",
                (1.0 - g / peak) * 100.0
            );
        }
    }
    let _ = past_g;
}

/// The frozen benchmark's two serving workloads at its `--smoke` sizes
/// (`benchmark/src/workloads.rs`, `Sizes::SMOKE`): the policy cell — two
/// QoS classes on 4 gateways and 16 servers of a clean 512-node tier —
/// and the failover cell — one recovery-armed, hedged class on 4
/// gateways and 8 servers of a 256-node tier with the detector armed
/// and four crash-restart windows, `requests` of them (5000 in the
/// benchmark). `blind` hides the substrate's `quiet_until` behind a
/// decorator that does not forward it.
fn smoke_cell(failover: bool, requests: usize, threads: usize, blind: bool) -> (Machine, ServiceSpec) {
    const SEED: u64 = 42;
    let (tier, gateways, servers) = if failover { (256, 4, 8) } else { (512, 4, 16) };
    let classes = if failover {
        vec![QosClass {
            name: "interactive",
            class: 0,
            interval: 12,
            requests,
            work: 4,
            deadline: None,
            recovery: Some(RecoveryPolicy::default()),
            retry: RetryPolicy::default(),
            hedge: true,
            sheddable: true,
            retry_budget: None,
        }]
    } else {
        vec![QosClass::interactive(16, 450, 1 << 20), QosClass::batch(24, 300)]
    };
    let spec = ServiceSpec {
        gateways: nodes(0, gateways),
        servers: nodes(gateways, servers),
        policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
        window: AdmissionWindow::TierGlobal(4 * servers),
        classes,
        detector: failover.then_some(DetectorSpec { period: 600, timeout: 500, threshold: 2 }),
        hedge: failover.then_some(HedgeSpec { quantile: 0.95, min_samples: 32, bootstrap: 2048 }),
        seed: SEED,
        ..ServiceSpec::default()
    };
    let net = if failover {
        // Server `k` is dark for the middle half of the `k`-th quarter
        // of the arrival span.
        let quarter = 12 * requests as u64 / 4;
        let crashes = (0..4u64).map(|k| CrashWindow {
            node: n(gateways + k as usize),
            start: k * quarter + quarter / 4,
            end: k * quarter + 3 * quarter / 4,
        });
        let fault = FaultConfig { crashes: crashes.collect(), ..FaultConfig::default() };
        scenarios::cm5_sharded_chaos(tier, 2, threads, fault, SEED)
    } else {
        scenarios::cm5_sharded_serving(tier, 2, threads, SEED)
    };
    (Machine::new(shared(net, blind), tier, CmamConfig::default()), spec)
}

#[test]
fn hiding_the_quiet_bound_changes_the_pump_count_and_nothing_else() {
    // A debug build checks the TTL bound against a walk of the reply
    // cache on every pump, which makes the failover cell cost
    // requests^2 there: it runs a quarter of the cell, the release
    // build (CI's serving smoke step) all of it.
    let requests = if cfg!(debug_assertions) { 1250 } else { 5000 };
    for failover in [false, true] {
        let mut pinned = None;
        for threads in [1usize, 2, 4] {
            let run = |blind: bool| {
                let (mut m, spec) = smoke_cell(failover, requests, threads, blind);
                let out = run_service(&mut m, &spec);
                assert_conserved(&out);
                let bills: Vec<Vec<u64>> = (0..m.num_nodes())
                    .map(|i| Feature::ALL.iter().map(|&f| m.cpu(n(i)).snapshot().feature_total(f)).collect())
                    .collect();
                ((out.signature(), bills, out.late_arrivals), out.pumps)
            };
            let ((bare, bare_pumps), (blind, blind_pumps)) = (run(false), run(true));
            let ctx = format!("failover {failover}, {threads} threads");
            assert!(bare == blind, "{ctx}: signature, per-node per-feature bills or late arrivals differ");
            assert!(bare_pumps < blind_pumps, "{ctx}: {bare_pumps} pumps with the bound, {blind_pumps} without");
            let pinned = pinned.get_or_insert((bare.clone(), bare_pumps));
            assert!(*pinned == (bare, bare_pumps), "{ctx}: thread count changed the run");
        }
    }
}

#[test]
fn pumps_stay_pinned_on_the_failover_smoke_cell() {
    // The driver's shape as a count: engine quanta for 5000 requests
    // over 60 005 cycles. Pumping once per cycle made one per cycle;
    // letting time pass to the next event makes the pinned count. A
    // quarter over it means the driver (or the bound the substrate
    // reports) is polling again.
    const PINNED: u64 = 25_691;
    let (mut m, spec) = smoke_cell(true, 5000, 1, false);
    let out = run_service(&mut m, &spec);
    assert_conserved(&out);
    println!(
        "failover smoke cell: {} pumps for {} requests over {} cycles, {} late arrivals",
        out.pumps, spec.classes[0].requests, out.elapsed_cycles, out.late_arrivals
    );
    assert!(
        4 * out.pumps <= 5 * PINNED,
        "{} pumps, more than 1.25x the pinned {PINNED}",
        out.pumps
    );
}
