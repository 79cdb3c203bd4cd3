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

use timego_netsim::{CrashWindow, FaultConfig, NodeId};
use timego_workloads::service::{
    run_service, serving_machine, serving_machine_chaos, AdmissionWindow, BalancerPolicy,
    QosClass, ServiceOutcome, ServiceSpec,
};

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
