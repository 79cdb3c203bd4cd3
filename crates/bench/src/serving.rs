//! Serving report: the RPC service plane swept across balancer
//! policies, with per-class tail latency and per-class "where does the
//! time go" bills, plus a goodput-under-overload curve.
//!
//! Two reports, both on the PR 8 sharded substrate:
//!
//! * **Policy sweep** — two open-loop QoS populations (a
//!   deadline-supervised `interactive` class and a recovery-armed
//!   `batch` class) drive a gateway tier + server pool at 4096 nodes
//!   (512 under `--quick`) once per balancer policy. Each cell prints
//!   per-class p50/p99/p999 completion times, the class's instruction
//!   bill and its overhead share. The round-robin
//!   cell re-runs at several substrate worker-thread counts and asserts
//!   the full [`ServiceOutcome::signature`] identical — the bench
//!   doubles as a determinism soak.
//! * **Overload sweep** — a deliberately small pool swept from light
//!   load to several times past its admission knee. Past the knee the
//!   gateway sheds (billed to `FaultTol`) and goodput holds within a
//!   few percent of its peak instead of collapsing — the serving
//!   analogue of the congestion report's saturation knee, pinned by
//!   `tests/serving_invariants.rs`.
//! * **Failover sweep** (`--chaos`) — a mid-run crash-restart on one
//!   server, crossed with the failure domain's knobs: detector off/on,
//!   hedging off/on, a near-dry retry budget, and a brownout cell that
//!   crashes most of the pool to trip the breaker. The acceptance
//!   contract is asserted inline: detector+hedging goodput stays
//!   within 10% of the clean run while the detector-off baseline
//!   measurably degrades, hedged p999 beats unhedged, every cell
//!   (except the budget one, whose denials settle requests without a
//!   handler run) is exactly-once, and the full-domain cell's
//!   signature is thread-invariant.
//! * **Admission sweep** (`--chaos`) — per-gateway vs tier-global
//!   admission windows at the same total bound: un-shared counters
//!   shed more because a hot gateway can't borrow a cold one's room.
//!
//! Flags:
//!
//! * `--quick`: small node counts and populations (CI-friendly);
//! * `--threads N`: determinism sweep over `{1, N}` instead of
//!   `{1, 2, 4}`;
//! * `--chaos`: also run the failover and admission-window sweeps.

use std::time::Instant;

use timego_am::{RecoveryPolicy, RetryPolicy};
use timego_netsim::{CrashWindow, FaultConfig, NodeId};
use timego_workloads::service::{
    run_service, serving_machine, serving_machine_chaos, AdmissionWindow, BalancerPolicy,
    BreakerSpec, ClassOutcome, DetectorSpec, HedgeSpec, Migration, QosClass, RetryBudget,
    ServiceOutcome, ServiceSpec,
};

use crate::Opts;

const SEED: u64 = 42;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn range(lo: usize, count: usize) -> Vec<NodeId> {
    (lo..lo + count).map(n).collect()
}

struct Sized {
    nodes: usize,
    shards: usize,
    gateways: usize,
    servers: usize,
    interactive: usize,
    batch: usize,
}

fn policy_sizing(quick: bool) -> Sized {
    if quick {
        Sized { nodes: 512, shards: 2, gateways: 4, servers: 16, interactive: 220, batch: 140 }
    } else {
        Sized { nodes: 4096, shards: 4, gateways: 16, servers: 64, interactive: 1300, batch: 900 }
    }
}

fn policy_spec(s: &Sized, policy: BalancerPolicy) -> ServiceSpec {
    ServiceSpec {
        gateways: range(0, s.gateways),
        servers: range(s.gateways, s.servers),
        policy,
        window: AdmissionWindow::TierGlobal(4 * s.servers),
        classes: vec![
            QosClass::interactive(3, s.interactive, 1 << 20),
            QosClass::batch(4, s.batch),
        ],
        seed: SEED,
        ..ServiceSpec::default()
    }
}

fn drive(spec: &ServiceSpec, nodes: usize, shards: usize, threads: usize) -> (ServiceOutcome, u128) {
    let mut m = serving_machine(nodes, shards, threads, SEED);
    let wall = Instant::now();
    let out = run_service(&mut m, spec);
    (out, wall.elapsed().as_nanos())
}

fn print_class(policy: &str, c: &ClassOutcome) {
    println!(
        "{:<18} {:<12} {:>6} {:>6} {:>5} {:>8} {:>8} {:>8}  {:>10} {:>6.1}%",
        policy,
        c.name,
        c.completed,
        c.failed,
        c.shed,
        c.completion.quantile(0.50),
        c.completion.quantile(0.99),
        c.completion.quantile(0.999),
        c.bill.total(),
        c.bill.overhead_fraction() * 100.0,
    );
}

fn policy_sweep(quick: bool, threads: &[usize]) {
    let s = policy_sizing(quick);
    let policies = [
        BalancerPolicy::RoundRobin,
        BalancerPolicy::LeastLoaded,
        BalancerPolicy::ConsistentHash { vnodes: 64 },
        BalancerPolicy::Random,
    ];
    println!(
        "policy sweep: {} nodes, {} shards, {} gateways, {} servers",
        s.nodes, s.shards, s.gateways, s.servers
    );
    println!(
        "{:<18} {:<12} {:>6} {:>6} {:>5} {:>8} {:>8} {:>8}  {:>10} {:>7}",
        "policy", "class", "done", "fail", "shed", "p50", "p99", "p999", "bill", "ovh"
    );
    for policy in policies {
        let spec = policy_spec(&s, policy);
        let (out, _) = drive(&spec, s.nodes, s.shards, 1);
        assert_eq!(out.in_flight_at_end, 0, "serving run must drain");
        for c in &out.classes {
            assert_eq!(c.offered, c.admitted + c.shed, "conservation ({})", c.name);
            assert_eq!(c.admitted, c.completed + c.failed, "conservation ({})", c.name);
            print_class(policy.name(), c);
        }

        // The determinism soak rides the round-robin cell: the same
        // spec at every worker-thread count must produce the identical
        // outcome signature, bills and histograms included.
        if policy == BalancerPolicy::RoundRobin {
            let pinned = out.signature();
            for &t in threads {
                let (run, t_wall) = drive(&spec, s.nodes, s.shards, t);
                assert_eq!(
                    run.signature(),
                    pinned,
                    "worker-thread count {t} changed the serving outcome"
                );
                println!("  t{t}: signature ok ({:.2}s)", t_wall as f64 / 1e9);
            }
        }
    }

    // Shard migration under consistent hashing: retire a quarter of
    // the pool mid-run, recruit spares, and show the run still drains
    // clean — the remap cost is visible as completion-time spread, not
    // as failures.
    let mut spec = policy_spec(&s, BalancerPolicy::ConsistentHash { vnodes: 64 });
    let spares = range(s.gateways + s.servers, s.servers / 4);
    spec.migration =
        Some(Migration { at: 0.5, retire: s.servers / 4, recruit: spares });
    let (out, _) = drive(&spec, s.nodes, s.shards, 1);
    assert_eq!(out.in_flight_at_end, 0);
    for c in &out.classes {
        assert_eq!(c.offered, c.admitted + c.shed);
        assert_eq!(c.admitted, c.completed + c.failed);
        print_class("ch+migration", c);
    }
}

/// The overload scenario: a small pool whose admission window is the
/// bottleneck, swept across arrival intervals from light load to
/// several times past the knee (`tests/serving_invariants.rs` pins the
/// knee on its own `overload_spec`).
fn overload_sweep(quick: bool) {
    let (nodes, shards) = if quick { (128, 2) } else { (256, 2) };
    let (interactive, batch) = if quick { (260, 130) } else { (900, 450) };
    let intervals: &[u64] = if quick { &[32, 8, 2, 1] } else { &[64, 32, 16, 8, 4, 2, 1] };
    println!(
        "\n{:<10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "interval", "goodput/kc", "shed%", "fail", "int p99", "bat p99", "peak_if"
    );
    for &interval in intervals {
        let spec = ServiceSpec {
            gateways: vec![n(0)],
            servers: range(1, 3),
            policy: BalancerPolicy::LeastLoaded,
            window: AdmissionWindow::TierGlobal(32),
            classes: vec![
                QosClass::interactive(interval, interactive, 1 << 17),
                QosClass::batch(interval * 2, batch),
            ],
            seed: SEED,
            ..ServiceSpec::default()
        };
        let mut m = serving_machine(nodes, shards, 1, SEED);
        let out = run_service(&mut m, &spec);
        let failed: usize = out.classes.iter().map(|c| c.failed).sum();
        println!(
            "{:<10} {:>10.2} {:>7.1}% {:>8} {:>10} {:>10} {:>8}",
            interval,
            out.goodput_per_kcycle(),
            out.shed_fraction() * 100.0,
            failed,
            out.classes[0].completion.quantile(0.99),
            out.classes[1].completion.quantile(0.99),
            out.peak_in_flight,
        );
        for c in &out.classes {
            assert_eq!(c.offered, c.admitted + c.shed, "conservation ({})", c.name);
            assert_eq!(c.admitted, c.completed + c.failed, "conservation ({})", c.name);
        }
    }
}

// ---------------------------------------------------------------------
// Failover sweep (`--chaos`): crash schedules × detector × hedging.
// ---------------------------------------------------------------------

struct FailoverSized {
    nodes: usize,
    shards: usize,
    gateways: usize,
    servers: usize,
    interval: u64,
    requests: usize,
}

fn failover_sizing(quick: bool) -> FailoverSized {
    if quick {
        FailoverSized { nodes: 256, shards: 2, gateways: 4, servers: 8, interval: 24, requests: 500 }
    } else {
        FailoverSized { nodes: 512, shards: 2, gateways: 4, servers: 8, interval: 12, requests: 1500 }
    }
}

/// The failover population: interactive-shaped (small work, hedged,
/// sheddable) but recovery-armed and deadline-free, so every admitted
/// request eventually settles and exactly-once stays assertable under
/// crash windows.
fn failover_class(s: &FailoverSized) -> QosClass {
    QosClass {
        name: "interactive",
        class: 0,
        interval: s.interval,
        requests: s.requests,
        work: 4,
        deadline: None,
        recovery: Some(RecoveryPolicy::default()),
        retry: RetryPolicy::default(),
        hedge: true,
        sheddable: true,
        retry_budget: None,
    }
}

fn failover_detector() -> DetectorSpec {
    DetectorSpec { period: 600, timeout: 500, threshold: 2 }
}

fn failover_hedge() -> HedgeSpec {
    HedgeSpec { quantile: 0.95, min_samples: 32, bootstrap: 2048 }
}

fn failover_spec(s: &FailoverSized, detector: bool, hedge: bool) -> ServiceSpec {
    ServiceSpec {
        gateways: range(0, s.gateways),
        servers: range(s.gateways, s.servers),
        policy: BalancerPolicy::ConsistentHash { vnodes: 64 },
        window: AdmissionWindow::TierGlobal(4 * s.servers),
        classes: vec![failover_class(s)],
        detector: detector.then(failover_detector),
        hedge: hedge.then(failover_hedge),
        seed: SEED,
        ..ServiceSpec::default()
    }
}

/// One mid-run crash-restart on the first server: dark for the middle
/// half of the arrival span, restarted (state erased) at the end. The
/// start is offset past the probe round at span/4 so the crash lands
/// mid-heartbeat — real crashes don't wait for the detector's grid —
/// maximizing the exposure window routing must survive.
fn failover_fault(s: &FailoverSized) -> FaultConfig {
    let span = s.interval * s.requests as u64;
    FaultConfig {
        crashes: vec![CrashWindow {
            node: n(s.gateways),
            start: span / 4 + 32,
            end: span * 3 / 4,
        }],
        ..FaultConfig::default()
    }
}

fn drive_failover(
    spec: &ServiceSpec,
    s: &FailoverSized,
    fault: Option<&FaultConfig>,
    threads: usize,
) -> (ServiceOutcome, u128) {
    let mut m = match fault {
        Some(f) => serving_machine_chaos(s.nodes, s.shards, threads, f.clone(), SEED),
        None => serving_machine(s.nodes, s.shards, threads, SEED),
    };
    let wall = Instant::now();
    let out = run_service(&mut m, spec);
    (out, wall.elapsed().as_nanos())
}

fn assert_conserved(cell: &str, out: &ServiceOutcome) {
    for c in &out.classes {
        assert_eq!(c.offered, c.admitted + c.shed, "conservation ({})", c.name);
        assert_eq!(c.admitted, c.completed + c.failed, "conservation ({})", c.name);
    }
    assert_eq!(out.in_flight_at_end, 0, "failover run must drain ({cell})");
}

fn assert_exactly_once(cell: &str, out: &ServiceOutcome) {
    let runs: u64 = out.handler_runs.values().sum();
    let admitted: usize = out.classes.iter().map(|c| c.admitted).sum();
    assert_eq!(
        runs, admitted as u64,
        "{cell}: handler runs must equal admitted requests \
         ({} dup-suppressed, {} re-executions)",
        out.dup_suppressed,
        out.classes.iter().map(|c| c.re_executions).sum::<u64>()
    );
}

fn print_failover(cell: &str, out: &ServiceOutcome) {
    let c = &out.classes[0];
    println!(
        "{:<26} {:>6} {:>6} {:>5} {:>6} {:>6} {:>8} {:>8} {:>7.2} {:>5} {:>4}/{:<4}",
        cell,
        c.completed,
        c.failed,
        c.shed,
        c.re_executions,
        c.hedge_wins,
        c.completion.quantile(0.99),
        c.completion.quantile(0.999),
        out.goodput_per_kcycle(),
        out.probes,
        out.ejections,
        out.reinstatements,
    );
}

fn failover_sweep(quick: bool, threads: &[usize]) {
    let s = failover_sizing(quick);
    let fault = failover_fault(&s);
    println!(
        "\nfailover sweep: {} nodes, {} servers, crash [{}, {}) on server {}",
        s.nodes,
        s.servers,
        fault.crashes[0].start,
        fault.crashes[0].end,
        fault.crashes[0].node.index()
    );
    println!(
        "{:<26} {:>6} {:>6} {:>5} {:>6} {:>6} {:>8} {:>8} {:>7} {:>5} {:>9}",
        "cell", "done", "fail", "shed", "reexec", "hwins", "p99", "p999", "gput/kc", "probe", "eject/rei"
    );

    // Clean reference: failure domain armed, nothing fails.
    let (clean, _) = drive_failover(&failover_spec(&s, true, true), &s, None, 1);
    print_failover("clean", &clean);
    assert_conserved("failover/clean", &clean);
    assert_exactly_once("failover/clean", &clean);
    assert_eq!(clean.ejections, 0, "clean run must not eject");

    // Detector-off baseline: the balancer keeps routing at the corpse
    // and stuck requests pile into the admission window.
    let (base, _) =
        drive_failover(&failover_spec(&s, false, false), &s, Some(&fault), 1);
    print_failover("crash_baseline", &base);
    assert_conserved("failover/crash_baseline", &base);
    assert_exactly_once("failover/crash_baseline", &base);

    // Detector only: routing reacts within ~2 probe periods, but
    // requests already stuck on the corpse wait out its restart.
    let (det, _) = drive_failover(&failover_spec(&s, true, false), &s, Some(&fault), 1);
    print_failover("crash_detector", &det);
    assert_conserved("failover/crash_detector", &det);
    assert_exactly_once("failover/crash_detector", &det);
    assert!(det.ejections >= 1, "the detector must eject the crashed server");
    assert!(det.reinstatements >= 1, "the restarted server must be reinstated");

    // Detector + hedging: stuck requests get a second leg on a healthy
    // server — the tentpole's acceptance cell.
    let (hedged, _) =
        drive_failover(&failover_spec(&s, true, true), &s, Some(&fault), 1);
    print_failover("crash_detector_hedged", &hedged);
    assert_conserved("failover/crash_detector_hedged", &hedged);
    assert_exactly_once("failover/crash_detector_hedged", &hedged);
    assert!(hedged.ejections >= 1, "hedged cell must still eject");
    assert!(
        hedged.classes[0].hedge_wins > 0,
        "hedge legs must win some races under a crash"
    );

    // Acceptance: goodput with the failure domain stays within 10% of
    // clean while the detector-off baseline measurably degrades; hedged
    // p999 beats unhedged.
    let (g_clean, g_base, g_hedged) =
        (clean.goodput_per_kcycle(), base.goodput_per_kcycle(), hedged.goodput_per_kcycle());
    assert!(
        g_hedged >= 0.9 * g_clean,
        "detector+hedging goodput {g_hedged:.2}/kc fell more than 10% below clean {g_clean:.2}/kc"
    );
    assert!(
        g_base < 0.9 * g_clean,
        "the detector-off baseline must measurably degrade \
         (got {g_base:.2}/kc vs clean {g_clean:.2}/kc)"
    );
    let (p999_hedged, p999_det) = (
        hedged.classes[0].completion.quantile(0.999),
        det.classes[0].completion.quantile(0.999),
    );
    assert!(
        p999_hedged < p999_det,
        "hedged p999 {p999_hedged} must beat unhedged {p999_det} under the crash"
    );

    // Thread-invariance soak on the full failure domain: crash windows,
    // ejections, hedge races, and reinstatements — same signature at
    // every worker-thread count.
    let pinned = hedged.signature();
    for &t in threads {
        let (run, t_wall) =
            drive_failover(&failover_spec(&s, true, true), &s, Some(&fault), t);
        assert_eq!(
            run.signature(),
            pinned,
            "worker-thread count {t} changed the failover outcome"
        );
        println!("  t{t}: signature ok ({:.2}s)", t_wall as f64 / 1e9);
    }

    // Retry-budget cell: a near-dry bucket caps the crash's recovery
    // amplification. Hedging stays off — hedge legs rescue stuck
    // requests before recovery fires, so budget pressure only exists
    // on the unhedged path. Budget denials settle requests with their
    // error, so this cell is excluded from the exactly-once assertion
    // (a denied request's handler may never have run).
    let mut spec = failover_spec(&s, true, false);
    spec.classes[0].retry_budget =
        Some(RetryBudget { capacity: 2, refill_milli_per_kcycle: 0 });
    let (budget, _) = drive_failover(&spec, &s, Some(&fault), 1);
    print_failover("budget_capped", &budget);
    assert_conserved("failover/budget_capped", &budget);
    assert!(
        budget.classes[0].budget_denied > 0,
        "the capped budget must deny some re-executions"
    );
    assert!(
        budget.classes[0].re_executions < base.classes[0].re_executions,
        "the budget must cap recovery amplification ({} vs {})",
        budget.classes[0].re_executions,
        base.classes[0].re_executions
    );

    // Brownout cell: crash most of the pool; the breaker sheds the
    // sheddable class outright instead of queueing at the corpses.
    let span = s.interval * s.requests as u64;
    let brown_fault = FaultConfig {
        crashes: (0..s.servers * 3 / 4)
            .map(|i| CrashWindow {
                node: n(s.gateways + i),
                start: span / 4,
                end: span * 3 / 4,
            })
            .collect(),
        ..FaultConfig::default()
    };
    let mut spec = failover_spec(&s, true, true);
    spec.breaker = Some(BreakerSpec { min_healthy_milli: 500 });
    let (brown, _) = drive_failover(&spec, &s, Some(&brown_fault), 1);
    print_failover("brownout_breaker", &brown);
    assert_conserved("failover/brownout_breaker", &brown);
    assert_exactly_once("failover/brownout_breaker", &brown);
    assert!(
        brown.classes[0].breaker_shed > 0,
        "losing 3/4 of the pool must trip the breaker"
    );
}

// ---------------------------------------------------------------------
// Admission-window comparison: per-gateway vs tier-global shedding at
// the same total bound.
// ---------------------------------------------------------------------

fn admission_sweep(quick: bool) {
    let (nodes, shards) = (256, 2);
    let (gateways, servers, bound) = (4usize, 8usize, 32usize);
    let (interactive, batch) = if quick { (400, 200) } else { (1200, 600) };
    println!("\nadmission windows: {gateways} gateways, total bound {bound}");
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>8} {:>8}",
        "window", "shed", "done", "gput/kc", "peak", "peak/gw"
    );
    let mut sheds = Vec::new();
    for window in [
        AdmissionWindow::TierGlobal(bound),
        AdmissionWindow::PerGateway(bound / gateways),
    ] {
        let spec = ServiceSpec {
            gateways: range(0, gateways),
            servers: range(gateways, servers),
            policy: BalancerPolicy::LeastLoaded,
            window,
            classes: vec![
                QosClass::interactive(2, interactive, 1 << 17),
                QosClass::batch(4, batch),
            ],
            seed: SEED,
            ..ServiceSpec::default()
        };
        let mut m = serving_machine(nodes, shards, 1, SEED);
        let out = run_service(&mut m, &spec);
        let shed: usize = out.classes.iter().map(|c| c.shed).sum();
        let done: usize = out.classes.iter().map(|c| c.completed).sum();
        let peak_gw = out.peak_per_gateway.values().copied().max().unwrap_or(0);
        println!(
            "{:<14} {:>6} {:>6} {:>8.2} {:>8} {:>8}",
            window.name(),
            shed,
            done,
            out.goodput_per_kcycle(),
            out.peak_in_flight,
            peak_gw
        );
        for c in &out.classes {
            assert_eq!(c.offered, c.admitted + c.shed, "conservation ({})", c.name);
            assert_eq!(c.admitted, c.completed + c.failed, "conservation ({})", c.name);
        }
        match window {
            AdmissionWindow::TierGlobal(b) => assert!(out.peak_in_flight <= b),
            AdmissionWindow::PerGateway(b) => assert!(peak_gw <= b),
        }
        sheds.push(shed);
    }
    // Un-shared counters can only shed more at the same total bound:
    // a hot gateway sheds while a cold one still has room.
    assert!(
        sheds[1] >= sheds[0],
        "per-gateway windows shed less ({}) than tier-global ({}) at the same bound",
        sheds[1],
        sheds[0]
    );
}

/// The `serving` suite (`--quick`, `--threads N`, `--chaos`).
pub fn run(opts: &Opts) {
    let thread_sweep: Vec<usize> = match opts.threads {
        Some(1) | None => vec![2, 4],
        Some(t) => vec![t],
    };
    policy_sweep(opts.quick, &thread_sweep);
    overload_sweep(opts.quick);
    if opts.chaos {
        failover_sweep(opts.quick, &thread_sweep);
        admission_sweep(opts.quick);
    }
}
