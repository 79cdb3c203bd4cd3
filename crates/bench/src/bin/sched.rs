//! Scheduler scaling report: the readiness-driven event scheduler vs
//! the reference round-robin stepper, swept across node counts on
//! permutation and hotspot traffic.
//!
//! For every `(pattern, nodes)` cell the same plain-transfer plan is
//! driven to completion once per [`SchedMode`] on identically-seeded
//! machines, recording:
//!
//! * op `step()` invocations per mode and their ratio — the refactor's
//!   acceptance metric (sleeping ops are skipped, so the ratio grows
//!   with scale);
//! * wall time and delivered packets per second per mode;
//! * the event scheduler's self-profiled phase shares (ready-queue
//!   sweep, op steps, wheel/wake absorption, substrate stepping);
//! * wake/jump counters (timer wakes, packet wakes, idle clock-jumps).
//!
//! A second, *parallel* report drives the same permutation plan over
//! the sharded substrate (`ShardedNetwork`, 4 shards) at several thread
//! counts, recording packets/sec, the substrate-step phase share, and
//! the speedup against the flat (unsharded) substrate under
//! `sched/parallel/`. Each thread count is asserted to produce the
//! identical step count, simulated-cycle count, and delivery total —
//! the bench doubles as a determinism check.
//!
//! Everything lands in `BENCH_results.json` under `sched/`. Flags:
//!
//! * `--quick`: cap the sweep at 1024 nodes (CI-friendly);
//! * `--threads N`: sweep the parallel report over thread counts
//!   `{1, N}` instead of the default `{1, 2, 4}`;
//! * `--perf-smoke`: run only the 1024-node permutation and hotspot
//!   cells in event mode and fail (exit 1) if either deterministic step
//!   count exceeds the committed baseline by more than a quarter.

use std::time::Instant;

use timego_am::{Engine, Machine, SchedMode, SchedPhase};
use timego_bench::results::BenchResults;
use timego_ni::{share, SharedNetwork};
use timego_workloads::concurrent::{PlannedOp, TrafficKind};
use timego_workloads::{patterns::Pattern, payloads, scenarios};

const SEED: u64 = 42;
const WORDS: usize = 8;

/// Committed perf-smoke baseline: deterministic event-mode step count
/// for the 1024-node permutation cell — 13 steps per transfer, and the
/// 1024-node hotspot plan takes exactly as many: what an op costs does
/// not depend on how many ops share its endpoint. Regenerate by running
/// `sched --perf-smoke` and copying the printed value after an
/// *intentional* scheduler change.
const BASELINE_1024_PERM_STEPS: u64 = 13_299;

struct RunStats {
    steps: u64,
    timer_wakes: u64,
    packet_wakes: u64,
    idle_jumps: u64,
    jumped_cycles: u64,
    elapsed_cycles: u64,
    delivered: u64,
    wall_ns: u128,
    /// (phase name, total ns) for the event scheduler's profiled phases.
    phases: Vec<(&'static str, u64)>,
}

fn plan_for(pattern: Pattern, nodes: usize) -> Vec<PlannedOp> {
    pattern
        .pairs(nodes)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| PlannedOp {
            kind: TrafficKind::Xfer,
            src,
            dst,
            data: payloads::mixed(WORDS, SEED.wrapping_add(i as u64)),
        })
        .collect()
}

/// Run `plan` to completion under `mode`. Self-profiling costs two
/// clock reads per op step, which distorts wall time on hosts where
/// `Instant::now` is a real syscall — so wall/throughput numbers come
/// from an unprofiled run and phase shares from a separate profiled
/// one (step counts are deterministic and identical across both).
fn drive(mode: SchedMode, plan: &[PlannedOp], nodes: usize, profile: bool) -> RunStats {
    drive_net(share(scenarios::cm5_deterministic(nodes, SEED)), mode, plan, nodes, profile)
}

fn drive_net(
    net: SharedNetwork,
    mode: SchedMode,
    plan: &[PlannedOp],
    nodes: usize,
    profile: bool,
) -> RunStats {
    let mut m = Machine::new(net, nodes, timego_am::CmamConfig::default());
    let mut eng = Engine::with_mode(mode);
    if profile {
        eng.enable_profiling(1 << 16);
    }
    let ids: Vec<_> = plan
        .iter()
        .map(|op| eng.submit_xfer(&m, op.src, op.dst, &op.data).expect("valid plan"))
        .collect();

    let start_cycles = m.network().borrow().now().cycles();
    let wall = Instant::now();
    eng.run(&mut m);
    let wall_ns = wall.elapsed().as_nanos();
    let elapsed_cycles = m.network().borrow().now().cycles() - start_cycles;

    for id in ids {
        eng.take_outcome(id)
            .expect("engine ran to completion")
            .expect("clean substrate: every transfer completes");
    }

    let c = *eng.counters();
    let phases = match eng.profiler_mut() {
        Some(p) => {
            p.flush();
            SchedPhase::ALL
                .iter()
                .zip(p.totals())
                .map(|(ph, t)| (ph.name(), t.total_ns))
                .collect()
        }
        None => Vec::new(),
    };
    let delivered = m.network().borrow().stats().delivered;
    RunStats {
        steps: c.steps,
        timer_wakes: c.timer_wakes,
        packet_wakes: c.packet_wakes,
        idle_jumps: c.idle_jumps,
        jumped_cycles: c.jumped_cycles,
        elapsed_cycles,
        delivered,
        wall_ns,
        phases,
    }
}

fn pkts_per_sec(s: &RunStats) -> u64 {
    (s.delivered as u128 * 1_000_000_000)
        .checked_div(s.wall_ns)
        .unwrap_or(0) as u64
}

fn perf_smoke() -> i32 {
    let bound = BASELINE_1024_PERM_STEPS + BASELINE_1024_PERM_STEPS / 4;
    let mut failed = 0;
    for pattern in [Pattern::RandomPermutation(SEED), Pattern::Hotspot] {
        let plan = plan_for(pattern, 1024);
        let evt = drive(SchedMode::EventDriven, &plan, 1024, false);
        println!(
            "perf-smoke: 1024-node {} event steps = {} (baseline {})",
            pattern.name(),
            evt.steps,
            BASELINE_1024_PERM_STEPS
        );
        if evt.steps > bound {
            eprintln!(
                "perf-smoke FAILED: {} step count regressed more than 1.25x ({} > {bound})",
                pattern.name(),
                evt.steps
            );
            failed = 1;
        }
    }
    if failed == 0 {
        println!("perf-smoke OK");
    }
    failed
}

/// Find the share recorded for `name` in a profiled run's phase list.
fn phase_share_milli(phases: &[(&'static str, u64)], name: &str) -> u64 {
    let total: u64 = phases.iter().map(|&(_, ns)| ns).sum();
    phases
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, ns)| (ns * 1000).checked_div(total).unwrap_or(0))
        .unwrap_or(0)
}

const PARALLEL_SHARDS: usize = 4;

/// The shard-scaling report: the permutation plan on the flat substrate
/// vs the 4-shard sharded substrate at each thread count. Thread counts
/// must not change results, so the report asserts step counts, elapsed
/// cycles, and delivery totals identical across the sweep — every
/// benchmark run is also a determinism soak.
fn parallel_report(res: &mut BenchResults, quick: bool, threads: &[usize]) {
    let node_counts: &[usize] = if quick { &[1024] } else { &[4096, 8192, 16384] };
    println!(
        "\n{:<26} {:>10} {:>10} {:>8} {:>10}",
        "parallel cell", "evt steps", "pkt/s", "vs flat", "substrate"
    );
    for &nodes in node_counts {
        let plan = plan_for(Pattern::RandomPermutation(SEED), nodes);
        let cell = |tail: &str| format!("parallel/perm/n{nodes}/{tail}");

        let flat = drive(SchedMode::EventDriven, &plan, nodes, false);
        let flat_prof = drive(SchedMode::EventDriven, &plan, nodes, true);
        assert_eq!(flat.steps, flat_prof.steps, "profiling must not change scheduling");
        let flat_sub = phase_share_milli(&flat_prof.phases, "substrate_step");
        println!(
            "{:<26} {:>10} {:>10} {:>7}x {:>8}.{:01}%",
            format!("perm/n{nodes}/flat"),
            flat.steps,
            pkts_per_sec(&flat),
            "1.0",
            flat_sub / 10,
            flat_sub % 10,
        );
        res.record_count(&cell("flat/event_steps"), flat.steps);
        res.record_wall(&cell("flat/event_wall"), flat.wall_ns);
        res.record_count(&cell("flat/event_packets_per_sec"), pkts_per_sec(&flat));
        res.record_count(&cell("flat/substrate_step_share_milli"), flat_sub);
        res.record_cycles(&cell("flat/elapsed_cycles"), flat.elapsed_cycles);

        let mut pinned: Option<(u64, u64, u64)> = None;
        for &t in threads {
            let sharded = |profile| {
                drive_net(
                    share(scenarios::cm5_sharded(nodes, PARALLEL_SHARDS, t, SEED)),
                    SchedMode::EventDriven,
                    &plan,
                    nodes,
                    profile,
                )
            };
            let run = sharded(false);
            let prof = sharded(true);
            assert_eq!(run.steps, prof.steps, "profiling must not change scheduling");
            let signature = (run.steps, run.elapsed_cycles, run.delivered);
            match pinned {
                None => pinned = Some(signature),
                Some(expect) => assert_eq!(
                    signature, expect,
                    "thread count changed results at {nodes} nodes, {t} threads"
                ),
            }
            let sub = phase_share_milli(&prof.phases, "substrate_step");
            let speedup_milli =
                (flat.wall_ns * 1000).checked_div(run.wall_ns).unwrap_or(0) as u64;
            println!(
                "{:<26} {:>10} {:>10} {:>6}.{:01}x {:>8}.{:01}%",
                format!("perm/n{nodes}/s{PARALLEL_SHARDS}t{t}"),
                run.steps,
                pkts_per_sec(&run),
                speedup_milli / 1000,
                (speedup_milli % 1000) / 100,
                sub / 10,
                sub % 10,
            );
            res.record_count(&cell(&format!("t{t}/event_steps")), run.steps);
            res.record_wall(&cell(&format!("t{t}/event_wall")), run.wall_ns);
            res.record_count(&cell(&format!("t{t}/event_packets_per_sec")), pkts_per_sec(&run));
            res.record_count(&cell(&format!("t{t}/substrate_step_share_milli")), sub);
            res.record_count(&cell(&format!("t{t}/speedup_vs_flat_milli")), speedup_milli);
            res.record_cycles(&cell(&format!("t{t}/elapsed_cycles")), run.elapsed_cycles);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--perf-smoke") {
        std::process::exit(perf_smoke());
    }
    let quick = args.iter().any(|a| a == "--quick");
    let threads_flag: Option<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a positive integer"));
    let thread_sweep: Vec<usize> = match threads_flag {
        Some(1) | None => vec![1, 2, 4],
        Some(n) => vec![1, n],
    };
    let max_nodes = if quick { 1024 } else { 4096 };

    let mut res = BenchResults::new("sched/");
    println!(
        "{:<22} {:>10} {:>12} {:>7} {:>10} {:>10}",
        "cell", "evt steps", "ref steps", "ratio", "evt pkt/s", "ref pkt/s"
    );
    for &nodes in &[256usize, 1024, 4096] {
        if nodes > max_nodes {
            continue;
        }
        for pattern in [Pattern::RandomPermutation(SEED), Pattern::Hotspot] {
            let plan = plan_for(pattern, nodes);
            let evt = drive(SchedMode::EventDriven, &plan, nodes, false);
            let rr = drive(SchedMode::ReferenceRoundRobin, &plan, nodes, false);
            let prof = drive(SchedMode::EventDriven, &plan, nodes, true);
            assert_eq!(evt.steps, prof.steps, "profiling must not change scheduling");
            assert_eq!(
                evt.elapsed_cycles, rr.elapsed_cycles,
                "modes must agree on simulated time ({} nodes, {})",
                nodes,
                pattern.name()
            );
            let cell = format!("{}/n{nodes}", pattern.name());
            let ratio_milli = (rr.steps * 1000).checked_div(evt.steps).unwrap_or(0);
            println!(
                "{:<22} {:>10} {:>12} {:>6}.{:01}x {:>10} {:>10}",
                cell,
                evt.steps,
                rr.steps,
                ratio_milli / 1000,
                (ratio_milli % 1000) / 100,
                pkts_per_sec(&evt),
                pkts_per_sec(&rr),
            );
            res.record_count(&format!("{cell}/event_steps"), evt.steps);
            res.record_count(&format!("{cell}/ref_steps"), rr.steps);
            res.record_count(&format!("{cell}/step_ratio_milli"), ratio_milli);
            res.record_cycles(&format!("{cell}/elapsed_cycles"), evt.elapsed_cycles);
            res.record_wall(&format!("{cell}/event_wall"), evt.wall_ns);
            res.record_wall(&format!("{cell}/ref_wall"), rr.wall_ns);
            res.record_count(&format!("{cell}/event_packets_per_sec"), pkts_per_sec(&evt));
            res.record_count(&format!("{cell}/ref_packets_per_sec"), pkts_per_sec(&rr));
            res.record_count(&format!("{cell}/timer_wakes"), evt.timer_wakes);
            res.record_count(&format!("{cell}/packet_wakes"), evt.packet_wakes);
            res.record_count(&format!("{cell}/idle_jumps"), evt.idle_jumps);
            res.record_count(&format!("{cell}/jumped_cycles"), evt.jumped_cycles);
            let profiled: u64 = prof.phases.iter().map(|&(_, ns)| ns).sum();
            for (name, ns) in &prof.phases {
                let share = (ns * 1000).checked_div(profiled).unwrap_or(0);
                res.record_count(&format!("{cell}/phase/{name}_share_milli"), share);
            }
        }
    }

    parallel_report(&mut res, quick, &thread_sweep);

    let path = BenchResults::default_path();
    match res.write_merged(&path) {
        Ok(n) => println!("\nwrote {n} entries to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
