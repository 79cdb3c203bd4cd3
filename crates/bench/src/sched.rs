//! Scheduler scaling report: the engine's readiness-driven scheduler
//! swept across node counts on permutation and hotspot traffic.
//!
//! For every `(pattern, nodes)` cell a plain-transfer plan is driven to
//! completion, printing:
//!
//! * op `step()` invocations, in total and per transfer — sleeping ops
//!   are skipped, so what an op costs stays flat with scale and with
//!   the number of ops sharing its endpoint (the reference round-robin
//!   the scheduler replaced, now a test-only oracle inside `timego-am`,
//!   grew with both; EXPERIMENTS.md's E19 keeps that comparison);
//! * delivered packets per wall-clock second.
//!
//! A second, *parallel* report drives the same permutation plan over
//! the sharded substrate (`ShardedNetwork`, 4 shards) at several thread
//! counts, printing packets/sec, the substrate-step phase share, and
//! the speedup against the flat (unsharded) substrate. Each thread
//! count is asserted to produce the identical step count,
//! simulated-cycle count, and delivery total — the bench doubles as a
//! determinism check. (Phase shares and wake/jump counters of the
//! engine are the frozen `benchmark/` crate's per-layer metrics.)
//!
//! Flags:
//!
//! * `--quick`: cap the sweep at 1024 nodes (CI-friendly);
//! * `--threads N`: sweep the parallel report over thread counts
//!   `{1, N}` instead of the default `{1, 2, 4}`.
//!
//! The deterministic step counts of the 1024-node cells are pinned by
//! this module's tests.

use std::time::Instant;

use timego_am::{Engine, Machine, SchedPhase};
use timego_ni::{share, SharedNetwork};
use timego_workloads::concurrent::{PlannedOp, TrafficKind};
use timego_workloads::{patterns::Pattern, payloads, scenarios};

use crate::Opts;

const SEED: u64 = 42;
const WORDS: usize = 8;

struct RunStats {
    steps: u64,
    elapsed_cycles: u64,
    delivered: u64,
    wall_ns: u128,
    /// Substrate stepping's share of the profiled phases, in thousandths
    /// (0 for an unprofiled run).
    substrate_milli: u64,
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

/// Run `plan` to completion. Self-profiling costs two
/// clock reads per op step, which distorts wall time on hosts where
/// `Instant::now` is a real syscall — so wall/throughput numbers come
/// from an unprofiled run and phase shares from a separate profiled
/// one (step counts are deterministic and identical across both).
fn drive(plan: &[PlannedOp], nodes: usize, profile: bool) -> RunStats {
    drive_net(share(scenarios::cm5_deterministic(nodes, SEED)), plan, nodes, profile)
}

fn drive_net(net: SharedNetwork, plan: &[PlannedOp], nodes: usize, profile: bool) -> RunStats {
    let mut m = Machine::new(net, nodes, timego_am::CmamConfig::default());
    let mut eng = Engine::new();
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

    let steps = eng.counters().steps;
    let substrate_milli = eng.profiler_mut().map_or(0, |p| {
        let phases = SchedPhase::ALL.iter().zip(p.totals());
        let total: u64 = phases.clone().map(|(_, t)| t.total_ns).sum();
        let substrate: u64 = phases
            .filter(|(ph, _)| **ph == SchedPhase::SubstrateStep)
            .map(|(_, t)| t.total_ns)
            .sum();
        (substrate * 1000).checked_div(total).unwrap_or(0)
    });
    let delivered = m.network().borrow().stats().delivered;
    RunStats { steps, elapsed_cycles, delivered, wall_ns, substrate_milli }
}

fn pkts_per_sec(s: &RunStats) -> u64 {
    (s.delivered as u128 * 1_000_000_000)
        .checked_div(s.wall_ns)
        .unwrap_or(0) as u64
}

const PARALLEL_SHARDS: usize = 4;

/// The shard-scaling report: the permutation plan on the flat substrate
/// vs the 4-shard sharded substrate at each thread count. Thread counts
/// must not change results, so the report asserts step counts, elapsed
/// cycles, and delivery totals identical across the sweep — every
/// benchmark run is also a determinism soak.
fn parallel_report(quick: bool, threads: &[usize]) {
    let node_counts: &[usize] = if quick { &[1024] } else { &[4096, 8192, 16384] };
    println!(
        "\n{:<26} {:>10} {:>10} {:>8} {:>10}",
        "parallel cell", "steps", "pkt/s", "vs flat", "substrate"
    );
    for &nodes in node_counts {
        let plan = plan_for(Pattern::RandomPermutation(SEED), nodes);

        let flat = drive(&plan, nodes, false);
        let flat_prof = drive(&plan, nodes, true);
        assert_eq!(flat.steps, flat_prof.steps, "profiling must not change scheduling");
        let flat_sub = flat_prof.substrate_milli;
        println!(
            "{:<26} {:>10} {:>10} {:>7}x {:>8}.{:01}%",
            format!("perm/n{nodes}/flat"),
            flat.steps,
            pkts_per_sec(&flat),
            "1.0",
            flat_sub / 10,
            flat_sub % 10,
        );

        let mut pinned: Option<(u64, u64, u64)> = None;
        for &t in threads {
            let sharded = |profile| {
                let net = share(scenarios::cm5_sharded(nodes, PARALLEL_SHARDS, t, SEED));
                drive_net(net, &plan, nodes, profile)
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
            let sub = prof.substrate_milli;
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
        }
    }
}

/// The `sched` suite (`--quick`, `--threads N`).
pub fn run(opts: &Opts) {
    let thread_sweep: Vec<usize> = match opts.threads {
        Some(1) | None => vec![1, 2, 4],
        Some(n) => vec![1, n],
    };
    let max_nodes = if opts.quick { 1024 } else { 4096 };

    println!("{:<24} {:>10} {:>9} {:>10}", "cell", "steps", "steps/op", "pkt/s");
    for &nodes in &[256usize, 1024, 4096] {
        if nodes > max_nodes {
            continue;
        }
        for pattern in [Pattern::RandomPermutation(SEED), Pattern::Hotspot] {
            let plan = plan_for(pattern, nodes);
            let run = drive(&plan, nodes, false);
            let prof = drive(&plan, nodes, true);
            assert_eq!(run.steps, prof.steps, "profiling must not change scheduling");
            let per_op_milli = (run.steps * 1000).checked_div(plan.len() as u64).unwrap_or(0);
            println!(
                "{:<24} {:>10} {:>7}.{:01} {:>10}",
                format!("{}/n{nodes}", pattern.name()),
                run.steps,
                per_op_milli / 1000,
                (per_op_milli % 1000) / 100,
                pkts_per_sec(&run),
            );
        }
    }

    parallel_report(opts.quick, &thread_sweep);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Committed baseline: deterministic step count for the 1024-node
    /// permutation cell — 13 steps per transfer, and the 1024-node
    /// hotspot plan takes exactly as many: what an op costs does not
    /// depend on how many ops share its endpoint. Update it, from the
    /// count this test prints, only after an *intentional* scheduler
    /// change.
    const BASELINE_1024_PERM_STEPS: u64 = 13_299;

    /// The step-count regression tripwire: neither 1024-node cell may
    /// take more than 1.25x the baseline's steps.
    #[test]
    fn steps_at_1024_nodes_stay_within_a_quarter_of_the_baseline() {
        let bound = BASELINE_1024_PERM_STEPS + BASELINE_1024_PERM_STEPS / 4;
        for pattern in [Pattern::RandomPermutation(SEED), Pattern::Hotspot] {
            let steps = drive(&plan_for(pattern, 1024), 1024, false).steps;
            println!("1024-node {} event steps = {steps}", pattern.name());
            assert!(
                steps <= bound,
                "{} step count regressed more than 1.25x ({steps} > {bound})",
                pattern.name()
            );
        }
    }
}
