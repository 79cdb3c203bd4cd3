//! The run protocol: fresh child processes, pooled samples, medians.
//!
//! One *run* of a workload is `ROUNDS` child processes (the harness
//! re-executing itself), one after the other. Each child does one
//! untimed warm-up repetition, then timed repetitions — each on a
//! freshly built machine — until its share of `--seconds` is used up,
//! and prints its samples as lines on stdout. The parent pools the
//! samples of all rounds and reports medians. Pooling over fresh
//! processes is what makes two runs of one commit agree: one process's
//! heap layout can shift a short workload's time by a fifth.
//!
//! The traced pass alternates plain and traced repetitions inside the
//! same children, so its `bench.trace_overhead_share` compares like
//! with like, then adds one profiled repetition (engine workloads),
//! one half-size repetition (serving workloads) and the micro-probes.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, summarize, Summary};
use crate::trace::{self, Recorder, Span};
use crate::workloads::{run_rep, Mode, Rep, Sizes};

/// Seconds one pass of one workload measures for unless `--seconds`
/// says otherwise: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Fresh child processes per run.
pub const ROUNDS: usize = 3;

/// Back-to-back set-up-only repetitions per child; `setup_s` is the
/// median over all of them.
const SETUP_SAMPLES: u32 = 25;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// One reported metric: the value (a median of pooled samples unless
/// the metric's definition says otherwise) and the spread behind it.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub value: f64,
    pub summary: Summary,
}

impl Reported {
    fn single(value: f64) -> Self {
        Reported {
            value,
            summary: Summary {
                median: value,
                p25: value,
                p75: value,
                n: 1,
            },
        }
    }

    fn median_of(samples: &[f64]) -> Self {
        let summary = summarize(samples);
        Reported {
            value: summary.median,
            summary,
        }
    }
}

/// The outcome of one run of one workload in one pass.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty means the outputs are correct.
    pub problems: Vec<String>,
    /// Metric name → value, for the metrics this workload defines.
    pub metrics: BTreeMap<&'static str, Reported>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// A run passes when every output check held and no offered
    /// operation failed.
    pub fn passed(&self) -> bool {
        self.correct() && self.failed == 0
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_rep(out: &mut impl io::Write, traced: bool, rep: &Rep) -> io::Result<()> {
    for (name, value) in &rep.samples {
        writeln!(out, "s {name} {value}")?;
    }
    for p in &rep.problems {
        writeln!(out, "bad {p}")?;
    }
    writeln!(
        out,
        "done {} {} {} {}",
        u8::from(traced),
        rep.attempted,
        rep.failed,
        rep.signature
    )
}

/// The body of one child process. Prints the line protocol the parent
/// parses; see [`Pool::absorb`].
///
/// # Errors
///
/// Only a failure to write to stdout.
pub fn child_main(
    w: Workload,
    seed: u64,
    budget_s: f64,
    trace: bool,
    smoke: bool,
) -> io::Result<()> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(budget_s);
    let sizes = if smoke { Sizes::SMOKE } else { Sizes::FULL };
    let mut rec = Recorder::new();
    let stdout = io::stdout();
    let mut out = stdout.lock();

    // Warm-up: caches, allocator arenas and lazy set-up settle before
    // anything is timed. A tenth of the requests does that for the
    // serving workloads.
    run_rep(w, &sizes, seed, Mode::Plain, 10, &mut Recorder::new());

    let mut signature = None;
    let mut rep_index = 0u32;
    loop {
        let modes: &[Mode] = if trace {
            &[Mode::Plain, Mode::Traced]
        } else {
            &[Mode::Plain]
        };
        let iteration = Instant::now();
        for &mode in modes {
            rec.set_rep(rep_index);
            writeln!(out, "rep")?;
            let rep = run_rep(w, &sizes, seed, mode, 1, &mut rec);
            signature = Some(rep.signature);
            print_rep(&mut out, mode == Mode::Traced, &rep)?;
        }
        rep_index += 1;
        // Stop when another iteration would overshoot the budget by
        // more than it undershoots now.
        if started.elapsed() + iteration.elapsed() / 2 >= budget {
            break;
        }
    }
    for _ in 0..SETUP_SAMPLES {
        let rep = run_rep(w, &sizes, seed, Mode::SetupOnly, 1, &mut Recorder::new());
        for (name, value) in &rep.samples {
            writeln!(out, "once {name} {value}")?;
        }
    }

    if trace {
        let engine = matches!(
            w,
            Workload::PermFlat | Workload::PermSharded | Workload::Hotspot
        );
        let serving = matches!(w, Workload::ServingPolicy | Workload::ServingFailover);
        if engine {
            // Phase shares come from a separate profiled repetition:
            // the profiler's clock reads would distort the wall time of
            // the others. It must schedule exactly as they did.
            let rep = run_rep(w, &sizes, seed, Mode::Profiled, 1, &mut Recorder::new());
            if Some(rep.signature) != signature {
                writeln!(out, "bad profiling changed the run's signature")?;
            }
            for (name, value) in rep.samples.iter().filter(|(n, _)| n.contains(".phase.")) {
                writeln!(out, "once {name} {value}")?;
            }
        }
        if serving {
            let rep = run_rep(w, &sizes, seed, Mode::Plain, 2, &mut Recorder::new());
            let wall = rep
                .samples
                .iter()
                .find(|(n, _)| *n == "wall_s")
                .map_or(0.0, |s| s.1);
            writeln!(out, "once half_wall_s {wall}")?;
        }
        writeln!(out, "once cost.record_ns {}", probes::cost_record_ns())?;
        writeln!(out, "once ni.send_recv_ns {}", probes::ni_send_recv_ns())?;
        writeln!(
            out,
            "once workloads.balancer.pick_ns {}",
            probes::balancer_pick_ns(seed)
        )?;
        for span in rec.spans() {
            writeln!(out, "{}", span.to_line())?;
        }
    }
    if let Some(mb) = peak_rss_mb() {
        writeln!(out, "once peak_rss_mb {mb}")?;
    }
    out.flush()
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

type Samples = BTreeMap<String, Vec<f64>>;

/// Everything the children of one run reported.
#[derive(Debug, Default)]
struct Pool {
    plain: Samples,
    traced: Samples,
    once: Samples,
    signatures: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    spans: Vec<Vec<Span>>,
}

impl Pool {
    /// Parse one child's stdout. A repetition that was begun (`rep`)
    /// but never finished (`done`) — the child crashed inside it —
    /// counts every one of its operations as failed.
    fn absorb(&mut self, stdout: &str, exited_ok: bool) {
        let mut pending: Vec<(String, f64)> = Vec::new();
        let mut in_rep = false;
        let mut last_attempted = 1;
        let mut spans = Vec::new();
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["rep"] => {
                    in_rep = true;
                    pending.clear();
                }
                ["s", name, value] => {
                    if let Ok(v) = value.parse() {
                        pending.push(((*name).to_string(), v));
                    }
                }
                ["done", traced, attempted, failed, signature] => {
                    let into = if *traced == "1" {
                        &mut self.traced
                    } else {
                        &mut self.plain
                    };
                    for (name, v) in pending.drain(..) {
                        into.entry(name).or_default().push(v);
                    }
                    last_attempted = attempted.parse().unwrap_or(1);
                    self.attempted += last_attempted;
                    self.failed += failed.parse().unwrap_or(last_attempted);
                    self.signatures.extend(signature.parse::<u64>());
                    in_rep = false;
                }
                ["once", name, value] => {
                    if let Ok(v) = value.parse() {
                        self.once.entry((*name).to_string()).or_default().push(v);
                    }
                }
                ["bad", ..] => self.problems.push(line["bad ".len()..].to_string()),
                ["span", rest @ ..] => spans.extend(Span::from_fields(rest)),
                _ => {}
            }
        }
        if in_rep {
            self.attempted += last_attempted;
            self.failed += last_attempted;
        }
        if !exited_ok {
            self.problems.push("a child process failed".to_string());
        }
        self.spans.push(spans);
    }
}

fn spawn_child(args: &RunArgs, budget_s: f64) -> io::Result<(String, bool)> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--child")
        .arg(budget_s.to_string())
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end, so no process outlives the
    // run.
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    Ok((
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    ))
}

/// Run `args.workload` once: `ROUNDS` fresh children, samples pooled.
///
/// # Errors
///
/// A child that cannot be spawned, or a trace file that cannot be
/// written.
pub fn run_workload(args: &RunArgs) -> io::Result<RunResult> {
    let mut pool = Pool::default();
    for _ in 0..ROUNDS {
        let (stdout, ok) = spawn_child(args, args.seconds / ROUNDS as f64)?;
        pool.absorb(&stdout, ok);
    }
    if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}.json", args.workload.name()));
        trace::write_json(&path, args.workload.name(), &pool.spans)?;
    }
    Ok(finish(args.workload, args.trace, pool))
}

fn finish(workload: Workload, trace: bool, mut pool: Pool) -> RunResult {
    if pool.signatures.is_empty() {
        pool.problems.push("no repetition finished".to_string());
    }
    if pool.signatures.windows(2).any(|w| w[0] != w[1]) {
        pool.problems
            .push("deterministic signature differs between repetitions".to_string());
    }

    let mut metrics = BTreeMap::new();
    let median_of = |samples: &Samples, name: &str| samples.get(name).map(|v| median(v));
    if trace {
        for def in PER_LAYER {
            let samples = pool
                .traced
                .get(def.name)
                .or_else(|| pool.once.get(def.name));
            if let Some(v) = samples {
                metrics.insert(def.name, Reported::median_of(v));
            }
        }
        let plain_wall = median_of(&pool.plain, "wall_s");
        if let (Some(traced), Some(plain)) = (median_of(&pool.traced, "wall_s"), plain_wall) {
            metrics.insert(
                "bench.trace_overhead_share",
                Reported::single(traced / plain - 1.0),
            );
        }
        if let (Some(half), Some(full)) = (median_of(&pool.once, "half_wall_s"), plain_wall) {
            metrics.insert(
                "workloads.service.scaling_exponent",
                Reported::single((full / half).log2()),
            );
        }
        let span_count: usize = pool.spans.iter().map(Vec::len).sum();
        metrics.insert("bench.span_count", Reported::single(span_count as f64));
    } else {
        for def in END_TO_END {
            if let Some(v) = pool.plain.get(def.name).or_else(|| pool.once.get(def.name)) {
                metrics.insert(def.name, Reported::median_of(v));
            }
        }
        if let (Some(m), Some(v)) = (metrics.get_mut("peak_rss_mb"), pool.once.get("peak_rss_mb")) {
            // The highest high-water mark over the child processes.
            m.value = v.iter().copied().fold(f64::MIN, f64::max);
        }
        let share = pool.failed as f64 / pool.attempted.max(1) as f64;
        metrics.insert("failed_ops_share", Reported::single(share));
    }

    RunResult {
        workload,
        trace,
        attempted: pool.attempted.max(1),
        failed: pool.failed,
        problems: pool.problems,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHILD: &str = "\
rep
s wall_s 2.0
done 0 100 0 77
rep
s wall_s 3.0
s netsim.advance_s 1.0
done 1 100 0 77
once half_wall_s 0.5
once peak_rss_mb 10.5
span core.engine.run 10 20 10 1 -1 0
";

    #[test]
    fn pool_separates_plain_traced_and_once_samples() {
        let mut pool = Pool::default();
        pool.absorb(CHILD, true);
        assert_eq!(pool.plain["wall_s"], vec![2.0]);
        assert_eq!(pool.traced["wall_s"], vec![3.0]);
        assert_eq!(pool.once["peak_rss_mb"], vec![10.5]);
        assert_eq!((pool.attempted, pool.failed), (200, 0));
        assert_eq!(pool.spans[0].len(), 1);
        let r = finish(Workload::ServingPolicy, true, pool);
        assert!(r.correct());
        assert_eq!(r.metrics["bench.trace_overhead_share"].value, 0.5);
        assert_eq!(r.metrics["workloads.service.scaling_exponent"].value, 2.0);
        assert_eq!(r.metrics["netsim.advance_s"].value, 1.0);
    }

    #[test]
    fn a_crashed_repetition_fails_all_its_operations() {
        let mut pool = Pool::default();
        pool.absorb(
            "rep\ns wall_s 1.0\ndone 0 50 0 9\nrep\ns wall_s 1.0\n",
            false,
        );
        assert_eq!((pool.attempted, pool.failed), (100, 50));
        let r = finish(Workload::PermFlat, false, pool);
        assert!(!r.correct());
        assert_eq!(r.metrics["failed_ops_share"].value, 0.5);
    }

    #[test]
    fn differing_signatures_are_a_problem() {
        let mut pool = Pool::default();
        pool.absorb("rep\ndone 0 5 0 1\nrep\ndone 0 5 0 2\n", true);
        assert!(!finish(Workload::Hotspot, false, pool).correct());
    }

    #[test]
    fn peak_rss_is_the_maximum_over_children() {
        let mut pool = Pool::default();
        pool.absorb("rep\ndone 0 5 0 1\nonce peak_rss_mb 10\n", true);
        pool.absorb("rep\ndone 0 5 0 1\nonce peak_rss_mb 30\n", true);
        pool.absorb("rep\ndone 0 5 0 1\nonce peak_rss_mb 20\n", true);
        assert_eq!(
            finish(Workload::Hotspot, false, pool).metrics["peak_rss_mb"].value,
            30.0
        );
    }
}
