//! Command line of the benchmark; see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use timego_benchmark::metrics::Workload;
use timego_benchmark::runner::{child_main, run_workload, RunArgs, RunResult, DEFAULT_SECONDS};
use timego_benchmark::{compare, report};

const USAGE: &str = "\
usage: timego-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                        [--smoke] [--out-dir DIR] [--out FILE]
       timego-benchmark compare <a.json> <b.json>

Runs every workload (or W): an untraced pass for the end-to-end metrics,
then a traced pass for the per-layer ones (or only the pass --trace names),
checks the outputs, and prints `workload metric value unit` lines. With one
workload and one pass the last line is a JSON object for the acceptance
driver. Exits non-zero if any output check or operation failed.";

#[derive(Debug)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    child_budget: Option<f64>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        child_budget: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--traced" => cli.trace = Some(true),
            "--smoke" => cli.smoke = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--child" => {
                cli.child_budget = Some(value()?.parse().map_err(|e| format!("--child: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    if let Some(budget) = cli.child_budget {
        let w = cli.workload.ok_or("--child needs --workload")?;
        child_main(w, cli.seed, budget, cli.trace == Some(true), cli.smoke)
            .map_err(|e| format!("child: {e}"))?;
        return Ok(true);
    }

    let workloads: Vec<Workload> = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes: Vec<bool> = cli.trace.map_or(vec![false, true], |t| vec![t]);
    let mut runs = Vec::new();
    for &workload in &workloads {
        for &trace in &passes {
            let args = RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
                smoke: cli.smoke,
                out_dir: cli.out_dir.clone(),
            };
            let r = run_workload(&args).map_err(|e| format!("{}: {e}", workload.name()))?;
            report::print_lines(&r);
            runs.push(r);
        }
    }

    // A full run (both passes) leaves a result file for `compare`.
    let out = cli.out.clone().or_else(|| {
        cli.trace
            .is_none()
            .then(|| cli.out_dir.join(format!("results-seed{}.json", cli.seed)))
    });
    if let Some(path) = out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(
            &path,
            report::results_json(cli.seed, cli.seconds, cli.smoke, &runs),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# results written to {}", path.display());
    }
    if let [only] = runs.as_slice() {
        println!("{}", report::driver_json(only));
    }
    Ok(runs.iter().all(RunResult::passed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(a, b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(worse) => {
                eprintln!("{worse} metric(s) worse than the bound allows");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse(&args).and_then(|cli| run(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: output checks or operations failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
