//! `timego-bench <suite> [flags]` — every table, figure and sweep of the
//! reproduction behind one binary. [`SUITES`] is the whole interface:
//! a suite's row names the flags it takes, and the same row is its line
//! of the usage text, so what a bad command line prints is what the
//! parser accepts.

#![forbid(unsafe_code)]

mod reports;
mod sched;
mod serving;

use timego_workloads::sweeps;

/// The four flags, parsed once. Which of them a suite takes is its
/// [`SUITES`] row's business; a suite never sees one it did not list.
#[derive(Default)]
struct Opts {
    quick: bool,
    csv: bool,
    chaos: bool,
    threads: Option<usize>,
}

/// `(name, flags it takes, what it prints, entry point)`.
type Suite = (&'static str, &'static str, &'static str, fn(&Opts));

#[rustfmt::skip] // one suite per row: the table is read as a table
const SUITES: &[Suite] = &[
    ("all", "",
     "every report below down to `substrate_demo`, as tests/golden/all_reports.txt pins them", all),
    ("table1", "", "Table 1: single-packet delivery costs",
     |_| print!("{}", reports::table1())),
    ("table2", "--csv", "Table 2: multi-packet delivery costs by feature, 16 and 1024 words",
     |o| print!("{}", if o.csv { reports::table2_csv() } else { reports::table2() })),
    ("table3", "", "Table 3 / Appendix A: reg/mem/dev subcategory breakdowns",
     |_| print!("{}", reports::table3())),
    ("figure6", "", "Figure 6: CMAM vs high-level-network messaging costs",
     |_| print!("{}", reports::figure6())),
    ("figure8", "--csv", "Figure 8: generalized cost formulas, overhead vs packet size",
     |o| print!("{}", if o.csv { reports::figure8_csv() } else { reports::figure8() })),
    ("group_acks", "", "§3.2 group-acknowledgement ablation",
     |_| print!("{}", reports::group_acks())),
    ("cycle_model", "", "Appendix-A weighted cycle models over the measured costs",
     |_| print!("{}", reports::cycle_model())),
    ("interrupts", "", "footnote 2: polling vs interrupt receive discipline",
     |_| print!("{}", reports::interrupts())),
    ("ni_improvements", "", "§5: improved NIs / DMA inflate the relative protocol overhead",
     |_| print!("{}", reports::ni_improvements())),
    ("segment_reuse", "", "amortizing the preallocation handshake across a batch",
     |_| print!("{}", reports::segment_reuse())),
    ("latency", "", "§5: instruction counts as a latency predictor",
     |_| print!("{}", reports::latency())),
    ("tension", "", "§5: adaptive-routing gain vs the software cost of reordering",
     |_| print!("{}", reports::tension())),
    ("concurrency", "--csv", "engine concurrency: throughput and per-feature cost vs overlap",
     |o| print!("{}", if o.csv { reports::concurrency_csv() } else { reports::concurrency() })),
    ("congestion", "--quick --csv",
     "offered-load sweep: saturation knee and tail latency per pattern x substrate", congestion),
    ("collectives", "--quick --csv",
     "engine-native run-after DAGs vs phase-serial collectives, 16-256 nodes", collectives),
    ("recovery", "--quick",
     "exactly-once delivery across crash-restart windows, per protocol family", recovery),
    ("substrate_demo", "", "§2.2's network features made observable: reordering, drops, CR, stall",
     |_| print!("{}", reports::substrate_demo())),
    ("sched", "--quick --threads",
     "scheduler steps per op and packets/s, 256-4096 nodes, and the sharded substrate", sched::run),
    ("serving", "--quick --threads --chaos",
     "RPC service plane: balancer policies, overload knee, failover and admission", serving::run),
];

/// The table is in golden-file order: `all` is every row after its own
/// down to `substrate_demo`, i.e. all but the two wall-clock sweeps.
fn all(_: &Opts) {
    for (name, _, _, run) in SUITES.iter().skip(1).take_while(|s| s.0 != "sched") {
        // Reduced grids for these two: `all` also runs under debug
        // builds (tier-1's golden test), where the 256-node collective
        // and the long crash windows are needlessly slow.
        let quick = matches!(*name, "collectives" | "recovery");
        run(&Opts { quick, ..Opts::default() });
        println!();
    }
}

fn congestion(o: &Opts) {
    let intervals: &[u64] =
        if o.quick { &sweeps::CONGESTION_QUICK_INTERVALS } else { &sweeps::CONGESTION_INTERVALS };
    let rows = reports::congestion_rows(intervals);
    let render = if o.csv { reports::congestion_csv } else { reports::congestion_report };
    print!("{}", render(&rows));
}

fn collectives(o: &Opts) {
    let node_counts: &[usize] =
        if o.quick { &sweeps::COLLECTIVE_NODES_QUICK } else { &sweeps::COLLECTIVE_NODES };
    let rows = reports::collectives_rows(node_counts);
    let render = if o.csv { reports::collectives_csv } else { reports::collectives_report };
    print!("{}", render(&rows));
}

fn recovery(o: &Opts) {
    let (windows, seeds): (&[u64], u64) = if o.quick {
        (&sweeps::RECOVERY_CRASH_WINDOWS_QUICK, sweeps::RECOVERY_SEEDS_QUICK)
    } else {
        (&sweeps::RECOVERY_CRASH_WINDOWS, sweeps::RECOVERY_SEEDS)
    };
    print!("{}", reports::recovery_report(&reports::recovery_rows(windows, seeds)));
}

/// The one parser: a suite name, then only flags that suite's row
/// lists. Anything else is an error before any simulation starts.
fn parse(args: &[String]) -> Result<(&'static Suite, Opts), String> {
    let name = args.first().ok_or("no suite named")?;
    let suite =
        SUITES.iter().find(|s| s.0 == name).ok_or_else(|| format!("unknown suite `{name}`"))?;
    let mut opts = Opts::default();
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let listed = suite.1.split_whitespace().any(|f| f == flag);
        match flag.as_str() {
            "--quick" if listed => opts.quick = true,
            "--csv" if listed => opts.csv = true,
            "--chaos" if listed => opts.chaos = true,
            "--threads" if listed => match rest.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => opts.threads = Some(n),
                _ => return Err("`--threads` takes a positive integer".to_string()),
            },
            _ => return Err(format!("`{name}` does not take `{flag}`")),
        }
    }
    Ok((suite, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((suite, opts)) => (suite.3)(&opts),
        Err(why) => {
            eprintln!("timego-bench: {why}\n");
            eprintln!("usage: timego-bench <suite> [flags]   (--threads takes a positive integer)");
            eprintln!();
            for (name, flags, about, _) in SUITES {
                eprintln!("  {name:<16} {flags:<31} {about}");
            }
            std::process::exit(2);
        }
    }
}
