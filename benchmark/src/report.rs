//! Printing: metric lines for people, the one-line JSON object the
//! acceptance driver reads, and the result file `compare` reads.

use std::fmt::Write as _;

use crate::json::{number, quote};
use crate::metrics::{Better, Bound, EndToEnd, PerLayer, END_TO_END, PER_LAYER};
use crate::runner::{Reported, RunResult};

/// What the printers need to know of a metric, whichever pass it
/// belongs to. Per-layer metrics have no bound.
struct Def {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<(Bound, f64)>,
}

/// Every metric a pass reports, in print order.
fn defs(trace: bool) -> Vec<Def> {
    if trace {
        let def = |d: &PerLayer| Def {
            name: d.name,
            unit: d.unit,
            better: d.better,
            bound: None,
        };
        PER_LAYER.iter().map(def).collect()
    } else {
        let def = |d: &EndToEnd| Def {
            name: d.name,
            unit: d.unit,
            better: d.better,
            bound: Some((d.bound, d.floor)),
        };
        END_TO_END.iter().map(def).collect()
    }
}

/// One `workload metric value unit` line per metric the workload
/// defines, with quartiles and sample count after it.
pub fn print_lines(r: &RunResult) {
    let w = r.workload.name();
    for Def { name, unit, .. } in defs(r.trace) {
        if let Some(m) = r.metrics.get(name) {
            let s = m.summary;
            println!(
                "{w} {name} {} {unit}  p25={} p75={} n={}",
                number(m.value),
                number(s.p25),
                number(s.p75),
                s.n
            );
        }
    }
    for p in &r.problems {
        println!("{w} FAILED-CHECK {p}");
    }
}

/// The metric names the driver-facing JSON object carries for a pass:
/// every `BENCHMARK.json` end-to-end metric untraced, every per-layer
/// metric traced.
pub fn contract_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|d| d.on_every_workload)
            .map(|d| (d.name, d.unit))
            .collect()
    }
}

/// The last line of a single-workload, single-pass invocation. A layer
/// the workload does not exercise reports 0.
pub fn driver_json(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted,
        r.failed
    );
    for (i, (name, unit)) in contract_metrics(r.trace).into_iter().enumerate() {
        let value = r.metrics.get(name).map_or(0.0, |m| m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(value),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

fn metric_json(m: &Reported, def: &Def) -> String {
    let (bound, floor) = match def.bound {
        Some((Bound::Share(b), floor)) => (number(b), floor),
        Some((Bound::Exact, floor)) => ("\"exact\"".to_string(), floor),
        None => ("null".to_string(), 0.0),
    };
    format!(
        "{{\"value\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"floor\": {}}}",
        number(m.value),
        number(m.summary.p25),
        number(m.summary.p75),
        m.summary.n,
        quote(def.unit),
        quote(def.better.as_str()),
        bound,
        number(floor)
    )
}

/// The result file of a full run: every workload's two passes.
pub fn results_json(seed: u64, seconds: f64, smoke: bool, runs: &[RunResult]) -> String {
    let mut out = format!(
        "{{\n\"seed\": {seed},\n\"seconds\": {},\n\"smoke\": {smoke},\n\"workloads\": {{",
        number(seconds)
    );
    let mut names: Vec<&str> = runs.iter().map(|r| r.workload.name()).collect();
    names.dedup();
    for (wi, w) in names.iter().enumerate() {
        let _ = write!(out, "{}\n{}: {{", if wi == 0 { "" } else { "," }, quote(w));
        let mut first_pass = true;
        for r in runs.iter().filter(|r| r.workload.name() == *w) {
            let key = if r.trace { "per_layer" } else { "end_to_end" };
            let _ = write!(
                out,
                "{}\n  \"{key}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                if first_pass { "" } else { "," },
                r.correct(),
                r.attempted,
                r.failed
            );
            first_pass = false;
            let mut first = true;
            for def in defs(r.trace) {
                if let Some(m) = r.metrics.get(def.name) {
                    let _ = write!(
                        out,
                        "{}\n    {}: {}",
                        if first { "" } else { "," },
                        quote(def.name),
                        metric_json(m, &def)
                    );
                    first = false;
                }
            }
            out.push_str("\n  }}");
        }
        out.push_str("\n}");
    }
    out.push_str("\n}\n}\n");
    out
}
