//! `compare <a.json> <b.json>`: judge result file `b` against base `a`.
//!
//! Per workload and end-to-end metric it prints both medians, the
//! ratio `b/a` (base `a`), the metric's bound, and a verdict:
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound
//!   (any difference at all, for a deterministic `exact` metric) and by
//!   more than the metric's absolute floor, if it has one;
//! * `unresolved` — not worse, but the quartile distance of either side
//!   is wider than that allowance, so "unchanged" cannot be claimed;
//! * `ok` — otherwise.

use std::fs;

use crate::json::{self, Value};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of one metric, as stored in a result file (`median` holds
/// the reported value).
fn read_side(metric: &Value) -> Option<Summary> {
    Some(Summary {
        median: metric.get("value")?.as_f64()?,
        p25: metric.get("p25")?.as_f64()?,
        p75: metric.get("p75")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

/// The verdict for one metric. `bound` is `None` for an exact metric;
/// `floor` is the absolute change that is never a regression.
pub fn judge(
    a: Summary,
    b: Summary,
    lower_is_better: bool,
    bound: Option<f64>,
    floor: f64,
) -> Verdict {
    let Some(bound) = bound else {
        return if a.median == b.median {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    };
    let worsening = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    let allowed = (bound * a.median.abs()).max(floor);
    if worsening > allowed {
        Verdict::Worse
    } else if (a.p75 - a.p25).max(b.p75 - b.p25) > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn end_to_end<'a>(file: &'a Value, workload: &str) -> Option<&'a [(String, Value)]> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .as_obj()
}

/// Print the comparison; returns how many metrics were `worse`.
///
/// # Errors
///
/// A file that cannot be read or is not a result file.
pub fn run(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{path_a}: no \"workloads\" object"))?;
    println!("# base a = {path_a}");
    println!("#      b = {path_b}");
    println!(
        "{:<17} {:<23} {:>14} {:>14} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound", "spread"
    );
    let mut worse = 0;
    for (workload, _) in workloads {
        let metrics_a = end_to_end(&a, workload).unwrap_or(&[]);
        let Some(metrics_b) = end_to_end(&b, workload) else {
            println!("{workload:<17} missing from b");
            worse += 1;
            continue;
        };
        for (name, ma) in metrics_a {
            let mb = metrics_b.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let (Some(sa), Some(sb)) = (read_side(ma), mb.and_then(read_side)) else {
                println!("{workload:<17} {name:<23} missing from b");
                worse += 1;
                continue;
            };
            let bound = ma.get("bound").and_then(Value::as_f64);
            let lower = ma.get("better").and_then(Value::as_str) != Some("higher");
            let floor = ma.get("floor").and_then(Value::as_f64).unwrap_or(0.0);
            let verdict = judge(sa, sb, lower, bound, floor);
            worse += usize::from(verdict == Verdict::Worse);
            let ratio = if sa.median == 0.0 {
                1.0
            } else {
                sb.median / sa.median
            };
            println!(
                "{:<17} {:<23} {:>14.6} {:>14.6} {:>8.4} {:>6} {:>7.4}  {}",
                workload,
                name,
                sa.median,
                sb.median,
                ratio,
                bound.map_or("exact".to_string(), |b| format!("{b}")),
                sa.spread().max(sb.spread()),
                verdict.as_str()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, p25: f64, p75: f64) -> Summary {
        Summary {
            median,
            p25,
            p75,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = |v: f64| side(v, v * 0.99, v * 1.01);
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(
            judge(tight(1.0), tight(1.05), true, Some(0.1), 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(tight(1.0), tight(1.2), true, Some(0.1), 0.0),
            Verdict::Worse
        );
        // An improvement is never worse.
        assert_eq!(
            judge(tight(1.0), tight(0.5), true, Some(0.1), 0.0),
            Verdict::Ok
        );
        // Higher is better: a 20 % drop is a regression.
        assert_eq!(
            judge(tight(100.0), tight(80.0), false, Some(0.1), 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(100.0), tight(120.0), false, Some(0.1), 0.0),
            Verdict::Ok
        );
        // Spread wider than the bound: cannot call it unchanged.
        assert_eq!(
            judge(side(1.0, 0.8, 1.2), tight(1.0), true, Some(0.1), 0.0),
            Verdict::Unresolved
        );
        // Below the absolute floor nothing is a regression, and a wide
        // relative spread of a tiny number does not matter either.
        let tiny = side(55e-6, 50e-6, 70e-6);
        assert_eq!(
            judge(tiny, side(81e-6, 75e-6, 95e-6), true, Some(0.25), 0.002),
            Verdict::Ok
        );
        assert_eq!(
            judge(tiny, side(81e-6, 75e-6, 95e-6), true, Some(0.25), 0.0),
            Verdict::Worse
        );
        // Exact metrics tolerate nothing.
        assert_eq!(
            judge(tight(12_160.0), tight(12_160.0), true, None, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(tight(12_160.0), tight(12_161.0), true, None, 0.0),
            Verdict::Worse
        );
    }
}
