//! Self-tests of the benchmark harness, at `--smoke` sizes.

use std::path::Path;
use std::process::Command;

use timego_benchmark::json::{self, Value};
use timego_benchmark::metrics::{Bound, Workload, END_TO_END, PER_LAYER};
use timego_benchmark::report::contract_metrics;
use timego_benchmark::runner::DEFAULT_SECONDS;
use timego_benchmark::trace::Recorder;
use timego_benchmark::workloads::{run_rep, Mode, Rep, Sizes};

const SEED: u64 = 7;

fn rep(w: Workload, sizes: &Sizes, seed: u64, mode: Mode) -> Rep {
    run_rep(w, sizes, seed, mode, 1, &mut Recorder::new())
}

fn sample(rep: &Rep, name: &str) -> f64 {
    rep.samples
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no sample {name}"))
        .1
}

/// Wrapping the substrate in `TimedNetwork` must not change what the
/// run does: identical steps, simulated cycles and deliveries on a
/// 64-node permutation, and identical signatures on every workload
/// (flat, sharded, chaos and scripted substrates alike).
#[test]
fn decorator_is_transparent() {
    let tiny = Sizes {
        perm_flat_nodes: 64,
        ..Sizes::SMOKE
    };
    let bare = rep(Workload::PermFlat, &tiny, SEED, Mode::Plain);
    let wrapped = rep(Workload::PermFlat, &tiny, SEED, Mode::Traced);
    assert_eq!(
        bare.signature, wrapped.signature,
        "steps / cycles / delivered changed"
    );
    assert_eq!(sample(&bare, "sim_cycles"), sample(&wrapped, "sim_cycles"));
    assert_eq!(bare.attempted, wrapped.attempted);

    for w in Workload::ALL {
        let bare = rep(w, &Sizes::SMOKE, SEED, Mode::Plain);
        let wrapped = rep(w, &Sizes::SMOKE, SEED, Mode::Traced);
        assert_eq!(bare.signature, wrapped.signature, "{}", w.name());
        assert_eq!((bare.failed, wrapped.failed), (0, 0), "{}", w.name());
        assert!(
            bare.problems.is_empty() && wrapped.problems.is_empty(),
            "{}",
            w.name()
        );
    }
}

/// The engine's own profiler must not change scheduling either.
#[test]
fn profiling_is_transparent() {
    for w in [Workload::PermFlat, Workload::PermSharded, Workload::Hotspot] {
        let plain = rep(w, &Sizes::SMOKE, SEED, Mode::Plain);
        let profiled = rep(w, &Sizes::SMOKE, SEED, Mode::Profiled);
        assert_eq!(plain.signature, profiled.signature, "{}", w.name());
        let shares: f64 = profiled
            .samples
            .iter()
            .filter(|(n, _)| n.contains(".phase."))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: phase shares sum to {shares}",
            w.name()
        );
    }
}

/// Per-layer numbers add up: the substrate's timed calls plus the
/// root span's self time are the root span, within 1 %.
#[test]
fn netsim_plus_self_is_the_root_span() {
    for w in Workload::ALL {
        let r = rep(w, &Sizes::SMOKE, SEED, Mode::Traced);
        let (root, own) = match w {
            Workload::PermFlat | Workload::PermSharded | Workload::Hotspot => {
                ("core.engine.run_s", "core.engine.self_s")
            }
            Workload::ServingPolicy | Workload::ServingFailover => {
                ("workloads.service.run_s", "workloads.service.self_s")
            }
            Workload::PaperSweep => ("core.sweep_s", "core.self_s"),
        };
        let netsim: f64 = ["advance_s", "inject_s", "receive_s", "take_delivered_s"]
            .iter()
            .map(|m| sample(&r, &format!("netsim.{m}")))
            .sum();
        let (root, own) = (sample(&r, root), sample(&r, own));
        // The scripted substrate is counted, not timed.
        assert_eq!(netsim > 0.0, w != Workload::PaperSweep, "{}", w.name());
        assert!(own > 0.0 && root > 0.0, "{}", w.name());
        assert!(
            ((netsim + own) / root - 1.0).abs() < 0.01,
            "{}: netsim {netsim} + self {own} != root {root}",
            w.name()
        );
        assert!((sample(&r, "netsim.share") - netsim / root).abs() < 1e-9);
    }
}

/// `--seed` changes plans, payloads and keys — never sizes.
#[test]
fn seed_changes_inputs_not_sizes() {
    for w in [
        Workload::PermFlat,
        Workload::ServingPolicy,
        Workload::PaperSweep,
    ] {
        let a = rep(w, &Sizes::SMOKE, 1, Mode::Plain);
        let b = rep(w, &Sizes::SMOKE, 2, Mode::Plain);
        let again = rep(w, &Sizes::SMOKE, 1, Mode::Plain);
        assert_eq!(
            a.signature,
            again.signature,
            "{}: same seed, same run",
            w.name()
        );
        if w != Workload::PaperSweep {
            // The sweep's instruction counts do not depend on payload
            // contents (that is the paper's point); the others' do.
            assert_ne!(a.signature, b.signature, "{}", w.name());
        }
        // A permutation may fix a node or two (self-pairs are dropped).
        assert!(a.attempted.abs_diff(b.attempted) <= 4, "{}", w.name());
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(
        END_TO_END
            .iter()
            .filter(|d| d.on_every_workload)
            .map(|d| d.name),
    );
    names.extend(PER_LAYER.iter().map(|d| d.name));
    for n in &names {
        assert!(is_name(n), "bad name {n}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for d in END_TO_END {
        assert!(is_name(d.name) && is_unit(d.unit), "{}", d.name);
    }
    for d in PER_LAYER {
        assert!(is_unit(d.unit), "{}", d.name);
    }
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key}"))
}

/// `BENCHMARK.json` and the tables in `metrics.rs` say the same thing.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let b = benchmark_json();
    assert_eq!(
        b.get("paths").unwrap().as_arr().unwrap(),
        [Value::Str("benchmark".into())]
    );
    assert_eq!(
        b.get("run_seconds").unwrap().as_f64(),
        Some(DEFAULT_SECONDS)
    );

    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (have, want) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(field(have, "name"), want.name());
        assert_eq!(field(have, "why"), want.why());
    }

    let end_to_end = b.get("end_to_end").unwrap().as_arr().unwrap();
    let want: Vec<_> = END_TO_END.iter().filter(|d| d.on_every_workload).collect();
    assert_eq!(end_to_end.len(), want.len());
    for (have, want) in end_to_end.iter().zip(want) {
        assert_eq!(field(have, "name"), want.name);
        assert_eq!(field(have, "unit"), want.unit);
        assert_eq!(field(have, "better"), want.better.as_str());
        let Bound::Share(bound) = want.bound else {
            panic!(
                "{}: only share-bounded metrics fit BENCHMARK.json",
                want.name
            )
        };
        assert_eq!(have.get("bound").unwrap().as_f64(), Some(bound));
        assert!(bound <= 0.25);
    }
    assert!(end_to_end.iter().any(|m| field(m, "name") == "setup_s"));

    let per_layer = b.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (have, want) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(field(have, "name"), want.name);
        assert_eq!(field(have, "unit"), want.unit);
        assert_eq!(field(have, "better"), want.better.as_str());
    }
}

fn run_binary(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_timego-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// What the command prints is what `BENCHMARK.json` promises: for
/// every workload and both passes, the last line is one JSON object
/// with exactly the contract's keys and exactly the pass's metrics.
#[test]
fn printed_metrics_equal_the_contract() {
    let out_dir =
        std::env::temp_dir().join(format!("timego-benchmark-selftest-{}", std::process::id()));
    let out_dir = out_dir.to_str().expect("temp dir is UTF-8");
    for w in Workload::ALL {
        for trace in [false, true] {
            let flag = if trace { "1" } else { "0" };
            let (ok, stdout) = run_binary(&[
                "--smoke",
                "--workload",
                w.name(),
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                flag,
                "--out-dir",
                out_dir,
            ]);
            assert!(ok, "{} trace {flag} failed:\n{stdout}", w.name());
            let last = stdout.lines().last().expect("output");
            let v = json::parse(last).unwrap_or_else(|e| panic!("{}: {e}: {last}", w.name()));
            let keys: Vec<&str> = v
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(v.get("failed").unwrap().as_f64(), Some(0.0));
            assert!(v.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let metrics = v.get("metrics").unwrap().as_obj().unwrap();
            let have: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(k, m)| (k.as_str(), field(m, "unit")))
                .collect();
            assert_eq!(have, contract_metrics(trace), "{} trace {flag}", w.name());
            if !trace {
                for (name, m) in metrics {
                    assert!(
                        m.get("value").unwrap().as_f64().unwrap() > 0.0,
                        "{name} is 0"
                    );
                }
            }
            // The human-readable lines carry the same names.
            for (name, _) in contract_metrics(trace).iter().filter(|_| !trace) {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{} {name} ", w.name()))),
                    "{}: no line for {name}",
                    w.name()
                );
            }
        }
        let trace_file = Path::new(out_dir).join(format!("trace-{}.json", w.name()));
        let spans = json::parse(&std::fs::read_to_string(&trace_file).expect("trace file written"))
            .expect("trace file is JSON");
        assert!(!spans.as_arr().unwrap().is_empty());
    }
    let _ = std::fs::remove_dir_all(out_dir);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (ok, stdout) = run_binary(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(!stdout.contains("\"metrics\""));
}
