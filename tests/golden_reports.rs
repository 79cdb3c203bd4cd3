//! The `timego-bench` binary as a user runs it: `all` prints exactly
//! the committed golden file, every `--csv`/`--quick` form that `all`
//! does not print matches its section of `golden/variants.txt` (debug
//! and release builds print the same bytes, so a PR that changes a cell
//! has to change the golden files too), and a bad command line is
//! refused before anything is simulated.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_timego-bench"))
        .args(args)
        .output()
        .expect("the timego-bench binary runs")
}

/// `timego-bench <args>`'s stdout, which must equal `want` byte for
/// byte; a mismatch names `what` and the first differing line.
fn assert_prints(args: &[&str], want: &str, what: &str) {
    let out = bench(args);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("reports are UTF-8");
    if let Some((i, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("{what}: line {} differs\n  golden: {w}\n  got:    {g}", i + 1);
    }
    // Equal line for line up to the shorter one; what is left is a
    // missing or extra tail (or a line-ending difference).
    let (g, w) = (got.lines().count(), want.lines().count());
    assert_eq!(g, w, "{what}: one output is a prefix of the other");
    assert!(got == want, "{what}: same lines, different bytes (line endings or final newline)");
}

#[test]
fn all_reports_match_the_golden_output() {
    assert_prints(&["all"], include_str!("golden/all_reports.txt"), "tests/golden/all_reports.txt");
}

/// The suite forms `all` does not print, each pinned by one
/// `== timego-bench <args> ==` section of `golden/variants.txt`.
const VARIANTS: [&str; 10] = [
    "table2 --csv",
    "figure8 --csv",
    "concurrency --csv",
    "congestion --quick",
    "congestion --csv",
    "congestion --quick --csv",
    "collectives",
    "collectives --csv",
    "collectives --quick --csv",
    "recovery",
];

#[test]
fn every_csv_and_grid_variant_matches_its_golden_section() {
    let golden = include_str!("golden/variants.txt");
    let mut sections = Vec::new();
    for line in golden.split_inclusive('\n') {
        match line.strip_prefix("== timego-bench ").and_then(|l| l.strip_suffix(" ==\n")) {
            Some(form) => sections.push((form, String::new())),
            None => sections.last_mut().expect("the file opens with a header").1.push_str(line),
        }
    }
    let forms: Vec<&str> = sections.iter().map(|(form, _)| *form).collect();
    assert_eq!(forms, VARIANTS, "tests/golden/variants.txt holds one section per form, in order");
    let mut header_line = 1;
    for (form, want) in &sections {
        let args: Vec<&str> = form.split_whitespace().collect();
        let what = format!("tests/golden/variants.txt, `{form}` (header at line {header_line})");
        assert_prints(&args, want, &what);
        header_line += 1 + want.lines().count();
    }
}

#[test]
fn bad_command_lines_exit_2_and_print_nothing() {
    for args in [
        &[][..],
        &["all_reports"],
        &["congestion", "--quik"],
        &["table1", "--quick"],
        &["sched", "--quick", "--threads"],
        &["sched", "--threads", "0"],
        &["serving", "--threads", "x", "--quick"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout before failing");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.contains("usage: timego-bench <suite>"), "{args:?}: {usage}");
        assert!(usage.contains("--quick --threads --chaos"), "{args:?}: no suite table in {usage}");
    }
}
