//! The `timego-bench` binary as a user runs it: `all` prints exactly
//! the committed golden file (debug and release builds print the same
//! bytes, so a PR that changes a cell has to change the golden file
//! too), and a bad command line is refused before anything is
//! simulated.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_timego-bench"))
        .args(args)
        .output()
        .expect("the timego-bench binary runs")
}

#[test]
fn all_reports_match_the_golden_output() {
    let out = bench(&["all"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("reports are UTF-8");
    let want = include_str!("golden/all_reports.txt");
    if let Some((i, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("line {} differs from tests/golden/all_reports.txt\n  golden: {w}\n  got:    {g}", i + 1);
    }
    // Equal line for line up to the shorter one; what is left is a
    // missing or extra tail (or a line-ending difference).
    assert_eq!(got.lines().count(), want.lines().count(), "one output is a prefix of the other");
    assert!(got == want, "same lines, different bytes (line endings or final newline)");
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
