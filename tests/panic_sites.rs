//! The panic-site count of the product code, pinned.
//!
//! A site is an `unreachable!(`, `.expect(` or `panic!(` in the library
//! crates that run the protocols (`core`, `netsim`, `workloads`),
//! counted on the lines before each file's top-level
//! `#[cfg(test)] mod tests`, skipping `//`, `///` and `//!` lines (doc
//! examples included) and the test-only scheduler oracle
//! `engine/oracle.rs`. The count is pinned exactly, so a change that
//! adds or removes a site shows it in its diff: lower the pin when a
//! site goes, and justify it in review when one comes.

use std::fs;
use std::path::{Path, PathBuf};

/// The count at the last change that moved it.
const PINNED: usize = 60;

const CRATES: [&str; 3] = ["core", "netsim", "workloads"];
const MARKERS: [&str; 3] = ["unreachable!(", ".expect(", "panic!("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Sites in one file's product part.
fn sites(src: &str) -> usize {
    let mut count = 0;
    let mut prev = "";
    for line in src.lines() {
        if line == "mod tests {" && prev == "#[cfg(test)]" {
            break;
        }
        prev = line;
        if line.trim_start().starts_with("//") {
            continue;
        }
        count += MARKERS.iter().map(|m| line.matches(m).count()).sum::<usize>();
    }
    count
}

#[test]
fn product_panic_sites_match_the_pin() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in CRATES {
        rust_files(&root.join(krate).join("src"), &mut files);
    }
    files.retain(|f| !f.ends_with("engine/oracle.rs"));
    files.sort();
    assert!(files.len() > 40, "found only {} source files under {}", files.len(), root.display());
    let per_file: Vec<(usize, &PathBuf)> = files
        .iter()
        .map(|f| (sites(&fs::read_to_string(f).expect("readable source")), f))
        .filter(|(n, _)| *n > 0)
        .collect();
    let total: usize = per_file.iter().map(|(n, _)| n).sum();
    assert_eq!(total, PINNED, "panic sites per file: {per_file:#?}");
}

#[test]
fn the_rule_skips_comments_and_test_modules() {
    let src = "fn a() { x.expect(\"a\"); panic!(\"b\") }\n\
               /// y.expect(\"doc example\")\n\
               // unreachable!(\"comment\")\n\
               #[cfg(test)]\n\
               mod oracle;\n\
               fn b() { unreachable!(\"after a test submodule\") }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               fn c() { z.expect(\"test\"); }\n\
               }\n";
    assert_eq!(sites(src), 3);
}
