//! `repro`'s argument handling: a mistyped subcommand must fail loudly,
//! never exit 0 having done nothing (a CI step that regenerates
//! `BENCH_fork.json` would otherwise leave the committed file in place
//! and pass its diff).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
    assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: repro [") && stderr.contains("bench-json"),
        "repro {args:?} did not print the usage: {stderr}"
    );
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    assert_usage_error(&["bench-jsn"]);
}

#[test]
fn unknown_flag_and_second_subcommand_fail() {
    assert_usage_error(&["table1", "--quik"]);
    assert_usage_error(&["table1", "fig8"]);
    assert_usage_error(&["bench-json", "--quick"]);
}

#[test]
fn known_subcommand_succeeds() {
    let out = repro(&["table1"]);
    assert!(out.status.success(), "repro table1 failed");
    assert!(String::from_utf8_lossy(&out.stdout).contains("== Table 1"));
}

/// The `repro scaling` table and the committed `BENCH_fork.json` render
/// the same row type, so the table's header is the family's JSON keys.
#[test]
fn scaling_table_header_is_the_bench_json_keys() {
    let out = repro(&["scaling"]);
    assert!(out.status.success(), "repro scaling failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    lines
        .by_ref()
        .find(|l| l.starts_with("== Fork scaling"))
        .expect("fork_scaling table title");
    let header: Vec<&str> = lines.next().expect("header").split_whitespace().collect();

    let json = include_str!("../../../BENCH_fork.json");
    let row = json
        .lines()
        .skip_while(|l| !l.contains("\"fork_scaling\": ["))
        .nth(1)
        .expect("first fork_scaling row");
    // Split on quotes: a key is the quoted text right before a `:`.
    let parts: Vec<&str> = row.split('"').collect();
    let keys: Vec<&str> = parts
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect();
    assert_eq!(header, keys);
}
