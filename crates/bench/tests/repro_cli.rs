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
