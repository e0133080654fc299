//! `forkbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! forkbench [run] --workload <storm|faas|snapshot|ringsvc|all> --seed <u64>
//!                 [--seconds <s>] [--trace <0|1>] [--json <records.jsonl>]
//! forkbench compare <base.jsonl> <new.jsonl> [--bounds BENCHMARK.json]
//! ```
//!
//! A run builds the workload's inputs from the seed, measures for about
//! `--seconds`, checks the outputs, prints a table and, as its last line,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs report the end-to-end metrics; `--trace 1`
//! reports the per-layer split. See README.md for the metric definitions.

mod compare;
mod cpu;
mod json;
mod ladder;
mod measure;
mod probe;
mod report;
mod scenario;
mod stats;
mod timed;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use workloads::faas::Faas;
use workloads::ringsvc::RingService;
use workloads::snapshot::Snapshot;
use workloads::storm::Storm;
use workloads::NAMES;

const USAGE: &str = "usage:
  forkbench [run] --workload <storm|faas|snapshot|ringsvc|all> --seed <u64>
                  [--seconds <s>] [--trace <0|1>] [--json <records.jsonl>]
  forkbench compare <base.jsonl> <new.jsonl> [--bounds BENCHMARK.json]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measurement window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => run_cmd(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("forkbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` arguments.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                let v = value("an unsigned integer")?;
                a.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => a.json = Some(value("a file path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {} or all)",
            NAMES.join(", ")
        ));
    }
    Ok(a)
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    if a.workload == "all" {
        return run_all(args);
    }
    let out = match a.workload.as_str() {
        "storm" => measure::measure(&Storm::new(a.seed), a.seconds, a.trace),
        "faas" => measure::measure(&Faas::new(a.seed), a.seconds, a.trace),
        "snapshot" => measure::measure(&Snapshot::new(a.seed), a.seconds, a.trace),
        "ringsvc" => measure::measure(&RingService::new(a.seed), a.seconds, a.trace),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {} or all)",
                NAMES.join(", ")
            ))
        }
    };
    let title = format!(
        "forkbench {} seed {} ({})",
        a.workload,
        a.seed,
        if a.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    print!("{}", out.table(&title));
    let line = out.json();
    if let Some(path) = &a.json {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            a.workload,
            a.seed,
            u8::from(a.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(true)
}

/// Runs every workload in its own process, so each reports its own
/// peak RSS.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in NAMES {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload");
        child_args[at + 1] = name.to_string();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().cloned().ok_or("--bounds needs a path")?;
        } else {
            files.push(a.clone());
        }
    }
    let [base, new] = files.as_slice() else {
        return Err("compare needs two record files: <base> <new>".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let doc = json::Json::parse(&read(&bounds_path)?).map_err(|e| format!("{bounds_path}: {e}"))?;
    let bounds = compare::bounds(&doc)?;
    let (report, ok) = compare::compare(&bounds, &read(base)?, &read(new)?)?;
    print!("{report}");
    Ok(ok)
}
