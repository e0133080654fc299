//! CLI entry: `cargo run -p ufork-oracle -- --seed N --cases M`.
//!
//! Exit code 0 when every backend agreed on every case and every
//! injected fault unwound cleanly; 1 otherwise (with minimized
//! reproductions printed). `--seed`/`--cases` default to the
//! `ORACLE_SEED`/`ORACLE_CASES` environment variables, then to 1/100.

use std::process::ExitCode;

use ufork_oracle::{run_chaos, run_oracle, OracleReport};
use ufork_testkit::env_u64;

struct Args {
    seed: u64,
    cases: u64,
    skip_faults: bool,
    chaos_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: env_u64("ORACLE_SEED", 1),
        cases: env_u64("ORACLE_CASES", 100),
        skip_faults: false,
        chaos_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--cases" => {
                args.cases = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cases needs an integer")?;
            }
            "--skip-faults" => args.skip_faults = true,
            "--chaos-only" => args.chaos_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: ufork-oracle [--seed N] [--cases M] [--skip-faults] [--chaos-only]\n\
                     \n\
                     Differential fork-semantics oracle: runs M seeded random\n\
                     programs under μFork Full/CoA/CoPA and the multi-AS\n\
                     baseline, compares observable state, replays every\n\
                     mid-fork allocation failure, and aborts every fork\n\
                     journal op. Fully reproducible from the seed (env:\n\
                     ORACLE_SEED, ORACLE_CASES). --chaos-only runs just the\n\
                     journal chaos sweep."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ufork-oracle: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = if args.chaos_only {
        let mut report = OracleReport::default();
        run_chaos(&mut report);
        report
    } else {
        println!(
            "ufork-oracle: seed={} cases={} (replay: cargo run -p ufork-oracle -- --seed {} --cases {})",
            args.seed, args.cases, args.seed, args.cases
        );
        let report = run_oracle(args.seed, args.cases, args.skip_faults);
        println!(
            "kernel diff: {} cases agreed across ufork-full/coa/copa + multias",
            report.kernel_cases
        );
        println!(
            "machine diff: {} fork trees agreed (pipes, fds, exit codes)",
            report.machine_cases
        );
        println!(
            "ring diff: {} multi-tier ring-fabric runs agreed bitwise across all backends",
            report.ring_cases
        );
        if args.skip_faults {
            println!("fault injection: skipped (--skip-faults)");
        } else {
            println!("fault injection: {}", report.faults);
        }
        report
    };
    if args.chaos_only || !args.skip_faults {
        println!("chaos sweep: {}", report.chaos);
    }
    if report.ok() {
        println!("oracle: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("oracle: {} failure(s)", report.failures.len());
        ExitCode::FAILURE
    }
}
