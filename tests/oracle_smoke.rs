//! Wires the differential oracle into the ordinary test suite: a small
//! seeded run of all three engines (kernel diff, machine diff, fault
//! injection). The full campaign is the `ufork-oracle` binary
//! (`cargo run -p ufork-oracle -- --seed N --cases M`); this smoke keeps
//! `cargo test` honest without slowing it down.
//!
//! Replay/scale via `ORACLE_SEED` / `ORACLE_CASES`.

use ufork_oracle::fault::FaultSummary;
use ufork_oracle::{run_kernel_diff, run_machine_diff, OracleReport};
use ufork_testkit::env_u64;

#[test]
fn differential_oracle_smoke() {
    let seed = env_u64("ORACLE_SEED", 1);
    let cases = env_u64("ORACLE_CASES", 20);
    let mut report = OracleReport::default();
    run_kernel_diff(seed, cases, &mut report);
    run_machine_diff(seed, cases.div_ceil(5), &mut report);
    assert!(
        report.ok(),
        "oracle divergences (replay with ORACLE_SEED={seed}):\n{}",
        report.failures.join("\n")
    );
    assert_eq!(report.kernel_cases, cases);
}

#[test]
fn fault_injection_campaign() {
    let mut report = OracleReport::default();
    ufork_oracle::run_faults(&mut report);
    assert!(
        report.ok(),
        "fault campaign failures:\n{}",
        report.failures.join("\n")
    );
    // Every allocation attempt of the swept operations fails once, so
    // these counts change exactly when an allocation is added to or
    // removed from those paths: a change that means to move one states
    // why.
    assert_eq!(
        report.faults,
        FaultSummary {
            fork_walk_points: 223,
            lazy_copy_points: 2,
            region_exhaustion_forks: 9,
        }
    );
}

#[test]
fn journal_chaos_sweep() {
    let mut report = OracleReport::default();
    ufork_oracle::run_chaos(&mut report);
    assert!(
        report.ok(),
        "chaos sweep failures:\n{}",
        report.failures.join("\n")
    );
    // Every journal op of the swept scenarios is aborted once, so these
    // counts change exactly when some journal op is added or removed:
    // a change that means to move one states why.
    let c = report.chaos;
    assert_eq!(c.points, 2478, "journal-op aborts");
    assert_eq!(c.ring_points, 2488, "aborts with live ring endpoints");
    assert_eq!(
        c.pipeline_points, 657,
        "pipelined background-copy window aborts"
    );
    assert_eq!(c.train_points, 14023, "snapshot-train aborts");
    assert_eq!(c.reclaim_points, 219, "background-reclaim pass aborts");
    assert_eq!(c.oom_points, 657, "OOM victim teardown aborts");
    assert_eq!(c.storm_scenarios, 8, "mid-storm injection scenarios");
}
