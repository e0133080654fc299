//! The fork-storm benchmark: 10k concurrent μprocesses through the
//! event-driven scheduler, across the paper's copy strategies.
//!
//! Unlike the Figure 6 FaaS experiment (steady-state, bounded
//! outstanding workers), the storm measures the machine itself under
//! maximum process-table pressure: every child is alive when the last
//! one is born. Reported metrics are *simulated* time — fork p50/p99
//! latency and forks per simulated second — so every row is exactly
//! reproducible and `BENCH_fork.json` pins them bit for bit.

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, ImageSpec};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_workloads::storm::{percentile, summarize, StormConfig, StormReport, StormZygote};

use crate::report::{repeatable, Cell, Row};

/// One storm configuration (mode) of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct StormMode {
    /// Row label in BENCH_fork.json.
    pub label: &'static str,
    /// Copy strategy under test.
    pub strategy: CopyStrategy,
    /// Copy/zeroing walk mode.
    pub walk: WalkMode,
}

/// The swept modes: eager copy serial, 8-worker parallel and pipelined
/// (commit early, copy behind the child), then the two lazy strategies.
pub fn storm_modes() -> Vec<StormMode> {
    [
        ("full_serial", CopyStrategy::Full, WalkMode::Serial),
        ("full_par8", CopyStrategy::Full, WalkMode::Parallel(8)),
        ("full_pipelined", CopyStrategy::Full, WalkMode::Pipelined),
        ("coa", CopyStrategy::CoA, WalkMode::Serial),
        ("copa", CopyStrategy::CoPA, WalkMode::Serial),
    ]
    .into_iter()
    .map(|(label, strategy, walk)| StormMode {
        label,
        strategy,
        walk,
    })
    .collect()
}

/// The storm's function image. Deliberately tiny (a few pages): the
/// storm exists to stress *process count*, not per-process footprint —
/// 10k full-copy children of this image fit comfortably in a 1 GiB
/// simulated machine.
pub fn storm_image() -> ImageSpec {
    ImageSpec {
        name: "storm-fn".into(),
        text_bytes: 8 * 1024,
        data_bytes: 4 * 1024,
        heap_bytes: 16 * 1024,
        stack_bytes: 8 * 1024,
        got_slots: 16,
    }
}

/// One `fork_storm` row: a storm mode and what its run measured.
#[derive(Clone, Copy, Debug)]
pub struct StormRow {
    /// The mode stormed.
    pub mode: StormMode,
    /// The storm's fork latencies, throughput and event-log digest.
    pub report: StormReport,
    /// Background-copy windows opened *and* closed while the child
    /// lived, from the machine's [`ufork_exec::PipelineEvent`] log (0 for
    /// every non-pipelined mode).
    pub copy_windows: u64,
    /// Median time from fork commit to copy complete (ns, simulated).
    pub p50_copy_done_ns: f64,
    /// 99th-percentile time from fork commit to copy complete (ns).
    pub p99_copy_done_ns: f64,
}

impl Row for StormRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        let r = &self.report;
        vec![
            ("mode", Cell::Str(self.mode.label.into())),
            ("children", Cell::Int(r.children.into())),
            ("completed", Cell::Int(r.completed.into())),
            ("peak_live", Cell::Int(r.peak_live.into())),
            ("retries", Cell::Int(r.retries.into())),
            ("sim_p50_ns", Cell::Ns(r.p50_fork_ns)),
            ("sim_p99_ns", Cell::Ns(r.p99_fork_ns)),
            ("sim_mean_ns", Cell::Ns(r.mean_fork_ns)),
            ("sim_ns_per_fork", Cell::Ns(r.sim_ns_per_fork)),
            ("forks_per_sim_sec", Cell::Rate(r.forks_per_sim_sec)),
            ("sim_final_ns", Cell::Ns(r.final_ns)),
            ("copy_windows", Cell::Int(self.copy_windows)),
            ("sim_copy_done_p50_ns", Cell::Ns(self.p50_copy_done_ns)),
            ("sim_copy_done_p99_ns", Cell::Ns(self.p99_copy_done_ns)),
            ("digest", Cell::Hex(r.digest)),
        ]
    }
}

/// Runs one storm to completion and distills its row.
///
/// Panics if the storm does not complete cleanly — a storm that loses
/// children is a scheduler bug, not a data point.
pub fn run_storm(mode: &StormMode, children: u32, seed: u64, cores: usize) -> StormRow {
    let os = UforkOs::new(UforkConfig {
        phys_mib: 1024,
        strategy: mode.strategy,
        walk: mode.walk,
        ..UforkConfig::default()
    });
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores,
            ..MachineConfig::default()
        },
    );
    let zcfg = StormConfig::standard(children, seed);
    let pid = m
        .spawn(&storm_image(), Box::new(StormZygote::new(zcfg)))
        .expect("spawn storm zygote");
    m.run();
    assert_eq!(m.exit_code(pid), Some(0), "storm/{} zygote", mode.label);
    let z = m.program::<StormZygote>(pid).expect("zygote state");
    let report = summarize(pid, m.fork_log(), m.exit_log(), z, m.now());
    assert_eq!(
        report.completed, children,
        "storm/{}: lost children",
        mode.label
    );
    assert_eq!(
        report.peak_live, children,
        "storm/{}: children did not fully overlap",
        mode.label
    );
    assert_eq!(
        m.os.allocated_frames(),
        0,
        "storm/{}: leaked frames after all exits",
        mode.label
    );
    let mut behind: Vec<f64> = m
        .pipeline_log()
        .iter()
        .map(|e| e.done_at - e.committed_at)
        .collect();
    behind.sort_unstable_by(f64::total_cmp);
    if mode.walk == WalkMode::Pipelined {
        assert!(
            !behind.is_empty(),
            "storm/{}: pipelined storm logged no background-copy windows",
            mode.label
        );
    }
    StormRow {
        mode: *mode,
        report,
        copy_windows: behind.len() as u64,
        p50_copy_done_ns: percentile(&behind, 0.50),
        p99_copy_done_ns: percentile(&behind, 0.99),
    }
}

/// Runs the full mode sweep at the given scale, executing every mode
/// twice and asserting the two runs are bit-identical — the storm's
/// determinism contract.
///
/// Also enforces the point of committing early: under storm pressure the
/// pipelined eager fork beats the widest synchronous parallel walk at the
/// tail, not just the median (`full_pipelined` p99 < `full_par8` p99).
pub fn storm_sweep(children: u32, seed: u64, cores: usize) -> Vec<StormRow> {
    let rows: Vec<StormRow> = storm_modes()
        .iter()
        .map(|mode| {
            repeatable(&format!("fork_storm/{}", mode.label), || {
                run_storm(mode, children, seed, cores)
            })
        })
        .collect();
    let p99 = |label: &str| {
        rows.iter()
            .find(|r| r.mode.label == label)
            .expect("storm mode")
            .report
            .p99_fork_ns
    };
    assert!(
        p99("full_pipelined") < p99("full_par8"),
        "pipelined storm fork p99 ({:.0} ns) does not improve on full_par8 ({:.0} ns)",
        p99("full_pipelined"),
        p99("full_par8")
    );
    rows
}

/// The storm's full scale: concurrent children per mode in `repro storm`
/// and in `BENCH_fork.json`'s `fork_storm` rows.
pub const STORM_CHILDREN: u32 = 10_000;

/// The storm's default core count (one coordinator + seven workers'
/// worth of lanes; children inherit no affinity and spread freely).
pub const STORM_CORES: usize = 8;

/// The storm's default seed.
pub const STORM_SEED: u64 = 0x5703_2024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_completes_and_overlaps() {
        let mode = StormMode {
            label: "copa",
            strategy: CopyStrategy::CoPA,
            walk: WalkMode::Serial,
        };
        let r = run_storm(&mode, 200, 7, 4).report;
        assert_eq!(r.completed, 200);
        assert_eq!(r.peak_live, 200);
        assert_eq!(r.retries, 0);
        assert!(r.p50_fork_ns > 0.0 && r.p99_fork_ns >= r.p50_fork_ns);
        assert!(r.forks_per_sim_sec > 0.0);
    }

    #[test]
    fn storm_is_seed_deterministic_on_fixed_cores() {
        let mode = StormMode {
            label: "full_serial",
            strategy: CopyStrategy::Full,
            walk: WalkMode::Serial,
        };
        let a = run_storm(&mode, 120, 11, 2).report;
        let b = run_storm(&mode, 120, 11, 2).report;
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.final_ns.to_bits(), b.final_ns.to_bits());
        let c = run_storm(&mode, 120, 12, 2).report;
        assert_ne!(a.digest, c.digest, "different seeds must diverge");
    }
}
