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
    vec![
        StormMode {
            label: "full_serial",
            strategy: CopyStrategy::Full,
            walk: WalkMode::Serial,
        },
        StormMode {
            label: "full_par8",
            strategy: CopyStrategy::Full,
            walk: WalkMode::Parallel(8),
        },
        StormMode {
            label: "full_pipelined",
            strategy: CopyStrategy::Full,
            walk: WalkMode::Pipelined,
        },
        StormMode {
            label: "coa",
            strategy: CopyStrategy::CoA,
            walk: WalkMode::Serial,
        },
        StormMode {
            label: "copa",
            strategy: CopyStrategy::CoPA,
            walk: WalkMode::Serial,
        },
    ]
}

/// Background-copy statistics of one storm run, distilled from the
/// machine's [`ufork_exec::PipelineEvent`] log. All-zero for every
/// non-pipelined mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct StormPipeline {
    /// Background windows opened *and* closed while the child lived.
    pub windows: u64,
    /// Median time from fork commit to copy complete (ns, simulated).
    pub p50_copy_done_ns: f64,
    /// 99th-percentile time from fork commit to copy complete (ns).
    pub p99_copy_done_ns: f64,
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

/// Runs one storm to completion and distills its report.
///
/// Panics if the storm does not complete cleanly — a storm that loses
/// children is a scheduler bug, not a data point.
pub fn run_storm(mode: &StormMode, children: u32, seed: u64, cores: usize) -> StormReport {
    run_storm_full(mode, children, seed, cores).0
}

/// [`run_storm`] plus the pipelined background-copy statistics.
pub fn run_storm_full(
    mode: &StormMode,
    children: u32,
    seed: u64,
    cores: usize,
) -> (StormReport, StormPipeline) {
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
    let pipeline = StormPipeline {
        windows: behind.len() as u64,
        p50_copy_done_ns: percentile(&behind, 0.50),
        p99_copy_done_ns: percentile(&behind, 0.99),
    };
    if mode.walk == WalkMode::Pipelined {
        assert!(
            pipeline.windows > 0,
            "storm/{}: pipelined storm logged no background-copy windows",
            mode.label
        );
    }
    (report, pipeline)
}

/// Runs the full mode sweep at the given scale, executing every mode
/// twice and asserting the two runs are bit-identical (event-log digest,
/// final simulated time, p50/p99, copy-completion percentiles) — the
/// storm's determinism contract.
///
/// Also enforces the point of committing early: under storm pressure the
/// pipelined eager fork beats the widest synchronous parallel walk at the
/// tail, not just the median (`full_pipelined` p99 < `full_par8` p99).
pub fn storm_sweep(
    children: u32,
    seed: u64,
    cores: usize,
) -> Vec<(StormMode, StormReport, StormPipeline)> {
    let rows: Vec<_> = storm_modes()
        .into_iter()
        .map(|mode| {
            let (a, pa) = run_storm_full(&mode, children, seed, cores);
            let (b, pb) = run_storm_full(&mode, children, seed, cores);
            assert_eq!(
                a.digest, b.digest,
                "fork_storm/{} event log is nondeterministic",
                mode.label
            );
            assert_eq!(a.final_ns.to_bits(), b.final_ns.to_bits());
            assert_eq!(a.p50_fork_ns.to_bits(), b.p50_fork_ns.to_bits());
            assert_eq!(a.p99_fork_ns.to_bits(), b.p99_fork_ns.to_bits());
            assert_eq!(pa.windows, pb.windows);
            assert_eq!(pa.p50_copy_done_ns.to_bits(), pb.p50_copy_done_ns.to_bits());
            assert_eq!(pa.p99_copy_done_ns.to_bits(), pb.p99_copy_done_ns.to_bits());
            (mode, a, pa)
        })
        .collect();
    let p99 = |label: &str| {
        rows.iter()
            .find(|(m, _, _)| m.label == label)
            .expect("storm mode")
            .1
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
        let r = run_storm(&mode, 200, 7, 4);
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
        let a = run_storm(&mode, 120, 11, 2);
        let b = run_storm(&mode, 120, 11, 2);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.final_ns.to_bits(), b.final_ns.to_bits());
        let c = run_storm(&mode, 120, 12, 2);
        assert_ne!(a.digest, c.digest, "different seeds must diverge");
    }
}
