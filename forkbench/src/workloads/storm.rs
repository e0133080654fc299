//! `storm`: a fork storm from a small zygote.
//!
//! The zygote (`StormZygote`) forks 100 000 children, sleeping an
//! exponential gap (mean 100 µs) after each fork returns: a closed loop
//! with one client and exponential think time. Each child lives about
//! 4.5 simulated seconds, so about 29 000 are alive at the peak: the
//! process-count extreme. Host time goes to the executive's scheduling
//! and to `core`'s fork and destroy paths; no memory access, fault or
//! ring is involved.

use ufork::{UforkConfig, WalkMode};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_workloads::storm::{summarize, StormConfig, StormZygote};

use crate::probe::{Probe, ProbeLog, RootProbe};
use crate::scenario::{bad_exits, ReadyPoint, Scenario, SimResult, SplitMix};
use crate::stats::sorted;

/// Peak concurrency the storm must reach to count as a storm: about
/// 6500 children are born per simulated second and, living 4.5 s on
/// average, about 29 000 overlap at the peak.
const MIN_PEAK_LIVE: u64 = 25_000;

/// The storm workload.
#[derive(Clone, Debug)]
pub struct Storm {
    /// Children forked.
    pub children: u32,
    /// Arrival/service stream seed.
    pub seed: u64,
    /// Global capabilities in the function image, drawn from the seed:
    /// the per-fork relocation work varies a little from seed to seed.
    pub got_slots: u64,
}

impl Storm {
    /// The benchmark's storm for `seed`.
    pub fn new(seed: u64) -> Storm {
        Storm::scaled(100_000, seed)
    }

    /// A storm of `children` (tests use small ones).
    pub fn scaled(children: u32, seed: u64) -> Storm {
        Storm {
            children,
            seed,
            got_slots: SplitMix::new(seed ^ 0x5707).range(12, 21),
        }
    }

    /// The 36 KiB function image.
    fn image(&self) -> ImageSpec {
        ImageSpec {
            name: "storm-fn".into(),
            text_bytes: 8 * 1024,
            data_bytes: 4 * 1024,
            heap_bytes: 16 * 1024,
            stack_bytes: 8 * 1024,
            got_slots: self.got_slots,
        }
    }
}

/// The zygote's pid and its fork-latency log.
pub struct StormHandle {
    pid: Pid,
    log: ProbeLog,
}

impl Scenario for Storm {
    type Handle = StormHandle;
    const OP: &'static str = "fork";

    fn kernel_config(&self) -> UforkConfig {
        UforkConfig {
            phys_mib: 4096,
            strategy: CopyStrategy::CoPA,
            walk: WalkMode::Serial,
            ..UforkConfig::default()
        }
    }

    fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            cores: 8,
            ..MachineConfig::default()
        }
    }

    fn start<O: MemOs>(&self, m: &mut Machine<O>) -> StormHandle {
        let zygote = StormZygote::new(StormConfig::standard(self.children, self.seed));
        let (program, log) = RootProbe::new(zygote, Probe::ArrivalToFork);
        let pid = m
            .spawn(&self.image(), Box::new(program))
            .expect("spawn storm zygote");
        StormHandle { pid, log }
    }

    fn ready<O: MemOs>(&self, _m: &Machine<O>, _h: &StormHandle) -> bool {
        true
    }

    fn finish<O: MemOs>(&self, m: &Machine<O>, h: StormHandle, at: &ReadyPoint) -> SimResult {
        let zygote = m
            .program::<RootProbe<StormZygote>>(h.pid)
            .expect("zygote state")
            .inner();
        let report = summarize(h.pid, m.fork_log(), m.exit_log(), zygote, m.now());
        let log = h.log.borrow();
        let mut problems = Vec::new();
        if m.exit_code(h.pid) != Some(0) {
            problems.push(format!("zygote exited with {:?}", m.exit_code(h.pid)));
        }
        if report.completed != self.children {
            problems.push(format!(
                "{} of {} children completed",
                report.completed, self.children
            ));
        }
        let min_peak = MIN_PEAK_LIVE.min(u64::from(self.children) * 2 / 5);
        if u64::from(report.peak_live) < min_peak {
            problems.push(format!(
                "peak live {} below {min_peak}: the children did not overlap",
                report.peak_live
            ));
        }
        if m.os.allocated_frames() != 0 {
            problems.push(format!(
                "{} frames left allocated after every exit",
                m.os.allocated_frames()
            ));
        }
        let lost = u64::from(self.children - report.completed.min(self.children));
        SimResult {
            ops: u64::from(self.children),
            failed: u64::from(report.retries) + bad_exits(m, h.pid) + lost,
            op_lat: sorted(log.iter().map(|(due, done)| done - due).collect()),
            fork_lat: sorted(m.fork_log().iter().map(|f| f.latency_ns).collect()),
            lateness: Vec::new(),
            arrival_gap: 0.0,
            span: log.last().map_or(0.0, |(_, done)| done - at.now),
            peak_live: u64::from(report.peak_live),
            counters: m.counters().since(&at.counters),
            total: *m.counters(),
            digest: report.digest,
            problems,
        }
    }
}
