//! `ringsvc`: a closed-loop run of the multi-tier ring service.
//!
//! A frontend pushes requests over shared-memory rings to four forked
//! workers, which feed a forked KV store; the ring window is the
//! backpressure. It uses the executive the opposite way to `storm`: few
//! processes, millions of ring wakeups and small loads and stores, and
//! only six forks. Fork-walk and destroy changes should not move it.
//!
//! Each worker spends about 40 000 simulated CPU operations per request,
//! so the workers, not the frontend, set the pace, and the frontend's
//! push wait is the service's response to backpressure. With light
//! workers the frontend is the bottleneck and every simulated result
//! takes one of a few discrete values, chosen by how the request
//! generator's low bits spread keys over workers; heavy workers with a
//! key count that is a multiple of four (an even spread) make the
//! results vary smoothly with the seed instead.

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_baselines::{mono, BaselineConfig};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_workloads::ringsvc::{RingSvc, RingSvcConfig};

use crate::probe::{Probe, ProbeLog, RootProbe};
use crate::scenario::{bad_exits, log_digest, ReadyPoint, Scenario, SimResult, SplitMix};
use crate::stats::sorted;

/// Worker processes.
const WORKERS: u64 = 4;
/// Most forks the service may make: the store, the workers and one
/// snapshot child are six; more means it started forking per request.
const MAX_FORKS: u64 = 8;
/// Requests of the cross-check against the multi-address-space baseline.
const CROSS_CHECK_REQUESTS: u64 = 20_000;

/// The ring-service workload.
#[derive(Clone, Copy, Debug)]
pub struct RingService {
    /// Requests the frontend sends.
    pub requests: u64,
    /// Key space: a multiple of four in 240..=268, drawn from the seed.
    pub keys: u64,
    /// CPU operations per request in a worker, within 1% of 40 000,
    /// drawn from the seed.
    pub parse_ops: u64,
}

impl RingService {
    /// The benchmark's ring service for `seed`.
    pub fn new(seed: u64) -> RingService {
        let mut r = SplitMix::new(seed ^ 0x7269_6e67);
        RingService {
            requests: 400_000,
            keys: 4 * r.range(60, 68),
            parse_ops: r.range(39_600, 40_400),
        }
    }

    fn config(&self) -> RingSvcConfig {
        RingSvcConfig {
            workers: WORKERS,
            requests: self.requests,
            keys: self.keys,
            parse_ops: self.parse_ops,
            ..RingSvcConfig::default()
        }
    }

    /// Runs the service to completion on `os` without the probe and
    /// returns the store's dump.
    fn dump_on<O: MemOs>(&self, os: O) -> Vec<u8> {
        let cfg = self.config();
        let mut m = Machine::new(os, self.machine_config());
        m.spawn(
            &ImageSpec::hello_world(),
            Box::new(RingSvc::new(cfg.clone())),
        )
        .expect("spawn ring service");
        m.run();
        m.vfs()
            .file_contents(&cfg.dump_path)
            .unwrap_or_default()
            .to_vec()
    }
}

/// The frontend's pid and its push-wait log.
pub struct RingHandle {
    pid: Pid,
    log: ProbeLog,
}

impl Scenario for RingService {
    type Handle = RingHandle;
    const OP: &'static str = "request";

    fn kernel_config(&self) -> UforkConfig {
        UforkConfig {
            phys_mib: 256,
            strategy: CopyStrategy::CoPA,
            walk: WalkMode::Serial,
            ..UforkConfig::default()
        }
    }

    fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            cores: 4,
            ..MachineConfig::default()
        }
    }

    fn start<O: MemOs>(&self, m: &mut Machine<O>) -> RingHandle {
        let (program, log) = RootProbe::new(RingSvc::new(self.config()), Probe::PushWait);
        let pid = m
            .spawn(&ImageSpec::hello_world(), Box::new(program))
            .expect("spawn ring frontend");
        RingHandle { pid, log }
    }

    /// Setup ends once the store and every worker are forked.
    fn ready<O: MemOs>(&self, m: &Machine<O>, _h: &RingHandle) -> bool {
        m.fork_log().len() as u64 > WORKERS
    }

    fn finish<O: MemOs>(&self, m: &Machine<O>, h: RingHandle, at: &ReadyPoint) -> SimResult {
        let svc = |pid: Pid| {
            m.program::<RootProbe<RingSvc>>(pid)
                .expect("ring service state")
                .inner()
        };
        let front = svc(h.pid);
        // The store is the frontend's first child.
        let store = svc(m.fork_log()[0].child);
        let total = *m.counters();
        let mut problems = Vec::new();
        if m.exit_code(h.pid) != Some(0) {
            problems.push(format!("frontend exited with {:?}", m.exit_code(h.pid)));
        }
        if (front.sent, front.got) != (self.requests, self.requests) {
            problems.push(format!(
                "sent {} and got {} of {} requests",
                front.sent, front.got, self.requests
            ));
        }
        if total.forks > MAX_FORKS {
            problems.push(format!(
                "{} forks, at most {MAX_FORKS} expected",
                total.forks
            ));
        }
        if total.ring_msgs != 3 * self.requests {
            problems.push(format!(
                "{} ring messages, {} expected (three hops per request)",
                total.ring_msgs,
                3 * self.requests
            ));
        }
        let dump = m
            .vfs()
            .file_contents(&self.config().dump_path)
            .unwrap_or_default();
        let mut digest = log_digest(m);
        digest.u64(store.kv_digest);
        digest.bytes(dump);
        for (_, name, pushed, popped, pd, qd) in m.vfs().ring_snapshot() {
            digest.str(&name);
            [pushed, popped, pd, qd].iter().for_each(|v| digest.u64(*v));
        }
        let log = h.log.borrow();
        SimResult {
            ops: self.requests,
            failed: self.requests - front.got.min(self.requests) + bad_exits(m, h.pid),
            op_lat: sorted(log.iter().map(|(s, e)| e - s).collect()),
            fork_lat: sorted(m.fork_log().iter().map(|f| f.latency_ns).collect()),
            lateness: Vec::new(),
            arrival_gap: 0.0,
            span: m.now() - at.now,
            peak_live: super::peak_live(m, h.pid),
            counters: total.since(&at.counters),
            total,
            digest: digest.finish(),
            problems,
        }
    }

    /// The store's dump must match the multi-address-space baseline's on
    /// the same inputs (at 20 000 requests, to keep the check cheap).
    fn cross_checks(&self) -> Vec<String> {
        let small = RingService {
            requests: CROSS_CHECK_REQUESTS,
            ..*self
        };
        let ufork = small.dump_on(UforkOs::new(self.kernel_config()));
        let baseline = small.dump_on(mono(BaselineConfig {
            phys_mib: 256,
            ..BaselineConfig::default()
        }));
        let mut problems = Vec::new();
        if ufork.is_empty() {
            problems.push("store wrote no dump".into());
        }
        if ufork != baseline {
            problems.push(format!(
                "store dump differs from the multi-AS baseline at {CROSS_CHECK_REQUESTS} requests"
            ));
        }
        problems
    }
}
