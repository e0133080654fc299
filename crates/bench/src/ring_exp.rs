//! The `fork_ring` family: what does carrying live shared-memory ring
//! endpoints across `fork` cost, and what does the ring fabric sustain
//! end to end?
//!
//! Two row sets, both in *simulated* time (deterministic, so
//! `BENCH_fork.json` pins them bit for bit):
//!
//! * **fork probe** — one process forks once holding either four pipes
//!   (the pre-ring IPC primitive) or four shared-memory ring endpoints
//!   with a message in flight on each. The delta is exactly the ring
//!   tax on fork: refcount-sharing the `Shm` frames plus relocating the
//!   sealed endpoint capabilities through the register walk. The
//!   acceptance gate holds the ring fork to ≤1.2× the pipe-only fork in
//!   every copy-strategy/walk mode.
//! * **service sweep** — the multi-tier [`RingSvc`] workload (frontend →
//!   forked worker pool → KV store, every hop a ring) run to completion
//!   on each μFork strategy and the multi-AS baseline, recording the
//!   simulated makespan and the machine's ring counters. The sweep also
//!   re-checks the differential invariant the oracle owns: per-ring
//!   traffic digests, the store dump, and the KV digest must be bitwise
//!   identical across every backend.

use std::any::Any;

use ufork::{UforkConfig, UforkOs};
use ufork_abi::{
    BlockingCall, Env, Fd, ForkResult, ImageSpec, Pid, Program, Resume, StepOutcome, SysResult,
};
use ufork_baselines::{mono, BaselineConfig};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_sim::OpCounters;
use ufork_workloads::ringsvc::{RingSvc, RingSvcConfig};

use crate::report::{repeatable, Cell, Row};
use crate::storm::{storm_modes, StormMode};

/// Endpoints (ring producer ends, or pipes) the probe holds at fork.
pub const PROBE_ENDPOINTS: u64 = 4;
/// Slots per probe ring.
const PROBE_SLOTS: u64 = 8;
/// Message size on the probe rings (and the in-flight pipe payload).
const PROBE_MSG_BYTES: u64 = 32;
/// Scratch-buffer register.
const BUF_REG: usize = 7;
/// Sealed ring endpoints live at `8 + i` — carried by the register
/// relocation walk, exactly like a real ring-fabric process.
const ENDPOINT_REG: usize = 8;

/// One `fork_ring` probe row.
#[derive(Clone, Copy, Debug)]
pub struct RingForkRow {
    /// Copy-strategy/walk mode label (same set as the storm).
    pub mode: &'static str,
    /// `"pipes"` (baseline) or `"rings"`.
    pub setup: &'static str,
    /// Endpoints held live across the fork.
    pub endpoints: u64,
    /// Simulated latency of the fork call itself.
    pub sim_fork_ns: f64,
    /// The machine's counters at the end of the probe run;
    /// `ring_caps_relocated` is 0 for the pipe run.
    pub counters: OpCounters,
}

impl Row for RingForkRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("mode", Cell::Str(self.mode.into())),
            ("setup", Cell::Str(self.setup.into())),
            ("endpoints", Cell::Int(self.endpoints)),
            ("sim_fork_ns", Cell::Ns(self.sim_fork_ns)),
            (
                "ring_caps_relocated",
                Cell::Int(self.counters.ring_caps_relocated),
            ),
        ]
    }
}

/// One `fork_ring` service row.
#[derive(Clone, Debug)]
pub struct RingServiceRow {
    /// Backend label: `ufork-full` / `ufork-coa` / `ufork-copa` /
    /// `multias`.
    pub mode: &'static str,
    /// Requests the frontend pushed end to end.
    pub requests: u64,
    /// Simulated time at which the whole service had exited.
    pub sim_final_ns: f64,
    /// The machine's counters once the whole service had exited.
    pub counters: OpCounters,
    /// The store tier's final KV digest.
    pub kv_digest: u64,
    /// Per-ring `(name, pushed, popped, push digest, pop digest)`.
    pub rings: Vec<(String, u64, u64, u64, u64)>,
    /// The store's serialized dump file.
    pub dump: Vec<u8>,
}

impl Row for RingServiceRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        let c = &self.counters;
        vec![
            ("mode", Cell::Str(self.mode.into())),
            ("requests", Cell::Int(self.requests)),
            ("sim_final_ns", Cell::Ns(self.sim_final_ns)),
            ("ring_msgs", Cell::Int(c.ring_msgs)),
            ("ring_full_stalls", Cell::Int(c.ring_full_stalls)),
            ("ring_caps_relocated", Cell::Int(c.ring_caps_relocated)),
            ("kv_digest", Cell::Hex(self.kv_digest)),
        ]
    }
}

/// A process that forks once while holding IPC endpoints — the fork
/// latency delta between its two setups is the ring tax.
#[derive(Clone, Debug)]
struct RingForkProbe {
    rings: bool,
    fds: Vec<Fd>,
}

impl RingForkProbe {
    fn setup(&mut self, env: &mut dyn Env) -> SysResult<()> {
        let buf = env.malloc(256)?;
        env.set_reg(BUF_REG, buf)?;
        for i in 0..PROBE_ENDPOINTS {
            env.store_u64(&buf, i)?;
            if self.rings {
                let (fd, cap) =
                    env.sys_ring_open(&format!("probe{i}"), PROBE_SLOTS, PROBE_MSG_BYTES, true)?;
                env.set_reg(ENDPOINT_REG + i as usize, cap)?;
                // One message in flight per ring: fork must carry live
                // traffic, not just empty windows.
                env.sys_ring_try_push(fd, &cap, &buf, PROBE_MSG_BYTES)?;
                self.fds.push(fd);
            } else {
                let (r, w) = env.sys_pipe()?;
                env.sys_write(w, &buf, PROBE_MSG_BYTES)?;
                self.fds.push(r);
                self.fds.push(w);
            }
        }
        Ok(())
    }
}

impl Program for RingForkProbe {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                if self.setup(env).is_err() {
                    return StepOutcome::Exit(1);
                }
                StepOutcome::Fork
            }
            Resume::Forked(ForkResult::Child) => StepOutcome::Exit(0),
            Resume::Forked(ForkResult::Parent(_)) => StepOutcome::Block(BlockingCall::Wait),
            Resume::Ret(r) => {
                if r.is_err() {
                    return StepOutcome::Exit(2);
                }
                for fd in &self.fds {
                    let _ = env.sys_close(*fd);
                }
                StepOutcome::Exit(0)
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Runs one probe and returns `(fork latency, machine counters)`.
fn run_probe(mode: &StormMode, rings: bool) -> (f64, OpCounters) {
    let os = UforkOs::new(UforkConfig {
        phys_mib: 128,
        strategy: mode.strategy,
        walk: mode.walk,
        ..UforkConfig::default()
    });
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(RingForkProbe {
                rings,
                fds: Vec::new(),
            }),
        )
        .expect("spawn ring probe");
    m.run();
    assert_eq!(m.exit_code(pid), Some(0), "fork_ring/{} parent", mode.label);
    assert_eq!(
        m.exit_code(Pid(2)),
        Some(0),
        "fork_ring/{} child",
        mode.label
    );
    let ev = m.fork_log().first().expect("probe forked once");
    (ev.latency_ns, *m.counters())
}

/// The fork-probe sweep: every storm mode × {pipes, rings}, each run
/// twice and asserted bit-identical (the family's determinism contract).
/// Enforces the acceptance gate: in every mode the ring fork stays within
/// [`RING_FORK_OVERHEAD_LIMIT`]× the pipe-only fork.
pub fn ring_fork_sweep() -> Vec<RingForkRow> {
    let mut rows = Vec::new();
    for mode in storm_modes() {
        for (setup, rings) in [("pipes", false), ("rings", true)] {
            let what = format!("fork_ring/{}/{setup}", mode.label);
            let (ns, counters) = repeatable(&what, || run_probe(&mode, rings));
            let relocated = counters.ring_caps_relocated;
            if rings {
                assert!(
                    relocated >= PROBE_ENDPOINTS,
                    "fork_ring/{}/rings: fork relocated {relocated} sealed endpoints, \
                     expected at least {PROBE_ENDPOINTS}",
                    mode.label
                );
            } else {
                assert_eq!(
                    relocated, 0,
                    "fork_ring/{}/pipes: pipe-only fork relocated ring endpoints",
                    mode.label
                );
            }
            rows.push(RingForkRow {
                mode: mode.label,
                setup,
                endpoints: PROBE_ENDPOINTS,
                sim_fork_ns: ns,
                counters,
            });
        }
    }
    // Rows come in (pipes, rings) pairs, one pair per mode.
    for pair in rows.chunks(2) {
        let (pipes, rings) = (pair[0].sim_fork_ns, pair[1].sim_fork_ns);
        let ratio = rings / pipes;
        assert!(
            ratio <= RING_FORK_OVERHEAD_LIMIT,
            "fork_ring/{}: fork with live ring endpoints ({rings:.0} ns) is {ratio:.3}x \
             the pipe-only fork ({pipes:.0} ns); must stay <= {RING_FORK_OVERHEAD_LIMIT}x",
            pair[0].mode
        );
    }
    rows
}

/// Runs the multi-tier service once on one backend.
fn run_service(mode: &'static str, requests: u64) -> RingServiceRow {
    let strategy = match mode {
        "multias" => {
            let os = mono(BaselineConfig {
                phys_mib: 256,
                ..BaselineConfig::default()
            });
            return serve(os, mode, requests);
        }
        "ufork-full" => ufork_abi::CopyStrategy::Full,
        "ufork-coa" => ufork_abi::CopyStrategy::CoA,
        "ufork-copa" => ufork_abi::CopyStrategy::CoPA,
        other => unreachable!("unknown ring service mode {other}"),
    };
    let os = UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy,
        ..UforkConfig::default()
    });
    serve(os, mode, requests)
}

/// Runs the service to completion on a 4-core machine over `os` and
/// observes its row.
fn serve<O: MemOs>(os: O, mode: &'static str, requests: u64) -> RingServiceRow {
    let cfg = RingSvcConfig {
        requests,
        ..RingSvcConfig::default()
    };
    let mcfg = MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(os, mcfg);
    m.spawn(
        &ImageSpec::hello_world(),
        Box::new(RingSvc::new(cfg.clone())),
    )
    .expect("spawn ringsvc");
    m.run();
    // frontend + store + workers + snapshot child, in fork order.
    for pid in 1..=cfg.workers as u32 + 3 {
        assert_eq!(
            m.exit_code(Pid(pid)),
            Some(0),
            "fork_ring_service/{mode}: pid {pid}"
        );
    }
    let front = m.program::<RingSvc>(Pid(1)).expect("frontend state");
    assert_eq!(
        (front.sent, front.got),
        (cfg.requests, cfg.requests),
        "fork_ring_service/{mode}: request traffic"
    );
    // The store is the first child the frontend forks.
    let store = m.program::<RingSvc>(Pid(2)).expect("store state");
    RingServiceRow {
        mode,
        requests: cfg.requests,
        sim_final_ns: m.now(),
        counters: *m.counters(),
        kv_digest: store.kv_digest,
        rings: m
            .vfs()
            .ring_snapshot()
            .into_iter()
            .map(|(_, name, pushed, popped, pd, qd)| (name, pushed, popped, pd, qd))
            .collect(),
        dump: m
            .vfs()
            .file_contents(&cfg.dump_path)
            .expect("store dump written")
            .to_vec(),
    }
}

/// The backends the service sweep covers.
pub const RING_SERVICE_MODES: [&str; 4] = ["ufork-full", "ufork-coa", "ufork-copa", "multias"];

/// The service sweep: each backend run twice (determinism), then every
/// backend's ring traffic, store dump and KV digest compared bitwise
/// against `ufork-full` — the same invariant the oracle's ring
/// differential enforces, re-checked on the bench path at bench scale.
pub fn ring_service_sweep(requests: u64) -> Vec<RingServiceRow> {
    let rows: Vec<RingServiceRow> = RING_SERVICE_MODES
        .iter()
        .map(|mode| {
            repeatable(&format!("fork_ring_service/{mode}"), || {
                run_service(mode, requests)
            })
        })
        .collect();
    let base = &rows[0];
    for r in &rows[1..] {
        assert_eq!(
            (&r.rings, &r.dump, r.kv_digest, r.counters.ring_msgs),
            (
                &base.rings,
                &base.dump,
                base.kv_digest,
                base.counters.ring_msgs
            ),
            "fork_ring_service/{}: ring fabric diverged from {}",
            r.mode,
            base.mode
        );
    }
    rows
}

/// Requests per backend in `BENCH_fork.json`'s `fork_ring_service` rows.
/// The ≥1M-request acceptance run is `repro ring` (without `--quick`).
pub const RING_SERVICE_REQUESTS: u64 = 2_000;

/// The fork-probe acceptance gate: in every mode the ring fork stays
/// within `1.2×` the pipe-only fork.
pub const RING_FORK_OVERHEAD_LIMIT: f64 = 1.2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fork_probe_is_deterministic_and_cheap() {
        let mode = StormMode {
            label: "copa",
            strategy: ufork_abi::CopyStrategy::CoPA,
            walk: ufork::WalkMode::Serial,
        };
        let (pipes_ns, pipes) = run_probe(&mode, false);
        let (rings_ns, rings) = run_probe(&mode, true);
        assert_eq!(pipes.ring_caps_relocated, 0);
        assert!(rings.ring_caps_relocated >= PROBE_ENDPOINTS);
        assert!(pipes_ns > 0.0 && rings_ns > 0.0);
        assert!(
            rings_ns <= pipes_ns * RING_FORK_OVERHEAD_LIMIT,
            "ring fork {rings_ns} ns vs pipe fork {pipes_ns} ns"
        );
    }

    #[test]
    fn ring_service_backends_agree_at_small_scale() {
        let rows = ring_service_sweep(120);
        assert_eq!(rows.len(), RING_SERVICE_MODES.len());
        for r in &rows {
            assert_eq!(r.requests, 120);
            assert!(
                r.counters.ring_msgs >= 3 * 120,
                "every request crosses 3 rings"
            );
            assert!(r.sim_final_ns > 0.0);
        }
    }
}
