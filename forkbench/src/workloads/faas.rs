//! `faas`: an open-loop fork-per-request server.
//!
//! A zygote holds a 2048 × 1 KiB Redis-style dict and forks one child per
//! request. Requests are due as a Poisson stream at a fixed rate, about
//! 70% of what four simulated cores sustain; each child runs 16 `get`s
//! (verifying the value bytes) and 4 in-place updates, then exits.
//! Latency runs from the request's due time, not from when the zygote got
//! round to forking it, so a stall also charges the requests queued
//! behind it. The workload carries CoPA capability-load faults, CoW
//! faults, forks over a large page range and queueing on the kernel lock.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use ufork::{UforkConfig, WalkMode};
use ufork_abi::{
    BlockingCall, CopyStrategy, Env, Errno, ForkResult, ImageSpec, Pid, Program, Resume,
    StepOutcome, SysResult,
};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_workloads::redis::{Dict, RedisConfig};

use super::{key, peak_live, value, DICT_REG};
use crate::scenario::{log_digest, ReadyPoint, Scenario, SimResult, SplitMix};
use crate::stats::sorted;

/// Lookups per request.
const GETS: u32 = 16;
/// In-place value updates per request.
const UPDATES: u32 = 4;
/// Bytes each update overwrites.
const UPDATE_BYTES: usize = 64;
/// Mean gap between request due times (ns): 70% of the 2707 requests
/// per simulated second the server sustains when every request is due
/// at once.
pub const ARRIVAL_GAP_NS: f64 = 527_700.0;
/// Seed of the arrival trace. The trace is the same for every workload
/// seed, which varies the keys, values and updates: with seeded arrivals
/// the p99 of 2000 requests moves by a third from seed to seed, so a
/// bound on it could not tell a regression from a different trace.
const ARRIVAL_SEED: u64 = 0xfaa5;

/// The faas workload.
#[derive(Clone, Copy, Debug)]
pub struct Faas {
    /// Seed of the keys, the value bytes and the updates.
    pub seed: u64,
    /// Requests served.
    pub requests: u64,
    /// Mean gap between due times (ns).
    pub gap_ns: f64,
    /// Dict entries.
    pub entries: u64,
    /// Value bytes per entry.
    pub val_bytes: u64,
}

impl Faas {
    /// The benchmark's faas for `seed`.
    pub fn new(seed: u64) -> Faas {
        Faas {
            seed,
            requests: 2000,
            gap_ns: ARRIVAL_GAP_NS,
            entries: 2048,
            val_bytes: 1024,
        }
    }

    fn redis(&self) -> RedisConfig {
        RedisConfig::sized(self.entries, self.val_bytes)
    }
}

/// What the server reports back to the harness.
#[derive(Debug, Default)]
struct FaasLog {
    ready: bool,
    /// `(due, done)` of every request that completed and verified.
    done: Vec<(f64, f64)>,
    lateness: Vec<f64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Boot,
    Sleeping,
    Forking,
    Draining,
    Child,
}

#[derive(Clone)]
struct FaasServer {
    w: Faas,
    state: State,
    /// Index of the request being issued (a forked child serves it).
    next: u64,
    /// Due time of request `next`.
    due: f64,
    arrivals: SplitMix,
    log: Rc<RefCell<FaasLog>>,
}

impl FaasServer {
    fn populate(&self, env: &mut dyn Env) -> SysResult<()> {
        let dict = Dict::create(env, self.w.redis().buckets)?;
        env.set_reg(DICT_REG, dict.handle())?;
        for k in 0..self.w.entries {
            let val: Vec<u8> = value(self.w.seed, k)
                .take(self.w.val_bytes as usize)
                .collect();
            dict.insert(env, key(k).as_bytes(), &val)?;
        }
        Ok(())
    }

    /// Sleeps until the next request is due, forks it if already late,
    /// or reaps the children once every request is out.
    fn schedule(&mut self, env: &mut dyn Env) -> StepOutcome {
        if self.next == self.w.requests {
            self.state = State::Draining;
            return StepOutcome::Block(BlockingCall::Wait);
        }
        let now = env.now();
        if self.due > now {
            self.state = State::Sleeping;
            return StepOutcome::Block(BlockingCall::Sleep { ns: self.due - now });
        }
        self.issue(now)
    }

    fn issue(&mut self, now: f64) -> StepOutcome {
        self.log.borrow_mut().lateness.push(now - self.due);
        self.state = State::Forking;
        StepOutcome::Fork
    }

    fn advance(&mut self, env: &mut dyn Env) -> StepOutcome {
        self.next += 1;
        self.due += self.arrivals.exp(self.w.gap_ns);
        self.schedule(env)
    }

    /// The child's request: `Ok(false)` if a value read back wrong.
    fn serve(&self, env: &mut dyn Env) -> SysResult<bool> {
        let dict = Dict::from_handle(env.reg(DICT_REG)?);
        let mut keys = SplitMix::new(self.w.seed ^ self.next.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut buf = vec![0u8; self.w.val_bytes as usize];
        for _ in 0..GETS {
            let k = keys.range(0, self.w.entries);
            let (vcap, vlen) = dict.get(env, key(k).as_bytes())?.ok_or(Errno::NoEnt)?;
            if u64::from(vlen) != self.w.val_bytes {
                return Ok(false);
            }
            env.load(
                &vcap.with_addr(vcap.base()).map_err(|_| Errno::Fault)?,
                &mut buf,
            )?;
            if !buf
                .iter()
                .copied()
                .eq(value(self.w.seed, k).take(buf.len()))
            {
                return Ok(false);
            }
        }
        for _ in 0..UPDATES {
            let k = keys.range(0, self.w.entries);
            let stamp = keys.next_u64().to_le_bytes().repeat(UPDATE_BYTES / 8);
            dict.update_in_place(env, key(k).as_bytes(), &stamp)?;
        }
        Ok(true)
    }
}

impl Program for FaasServer {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match (self.state, input) {
            (State::Boot, Resume::Start) => {
                if self.populate(env).is_err() {
                    return StepOutcome::Exit(1);
                }
                self.log.borrow_mut().ready = true;
                self.due = env.now() + self.arrivals.exp(self.w.gap_ns);
                self.schedule(env)
            }
            (State::Sleeping, Resume::Ret(Ok(_))) => self.issue(env.now()),
            (State::Forking, Resume::Forked(ForkResult::Child)) => {
                self.state = State::Child;
                match self.serve(env) {
                    Ok(true) => {
                        self.log.borrow_mut().done.push((self.due, env.now()));
                        StepOutcome::Exit(0)
                    }
                    Ok(false) => StepOutcome::Exit(1),
                    Err(_) => StepOutcome::Exit(2),
                }
            }
            (State::Forking, Resume::Forked(ForkResult::Parent(_))) => self.advance(env),
            // A failed fork loses its request; the next one is still due.
            (State::Forking, Resume::Ret(Err(_))) => self.advance(env),
            (State::Draining, Resume::Ret(Ok(_))) => StepOutcome::Block(BlockingCall::Wait),
            (State::Draining, Resume::Ret(Err(_))) => StepOutcome::Exit(0),
            _ => StepOutcome::Exit(3),
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The zygote's pid and its request log.
pub struct FaasHandle {
    pid: Pid,
    log: Rc<RefCell<FaasLog>>,
}

impl Scenario for Faas {
    type Handle = FaasHandle;
    const OP: &'static str = "request";

    fn kernel_config(&self) -> UforkConfig {
        UforkConfig {
            phys_mib: 512,
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

    fn start<O: MemOs>(&self, m: &mut Machine<O>) -> FaasHandle {
        let log = Rc::new(RefCell::new(FaasLog::default()));
        let server = FaasServer {
            w: *self,
            state: State::Boot,
            next: 0,
            due: 0.0,
            arrivals: SplitMix::new(ARRIVAL_SEED),
            log: Rc::clone(&log),
        };
        let image = ImageSpec::with_heap("faas", self.redis().heap_bytes());
        let pid = m
            .spawn(&image, Box::new(server))
            .expect("spawn faas zygote");
        FaasHandle { pid, log }
    }

    fn ready<O: MemOs>(&self, _m: &Machine<O>, h: &FaasHandle) -> bool {
        h.log.borrow().ready
    }

    fn finish<O: MemOs>(&self, m: &Machine<O>, h: FaasHandle, at: &ReadyPoint) -> SimResult {
        let log = h.log.borrow();
        let counters = m.counters().since(&at.counters);
        let mut problems = Vec::new();
        if m.exit_code(h.pid) != Some(0) {
            problems.push(format!("zygote exited with {:?}", m.exit_code(h.pid)));
        }
        if counters.cap_load_faults == 0 {
            problems
                .push("no capability-load (CoPA) faults: children stopped walking the dict".into());
        }
        if counters.cow_faults == 0 {
            problems.push("no CoW faults: children stopped writing".into());
        }
        if m.os.allocated_frames() != 0 {
            problems.push(format!(
                "{} frames leaked after every exit",
                m.os.allocated_frames()
            ));
        }
        let mut digest = log_digest(m);
        log.done.iter().for_each(|&(due, done)| {
            digest.f64(due);
            digest.f64(done);
        });
        SimResult {
            ops: self.requests,
            failed: self.requests - log.done.len() as u64,
            op_lat: sorted(log.done.iter().map(|(due, done)| done - due).collect()),
            fork_lat: sorted(m.fork_log().iter().map(|f| f.latency_ns).collect()),
            lateness: sorted(log.lateness.clone()),
            arrival_gap: self.gap_ns,
            span: log.done.iter().fold(0.0, |a: f64, (_, d)| a.max(*d)) - at.now,
            peak_live: peak_live(m, h.pid),
            counters,
            total: *m.counters(),
            digest: digest.finish(),
            problems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_rep;

    fn small(gap_ns: f64) -> Faas {
        Faas {
            seed: 9,
            requests: 30,
            gap_ns,
            entries: 64,
            val_bytes: 128,
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_so_a_backlog_counts() {
        // Every request due at once: the zygote forks them one after
        // another, so request i is issued later and later.
        let sim = run_rep(&small(0.0), |os| os, u64::MAX, |_| {}).sim;
        assert_eq!(sim.failed, 0);
        assert_eq!(sim.lateness.len(), 30);
        assert_eq!(sim.lateness[0], 0.0, "the first request is issued on time");
        let last = sim.lateness[29];
        assert!(last > 0.0);
        // A request completes after it is issued, so the slowest
        // latency includes the whole backlog.
        assert!(sim.op_lat[29] > last, "{} <= {last}", sim.op_lat[29]);
    }

    #[test]
    fn a_lightly_loaded_generator_runs_on_time() {
        // Requests 10 ms apart on average, each served in well under
        // one: the generator typically wakes on time, late only by the
        // wake-up call it charges itself (an occasional short gap can
        // still queue one request behind the previous fork).
        let sim = run_rep(&small(1e7), |os| os, u64::MAX, |_| {}).sim;
        assert_eq!(sim.failed, 0);
        let typical = sim.lateness[sim.lateness.len() / 2];
        assert!(typical < 2e3, "generator typically {typical} ns late");
        let slowest = sim.op_lat.last().copied().unwrap_or(f64::MAX);
        assert!(
            slowest < 1e7,
            "a request took {slowest} ns on an idle server"
        );
    }
}
