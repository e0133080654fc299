//! The workload interface and the code that runs one repetition.

use std::time::{Duration, Instant};

use ufork::{UforkConfig, UforkOs};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_sim::OpCounters;

use crate::cpu::thread_time;

/// Machine state when the first operation is about to start.
#[derive(Clone, Copy, Debug)]
pub struct ReadyPoint {
    /// Counters accumulated by setup.
    pub counters: OpCounters,
    /// Simulated time at the end of setup (ns).
    pub now: f64,
}

/// What one run of a workload produced on the simulated clock, with the
/// outcome of its correctness checks. Identical inputs must give a
/// bit-identical result.
#[derive(Debug)]
pub struct SimResult {
    /// Operations attempted.
    pub ops: u64,
    /// Failed or retried forks, non-zero child exits and lost operations.
    pub failed: u64,
    /// Simulated latency of each completed operation (ns), ascending.
    pub op_lat: Vec<f64>,
    /// Simulated latency of each fork call (ns), ascending.
    pub fork_lat: Vec<f64>,
    /// How late the load generator issued each request (ns), ascending;
    /// empty for closed loops.
    pub lateness: Vec<f64>,
    /// Mean gap between request due times (ns); 0 for closed loops.
    pub arrival_gap: f64,
    /// Simulated time from the end of setup to the last completion (ns).
    pub span: f64,
    /// Most μprocesses alive at once.
    pub peak_live: u64,
    /// Counters of the operation phase (setup excluded).
    pub counters: OpCounters,
    /// Counters of the whole run.
    pub total: OpCounters,
    /// Digest of the run's event history and outputs.
    pub digest: u64,
    /// Failed correctness and "does its work" checks.
    pub problems: Vec<String>,
}

impl SimResult {
    /// A fingerprint over every simulated quantity (floats by bit
    /// pattern): equal fingerprints mean bit-identical results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.ops);
        h.u64(self.failed);
        for v in [&self.op_lat, &self.fork_lat, &self.lateness] {
            h.u64(v.len() as u64);
            v.iter().for_each(|x| h.f64(*x));
        }
        h.f64(self.arrival_gap);
        h.f64(self.span);
        h.u64(self.peak_live);
        h.str(&format!("{:?}{:?}", self.counters, self.total));
        h.u64(self.digest);
        h.u64(self.problems.len() as u64);
        h.finish()
    }
}

/// FNV-1a, for digests and fingerprints.
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` in by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes a string in.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One seeded workload.
pub trait Scenario {
    /// Whatever the workload keeps to read its results back.
    type Handle;
    /// What one operation is, for the report.
    const OP: &'static str;

    /// The μFork kernel configuration.
    fn kernel_config(&self) -> UforkConfig;
    /// The machine configuration.
    fn machine_config(&self) -> MachineConfig;
    /// Spawns the workload's root process.
    fn start<O: MemOs>(&self, m: &mut Machine<O>) -> Self::Handle;
    /// True once setup is over and the first operation is next.
    fn ready<O: MemOs>(&self, m: &Machine<O>, h: &Self::Handle) -> bool;
    /// Reads the finished run's results and checks them.
    fn finish<O: MemOs>(&self, m: &Machine<O>, h: Self::Handle, at: &ReadyPoint) -> SimResult;
    /// Checks made once per invocation rather than per run (for example
    /// against a baseline system). Returns failed checks.
    fn cross_checks(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Host time of one phase, on two clocks.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Wall-clock time.
    pub wall: Duration,
    /// CPU time of the benchmark thread.
    pub cpu: Duration,
}

impl Span {
    fn since(wall: Instant, cpu: Duration) -> Span {
        Span {
            wall: wall.elapsed(),
            cpu: thread_time() - cpu,
        }
    }
}

/// One completed run.
pub struct Rep<O: MemOs> {
    /// The finished machine (dropped by the caller, outside any timer).
    pub machine: Machine<O>,
    /// Simulated results.
    pub sim: SimResult,
    /// From building the machine to the first operation.
    pub setup: Span,
    /// From the first operation to the end of the run.
    pub run: Span,
    /// CPU time of each successive `slice_steps` steps of the operation
    /// phase (the last slice may be shorter).
    pub slices: Vec<Duration>,
    /// Scheduling steps in the operation phase.
    pub steps: u64,
}

/// Builds the machine and steps it to the first operation.
fn set_up<S: Scenario, O: MemOs>(
    s: &S,
    wrap: impl FnOnce(UforkOs) -> O,
) -> (Machine<O>, S::Handle) {
    let mut m = Machine::new(wrap(UforkOs::new(s.kernel_config())), s.machine_config());
    let h = s.start(&mut m);
    while !s.ready(&m, &h) {
        assert!(m.step(), "workload went idle before its first operation");
    }
    (m, h)
}

/// CPU time of one set-up, averaged over `batch` set-ups made back to
/// back (so a set-up of a few µs is not lost in the clock read); the
/// machines are dropped untimed.
pub fn setup_cpu<S: Scenario>(s: &S, batch: u32) -> Duration {
    let cpu = thread_time();
    let machines: Vec<_> = (0..batch).map(|_| set_up(s, |os| os)).collect();
    let took = thread_time() - cpu;
    drop(machines);
    took / batch
}

/// Runs the workload once, reading the CPU clock every `slice_steps`
/// steps of the operation phase. `at_ready` sees the machine between
/// setup and the first operation (the traced run resets its timers
/// there).
pub fn run_rep<S: Scenario, O: MemOs>(
    s: &S,
    wrap: impl FnOnce(UforkOs) -> O,
    slice_steps: u64,
    at_ready: impl FnOnce(&mut Machine<O>),
) -> Rep<O> {
    let (wall, cpu) = (Instant::now(), thread_time());
    let (mut m, h) = set_up(s, wrap);
    let setup = Span::since(wall, cpu);
    at_ready(&mut m);
    let at = ReadyPoint {
        counters: *m.counters(),
        now: m.now(),
    };
    let (wall, cpu) = (Instant::now(), thread_time());
    let (mut steps, mut slices, mut slice_start) = (0u64, Vec::new(), cpu);
    while m.step() {
        steps += 1;
        if steps % slice_steps == 0 {
            let now = thread_time();
            slices.push(now - slice_start);
            slice_start = now;
        }
    }
    let run = Span::since(wall, cpu);
    if steps % slice_steps != 0 {
        slices.push(cpu + run.cpu - slice_start);
    }
    let sim = s.finish(&m, h, &at);
    Rep {
        machine: m,
        sim,
        setup,
        run,
        slices,
        steps,
    }
}

/// Processes other than `root` that exited with a non-zero code.
pub fn bad_exits<O: MemOs>(m: &Machine<O>, root: ufork_abi::Pid) -> u64 {
    m.exit_log()
        .iter()
        .filter(|e| e.pid != root && e.code != 0)
        .count() as u64
}

/// Digest of the machine's fork and exit logs.
pub fn log_digest<O: MemOs>(m: &Machine<O>) -> Fnv {
    let mut h = Fnv::new();
    for f in m.fork_log() {
        h.u64(u64::from(f.parent.0));
        h.u64(u64::from(f.child.0));
        h.f64(f.at);
        h.f64(f.latency_ns);
    }
    for e in m.exit_log() {
        h.u64(u64::from(e.pid.0));
        h.f64(e.at);
        h.u64(e.code as u32 as u64);
    }
    h
}

/// SplitMix64: the benchmark's seeded input stream.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Exponential draw with the given mean (inverse CDF over a 53-bit
    /// uniform in (0, 1]).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -mean * u.ln()
    }
}
