//! The experiments behind every figure of the evaluation.

use ufork::{FallbackPolicy, UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, Fd, ImageSpec, IsolationLevel, Pid, Program, SysResult};
use ufork_baselines::{mono, nephele, BaselineConfig, MultiAsOs};
use ufork_exec::{ConnTemplate, Ctx, ExitEvent, ForkEvent, Machine, MachineConfig, MemOs};
use ufork_mem::{MemStats, PAGE_SIZE};
use ufork_sim::OpCounters;
use ufork_workloads::faas::{FaasConfig, Zygote};
use ufork_workloads::hello::HelloWorld;
use ufork_workloads::nginx::{Nginx, NginxConfig};
use ufork_workloads::redis::{RedisConfig, RedisServer};
use ufork_workloads::ubench::{Context1, SpawnBench};

use crate::report::{repeatable, Cell, Row};

/// Which system (and configuration) an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sys {
    /// μFork with a copy strategy and isolation level.
    Ufork(CopyStrategy, IsolationLevel),
    /// CheriBSD-like monolithic baseline.
    Mono,
    /// Nephele-like VM-cloning baseline.
    Nephele,
}

impl Sys {
    /// μFork as the figures run it by default: CoPA, fault isolation.
    pub const UFORK: Sys = Sys::Ufork(CopyStrategy::CoPA, IsolationLevel::Fault);

    /// Human-readable label matching the paper's legends.
    pub fn label(self) -> String {
        match self {
            Sys::Ufork(s, iso) => {
                let strat = match s {
                    CopyStrategy::CoPA => "μFork (CoPA)",
                    CopyStrategy::CoA => "μFork (CoA)",
                    CopyStrategy::Full => "μFork (full copy)",
                };
                match iso {
                    IsolationLevel::Full => format!("{strat} +TOCTTOU"),
                    IsolationLevel::Fault => strat.to_string(),
                    IsolationLevel::None => format!("{strat} no-iso"),
                }
            }
            Sys::Mono => "CheriBSD".to_string(),
            Sys::Nephele => "Nephele".to_string(),
        }
    }
}

/// Dispatching wrapper over the two machine types.
// A handful of these exist per experiment; the size gap between the two
// kernels is irrelevant here, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum AnyMachine {
    /// μFork machine.
    U(Machine<UforkOs>),
    /// Baseline machine.
    B(Machine<MultiAsOs>),
}

macro_rules! delegate {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyMachine::U($m) => $body,
            AnyMachine::B($m) => $body,
        }
    };
}

impl AnyMachine {
    /// Builds a machine for `sys`.
    pub fn build(sys: Sys, phys_mib: u32, mcfg: MachineConfig) -> AnyMachine {
        match sys {
            Sys::Ufork(strategy, isolation) => {
                let cfg = UforkConfig {
                    phys_mib,
                    strategy,
                    isolation,
                    ..UforkConfig::default()
                };
                AnyMachine::U(Machine::new(UforkOs::new(cfg), mcfg))
            }
            Sys::Mono => {
                let cfg = BaselineConfig {
                    phys_mib,
                    ..BaselineConfig::default()
                };
                AnyMachine::B(Machine::new(mono(cfg), mcfg))
            }
            Sys::Nephele => {
                let cfg = BaselineConfig {
                    phys_mib,
                    ..BaselineConfig::default()
                };
                AnyMachine::B(Machine::new(nephele(cfg), mcfg))
            }
        }
    }

    /// See [`Machine::spawn`].
    pub fn spawn(&mut self, image: &ImageSpec, program: Box<dyn Program>) -> SysResult<Pid> {
        delegate!(self, m => m.spawn(image, program))
    }

    /// See [`Machine::run`].
    pub fn run(&mut self) {
        delegate!(self, m => m.run())
    }

    /// See [`Machine::step`].
    pub fn step(&mut self) -> bool {
        delegate!(self, m => m.step())
    }

    /// See [`Machine::now`].
    pub fn now(&self) -> f64 {
        delegate!(self, m => m.now())
    }

    /// See [`Machine::fork_log`].
    pub fn fork_log(&self) -> &[ForkEvent] {
        delegate!(self, m => m.fork_log())
    }

    /// See [`Machine::exit_log`].
    pub fn exit_log(&self) -> &[ExitEvent] {
        delegate!(self, m => m.exit_log())
    }

    /// Total requests served by synthetic connections.
    pub fn total_served(&self) -> u64 {
        delegate!(self, m => m.vfs().total_served)
    }

    /// See [`Machine::exit_code`].
    pub fn exit_code(&self, pid: Pid) -> Option<i32> {
        delegate!(self, m => m.exit_code(pid))
    }

    /// See [`Machine::program`].
    pub fn program<T: 'static>(&self, pid: Pid) -> Option<&T> {
        delegate!(self, m => m.program::<T>(pid))
    }

    /// See [`Machine::set_affinity`].
    pub fn set_affinity(&mut self, pid: Pid, cores: Vec<usize>) {
        delegate!(self, m => m.set_affinity(pid, cores))
    }

    /// See [`Machine::install_listener`].
    pub fn install_listener(
        &mut self,
        pid: Pid,
        template: ConnTemplate,
        conns: u64,
    ) -> SysResult<Fd> {
        delegate!(self, m => m.install_listener(pid, template, conns))
    }

    /// Per-process memory statistics.
    pub fn mem_stats(&self, pid: Pid) -> MemStats {
        delegate!(self, m => m.os.mem_stats(pid))
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u32 {
        delegate!(self, m => m.os.allocated_frames())
    }

    /// Frame high-water mark.
    pub fn peak_frames(&self) -> u32 {
        delegate!(self, m => m.os.peak_frames())
    }

    /// See [`Machine::counters`].
    pub fn counters(&self) -> &ufork_sim::OpCounters {
        delegate!(self, m => m.counters())
    }
}

// ---------------------------------------------------------------------------
// Figure 8: hello-world fork latency + per-process memory.
// ---------------------------------------------------------------------------

/// One Figure 8 row.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// System label.
    pub system: String,
    /// Fork latency in µs.
    pub fork_us: f64,
    /// Child proportional resident set right after fork, MB.
    pub mem_mb: f64,
}

/// Runs the hello-world microbenchmark on all three systems.
pub fn fig8() -> Vec<Fig8Row> {
    let systems = [Sys::UFORK, Sys::Mono, Sys::Nephele];
    let mut rows = Vec::new();
    for sys in systems {
        let mut m = AnyMachine::build(sys, 256, MachineConfig::default());
        let pid = m
            .spawn(&ImageSpec::hello_world(), Box::new(HelloWorld::forking()))
            .expect("spawn hello");
        // Step until the fork completes, then sample the child's memory.
        while m.fork_log().is_empty() && m.step() {}
        let f = m.fork_log()[0];
        let child_prs = m.mem_stats(f.child).prs_mib();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        rows.push(Fig8Row {
            system: sys.label(),
            fork_us: f.latency_ns / 1e3,
            mem_mb: child_prs,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 9: Unixbench Spawn and Context1.
// ---------------------------------------------------------------------------

/// One Figure 9 row.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// System label.
    pub system: String,
    /// Unixbench Spawn: total time for `spawn_iters` fork+exit+wait, ms.
    pub spawn_ms: f64,
    /// Unixbench Context1: total time to pass the counter to the limit,
    /// ms.
    pub context1_ms: f64,
}

/// Runs Unixbench Spawn (`spawn_iters` forks) and Context1 (to
/// `ctx1_limit`) on μFork and CheriBSD.
pub fn fig9(spawn_iters: u32, ctx1_limit: u64) -> Vec<Fig9Row> {
    let systems = [Sys::UFORK, Sys::Mono];
    let mut rows = Vec::new();
    for sys in systems {
        let mut m = AnyMachine::build(sys, 256, MachineConfig::default());
        let pid = m
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(SpawnBench::new(spawn_iters)),
            )
            .expect("spawn");
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        let spawn_ms = m.now() / 1e6;

        let mut m2 = AnyMachine::build(sys, 256, MachineConfig::default());
        let pid2 = m2
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(Context1::new(ctx1_limit * 2)),
            )
            .expect("spawn");
        m2.run();
        assert_eq!(m2.exit_code(pid2), Some(0));
        let context1_ms = m2.now() / 1e6;

        rows.push(Fig9Row {
            system: sys.label(),
            spawn_ms,
            context1_ms,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 3-5: the Redis sweep.
// ---------------------------------------------------------------------------

/// One cell of the Redis sweep (one system at one database size).
#[derive(Clone, Debug)]
pub struct RedisRow {
    /// System label.
    pub system: String,
    /// Database size in bytes.
    pub db_bytes: u64,
    /// Overall BGSAVE duration (Figure 3), ms.
    pub save_ms: f64,
    /// fork(2) latency (Figure 4), µs.
    pub fork_us: f64,
    /// Memory consumed by the forked process (Figure 5), MB: physical
    /// frames newly allocated on behalf of the fork (peak − at fork).
    pub mem_mb: f64,
}

/// The database sizes of the paper's sweep: 100 KB → 100 MB.
pub fn redis_sizes() -> Vec<(u64, u64)> {
    // (entries, value bytes): values are 100 KB as in the paper.
    vec![(1, 100_000), (10, 100_000), (100, 100_000), (1000, 100_000)]
}

/// The system variants of Figures 3–5.
pub fn redis_systems() -> Vec<Sys> {
    vec![
        Sys::UFORK,
        Sys::Ufork(CopyStrategy::CoPA, IsolationLevel::Full), // +TOCTTOU
        Sys::Ufork(CopyStrategy::CoA, IsolationLevel::Fault),
        Sys::Ufork(CopyStrategy::Full, IsolationLevel::Fault),
        Sys::Mono,
    ]
}

/// Runs one Redis snapshot experiment.
pub fn redis_run(sys: Sys, entries: u64, val_bytes: u64) -> RedisRow {
    let mut rcfg = RedisConfig::sized(entries, val_bytes);
    if sys == Sys::Mono {
        // CheriBSD's allocator dirties heavily in the forked child
        // (paper §5.1: 56 MB at 100 MB DB, vs 7 MB on Linux).
        rcfg.child_scratch_fraction = 0.55;
    }
    let db = rcfg.db_bytes();
    let scratch = (rcfg.db_bytes() as f64 * rcfg.child_scratch_fraction) as u64;
    let img = ImageSpec::with_heap("redis", rcfg.heap_bytes() + scratch + (scratch / 4));
    let phys = ((3 * rcfg.heap_bytes() + rcfg.db_bytes()) / (1 << 20) + 128) as u32;
    let mut m = AnyMachine::build(sys, phys, MachineConfig::default());
    let pid = m
        .spawn(&img, Box::new(RedisServer::new(rcfg)))
        .expect("spawn redis");
    // Run to the fork, noting the allocation level just before the step
    // that performs it (the fork's own eager copies count as consumption).
    let mut at_fork_frames = m.allocated_frames();
    while m.fork_log().is_empty() {
        at_fork_frames = m.allocated_frames();
        if !m.step() {
            break;
        }
    }
    assert!(!m.fork_log().is_empty(), "{}: no fork", sys.label());
    let f = m.fork_log()[0];
    m.run();
    assert_eq!(m.exit_code(pid), Some(0), "{}", sys.label());
    let prog = m.program::<RedisServer>(pid).expect("program state");
    let save_ms = (prog.bgsave_finished - prog.bgsave_started) / 1e6;
    let extra_frames = m.peak_frames().saturating_sub(at_fork_frames);
    RedisRow {
        system: sys.label(),
        db_bytes: db,
        save_ms,
        fork_us: f.latency_ns / 1e3,
        mem_mb: f64::from(extra_frames) * PAGE_SIZE as f64 / (1 << 20) as f64,
    }
}

/// The Figures 3–5 sweep over the first `sizes` database sizes (all
/// four is the paper's sweep).
pub fn redis_sweep(sizes: usize) -> Vec<RedisRow> {
    let mut rows = Vec::new();
    for (entries, val) in redis_sizes().into_iter().take(sizes) {
        for sys in redis_systems() {
            rows.push(redis_run(sys, entries, val));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 6: FaaS function throughput.
// ---------------------------------------------------------------------------

/// One Figure 6 row.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// System label.
    pub system: String,
    /// Worker cores.
    pub cores: u32,
    /// Functions per second.
    pub throughput: f64,
}

/// Runs the Zygote FaaS experiment for 1..=3 worker cores.
pub fn fig6(window_ns: f64) -> Vec<Fig6Row> {
    let systems = [
        Sys::UFORK,
        Sys::Ufork(CopyStrategy::CoPA, IsolationLevel::Full),
        Sys::Mono,
    ];
    let mut rows = Vec::new();
    for cores in 1..=3u32 {
        for sys in systems {
            let mcfg = MachineConfig {
                cores: cores as usize + 1,
                child_affinity: Some((1..=cores as usize).collect()),
                ..MachineConfig::default()
            };
            let mut m = AnyMachine::build(sys, 512, mcfg);
            let mut fcfg = FaasConfig::for_cores(cores);
            fcfg.window_ns = window_ns;
            let img = ImageSpec::with_heap("micropython", 2 << 20);
            let pid = m
                .spawn(&img, Box::new(Zygote::new(fcfg)))
                .expect("spawn zygote");
            m.set_affinity(pid, vec![0]);
            m.run();
            assert_eq!(m.exit_code(pid), Some(0), "{}", sys.label());
            let z = m.program::<Zygote>(pid).expect("zygote state");
            rows.push(Fig6Row {
                system: sys.label(),
                cores,
                throughput: z.completed as f64 / (window_ns / 1e9),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7: Nginx throughput.
// ---------------------------------------------------------------------------

/// One Figure 7 row.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// System label.
    pub system: String,
    /// Machine cores.
    pub cores: u32,
    /// Worker processes.
    pub workers: u32,
    /// Requests per second.
    pub throughput: f64,
}

/// Runs one Nginx configuration.
pub fn nginx_run(sys: Sys, cores: u32, workers: u32, window_ns: f64) -> Fig7Row {
    let mcfg = MachineConfig {
        cores: cores as usize,
        time_limit: Some(window_ns),
        ..MachineConfig::default()
    };
    let mut m = AnyMachine::build(sys, 512, mcfg);
    let img = ImageSpec::with_heap("nginx", 4 << 20);
    let ncfg = NginxConfig {
        workers,
        ..NginxConfig::default()
    };
    // The listener fd is the first fd (3) installed on the master.
    let template = ConnTemplate {
        requests_per_conn: 64,
        req_bytes: 128,
        think_ns: 4_500.0,
    };
    let program = Nginx::new(ncfg, Fd(3));
    let pid = m.spawn(&img, Box::new(program)).expect("spawn nginx");
    m.install_listener(pid, template, u64::MAX / 2)
        .expect("listener");
    m.run();
    let served = m.total_served();
    Fig7Row {
        system: sys.label(),
        cores,
        workers,
        throughput: served as f64 / (window_ns / 1e9),
    }
}

/// The full Figure 7 sweep.
pub fn fig7(window_ns: f64) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    // μFork: single core, 1..3 workers (paper: multicore Unikraft SMP is
    // immature; single core demonstrates the worker-yield benefit).
    for workers in 1..=3 {
        rows.push(nginx_run(Sys::UFORK, 1, workers, window_ns));
    }
    // μFork with TOCTTOU, 3 workers (the -6.5% datapoint).
    rows.push(nginx_run(
        Sys::Ufork(CopyStrategy::CoPA, IsolationLevel::Full),
        1,
        3,
        window_ns,
    ));
    // Supplementary (not in the paper's figure): μFork across cores —
    // Unikraft's big kernel lock caps the scaling, which is why the paper
    // shows single-core numbers only.
    for cores in 2..=3 {
        rows.push(nginx_run(Sys::UFORK, cores, 3, window_ns));
    }
    // CheriBSD: scaling across cores (workers == cores)...
    for w in 1..=3 {
        rows.push(nginx_run(Sys::Mono, w, w, window_ns));
    }
    // ...and restricted to one core with 3 workers.
    rows.push(nginx_run(Sys::Mono, 1, 3, window_ns));
    rows
}

// ---------------------------------------------------------------------------
// Fork scaling: the parallel walk's 1/2/4/8-worker sweep.
// ---------------------------------------------------------------------------

/// Heap pages forked by the scaling sweep — 14 chunks of 32 pages, so
/// every worker count in the sweep gets a multi-chunk walk.
pub const SCALING_PAGES: u64 = 448;

/// One cell of the fork-scaling sweep: one heap shape forked under one
/// walk mode, measured in *simulated* nanoseconds (deterministic — the
/// same configuration always reproduces the same value bit for bit).
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Heap shape: `"cap-dense"` (128 caps/page) or `"cap-sparse"`
    /// (1 cap/page).
    pub heap: &'static str,
    /// Walk mode of the run.
    pub walk: WalkMode,
    /// Walk workers; 0 is the serial-walk ablation, 1 the pipelined
    /// walk's single streaming lane.
    pub workers: usize,
    /// Simulated fork latency (kernel time), ns. For the pipelined walk
    /// this is the *commit* latency — the child is runnable here.
    pub sim_fork_ns: f64,
    /// Simulated time until the child's copy is complete, ns. Equals
    /// `sim_fork_ns` for every non-pipelined walk; for the pipelined
    /// walk it adds the drained background window.
    pub sim_copy_done_ns: f64,
    /// The fork's counters, including any drained pipelined window.
    pub counters: OpCounters,
}

/// A walk mode's label for tables and JSON, and its walk workers:
/// `serial` (0), `parN` (N) or `pipelined` (1, the streaming lane).
pub fn walk_label(walk: WalkMode) -> (String, usize) {
    match walk {
        WalkMode::Serial => ("serial".to_string(), 0),
        WalkMode::Pipelined => ("pipelined".to_string(), 1),
        WalkMode::Parallel(n) => (format!("par{}", n.max(1)), n.max(1)),
    }
}

impl Row for ScalingRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("heap", Cell::Str(self.heap.into())),
            ("mode", Cell::Str(walk_label(self.walk).0)),
            ("workers", Cell::Int(self.workers as u64)),
            ("sim_fork_ns", Cell::Ns(self.sim_fork_ns)),
            ("sim_copy_done_ns", Cell::Ns(self.sim_copy_done_ns)),
            ("chunks", Cell::Int(self.counters.fork_chunks)),
        ]
    }
}

/// The parent of the scaling/frontier sweeps and the traced forks: pid 1
/// on a fresh 256 MiB kernel, its [`SCALING_PAGES`]-page heap populated
/// with capabilities cap-dense or cap-sparse.
pub fn scaling_parent(strategy: CopyStrategy, walk: WalkMode, dense: bool) -> UforkOs {
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy,
        walk,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    let img = ImageSpec::with_heap("scaling", SCALING_PAGES * PAGE_SIZE + (256 << 10));
    os.spawn(&mut ctx, Pid(1), &img).expect("spawn scaling");
    let heap_bytes = SCALING_PAGES * PAGE_SIZE;
    let arr = os.malloc(&mut ctx, Pid(1), heap_bytes).expect("heap");
    // Dense: a capability every 32 bytes (128/page, every tag word hot).
    // Sparse: one per page (the tag-summary scan's fast case).
    let step = if dense { 32 } else { PAGE_SIZE };
    let mut off = 0;
    while off < heap_bytes {
        let slot = arr.with_addr(arr.base() + off).expect("slot");
        os.store_cap(&mut ctx, Pid(1), &slot, &slot)
            .expect("store cap");
        off += step;
    }
    os.set_reg(Pid(1), 4, arr).expect("reg");
    os
}

/// Forks the scaling parent under `(strategy, walk)`, then drains any
/// pipelined background window on the same context. Returns the fork
/// context (commit + drain charges) and the commit latency alone.
fn scaling_fork(strategy: CopyStrategy, walk: WalkMode, dense: bool) -> (Ctx, f64) {
    let mut os = scaling_parent(strategy, walk, dense);
    let mut fctx = Ctx::new();
    os.fork(&mut fctx, Pid(1), Pid(2)).expect("fork scaling");
    let commit_ns = fctx.kernel_ns;
    // No-op for every walk but Pipelined: stream the rest of the copy.
    os.pipeline_drain(&mut fctx, Pid(2)).expect("drain scaling");
    (fctx, commit_ns)
}

/// Forks a μprocess whose heap is populated densely or sparsely with
/// capabilities under the given walk mode and reports the fork's
/// simulated latency plus the parallel-walk counter family.
pub fn fork_scaling_run(walk: WalkMode, dense: bool) -> ScalingRow {
    let (fctx, commit_ns) = scaling_fork(CopyStrategy::Full, walk, dense);
    ScalingRow {
        heap: if dense { "cap-dense" } else { "cap-sparse" },
        walk,
        workers: walk_label(walk).1,
        sim_fork_ns: commit_ns,
        sim_copy_done_ns: fctx.kernel_ns,
        counters: fctx.counters,
    }
}

/// The full scaling sweep: {cap-sparse, cap-dense} × {serial, 1, 2, 4,
/// 8 workers, pipelined}.
///
/// Runs every cell twice and asserts the repeats bit-identical, then
/// enforces the parallel walk's gate: on the cap-dense heap 8 workers
/// beat the serial walk at least 2×.
pub fn fork_scaling_sweep() -> Vec<ScalingRow> {
    let rows = repeatable("fork_scaling", || {
        let mut rows = Vec::new();
        for dense in [false, true] {
            rows.push(fork_scaling_run(WalkMode::Serial, dense));
            for n in [1, 2, 4, 8] {
                rows.push(fork_scaling_run(WalkMode::Parallel(n), dense));
            }
            rows.push(fork_scaling_run(WalkMode::Pipelined, dense));
        }
        rows
    });
    let dense_ns = |workers: usize| {
        rows.iter()
            .find(|r| r.heap == "cap-dense" && r.workers == workers)
            .expect("dense row")
            .sim_fork_ns
    };
    let speedup = dense_ns(0) / dense_ns(8);
    assert!(
        speedup >= 2.0,
        "parallel walk too slow: cap-dense Parallel(8) is only {speedup:.2}x over Serial (need >= 2x)"
    );
    rows
}

// ---------------------------------------------------------------------------
// Pipelined-fork latency frontier: commit latency vs time-to-copy-complete.
// ---------------------------------------------------------------------------

/// One point of the fork latency frontier: a single fork of the scaling
/// workload under one (strategy, walk) mode, reported as the latency the
/// child waits before running (`commit_ns`) and the latency until its
/// memory is fully private (`copy_done_ns`). Both are simulated and
/// bit-reproducible.
///
/// The lazy strategies never finish the copy eagerly, so their
/// `copy_done_ns` equals `commit_ns` — the frontier makes the pipelined
/// trade visible: CoPA-grade commit latency *and* a bounded,
/// background-paid time to a fully copied child.
#[derive(Clone, Copy, Debug)]
pub struct FrontierRow {
    /// Mode label: `full`, `full_par8`, `pipelined`, `coa`, `copa`.
    pub mode: &'static str,
    /// Heap shape: `cap-dense` or `cap-sparse`.
    pub heap: &'static str,
    /// Simulated fork latency as the child observes it, ns.
    pub commit_ns: f64,
    /// Simulated time until the child's span is fully copied (equals
    /// `commit_ns` when nothing is deferred), ns.
    pub copy_done_ns: f64,
}

impl Row for FrontierRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("heap", Cell::Str(self.heap.into())),
            ("mode", Cell::Str(self.mode.into())),
            ("sim_commit_ns", Cell::Ns(self.commit_ns)),
            ("sim_copy_done_ns", Cell::Ns(self.copy_done_ns)),
        ]
    }
}

/// The frontier's mode axis.
pub fn frontier_modes() -> Vec<(&'static str, CopyStrategy, WalkMode)> {
    vec![
        ("full", CopyStrategy::Full, WalkMode::Serial),
        ("full_par8", CopyStrategy::Full, WalkMode::Parallel(8)),
        ("pipelined", CopyStrategy::Full, WalkMode::Pipelined),
        ("coa", CopyStrategy::CoA, WalkMode::Serial),
        ("copa", CopyStrategy::CoPA, WalkMode::Serial),
    ]
}

/// One frontier point.
pub fn frontier_run(
    mode: &'static str,
    strategy: CopyStrategy,
    walk: WalkMode,
    dense: bool,
) -> FrontierRow {
    let (fctx, commit_ns) = scaling_fork(strategy, walk, dense);
    FrontierRow {
        mode,
        heap: if dense { "cap-dense" } else { "cap-sparse" },
        commit_ns,
        copy_done_ns: fctx.kernel_ns,
    }
}

/// The full frontier: {cap-sparse, cap-dense} × {full, full_par8,
/// pipelined, coa, copa}.
///
/// Runs every point twice and asserts the repeats bit-identical, then
/// enforces the pipelined walk's gates on both heap shapes: it commits
/// within 1.5× the CoPA fork and earlier than the eager serial fork, and
/// it defers copy work past the commit (the trace tests separately prove
/// the copy-work parity page for page).
pub fn fork_frontier_sweep() -> Vec<FrontierRow> {
    let rows = repeatable("fork_pipeline", || {
        let mut rows = Vec::new();
        for dense in [false, true] {
            for (mode, strategy, walk) in frontier_modes() {
                rows.push(frontier_run(mode, strategy, walk, dense));
            }
        }
        rows
    });
    let pick = |heap: &str, mode: &str| {
        *rows
            .iter()
            .find(|r| r.heap == heap && r.mode == mode)
            .expect("frontier row")
    };
    for heap in ["cap-sparse", "cap-dense"] {
        let piped = pick(heap, "pipelined");
        let copa = pick(heap, "copa");
        let full = pick(heap, "full");
        let ratio = piped.commit_ns / copa.commit_ns;
        assert!(
            ratio <= 1.5,
            "{heap}: pipelined commit {:.0} ns is {ratio:.3}x CoPA ({:.0} ns), limit 1.5x",
            piped.commit_ns,
            copa.commit_ns
        );
        assert!(
            piped.commit_ns < full.commit_ns,
            "{heap}: pipelined commit not earlier than the eager serial fork"
        );
        assert!(
            piped.copy_done_ns > piped.commit_ns,
            "{heap}: pipelined fork deferred no copy work"
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// Admission pre-flight cost.
// ---------------------------------------------------------------------------

/// Simulated kernel time of one uncontended cap-sparse Full fork under
/// the given admission fallback policy.
fn admission_fork_ns(policy: FallbackPolicy) -> f64 {
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 128,
        strategy: CopyStrategy::Full,
        fallback: policy,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
        .expect("spawn admission");
    let mut fctx = Ctx::new();
    os.fork(&mut fctx, Pid(1), Pid(2)).expect("fork admission");
    fctx.kernel_ns
}

/// One `fork_admission` row: an uncontended fork's simulated kernel
/// time under one admission fallback policy.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionRow {
    /// Fallback policy label (`disabled`, `strict`).
    pub policy: &'static str,
    /// Simulated fork latency, ns.
    pub sim_fork_ns: f64,
}

impl Row for AdmissionRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("policy", Cell::Str(self.policy.into())),
            ("sim_fork_ns", Cell::Ns(self.sim_fork_ns)),
        ]
    }
}

/// The admission-control pre-flight cost on an uncontended fork:
/// `FallbackPolicy::Disabled` (run straight into the allocator) and
/// `FallbackPolicy::Strict` (the default: reserve the frame demand up
/// front). Each policy runs twice, asserted bit-identical.
pub fn fork_admission_sweep() -> Vec<AdmissionRow> {
    [
        ("disabled", FallbackPolicy::Disabled),
        ("strict", FallbackPolicy::Strict),
    ]
    .into_iter()
    .map(|(policy, fallback)| AdmissionRow {
        policy,
        sim_fork_ns: repeatable(&format!("fork_admission/{policy}"), || {
            admission_fork_ns(fallback)
        }),
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Memory-pressure fork storm (`repro pressure`).
// ---------------------------------------------------------------------------

/// One row of the `repro pressure` report: a deterministic fork storm on
/// a small machine under one admission fallback policy, run until the
/// first fork is refused with `NoMem`.
#[derive(Clone, Debug)]
pub struct PressureRow {
    /// Fallback policy label (`disabled`, `strict`, `degrade`).
    pub policy: &'static str,
    /// Forks that succeeded before the first refusal.
    pub forks_ok: u64,
    /// The storm's counters, summed over every fork attempt.
    pub counters: OpCounters,
    /// Allocator pressure level when the storm ended.
    pub pressure: String,
}

impl Row for PressureRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        let c = &self.counters;
        vec![
            ("policy", Cell::Str(self.policy.into())),
            ("forks_ok", Cell::Int(self.forks_ok)),
            ("forks_degraded", Cell::Int(c.forks_degraded)),
            ("fork_rollbacks", Cell::Int(c.fork_rollbacks)),
            ("reclaim_inline", Cell::Int(c.reclaim_inline)),
            ("reclaim_background", Cell::Int(c.reclaim_background)),
            ("magazine_hits", Cell::Int(c.magazine_hits)),
            ("oom_kills", Cell::Int(c.oom_kills)),
            ("journal_ops", Cell::Int(c.journal_ops)),
            ("fork_backoff_ns", Cell::Int(c.fork_backoff_ns)),
            ("pressure", Cell::Str(self.pressure.clone())),
        ]
    }
}

/// Storms one policy: Full-strategy forks of a cap-dense parent on a
/// 4 MiB machine until the allocator refuses, then reports the journal /
/// admission counter family and the final pressure level.
pub fn pressure_storm_run(policy: FallbackPolicy) -> PressureRow {
    const HEAP_PAGES: u64 = 16;
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 4,
        strategy: CopyStrategy::Full,
        fallback: policy,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    let img = ImageSpec::with_heap("pressure", HEAP_PAGES * PAGE_SIZE + (64 << 10));
    os.spawn(&mut ctx, Pid(1), &img).expect("spawn pressure");
    let arr = os
        .malloc(&mut ctx, Pid(1), HEAP_PAGES * PAGE_SIZE)
        .expect("heap");
    for p in 0..HEAP_PAGES {
        let slot = arr.with_addr(arr.base() + p * PAGE_SIZE).expect("slot");
        os.store_cap(&mut ctx, Pid(1), &slot, &slot).expect("cap");
    }

    let mut sctx = Ctx::new();
    let mut forks_ok = 0u64;
    for n in 2..=1024u32 {
        match os.fork(&mut sctx, Pid(1), Pid(n)) {
            Ok(()) => forks_ok += 1,
            Err(_) => break,
        }
    }
    let stats = os.mem_stats(Pid(1));
    PressureRow {
        policy: match policy {
            FallbackPolicy::Disabled => "disabled",
            FallbackPolicy::Strict => "strict",
            FallbackPolicy::Degrade => "degrade",
        },
        forks_ok,
        counters: sctx.counters,
        pressure: format!("{:?}", stats.pressure),
    }
}

/// The full pressure report: one storm per fallback policy.
pub fn pressure_storm() -> Vec<PressureRow> {
    [
        FallbackPolicy::Disabled,
        FallbackPolicy::Strict,
        FallbackPolicy::Degrade,
    ]
    .into_iter()
    .map(pressure_storm_run)
    .collect()
}

// ---------------------------------------------------------------------------
// Table 1 (qualitative).
// ---------------------------------------------------------------------------

/// The qualitative comparison of Table 1, as printable rows.
pub fn table1() -> Vec<[&'static str; 7]> {
    vec![
        [
            "System",
            "SAS",
            "Isolation",
            "SC",
            "IPCs",
            "Seg",
            "f+e only",
        ],
        ["Angel", "Yes", "Yes", "Yes", "Fast", "Yes", "No"],
        ["Mungi", "Yes", "Yes", "Yes", "Fast", "Yes", "No"],
        ["Nephele", "No", "Yes", "No", "Med", "No", "No"],
        ["KylinX", "No", "Yes", "No", "Med", "No", "No"],
        ["Graphene", "No", "Yes", "No", "Med", "No", "No"],
        ["Graphene SGX", "No", "Yes", "No", "Slow", "No", "No"],
        ["Iso-Unik", "No", "Yes", "Yes", "Med", "No", "No"],
        ["OSv", "Yes", "No", "Yes", "Fast", "No", "Yes"],
        ["Junction", "Yes", "No", "No", "Med", "No", "Yes"],
        ["μFork (this work)", "Yes", "Yes", "Yes", "Fast", "No", "No"],
    ]
}
