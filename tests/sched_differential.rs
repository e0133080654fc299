//! Differential scheduler regression suite: the run queue against the
//! linear reference, step by step.
//!
//! The machine picks every step from a lazy-deletion run queue and wakes
//! parked threads through a per-channel waiter index. Debug builds check
//! each pick against a scan of every task for the minimum
//! `(time, class, order)` key, and each event delivery against a scan of
//! every parked thread, so a lost or misordered entry or a missed wakeup
//! panics at the step where it happens. This suite drives those checks
//! across the fork-pattern (U1/U3/U5) and multi-threading scenarios of
//! the tier-1 tests, and across pipelined forks whose copy engines
//! compete with threads and the background reclaim daemon; each scenario
//! must also do the work that makes the comparison meaningful. The
//! checks are compiled out of release builds, so run this suite in the
//! dev profile.

use std::any::Any;

use ufork_repro::abi::{
    BlockingCall, Env, ForkResult, ImageSpec, Program, ProgramBox, Resume, StepOutcome,
};
use ufork_repro::exec::{Machine, MachineConfig};
use ufork_repro::sim::OpCounters;
use ufork_repro::ufork::{UforkConfig, UforkOs};
use ufork_repro::workloads::forkserver::{ForkServer, ForkServerConfig};
use ufork_repro::workloads::mtkv::{MtKv, MtKvConfig};
use ufork_repro::workloads::privsep::{Privsep, PrivsepConfig};
use ufork_repro::workloads::shell::{Command, Shell};

/// What the suite asserts about a finished machine.
struct History {
    exit_code: Option<i32>,
    exits: usize,
    /// Closed pipelined-fork copy windows (commit, done, pages).
    pipelines: Vec<(f64, f64, u64)>,
    counters: OpCounters,
}

/// One differential scenario: a root program plus machine shape.
struct Scenario {
    name: &'static str,
    cores: usize,
    time_limit: Option<f64>,
    make: fn() -> Box<dyn Program>,
}

fn run_scenario(s: &Scenario) -> History {
    let os = UforkOs::new(UforkConfig {
        phys_mib: 256,
        ..UforkConfig::default()
    });
    run_machine(
        os,
        &ImageSpec::hello_world(),
        s.cores,
        s.time_limit,
        (s.make)(),
    )
}

fn run_machine(
    os: UforkOs,
    image: &ImageSpec,
    cores: usize,
    time_limit: Option<f64>,
    program: Box<dyn Program>,
) -> History {
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores,
            time_limit,
            ..MachineConfig::default()
        },
    );
    let pid = m.spawn(image, program).unwrap();
    m.run();
    History {
        exit_code: m.exit_code(pid),
        exits: m.exit_log().len(),
        pipelines: m
            .pipeline_log()
            .iter()
            .map(|p| (p.committed_at, p.done_at, p.pages))
            .collect(),
        counters: *m.counters(),
    }
}

/// Runs one scenario under the scheduler checks.
fn check_scenario(s: &Scenario) {
    let h = run_scenario(s);
    // A scenario that never forks or never exits exercises nothing;
    // guard against silently-degenerate comparisons.
    assert!(
        h.exits > 0,
        "scenario `{}` ({} cores) recorded no exits",
        s.name,
        s.cores
    );
}

// ---------------------------------------------------------------------------
// Inline programs mirroring the tier-1 thread tests.
// ---------------------------------------------------------------------------

/// Worker thread: adds `value` into the shared cell in reg 10.
#[derive(Clone)]
struct Adder {
    value: u64,
    code: i32,
}

impl Program for Adder {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        let cell = env.reg(10).expect("shared accumulator");
        let cur = env
            .load_u64(&cell.with_addr(cell.base()).expect("cursor"))
            .expect("readable");
        env.cpu_ops(500);
        env.store_u64(
            &cell.with_addr(cell.base()).expect("cursor"),
            cur + self.value,
        )
        .expect("writable");
        StepOutcome::Exit(self.code)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Main thread: spawn `n` adders, join them all, verify the sum.
#[derive(Clone)]
struct PoolMain {
    n: u64,
    spawned: u64,
    tids: Vec<u64>,
    joined: u64,
}

impl Program for PoolMain {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                let cell = env.malloc(16).expect("cell");
                env.store_u64(&cell.with_addr(cell.base()).expect("cursor"), 0)
                    .expect("init");
                env.set_reg(10, cell).expect("register");
                self.spawned += 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(Adder {
                        value: self.spawned,
                        code: self.spawned as i32,
                    })),
                })
            }
            Resume::Ret(Ok(v)) => {
                if self.spawned <= self.n && self.tids.len() < self.spawned as usize {
                    self.tids.push(v);
                    if self.spawned < self.n {
                        self.spawned += 1;
                        return StepOutcome::Block(BlockingCall::SpawnThread {
                            program: ProgramBox(Box::new(Adder {
                                value: self.spawned,
                                code: self.spawned as i32,
                            })),
                        });
                    }
                    return StepOutcome::Block(BlockingCall::JoinThread { tid: self.tids[0] });
                }
                self.joined += 1;
                if (self.joined as usize) < self.tids.len() {
                    return StepOutcome::Block(BlockingCall::JoinThread {
                        tid: self.tids[self.joined as usize],
                    });
                }
                let cell = env.reg(10).expect("cell");
                let sum = env
                    .load_u64(&cell.with_addr(cell.base()).expect("cursor"))
                    .expect("readable");
                let expect = self.n * (self.n + 1) / 2;
                StepOutcome::Exit(if sum == expect { 0 } else { 1 })
            }
            _ => StepOutcome::Exit(2),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Sibling thread that sleeps past any test horizon.
#[derive(Clone)]
struct Sleeper;
impl Program for Sleeper {
    fn resume(&mut self, _env: &mut dyn Env, _input: Resume) -> StepOutcome {
        StepOutcome::Block(BlockingCall::Sleep { ns: 1e15 })
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// fork from a multi-threaded process: only the calling thread crosses.
#[derive(Clone)]
struct ForkFromPool {
    phase: u8,
}

impl Program for ForkFromPool {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match (self.phase, input) {
            (0, Resume::Start) => {
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(Sleeper)),
                })
            }
            (1, Resume::Ret(Ok(_))) => {
                self.phase = 2;
                StepOutcome::Fork
            }
            (2, Resume::Forked(ForkResult::Child)) => {
                env.cpu_ops(100);
                StepOutcome::Exit(0)
            }
            (2, Resume::Forked(ForkResult::Parent(_))) => {
                self.phase = 3;
                StepOutcome::Block(BlockingCall::Wait)
            }
            (3, Resume::Ret(Ok(_))) => StepOutcome::Exit(0),
            _ => StepOutcome::Exit(1),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Join on a tid that never existed: must error, not hang.
#[derive(Clone)]
struct BadJoin;
impl Program for BadJoin {
    fn resume(&mut self, _env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => StepOutcome::Block(BlockingCall::JoinThread { tid: 99 }),
            Resume::Ret(Err(_)) => StepOutcome::Exit(0),
            _ => StepOutcome::Exit(1),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Master forks a long-sleeping worker, kills it, reaps the SIGKILL code.
#[derive(Clone)]
struct KillDemo {
    phase: u8,
}

impl Program for KillDemo {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match (self.phase, input) {
            (0, Resume::Start) => {
                self.phase = 1;
                StepOutcome::Fork
            }
            (1, Resume::Forked(ForkResult::Child)) => {
                StepOutcome::Block(BlockingCall::Sleep { ns: 3.6e12 })
            }
            (1, Resume::Forked(ForkResult::Parent(c))) => {
                self.phase = 2;
                env.sys_kill(c).expect("kill");
                StepOutcome::Block(BlockingCall::Wait)
            }
            (2, Resume::Ret(Ok(status))) => {
                StepOutcome::Exit(if (status >> 32) as i32 == 137 { 0 } else { 1 })
            }
            _ => StepOutcome::Exit(1),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// The differential matrix.
// ---------------------------------------------------------------------------

fn fork_pattern_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "shell_fork_exec",
            cores: 1,
            time_limit: None,
            make: || {
                Box::new(Shell::new(vec![
                    Command {
                        output: "out/a.txt".into(),
                        ops: 1000,
                        code: 0,
                    },
                    Command {
                        output: "out/b.txt".into(),
                        ops: 2000,
                        code: 3,
                    },
                ]))
            },
        },
        Scenario {
            name: "fork_server",
            cores: 2,
            time_limit: None,
            make: || {
                Box::new(ForkServer::new(ForkServerConfig {
                    executions: 21,
                    crash_every: 7,
                    ..ForkServerConfig::default()
                }))
            },
        },
        Scenario {
            name: "privsep",
            cores: 1,
            time_limit: None,
            make: || {
                Box::new(Privsep::new(PrivsepConfig {
                    messages: 15,
                    hostile_every: 5,
                    ..PrivsepConfig::default()
                }))
            },
        },
        Scenario {
            name: "kill_demo",
            cores: 2,
            time_limit: None,
            make: || Box::new(KillDemo { phase: 0 }),
        },
    ]
}

fn thread_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "thread_pool_1core",
            cores: 1,
            time_limit: None,
            make: || {
                Box::new(PoolMain {
                    n: 6,
                    spawned: 0,
                    tids: Vec::new(),
                    joined: 0,
                })
            },
        },
        Scenario {
            name: "thread_pool_4core",
            cores: 4,
            time_limit: None,
            make: || {
                Box::new(PoolMain {
                    n: 6,
                    spawned: 0,
                    tids: Vec::new(),
                    joined: 0,
                })
            },
        },
        Scenario {
            name: "fork_from_pool_with_time_limit",
            cores: 2,
            time_limit: Some(1e9),
            make: || Box::new(ForkFromPool { phase: 0 }),
        },
        Scenario {
            name: "bad_join",
            cores: 1,
            time_limit: None,
            make: || Box::new(BadJoin),
        },
        Scenario {
            name: "mtkv_snapshot",
            cores: 2,
            time_limit: None,
            make: || {
                Box::new(MtKv::new(MtKvConfig {
                    workers: 4,
                    rounds: 8,
                    dump_path: "mtkv.snap".into(),
                }))
            },
        },
    ]
}

#[test]
fn engines_agree_on_fork_pattern_programs() {
    for s in fork_pattern_scenarios() {
        check_scenario(&s);
    }
}

#[test]
fn engines_agree_on_thread_programs() {
    for s in thread_scenarios() {
        check_scenario(&s);
    }
}

// ---------------------------------------------------------------------------
// Pipelined fork: the child runs INSIDE the background-copy window, so
// the checks must additionally cover copy-engine firings and
// demand-priority jumps interleaving with thread execution.
// ---------------------------------------------------------------------------

const TOUCH_PAGES: u64 = 80;
const TOUCH_PAGE: u64 = 4096;

/// Parent populates an 80-page heap and forks (pipelined). The child
/// strides across the heap while the copy engine streams it in — some
/// touches land on already-copied pages, some jump the queue — and the
/// parent dirties pages behind the window (CoW off the shared frames).
#[derive(Clone)]
struct PipeTouch {
    phase: u8,
    step: u64,
}

impl Program for PipeTouch {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match (self.phase, input) {
            (0, Resume::Start) => {
                let arr = env.malloc(TOUCH_PAGES * TOUCH_PAGE).expect("heap");
                for p in 0..TOUCH_PAGES {
                    env.store_u64(
                        &arr.with_addr(arr.base() + p * TOUCH_PAGE).expect("cursor"),
                        0xC0DE + p,
                    )
                    .expect("init");
                }
                env.set_reg(4, arr).expect("register");
                self.phase = 1;
                StepOutcome::Fork
            }
            (1, Resume::Forked(ForkResult::Child)) => {
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Yield)
            }
            (1, Resume::Forked(ForkResult::Parent(_))) => {
                self.phase = 3;
                StepOutcome::Block(BlockingCall::Yield)
            }
            (2, Resume::Ret(Ok(_))) => {
                // One scattered touch per step, yielding in between so
                // copy-engine firings interleave with the reads.
                let arr = env.reg(4).expect("heap register");
                let p = (self.step * 37 + 11) % TOUCH_PAGES;
                let v = env
                    .load_u64(&arr.with_addr(arr.base() + p * TOUCH_PAGE).expect("cursor"))
                    .expect("readable");
                if v != 0xC0DE + p {
                    return StepOutcome::Exit(1);
                }
                // Enough per-step work that the child outlives the
                // background stream: the window must CLOSE while the
                // child still runs, or no PipelineEvent is ever logged.
                env.cpu_ops(5000);
                self.step += 1;
                if self.step < 64 {
                    StepOutcome::Block(BlockingCall::Yield)
                } else {
                    StepOutcome::Exit(0)
                }
            }
            (3, Resume::Ret(Ok(_))) => {
                let arr = env.reg(4).expect("heap register");
                for p in (0..TOUCH_PAGES).step_by(5) {
                    env.store_u64(
                        &arr.with_addr(arr.base() + p * TOUCH_PAGE).expect("cursor"),
                        p,
                    )
                    .expect("writable");
                }
                self.phase = 4;
                StepOutcome::Block(BlockingCall::Wait)
            }
            (4, Resume::Ret(Ok(status))) => {
                StepOutcome::Exit(if (status >> 32) as i32 == 0 { 0 } else { 1 })
            }
            _ => StepOutcome::Exit(9),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Forks and reaps a throwaway child, then runs [`PipeTouch`]. The reaped
/// child's frames sit unscrubbed on the free stack while the parent
/// still holds memory, so under forced pressure the reclaim daemon has
/// passes to run beside the pipelined fork's copy engine and threads.
#[derive(Clone)]
struct ChurnThenTouch {
    reaped: bool,
    touch: PipeTouch,
}

impl Program for ChurnThenTouch {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        if self.reaped {
            return self.touch.resume(env, input);
        }
        match input {
            Resume::Start => StepOutcome::Fork,
            Resume::Forked(ForkResult::Child) => StepOutcome::Exit(0),
            Resume::Forked(ForkResult::Parent(_)) => StepOutcome::Block(BlockingCall::Wait),
            Resume::Ret(Ok(_)) => {
                self.reaped = true;
                self.touch.resume(env, Resume::Start)
            }
            _ => StepOutcome::Exit(8),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn engines_agree_on_pipelined_fork() {
    use ufork_repro::abi::CopyStrategy;
    use ufork_repro::ufork::WalkMode;
    let inputs = [1usize, 2, 4]
        .into_iter()
        .flat_map(|cores| [(cores, false), (cores, true)]);
    for (cores, daemon) in inputs {
        let h = {
            let mut os = UforkOs::new(UforkConfig {
                phys_mib: 256,
                strategy: CopyStrategy::Full,
                walk: WalkMode::Pipelined,
                reclaim_daemon: daemon,
                ..UforkConfig::default()
            });
            if daemon {
                // Hold the whole 256 MiB (65 536 frames) at elevated
                // pressure, as the pressure soak does, so reclaim passes
                // compete with copy firings and threads in one queue.
                os.set_pressure_watermarks(32_768, 65_536);
            }
            let touch = PipeTouch { phase: 0, step: 0 };
            let program: Box<dyn Program> = if daemon {
                Box::new(ChurnThenTouch {
                    reaped: false,
                    touch,
                })
            } else {
                Box::new(touch)
            };
            run_machine(
                os,
                &ImageSpec::with_heap("pipe-diff", TOUCH_PAGES * TOUCH_PAGE + 64 * 1024),
                cores,
                None,
                program,
            )
        };
        assert_eq!(h.exit_code, Some(0), "workload failed");
        assert!(
            !daemon || h.counters.reclaim_background > 0,
            "the reclaim daemon never ran ({cores} cores)"
        );
        assert!(
            !h.pipelines.is_empty(),
            "no background-copy window was opened and closed"
        );
        assert!(
            h.counters.pipeline_chunks_jumped > 0,
            "child touches never jumped the copy queue"
        );
        for (committed, done, pages) in &h.pipelines {
            assert!(
                done >= committed,
                "copy completed before its fork committed"
            );
            assert!(*pages > 0, "empty pipeline window was logged");
        }
    }
}

#[test]
fn engines_agree_across_core_counts() {
    // The same fork-heavy scenario swept over machine widths: the
    // checks must hold regardless of how many lanes exist.
    for cores in [1, 2, 4] {
        let s = Scenario {
            name: "fork_server_cores_sweep",
            cores,
            time_limit: None,
            make: || {
                Box::new(ForkServer::new(ForkServerConfig {
                    executions: 10,
                    ..ForkServerConfig::default()
                }))
            },
        };
        check_scenario(&s);
    }
}
