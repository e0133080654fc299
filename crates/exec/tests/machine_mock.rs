//! Machine/scheduler tests against the flat mock backend
//! (`common::FlatOs`), independent of any real kernel: scheduling order,
//! affinity, the big-kernel-lock model, blocking, time limits.

mod common;

use common::FlatOs;
use ufork_abi::{
    BlockingCall, Env, Errno, Fd, ForkResult, ImageSpec, Program, Resume, StepOutcome, SysResult,
};
use ufork_exec::{BlockedOn, Machine, MachineConfig, MAIN_TID};

/// Forks N burners then waits for all.
#[derive(Clone)]
struct FanOut {
    n: u32,
    forked: u32,
    burn: u64,
    is_child: bool,
}
impl Program for FanOut {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                self.forked = 1;
                StepOutcome::Fork
            }
            Resume::Forked(ForkResult::Child) => {
                self.is_child = true;
                env.cpu_ops(self.burn);
                StepOutcome::Exit(0)
            }
            Resume::Forked(ForkResult::Parent(_)) => {
                if self.forked < self.n {
                    self.forked += 1;
                    StepOutcome::Fork
                } else {
                    StepOutcome::Block(BlockingCall::Wait)
                }
            }
            Resume::Ret(Ok(_)) => {
                self.forked -= 1;
                if self.forked > 0 {
                    StepOutcome::Block(BlockingCall::Wait)
                } else {
                    StepOutcome::Exit(0)
                }
            }
            Resume::Ret(Err(_)) => StepOutcome::Exit(1),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn fanout(n: u32, burn: u64) -> Box<FanOut> {
    Box::new(FanOut {
        n,
        forked: 0,
        burn,
        is_child: false,
    })
}

#[test]
fn user_work_scales_across_cores() {
    // 4 children × 1M ops (0.8 ms each): on 1 core ≈ 3.2 ms of child
    // work serialized; on 4 cores ≈ 0.8 ms. No big lock.
    let run = |cores: usize| {
        let mut m = Machine::new(
            FlatOs::default(),
            MachineConfig {
                cores,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(&ImageSpec::hello_world(), fanout(4, 1_000_000))
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        m.now()
    };
    let t1 = run(1);
    let t4 = run(5); // 4 workers + the parent's core
    assert!(
        t1 > 2.0 * t4,
        "multicore must speed up independent user work: {t1} vs {t4}"
    );
}

#[test]
fn big_kernel_lock_serializes_kernel_portions() {
    // With huge fork costs (kernel time), the lock should not matter for
    // a single forker; compare pure-user scaling against both models.
    let run = |big_lock: bool| {
        let mut m = Machine::new(
            FlatOs {
                big_lock,
                ..FlatOs::default()
            },
            MachineConfig {
                cores: 4,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(&ImageSpec::hello_world(), fanout(8, 500_000))
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        m.now()
    };
    let unlocked = run(false);
    let locked = run(true);
    // The kernel work here (forks from one parent) is already serial, so
    // the lock costs little — but must never make things FASTER.
    assert!(locked >= unlocked * 0.99, "{locked} vs {unlocked}");
    assert!(locked < unlocked * 1.5, "lock overhead must stay bounded");
}

#[test]
fn affinity_restricts_cores() {
    // Pin the parent to core 0 and children to core 1: total time must be
    // (roughly) the serial sum of child work even on an 8-core machine.
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            cores: 8,
            child_affinity: Some(vec![1]),
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(&ImageSpec::hello_world(), fanout(4, 1_000_000))
        .unwrap();
    m.set_affinity(pid, vec![0]);
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    let serial_child_work = 4.0 * 1_000_000.0 * 0.8; // cpu_op = 0.8ns
    assert!(
        m.now() >= serial_child_work,
        "children pinned to one core cannot overlap: {} < {serial_child_work}",
        m.now()
    );
}

#[test]
fn sleep_advances_simulated_time() {
    #[derive(Clone)]
    struct Sleeper;
    impl Program for Sleeper {
        fn resume(&mut self, _env: &mut dyn Env, input: Resume) -> StepOutcome {
            match input {
                Resume::Start => StepOutcome::Block(BlockingCall::Sleep { ns: 5e6 }),
                _ => StepOutcome::Exit(0),
            }
        }
        fn clone_box(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(Sleeper))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    assert!(m.now() >= 5e6);
    assert!(m.now() < 6e6);
}

#[test]
fn time_limit_stops_scheduling() {
    #[derive(Clone)]
    struct Forever;
    impl Program for Forever {
        fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
            env.cpu_ops(1000);
            StepOutcome::Block(BlockingCall::Yield)
        }
        fn clone_box(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            time_limit: Some(1e6),
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(Forever))
        .unwrap();
    m.run(); // must terminate despite the infinite program
    assert!(!m.is_finished(pid), "program never exited");
    assert!(m.now() >= 1e6, "ran up to the limit");
    assert!(m.now() < 1.2e6, "but not much past it");
}

#[test]
fn wait_with_no_children_errors() {
    #[derive(Clone)]
    struct LoneWaiter;
    impl Program for LoneWaiter {
        fn resume(&mut self, _env: &mut dyn Env, input: Resume) -> StepOutcome {
            match input {
                Resume::Start => StepOutcome::Block(BlockingCall::Wait),
                Resume::Ret(Err(Errno::Child)) => StepOutcome::Exit(0),
                _ => StepOutcome::Exit(1),
            }
        }
        fn clone_box(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(LoneWaiter))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0), "ECHILD delivered");
}

#[test]
fn orphans_keep_running_after_parent_exit() {
    #[derive(Clone)]
    struct Abandoner {
        is_child: bool,
    }
    impl Program for Abandoner {
        fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
            match input {
                Resume::Start => StepOutcome::Fork,
                Resume::Forked(ForkResult::Child) => {
                    self.is_child = true;
                    // Outlive the parent.
                    StepOutcome::Block(BlockingCall::Sleep { ns: 1e6 })
                }
                Resume::Forked(ForkResult::Parent(_)) => StepOutcome::Exit(0), // no wait
                Resume::Ret(_) => {
                    env.cpu_ops(10);
                    StepOutcome::Exit(9)
                }
            }
        }
        fn clone_box(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(Abandoner { is_child: false }),
        )
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    // The orphan finished with its own code.
    let orphan = m
        .exit_log()
        .iter()
        .find(|e| e.pid != pid)
        .expect("orphan exited");
    assert_eq!(orphan.code, 9);
}

// ---------------------------------------------------------------------------
// Scheduler: reference checks, priorities, slices, blocked states.
// ---------------------------------------------------------------------------

/// A fan-out over three cores, with and without the big kernel lock.
/// Debug builds check every pick and every wakeup against the linear
/// reference (the full scheduler suite lives in
/// `tests/sched_differential.rs`; this is the mock-backend smoke).
#[test]
fn fanout_schedule_matches_the_reference_scan() {
    for big_lock in [false, true] {
        let mut m = Machine::new(
            FlatOs {
                big_lock,
                ..FlatOs::default()
            },
            MachineConfig {
                cores: 3,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(&ImageSpec::hello_world(), fanout(6, 100_000))
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0), "big_lock={big_lock}");
        assert_eq!(m.fork_log().len(), 6, "big_lock={big_lock}");
        assert_eq!(m.exit_log().len(), 7, "big_lock={big_lock}");
    }
}

#[test]
fn blocked_states_are_observable() {
    // Parent forks then waits; the child burns for a while. Step until
    // the parent parks and check what it reports being blocked on.
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), fanout(1, 1_000_000))
        .unwrap();
    while m.blocked_on(pid, MAIN_TID).is_none() {
        assert!(m.step(), "parent must park before the machine idles");
    }
    assert_eq!(m.blocked_on(pid, MAIN_TID), Some(BlockedOn::Wait));
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    assert_eq!(m.blocked_on(pid, MAIN_TID), None, "cleared on wake");
}

#[test]
fn cross_core_times_are_consistent() {
    // Forked children on other cores must never run before their fork
    // completed.
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            cores: 3,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(&ImageSpec::hello_world(), fanout(6, 100_000))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    for f in m.fork_log() {
        let exit = m
            .exit_log()
            .iter()
            .find(|e| e.pid == f.child)
            .expect("child exited");
        assert!(
            exit.at >= f.at + 100_000.0 * 0.8,
            "child {:?} exited at {} before fork-end {} plus its work",
            f.child,
            exit.at,
            f.at
        );
    }
}

/// The page of the mock buffer whose loads fault in the file-write tests.
const POISONED: u64 = 0x3000;

/// Writes to a ram-disk file: a good write, loads that fail on their
/// second page (an append and an overwrite inside the file), a write on
/// each fd afterwards to show where its offset stands, then writes to an
/// fd whose file was renamed away. Records each write's result and the
/// simulated time it took.
#[derive(Clone, Default)]
struct FileWriter {
    writes: Vec<(SysResult<u64>, f64)>,
}

impl FileWriter {
    fn write(&mut self, env: &mut dyn Env, fd: Fd, at: u64, len: u64) {
        let base = env.reg(0).unwrap();
        let buf = base.with_addr(base.addr() + at).unwrap();
        let t0 = env.now();
        let r = env.sys_write(fd, &buf, len);
        self.writes.push((r, env.now() - t0));
    }
}

impl Program for FileWriter {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        let pattern: Vec<u8> = (0..0x4000u32).map(|i| (i % 251) as u8 + 1).collect();
        env.store(&env.reg(0).unwrap(), &pattern).unwrap();
        let a = env.sys_open("f", true).unwrap();
        self.write(env, a, 0, 12_000);
        let b = env.sys_open("f", false).unwrap();
        self.write(env, a, POISONED - 4096, 8192); // append
        self.write(env, b, POISONED - 4096, 8192); // overwrite at 0
        self.write(env, a, 0, 16);
        self.write(env, b, 100, 4);
        let c = env.sys_open("f", false).unwrap();
        env.sys_rename("f", "g").unwrap();
        self.write(env, c, 0, 4096);
        self.write(env, c, POISONED - 4096, 8192);
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn file_write_is_all_or_nothing_and_charges_like_a_load_then_a_write() {
    let os = FlatOs {
        poisoned_page: Some(POISONED as usize),
        ..FlatOs::default()
    };
    let cost = os.cost.clone();
    let mut m = Machine::new(os, MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::<FileWriter>::default())
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    // The mock's syscall entry is 100 ns and its copy-in is free; a write
    // whose load succeeds adds the file-system charge.
    let entry = 100.0;
    let written = |len: f64| entry + cost.fs_op + cost.ramdisk_per_byte * len;
    let want = [
        (Ok(12_000), written(12_000.0)),
        (Err(Errno::Fault), entry),
        (Err(Errno::Fault), entry),
        (Ok(16), written(16.0)),
        (Ok(4), written(4.0)),
        // Renamed away: the load and the file-system charge still run
        // before `NoEnt`, and the load's own fault comes first.
        (Err(Errno::NoEnt), written(4096.0)),
        (Err(Errno::Fault), entry),
    ];
    let got = &m.program::<FileWriter>(pid).unwrap().writes;
    assert_eq!(got.len(), want.len());
    for (i, ((r, dt), (wr, wdt))) in got.iter().zip(&want).enumerate() {
        assert_eq!(r, wr, "write {i}");
        assert!(
            (dt - wdt).abs() < 1e-6,
            "write {i}: took {dt} ns, want {wdt}"
        );
    }
    // The failed append left the length and fd `a`'s offset alone: its
    // next 16 bytes land at 12 000. The failed overwrite left the bytes
    // and fd `b`'s offset alone: its next 4 bytes land at 0.
    let pattern: Vec<u8> = (0..0x4000u32).map(|i| (i % 251) as u8 + 1).collect();
    let mut file = pattern[..12_000].to_vec();
    file[..4].copy_from_slice(&pattern[100..104]);
    file.extend_from_slice(&pattern[..16]);
    assert_eq!(m.vfs().file_contents("g"), Some(&file[..]));
    assert!(m.vfs().file_contents("f").is_none());
}
