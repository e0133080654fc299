//! Machine/scheduler tests against a minimal mock backend, independent of
//! any real kernel: scheduling order, affinity, the big-kernel-lock
//! model, blocking, time limits.

use std::collections::BTreeMap;

use ufork_abi::{
    BlockingCall, Capability, Env, Errno, Fd, ForkResult, ImageSpec, IsolationLevel, Pid, Program,
    Resume, StepOutcome, SysResult,
};
use ufork_cheri::Perms;
use ufork_exec::{BlockedOn, Ctx, Machine, MachineConfig, MemOs, MAIN_TID};
use ufork_mem::MemStats;
use ufork_sim::CostModel;

/// A trivially simple backend: every process gets a flat 64 KiB buffer;
/// fork memcpys it. No page tables — pure machine testing. The one fault
/// it can raise is a load reaching the page at `poisoned_page` (an offset
/// into the buffer): like a real page-by-page load, the bytes before that
/// page are delivered first.
struct MockOs {
    cost: CostModel,
    big_lock: bool,
    procs: BTreeMap<Pid, (Vec<u8>, Vec<Option<Capability>>)>,
    poisoned_page: Option<usize>,
}

impl MockOs {
    fn new(big_lock: bool) -> MockOs {
        MockOs {
            cost: CostModel::morello(),
            big_lock,
            procs: BTreeMap::new(),
            poisoned_page: None,
        }
    }
}

const MOCK_LEN: u64 = 64 * 1024;

impl MemOs for MockOs {
    fn cost(&self) -> &CostModel {
        &self.cost
    }
    fn spawn(&mut self, _ctx: &mut Ctx, pid: Pid, _image: &ImageSpec) -> SysResult<()> {
        let mut regs = vec![None; 8];
        regs[0] = Some(Capability::new_root(
            u64::from(pid.0) << 20,
            MOCK_LEN,
            Perms::data(),
        ));
        self.procs.insert(pid, (vec![0; MOCK_LEN as usize], regs));
        Ok(())
    }
    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()> {
        ctx.kernel(self.cost.fork_fixed_ufork);
        let (mem, mut regs) = self.procs.get(&parent).ok_or(Errno::Inval)?.clone();
        regs[0] = Some(Capability::new_root(
            u64::from(child.0) << 20,
            MOCK_LEN,
            Perms::data(),
        ));
        self.procs.insert(child, (mem, regs));
        Ok(())
    }
    fn destroy(&mut self, _ctx: &mut Ctx, pid: Pid) {
        self.procs.remove(&pid);
    }
    fn load(&mut self, _c: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        let (mem, _) = self.procs.get(&pid).ok_or(Errno::Inval)?;
        let off = (cap.addr() & 0xf_ffff) as usize;
        let end = off + buf.len();
        if let Some(bad) = self.poisoned_page.filter(|&p| off < p + 4096 && p < end) {
            let good = bad.saturating_sub(off);
            buf[..good].copy_from_slice(&mem[off..off + good]);
            return Err(Errno::Fault);
        }
        buf.copy_from_slice(&mem[off..end]);
        Ok(())
    }
    fn store(&mut self, _c: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        let (mem, _) = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let off = (cap.addr() & 0xf_ffff) as usize;
        mem[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }
    fn load_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        Ok(None)
    }
    fn store_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
        _v: &Capability,
    ) -> SysResult<()> {
        Ok(())
    }
    fn malloc(&mut self, _c: &mut Ctx, pid: Pid, _len: u64) -> SysResult<Capability> {
        Ok(Capability::new_root(
            u64::from(pid.0) << 20,
            4096,
            Perms::data(),
        ))
    }
    fn mfree(&mut self, _c: &mut Ctx, _p: Pid, _cap: &Capability) -> SysResult<()> {
        Ok(())
    }
    fn reg(&self, pid: Pid, idx: usize) -> SysResult<Capability> {
        self.procs
            .get(&pid)
            .and_then(|(_, r)| r.get(idx).copied().flatten())
            .ok_or(Errno::Inval)
    }
    fn set_reg(&mut self, pid: Pid, idx: usize, cap: Capability) -> SysResult<()> {
        let (_, regs) = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        *regs.get_mut(idx).ok_or(Errno::Inval)? = Some(cap);
        Ok(())
    }
    fn shm_open(&mut self, _c: &mut Ctx, pid: Pid, _n: &str, len: u64) -> SysResult<Capability> {
        Ok(Capability::new_root(
            u64::from(pid.0) << 20,
            len,
            Perms::data(),
        ))
    }
    fn mmap_anon(&mut self, _c: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        Ok(Capability::new_root(
            u64::from(pid.0) << 20,
            len,
            Perms::data(),
        ))
    }
    fn syscall_entry_cost(&self) -> f64 {
        100.0
    }
    fn syscall_is_trap(&self) -> bool {
        false
    }
    fn ctx_switch_cost(&self, _f: Pid, _t: Pid) -> f64 {
        1000.0
    }
    fn big_kernel_lock(&self) -> bool {
        self.big_lock
    }
    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Fault
    }
    fn copyio_cost_per_byte(&self) -> f64 {
        0.0
    }
    fn mem_stats(&self, _pid: Pid) -> MemStats {
        MemStats::default()
    }
    fn allocated_frames(&self) -> u32 {
        self.procs.len() as u32 * 16
    }
    fn peak_frames(&self) -> u32 {
        self.allocated_frames()
    }
    fn audit_isolation(&self, _pid: Pid) -> usize {
        0
    }
}

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
            MockOs::new(false),
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
            MockOs::new(big_lock),
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
        MockOs::new(false),
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
    let mut m = Machine::new(MockOs::new(false), MachineConfig::default());
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
        MockOs::new(false),
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
    let mut m = Machine::new(MockOs::new(false), MachineConfig::default());
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
    let mut m = Machine::new(MockOs::new(false), MachineConfig::default());
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
            MockOs::new(big_lock),
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
    let mut m = Machine::new(MockOs::new(false), MachineConfig::default());
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
        MockOs::new(false),
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
    let mut os = MockOs::new(false);
    os.poisoned_page = Some(POISONED as usize);
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
