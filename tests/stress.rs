//! Stress/determinism property test: random programs over the full
//! machine + μFork kernel must always terminate, produce identical
//! results on re-run (determinism), and never breach isolation.
//!
//! Runs on the in-repo `ufork-testkit` harness (offline; default-on
//! `props` feature).
#![cfg(feature = "props")]

use std::any::Any;

use ufork_repro::abi::CopyStrategy;
use ufork_repro::abi::{BlockingCall, Env, ForkResult, ImageSpec, Program, Resume, StepOutcome};
use ufork_repro::exec::{Machine, MachineConfig};
use ufork_repro::ufork::{UforkConfig, UforkOs};
use ufork_testkit::{forall, shrink_vec, PropConfig, Rng};

/// The random program's instruction set. Each process executes the same
/// script but branches on fork results, giving tree-shaped executions.
#[derive(Clone, Copy, Debug)]
enum Instr {
    Compute(u16),
    Alloc(u16),
    WriteHeap(u16),
    StorePtr,
    LoadPtr,
    Fork,
    Sleep(u16),
    YieldNow,
    WriteFile,
}

fn gen_instr(rng: &mut Rng) -> Instr {
    match rng.below(9) {
        0 => Instr::Compute(rng.next_u64() as u16),
        1 => Instr::Alloc(rng.range(16, 2048) as u16),
        2 => Instr::WriteHeap(rng.next_u64() as u16),
        3 => Instr::StorePtr,
        4 => Instr::LoadPtr,
        5 => Instr::Fork,
        6 => Instr::Sleep(rng.range(1, 1000) as u16),
        7 => Instr::YieldNow,
        _ => Instr::WriteFile,
    }
}

#[derive(Clone)]
struct Script {
    instrs: Vec<Instr>,
    pc: usize,
    depth: u8,
    outstanding: u32,
}

const SLOT_REG: usize = 12;
const LAST_REG: usize = 13;

impl Script {
    fn new(instrs: Vec<Instr>) -> Script {
        Script {
            instrs,
            pc: 0,
            depth: 0,
            outstanding: 0,
        }
    }

    fn run_from(&mut self, env: &mut dyn Env) -> StepOutcome {
        while self.pc < self.instrs.len() {
            let i = self.instrs[self.pc];
            self.pc += 1;
            match i {
                Instr::Compute(n) => env.cpu_ops(u64::from(n)),
                Instr::Alloc(n) => {
                    if let Ok(c) = env.malloc(u64::from(n)) {
                        let _ = env.set_reg(LAST_REG, c);
                    }
                }
                Instr::WriteHeap(v) => {
                    if let Ok(c) = env.reg(LAST_REG) {
                        let at = c.with_addr(c.base()).expect("cursor");
                        let _ = env.store_u64(&at, u64::from(v));
                    }
                }
                Instr::StorePtr => {
                    if let (Ok(slotless), Ok(val)) = (env.malloc(16), env.reg(LAST_REG)) {
                        let at = slotless.with_addr(slotless.base()).expect("cursor");
                        if env.store_cap(&at, &val).is_ok() {
                            let _ = env.set_reg(SLOT_REG, slotless);
                        }
                    }
                }
                Instr::LoadPtr => {
                    if let Ok(slot) = env.reg(SLOT_REG) {
                        let at = slot.with_addr(slot.base()).expect("cursor");
                        if let Ok(Some(v)) = env.load_cap(&at) {
                            // Touch the target to exercise CoW/CoPA.
                            let t = v.with_addr(v.base()).expect("cursor");
                            let _ = env.load_u64(&t);
                        }
                    }
                }
                Instr::Fork if self.depth >= 2 => {}
                Instr::Fork => {
                    self.outstanding += 1;
                    return StepOutcome::Fork;
                }
                Instr::Sleep(ns) => {
                    return StepOutcome::Block(BlockingCall::Sleep { ns: f64::from(ns) })
                }
                Instr::YieldNow => return StepOutcome::Block(BlockingCall::Yield),
                Instr::WriteFile => {
                    if let Ok(c) = env.reg(LAST_REG) {
                        if let Ok(fd) = env.sys_open("stress.log", true) {
                            let at = c.with_addr(c.base()).expect("cursor");
                            let _ = env.sys_write(fd, &at, c.len().min(64));
                            let _ = env.sys_close(fd);
                        }
                    }
                }
            }
        }
        if self.outstanding > 0 {
            return StepOutcome::Block(BlockingCall::Wait);
        }
        StepOutcome::Exit(0)
    }
}

impl Program for Script {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => self.run_from(env),
            Resume::Forked(ForkResult::Child) => {
                self.depth += 1;
                self.outstanding = 0;
                // The child skips ahead a little (diverging executions).
                self.pc = (self.pc + 1).min(self.instrs.len());
                self.run_from(env)
            }
            Resume::Forked(ForkResult::Parent(_)) => self.run_from(env),
            Resume::Ret(Ok(_)) => {
                if self.pc >= self.instrs.len() {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    if self.outstanding > 0 {
                        return StepOutcome::Block(BlockingCall::Wait);
                    }
                    return StepOutcome::Exit(0);
                }
                self.run_from(env)
            }
            Resume::Ret(Err(_)) => {
                self.outstanding = self.outstanding.saturating_sub(1);
                self.run_from(env)
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

fn run_machine(
    instrs: &[Instr],
    strategy: CopyStrategy,
    cores: usize,
) -> (Option<i32>, f64, u64, u64, usize) {
    let os = UforkOs::new(UforkConfig {
        phys_mib: 128,
        strategy,
        ..UforkConfig::default()
    });
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(Script::new(instrs.to_vec())),
        )
        .unwrap();
    m.run();
    (
        m.exit_code(pid),
        m.now(),
        m.counters().forks,
        m.counters().isolation_violations,
        m.exit_log().len(),
    )
}

#[test]
fn random_programs_terminate_deterministically() {
    forall(
        "random_programs_terminate_deterministically",
        &PropConfig::from_env(48),
        |rng| {
            let n = rng.range(1, 24) as usize;
            let instrs: Vec<Instr> = (0..n).map(|_| gen_instr(rng)).collect();
            let strategy_ix = rng.below(3) as u8;
            let cores = rng.range(1, 4) as usize;
            (instrs, strategy_ix, cores)
        },
        |(instrs, ix, cores)| {
            shrink_vec(instrs)
                .into_iter()
                .map(|i| (i, *ix, *cores))
                .collect()
        },
        |(instrs, strategy_ix, cores)| {
            let strategy = match strategy_ix % 3 {
                0 => CopyStrategy::Full,
                1 => CopyStrategy::CoA,
                _ => CopyStrategy::CoPA,
            };
            let a = run_machine(instrs, strategy, *cores);
            let b = run_machine(instrs, strategy, *cores);
            // Terminates (run() returned) with the root exited; blocking
            // forever is impossible: the script always ends in Exit.
            if a.0 != Some(0) {
                return Err(format!("root must exit cleanly, got {:?}", a.0));
            }
            // Deterministic: identical timing, forks, and exits.
            if a.1 != b.1 {
                return Err(format!("end time not reproducible: {} vs {}", a.1, b.1));
            }
            if a.2 != b.2 || a.4 != b.4 {
                return Err("fork and exit counts not reproducible".into());
            }
            // Never an isolation violation from a well-behaved program.
            if a.3 != 0 {
                return Err(format!("{} isolation violations", a.3));
            }
            // All forked processes exited.
            if a.4 as u64 != a.2 + 1 {
                return Err(format!("{} exits for {} forks", a.4, a.2));
            }
            Ok(())
        },
    );
}

/// Fork-storm soak under memory pressure with `FallbackPolicy::Degrade`:
/// on a small machine, every fork must either succeed at the requested
/// strategy, succeed with a degraded strategy (visible in the
/// `forks_degraded` counter), or fail with a clean `NoMem` — never
/// anything else, and never a crash. Tearing the storm down must restore
/// the exact pre-storm frame count.
#[test]
fn fork_storm_under_pressure_degrades_then_fails_cleanly() {
    use ufork_repro::abi::{Errno, ImageSpec, Pid};
    use ufork_repro::exec::{Ctx, MemOs};
    use ufork_repro::mem::PAGE_SIZE;
    use ufork_repro::ufork::FallbackPolicy;

    const HEAP_PAGES: u64 = 16;
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 4,
        strategy: CopyStrategy::Full,
        fallback: FallbackPolicy::Degrade,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    let image = ImageSpec::with_heap("storm", HEAP_PAGES * PAGE_SIZE + 64 * 1024);
    os.spawn(&mut ctx, Pid(1), &image).unwrap();
    // A touched, capability-dense parent heap: Full forks are expensive,
    // so the ladder has real frame demand to degrade away from.
    let arr = os.malloc(&mut ctx, Pid(1), HEAP_PAGES * PAGE_SIZE).unwrap();
    for p in 0..HEAP_PAGES {
        let at = arr.with_addr(arr.base() + p * PAGE_SIZE).unwrap();
        os.store(&mut ctx, Pid(1), &at, &(0xBEEF + p).to_le_bytes())
            .unwrap();
        let slot = arr.with_addr(arr.base() + p * PAGE_SIZE + 64).unwrap();
        os.store_cap(&mut ctx, Pid(1), &slot, &at).unwrap();
    }
    let baseline = os.allocated_frames();

    let mut children = Vec::new();
    let mut hit_nomem = false;
    for n in 2..=1024u32 {
        match os.fork(&mut ctx, Pid(1), Pid(n)) {
            Ok(()) => children.push(Pid(n)),
            Err(Errno::NoMem) => {
                hit_nomem = true;
                break;
            }
            Err(e) => panic!("fork #{n} under pressure: expected Ok or NoMem, got {e:?}"),
        }
    }
    assert!(
        hit_nomem,
        "storm of {} forks never exhausted memory",
        children.len()
    );
    assert!(
        ctx.counters.forks_degraded > 0,
        "no fork degraded before exhaustion (storm size {})",
        children.len()
    );
    assert!(
        !children.is_empty(),
        "not a single fork fit before exhaustion"
    );
    // The refused fork left nothing behind.
    let (dangling, unaccounted) = os.audit_kernel();
    assert_eq!((dangling, unaccounted), (0, 0), "audit after refused fork");

    // Every surviving child is a real, readable process.
    let last = *children.last().unwrap();
    let c_root = os.reg(last, 0).unwrap();
    let p_root = os.reg(Pid(1), 0).unwrap();
    let delta = c_root.base() as i64 - p_root.base() as i64;
    let c_arr = arr.rebase(delta, &c_root).unwrap();
    let mut b = [0u8; 8];
    os.load(
        &mut ctx,
        last,
        &c_arr.with_addr(c_arr.base()).unwrap(),
        &mut b,
    )
    .unwrap();
    assert_eq!(u64::from_le_bytes(b), 0xBEEF, "child heap after storm");

    // Teardown releases every frame the storm took.
    for pid in children {
        os.destroy(&mut ctx, pid);
    }
    assert_eq!(
        os.allocated_frames(),
        baseline,
        "storm teardown did not restore the frame count"
    );
    assert_eq!(os.audit_kernel(), (0, 0), "audit after storm teardown");
    // And the parent still works.
    os.load(
        &mut ctx,
        Pid(1),
        &arr.with_addr(arr.base()).unwrap(),
        &mut b,
    )
    .unwrap();
    assert_eq!(u64::from_le_bytes(b), 0xBEEF, "parent heap after storm");
}

/// The same program observes the same OUTPUT (file contents) under every
/// copy strategy — strategies must be semantically invisible.
#[test]
fn strategies_agree_on_program_output() {
    forall(
        "strategies_agree_on_program_output",
        &PropConfig::from_env(48),
        |rng| {
            let n = rng.range(1, 20) as usize;
            (0..n).map(|_| gen_instr(rng)).collect::<Vec<Instr>>()
        },
        |instrs| shrink_vec(instrs),
        |instrs| {
            let mut dumps = Vec::new();
            for strategy in [CopyStrategy::Full, CopyStrategy::CoA, CopyStrategy::CoPA] {
                let os = UforkOs::new(UforkConfig {
                    phys_mib: 128,
                    strategy,
                    ..UforkConfig::default()
                });
                let mut m = Machine::new(os, MachineConfig::default());
                let pid = m
                    .spawn(
                        &ImageSpec::hello_world(),
                        Box::new(Script::new(instrs.clone())),
                    )
                    .unwrap();
                m.run();
                if m.exit_code(pid) != Some(0) {
                    return Err(format!("{strategy:?}: root exit {:?}", m.exit_code(pid)));
                }
                dumps.push(m.vfs().file_contents("stress.log").map(<[u8]>::to_vec));
            }
            if dumps[0] != dumps[1] {
                return Err("Full vs CoA output diverged".into());
            }
            if dumps[1] != dumps[2] {
                return Err("CoA vs CoPA output diverged".into());
            }
            Ok(())
        },
    );
}
