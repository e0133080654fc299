//! The one abort-point sweep behind the fault campaign ([`crate::fault`])
//! and the journal chaos sweep ([`crate::chaos`]).
//!
//! A [`Leg`] supplies an operation and the state it starts from. [`sweep`]
//! measures the operation's window — the frame allocation attempts or
//! journal ops it makes — on a clean reference run, then replays it once
//! per point of that window on a fresh kernel with a one-shot failure
//! armed there. After every point it runs, in order: the outcome check
//! (an allocation failure is transient, so it must be absorbed with an
//! inline reclaim pass; a journal abort is fatal, so it must surface once,
//! rolled back), [`Leg::check`], [`check_consistent`], [`Leg::retry`],
//! [`Leg::release`] and [`teardown_clean`]. The reference run ends with
//! the release and the teardown too.

use std::fmt::Display;

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, Errno, Pid, SysResult};
use ufork_cheri::Capability;
use ufork_exec::{Ctx, MemOs};

use crate::driver::oracle_image;

/// The kernel counter a window is measured on and a failure armed at.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    /// Frame-allocation attempts; the armed one fails with `NoMem`.
    FrameAllocs,
    /// Journal records; the armed one aborts its transaction.
    JournalOps,
}

impl Counter {
    fn read(self, os: &UforkOs) -> u64 {
        match self {
            Counter::FrameAllocs => os.frame_alloc_attempts(),
            Counter::JournalOps => os.journal_ops_recorded(),
        }
    }

    fn arm(self, os: &mut UforkOs, at: u64) {
        match self {
            Counter::FrameAllocs => os.inject_frame_alloc_failure(at),
            Counter::JournalOps => os.inject_journal_failure(at),
        }
    }
}

/// Builds the state an operation starts from; returns the heap slots.
pub(crate) type Prelude = fn(&mut UforkOs, &mut Ctx) -> Result<Vec<Capability>, String>;
/// The operation under test: returns the failures that surfaced.
pub(crate) type Op = fn(&mut Run) -> Result<Vec<Errno>, String>;
/// One step of a leg; `Err` names the broken check.
pub(crate) type Step = fn(&mut Run) -> Result<(), String>;

/// One operation under the sweep: its data, nothing of the loop.
pub(crate) struct Leg {
    /// Names the leg in every failure label.
    pub name: String,
    pub counter: Counter,
    pub config: UforkConfig,
    pub prelude: Prelude,
    pub op: Op,
    /// Checks the state the injected failure left.
    pub check: Step,
    /// Retries after the failure and checks the result.
    pub retry: Step,
    /// Releases what outlives the processes before teardown.
    pub release: Step,
}

impl Leg {
    /// A leg with no check, retry or release of its own.
    pub fn new(
        name: String,
        counter: Counter,
        config: UforkConfig,
        prelude: Prelude,
        op: Op,
    ) -> Leg {
        let pass: Step = |_| Ok(());
        Leg {
            name,
            counter,
            config,
            prelude,
            op,
            check: pass,
            retry: pass,
            release: pass,
        }
    }
}

/// One run of a leg: a fresh kernel after the leg's prelude.
pub(crate) struct Run {
    pub os: UforkOs,
    pub ctx: Ctx,
    pub caps: Vec<Capability>,
    pub label: String,
    /// Frames, rollbacks and inline reclaims before the operation.
    frames: u32,
    rollbacks: u64,
    reclaims: u64,
}

impl Run {
    fn new(leg: &Leg, label: String) -> Result<Run, String> {
        let mut os = UforkOs::new(leg.config.clone());
        let mut ctx = Ctx::new();
        let caps = (leg.prelude)(&mut os, &mut ctx).map_err(|e| format!("{label}: {e}"))?;
        Ok(Run {
            frames: os.allocated_frames(),
            rollbacks: ctx.counters.fork_rollbacks,
            reclaims: ctx.counters.reclaim_inline,
            os,
            ctx,
            caps,
            label,
        })
    }

    /// `msg`, prefixed with the run's label.
    pub fn err(&self, msg: impl Display) -> String {
        format!("{}: {msg}", self.label)
    }

    /// The frame-balance check: as many frames as before the operation.
    pub fn frames_balanced(&self) -> Result<(), String> {
        frames_balanced(&self.os, self.frames, &self.label)
    }

    /// The operation recorded a rollback.
    pub fn rolled_back(&self) -> Result<(), String> {
        (self.ctx.counters.fork_rollbacks > self.rollbacks)
            .then_some(())
            .ok_or_else(|| self.err("no rollback recorded"))
    }

    /// The child-value check: `child`'s view of the first heap slot reads
    /// `want` (after fork, the 0xA0 [`prelude`] stored there).
    pub fn child_reads(&mut self, child: Pid, want: u64) -> Result<(), String> {
        let cc = child_cap(&self.os, child, &self.caps[0]).map_err(|e| self.err(e))?;
        self.reads(child, &cc, want)
    }

    /// `pid` reads `want` through `cap`.
    pub fn reads(&mut self, pid: Pid, cap: &Capability, want: u64) -> Result<(), String> {
        let mut b = [0u8; 8];
        self.os
            .load(&mut self.ctx, pid, cap, &mut b)
            .map_err(|e| self.err(format_args!("pid {} read: {e:?}", pid.0)))?;
        match u64::from_le_bytes(b) {
            v if v == want => Ok(()),
            v => Err(self.err(format_args!(
                "pid {} sees {v:#x}, expected {want:#x}",
                pid.0
            ))),
        }
    }

    /// The outcome check: an allocation failure is absorbed with an
    /// inline reclaim pass, a journal abort surfaces once, rolled back.
    fn check_outcome(&self, counter: Counter, surfaced: &[Errno]) -> Result<(), String> {
        match counter {
            Counter::FrameAllocs if !surfaced.is_empty() => {
                Err(self.err(format_args!("failure not absorbed: {surfaced:?}")))
            }
            Counter::FrameAllocs if self.ctx.counters.reclaim_inline == self.reclaims => {
                Err(self.err("no reclaim pass recorded"))
            }
            Counter::FrameAllocs => Ok(()),
            Counter::JournalOps if surfaced.len() != 1 => {
                Err(self.err(format_args!("expected 1 surfaced abort, saw {surfaced:?}")))
            }
            Counter::JournalOps => self.rolled_back(),
        }
    }

    /// Step 5: the leg's release, then the leak-checked teardown.
    fn finish(mut self, leg: &Leg) -> Result<(), String> {
        (leg.release)(&mut self)?;
        teardown_clean(&mut self.os, &mut self.ctx, &self.label)
    }
}

/// Sweeps `leg`'s window; returns the number of points replayed.
pub(crate) fn sweep(leg: &Leg) -> Result<u64, String> {
    let mut reference = Run::new(leg, format!("{} reference", leg.name))?;
    let start = leg.counter.read(&reference.os);
    let surfaced = (leg.op)(&mut reference)?;
    if !surfaced.is_empty() {
        return Err(reference.err(format_args!("clean run surfaced {surfaced:?}")));
    }
    let end = leg.counter.read(&reference.os);
    if end == start {
        return Err(reference.err("window empty"));
    }
    reference.finish(leg)?;
    for point in start..end {
        let mut run = Run::new(leg, format!("{} point {point}", leg.name))?;
        leg.counter.arm(&mut run.os, point);
        let surfaced = (leg.op)(&mut run)?;
        run.check_outcome(leg.counter, &surfaced)?;
        (leg.check)(&mut run)?;
        check_consistent(&mut run.os, &mut run.ctx, &run.label)?;
        (leg.retry)(&mut run)?;
        run.finish(leg)?;
    }
    Ok(end - start)
}

/// The kernel every leg runs on: 256 MiB under `strategy` and `walk`.
pub(crate) fn kernel(strategy: CopyStrategy, walk: WalkMode) -> UforkConfig {
    UforkConfig {
        phys_mib: 256,
        strategy,
        walk,
        ..UforkConfig::default()
    }
}

/// Spawns `Pid(1)` and builds a fragmented heap with a pointer cycle:
/// seven allocations, every other one freed, capabilities chaining the
/// survivors. Returns the surviving slot capabilities.
pub(crate) fn prelude(os: &mut UforkOs, ctx: &mut Ctx) -> Result<Vec<Capability>, String> {
    let pid = Pid(1);
    os.spawn(ctx, pid, &oracle_image())
        .map_err(|e| format!("spawn: {e:?}"))?;
    let mut caps = Vec::new();
    for i in 0..7u64 {
        let c = os
            .malloc(ctx, pid, 512)
            .map_err(|e| format!("malloc#{i}: {e:?}"))?;
        os.store(ctx, pid, &c, &(0xA0 + i).to_le_bytes())
            .map_err(|e| format!("write#{i}: {e:?}"))?;
        caps.push(c);
    }
    // Chain: caps[i] granule 1 points at caps[(i+2) % 7].
    for i in 0..7usize {
        let at = caps[i]
            .with_addr(caps[i].base() + 16)
            .map_err(|e| format!("cursor#{i}: {e:?}"))?;
        os.store_cap(ctx, pid, &at, &caps[(i + 2) % 7])
            .map_err(|e| format!("store_cap#{i}: {e:?}"))?;
    }
    // Fragment the free list.
    for i in [1usize, 3, 5] {
        os.mfree(ctx, pid, &caps[i])
            .map_err(|e| format!("free#{i}: {e:?}"))?;
    }
    Ok(vec![caps[0], caps[2], caps[4], caps[6]])
}

/// [`prelude`], then a fork of `Pid(1)` into `Pid(2)`.
pub(crate) fn forked_prelude(os: &mut UforkOs, ctx: &mut Ctx) -> Result<Vec<Capability>, String> {
    let caps = prelude(os, ctx)?;
    os.fork(ctx, Pid(1), Pid(2))
        .map_err(|e| format!("fork: {e:?}"))?;
    Ok(caps)
}

/// The fork under test: `Pid(1)` into `Pid(2)`.
pub(crate) fn fork(run: &mut Run) -> Result<Vec<Errno>, String> {
    Ok(surfaced(run.os.fork(&mut run.ctx, Pid(1), Pid(2))))
}

/// The failure a call surfaced, if any.
pub(crate) fn surfaced<T>(r: SysResult<T>) -> Vec<Errno> {
    r.err().into_iter().collect()
}

/// Derives `child`'s view of a parent capability after fork.
pub(crate) fn child_cap(
    os: &UforkOs,
    child: Pid,
    parent_cap: &Capability,
) -> Result<Capability, String> {
    let p_root = os.reg(Pid(1), 0).map_err(|e| format!("p root: {e:?}"))?;
    let c_root = os.reg(child, 0).map_err(|e| format!("c root: {e:?}"))?;
    let delta = c_root.base() as i64 - p_root.base() as i64;
    parent_cap
        .rebase(delta, &c_root)
        .map_err(|e| format!("rebase: {e:?}"))
}

/// The frame-balance check: `os` holds exactly `before` frames.
pub(crate) fn frames_balanced(os: &UforkOs, before: u32, label: &str) -> Result<(), String> {
    let frames = os.allocated_frames();
    if frames == before {
        return Ok(());
    }
    Err(format!(
        "{label}: {} frames leaked ({before} -> {frames})",
        i64::from(frames) - i64::from(before)
    ))
}

/// Asserts the kernel is consistent and the parent intact after a
/// failure, absorbed or not.
pub(crate) fn check_consistent(os: &mut UforkOs, ctx: &mut Ctx, label: &str) -> Result<(), String> {
    audit(os, label)?;
    // Parent must still be fully usable.
    let c = os
        .malloc(ctx, Pid(1), 64)
        .map_err(|e| format!("{label}: parent malloc after failure: {e:?}"))?;
    os.store(ctx, Pid(1), &c, &[0x5A; 8])
        .map_err(|e| format!("{label}: parent write after failure: {e:?}"))?;
    os.mfree(ctx, Pid(1), &c)
        .map_err(|e| format!("{label}: parent free after failure: {e:?}"))?;
    Ok(())
}

/// Destroys the child and the parent, then requires zero frames alive
/// and a balanced audit.
pub(crate) fn teardown_clean(os: &mut UforkOs, ctx: &mut Ctx, label: &str) -> Result<(), String> {
    for pid in [Pid(2), Pid(1)] {
        if os.region_of(pid).is_ok() {
            os.destroy(ctx, pid);
        }
    }
    frames_balanced(os, 0, label)?;
    audit(os, label)
}

/// `audit_kernel` finds no dangling PTE and no unaccounted frame.
fn audit(os: &UforkOs, label: &str) -> Result<(), String> {
    match os.audit_kernel() {
        (0, 0) => Ok(()),
        (d, u) => Err(format!(
            "{label}: audit found {d} dangling PTEs, {u} unaccounted frames"
        )),
    }
}
