//! Deterministic fault injection around fork.
//!
//! Each scenario is a leg of the abort-point sweep ([`crate::sweep`]) on
//! the allocator's attempt counter: it fails exactly the N-th frame
//! allocation ([`UforkOs::inject_frame_alloc_failure`]) once per attempt
//! of the operation. A one-shot allocation failure is *transient*, so the
//! kernel must absorb it — the journal rolls the partial fork back, runs
//! a reclaim pass and retries (likewise the fault path's
//! reclaim-then-retry for lazy copies) — and the child must observe
//! exactly the values the prelude stored. Swept: every allocation of the
//! eager fork walk (all three strategies) and of lazy CoA-access / CoPA
//! tag-load fault resolution in the child.
//!
//! Region exhaustion is *not* transient — no amount of reclaim frees a
//! μprocess region — so that scenario demands a clean `Err(NoMem)`.

use std::fmt;

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, Errno, Pid};
use ufork_exec::{Ctx, MemOs};

use crate::driver::oracle_image;
use crate::sweep::{
    check_consistent, child_cap, fork, forked_prelude, frames_balanced, kernel, prelude, sweep,
    Counter, Leg,
};

/// What the campaign exercised (for reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Injection points replayed inside the eager fork walk.
    pub fork_walk_points: u64,
    /// Injection points replayed inside lazy child fault resolution.
    pub lazy_copy_points: u64,
    /// Forks driven into region exhaustion.
    pub region_exhaustion_forks: u64,
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fork-walk and {} lazy-copy allocation failures absorbed, {} forks up to \
             region exhaustion, which failed clean",
            self.fork_walk_points, self.lazy_copy_points, self.region_exhaustion_forks
        )
    }
}

const STRATEGIES: [CopyStrategy; 3] = [CopyStrategy::Full, CopyStrategy::CoA, CopyStrategy::CoPA];

/// Frame exhaustion at every allocation attempt of the eager fork walk:
/// the journal rolls the partial fork back, reclaims, and the retry
/// inside the kernel succeeds with a bit-correct child.
fn fork_walk_leg(strategy: CopyStrategy) -> Leg {
    Leg {
        check: |run| run.rolled_back(),
        retry: |run| run.child_reads(Pid(2), 0xA0),
        ..Leg::new(
            format!("fork-walk/{strategy:?}"),
            Counter::FrameAllocs,
            kernel(strategy, WalkMode::default()),
            prelude,
            fork,
        )
    }
}

/// Frame exhaustion inside the child's lazy fault resolution (CoA page
/// materialization / CoPA capability-load relocation): the fault path's
/// reclaim-then-retry absorbs it and the access sees the pre-fork value.
fn lazy_copy_leg(strategy: CopyStrategy) -> Leg {
    Leg::new(
        format!("lazy-copy/{strategy:?}"),
        Counter::FrameAllocs,
        kernel(strategy, WalkMode::default()),
        forked_prelude,
        |run| {
            if run.os.strategy() == CopyStrategy::CoA {
                // Any access faults.
                run.child_reads(Pid(2), 0xA0)?;
            } else {
                // The pointer granule is tagged, so loading it faults; it
                // points at slot 2, which holds 0xA2.
                let cc = child_cap(&run.os, Pid(2), &run.caps[0]).map_err(|e| run.err(e))?;
                let at = cc
                    .with_addr(cc.base() + 16)
                    .map_err(|e| run.err(format_args!("cursor: {e:?}")))?;
                let target = run
                    .os
                    .load_cap(&mut run.ctx, Pid(2), &at)
                    .map_err(|e| run.err(format_args!("load_cap: {e:?}")))?
                    .ok_or_else(|| run.err("pointer granule lost its tag"))?;
                run.reads(Pid(2), &target, 0xA2)?;
            }
            Ok(Vec::new())
        },
    )
}

/// Region exhaustion: a μprocess area sized for only a few regions makes
/// fork fail at region reservation; the failure must be clean.
fn region_exhaustion_campaign(summary: &mut FaultSummary) -> Result<(), String> {
    for strategy in STRATEGIES {
        let image = oracle_image();
        let region_len = ufork::ProcLayout::for_image(&image).region_len();
        let mut os = UforkOs::new(UforkConfig {
            // Room for the parent and a couple of children, not more.
            uproc_area_len: region_len * 4,
            ..kernel(strategy, WalkMode::default())
        });
        let mut ctx = Ctx::new();
        prelude(&mut os, &mut ctx)?;
        let mut forked = 0u32;
        let mut next = 2u32;
        loop {
            if next > 8 {
                return Err(format!(
                    "{strategy:?}: region exhaustion never hit in {forked} forks"
                ));
            }
            let frames_before = os.allocated_frames();
            match os.fork(&mut ctx, Pid(1), Pid(next)) {
                Ok(()) => {
                    forked += 1;
                    next += 1;
                }
                Err(Errno::NoMem) => {
                    let label = format!("{strategy:?} region exhaustion");
                    if os.region_of(Pid(next)).is_ok() {
                        return Err(format!("{label}: failed fork left child"));
                    }
                    frames_balanced(&os, frames_before, &label)?;
                    // The audit balances and the parent is still usable.
                    check_consistent(&mut os, &mut ctx, &label)?;
                    break;
                }
                Err(e) => return Err(format!("{strategy:?}: unexpected fork error {e:?}")),
            }
        }
        if forked == 0 {
            return Err(format!("{strategy:?}: no fork fit in the shrunken area"));
        }
        // Full teardown still releases everything.
        for pid in (1..next + 1).map(Pid) {
            if os.region_of(pid).is_ok() {
                os.destroy(&mut ctx, pid);
            }
        }
        frames_balanced(&os, 0, &format!("{strategy:?} region-exhaustion teardown"))?;
        summary.region_exhaustion_forks += u64::from(forked);
    }
    Ok(())
}

/// Runs the whole campaign; returns what was exercised.
pub fn fault_campaign() -> Result<FaultSummary, String> {
    let mut summary = FaultSummary::default();
    for strategy in STRATEGIES {
        summary.fork_walk_points += sweep(&fork_walk_leg(strategy))?;
    }
    for strategy in [CopyStrategy::CoA, CopyStrategy::CoPA] {
        summary.lazy_copy_points += sweep(&lazy_copy_leg(strategy))?;
    }
    region_exhaustion_campaign(&mut summary)?;
    Ok(summary)
}
