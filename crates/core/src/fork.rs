//! The μFork fork walk (paper §3.5).
//!
//! 1. **Admission** — fold the fork's frame demand out of its page plan
//!    and book it in the allocator's reservation ledger; under
//!    `FallbackPolicy::Degrade` the kernel downgrades `Full → CoA →
//!    CoPA` until the demand fits instead of failing.
//! 2. **Parent state duplication** — reserve a contiguous child region,
//!    copy the parent's PTEs so the child maps the same physical pages,
//!    proactively copy + relocate the GOT and the in-use allocator
//!    metadata, and arm the configured copy strategy on everything else.
//! 3. **Post-copy phase** — mint the child's root capability, relocate
//!    the register file, and hand the child to the scheduler (done by
//!    the executive).
//!
//! The parent's page table is read once per attempt. `fork_plan`
//! streams the parent's range and records every page's PTE with a
//! [`PageClass`] that does not depend on the strategy — shm, clean since
//! the last generation stamp, or private (and, if so, whether it holds
//! the GOT or live allocator metadata). Admission, the Degrade ladder's
//! density count, the walk and the dirty stamp all read that plan.
//!
//! Step 2 is one walk over the plan. The loop in `fork_walk_pages` maps
//! a private page to eager or lazy under the admitted strategy and
//! stages every shared page the same way (refcount bump, journaled, one
//! batched child PTE). Only eager pages depend on the [`WalkMode`], and
//! there are two executors for them: the inline one (`Serial`,
//! [`PageWriter::materialize`]: dedup probe, then share or copy +
//! relocate on the walking context — the same helper a pipelined
//! background chunk runs) and the lane executor (`Parallel(n)`,
//! `crate::fork_par`), fed with destination frames the walk allocates.
//! `Pipelined` stages eager pages on the shared parent frame and defers
//! their copies to background chunks (`crate::pipeline`). Every mode
//! ends in the same epilogue: the child's PTEs land in one sorted
//! [`ufork_vmem::PageTable::extend_sorted`] sweep, the parent's COW
//! protection in one [`ufork_vmem::PageTable::protect_many`] pass, and —
//! under dirty tracking — the generation stamp in one
//! [`ufork_vmem::PageTable::stamp_many`] pass, journaled from the plan.
//! [`ScanMode::Naive`] is a knob on the same loop: per-granule relocation
//! sweeps and a rebuilt, linearly scanned region list, always on the
//! inline executor.
//!
//! Every side effect the walk performs is recorded in the
//! transactional [`crate::journal`]: a failure at any point — frame
//! exhaustion, refcount overflow, injected journal abort — rolls the
//! kernel back to its exact pre-fork state ([`UforkOs::rollback_fork`]).
//! On memory exhaustion the kernel then runs a bounded
//! reclaim-then-retry loop (drain the recycled pools' deferred-zero
//! queues, charge a deterministic simulated backoff, re-attempt the
//! fork) before surfacing `NoMem`.

use ufork_abi::{CopyStrategy, Errno, Pid, SysResult};
use ufork_cheri::{Capability, Perms};
use ufork_exec::Ctx;
use ufork_mem::{content_hash, FrameDedupIndex, Pfn, PhysMem, PAGE_SIZE};
use ufork_sim::{CostModel, Instant, Phase};
use ufork_vmem::{PageTable, Pte, PteFlags, Region, VirtAddr, Vpn};

use crate::fork_par::{alloc_lane_frame, WalkMode};
use crate::journal::{FallbackPolicy, ForkJournal, JournalOp};
use crate::kernel::{UProc, UforkOs};
use crate::layout::Segment;
use crate::reloc::{relocate_counted, RelocTarget, ScanMode, SourceLookup, SourceMemo};
/// How much of the parent's address space a fork walks through the copy
/// machinery.
///
/// Under [`DirtySince`](CopyScope::DirtySince) only pages written since
/// the parent's last generation stamp are copied (or CoW/CoA-armed per
/// strategy); clean pages are shared outright — refcount bump plus CoW
/// protect, no frame allocation, no tag scan — making repeat forks from
/// a mostly-unchanged heap O(dirty) instead of O(heap). The child is
/// byte-identical either way: both arms reference the parent's
/// fork-time frames, the scope only decides *when* the private copy
/// materializes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyScope {
    /// Walk every mapped page (the classic fork; always sound).
    Everything,
    /// Copy only pages dirtied since parent generation `gen` (its PTEs'
    /// soft-dirty bit, or a generation mismatch from a remap). Sound
    /// only while `gen` is the parent's current stamp cursor;
    /// [`UforkOs::fork_scoped`] silently widens anything else to
    /// `Everything`.
    DirtySince(u32),
}

impl CopyScope {
    /// Is this page inside the copy scope (i.e. must it go through the
    /// full copy/arm machinery rather than the clean-share arm)?
    pub(crate) fn page_dirty(self, pte: &Pte) -> bool {
        match self {
            CopyScope::Everything => true,
            // A generation mismatch is conservatively dirty: remaps
            // reset the stamp, and an unstamped page has no history.
            CopyScope::DirtySince(gen) => pte.flags.contains(PteFlags::DIRTY) || pte.gen != gen,
        }
    }
}

/// Bounded reclaim-then-retry attempts after a rolled-back fork (and
/// after a rolled-back pipelined background chunk, which reuses the same
/// loop in `crate::pipeline`).
pub(crate) const MAX_FORK_RETRIES: u32 = 2;

/// Outcome classification for one fork attempt. `Retryable` failures
/// are memory exhaustion the reclaim loop may cure; `Fatal` ones (region
/// exhaustion, integrity faults, injected journal aborts) are not.
pub(crate) enum ForkFail {
    Retryable(Errno),
    Fatal(Errno),
}

impl UforkOs {
    /// Reads a `u64` from a μprocess' memory, kernel-side (no faults: the
    /// parent's own pages are always readable by the kernel).
    fn kread_u64(&self, va: u64) -> SysResult<u64> {
        let v = VirtAddr(va);
        let pte = self.pt.lookup(v.vpn()).ok_or(Errno::Fault)?;
        let mut b = [0u8; 8];
        self.pm
            .read(pte.pfn, v.page_offset(), &mut b)
            .map_err(|_| Errno::Fault)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Forks `parent` into `child`: one transactional attempt, retried
    /// after reclaim when it rolls back on memory exhaustion.
    pub(crate) fn fork_uproc(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        child: Pid,
        scope: CopyScope,
    ) -> SysResult<()> {
        self.retry_after_reclaim(ctx, |os, ctx| os.fork_attempt(ctx, parent, child, scope))
    }

    /// Runs `attempt` — one journaled transaction (a fork, or a
    /// pipelined background chunk) — until it succeeds or fails fatally.
    /// A retryable failure (memory exhaustion, already rolled back) is
    /// retried at most [`MAX_FORK_RETRIES`] times, each after an inline
    /// reclaim pass, so the retry schedule is a pure function of the
    /// failure sequence.
    pub(crate) fn retry_after_reclaim(
        &mut self,
        ctx: &mut Ctx,
        mut attempt: impl FnMut(&mut UforkOs, &mut Ctx) -> Result<(), ForkFail>,
    ) -> SysResult<()> {
        let mut retries = 0;
        loop {
            match attempt(self, ctx) {
                Ok(()) => return Ok(()),
                Err(ForkFail::Fatal(e)) => return Err(e),
                Err(ForkFail::Retryable(e)) => {
                    if retries >= MAX_FORK_RETRIES {
                        return Err(e);
                    }
                    retries += 1;
                    ctx.phase(Phase::ForkReclaim);
                    self.reclaim_inline(ctx);
                }
            }
        }
    }

    /// One inline reclaim pass: drains the recycled pools' deferred-zero
    /// queues (the one reclaim the simulation models) and charges a
    /// deterministic backoff plus the scrubbing.
    pub(crate) fn reclaim_inline(&mut self, ctx: &mut Ctx) {
        let scrubbed = self.pm.reclaim_pass();
        let backoff = self.cost.reclaim_backoff + self.cost.zero_page * scrubbed as f64;
        ctx.kernel(backoff);
        ctx.counters.reclaim_inline += 1;
        ctx.counters.fork_backoff_ns += backoff as u64;
    }

    /// One transactional fork attempt. On `Err` the journal has been
    /// rolled back: the kernel is exactly as before the attempt.
    fn fork_attempt(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        child: Pid,
        scope: CopyScope,
    ) -> Result<(), ForkFail> {
        debug_assert_eq!(self.journal.len(), 0, "journal must be empty between forks");
        // Fixed path: task struct, PID allocation, fd duplication hooks,
        // thread creation, scheduler insertion (paper §3.5 step 2).
        ctx.phase(Phase::ForkFixed);
        ctx.kernel(self.cost.fork_fixed_ufork);

        let (p_region, layout, p_regs, p_shm_next, p_mmap_next) = {
            let p = self.proc(parent).map_err(ForkFail::Fatal)?;
            (
                p.region,
                p.layout.clone(),
                p.regs.clone(),
                p.shm_next,
                p.mmap_next,
            )
        };

        // The attempt's one read of the parent's page table.
        let plan = self
            .fork_plan(p_region, &layout, scope)
            .map_err(ForkFail::Fatal)?;

        // Admission control: fold the frame demand out of the plan and
        // book the reservation (possibly degrading the strategy) before
        // any side effect that would need unwinding.
        let strategy = self.admit_fork(ctx, &plan)?;

        // Reserve the child's contiguous region.
        ctx.phase(Phase::ForkRegion);
        let c_region = match self.regions.alloc(layout.region_len()) {
            Ok(r) => r,
            Err(_) => {
                // Region exhaustion is not curable by frame reclaim.
                self.rollback_fork(ctx);
                let _ = self.journal.take_injected();
                return Err(ForkFail::Fatal(Errno::NoMem));
            }
        };
        if self
            .journal
            .record(JournalOp::RegionAlloc(c_region))
            .is_err()
        {
            return Err(self.abort_fork(ctx, Errno::NoMem));
        }
        let c_root = Capability::new_root(c_region.base.0, layout.region_len(), Perms::data());
        debug_assert!(!c_root.perms().contains(Perms::SYSTEM));

        let deferred =
            match self.fork_walk_pages(ctx, parent, c_region, &c_root, plan, strategy, scope) {
                Ok(deferred) => deferred,
                Err(e) => return Err(self.abort_fork(ctx, e)),
            };

        // Relocate the register file (paper §3.5 step 2: "any absolute
        // memory references contained in registers are relocated").
        ctx.phase(Phase::ForkRegs);
        let mut c_regs = p_regs;
        let source = SourceLookup::new(self.scan, &self.region_index, || self.source_regions());
        let mut memo = SourceMemo::default();
        for slot in c_regs.iter_mut() {
            if let Some(cap) = slot {
                if cap.confined_to(c_region.base.0, c_region.len) {
                    continue;
                }
                ctx.counters.region_lookups += 1;
                if let Some(delta) = memo.delta(cap.base(), c_region.base.0, |a| source.lookup(a)) {
                    match cap.rebase(delta, &c_root) {
                        Ok(new_cap) => {
                            *slot = Some(new_cap);
                            ctx.counters.caps_relocated += 1;
                        }
                        Err(_) => *slot = None,
                    }
                } else if cap.perms().contains(Perms::EXECUTE) {
                    // PCC-style register: rebase code caps by region offset.
                    let delta = c_region.base.0 as i64 - p_region.base.0 as i64;
                    if let Some(addr) = cap.addr().checked_add_signed(delta) {
                        let code_root =
                            Capability::new_root(c_region.base.0, layout.text.1, Perms::code());
                        *slot = code_root.with_addr(addr).ok();
                    }
                }
                ctx.kernel(self.cost.cap_relocate);
            }
        }

        ctx.phase(Phase::ForkCommit);
        self.procs.insert(
            child,
            UProc {
                region: c_region,
                layout,
                root: c_root,
                regs: c_regs,
                shm_next: p_shm_next,
                mmap_next: p_mmap_next,
                had_children: false,
                dirty_gen: 0,
                dirty_tracked: false,
            },
        );
        if self.journal.record(JournalOp::ProcInsert(child)).is_err() {
            return Err(self.abort_fork(ctx, Errno::NoMem));
        }
        self.region_index.insert(c_region);
        if self
            .journal
            .record(JournalOp::IndexInsert(c_region))
            .is_err()
        {
            return Err(self.abort_fork(ctx, Errno::NoMem));
        }
        if let Some(p) = self.procs.get_mut(&parent) {
            p.had_children = true;
        }
        self.commit_fork(ctx, child, c_region, c_root, deferred);
        Ok(())
    }

    /// Rolls back the in-flight fork (or pipelined background chunk) and
    /// classifies the failure: injected journal aborts and non-memory
    /// faults are fatal; `NoMem` is retryable (the reclaim loop may cure
    /// it).
    pub(crate) fn abort_fork(&mut self, ctx: &mut Ctx, e: Errno) -> ForkFail {
        self.rollback_fork(ctx);
        if self.journal.take_injected() {
            ForkFail::Fatal(e)
        } else if e == Errno::NoMem {
            ForkFail::Retryable(e)
        } else {
            ForkFail::Fatal(e)
        }
    }

    /// Commits the in-flight fork: the journal is cleared and the
    /// admission reservation handed back (the walk's allocations have
    /// long consumed the promised frames).
    ///
    /// A pipelined fork commits with `deferred` pages still uncopied. So
    /// admission stays sound across the background window, the
    /// reservation is *not* fully released: one promised frame per
    /// deferred page stays booked in the ledger, carried by the child's
    /// [`crate::pipeline::PipelineState`] and released chunk by chunk as
    /// the background copies consume it.
    fn commit_fork(
        &mut self,
        ctx: &mut Ctx,
        child: Pid,
        c_region: Region,
        c_root: Capability,
        deferred: Vec<(Vpn, PteFlags)>,
    ) {
        let (ops, reserved) = self.journal.commit();
        ctx.counters.journal_ops += ops;
        if deferred.is_empty() {
            self.pm.release(reserved);
            return;
        }
        let behind = deferred.len() as u64;
        let hold = behind.min(reserved);
        self.pm.release(reserved - hold);
        ctx.counters.pipeline_bytes_behind += behind * PAGE_SIZE;
        ctx.instant(Instant::ForkPipelineCommit);
        self.pipelines.insert(
            child,
            crate::pipeline::PipelineState::new(c_region, c_root, deferred, hold),
        );
    }

    /// Applies the journal's inverses in reverse record order, returning
    /// the kernel to its exact pre-fork state: child frames freed,
    /// shared refcounts restored, staged PTEs unmapped, parent COW
    /// arming reverted, region and process-table entries removed, the
    /// admission reservation released.
    pub(crate) fn rollback_fork(&mut self, ctx: &mut Ctx) {
        ctx.phase(Phase::ForkRollback);
        let ops = self.journal.take_ops();
        ctx.counters.journal_ops += ops.len() as u64;
        ctx.counters.fork_rollbacks += 1;
        let mut ns = 0.0;
        for op in ops.into_iter().rev() {
            match op {
                JournalOp::ReserveFrames(n) => self.pm.release(n),
                JournalOp::RegionAlloc(r) => {
                    let _ = self.regions.free(r);
                }
                // Frame references are owned by these two records;
                // `PteMap` below therefore unmaps without dec_ref.
                JournalOp::FrameAlloc(pfn) | JournalOp::RefInc(pfn) => {
                    let _ = self.pm.dec_ref(pfn);
                }
                JournalOp::PteMap(vpn) => {
                    self.pt.unmap(vpn);
                    ns += self.cost.pte_write;
                }
                JournalOp::CowArm(vpn) => {
                    // Only recorded for PTEs not already armed, so
                    // clearing restores the exact pre-fork flags.
                    if let Some(p) = self.pt.lookup_mut(vpn) {
                        p.flags = p.flags.without(PteFlags::COW);
                    }
                    ns += self.cost.pte_protect;
                }
                JournalOp::IndexInsert(r) => {
                    self.region_index.remove(r);
                }
                JournalOp::ProcInsert(pid) => {
                    self.procs.remove(&pid);
                }
                JournalOp::PteRemap { vpn, old } => {
                    // Restore the exact pre-rewrite PTE — including its
                    // generation stamp, which `map` would reset. A no-op
                    // when the rewrite never applied (record-then-apply).
                    self.pt.extend_sorted([(vpn, old)]);
                    ns += self.cost.pte_write;
                }
                JournalOp::RefDec(pfn) => {
                    // Re-take the fork-time shared reference the chunk
                    // dropped. The frame cannot have been freed: the
                    // chunk only decrements refcounts it observed ≥ 2,
                    // so another mapping still holds the frame.
                    let _ = self.pm.inc_ref(pfn);
                }
                JournalOp::DirtyStamp {
                    vpn,
                    old_gen,
                    was_dirty,
                    had_cow,
                } => {
                    // Rewrite the exact pre-stamp generation state.
                    // Idempotent when the stamp never applied
                    // (record-then-apply): every restored value is then
                    // already in place.
                    if let Some(p) = self.pt.lookup_mut(vpn) {
                        p.gen = old_gen;
                        p.flags = if was_dirty {
                            p.flags.with(PteFlags::DIRTY)
                        } else {
                            p.flags.without(PteFlags::DIRTY)
                        };
                        if !had_cow {
                            p.flags = p.flags.without(PteFlags::COW);
                        }
                    }
                    ns += self.cost.pte_protect;
                }
                JournalOp::DirtyTrack {
                    pid,
                    old_gen,
                    old_tracked,
                } => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.dirty_gen = old_gen;
                        p.dirty_tracked = old_tracked;
                    }
                }
                JournalOp::FrameScrub(pfn) => {
                    // Drop the frame back off the magazine; the zeroed
                    // content stays (safe either way — an unscrubbed
                    // flag only means the next grant re-zeroes).
                    let _ = self.pm.unscrub_frame(pfn);
                }
            }
        }
        ctx.kernel(ns);
    }

    /// Admission control (tentpole of the robustness layer): fold the
    /// fork's frame demand out of `plan`, book it in the allocator's
    /// reservation ledger, and — under [`FallbackPolicy::Degrade`] —
    /// downgrade the strategy `Full → CoA → CoPA` until the demand fits.
    fn admit_fork(
        &mut self,
        ctx: &mut Ctx,
        plan: &[PlannedPage],
    ) -> Result<CopyStrategy, ForkFail> {
        if self.fallback == FallbackPolicy::Disabled {
            return Ok(self.strategy);
        }
        ctx.phase(Phase::ForkAdmission);
        ctx.kernel(self.cost.admission_check);
        let requested = self.strategy;
        let (private, pinned) = plan_demand(plan);
        let demand = Self::immediate_demand(requested, private, pinned);
        if self.pm.reserve(demand).is_ok() {
            if self
                .journal
                .record(JournalOp::ReserveFrames(demand))
                .is_err()
            {
                return Err(self.abort_fork(ctx, Errno::NoMem));
            }
            return Ok(requested);
        }
        if self.fallback == FallbackPolicy::Strict {
            // Nothing staged yet: no rollback needed, and frame reclaim
            // cannot conjure capacity, so the failure is final.
            return Err(ForkFail::Fatal(Errno::NoMem));
        }
        // Degrade ladder. The cheaper strategies' immediate demand is
        // their eager pages plus a near-term lazy-copy estimate: CoA
        // faults on *any* child access (assume half the lazy pages copy
        // soon), CoPA only on writes and tagged loads — the tag-summary
        // bitmaps bound that by the capability-dense page count, a
        // tag-summary read per private page of the plan.
        let cap_dense = plan
            .iter()
            .filter(|p| {
                matches!(p.class, PageClass::Private { .. })
                    && self.pm.frame(p.pte.pfn).is_ok_and(|f| f.cap_count() > 0)
            })
            .count() as u64;
        ctx.kernel(self.cost.tags_load * 4.0 * private as f64);
        let lazy = private - pinned;
        let ladder = [
            (CopyStrategy::CoA, pinned + lazy / 2),
            (CopyStrategy::CoPA, pinned + cap_dense.min(lazy)),
        ];
        for (cand, est) in ladder {
            if Self::degrade_rank(cand) <= Self::degrade_rank(requested) {
                continue;
            }
            if self.pm.reserve(est).is_ok() {
                if self.journal.record(JournalOp::ReserveFrames(est)).is_err() {
                    return Err(self.abort_fork(ctx, Errno::NoMem));
                }
                ctx.counters.forks_degraded += 1;
                ctx.instant(Instant::ForkDegrade);
                return Ok(cand);
            }
        }
        Err(ForkFail::Fatal(Errno::NoMem))
    }

    /// Position in the degradation ladder (higher = cheaper at fork).
    fn degrade_rank(s: CopyStrategy) -> u8 {
        match s {
            CopyStrategy::Full => 0,
            CopyStrategy::CoA => 1,
            CopyStrategy::CoPA => 2,
        }
    }

    /// Frames a fork must allocate up front: every private page under
    /// `Full`, only the pinned (GOT and live allocator-metadata) pages
    /// under the lazy strategies.
    fn immediate_demand(strategy: CopyStrategy, private: u64, pinned: u64) -> u64 {
        match strategy {
            CopyStrategy::Full => private,
            CopyStrategy::CoA | CopyStrategy::CoPA => pinned,
        }
    }

    /// The fork's one read of the parent's page table: every mapped page
    /// of `p_region` in ascending order, with its PTE and a
    /// strategy-independent [`PageClass`]. Admission, the walk and the
    /// dirty stamp all read this plan instead of the page table.
    fn fork_plan(
        &self,
        p_region: Region,
        layout: &crate::ProcLayout,
        scope: CopyScope,
    ) -> SysResult<Vec<PlannedPage>> {
        // How much allocator metadata is live: pinned, like the GOT,
        // while eager fork copies are on (§3.5).
        let meta_header = p_region.base.0 + layout.heap_meta.0;
        let blocks_used = self.kread_u64(meta_header + 16)?;
        let meta_used = 64 + blocks_used * crate::layout::BLOCK_DESC_BYTES;
        let eager_meta = self.eager_fork_copies.then_some(meta_used);
        let start = p_region.base.vpn();
        let end = Vpn(p_region.top().0.div_ceil(PAGE_SIZE));
        Ok(self
            .pt
            .range(start, end)
            .map(|(vpn, pte)| {
                let off = vpn.base().0 - p_region.base.0;
                let seg = layout.segment_of(off);
                let class = if seg == Segment::Shm {
                    PageClass::Shm
                } else if !scope.page_dirty(&pte) {
                    PageClass::Clean
                } else {
                    let pinned = match (seg, eager_meta) {
                        (Segment::Got, Some(_)) => true,
                        (Segment::HeapMeta, Some(used)) => off - layout.heap_meta.0 < used,
                        _ => false,
                    };
                    PageClass::Private { pinned }
                };
                PlannedPage {
                    vpn,
                    off,
                    pte,
                    seg,
                    class,
                }
            })
            .collect())
    }

    /// The fork walk: one pass over the fork's `plan` that maps (and,
    /// where the strategy requires, copies and relocates) every page
    /// into the child region, recording every side effect in the
    /// journal. On `Err` nothing has been cleaned up yet — the caller
    /// rolls the journal back.
    ///
    /// A private page is eager under `Full` or when pinned, lazy
    /// otherwise; shared pages all go through
    /// [`PageWriter::stage_shared`]. Only eager pages consult the walk
    /// mode: `Serial` materializes them inline
    /// ([`PageWriter::materialize`]), `Parallel(n)` allocates their
    /// destinations here and hands the copies to the lane executor after
    /// the stream, and `Pipelined` stages them on the shared parent frame
    /// and defers the copy behind the commit. The naive scan ablation
    /// always copies inline. Every mode ends in the same batched PTE
    /// install, parent CoW sweep and — under dirty tracking — generation
    /// stamp.
    ///
    /// Returns the pages whose copies were *deferred* behind the commit:
    /// empty except under [`WalkMode::Pipelined`]. Under
    /// [`CopyScope::DirtySince`] the deferred list holds only dirty
    /// pages, so the background window drains in O(dirty) too.
    #[allow(clippy::too_many_arguments)] // the fork attempt's full context
    fn fork_walk_pages(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        c_region: Region,
        c_root: &Capability,
        mut plan: Vec<PlannedPage>,
        strategy: CopyStrategy,
        scope: CopyScope,
    ) -> SysResult<Vec<(Vpn, PteFlags)>> {
        // Lanes and background chunks implement only the tag-summary
        // scan, so the naive ablation copies inline whatever the mode.
        let walk = if self.scan == ScanMode::Naive {
            WalkMode::Serial
        } else {
            self.walk
        };
        let validates = self.isolation.validates_syscalls();

        // Staged child PTEs, produced in ascending page order by the
        // plan; inserted in one batch on success only.
        let mut batch: Vec<(Vpn, Pte)> = Vec::new();
        // Parent pages to flip to COW in one protection sweep at the end.
        let mut cow_arm: Vec<Vpn> = Vec::new();
        // Pipelined only: pages staged on the shared frame whose copies
        // run behind the commit, in walk (ascending-VPN) order.
        let mut deferred: Vec<(Vpn, PteFlags)> = Vec::new();
        // Parallel only: `(source, destination)` frames of the copies
        // the lane executor runs after the stream.
        let mut lane_pages: Vec<(Pfn, Pfn)> = Vec::new();

        let source = SourceLookup::new(self.scan, &self.region_index, || self.source_regions());
        {
            // Split borrows: frames are copied through `pm` (mutable)
            // and effects land in `journal` (mutable) while the dedup
            // probe reads `pt`, which is only written after the loop.
            let target = RelocTarget {
                region: c_region,
                root: c_root,
                source: &source,
                mode: self.scan,
            };
            let cost = &self.cost;
            let mut writer = PageWriter {
                pm: &mut self.pm,
                pt: &self.pt,
                journal: &mut self.journal,
                dedup: self.dedup_frames.then_some(&mut self.dedup),
                cost,
                target: &target,
                copy_phase: Phase::ForkWalkCopy,
                reloc_phase: Phase::ForkWalkReloc,
            };

            for page in plan.iter_mut() {
                ctx.phase(Phase::ForkWalkPte);
                let pte = page.pte;
                let c_vpn = VirtAddr(c_region.base.0 + page.off).vpn();
                let final_flags = Self::seg_flags(page.seg);
                if scope != CopyScope::Everything && matches!(page.class, PageClass::Private { .. })
                {
                    ctx.counters.pages_dirty_copied += 1;
                }

                // Does the child keep reading the parent's frame (so the
                // parent's writable mapping must turn copy-on-write)?
                let shares_parent_frame = match page.class {
                    PageClass::Shm => {
                        // Shared mappings stay shared: same frames, full perms.
                        let child = Pte::new(pte.pfn, final_flags);
                        writer.stage_shared(&mut batch, ctx, c_vpn, child, cost.pte_copy)?;
                        false
                    }
                    PageClass::Clean => {
                        // No frame allocation, no tag scan: a refcount
                        // bump and one staged PTE, armed like a lazy page
                        // even under `Full` (clean pages still hold the
                        // *parent's* capabilities, so direct cap loads
                        // must stay fenced).
                        let child = Pte::new(pte.pfn, lazy_child_flags(strategy, final_flags));
                        writer.stage_shared(&mut batch, ctx, c_vpn, child, cost.pte_copy)?;
                        ctx.counters.pages_shared_clean += 1;
                        true
                    }
                    PageClass::Private { pinned } if strategy != CopyStrategy::Full && !pinned => {
                        // Lazy: shared with the strategy's faults armed.
                        let ns = if strategy == CopyStrategy::CoA {
                            cost.pte_copy + cost.coa_pte_extra
                        } else {
                            cost.pte_copy
                        };
                        let child = Pte::new(pte.pfn, lazy_child_flags(strategy, final_flags));
                        writer.stage_shared(&mut batch, ctx, c_vpn, child, ns)?;
                        true
                    }
                    PageClass::Private { .. } => match walk {
                        WalkMode::Pipelined => {
                            // Stage, don't copy: the child maps the shared
                            // frame CoA-style (any access faults and jumps
                            // the copy queue), the parent is CoW-armed so
                            // its writes cannot perturb the fork-time
                            // snapshot, and the copy + relocation runs as
                            // a background chunk after the commit.
                            ctx.phase(Phase::ForkPipelineStage);
                            let child =
                                Pte::new(pte.pfn, lazy_child_flags(CopyStrategy::CoA, final_flags));
                            let ns = cost.pte_copy + cost.coa_pte_extra;
                            writer.stage_shared(&mut batch, ctx, c_vpn, child, ns)?;
                            deferred.push((c_vpn, final_flags));
                            true
                        }
                        WalkMode::Parallel(_) => {
                            let dst = alloc_lane_frame(
                                writer.pm,
                                writer.journal,
                                ctx,
                                lane_pages.len(),
                                walk.workers(),
                            )?;
                            batch.push((c_vpn, Pte::new(dst, final_flags)));
                            lane_pages.push((pte.pfn, dst));
                            false
                        }
                        WalkMode::Serial => {
                            if writer.dedup.is_none() {
                                ctx.phase(Phase::ForkWalkCopy);
                            }
                            let made =
                                writer.materialize(ctx, pte.pfn, &batch, c_vpn, final_flags)?;
                            ctx.phase(Phase::ForkWalkPte);
                            batch.push((c_vpn, Pte::new(made.pfn, made.flags)));
                            ctx.kernel(cost.pte_write);
                            if made.hit {
                                ctx.counters.frames_deduped += 1;
                            } else {
                                if validates {
                                    // Adversarial deployments re-verify every
                                    // relocated capability against the child's
                                    // bounds before the page becomes visible
                                    // (the fork-latency component of
                                    // TOCTTOU/validation, ~2.6% in the paper).
                                    ctx.kernel(cost.page_scan() + cost.tocttou_fixed);
                                }
                                ctx.counters.pages_copied_eager += 1;
                            }
                            false
                        }
                    },
                };
                if shares_parent_frame
                    && final_flags.contains(PteFlags::WRITE)
                    && !pte.flags.contains(PteFlags::COW)
                {
                    cow_arm.push(page.vpn);
                    // The plan now reads as this PTE will after the
                    // protection sweep below: what the dirty stamp
                    // journals as its pre-stamp state.
                    page.pte.flags = pte.flags.with(PteFlags::COW);
                }
            }
        }

        if let WalkMode::Parallel(_) = walk {
            self.run_lanes(ctx, c_region, c_root, &lane_pages, walk.workers())?;
        }

        // Record-then-apply (see `crate::journal`): if recording aborts
        // part-way, the rollback's unmap of never-inserted VPNs is a
        // no-op.
        for (vpn, _) in &batch {
            self.journal
                .record(JournalOp::PteMap(*vpn))
                .map_err(|_| Errno::NoMem)?;
        }
        ctx.counters.ptes_written += self.pt.extend_sorted(batch);
        ctx.phase(Phase::ForkWalkCowArm);
        for &vpn in &cow_arm {
            self.journal
                .record(JournalOp::CowArm(vpn))
                .map_err(|_| Errno::NoMem)?;
        }
        let armed = self.pt.protect_many(cow_arm, PteFlags::COW);
        ctx.kernel(self.cost.pte_protect * armed as f64);
        // The naive ablation never stamps: it always measures the full
        // walk (auto-scoping never picks `DirtySince` there).
        if self.track_dirty && self.scan != ScanMode::Naive {
            self.stamp_generation(ctx, parent, &plan)?;
        }
        Ok(deferred)
    }

    /// The walk's dirty-tracking epilogue: stamps every non-shm parent
    /// page with the next fork generation — generation overwritten,
    /// soft-dirty bit cleared, writable pages (re-)armed CoW so the
    /// *first* post-fork write sets the bit again — so the *next* fork
    /// can run `DirtySince` against this one's snapshot. Journaled from
    /// `plan`, which by now reads as the parent's PTEs after the CoW
    /// sweep, the exact pre-stamp state rollback restores.
    fn stamp_generation(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        plan: &[PlannedPage],
    ) -> SysResult<()> {
        ctx.phase(Phase::ForkDirtyScan);
        let (old_gen, old_tracked) = {
            let p = self.proc(parent)?;
            (p.dirty_gen, p.dirty_tracked)
        };
        // Generation 0 means "never stamped" (fresh maps land there and
        // must read as dirty), so the cursor skips it on wrap.
        let new_gen = match old_gen.wrapping_add(1) {
            0 => 1,
            g => g,
        };
        let mut stamped: Vec<Vpn> = Vec::new();
        for page in plan {
            if page.class == PageClass::Shm {
                // Shm frames are shared read-write by design; arming
                // them CoW would privatize a write.
                continue;
            }
            debug_assert_eq!(
                self.pt.lookup(page.vpn),
                Some(page.pte),
                "plan != swept PTE"
            );
            self.journal
                .record(JournalOp::DirtyStamp {
                    vpn: page.vpn,
                    old_gen: page.pte.gen,
                    was_dirty: page.pte.flags.contains(PteFlags::DIRTY),
                    had_cow: page.pte.flags.contains(PteFlags::COW),
                })
                .map_err(|_| Errno::NoMem)?;
            stamped.push(page.vpn);
        }
        self.journal
            .record(JournalOp::DirtyTrack {
                pid: parent,
                old_gen,
                old_tracked,
            })
            .map_err(|_| Errno::NoMem)?;
        let n = self.pt.stamp_many(stamped, new_gen);
        ctx.kernel(self.cost.pte_protect * n as f64);
        if let Some(p) = self.procs.get_mut(&parent) {
            p.dirty_gen = new_gen;
            p.dirty_tracked = true;
        }
        Ok(())
    }
}

/// What a fork does with one parent page, before the strategy is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageClass {
    /// Shared memory: the child maps the same frame with full perms.
    Shm,
    /// Clean since the parent's last generation stamp
    /// ([`CopyScope::DirtySince`] only): shared, lazily armed, no copy.
    Clean,
    /// Inside the copy scope: copied at fork under `Full`, shared with
    /// the lazy strategy's faults armed otherwise — unless `pinned`, the
    /// GOT or live allocator metadata, which every strategy copies at
    /// fork (paper §3.5).
    Private { pinned: bool },
}

/// One parent page as the fork's single read of the page table saw it.
#[derive(Clone, Copy, Debug)]
struct PlannedPage {
    vpn: Vpn,
    /// Offset of the page in the parent's region.
    off: u64,
    pte: Pte,
    seg: Segment,
    class: PageClass,
}

/// Admission's fold over a fork plan: `(private, pinned)` — the pages
/// a `Full` fork copies, and the pinned pages every strategy copies.
/// Shm and clean pages stay on the parent's frame, so they allocate
/// nothing at fork time.
fn plan_demand(plan: &[PlannedPage]) -> (u64, u64) {
    plan.iter()
        .fold((0, 0), |(private, pinned), p| match p.class {
            PageClass::Private { pinned: pin } => (private + 1, pinned + u64::from(pin)),
            PageClass::Shm | PageClass::Clean => (private, pinned),
        })
}

/// Child PTE flags for a page left on a shared frame: fully
/// inaccessible under CoA (any access faults); under the other
/// strategies readable, with writes and capability loads faulting
/// (CoPA).
fn lazy_child_flags(strategy: CopyStrategy, final_flags: PteFlags) -> PteFlags {
    if strategy == CopyStrategy::CoA {
        return PteFlags::empty().with(PteFlags::COA);
    }
    let mut f = PteFlags::READ.with(PteFlags::LC_FAULT).with(PteFlags::COW);
    if final_flags.contains(PteFlags::EXEC) {
        f = f.with(PteFlags::EXEC);
    }
    if final_flags.contains(PteFlags::WRITE) {
        f = f.with(PteFlags::WRITE); // COW checked first
    }
    f
}

/// The kernel state that materializing an eager page touches, split out
/// of [`UforkOs`] so a walk can hold it across its loop.
pub(crate) struct PageWriter<'a> {
    pub(crate) pm: &'a mut PhysMem,
    pub(crate) pt: &'a PageTable,
    pub(crate) journal: &'a mut ForkJournal,
    /// The cross-child content index; `None` when dedup is off.
    pub(crate) dedup: Option<&'a mut FrameDedupIndex>,
    pub(crate) cost: &'a CostModel,
    /// The child region copies are relocated into.
    pub(crate) target: &'a RelocTarget<'a>,
    /// The phases a copy and its relocation are charged to.
    pub(crate) copy_phase: Phase,
    pub(crate) reloc_phase: Phase,
}

/// An eager page made ready for the child: the frame and flags its PTE
/// gets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EagerPage {
    pub(crate) pfn: Pfn,
    pub(crate) flags: PteFlags,
    /// `pfn` is an indexed canonical frame (a dedup hit), not a copy.
    pub(crate) hit: bool,
}

impl PageWriter<'_> {
    /// Takes a reference on `pfn` for the child, journaled.
    fn share(&mut self, pfn: Pfn) -> SysResult<()> {
        self.pm.inc_ref(pfn).map_err(|_| Errno::Fault)?;
        self.journal
            .record(JournalOp::RefInc(pfn))
            .map_err(|_| Errno::NoMem)
    }

    /// Stages `child` at `c_vpn` on an existing frame: takes the
    /// reference, queues the PTE in the walk's batch, and charges `ns`.
    fn stage_shared(
        &mut self,
        batch: &mut Vec<(Vpn, Pte)>,
        ctx: &mut Ctx,
        c_vpn: Vpn,
        child: Pte,
        ns: f64,
    ) -> SysResult<()> {
        self.share(child.pfn)?;
        batch.push((c_vpn, child));
        ctx.kernel(ns);
        Ok(())
    }

    /// Makes the child's private view of parent frame `src`, bound for
    /// child page `c_vpn` with `final_flags`.
    ///
    /// Cross-child dedup first: the content index is probed (charged to
    /// `fork/dedup`) for an identical frame a sibling — or, through
    /// `staged`, an earlier page of this walk — already holds. A hit
    /// shares that frame, its reference journaled. Otherwise `src` is
    /// copied into a fresh frame and relocated (charged to the copy and
    /// relocation phases; the caller has the copy phase open unless a
    /// probe ran), and a probe miss registers the copy as the
    /// canonical frame for its content. Every probed page is CoW-armed:
    /// an indexed frame must stay byte-stable under every sharer's
    /// writes. The caller installs the PTE; on `Err` it rolls the
    /// journal back.
    pub(crate) fn materialize(
        &mut self,
        ctx: &mut Ctx,
        src: Pfn,
        staged: &[(Vpn, Pte)],
        c_vpn: Vpn,
        final_flags: PteFlags,
    ) -> SysResult<EagerPage> {
        let probe = match self.dedup.as_deref_mut() {
            Some(dedup) => {
                ctx.phase(Phase::ForkDedup);
                dedup_probe(self.pm, self.pt, staged, dedup, self.cost, ctx, src)
            }
            None => DedupProbe::Skip,
        };
        let pfn = if let DedupProbe::Hit(shared) = probe {
            self.share(shared)?;
            shared
        } else {
            if self.dedup.is_some() {
                ctx.phase(self.copy_phase);
            }
            // Journaled before the copy: on a copy failure the
            // rollback owns the frame.
            let new = alloc_copy_dest_charged(self.pm, self.cost, ctx).map_err(|_| Errno::NoMem)?;
            self.journal
                .record(JournalOp::FrameAlloc(new))
                .map_err(|_| Errno::NoMem)?;
            self.pm.copy_frame(src, new).map_err(|_| Errno::Fault)?;
            ctx.kernel(self.cost.page_alloc + self.cost.page_copy);
            ctx.counters.pages_copied += 1;
            ctx.phase(self.reloc_phase);
            relocate_counted(self.pm, new, self.target, self.cost, ctx);
            if let (DedupProbe::Miss(hash), Some(dedup)) = (probe, self.dedup.as_deref_mut()) {
                // No journal op: a rolled-back fork or chunk leaves a
                // stale entry that self-invalidates on the next probe.
                dedup.insert(hash, new, c_vpn.0);
            }
            new
        };
        let flags = if probe == DedupProbe::Skip {
            final_flags
        } else {
            final_flags.with(PteFlags::COW)
        };
        Ok(EagerPage {
            pfn,
            flags,
            hit: matches!(probe, DedupProbe::Hit(_)),
        })
    }
}

/// Outcome of a cross-child dedup probe for one eager-copy source page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DedupProbe {
    /// Dedup disabled, or the source frame holds tags (per-child
    /// relocation makes tagged copies never byte-identical).
    Skip,
    /// A validated identical frame exists: share it instead of copying.
    Hit(Pfn),
    /// No (valid) candidate; the caller should copy and then register
    /// the fresh frame under this content hash.
    Miss(u64),
}

/// Probes the cross-child frame-dedup index for a frame identical to
/// `src`. A hit is validated against live state before it is trusted:
/// the canonical frame must still be allocated, its canonical mapping —
/// in the page table, or in `staged`, the current walk's not-yet-installed
/// batch (ascending VPNs) — must still point at it write-protected (so
/// the content cannot have drifted since insert), it must still be
/// untagged, and a full content comparison must match — the hash is
/// only an index key, never an equality proof. Stale entries are
/// evicted on sight, which is what lets inserts skip the journal
/// entirely.
fn dedup_probe(
    pm: &PhysMem,
    pt: &PageTable,
    staged: &[(Vpn, Pte)],
    dedup: &mut FrameDedupIndex,
    cost: &CostModel,
    ctx: &mut Ctx,
    src: Pfn,
) -> DedupProbe {
    let Ok(frame) = pm.frame(src) else {
        return DedupProbe::Skip;
    };
    if frame.cap_count() > 0 {
        return DedupProbe::Skip;
    }
    let hash = content_hash(frame);
    ctx.kernel(cost.page_hash);
    ctx.counters.dedup_hash_probes += 1;
    let Some(entry) = dedup.get(hash) else {
        return DedupProbe::Miss(hash);
    };
    let canonical = pt.lookup(Vpn(entry.vpn)).or_else(|| {
        staged
            .binary_search_by_key(&Vpn(entry.vpn), |&(v, _)| v)
            .ok()
            .map(|i| staged[i].1)
    });
    let canonical_stable = pm.refcount(entry.pfn).is_ok()
        && canonical.is_some_and(|c| {
            c.pfn == entry.pfn
                && (c.flags.contains(PteFlags::COW) || !c.flags.contains(PteFlags::WRITE))
        })
        && pm.frame(entry.pfn).is_ok_and(|c| c.cap_count() == 0);
    if canonical_stable {
        ctx.kernel(cost.page_hash);
        ctx.counters.dedup_hash_probes += 1;
        let identical = pm.frame(entry.pfn).is_ok_and(|c| c.data() == frame.data());
        if identical {
            return DedupProbe::Hit(entry.pfn);
        }
    }
    dedup.evict(hash);
    DedupProbe::Miss(hash)
}

/// Allocates one page-copy destination on the fork/fault hot path,
/// charging the grant-time scrub of a recycled dirty frame to `ctx` —
/// unless the background reclaim daemon already pre-zeroed it (a
/// clean-frame magazine hit: counted, but free). Fresh frames are clean
/// by construction and charge nothing, preserving the cold-start cost
/// profile exactly. The model charges a `ZeroPolicy::Zeroed` grant; the
/// host skips the data scrub, since the caller's copy overwrites every
/// byte and tag ([`PhysMem::alloc_overwrite_grant`]).
pub(crate) fn alloc_copy_dest_charged(
    pm: &mut PhysMem,
    cost: &CostModel,
    ctx: &mut Ctx,
) -> Result<Pfn, ufork_mem::MemError> {
    let g = pm.alloc_overwrite_grant()?;
    if g.prezeroed {
        ctx.counters.magazine_hits += 1;
    } else if g.recycled {
        ctx.kernel(cost.zero_page);
    }
    Ok(g.pfn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UforkConfig;
    use ufork_abi::ImageSpec;
    use ufork_exec::MemOs;

    /// With dedup off, the demand admission folds out of a fork's plan
    /// is exactly the frames the Serial fork that follows allocates:
    /// shm and clean pages stay on the parent's frames, so a fold that
    /// counted them as private would over-book.
    #[test]
    fn plan_demand_equals_serial_fork_allocations() {
        let strategies = [CopyStrategy::Full, CopyStrategy::CoA, CopyStrategy::CoPA];
        for strategy in strategies {
            for eager_fork_copies in [true, false] {
                for dirty_scope in [false, true] {
                    let case =
                        format!("{strategy:?}, eager {eager_fork_copies}, dirty {dirty_scope}");
                    let mut os = UforkOs::new(UforkConfig {
                        phys_mib: 64,
                        strategy,
                        eager_fork_copies,
                        walk: WalkMode::Serial,
                        track_dirty: true,
                        dedup_frames: false,
                        ..UforkConfig::default()
                    });
                    let mut ctx = Ctx::new();
                    let img = ImageSpec::with_heap("demand", 24 * PAGE_SIZE + (64 << 10));
                    os.spawn(&mut ctx, Pid(1), &img).unwrap();
                    let heap = os.malloc(&mut ctx, Pid(1), 24 * PAGE_SIZE).unwrap();
                    let store = |os: &mut UforkOs, ctx: &mut Ctx, page: u64, v: u64| {
                        let slot = heap.with_addr(heap.base() + page * PAGE_SIZE).unwrap();
                        os.store(ctx, Pid(1), &slot, &v.to_le_bytes()).unwrap();
                    };
                    for page in 0..24 {
                        store(&mut os, &mut ctx, page, page + 1);
                    }
                    os.shm_open(&mut ctx, Pid(1), "demand", 4 * PAGE_SIZE)
                        .unwrap();
                    // The first fork stamps a generation; dirty a few
                    // heap pages and the allocator metadata after it.
                    os.fork(&mut ctx, Pid(1), Pid(2)).unwrap();
                    for page in [1, 7, 8] {
                        store(&mut os, &mut ctx, page, 99);
                    }
                    os.malloc(&mut ctx, Pid(1), 64).unwrap();
                    let scope = match os.fork_generation(Pid(1)) {
                        Some(gen) if dirty_scope => CopyScope::DirtySince(gen),
                        _ => CopyScope::Everything,
                    };
                    assert_eq!(dirty_scope, scope != CopyScope::Everything, "{case}");

                    let (region, layout) = {
                        let p = os.proc(Pid(1)).unwrap();
                        (p.region, p.layout.clone())
                    };
                    let plan = os.fork_plan(region, &layout, scope).unwrap();
                    let has = |class: PageClass| plan.iter().any(|p| p.class == class);
                    assert!(has(PageClass::Shm), "{case}: no shm page in the plan");
                    assert_eq!(has(PageClass::Clean), dirty_scope, "{case}");
                    let (private, pinned) = plan_demand(&plan);
                    let demand = UforkOs::immediate_demand(strategy, private, pinned);
                    assert_eq!(pinned > 0, eager_fork_copies, "{case}");

                    let before = os.pm.allocated_frames();
                    os.fork_scoped(&mut ctx, Pid(1), Pid(3), scope).unwrap();
                    let allocated = u64::from(os.pm.allocated_frames() - before);
                    assert_eq!(demand, allocated, "{case}");
                }
            }
        }
    }
}
