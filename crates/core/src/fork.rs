//! The μFork fork walk (paper §3.5).
//!
//! 1. **Admission** — pre-flight the fork's frame demand against the
//!    allocator's reservation ledger; under `FallbackPolicy::Degrade`
//!    the kernel downgrades `Full → CoA → CoPA` until the demand fits
//!    instead of failing.
//! 2. **Parent state duplication** — reserve a contiguous child region,
//!    copy the parent's PTEs so the child maps the same physical pages,
//!    proactively copy + relocate the GOT and the in-use allocator
//!    metadata, and arm the configured copy strategy on everything else.
//! 3. **Post-copy phase** — mint the child's root capability, relocate
//!    the register file, and hand the child to the scheduler (done by
//!    the executive).
//!
//! Step 2 is one walk. A single classifier ([`PagePolicy::classify`])
//! sorts every parent page into a [`PageClass`] — shm, clean since the
//! last generation stamp, lazy, or eager — and the one loop in
//! `fork_walk_pages` stages every shared class the same way (refcount
//! bump, journaled, one batched child PTE). Only eager pages depend on
//! the [`WalkMode`], and there are two executors for them: the inline
//! one (`Serial`: dedup probe, then copy + relocate on the walking
//! context) and the lane executor (`Parallel(n)`, `crate::fork_par`),
//! fed with destination frames the walk allocates. `Pipelined` stages
//! eager pages on the shared parent frame and defers their copies to
//! background chunks (`crate::pipeline`). Every mode ends in the same
//! epilogue: the parent's range is streamed directly off the page table,
//! the child's PTEs land in one sorted
//! [`ufork_vmem::PageTable::extend_sorted`] sweep, and the parent's COW
//! protection in one [`ufork_vmem::PageTable::protect_many`] pass.
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
use ufork_sim::CostModel;
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
                    ctx.phase("fork/reclaim");
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
        ctx.phase("fork/fixed");
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

        // How much allocator metadata is live (eagerly copied, §3.5).
        let meta_header = p_region.base.0 + layout.heap_meta.0;
        let blocks_used = self.kread_u64(meta_header + 16).map_err(ForkFail::Fatal)?;
        let meta_used_bytes = 64 + blocks_used * crate::layout::BLOCK_DESC_BYTES;

        // Admission control: pre-flight the frame demand and book the
        // reservation (possibly degrading the strategy) before any
        // side effect that would need unwinding.
        let strategy = self.admit_fork(ctx, p_region, &layout, meta_used_bytes, scope)?;

        // Reserve the child's contiguous region.
        ctx.phase("fork/region");
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

        let deferred = match self.fork_walk_pages(
            ctx,
            p_region,
            &layout,
            c_region,
            &c_root,
            meta_used_bytes,
            strategy,
            scope,
        ) {
            Ok(deferred) => deferred,
            Err(e) => return Err(self.abort_fork(ctx, e)),
        };

        // Stamp the parent's PTEs with the next fork generation (and
        // clear the soft-dirty bits) so the *next* fork can run
        // `DirtySince` against this one's snapshot. Runs after the
        // walk's protection sweep so the journaled pre-stamp state is
        // the post-arm state reverse-order rollback expects.
        if let Err(e) = self.stamp_dirty_generation(ctx, parent, p_region, &layout) {
            return Err(self.abort_fork(ctx, e));
        }

        // Relocate the register file (paper §3.5 step 2: "any absolute
        // memory references contained in registers are relocated").
        ctx.phase("fork/regs");
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

        ctx.phase("fork/commit");
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
        ctx.instant("fork/pipeline/commit");
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
        ctx.phase("fork/rollback");
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

    /// Admission control (tentpole of the robustness layer): estimate
    /// the fork's frame demand, book it in the allocator's reservation
    /// ledger, and — under [`FallbackPolicy::Degrade`] — downgrade the
    /// strategy `Full → CoA → CoPA` until the demand fits.
    fn admit_fork(
        &mut self,
        ctx: &mut Ctx,
        p_region: Region,
        layout: &crate::ProcLayout,
        meta_used_bytes: u64,
        scope: CopyScope,
    ) -> Result<CopyStrategy, ForkFail> {
        if self.fallback == FallbackPolicy::Disabled {
            return Ok(self.strategy);
        }
        ctx.phase("fork/admission");
        ctx.kernel(self.cost.admission_check);
        let requested = self.strategy;
        let (private, eager, _) =
            self.fork_page_demand(p_region, layout, meta_used_bytes, false, scope);
        let demand = Self::immediate_demand(requested, private, eager);
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
        // bitmaps (PR 2) bound that by the capability-dense page count.
        let (_, _, cap_dense) =
            self.fork_page_demand(p_region, layout, meta_used_bytes, true, scope);
        ctx.kernel(self.cost.tags_load * 4.0 * private as f64);
        let lazy = private - eager;
        let ladder = [
            (CopyStrategy::CoA, eager + lazy / 2),
            (CopyStrategy::CoPA, eager + cap_dense.min(lazy)),
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
                ctx.instant("fork/degrade");
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
    /// `Full`, only the eagerly-copied pages under the lazy strategies.
    fn immediate_demand(strategy: CopyStrategy, private: u64, eager: u64) -> u64 {
        match strategy {
            CopyStrategy::Full => private,
            CopyStrategy::CoA | CopyStrategy::CoPA => eager,
        }
    }

    /// One read-only pass over the parent's mapped range, classifying
    /// pages the way the walk will. Returns `(private, eager,
    /// cap_dense)`: non-shm mapped pages *inside the copy scope*, pages
    /// copied eagerly under a lazy strategy, and — only when `density`
    /// is requested, since it costs a tag-summary read per page — pages
    /// holding at least one tagged granule. Clean pages under
    /// [`CopyScope::DirtySince`] allocate nothing at fork time (their
    /// child mappings share the parent frame), so they contribute
    /// nothing to the demand.
    fn fork_page_demand(
        &self,
        p_region: Region,
        layout: &crate::ProcLayout,
        meta_used_bytes: u64,
        density: bool,
        scope: CopyScope,
    ) -> (u64, u64, u64) {
        // `eager` counts the pages copied at fork under a lazy strategy.
        let policy = self.page_policy(layout, meta_used_bytes, CopyStrategy::CoPA, scope);
        let start = p_region.base.vpn();
        let end = Vpn(p_region.top().0.div_ceil(PAGE_SIZE));
        let (mut private, mut eager, mut cap_dense) = (0u64, 0u64, 0u64);
        for (vpn, pte) in self.pt.range(start, end) {
            let off = vpn.base().0 - p_region.base.0;
            match policy.classify(layout.segment_of(off), off, &pte) {
                PageClass::Shm | PageClass::Clean => continue,
                PageClass::Eager => eager += 1,
                PageClass::Lazy => {}
            }
            private += 1;
            if density {
                if let Ok(frame) = self.pm.frame(pte.pfn) {
                    if frame.cap_count() > 0 {
                        cap_dense += 1;
                    }
                }
            }
        }
        (private, eager, cap_dense)
    }

    /// Stamps every non-shm parent PTE with the next fork generation:
    /// generation field overwritten, soft-dirty bit cleared (each dirty
    /// bit set since the last fork is cleared exactly once, here),
    /// writable pages (re-)armed CoW so the *first* post-fork write
    /// faults and sets the bit again. Skipped unless dirty tracking is
    /// on; the [`ScanMode::Naive`] ablation never stamps, so it always
    /// measures the full walk (auto-scoping never picks `DirtySince`
    /// there). Fully journaled: an abort mid-sweep restores every PTE's
    /// exact pre-stamp state and the parent's cursor.
    fn stamp_dirty_generation(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        p_region: Region,
        layout: &crate::ProcLayout,
    ) -> SysResult<()> {
        if !self.track_dirty || self.scan == ScanMode::Naive {
            return Ok(());
        }
        ctx.phase("fork/dirty_scan");
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
        let start = p_region.base.vpn();
        let end = Vpn(p_region.top().0.div_ceil(PAGE_SIZE));
        let mut stamped: Vec<Vpn> = Vec::new();
        {
            let pt = &self.pt;
            let journal = &mut self.journal;
            for (vpn, pte) in pt.range(start, end) {
                let off = vpn.base().0 - p_region.base.0;
                if layout.segment_of(off) == Segment::Shm {
                    // Shm frames are shared read-write by design; arming
                    // them CoW would privatize a write. They are also
                    // always shared by the walk, so they need no scope
                    // classification.
                    continue;
                }
                journal
                    .record(JournalOp::DirtyStamp {
                        vpn,
                        old_gen: pte.gen,
                        was_dirty: pte.flags.contains(PteFlags::DIRTY),
                        had_cow: pte.flags.contains(PteFlags::COW),
                    })
                    .map_err(|_| Errno::NoMem)?;
                stamped.push(vpn);
            }
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

    /// The fork walk: one pass over the parent's mapped range that maps
    /// (and, where the strategy requires, copies and relocates) every
    /// page into the child region, recording every side effect in the
    /// journal. On `Err` nothing has been cleaned up yet — the caller
    /// rolls the journal back.
    ///
    /// [`PagePolicy::classify`] decides each page's [`PageClass`]; shared
    /// classes all go through [`stage_shared`]. Only `Eager` pages
    /// consult the walk mode: `Serial` copies them inline (dedup probe,
    /// then copy + relocate), `Parallel(n)` allocates their
    /// destinations here and hands the copies to the lane executor
    /// after the stream, and `Pipelined` stages them on the shared
    /// parent frame and defers the copy behind the commit. The naive
    /// scan ablation always copies inline. Every mode ends in the same
    /// batched PTE install and parent CoW sweep.
    ///
    /// Returns the pages whose copies were *deferred* behind the commit:
    /// empty except under [`WalkMode::Pipelined`]. Under
    /// [`CopyScope::DirtySince`] the deferred list holds only dirty
    /// pages, so the background window drains in O(dirty) too.
    #[allow(clippy::too_many_arguments)] // the fork attempt's full context
    fn fork_walk_pages(
        &mut self,
        ctx: &mut Ctx,
        p_region: Region,
        layout: &crate::ProcLayout,
        c_region: Region,
        c_root: &Capability,
        meta_used_bytes: u64,
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
        let policy = self.page_policy(layout, meta_used_bytes, strategy, scope);
        let start = p_region.base.vpn();
        let end = Vpn(p_region.top().0.div_ceil(PAGE_SIZE));
        let validates = self.isolation.validates_syscalls();
        let dedup_on = self.dedup_frames;

        // Staged child PTEs, produced in ascending page order by the
        // parent-range stream; inserted in one batch on success only.
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
            // Split borrows: the parent range is streamed off `pt` (shared)
            // while frames are copied through `pm` (mutable) and effects
            // land in `journal` (mutable); `pt` itself is only written
            // after the stream ends.
            let pm = &mut self.pm;
            let pt = &self.pt;
            let journal = &mut self.journal;
            let cost = &self.cost;
            let dedup = &mut self.dedup;
            let target = RelocTarget {
                region: c_region,
                root: c_root,
                source: &source,
                mode: self.scan,
            };

            for (vpn, pte) in pt.range(start, end) {
                ctx.phase("fork/walk/pte");
                let off = vpn.base().0 - p_region.base.0;
                let seg = layout.segment_of(off);
                let c_vpn = VirtAddr(c_region.base.0 + off).vpn();
                let final_flags = Self::seg_flags(seg);
                let class = policy.classify(seg, off, &pte);
                if scope != CopyScope::Everything
                    && matches!(class, PageClass::Lazy | PageClass::Eager)
                {
                    ctx.counters.pages_dirty_copied += 1;
                }

                // Does the child keep reading the parent's frame (so the
                // parent's writable mapping must turn copy-on-write)?
                let shares_parent_frame = match class {
                    PageClass::Shm => {
                        // Shared mappings stay shared: same frames, full perms.
                        let child = Pte::new(pte.pfn, final_flags);
                        stage_shared(pm, journal, &mut batch, ctx, c_vpn, child, cost.pte_copy)?;
                        false
                    }
                    PageClass::Clean => {
                        // No frame allocation, no tag scan: a refcount
                        // bump and one staged PTE, armed like a lazy page
                        // even under `Full` (clean pages still hold the
                        // *parent's* capabilities, so direct cap loads
                        // must stay fenced).
                        let child = Pte::new(pte.pfn, lazy_child_flags(strategy, final_flags));
                        stage_shared(pm, journal, &mut batch, ctx, c_vpn, child, cost.pte_copy)?;
                        ctx.counters.pages_shared_clean += 1;
                        true
                    }
                    PageClass::Lazy => {
                        let ns = if strategy == CopyStrategy::CoA {
                            cost.pte_copy + cost.coa_pte_extra
                        } else {
                            cost.pte_copy
                        };
                        let child = Pte::new(pte.pfn, lazy_child_flags(strategy, final_flags));
                        stage_shared(pm, journal, &mut batch, ctx, c_vpn, child, ns)?;
                        true
                    }
                    PageClass::Eager => match walk {
                        WalkMode::Pipelined => {
                            // Stage, don't copy: the child maps the shared
                            // frame CoA-style (any access faults and jumps
                            // the copy queue), the parent is CoW-armed so
                            // its writes cannot perturb the fork-time
                            // snapshot, and the copy + relocation runs as
                            // a background chunk after the commit.
                            ctx.phase("fork/pipeline/stage");
                            let child =
                                Pte::new(pte.pfn, lazy_child_flags(CopyStrategy::CoA, final_flags));
                            let ns = cost.pte_copy + cost.coa_pte_extra;
                            stage_shared(pm, journal, &mut batch, ctx, c_vpn, child, ns)?;
                            deferred.push((c_vpn, final_flags));
                            true
                        }
                        WalkMode::Parallel(_) => {
                            let dst = alloc_lane_frame(
                                pm,
                                journal,
                                ctx,
                                lane_pages.len(),
                                walk.workers(),
                            )?;
                            batch.push((c_vpn, Pte::new(dst, final_flags)));
                            lane_pages.push((pte.pfn, dst));
                            false
                        }
                        WalkMode::Serial => {
                            // Cross-child dedup: before materializing a
                            // private copy, probe the content index for an
                            // identical frame a sibling (or an earlier page
                            // of this walk) already holds. Untagged source
                            // frames only — relocation is a no-op on them,
                            // so the copy's content equals the source's.
                            let probe = if dedup_on {
                                ctx.phase("fork/dedup");
                                dedup_probe(pm, pt, &batch, dedup, cost, ctx, pte.pfn)
                            } else {
                                DedupProbe::Skip
                            };
                            if let DedupProbe::Hit(shared) = probe {
                                // CoW-protected: the canonical content must
                                // stay stable under every sharer's writes.
                                let child = Pte::new(shared, final_flags.with(PteFlags::COW));
                                stage_shared(
                                    pm,
                                    journal,
                                    &mut batch,
                                    ctx,
                                    c_vpn,
                                    child,
                                    cost.pte_write,
                                )?;
                                ctx.counters.frames_deduped += 1;
                                false
                            } else {
                                ctx.phase("fork/walk/copy");
                                let new = copy_frame_for_child(pm, journal, cost, ctx, pte.pfn)?;
                                ctx.phase("fork/walk/reloc");
                                relocate_counted(pm, new, &target, cost, ctx);
                                ctx.phase("fork/walk/pte");
                                let mut flags = final_flags;
                                if let DedupProbe::Miss(hash) = probe {
                                    // Register the fresh copy as the canonical
                                    // frame for this content, CoW-armed so it
                                    // stays byte-stable while indexed. No
                                    // journal op: a rolled-back fork leaves a
                                    // stale entry that self-invalidates on the
                                    // next probe.
                                    dedup.insert(hash, new, c_vpn.0);
                                    flags = flags.with(PteFlags::COW);
                                }
                                batch.push((c_vpn, Pte::new(new, flags)));
                                ctx.kernel(cost.pte_write);
                                if validates {
                                    // Adversarial deployments re-verify every
                                    // relocated capability against the child's
                                    // bounds before the page becomes visible
                                    // (the fork-latency component of
                                    // TOCTTOU/validation, ~2.6% in the paper).
                                    ctx.kernel(cost.page_scan() + cost.tocttou_fixed);
                                }
                                ctx.counters.pages_copied_eager += 1;
                                false
                            }
                        }
                    },
                };
                if shares_parent_frame
                    && final_flags.contains(PteFlags::WRITE)
                    && !pte.flags.contains(PteFlags::COW)
                {
                    cow_arm.push(vpn);
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
        ctx.phase("fork/walk/cow_arm");
        for &vpn in &cow_arm {
            self.journal
                .record(JournalOp::CowArm(vpn))
                .map_err(|_| Errno::NoMem)?;
        }
        let armed = self.pt.protect_many(cow_arm, PteFlags::COW);
        ctx.kernel(self.cost.pte_protect * armed as f64);
        Ok(deferred)
    }

    /// The page classifier's inputs for one fork.
    fn page_policy(
        &self,
        layout: &crate::ProcLayout,
        meta_used_bytes: u64,
        strategy: CopyStrategy,
        scope: CopyScope,
    ) -> PagePolicy {
        PagePolicy {
            strategy,
            scope,
            heap_meta: layout.heap_meta.0,
            eager_meta: self.eager_fork_copies.then_some(meta_used_bytes),
        }
    }
}

/// What the fork walk does with one parent page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PageClass {
    /// Shared memory: the child maps the same frame with full perms.
    Shm,
    /// Clean since the parent's last generation stamp
    /// ([`CopyScope::DirtySince`] only): shared, lazily armed, no copy.
    Clean,
    /// Shared with the lazy strategy's faults armed; copied on demand.
    Lazy,
    /// Copied (and relocated) at fork time.
    Eager,
}

/// The per-fork inputs of the page classifier (paper §3.5 as data).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PagePolicy {
    strategy: CopyStrategy,
    scope: CopyScope,
    /// Offset of the allocator-metadata segment in the region.
    heap_meta: u64,
    /// Live allocator-metadata bytes copied eagerly; `None` when eager
    /// fork copies are off.
    eager_meta: Option<u64>,
}

impl PagePolicy {
    /// Classifies the page at region offset `off` (segment `seg`): shm
    /// pages are always shared, pages outside the copy scope are clean,
    /// and the rest are eager under `Full` — or, under the lazy
    /// strategies, when they hold the GOT or live allocator metadata
    /// (proactively copied, paper §3.5) — and lazy otherwise.
    pub(crate) fn classify(&self, seg: Segment, off: u64, pte: &Pte) -> PageClass {
        if seg == Segment::Shm {
            return PageClass::Shm;
        }
        if !self.scope.page_dirty(pte) {
            return PageClass::Clean;
        }
        let eager_segment = match (seg, self.eager_meta) {
            (Segment::Got, Some(_)) => true,
            (Segment::HeapMeta, Some(used)) => off - self.heap_meta < used,
            _ => false,
        };
        if self.strategy == CopyStrategy::Full || eager_segment {
            PageClass::Eager
        } else {
            PageClass::Lazy
        }
    }
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

/// Stages `child` at `c_vpn` on an existing frame: takes and journals a
/// reference on the frame, queues the PTE in the walk's batch, and
/// charges `ns`.
fn stage_shared(
    pm: &mut PhysMem,
    journal: &mut ForkJournal,
    batch: &mut Vec<(Vpn, Pte)>,
    ctx: &mut Ctx,
    c_vpn: Vpn,
    child: Pte,
    ns: f64,
) -> SysResult<()> {
    pm.inc_ref(child.pfn).map_err(|_| Errno::Fault)?;
    journal
        .record(JournalOp::RefInc(child.pfn))
        .map_err(|_| Errno::NoMem)?;
    batch.push((c_vpn, child));
    ctx.kernel(ns);
    Ok(())
}

/// Outcome of a cross-child dedup probe for one eager-copy source page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DedupProbe {
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
pub(crate) fn dedup_probe(
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

/// Allocates one `ZeroPolicy::Zeroed` frame on the fork/fault hot path,
/// charging the grant-time scrub of a recycled dirty frame to `ctx` —
/// unless the background reclaim daemon already pre-zeroed it (a
/// clean-frame magazine hit: counted, but free). Fresh frames are clean
/// by construction and charge nothing, preserving the cold-start cost
/// profile exactly.
pub(crate) fn alloc_zeroed_charged(
    pm: &mut PhysMem,
    cost: &CostModel,
    ctx: &mut Ctx,
) -> Result<Pfn, ufork_mem::MemError> {
    let g = pm.alloc_frame_grant()?;
    if g.prezeroed {
        ctx.counters.magazine_hits += 1;
    } else if g.recycled {
        ctx.kernel(cost.zero_page);
    }
    Ok(g.pfn)
}

/// Allocates a private frame for a child and copies `src` into it. The
/// allocated frame is journaled before the copy: on a copy failure the
/// frame is *not* freed here — the caller's rollback owns that
/// reference.
pub(crate) fn copy_frame_for_child(
    pm: &mut PhysMem,
    journal: &mut ForkJournal,
    cost: &CostModel,
    ctx: &mut Ctx,
    src: Pfn,
) -> SysResult<Pfn> {
    let new = alloc_zeroed_charged(pm, cost, ctx).map_err(|_| Errno::NoMem)?;
    journal
        .record(JournalOp::FrameAlloc(new))
        .map_err(|_| Errno::NoMem)?;
    pm.copy_frame(src, new).map_err(|_| Errno::Fault)?;
    ctx.kernel(cost.page_alloc + cost.page_copy);
    ctx.counters.pages_copied += 1;
    Ok(new)
}
