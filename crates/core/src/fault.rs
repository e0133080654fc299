//! User memory access and transparent fault resolution (CoW / CoA / CoPA).

use ufork_abi::{Errno, Pid, SysResult};
use ufork_cheri::{Capability, Perms};
use ufork_exec::Ctx;
use ufork_mem::{GRANULE_SIZE, PAGE_SIZE};
use ufork_sim::{Instant, Phase};
use ufork_vmem::{AccessKind, Fault, PteFlags, VirtAddr};

use ufork_mem::Pfn;

use crate::journal::FallbackPolicy;
use crate::kernel::UforkOs;
use crate::reloc::{relocate_counted, RelocTarget, SourceLookup};

impl UforkOs {
    /// Checks a capability for an access of `len` bytes at its address,
    /// enforcing the μprocess confinement invariant (paper §4.2: all
    /// capabilities available to a μprocess only grant access within its
    /// region). A capability store also names the `stored` value, which
    /// must be confined the same way; the region is looked up once.
    fn check_cap(
        &self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        len: u64,
        perms: Perms,
        stored: Option<&Capability>,
    ) -> SysResult<()> {
        if !self.isolation.checks_memory() {
            return Ok(());
        }
        let region = self.proc(pid)?.region;
        if !cap.confined_to(region.base.0, region.len) {
            // A capability escaping the region (stale parent pointer,
            // forgery, leaked kernel cap) — the hardware would never have
            // produced it; the kernel refuses and records the violation.
            ctx.counters.isolation_violations += 1;
            return Err(Errno::Fault);
        }
        cap.check_access(cap.addr(), len, perms).map_err(|_| {
            // A bounds/permission refusal by the capability hardware is
            // the isolation mechanism firing.
            ctx.counters.isolation_violations += 1;
            Errno::Fault
        })?;
        // Storing a capability that escapes the region would plant a
        // landmine for a future sharer; the hardware's monotonicity makes
        // this impossible (the μprocess cannot *have* such a cap), and the
        // kernel enforces the same.
        if stored.is_some_and(|v| !v.confined_to(region.base.0, region.len)) {
            ctx.counters.isolation_violations += 1;
            return Err(Errno::Fault);
        }
        Ok(())
    }

    /// Translates one page-confined access, resolving transparent faults.
    /// Each attempt probes the page table once and checks the access
    /// against the entry it found.
    fn translate_user(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> SysResult<ufork_vmem::Pte> {
        // At most: one strategy fault + one residual CoW fault.
        let mut last: Option<Fault> = None;
        for _ in 0..4 {
            let Some(pte) = self.pt.lookup(va.vpn()) else {
                return Err(Errno::Fault);
            };
            // Peek the tag for capability loads: LC_FAULT only fires when
            // the loaded granule is actually tagged (paper §4.2). The peek
            // is a real hardware tag read, costed like any other tag load
            // so CapLoad-heavy workloads aren't undercosted relative to
            // the CLoadTags model.
            let tagged = if kind == AccessKind::CapLoad {
                ctx.kernel(self.cost.tags_load);
                self.pm
                    .frame(pte.pfn)
                    .is_ok_and(|f| f.is_tagged_at(va.granule_align_down().page_offset()))
            } else {
                false
            };
            match pte.check_access(va, kind, tagged) {
                Ok(pte) => return Ok(pte),
                Err(f) if f.is_transparent() => {
                    last = Some(f);
                    self.resolve_fault(ctx, pid, f)?;
                }
                Err(_) => return Err(Errno::Fault),
            }
        }
        // Retry budget exhausted: a kernel invariant breach, since
        // `resolve_fault` maps the segment's final flags and a resolved
        // page cannot fault transparently again. Count it (and name the
        // unresolved fault in debug builds) so it is distinguishable from
        // an ordinary permission refusal.
        ctx.counters.fault_retries_exhausted += 1;
        debug_assert!(
            last.is_none(),
            "fault retry budget exhausted for {kind:?} at {va:?}: \
             last transparent fault {last:?} did not resolve"
        );
        Err(Errno::Fault)
    }

    /// Resolves a CoW / CoA / capability-load fault by copying (or
    /// reclaiming) the page and relocating its capabilities (paper §4.2,
    /// "the copy follows three steps").
    pub(crate) fn resolve_fault(&mut self, ctx: &mut Ctx, pid: Pid, fault: Fault) -> SysResult<()> {
        let r = self.resolve_fault_inner(ctx, pid, fault);
        // Close whatever fault phase is open, on success and error alike.
        ctx.phase_end();
        r
    }

    fn resolve_fault_inner(&mut self, ctx: &mut Ctx, pid: Pid, fault: Fault) -> SysResult<()> {
        // Demand priority for the pipelined fork: a child touching a
        // page whose copy is still queued behind the commit jumps the
        // copy queue — the whole chunk resolves inline on the faulting
        // context (marking it done so the background stream skips it),
        // then the access retries against the final mapping. Counted as
        // a queue jump, not a CoA fault: the chunk machinery does the
        // copy/relocate work and charges `fork/pipeline/*` phases.
        if let Fault::CoAccess { .. } = fault {
            if let Some(idx) = self.pipeline_chunk_of(pid, fault.va().vpn()) {
                ctx.counters.pipeline_chunks_jumped += 1;
                ctx.instant(Instant::ForkPipelineJump);
                return self.pipeline_copy_chunk(ctx, pid, idx);
            }
        }
        match fault {
            Fault::Cow { .. } => {
                ctx.counters.cow_faults += 1;
                ctx.instant(Instant::FaultCow);
            }
            Fault::CoAccess { .. } => {
                ctx.counters.coa_faults += 1;
                ctx.instant(Instant::FaultCoa);
            }
            Fault::CapLoad { .. } => {
                ctx.counters.cap_load_faults += 1;
                ctx.instant(Instant::FaultCapload);
            }
            _ => return Err(Errno::Fault),
        }
        ctx.phase(Phase::FaultEntry);
        ctx.kernel(self.cost.fault_entry);
        let va = fault.va();
        let vpn = va.vpn();
        let pte = self.pt.lookup(vpn).ok_or(Errno::Fault)?;
        let (region, final_flags) = {
            let p = self.proc(pid)?;
            let off = vpn.base().0 - p.region.base.0;
            (p.region, Self::seg_flags(p.layout.segment_of(off)))
        };
        let refcount = self.pm.refcount(pte.pfn).map_err(|_| Errno::Fault)?;
        let pfn = if refcount > 1 {
            // Step 1+2: point the child PTE at a fresh frame and copy.
            ctx.phase(Phase::FaultCopy);
            let new = self.fault_alloc_frame(ctx)?;
            if self.pm.copy_frame(pte.pfn, new).is_err() {
                // The fresh frame must not leak when the copy fails: drop
                // our only reference so the allocator reclaims it. The
                // PTE still points at the intact shared frame, so a retry
                // of the access can succeed.
                let _ = self.pm.dec_ref(new);
                return Err(Errno::Fault);
            }
            if self.pm.dec_ref(pte.pfn).is_err() {
                let _ = self.pm.dec_ref(new);
                return Err(Errno::Fault);
            }
            ctx.kernel(self.cost.page_alloc + self.cost.page_copy);
            ctx.counters.pages_copied += 1;
            new
        } else {
            // Last sharer: reclaim in place (no copy needed).
            ctx.counters.pages_reclaimed += 1;
            pte.pfn
        };
        ctx.phase(Phase::FaultPte);
        // Soft-dirty maintenance: the first store after a generation
        // stamp lands here (the stamp CoW-armed every writable page), so
        // a store-kind fault marks the page dirty for the next
        // `CopyScope::DirtySince` fork. Non-store resolutions leave the
        // bit clear; their remap still resets the generation to 0, which
        // reads as conservatively dirty.
        let is_store = match fault {
            Fault::Cow { .. } => true, // COW only fires on stores
            Fault::CoAccess { kind, .. } => kind.is_store(),
            _ => false,
        };
        let flags = if self.track_dirty && is_store {
            final_flags.with(PteFlags::DIRTY)
        } else {
            final_flags
        };
        self.pt.map(vpn, pfn, flags);
        ctx.kernel(self.cost.pte_write);
        ctx.counters.ptes_written += 1;

        // Step 3: scan and relocate (paper §4.2). The scan runs on every
        // resolved copy; under the tag-summary fast path an untagged page
        // costs four bulk tag reads and nothing more, and for parent-side
        // CoW faults it finds nothing to fix up.
        ctx.phase(Phase::FaultReloc);
        let root = self.proc(pid)?.root;
        let source = SourceLookup::new(self.scan, &self.region_index, || self.source_regions());
        let target = RelocTarget {
            region,
            root: &root,
            source: &source,
            mode: self.scan,
        };
        relocate_counted(&mut self.pm, pfn, &target, &self.cost, ctx);
        Ok(())
    }

    /// Allocates one frame for fault resolution under admission control:
    /// the allocation consults the same reservation ledger as fork (a
    /// frame promised to an in-flight reservation is not handed out),
    /// and on exhaustion one bounded reclaim pass drains the recycled
    /// pools' deferred-zero queue before the final retry — the same
    /// graceful-degradation path the fork retry loop uses, charged with
    /// the same deterministic backoff.
    fn fault_alloc_frame(&mut self, ctx: &mut Ctx) -> SysResult<Pfn> {
        if self.fallback != FallbackPolicy::Disabled {
            ctx.kernel(self.cost.admission_check);
            self.pm.reserve(1).map_err(|_| Errno::NoMem)?;
            self.pm.release(1);
        }
        if let Ok(pfn) = crate::fork::alloc_copy_dest_charged(&mut self.pm, &self.cost, ctx) {
            return Ok(pfn);
        }
        ctx.phase(Phase::FaultReclaim);
        self.reclaim_inline(ctx);
        ctx.phase(Phase::FaultCopy);
        crate::fork::alloc_copy_dest_charged(&mut self.pm, &self.cost, ctx)
            .map_err(|_| Errno::NoMem)
    }

    /// User data load (multi-page capable).
    pub(crate) fn user_load(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        buf: &mut [u8],
    ) -> SysResult<()> {
        self.check_cap(ctx, pid, cap, buf.len() as u64, Perms::LOAD, None)?;
        let mut done = 0usize;
        while done < buf.len() {
            let va = VirtAddr(cap.addr() + done as u64);
            let in_page = ((PAGE_SIZE - va.page_offset()) as usize).min(buf.len() - done);
            let pte = self.translate_user(ctx, pid, va, AccessKind::Load)?;
            self.pm
                .read(pte.pfn, va.page_offset(), &mut buf[done..done + in_page])
                .map_err(|_| Errno::Fault)?;
            done += in_page;
        }
        Ok(())
    }

    /// User data store (multi-page capable).
    pub(crate) fn user_store(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        data: &[u8],
    ) -> SysResult<()> {
        self.check_cap(ctx, pid, cap, data.len() as u64, Perms::STORE, None)?;
        let mut done = 0usize;
        while done < data.len() {
            let va = VirtAddr(cap.addr() + done as u64);
            let in_page = ((PAGE_SIZE - va.page_offset()) as usize).min(data.len() - done);
            let pte = self.translate_user(ctx, pid, va, AccessKind::Store)?;
            self.pm
                .write(pte.pfn, va.page_offset(), &data[done..done + in_page])
                .map_err(|_| Errno::Fault)?;
            done += in_page;
        }
        Ok(())
    }

    /// User capability load: may raise a CoPA fault first.
    pub(crate) fn user_load_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        let va = VirtAddr(cap.addr());
        if !va.is_granule_aligned() {
            return Err(Errno::Fault);
        }
        self.check_cap(
            ctx,
            pid,
            cap,
            GRANULE_SIZE,
            Perms::LOAD | Perms::LOAD_CAP,
            None,
        )?;
        let pte = self.translate_user(ctx, pid, va, AccessKind::CapLoad)?;
        self.pm
            .load_cap(pte.pfn, va.page_offset())
            .map_err(|_| Errno::Fault)
    }

    /// User capability store.
    pub(crate) fn user_store_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        value: &Capability,
    ) -> SysResult<()> {
        let va = VirtAddr(cap.addr());
        if !va.is_granule_aligned() {
            return Err(Errno::Fault);
        }
        self.check_cap(
            ctx,
            pid,
            cap,
            GRANULE_SIZE,
            Perms::STORE | Perms::STORE_CAP,
            Some(value),
        )?;
        let pte = self.translate_user(ctx, pid, va, AccessKind::CapStore)?;
        self.pm
            .store_cap(pte.pfn, va.page_offset(), value)
            .map_err(|_| Errno::Fault)
    }
}
