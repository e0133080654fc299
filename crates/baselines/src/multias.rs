//! The shared multi-address-space kernel core behind both baselines.

use std::collections::BTreeMap;

use ufork::talloc::{TAlloc, UserMem};
use ufork::{ProcLayout, Segment};
use ufork_abi::{Errno, ImageSpec, IsolationLevel, Pid, SysResult};
use ufork_cheri::{Capability, Perms};
use ufork_exec::{Ctx, MemOs};
use ufork_mem::{MemStats, Pfn, PhysMem, GRANULE_SIZE, PAGE_SIZE};
use ufork_sim::CostModel;
use ufork_vmem::{AccessKind, Fault, PageTable, Pte, PteFlags, VirtAddr, Vpn};

use crate::BaselineConfig;

/// How the kernel is entered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyscallStyle {
    /// Exception-based entry (monolithic kernels).
    Trap,
    /// Direct function call (unikernels).
    Direct,
}

/// Static profile distinguishing the baselines.
#[derive(Clone, Debug)]
pub struct MultiAsProfile {
    /// Diagnostic name.
    pub name: &'static str,
    /// Extra bytes mapped into every process (shared libraries for
    /// CheriBSD; the guest OS image for Nephele).
    pub extra_image_bytes: u64,
    /// Fixed fork path length.
    pub fork_fixed: f64,
    /// Additional fixed fork cost (hypervisor domain creation).
    pub fork_extra: f64,
    /// Per-PTE CoW setup cost.
    pub pte_cow: f64,
    /// Additional per-page fork cost (hypervisor grant plumbing).
    pub per_page_extra: f64,
    /// Kernel-entry style.
    pub syscall: SyscallStyle,
    /// Context-switch cost on top of the base thread switch (TLB flush,
    /// VM switch).
    pub ctx_switch_extra: f64,
    /// Whether memory accesses check CHERI capabilities.
    pub check_caps: bool,
    /// Whether I/O pays copyin/copyout.
    pub copyio: bool,
    /// Whether kernel execution serializes on a big lock.
    pub big_lock: bool,
}

/// Every process sees the same virtual layout starting here — the whole
/// point of multi-address-space fork is that the child's addresses are
/// identical to the parent's, so nothing needs relocating.
const PROC_BASE: u64 = 0x0000_0040_0000;

struct MProc {
    layout: ProcLayout,
    pt: PageTable,
    root: Capability,
    regs: Vec<Option<Capability>>,
    shm_next: u64,
    mmap_next: u64,
}

/// A multi-address-space OS: one page table per process, CoW fork.
pub struct MultiAsOs {
    profile: MultiAsProfile,
    cost: CostModel,
    isolation: IsolationLevel,
    pm: PhysMem,
    procs: BTreeMap<Pid, MProc>,
    shm_objs: BTreeMap<String, Vec<Pfn>>,
}

impl MultiAsOs {
    /// Boots the baseline kernel.
    pub fn new(profile: MultiAsProfile, cfg: BaselineConfig) -> MultiAsOs {
        MultiAsOs {
            profile,
            cost: cfg.cost,
            isolation: cfg.isolation,
            pm: PhysMem::with_mib(cfg.phys_mib),
            procs: BTreeMap::new(),
            shm_objs: BTreeMap::new(),
        }
    }

    /// The baseline's profile.
    pub fn profile(&self) -> &MultiAsProfile {
        &self.profile
    }

    fn proc(&self, pid: Pid) -> SysResult<&MProc> {
        self.procs.get(&pid).ok_or(Errno::Inval)
    }

    fn seg_flags(seg: Segment) -> PteFlags {
        match seg {
            Segment::Text => PteFlags::rx(),
            Segment::Got => PteFlags::ro(),
            _ => PteFlags::rw(),
        }
    }

    fn check_cap(
        &self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        addr: u64,
        len: u64,
        perms: Perms,
    ) -> SysResult<()> {
        if !self.profile.check_caps || !self.isolation.checks_memory() {
            return Ok(());
        }
        let p = self.proc(pid)?;
        // Within its own address space a process may only use
        // capabilities over its mapped span (CheriBSD enforces this via
        // per-process root capabilities).
        if !cap.confined_to(PROC_BASE, p.layout.region_len()) {
            ctx.counters.isolation_violations += 1;
            return Err(Errno::Fault);
        }
        cap.check_access(addr, len, perms).map_err(|_| {
            // A bounds/permission refusal by the capability hardware is
            // the isolation mechanism firing.
            ctx.counters.isolation_violations += 1;
            Errno::Fault
        })
    }

    fn translate(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> SysResult<ufork_vmem::Pte> {
        for _ in 0..3 {
            let res = {
                let p = self.proc(pid)?;
                p.pt.translate(va, kind, false)
            };
            match res {
                Ok(pte) => return Ok(pte),
                Err(Fault::Cow { .. }) => self.resolve_cow(ctx, pid, va)?,
                Err(_) => return Err(Errno::Fault),
            }
        }
        Err(Errno::Fault)
    }

    /// Classic CoW resolution: copy (or reclaim) the frame; the virtual
    /// address stays the same, so there is nothing to relocate.
    fn resolve_cow(&mut self, ctx: &mut Ctx, pid: Pid, va: VirtAddr) -> SysResult<()> {
        ctx.counters.cow_faults += 1;
        ctx.kernel(self.cost.fault_entry);
        let vpn = va.vpn();
        let (pfn, flags) = {
            let p = self.proc(pid)?;
            let pte = p.pt.lookup(vpn).ok_or(Errno::Fault)?;
            let off = vpn.base().0 - PROC_BASE;
            (pte.pfn, Self::seg_flags(p.layout.segment_of(off)))
        };
        let rc = self.pm.refcount(pfn).map_err(|_| Errno::Fault)?;
        let new = if rc > 1 {
            let new = self.pm.alloc_frame().map_err(|_| Errno::NoMem)?;
            self.pm.copy_frame(pfn, new).map_err(|_| Errno::Fault)?;
            self.pm.dec_ref(pfn).map_err(|_| Errno::Fault)?;
            ctx.kernel(self.cost.page_alloc + self.cost.page_copy);
            ctx.counters.pages_copied += 1;
            new
        } else {
            pfn
        };
        let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        p.pt.map(vpn, new, flags);
        ctx.kernel(self.cost.pte_write);
        ctx.counters.ptes_written += 1;
        Ok(())
    }

    fn talloc_of(&self, pid: Pid) -> SysResult<TAlloc> {
        let p = self.proc(pid)?;
        Ok(TAlloc {
            meta_base: PROC_BASE + p.layout.heap_meta.0,
            max_blocks: p.layout.max_blocks(),
            arena_base: PROC_BASE + p.layout.heap_arena.0,
            arena_len: p.layout.heap_arena.1,
        })
    }
}

impl MemOs for MultiAsOs {
    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn spawn(&mut self, ctx: &mut Ctx, pid: Pid, image: &ImageSpec) -> SysResult<()> {
        // Inflate the image with the per-process overhead (shared libs /
        // guest OS image).
        let mut image = image.clone();
        image.text_bytes += self.profile.extra_image_bytes;
        let layout = ProcLayout::for_image(&image);
        let mut pt = PageTable::new();
        let segs = [
            (layout.text, Segment::Text),
            (layout.got, Segment::Got),
            (layout.data, Segment::Data),
            (layout.stack, Segment::Stack),
            (layout.heap_meta, Segment::HeapMeta),
            (layout.heap_arena, Segment::HeapArena),
        ];
        for ((off, len), seg) in segs {
            for vpn in ufork_vmem::pages_covering(VirtAddr(PROC_BASE + off), len) {
                let pfn = self.pm.alloc_frame().map_err(|_| Errno::NoMem)?;
                pt.map(vpn, pfn, Self::seg_flags(seg));
                ctx.kernel(self.cost.page_alloc + self.cost.pte_write);
                ctx.counters.ptes_written += 1;
            }
        }
        let root = Capability::new_root(PROC_BASE, layout.region_len(), Perms::data());
        // GOT entries: capabilities to globals (same VAs in every AS).
        let got_base = PROC_BASE + layout.got.0;
        for slot in 0..layout.got_slots {
            let target_off = layout.data.0 + (slot * 128) % layout.data.1;
            let target = root
                .with_bounds(PROC_BASE + target_off, 64)
                .map_err(|_| Errno::Fault)?;
            let va = VirtAddr(got_base + slot * GRANULE_SIZE);
            let pte = pt.lookup(va.vpn()).ok_or(Errno::Fault)?;
            self.pm
                .store_cap(pte.pfn, va.page_offset(), &target)
                .map_err(|_| Errno::Fault)?;
        }
        let mut regs = vec![None; 32];
        regs[0] = Some(root);
        regs[1] = Some(
            root.with_bounds(PROC_BASE + layout.stack.0, layout.stack.1)
                .map_err(|_| Errno::Fault)?,
        );
        regs[2] = Some(Capability::new_root(
            PROC_BASE,
            layout.text.1,
            Perms::code(),
        ));
        self.procs.insert(
            pid,
            MProc {
                layout,
                pt,
                root,
                regs,
                shm_next: 0,
                mmap_next: 0,
            },
        );
        let ta = self.talloc_of(pid)?;
        let mut um = BUserMem { os: self, ctx, pid };
        ta.init(&mut um)?;
        Ok(())
    }

    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()> {
        ctx.kernel(self.profile.fork_fixed + self.profile.fork_extra);
        let (layout, regs, shm_next, mmap_next, entries) = {
            let p = self.proc(parent)?;
            let entries: Vec<(Vpn, Pte)> = p.pt.iter().collect();
            (
                p.layout.clone(),
                p.regs.clone(),
                p.shm_next,
                p.mmap_next,
                entries,
            )
        };
        // Stage the child's PTEs for one `extend_sorted` and the parent's
        // CoW arming for one `protect_many`; charges stay per page.
        let mut staged = Vec::with_capacity(entries.len());
        let mut cow_arm = Vec::new();
        for &(vpn, pte) in &entries {
            self.pm.inc_ref(pte.pfn).map_err(|_| Errno::Fault)?;
            let off = vpn.base().0 - PROC_BASE;
            let seg = layout.segment_of(off);
            let writable = Self::seg_flags(seg).contains(PteFlags::WRITE);
            let is_shm = seg == Segment::Shm;
            let flags = if writable && !is_shm {
                // CoW both sides: no relocation, same virtual addresses.
                cow_arm.push(vpn);
                pte.flags.with(PteFlags::COW)
            } else {
                pte.flags
            };
            staged.push((vpn, Pte::new(pte.pfn, flags)));
            ctx.kernel(self.profile.pte_cow + self.profile.per_page_extra);
            ctx.counters.ptes_written += 1;
        }
        self.procs
            .get_mut(&parent)
            .unwrap()
            .pt
            .protect_many(cow_arm, PteFlags::COW);
        let mut cpt = PageTable::new();
        cpt.extend_sorted(staged);
        self.procs.insert(
            child,
            MProc {
                layout,
                pt: cpt,
                root: self.proc(parent)?.root,
                regs,
                shm_next,
                mmap_next,
            },
        );
        Ok(())
    }

    fn destroy(&mut self, ctx: &mut Ctx, pid: Pid) {
        let Some(p) = self.procs.remove(&pid) else {
            return;
        };
        for (_, pte) in p.pt.iter() {
            let _ = self.pm.dec_ref(pte.pfn);
            ctx.kernel(self.cost.pte_write * 0.5);
        }
    }

    fn load(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.check_cap(ctx, pid, cap, cap.addr(), buf.len() as u64, Perms::LOAD)?;
        let mut done = 0usize;
        while done < buf.len() {
            let va = VirtAddr(cap.addr() + done as u64);
            let in_page = ((PAGE_SIZE - va.page_offset()) as usize).min(buf.len() - done);
            let pte = self.translate(ctx, pid, va, AccessKind::Load)?;
            self.pm
                .read(pte.pfn, va.page_offset(), &mut buf[done..done + in_page])
                .map_err(|_| Errno::Fault)?;
            done += in_page;
        }
        Ok(())
    }

    fn store(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.check_cap(ctx, pid, cap, cap.addr(), data.len() as u64, Perms::STORE)?;
        let mut done = 0usize;
        while done < data.len() {
            let va = VirtAddr(cap.addr() + done as u64);
            let in_page = ((PAGE_SIZE - va.page_offset()) as usize).min(data.len() - done);
            let pte = self.translate(ctx, pid, va, AccessKind::Store)?;
            self.pm
                .write(pte.pfn, va.page_offset(), &data[done..done + in_page])
                .map_err(|_| Errno::Fault)?;
            done += in_page;
        }
        Ok(())
    }

    fn load_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        let va = VirtAddr(cap.addr());
        if !va.is_granule_aligned() {
            return Err(Errno::Fault);
        }
        self.check_cap(ctx, pid, cap, cap.addr(), GRANULE_SIZE, Perms::LOAD)?;
        let pte = self.translate(ctx, pid, va, AccessKind::CapLoad)?;
        self.pm
            .load_cap(pte.pfn, va.page_offset())
            .map_err(|_| Errno::Fault)
    }

    fn store_cap(
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
        self.check_cap(ctx, pid, cap, cap.addr(), GRANULE_SIZE, Perms::STORE)?;
        let pte = self.translate(ctx, pid, va, AccessKind::CapStore)?;
        self.pm
            .store_cap(pte.pfn, va.page_offset(), value)
            .map_err(|_| Errno::Fault)
    }

    fn malloc(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        let ta = self.talloc_of(pid)?;
        let mut um = BUserMem { os: self, ctx, pid };
        ta.malloc(&mut um, len)
    }

    fn mfree(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability) -> SysResult<()> {
        let ta = self.talloc_of(pid)?;
        let mut um = BUserMem { os: self, ctx, pid };
        ta.free(&mut um, cap)
    }

    fn reg(&self, pid: Pid, idx: usize) -> SysResult<Capability> {
        self.proc(pid)?
            .regs
            .get(idx)
            .copied()
            .flatten()
            .ok_or(Errno::Inval)
    }

    fn set_reg(&mut self, pid: Pid, idx: usize, cap: Capability) -> SysResult<()> {
        let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let slot = p.regs.get_mut(idx).ok_or(Errno::Inval)?;
        *slot = Some(cap);
        Ok(())
    }

    fn shm_open(&mut self, ctx: &mut Ctx, pid: Pid, name: &str, len: u64) -> SysResult<Capability> {
        let pages = len.div_ceil(PAGE_SIZE);
        if !self.shm_objs.contains_key(name) {
            let mut frames = Vec::new();
            for _ in 0..pages {
                frames.push(self.pm.alloc_frame().map_err(|_| Errno::NoMem)?);
            }
            self.shm_objs.insert(name.to_string(), frames);
        }
        let frames = self.shm_objs[name].clone();
        let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let (shm_off, shm_len) = p.layout.shm;
        if p.shm_next + pages * PAGE_SIZE > shm_len {
            return Err(Errno::NoMem);
        }
        let map_base = PROC_BASE + shm_off + p.shm_next;
        p.shm_next += pages * PAGE_SIZE;
        let root = p.root;
        for (i, pfn) in frames.iter().take(pages as usize).enumerate() {
            self.pm.inc_ref(*pfn).map_err(|_| Errno::Fault)?;
            let vpn = VirtAddr(map_base + i as u64 * PAGE_SIZE).vpn();
            self.procs
                .get_mut(&pid)
                .unwrap()
                .pt
                .map(vpn, *pfn, PteFlags::rw());
            ctx.kernel(self.cost.pte_write);
        }
        root.with_bounds(map_base, len)
            .and_then(|c| c.with_perms(Perms::LOAD | Perms::STORE | Perms::GLOBAL))
            .map_err(|_| Errno::Fault)
    }

    fn mmap_anon(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let (mmap_off, mmap_len) = p.layout.mmap;
        if p.mmap_next + pages * PAGE_SIZE > mmap_len {
            return Err(Errno::NoMem);
        }
        let base = PROC_BASE + mmap_off + p.mmap_next;
        p.mmap_next += pages * PAGE_SIZE;
        let root = p.root;
        for i in 0..pages {
            let pfn = self.pm.alloc_frame().map_err(|_| Errno::NoMem)?;
            let vpn = VirtAddr(base + i * PAGE_SIZE).vpn();
            self.procs
                .get_mut(&pid)
                .unwrap()
                .pt
                .map(vpn, pfn, PteFlags::rw());
            ctx.kernel(self.cost.page_alloc + self.cost.pte_write);
            ctx.counters.ptes_written += 1;
        }
        root.with_bounds(base, len.max(1)).map_err(|_| Errno::Fault)
    }

    fn syscall_entry_cost(&self) -> f64 {
        match self.profile.syscall {
            SyscallStyle::Trap => self.cost.trap_syscall,
            SyscallStyle::Direct => self.cost.sealed_syscall,
        }
    }

    fn syscall_is_trap(&self) -> bool {
        self.profile.syscall == SyscallStyle::Trap
    }

    fn ctx_switch_cost(&self, from: Pid, to: Pid) -> f64 {
        let cross_as = from != to;
        self.cost.ctx_switch
            + if cross_as {
                self.profile.ctx_switch_extra
            } else {
                0.0
            }
    }

    fn big_kernel_lock(&self) -> bool {
        self.profile.big_lock
    }

    fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    fn copyio_cost_per_byte(&self) -> f64 {
        if self.profile.copyio {
            self.cost.copyio_per_byte
        } else {
            0.0
        }
    }

    fn mem_stats(&self, pid: Pid) -> MemStats {
        let Ok(p) = self.proc(pid) else {
            return MemStats::default();
        };
        let frames: Vec<Pfn> = p.pt.iter().map(|(_, pte)| pte.pfn).collect();
        MemStats::for_frames(&self.pm, frames)
    }

    fn allocated_frames(&self) -> u32 {
        self.pm.allocated_frames()
    }

    fn peak_frames(&self) -> u32 {
        self.pm.peak_allocated_frames()
    }

    fn audit_isolation(&self, pid: Pid) -> usize {
        // Separate address spaces: a process cannot name another's pages
        // at all. Audit only the register file for out-of-space caps.
        let Ok(p) = self.proc(pid) else { return 0 };
        p.regs
            .iter()
            .flatten()
            .filter(|c| !c.confined_to(PROC_BASE, p.layout.region_len()))
            .count()
    }
}

struct BUserMem<'a> {
    os: &'a mut MultiAsOs,
    ctx: &'a mut Ctx,
    pid: Pid,
}

impl BUserMem<'_> {
    fn cap_at(&self, va: u64, len: u64) -> SysResult<Capability> {
        self.os
            .proc(self.pid)?
            .root
            .with_bounds(va, len)
            .map_err(|_| Errno::Fault)
    }
}

impl UserMem for BUserMem<'_> {
    fn load(&mut self, va: u64, buf: &mut [u8]) -> SysResult<()> {
        let cap = self.cap_at(va, buf.len() as u64)?;
        self.os.load(self.ctx, self.pid, &cap, buf)
    }

    fn store(&mut self, va: u64, data: &[u8]) -> SysResult<()> {
        let cap = self.cap_at(va, data.len() as u64)?;
        self.os.store(self.ctx, self.pid, &cap, data)
    }

    fn load_cap(&mut self, va: u64) -> SysResult<Option<Capability>> {
        let cap = self.cap_at(va, GRANULE_SIZE)?;
        self.os.load_cap(self.ctx, self.pid, &cap)
    }

    fn store_cap(&mut self, va: u64, value: &Capability) -> SysResult<()> {
        let cap = self.cap_at(va, GRANULE_SIZE)?;
        self.os.store_cap(self.ctx, self.pid, &cap, value)
    }

    fn derive(&self, base: u64, len: u64) -> SysResult<Capability> {
        self.cap_at(base, len)
    }

    fn charge(&mut self, n: u64) {
        self.ctx.user(self.os.cost.cpu_op * n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mono, nephele, BaselineConfig};

    const P: Pid = Pid(1);
    const C: Pid = Pid(2);

    fn cfg() -> BaselineConfig {
        BaselineConfig {
            phys_mib: 64,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn mono_fork_preserves_addresses() {
        let mut os = mono(cfg());
        let mut ctx = Ctx::new();
        os.spawn(&mut ctx, P, &ImageSpec::hello_world()).unwrap();
        let a = os.malloc(&mut ctx, P, 64).unwrap();
        os.store(&mut ctx, P, &a, b"before-fork").unwrap();
        os.set_reg(P, 4, a).unwrap();
        os.fork(&mut ctx, P, C).unwrap();
        // Same virtual address in the child — no relocation.
        let ca = os.reg(C, 4).unwrap();
        assert_eq!(ca.base(), a.base());
        let mut b = [0u8; 11];
        os.load(&mut ctx, C, &ca.with_addr(ca.base()).unwrap(), &mut b)
            .unwrap();
        assert_eq!(&b, b"before-fork");
    }

    #[test]
    fn mono_cow_isolates_writes() {
        let mut os = mono(cfg());
        let mut ctx = Ctx::new();
        os.spawn(&mut ctx, P, &ImageSpec::hello_world()).unwrap();
        let a = os.malloc(&mut ctx, P, 64).unwrap();
        os.store(&mut ctx, P, &a, &1u64.to_le_bytes()).unwrap();
        os.fork(&mut ctx, P, C).unwrap();
        let faults_before = ctx.counters.cow_faults;
        os.store(&mut ctx, C, &a, &2u64.to_le_bytes()).unwrap();
        assert!(
            ctx.counters.cow_faults > faults_before,
            "child write CoW-faults"
        );
        let mut pb = [0u8; 8];
        os.load(&mut ctx, P, &a, &mut pb).unwrap();
        assert_eq!(u64::from_le_bytes(pb), 1);
        let mut cb = [0u8; 8];
        os.load(&mut ctx, C, &a, &mut cb).unwrap();
        assert_eq!(u64::from_le_bytes(cb), 2);
    }

    #[test]
    fn nephele_fork_is_much_more_expensive() {
        let mut m = mono(cfg());
        let mut n = nephele(cfg());
        let img = ImageSpec::hello_world();
        let mut cm = Ctx::new();
        m.spawn(&mut cm, P, &img).unwrap();
        let mut cm2 = Ctx::new();
        m.fork(&mut cm2, P, C).unwrap();
        let mut cn = Ctx::new();
        n.spawn(&mut cn, P, &img).unwrap();
        let mut cn2 = Ctx::new();
        n.fork(&mut cn2, P, C).unwrap();
        assert!(
            cn2.kernel_ns > 20.0 * cm2.kernel_ns,
            "nephele fork ({:.0}ns) must dwarf mono fork ({:.0}ns)",
            cn2.kernel_ns,
            cm2.kernel_ns
        );
    }

    #[test]
    fn nephele_per_process_memory_includes_guest_image() {
        let mut m = mono(cfg());
        let mut n = nephele(cfg());
        let img = ImageSpec::hello_world();
        let mut c = Ctx::new();
        m.spawn(&mut c, P, &img).unwrap();
        n.spawn(&mut c, P, &img).unwrap();
        let sm = m.mem_stats(P);
        let sn = n.mem_stats(P);
        assert!(sn.rss_bytes > sm.rss_bytes + 2 * 1024 * 1024);
    }

    #[test]
    fn trap_vs_direct_syscall_costs() {
        let m = mono(cfg());
        let n = nephele(cfg());
        assert!(m.syscall_is_trap());
        assert!(!n.syscall_is_trap());
        assert!(m.syscall_entry_cost() > n.syscall_entry_cost());
    }

    #[test]
    fn forged_cap_refused_on_cheribsd() {
        let mut os = mono(cfg());
        let mut ctx = Ctx::new();
        os.spawn(&mut ctx, P, &ImageSpec::hello_world()).unwrap();
        let forged = Capability::new_root(0xffff_0000_0000, 64, Perms::data());
        assert_eq!(
            os.store(&mut ctx, P, &forged, &[0]).unwrap_err(),
            Errno::Fault
        );
        assert_eq!(ctx.counters.isolation_violations, 1);
    }

    #[test]
    fn fork_memory_shared_until_written() {
        let mut os = mono(cfg());
        let mut ctx = Ctx::new();
        os.spawn(&mut ctx, P, &ImageSpec::hello_world()).unwrap();
        let before = os.allocated_frames();
        os.fork(&mut ctx, P, C).unwrap();
        // CoW: fork itself allocates nothing.
        assert_eq!(os.allocated_frames(), before);
        let s = os.mem_stats(C);
        assert_eq!(s.private_frames, 0);
        assert!(s.shared_frames > 0);
    }
}
