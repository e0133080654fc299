//! The μFork kernel: μprocesses in a single address space.

use std::collections::BTreeMap;

use ufork_abi::{CopyStrategy, Errno, ImageSpec, IsolationLevel, Pid, SysResult};
use ufork_cheri::{Capability, Perms};
use ufork_exec::{Ctx, MemOs};
use ufork_mem::{FrameDedupIndex, MemStats, Pfn, PhysMem, GRANULE_SIZE, PAGE_SIZE};
use ufork_sim::CostModel;
use ufork_vmem::{PageTable, PteFlags, Region, RegionAllocator, VirtAddr, Vpn};

use crate::fork_par::WalkMode;
use crate::gate::SyscallGate;
use crate::journal::{FallbackPolicy, ForkJournal};
use crate::layout::{ProcLayout, Segment};
use crate::region_index::RegionIndex;
use crate::reloc::ScanMode;
use crate::talloc::{TAlloc, UserMem};

/// μFork kernel configuration.
#[derive(Clone, Debug)]
pub struct UforkConfig {
    /// Physical memory size in MiB.
    pub phys_mib: u32,
    /// Memory duplication strategy for fork (paper §3.8).
    pub strategy: CopyStrategy,
    /// Isolation level (paper §3.6).
    pub isolation: IsolationLevel,
    /// Hardware cost model.
    pub cost: CostModel,
    /// Seed for μprocess region ASLR (`None` disables it).
    pub aslr_seed: Option<u64>,
    /// Span of the μprocess area in bytes (shrink to provoke region
    /// exhaustion in tests).
    pub uproc_area_len: u64,
    /// Proactively copy GOT + allocator-metadata pages at fork (paper
    /// §3.5). Disable to ablate: under CoPA the pages are then copied
    /// lazily on the child's first capability load instead.
    pub eager_fork_copies: bool,
    /// How the relocation scan discovers tagged granules: the
    /// `CLoadTags`-style tag-summary fast path (default), or the naive
    /// per-granule sweep kept as an ablation. The naive mode also uses the
    /// legacy rebuild-and-linear-scan region lookup, so it reproduces the
    /// pre-optimization host cost faithfully.
    pub scan: ScanMode,
    /// How the fork walk executes the eager copy/relocate sweep: the
    /// single-lane serial walk (default, the ablation baseline) or the
    /// multi-worker parallel engine with deterministic lane clocks.
    /// `Parallel` and `Pipelined` require the tag-summary scan; under
    /// `ScanMode::Naive` the walk copies inline, as `Serial`.
    pub walk: WalkMode,
    /// What fork admission control does when the requested copy
    /// strategy's frame demand cannot be reserved: fail up front
    /// (`Strict`, default), degrade `Full → CoA → CoPA` until the demand
    /// fits (`Degrade`), or skip the pre-flight entirely (`Disabled`).
    pub fallback: FallbackPolicy,
    /// Maintain per-PTE fork-generation stamps and soft-dirty bits so
    /// repeat forks from the same parent can use
    /// [`CopyScope::DirtySince`](crate::CopyScope) and touch only pages
    /// written since the previous fork (ROADMAP item 2). Off by default:
    /// single-shot forks pay the stamp sweep without ever reaping it.
    pub track_dirty: bool,
    /// Probe the cross-child [`FrameDedupIndex`] before materializing an
    /// eager copy, so identical (untagged) frames are shared across
    /// sibling children instead of copied per child. Off by default.
    pub dedup_frames: bool,
    /// Run the background reclaim daemon: a schedulable kernel μtask
    /// (driven by the executive, like the pipelined-fork copy engine)
    /// that scrubs recycled frames into the clean-frame magazine
    /// whenever allocator pressure reaches `Elevated`, so grant-time
    /// zeroing of `ZeroPolicy::Zeroed` allocations hits pre-zeroed
    /// frames off the hot path. Off by default: with the daemon off the
    /// executive never schedules reclaim μtasks and all zeroing stays
    /// inline, preserving prior schedules exactly.
    pub reclaim_daemon: bool,
}

impl Default for UforkConfig {
    fn default() -> UforkConfig {
        UforkConfig {
            phys_mib: 1024,
            strategy: CopyStrategy::CoPA,
            isolation: IsolationLevel::Full,
            cost: CostModel::morello(),
            aslr_seed: None,
            uproc_area_len: UPROC_AREA_LEN,
            eager_fork_copies: true,
            scan: ScanMode::default(),
            walk: WalkMode::default(),
            fallback: FallbackPolicy::default(),
            track_dirty: false,
            dedup_frames: false,
            reclaim_daemon: false,
        }
    }
}

/// Kernel-side state of one μprocess.
pub(crate) struct UProc {
    pub(crate) region: Region,
    pub(crate) layout: ProcLayout,
    /// Kernel-held root capability over the whole region.
    pub(crate) root: Capability,
    /// Capability register file (relocated at fork, paper §3.5 step 2).
    pub(crate) regs: Vec<Option<Capability>>,
    /// Bump offset for the next shm mapping in the shm window.
    pub(crate) shm_next: u64,
    /// Bump offset for the next anonymous mmap in the mmap window.
    pub(crate) mmap_next: u64,
    /// True once the μprocess has forked (its region is then retired, not
    /// reused, so relocation lookups on shared frames stay unambiguous).
    pub(crate) had_children: bool,
    /// Fork generation its PTEs were last stamped with (dirty tracking).
    /// Valid only while `dirty_tracked` is set.
    pub(crate) dirty_gen: u32,
    /// True once a fork under `track_dirty` has stamped this μprocess's
    /// PTEs, making `CopyScope::DirtySince(dirty_gen)` sound for the
    /// next fork.
    pub(crate) dirty_tracked: bool,
}

/// Number of capability registers per μprocess.
pub const NUM_REGS: usize = 32;

/// Base of the μprocess area in the single address space (the kernel
/// occupies high memory).
const UPROC_AREA_BASE: u64 = 0x0000_0010_0000;
/// Span of the μprocess area.
const UPROC_AREA_LEN: u64 = 1 << 44;
/// Kernel text location (for the syscall gate).
const KERNEL_TEXT_BASE: u64 = 0xffff_0000_0000;

/// The μFork single-address-space kernel.
///
/// Implements [`MemOs`]; see the crate docs for the design summary.
pub struct UforkOs {
    pub(crate) cost: CostModel,
    pub(crate) strategy: CopyStrategy,
    pub(crate) eager_fork_copies: bool,
    pub(crate) isolation: IsolationLevel,
    pub(crate) scan: ScanMode,
    pub(crate) walk: WalkMode,
    pub(crate) fallback: FallbackPolicy,
    pub(crate) track_dirty: bool,
    pub(crate) dedup_frames: bool,
    pub(crate) reclaim_daemon: bool,
    /// Cross-child frame-dedup index (empty unless `dedup_frames`).
    pub(crate) dedup: FrameDedupIndex,
    /// Journal of the in-flight fork's side effects (empty between
    /// forks); see [`crate::journal`].
    pub(crate) journal: ForkJournal,
    pub(crate) pm: PhysMem,
    /// THE page table — a single address space has exactly one.
    pub(crate) pt: PageTable,
    pub(crate) regions: RegionAllocator,
    pub(crate) procs: BTreeMap<Pid, UProc>,
    /// Open background-copy windows of committed pipelined forks, keyed
    /// by child pid; see [`crate::pipeline`].
    pub(crate) pipelines: BTreeMap<Pid, crate::pipeline::PipelineState>,
    /// Regions of exited μprocesses that forked (kept for relocation
    /// source lookups; never reused).
    pub(crate) retired: Vec<Region>,
    /// Ordered index over live + retired regions for O(log n) relocation
    /// source lookups (replaces rebuilding a `Vec` per fork/fault).
    pub(crate) region_index: RegionIndex,
    shm_objs: BTreeMap<String, Vec<Pfn>>,
    gate: SyscallGate,
}

impl UforkOs {
    /// Boots the kernel: physical memory, region allocator, syscall gate.
    pub fn new(cfg: UforkConfig) -> UforkOs {
        let mut regions =
            RegionAllocator::new(VirtAddr(UPROC_AREA_BASE), cfg.uproc_area_len, PAGE_SIZE);
        if let Some(seed) = cfg.aslr_seed {
            regions.set_aslr_seed(seed);
        }
        let kernel_text = Capability::new_root(KERNEL_TEXT_BASE, 0x100_0000, Perms::kernel());
        let gate = SyscallGate::new(&kernel_text, KERNEL_TEXT_BASE + 0x1000)
            .expect("gate construction is infallible at boot");
        UforkOs {
            cost: cfg.cost,
            strategy: cfg.strategy,
            eager_fork_copies: cfg.eager_fork_copies,
            isolation: cfg.isolation,
            scan: cfg.scan,
            walk: cfg.walk,
            fallback: cfg.fallback,
            track_dirty: cfg.track_dirty,
            dedup_frames: cfg.dedup_frames,
            reclaim_daemon: cfg.reclaim_daemon,
            dedup: FrameDedupIndex::new(),
            journal: ForkJournal::default(),
            pm: PhysMem::with_mib(cfg.phys_mib),
            pt: PageTable::new(),
            regions,
            procs: BTreeMap::new(),
            pipelines: BTreeMap::new(),
            retired: Vec::new(),
            region_index: RegionIndex::new(),
            shm_objs: BTreeMap::new(),
            gate,
        }
    }

    /// The trap-less syscall gate (sealed entry capability).
    pub fn gate(&self) -> &SyscallGate {
        &self.gate
    }

    /// Forks with an explicit [`CopyScope`](crate::CopyScope), bypassing
    /// the automatic scope selection in [`MemOs::fork`]. A
    /// `DirtySince(gen)` request that is not sound — dirty tracking off,
    /// the parent never stamped, or `gen` not the parent's current
    /// cursor — is silently widened to `Everything` (copying more than
    /// asked is always safe; copying less never is).
    pub fn fork_scoped(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        child: Pid,
        scope: crate::CopyScope,
    ) -> SysResult<()> {
        let scope = match scope {
            crate::CopyScope::DirtySince(gen)
                if self.track_dirty
                    && self
                        .proc(parent)
                        .is_ok_and(|p| p.dirty_tracked && p.dirty_gen == gen) =>
            {
                scope
            }
            _ => crate::CopyScope::Everything,
        };
        let r = self.fork_uproc(ctx, parent, child, scope);
        ctx.phase_end();
        r
    }

    /// The parent's current dirty-tracking generation, if its PTEs have
    /// been stamped (i.e. it has forked at least once under
    /// [`UforkConfig::track_dirty`]). `None` means only
    /// `CopyScope::Everything` is sound.
    pub fn fork_generation(&self, pid: Pid) -> Option<u32> {
        let p = self.proc(pid).ok()?;
        p.dirty_tracked.then_some(p.dirty_gen)
    }

    /// Test support for the generation-bit hygiene property: how many of
    /// `pid`'s PTEs currently carry the soft-dirty bit. Right after a
    /// fork under [`UforkConfig::track_dirty`] this must be zero — the
    /// stamp clears every dirty bit exactly once — and each store-kind
    /// fault afterwards raises exactly one.
    pub fn dirty_page_count(&self, pid: Pid) -> SysResult<usize> {
        let p = self.proc(pid)?;
        let start = p.region.base.vpn();
        let end = ufork_vmem::Vpn(p.region.top().0.div_ceil(ufork_mem::PAGE_SIZE));
        Ok(self
            .pt
            .range(start, end)
            .filter(|(_, pte)| pte.flags.contains(ufork_vmem::PteFlags::DIRTY))
            .count())
    }

    /// The copy strategy in effect.
    pub fn strategy(&self) -> CopyStrategy {
        self.strategy
    }

    /// The region occupied by `pid`, as `(base, len)`.
    pub fn region_of(&self, pid: Pid) -> SysResult<(u64, u64)> {
        let p = self.proc(pid)?;
        Ok((p.region.base.0, p.region.len))
    }

    /// Total frame-allocation attempts since boot (successful or not).
    /// The differential oracle counts a clean run's attempts, then
    /// replays the same program failing each attempt in turn.
    pub fn frame_alloc_attempts(&self) -> u64 {
        self.pm.alloc_attempts()
    }

    /// Arms deterministic fault injection: frame-allocation attempt
    /// number `attempt` (0-based since boot) fails with `NoMem`. One-shot.
    /// Reaches every allocation path — eager fork copies, CoW/CoA/CoPA
    /// fault resolution (including capability-load faults), spawn, mmap.
    pub fn inject_frame_alloc_failure(&mut self, attempt: u64) {
        self.pm.fail_alloc_at(attempt);
    }

    /// Total frame-copy attempts since boot (successful or not), the
    /// index space for [`UforkOs::inject_frame_copy_failure`].
    pub fn frame_copy_attempts(&self) -> u64 {
        self.pm.copy_attempts()
    }

    /// Arms deterministic copy-failure injection: frame-copy attempt
    /// number `attempt` (0-based since boot) fails as if the destination
    /// frame were poisoned. One-shot. Reaches the eager fork copies and
    /// CoW/CoA/CoPA fault resolution.
    pub fn inject_frame_copy_failure(&mut self, attempt: u64) {
        self.pm.fail_copy_at(attempt);
    }

    /// Total fork-journal ops recorded since boot, the index space for
    /// [`UforkOs::inject_journal_failure`]. The chaos sweep measures a
    /// clean fork's op window with this, then replays the same fork
    /// failing each op in turn.
    pub fn journal_ops_recorded(&self) -> u64 {
        self.journal.recorded()
    }

    /// Arms deterministic journal fault injection: recording journal op
    /// number `op` (0-based since boot) fails, aborting and rolling back
    /// the fork in flight. One-shot. Unlike allocator-level `NoMem`,
    /// injected journal aborts are *not* absorbed by the
    /// reclaim-then-retry loop — the fork fails so the sweep can audit
    /// the rollback.
    pub fn inject_journal_failure(&mut self, op: u64) {
        self.journal.fail_at(op);
    }

    /// Overrides the allocator's pressure watermarks (both counted in
    /// *available* frames). Tests and the chaos sweep use this to force
    /// elevated pressure on an otherwise lightly-loaded machine, so the
    /// background reclaim daemon engages without filling physical
    /// memory first.
    pub fn set_pressure_watermarks(&mut self, low: u32, high: u32) {
        self.pm.set_watermarks(low, high);
    }

    /// Audits global kernel memory state; the invariants a failed or
    /// unwound fork must not break. Returns `(dangling_ptes,
    /// unaccounted_frames)`:
    ///
    /// * a PTE is *dangling* if it maps a page outside every live
    ///   μprocess region, or targets a frame that is no longer allocated;
    /// * a frame is *unaccounted* if its total refcount across all live
    ///   PTEs and shm objects does not equal its allocator refcount
    ///   (i.e. references were leaked or double-freed).
    pub fn audit_kernel(&self) -> (usize, usize) {
        use std::collections::BTreeMap as Map;
        // Live regions sorted by base. The region allocator hands out
        // disjoint spans, so "inside some live region" is one binary
        // search per PTE: the region with the greatest base at or below it.
        let mut live: Vec<(u64, u64)> = self
            .procs
            .values()
            .map(|p| (p.region.base.0, p.region.top().0))
            .collect();
        live.sort_unstable();
        let mut dangling = 0usize;
        let mut refs: Map<u32, u32> = Map::new();
        for (vpn, pte) in self.pt.iter() {
            let va = vpn.base().0;
            let at = live.partition_point(|&(base, _)| base <= va);
            let in_live = at.checked_sub(1).is_some_and(|i| va < live[i].1);
            if !in_live || self.pm.refcount(pte.pfn).is_err() {
                dangling += 1;
                continue;
            }
            *refs.entry(pte.pfn.0).or_default() += 1;
        }
        // Shm objects hold one reference per frame while the object is
        // alive, on top of one per mapping.
        for frames in self.shm_objs.values() {
            for pfn in frames {
                *refs.entry(pfn.0).or_default() += 1;
            }
        }
        let mut unaccounted = 0usize;
        for (&raw, &seen) in &refs {
            match self.pm.refcount(Pfn(raw)) {
                Ok(rc) if rc == seen => {}
                _ => unaccounted += 1,
            }
        }
        // Frames allocated but not referenced by any PTE or shm object
        // are leaks.
        unaccounted += (self.pm.allocated_frames() as usize).saturating_sub(refs.len());
        (dangling, unaccounted)
    }

    /// Removes a named shared-memory object, dropping the object's own
    /// reference on each backing frame. Live mappings keep their frames
    /// alive through the per-mapping references; once every mapping is
    /// unmapped (process teardown) the frames return to the allocator.
    /// Returns whether the object existed.
    pub fn shm_unlink(&mut self, name: &str) -> bool {
        let Some(frames) = self.shm_objs.remove(name) else {
            return false;
        };
        for pfn in frames {
            let _ = self.pm.dec_ref(pfn);
        }
        true
    }

    /// Page-table flags for a segment when fully owned (not shared).
    pub(crate) fn seg_flags(seg: Segment) -> PteFlags {
        match seg {
            Segment::Text => PteFlags::rx(),
            Segment::Got => PteFlags::ro(),
            // Shm carries the SHARED software bit so every walk (and
            // fault-time remaps) refcount-shares rather than copies.
            Segment::Shm => PteFlags::rw().with(PteFlags::SHARED),
            Segment::Data
            | Segment::Stack
            | Segment::HeapMeta
            | Segment::HeapArena
            | Segment::Mmap => PteFlags::rw(),
        }
    }

    pub(crate) fn proc(&self, pid: Pid) -> SysResult<&UProc> {
        self.procs.get(&pid).ok_or(Errno::Inval)
    }

    /// Legacy region lookup for relocation: rebuilds a `Vec` of live
    /// μprocess regions, then retired regions (most recent first), for
    /// linear scanning. Kept only for [`ScanMode::Naive`], which
    /// reproduces the pre-optimization cost profile; the fast path uses
    /// the incrementally-maintained [`RegionIndex`] instead. Both return
    /// the same region for every address (regions are pairwise disjoint).
    pub(crate) fn source_regions(&self) -> Vec<Region> {
        let mut v: Vec<Region> = self.procs.values().map(|p| p.region).collect();
        v.extend(self.retired.iter().rev().copied());
        v
    }

    /// The allocator view over a μprocess heap.
    pub(crate) fn talloc_of(&self, pid: Pid) -> SysResult<TAlloc> {
        let p = self.proc(pid)?;
        Ok(TAlloc {
            meta_base: p.region.base.0 + p.layout.heap_meta.0,
            max_blocks: p.layout.max_blocks(),
            arena_base: p.region.base.0 + p.layout.heap_arena.0,
            arena_len: p.layout.heap_arena.1,
        })
    }

    /// Maps fresh zeroed frames for `[base, base+len)` with `flags`.
    ///
    /// Frames are allocated up front and the PTEs land in one
    /// [`PageTable::map_range`] batch; if allocation fails partway the
    /// already-allocated frames are released and nothing is mapped.
    fn map_fresh(
        &mut self,
        ctx: &mut Ctx,
        base: VirtAddr,
        len: u64,
        flags: PteFlags,
    ) -> SysResult<()> {
        let mut vpns = ufork_vmem::pages_covering(base, len);
        let Some(start) = vpns.next() else {
            return Ok(());
        };
        let pages = 1 + vpns.count() as u64;
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            match self.pm.alloc_frame() {
                Ok(pfn) => frames.push(pfn),
                Err(_) => {
                    for pfn in frames {
                        let _ = self.pm.dec_ref(pfn);
                    }
                    return Err(Errno::NoMem);
                }
            }
        }
        let n = self.pt.map_range(start, frames, flags);
        ctx.kernel((self.cost.page_alloc + self.cost.pte_write) * n as f64);
        ctx.counters.ptes_written += n;
        Ok(())
    }
}

impl MemOs for UforkOs {
    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn spawn(&mut self, ctx: &mut Ctx, pid: Pid, image: &ImageSpec) -> SysResult<()> {
        let layout = ProcLayout::for_image(image);
        let region = self
            .regions
            .alloc(layout.region_len())
            .map_err(|_| Errno::NoMem)?;
        let base = region.base;

        // Map every segment except the shm window (mapped on demand).
        let segs = [
            (layout.text, Segment::Text),
            (layout.got, Segment::Got),
            (layout.data, Segment::Data),
            (layout.stack, Segment::Stack),
            (layout.heap_meta, Segment::HeapMeta),
            (layout.heap_arena, Segment::HeapArena),
        ];
        for ((off, len), seg) in segs {
            self.map_fresh(ctx, VirtAddr(base.0 + off), len, Self::seg_flags(seg))?;
        }

        // The μprocess root: confined to the region, no SYSTEM permission
        // (paper §4.4 principle 2: user code cannot execute privileged
        // instructions).
        let root = Capability::new_root(base.0, layout.region_len(), Perms::data());
        debug_assert!(!root.perms().contains(Perms::SYSTEM));

        // Populate the GOT: one capability per global symbol, pointing
        // into the image's segments (PIC global addressing, paper §3.7).
        let got_base = base.0 + layout.got.0;
        for slot in 0..layout.got_slots {
            let target_off = match slot % 3 {
                0 => layout.text.0 + (slot * 64) % layout.text.1,
                1 => layout.data.0 + (slot * 128) % layout.data.1,
                _ => layout.heap_arena.0 + (slot * 256) % layout.heap_arena.1,
            };
            let target = root
                .with_bounds(
                    base.0 + target_off,
                    64.min(layout.region_len() - target_off),
                )
                .map_err(|_| Errno::Fault)?;
            let va = VirtAddr(got_base + slot * GRANULE_SIZE);
            let pte = self.pt.lookup(va.vpn()).ok_or(Errno::Fault)?;
            self.pm
                .store_cap(pte.pfn, va.page_offset(), &target)
                .map_err(|_| Errno::Fault)?;
        }

        // Plant a small frame-pointer chain in the stack so fork has
        // register- and stack-resident capabilities to relocate.
        let stack_base = base.0 + layout.stack.0;
        for i in 0..4u64 {
            let va = VirtAddr(stack_base + i * 512);
            let target = root
                .with_bounds(stack_base + (i + 1) * 512, 256)
                .map_err(|_| Errno::Fault)?;
            let pte = self.pt.lookup(va.vpn()).ok_or(Errno::Fault)?;
            self.pm
                .store_cap(pte.pfn, va.page_offset(), &target)
                .map_err(|_| Errno::Fault)?;
        }

        let mut regs = vec![None; NUM_REGS];
        regs[0] = Some(root); // data root
        regs[1] = Some(
            root.with_bounds(stack_base, layout.stack.1)
                .map_err(|_| Errno::Fault)?,
        ); // stack pointer
        regs[2] = Some(Capability::new_root(base.0, layout.text.1, Perms::code())); // PCC

        self.procs.insert(
            pid,
            UProc {
                region,
                layout,
                root,
                regs,
                shm_next: 0,
                mmap_next: 0,
                had_children: false,
                dirty_gen: 0,
                dirty_tracked: false,
            },
        );
        self.region_index.insert(region);

        // Initialize the in-memory allocator through the user path.
        let ta = self.talloc_of(pid)?;
        let mut um = KUserMem { os: self, ctx, pid };
        ta.init(&mut um)?;
        Ok(())
    }

    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()> {
        // Automatic scope selection: once the parent's PTEs carry a
        // generation stamp, every later fork only needs the pages dirtied
        // since — the incremental-snapshot fast path (ROADMAP item 2).
        let scope = match self.proc(parent) {
            Ok(p) if self.track_dirty && p.dirty_tracked => {
                crate::CopyScope::DirtySince(p.dirty_gen)
            }
            _ => crate::CopyScope::Everything,
        };
        let r = self.fork_uproc(ctx, parent, child, scope);
        // Close whatever fork phase is open, on success and error alike,
        // so post-fork charges never inherit a fork phase.
        ctx.phase_end();
        r
    }

    fn destroy(&mut self, ctx: &mut Ctx, pid: Pid) {
        let Some(p) = self.procs.remove(&pid) else {
            return;
        };
        // A child dying mid-window abandons its background copies: the
        // unmap below drops the staged shared references, and the
        // admission hold for the never-copied span is handed back.
        if let Some(s) = self.pipelines.remove(&pid) {
            self.pm.release(s.reserved);
        }
        let start = p.region.base.vpn();
        let end = Vpn(p.region.top().0.div_ceil(PAGE_SIZE));
        for (_, pte) in self.pt.unmap_range(start, end) {
            let _ = self.pm.dec_ref(pte.pfn);
            ctx.kernel(self.cost.pte_write * 0.5);
        }
        if p.had_children {
            // The region stays indexed: still a relocation source for
            // frames the children share.
            self.retired.push(p.region);
        } else {
            self.region_index.remove(p.region);
            let _ = self.regions.free(p.region);
        }
    }

    fn load(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.user_load(ctx, pid, cap, buf)
    }

    fn store(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.user_store(ctx, pid, cap, data)
    }

    fn load_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        self.user_load_cap(ctx, pid, cap)
    }

    fn store_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        value: &Capability,
    ) -> SysResult<()> {
        self.user_store_cap(ctx, pid, cap, value)
    }

    fn malloc(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        let ta = self.talloc_of(pid)?;
        let mut um = KUserMem { os: self, ctx, pid };
        ta.malloc(&mut um, len)
    }

    fn mfree(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability) -> SysResult<()> {
        let ta = self.talloc_of(pid)?;
        let mut um = KUserMem { os: self, ctx, pid };
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
        if frames.len() < pages as usize {
            return Err(Errno::Inval);
        }
        let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let (shm_off, shm_len) = p.layout.shm;
        if p.shm_next + pages * PAGE_SIZE > shm_len {
            return Err(Errno::NoMem);
        }
        let map_base = p.region.base.0 + shm_off + p.shm_next;
        p.shm_next += pages * PAGE_SIZE;
        let root = p.root;
        for (i, pfn) in frames.iter().take(pages as usize).enumerate() {
            self.pm.inc_ref(*pfn).map_err(|_| Errno::Fault)?;
            let vpn = VirtAddr(map_base + i as u64 * PAGE_SIZE).vpn();
            self.pt.map(vpn, *pfn, Self::seg_flags(Segment::Shm));
            ctx.kernel(self.cost.pte_write);
            ctx.counters.ptes_written += 1;
        }
        // Data-only sharing: no capability load/store permission, so
        // capabilities cannot leak across μprocesses through shm
        // (paper §4.3, "capabilities do not leak across μprocesses").
        root.with_bounds(map_base, len)
            .and_then(|c| c.with_perms(Perms::LOAD | Perms::STORE | Perms::GLOBAL))
            .map_err(|_| Errno::Fault)
    }

    fn mmap_anon(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let (base, root) = {
            let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
            let (mmap_off, mmap_len) = p.layout.mmap;
            if p.mmap_next + pages * PAGE_SIZE > mmap_len {
                return Err(Errno::NoMem);
            }
            let base = p.region.base.0 + mmap_off + p.mmap_next;
            p.mmap_next += pages * PAGE_SIZE;
            (base, p.root)
        };
        self.map_fresh(ctx, VirtAddr(base), pages * PAGE_SIZE, PteFlags::rw())?;
        root.with_bounds(base, len.max(1)).map_err(|_| Errno::Fault)
    }

    fn pipeline_pending(&self, pid: Pid) -> u64 {
        self.pipeline_pending_pages(pid)
    }

    fn pipeline_step(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<bool> {
        self.pipeline_copy_next(ctx, pid).map(|c| c.is_some())
    }

    fn reclaim_pending(&self) -> bool {
        self.reclaim_pending_uproc()
    }

    fn reclaim_step(&mut self, ctx: &mut Ctx) -> SysResult<u64> {
        self.reclaim_step_uproc(ctx)
    }

    fn resident_pages(&self, pid: Pid) -> u64 {
        self.resident_pages_uproc(pid)
    }

    fn oom_reap(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<()> {
        self.oom_reap_uproc(ctx, pid)
    }

    fn syscall_entry_cost(&self) -> f64 {
        self.cost.sealed_syscall
    }

    fn syscall_is_trap(&self) -> bool {
        false
    }

    fn ctx_switch_cost(&self, _from: Pid, _to: Pid) -> f64 {
        // Same address space: no page-table switch, no TLB flush.
        self.cost.ctx_switch
    }

    fn big_kernel_lock(&self) -> bool {
        true // Unikraft SMP model (paper §4.5)
    }

    fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    fn copyio_cost_per_byte(&self) -> f64 {
        // Single address space: the kernel reads user buffers in place.
        // (TOCTTOU copies, when enabled, are charged by `charge_syscall`.)
        0.0
    }

    fn mem_stats(&self, pid: Pid) -> MemStats {
        let Ok(p) = self.proc(pid) else {
            return MemStats::default();
        };
        let start = p.region.base.vpn();
        let end = Vpn(p.region.top().0.div_ceil(PAGE_SIZE));
        let frames: Vec<Pfn> = self.pt.range(start, end).map(|(_, pte)| pte.pfn).collect();
        let mut s = MemStats::for_frames(&self.pm, frames);
        s.dedup_entries = self.dedup.len() as u64;
        s
    }

    fn allocated_frames(&self) -> u32 {
        self.pm.allocated_frames()
    }

    fn peak_frames(&self) -> u32 {
        self.pm.peak_allocated_frames()
    }

    fn audit_isolation(&self, pid: Pid) -> usize {
        let Ok(p) = self.proc(pid) else { return 0 };
        let mut violations = 0;
        for cap in p.regs.iter().flatten() {
            if !cap.confined_to(p.region.base.0, p.region.len) {
                violations += 1;
            }
        }
        let start = p.region.base.vpn();
        let end = Vpn(p.region.top().0.div_ceil(PAGE_SIZE));
        for (vpn, pte) in self.pt.range(start, end) {
            // Pages the μprocess cannot load capabilities from do not
            // expose their (possibly stale) contents.
            if !pte.flags.contains(PteFlags::READ)
                || pte.flags.contains(PteFlags::LC_FAULT)
                || pte.flags.contains(PteFlags::COA)
            {
                continue;
            }
            let off = vpn.base().0 - p.region.base.0;
            if p.layout.segment_of(off) == Segment::Shm {
                continue; // shm caps are forbidden by missing perms
            }
            let Ok(frame) = self.pm.frame(pte.pfn) else {
                continue;
            };
            for (_, cap) in frame.tagged_granules() {
                if !cap.confined_to(p.region.base.0, p.region.len) {
                    violations += 1;
                }
            }
        }
        violations
    }
}

/// [`UserMem`] adapter: runs allocator metadata accesses through the
/// kernel's checked user path on behalf of `pid`.
pub(crate) struct KUserMem<'a> {
    pub(crate) os: &'a mut UforkOs,
    pub(crate) ctx: &'a mut Ctx,
    pub(crate) pid: Pid,
}

impl KUserMem<'_> {
    fn cap_at(&self, va: u64, len: u64) -> SysResult<Capability> {
        let p = self.os.proc(self.pid)?;
        p.root.with_bounds(va, len).map_err(|_| Errno::Fault)
    }
}

impl UserMem for KUserMem<'_> {
    fn load(&mut self, va: u64, buf: &mut [u8]) -> SysResult<()> {
        let cap = self.cap_at(va, buf.len() as u64)?;
        self.os.user_load(self.ctx, self.pid, &cap, buf)
    }

    fn store(&mut self, va: u64, data: &[u8]) -> SysResult<()> {
        let cap = self.cap_at(va, data.len() as u64)?;
        self.os.user_store(self.ctx, self.pid, &cap, data)
    }

    fn load_cap(&mut self, va: u64) -> SysResult<Option<Capability>> {
        let cap = self.cap_at(va, GRANULE_SIZE)?;
        self.os.user_load_cap(self.ctx, self.pid, &cap)
    }

    fn store_cap(&mut self, va: u64, value: &Capability) -> SysResult<()> {
        let cap = self.cap_at(va, GRANULE_SIZE)?;
        self.os.user_store_cap(self.ctx, self.pid, &cap, value)
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

    /// A PTE is dangling exactly when its page lies outside every live
    /// region: below the first, in the gap an exited μprocess left, at a
    /// region's top, or past the last. A stray PTE inside a live region
    /// is not dangling; it shows up as an unaccounted frame instead.
    #[test]
    fn audit_flags_ptes_outside_every_live_region() {
        let mut os = UforkOs::new(UforkConfig {
            phys_mib: 64,
            ..UforkConfig::default()
        });
        let mut ctx = Ctx::new();
        let image = ImageSpec::with_heap("audit", 64 * 1024);
        for pid in 1..=3 {
            os.spawn(&mut ctx, Pid(pid), &image).unwrap();
        }
        let region = |os: &UforkOs, pid| os.procs[&Pid(pid)].region;
        let (first, gap, last) = (region(&os, 1), region(&os, 2), region(&os, 3));
        os.destroy(&mut ctx, Pid(2));
        assert_eq!(os.audit_kernel(), (0, 0));

        let pfn = os.pt.iter().next().unwrap().1.pfn;
        let inside = (first.base.0..first.top().0)
            .step_by(PAGE_SIZE as usize)
            .map(|va| VirtAddr(va).vpn())
            .find(|&vpn| os.pt.lookup(vpn).is_none())
            .expect("an unmapped page inside the first region");
        let cases = [
            (VirtAddr(first.base.0 - PAGE_SIZE).vpn(), (1, 0)),
            (gap.base.vpn(), (1, 0)),
            (last.top().vpn(), (1, 0)),
            (VirtAddr(last.top().0 + 64 * PAGE_SIZE).vpn(), (1, 0)),
            (inside, (0, 1)),
        ];
        for (vpn, want) in cases {
            os.pt.map(vpn, pfn, PteFlags::rw());
            assert_eq!(os.audit_kernel(), want, "stray PTE at {:#x}", vpn.base().0);
            os.pt.unmap(vpn);
        }
        assert_eq!(os.audit_kernel(), (0, 0));
    }
}
