//! The [`MemOs`] trait: where the three compared systems differ.

use ufork_abi::{ImageSpec, IsolationLevel, Pid, SysResult};
use ufork_cheri::Capability;
use ufork_mem::MemStats;
use ufork_sim::{CostModel, Instant};

use crate::ctx::Ctx;

/// The memory-and-process backend of a simulated operating system.
///
/// Implemented by:
/// * `ufork` — the paper's system: single address space, capability
///   relocation, CoW/CoA/CoPA, sealed-capability syscalls;
/// * `ufork_baselines::MonoOs` — CheriBSD-like: per-process page tables,
///   classic CoW fork without relocation, trap syscalls, TLB flushes on
///   context switch;
/// * `ufork_baselines::NepheleOs` — VM cloning: fork duplicates the whole
///   guest (kernel + application) through the hypervisor.
///
/// All operations charge simulated time to the [`Ctx`] and update its
/// counters. Memory accesses must perform the same checks the respective
/// real system would (capability bounds/permissions, page permissions) and
/// resolve transparent faults internally.
pub trait MemOs {
    /// The hardware cost model in effect.
    fn cost(&self) -> &CostModel;

    /// Creates the initial memory of process `pid` from an image
    /// description. Registers are initialized with the image's root
    /// capabilities (register 0 = heap/data root by convention).
    fn spawn(&mut self, ctx: &mut Ctx, pid: Pid, image: &ImageSpec) -> SysResult<()>;

    /// Forks `parent`'s memory into new process `child`, duplicating
    /// registers (relocated, for μFork) and charging the system's full
    /// fork cost.
    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()>;

    /// Releases all memory of `pid`.
    fn destroy(&mut self, ctx: &mut Ctx, pid: Pid);

    /// Loads bytes at `cap`'s cursor on behalf of `pid`.
    fn load(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()>;

    /// Stores bytes at `cap`'s cursor on behalf of `pid`.
    fn store(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()>;

    /// Loads a capability (tag-checked) at the cursor.
    fn load_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
    ) -> SysResult<Option<Capability>>;

    /// Stores a capability at the cursor.
    fn store_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        value: &Capability,
    ) -> SysResult<()>;

    /// Allocates from `pid`'s in-process heap.
    fn malloc(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability>;

    /// Frees a heap allocation.
    fn mfree(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability) -> SysResult<()>;

    /// Reads capability register `idx` of `pid`.
    fn reg(&self, pid: Pid, idx: usize) -> SysResult<Capability>;

    /// Writes capability register `idx` of `pid`.
    fn set_reg(&mut self, pid: Pid, idx: usize, cap: Capability) -> SysResult<()>;

    /// Maps the named shared-memory object (creating it at `len` bytes if
    /// new) into `pid`, returning a capability to the mapping.
    fn shm_open(&mut self, ctx: &mut Ctx, pid: Pid, name: &str, len: u64) -> SysResult<Capability>;

    /// Maps `len` bytes of fresh anonymous memory into `pid`'s mmap
    /// window, returning a capability confined to the process.
    fn mmap_anon(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability>;

    // ---- pipelined fork (background copy) -------------------------------

    /// Pages of `pid`'s fork still being copied behind a committed
    /// pipelined fork. Zero for systems without one (the default) and
    /// once the background window has drained. The executive keeps a
    /// child's copy-engine μtask alive while this is non-zero.
    fn pipeline_pending(&self, _pid: Pid) -> u64 {
        0
    }

    /// Advances `pid`'s background copy by one chunk, charging the
    /// chunk's work to `ctx`. Returns `Ok(true)` if a chunk was copied,
    /// `Ok(false)` when there is no pending background work (the
    /// default for systems without pipelined fork).
    fn pipeline_step(&mut self, _ctx: &mut Ctx, _pid: Pid) -> SysResult<bool> {
        Ok(false)
    }

    // ---- memory-pressure survival tier ----------------------------------

    /// True when the background reclaim daemon has useful work queued
    /// (allocator pressure engaged and dirty pooled frames awaiting a
    /// scrub). The executive keeps a reclaim μtask armed while this
    /// holds. Always false for systems without a daemon (the default).
    fn reclaim_pending(&self) -> bool {
        false
    }

    /// Runs one bounded background-reclaim pass, scrubbing recycled
    /// frames into the clean-frame magazines and charging the zeroing
    /// work to `ctx`. Returns how many frames were scrubbed; `Ok(0)`
    /// means no work remained (the default for systems without a
    /// daemon) and the executive disarms the μtask.
    fn reclaim_step(&mut self, _ctx: &mut Ctx) -> SysResult<u64> {
        Ok(0)
    }

    /// Frames currently resident for `pid` — the executive's OOM victim
    /// selection ranks candidates by this (largest first). Systems
    /// without per-process residency visibility may return 0; selection
    /// then falls back to its age/depth tie-breakers.
    fn resident_pages(&self, _pid: Pid) -> u64 {
        0
    }

    /// Releases `pid`'s memory as an OOM reap. Kernels with a
    /// transactional teardown override this with a journaled
    /// implementation (abortable mid-sweep, leak-free either way); the
    /// default simply delegates to [`MemOs::destroy`], which must then
    /// be a no-op when the executive's exit path calls it again. A
    /// completed reap counts one `oom_kills`.
    fn oom_reap(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<()> {
        self.destroy(ctx, pid);
        ctx.counters.oom_kills += 1;
        Ok(())
    }

    // ---- cost / feature profile ----------------------------------------

    /// Kernel entry + exit cost for one syscall.
    fn syscall_entry_cost(&self) -> f64;

    /// True if syscalls trap (monolithic); false for sealed-capability
    /// entry (μFork).
    fn syscall_is_trap(&self) -> bool;

    /// Context-switch cost from `from` to `to` (cross-address-space
    /// switches include TLB flushes on the monolithic OS).
    fn ctx_switch_cost(&self, from: Pid, to: Pid) -> f64;

    /// True when kernel execution serializes on a big kernel lock
    /// (Unikraft-style SMP, paper §4.5).
    fn big_kernel_lock(&self) -> bool;

    /// The deployment's isolation level.
    fn isolation(&self) -> IsolationLevel;

    /// Per-byte cost of moving I/O data between user and kernel. The
    /// monolithic kernel always pays copyin/copyout; μFork pays it only
    /// under TOCTTOU protection (otherwise the single address space lets
    /// the kernel read user memory in place).
    fn copyio_cost_per_byte(&self) -> f64;

    // ---- accounting ------------------------------------------------------

    /// Memory statistics of one process.
    fn mem_stats(&self, pid: Pid) -> MemStats;

    /// Total physical frames currently allocated system-wide.
    fn allocated_frames(&self) -> u32;

    /// High-water mark of allocated frames (for "memory consumed by a
    /// fork" deltas).
    fn peak_frames(&self) -> u32;

    /// Verifies internal isolation invariants for `pid` (used by tests):
    /// no capability reachable by the process may exceed its own memory.
    /// Returns the number of violations found.
    fn audit_isolation(&self, pid: Pid) -> usize;
}

/// Blanket helper: charge the per-syscall overhead for one kernel entry,
/// honouring the isolation level.
pub fn charge_syscall<O: MemOs + ?Sized>(os: &O, ctx: &mut Ctx, buffer_bytes: u64) {
    let cost = os.cost();
    ctx.kernel(os.syscall_entry_cost());
    ctx.counters.syscalls += 1;
    if os.syscall_is_trap() {
        ctx.counters.traps += 1;
        ctx.instant(Instant::GateTrap);
    } else {
        ctx.counters.sealed_entries += 1;
        ctx.instant(Instant::GateEnter);
    }
    let iso = os.isolation();
    if iso.validates_syscalls() {
        ctx.kernel(cost.syscall_validate);
    }
    if iso.tocttou_protection() && buffer_bytes > 0 {
        ctx.kernel(cost.tocttou_fixed + cost.copyio_per_byte * buffer_bytes as f64);
        ctx.counters.tocttou_bytes += buffer_bytes;
    }
}
