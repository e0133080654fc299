//! [`Timed`]: a transparent [`MemOs`] wrapper that times every backend
//! call from outside and collects the simulated-time phase trace.
//!
//! The wrapper sits exactly at the seam between the executive (`exec`:
//! scheduler, VFS, rings, syscall dispatch) and the kernel (`core` and
//! the `mem`/`vmem`/`cheri` crates under it), so host time splits into
//! "inside a backend call of kind K" and "everything else" without
//! touching either side. Around each timed call it swaps a persistent,
//! enabled [`TraceBuf`] into the call's context, so the kernel's own
//! phase spans accumulate across the whole run. Tracing only observes the
//! charge stream; the simulated clock is unchanged, which the benchmark
//! checks by comparing traced and untraced results bit for bit.

use std::time::Instant;

use ufork_abi::{ImageSpec, IsolationLevel, Pid, SysResult};
use ufork_cheri::Capability;
use ufork_exec::{Ctx, MemOs};
use ufork_mem::MemStats;
use ufork_sim::{CostModel, TraceBuf};

/// Backend call kinds timed separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `fork`.
    Fork,
    /// `destroy` and `oom_reap`.
    Destroy,
    /// `load`, `store`, `load_cap`, `store_cap`, transparent faults
    /// included.
    Access,
    /// `malloc` and `mfree`.
    Heap,
    /// `spawn`, `shm_open`, `mmap_anon`, `pipeline_step`,
    /// `reclaim_step`.
    Other,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 5] = [
        Kind::Fork,
        Kind::Destroy,
        Kind::Access,
        Kind::Heap,
        Kind::Other,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fork => "fork",
            Kind::Destroy => "destroy",
            Kind::Access => "access",
            Kind::Heap => "heap",
            Kind::Other => "other",
        }
    }
}

/// Calls and host nanoseconds per [`Kind`], indexed by `Kind as usize`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Calls made.
    pub calls: [u64; 5],
    /// Host nanoseconds measured inside the calls (timer cost included).
    pub ns: [u64; 5],
}

impl KindTotals {
    /// The totals accumulated since `earlier`.
    pub fn since(&self, earlier: &KindTotals) -> KindTotals {
        let mut d = KindTotals::default();
        for k in 0..Kind::ALL.len() {
            d.calls[k] = self.calls[k] - earlier.calls[k];
            d.ns[k] = self.ns[k] - earlier.ns[k];
        }
        d
    }

    /// Calls of every kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// The host cost of timing one call, measured on an empty call.
#[derive(Clone, Copy, Debug)]
pub struct TimerCost {
    /// Nanoseconds that land inside a call's measured interval.
    pub inside_ns: f64,
    /// Nanoseconds one timed call adds to wall time in all.
    pub total_ns: f64,
}

/// The timing wrapper. Cheap accessors (`cost`, `reg`, the cost/feature
/// profile and accounting getters) are forwarded untimed: they count as
/// executive time.
pub struct Timed<O> {
    inner: O,
    totals: KindTotals,
    trace: TraceBuf,
}

impl<O: MemOs> Timed<O> {
    /// Wraps `inner` with zeroed timers and an empty trace.
    pub fn new(inner: O) -> Timed<O> {
        Timed {
            inner,
            totals: KindTotals::default(),
            trace: fresh_trace(),
        }
    }

    /// Calls and host time so far.
    pub fn totals(&self) -> KindTotals {
        self.totals
    }

    /// Simulated-time phase totals since the last [`Timed::reset_trace`].
    pub fn trace(&self) -> &TraceBuf {
        &self.trace
    }

    /// Restarts the phase totals from zero.
    pub fn reset_trace(&mut self) {
        self.trace = fresh_trace();
    }

    fn timed<R>(&mut self, kind: Kind, ctx: &mut Ctx, f: impl FnOnce(&mut O, &mut Ctx) -> R) -> R {
        std::mem::swap(&mut ctx.trace, &mut self.trace);
        let t = Instant::now();
        let r = f(&mut self.inner, ctx);
        let dt = t.elapsed().as_nanos() as u64;
        // A call that leaves a span open must not lend it the next
        // call's charges.
        ctx.phase_end();
        std::mem::swap(&mut ctx.trace, &mut self.trace);
        self.totals.calls[kind as usize] += 1;
        self.totals.ns[kind as usize] += dt;
        r
    }
}

/// Only the phase totals are read, so the event ring keeps one slot.
fn fresh_trace() -> TraceBuf {
    TraceBuf::enabled(1)
}

/// Measures the timer's own cost on `calls` empty timed calls, as the
/// median of five batches.
pub fn calibrate<O: MemOs>(timed: &mut Timed<O>, calls: u32) -> TimerCost {
    let mut ctx = Ctx::new();
    let mut samples: Vec<(f64, f64)> = (0..5)
        .map(|_| {
            let before = timed.totals.ns[Kind::Other as usize];
            let t = Instant::now();
            for _ in 0..calls {
                timed.timed(Kind::Other, &mut ctx, |_, _| ());
            }
            let wall = t.elapsed().as_nanos() as f64;
            let inside = (timed.totals.ns[Kind::Other as usize] - before) as f64;
            (inside / f64::from(calls), wall / f64::from(calls))
        })
        .collect();
    samples.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (inside_ns, total_ns) = samples[samples.len() / 2];
    timed.totals = KindTotals::default();
    timed.reset_trace();
    TimerCost {
        inside_ns,
        total_ns,
    }
}

impl<O: MemOs> MemOs for Timed<O> {
    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }

    fn spawn(&mut self, ctx: &mut Ctx, pid: Pid, image: &ImageSpec) -> SysResult<()> {
        self.timed(Kind::Other, ctx, |os, ctx| os.spawn(ctx, pid, image))
    }

    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()> {
        self.timed(Kind::Fork, ctx, |os, ctx| os.fork(ctx, parent, child))
    }

    fn destroy(&mut self, ctx: &mut Ctx, pid: Pid) {
        self.timed(Kind::Destroy, ctx, |os, ctx| os.destroy(ctx, pid))
    }

    fn load(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.timed(Kind::Access, ctx, |os, ctx| os.load(ctx, pid, cap, buf))
    }

    fn store(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.timed(Kind::Access, ctx, |os, ctx| os.store(ctx, pid, cap, data))
    }

    fn load_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        self.timed(Kind::Access, ctx, |os, ctx| os.load_cap(ctx, pid, cap))
    }

    fn store_cap(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        cap: &Capability,
        value: &Capability,
    ) -> SysResult<()> {
        self.timed(Kind::Access, ctx, |os, ctx| {
            os.store_cap(ctx, pid, cap, value)
        })
    }

    fn malloc(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        self.timed(Kind::Heap, ctx, |os, ctx| os.malloc(ctx, pid, len))
    }

    fn mfree(&mut self, ctx: &mut Ctx, pid: Pid, cap: &Capability) -> SysResult<()> {
        self.timed(Kind::Heap, ctx, |os, ctx| os.mfree(ctx, pid, cap))
    }

    fn reg(&self, pid: Pid, idx: usize) -> SysResult<Capability> {
        self.inner.reg(pid, idx)
    }

    fn set_reg(&mut self, pid: Pid, idx: usize, cap: Capability) -> SysResult<()> {
        self.inner.set_reg(pid, idx, cap)
    }

    fn shm_open(&mut self, ctx: &mut Ctx, pid: Pid, name: &str, len: u64) -> SysResult<Capability> {
        self.timed(Kind::Other, ctx, |os, ctx| os.shm_open(ctx, pid, name, len))
    }

    fn mmap_anon(&mut self, ctx: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        self.timed(Kind::Other, ctx, |os, ctx| os.mmap_anon(ctx, pid, len))
    }

    fn pipeline_pending(&self, pid: Pid) -> u64 {
        self.inner.pipeline_pending(pid)
    }

    fn pipeline_step(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<bool> {
        self.timed(Kind::Other, ctx, |os, ctx| os.pipeline_step(ctx, pid))
    }

    fn reclaim_pending(&self) -> bool {
        self.inner.reclaim_pending()
    }

    fn reclaim_step(&mut self, ctx: &mut Ctx) -> SysResult<u64> {
        self.timed(Kind::Other, ctx, |os, ctx| os.reclaim_step(ctx))
    }

    fn resident_pages(&self, pid: Pid) -> u64 {
        self.inner.resident_pages(pid)
    }

    fn oom_reap(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<()> {
        self.timed(Kind::Destroy, ctx, |os, ctx| os.oom_reap(ctx, pid))
    }

    fn syscall_entry_cost(&self) -> f64 {
        self.inner.syscall_entry_cost()
    }

    fn syscall_is_trap(&self) -> bool {
        self.inner.syscall_is_trap()
    }

    fn ctx_switch_cost(&self, from: Pid, to: Pid) -> f64 {
        self.inner.ctx_switch_cost(from, to)
    }

    fn big_kernel_lock(&self) -> bool {
        self.inner.big_kernel_lock()
    }

    fn isolation(&self) -> IsolationLevel {
        self.inner.isolation()
    }

    fn copyio_cost_per_byte(&self) -> f64 {
        self.inner.copyio_cost_per_byte()
    }

    fn mem_stats(&self, pid: Pid) -> MemStats {
        self.inner.mem_stats(pid)
    }

    fn allocated_frames(&self) -> u32 {
        self.inner.allocated_frames()
    }

    fn peak_frames(&self) -> u32 {
        self.inner.peak_frames()
    }

    fn audit_isolation(&self, pid: Pid) -> usize {
        self.inner.audit_isolation(pid)
    }
}
