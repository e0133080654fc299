//! The lane executor: the parallel fork walk's multi-worker page copy +
//! relocation.
//!
//! Morello is an 8-core SoC, but the paper's fork runs the copy/relocate
//! sweep on one core. This module models (and actually executes, with
//! host threads) a multicore fork engine behind the one fork walk
//! (`fork_walk_pages` in `crate::fork`):
//!
//! 1. **Serial walk** — the shared walk classifies and stages every page
//!    as in the serial mode, except that each eager page's destination
//!    frame is allocated up front from the sharded physical allocator
//!    (`alloc_lane_frame`: [`ufork_mem::PhysMem::alloc_frame_in`], home
//!    shard = chunk's lane). Allocating serially keeps the global
//!    `alloc_attempts` order — and therefore fault injection — identical
//!    across worker counts. Destination frames are granted
//!    [`ufork_mem::ZeroPolicy::Uninit`]: a Full-copy destination is
//!    entirely overwritten, so recycled frames skip the zeroing scrub
//!    (the deferred-zeroing win; fresh frames are zeroed by construction).
//! 2. **Parallel chunks** — the eager pages are partitioned into
//!    fixed-size chunks of [`CHUNK_PAGES`]; chunk *i* is processed by
//!    lane `i % workers` on a scoped host thread. Each worker copies the
//!    source frame into the *detached* destination frame and relocates
//!    its capabilities via [`relocate_frame_in`], looking source regions
//!    up in the shared (`Sync`, immutable) [`crate::RegionIndex`].
//!    Workers return per-chunk simulated costs and statistics, region
//!    lookups included; they never touch shared mutable state.
//! 3. **Merge** — destination frames are reattached and per-chunk costs
//!    are folded into [`LaneClocks`] *in chunk-index order* (never host
//!    completion order); the elapsed parallel time (max over lanes) is
//!    charged to the kernel clock. The walk's shared epilogue then
//!    installs the staged child PTEs in one `extend_sorted` batch and
//!    arms the parent in one `protect_many` COW sweep.
//!
//! Simulated elapsed fork time = serial walk + max-over-lanes(chunk
//! costs) + epilogue. Because lane assignment, allocation order, and
//! cost folding are all pure functions of the page list and worker
//! count, the same heap + same worker count reproduce bit-identical
//! simulated nanoseconds regardless of host scheduling.
//!
//! Every allocation is journaled by the walk; a failure before the lanes
//! run returns with the journal intact and the caller's rollback returns
//! the destinations to the recycled pools. The parallel phase itself is
//! infallible by construction: all allocation happens in the walk.

use ufork_abi::{Errno, SysResult};
use ufork_cheri::Capability;
use ufork_exec::Ctx;
use ufork_mem::{Frame, Pfn, PhysMem, ZeroPolicy};
use ufork_sim::{Instant, Lane, LaneClocks, Phase};
use ufork_vmem::Region;

use crate::journal::{ForkJournal, JournalOp};
use crate::kernel::UforkOs;
use crate::reloc::{reloc_cost, relocate_frame_in, RelocStats, ScanMode};

/// How the fork walk executes the eager copy/relocate sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalkMode {
    /// Single-lane walk: eager pages copied inline; the ablation
    /// baseline.
    #[default]
    Serial,
    /// Multi-worker walk with the given lane count (clamped to ≥ 1).
    /// Requires [`ScanMode::TagSummary`]; under the naive-scan ablation
    /// the walk copies inline, as `Serial`.
    Parallel(usize),
    /// Two-phase pipelined fork: the walk stages every would-be-eager
    /// page on the shared parent frame (CoA-style protection, parent
    /// CoW-armed) and the fork **commits with the child runnable** at
    /// lazy-strategy latency. The remaining copies then stream behind
    /// the child in [`CHUNK_PAGES`]-page chunks (`crate::pipeline`),
    /// each a journaled transaction of its own; a child fault on an
    /// uncopied page jumps the copy queue and resolves its chunk
    /// inline. Like `Parallel`, requires [`ScanMode::TagSummary`] —
    /// under the naive-scan ablation the walk copies inline, as
    /// `Serial`.
    Pipelined,
}

impl WalkMode {
    /// Number of worker lanes this mode runs on. The pipelined walk's
    /// foreground phase is single-lane (the copies happen behind the
    /// commit).
    pub fn workers(self) -> usize {
        match self {
            WalkMode::Serial | WalkMode::Pipelined => 1,
            WalkMode::Parallel(n) => n.max(1),
        }
    }
}

/// Pages per parallel chunk. Small enough to balance lanes on modest
/// heaps, large enough that per-chunk overhead stays negligible.
pub const CHUNK_PAGES: usize = 32;

/// One eager page's work item: source frame and destination frame
/// (owned while detached from `PhysMem`).
struct EagerPage {
    src: Pfn,
    dst: Pfn,
    frame: Frame,
}

/// A worker's result for one chunk.
#[derive(Default)]
struct ChunkOut {
    cost: f64,
    stats: RelocStats,
}

/// Allocates the destination frame of the `index`-th eager page of a
/// parallel walk from the home shard of the lane its chunk lands on,
/// journaled and counted.
pub(crate) fn alloc_lane_frame(
    pm: &mut PhysMem,
    journal: &mut ForkJournal,
    ctx: &mut Ctx,
    index: usize,
    workers: usize,
) -> SysResult<Pfn> {
    let home = (index / CHUNK_PAGES) % workers;
    let grant = pm
        .alloc_frame_in(home, ZeroPolicy::Uninit)
        .map_err(|_| Errno::NoMem)?;
    journal
        .record(JournalOp::FrameAlloc(grant.pfn))
        .map_err(|_| Errno::NoMem)?;
    if grant.recycled {
        ctx.counters.frames_recycled += 1;
        ctx.instant(Instant::AllocRecycle);
    }
    if grant.zeroing_skipped {
        ctx.counters.zeroing_skipped += 1;
        ctx.instant(Instant::AllocZeroSkip);
    }
    if grant.stolen {
        ctx.counters.alloc_steals += 1;
        ctx.instant(Instant::AllocSteal);
    }
    Ok(grant.pfn)
}

impl UforkOs {
    /// Copies and relocates the parallel walk's eager pages — `(source,
    /// destination)` frames, destinations already allocated and staged
    /// by the walk — on `workers` lanes (see the module docs), and
    /// charges the elapsed parallel time.
    pub(crate) fn run_lanes(
        &mut self,
        ctx: &mut Ctx,
        c_region: Region,
        c_root: &Capability,
        pages: &[(Pfn, Pfn)],
        workers: usize,
    ) -> SysResult<()> {
        let validates = self.isolation.validates_syscalls();
        let n_chunks = pages.len().div_ceil(CHUNK_PAGES);
        // Detach every destination frame so workers own them outright
        // while `PhysMem` is only shared for reading source frames.
        // Detachment failing means the walk's allocation vanished — a
        // kernel bug, surfaced as a typed error (after reattaching, so
        // the caller's rollback sees consistent state) rather than a
        // panic on a syscall path.
        let mut eager: Vec<EagerPage> = Vec::with_capacity(pages.len());
        for &(src, dst) in pages {
            let Ok(frame) = self.pm.detach_frame(dst) else {
                debug_assert!(false, "destination allocated by the walk");
                for page in eager {
                    let _ = self.pm.attach_frame(page.dst, page.frame);
                }
                return Err(Errno::Fault);
            };
            eager.push(EagerPage { src, dst, frame });
        }

        let mut results: Vec<(usize, ChunkOut)> = Vec::with_capacity(n_chunks);
        let mut worker_err: Option<Errno> = None;
        {
            let pm = &self.pm;
            let cost = &self.cost;
            let index = &self.region_index;
            let c_root = *c_root;

            // Deterministic distribution: chunk i → lane i % workers.
            let mut lane_work: Vec<Vec<(usize, &mut [EagerPage])>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, chunk) in eager.chunks_mut(CHUNK_PAGES).enumerate() {
                lane_work[i % workers].push((i, chunk));
            }

            std::thread::scope(|s| {
                let handles: Vec<_> = lane_work
                    .into_iter()
                    .map(|work| {
                        s.spawn(move || -> SysResult<Vec<(usize, ChunkOut)>> {
                            let mut out: Vec<(usize, ChunkOut)> = Vec::with_capacity(work.len());
                            for (idx, chunk) in work {
                                let mut co = ChunkOut::default();
                                let source_of = |addr: u64| index.lookup(addr);
                                for page in chunk.iter_mut() {
                                    // The parent's mapping holds a ref, so
                                    // the source frame must exist; a miss is
                                    // a kernel bug surfaced as a typed error.
                                    let Ok(src) = pm.frame(page.src) else {
                                        return Err(Errno::Fault);
                                    };
                                    page.frame.copy_from(src);
                                    let stats = relocate_frame_in(
                                        &mut page.frame,
                                        c_region,
                                        &c_root,
                                        &source_of,
                                        ScanMode::TagSummary,
                                    );
                                    co.cost += cost.page_alloc
                                        + cost.page_copy
                                        + reloc_cost(cost, &stats)
                                        + cost.pte_write
                                        + if validates {
                                            cost.page_scan() + cost.tocttou_fixed
                                        } else {
                                            0.0
                                        };
                                    co.stats.add(&stats);
                                }
                                out.push((idx, co));
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join().expect("fork worker panicked") {
                        Ok(out) => results.extend(out),
                        Err(e) => worker_err = Some(e),
                    }
                }
            });
        }

        // ---- Merge ------------------------------------------------------
        // Reattach before anything else — on a worker error too, so the
        // caller's rollback finds every destination frame in place.
        let n_eager = eager.len() as u64;
        for page in eager.drain(..) {
            if self.pm.attach_frame(page.dst, page.frame).is_err() {
                debug_assert!(false, "slot still holds the placeholder");
            }
        }
        if let Some(e) = worker_err {
            return Err(e);
        }

        // Fold chunk costs into lane clocks in chunk-index order, never
        // host completion order: simulated time must be a pure function
        // of the inputs.
        results.sort_by_key(|(i, _)| *i);
        ctx.phase(Phase::ForkWalkPar);
        // Lane timelines start where the main (kernel) clock stands when
        // the parallel section is entered; each chunk's span begins at its
        // lane's simulated clock and runs for the chunk's cost. Both are
        // pure functions of chunk order and worker count — host
        // scheduling cannot perturb the trace.
        let par_base = ctx.kernel_ns;
        let mut lanes = LaneClocks::new(workers);
        let mut total_stats = RelocStats::default();
        for (i, co) in &results {
            ctx.lane_span(
                Lane::ForkChunk,
                (*i % workers) as u32,
                par_base + lanes.lane(*i),
                co.cost,
            );
            lanes.charge(*i, co.cost);
            total_stats.add(&co.stats);
        }
        ctx.kernel(lanes.elapsed());
        ctx.counters.fork_chunks += n_chunks as u64;
        ctx.counters.pages_copied += n_eager;
        ctx.counters.pages_copied_eager += n_eager;
        total_stats.count(ctx);
        Ok(())
    }
}
