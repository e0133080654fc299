//! The background half of the pipelined fork
//! ([`crate::fork_par::WalkMode::Pipelined`]).
//!
//! A pipelined fork commits after the walk: every would-be-eager
//! page is staged on the *shared* parent frame with CoA-style
//! protection (the child cannot touch it without faulting, the parent
//! is CoW-armed so its writes divert to a private copy), and the child
//! is runnable at lazy-strategy latency. What remains — the actual
//! copy + capability relocation of the deferred span — is tracked here
//! as a per-child [`PipelineState`] and consumed in
//! [`crate::fork_par::CHUNK_PAGES`]-page chunks, the same chunk
//! geometry as the parallel walk:
//!
//! * **Background stream** — the executive pumps
//!   [`UforkOs::pipeline_copy_next`] as scheduler-visible copy-engine
//!   μtasks, one chunk per event, until the window is drained. The
//!   stream is a single copy lane per child: background copies share
//!   the machine with running μprocesses, so one streaming lane bounds
//!   interference while demand-priority faults (below) cover the
//!   latency-critical pages.
//! * **Demand priority** — a child fault on an uncopied page
//!   (`Fault::CoAccess`, see `fault.rs`) jumps the copy queue: the
//!   fault resolves that page's *whole chunk* inline on the faulting
//!   context, marks it done, and the background stream skips it.
//!
//! Every chunk is a journaled transaction of its own, reusing the fork
//! journal (the kernel runs one fork *or* one chunk at a time under the
//! big lock): frame allocations are recorded apply-then-record, the PTE
//! rewrite as [`JournalOp::PteRemap`] record-then-apply (its inverse
//! restores the staged CoA mapping exactly), and the release of the
//! fork-time shared reference as [`JournalOp::RefDec`]. A mid-chunk
//! failure rolls back through `UforkOs::rollback_fork` like a mid-fork
//! failure: the chunk is atomically all-or-nothing, so at every abort
//! point the child is either fully copied up to a chunk boundary or
//! exactly as staged — never in between. Memory exhaustion retries
//! through the same bounded reclaim loop as fork.
//!
//! Admission stays sound across the window: the fork's reservation is
//! not released at commit for the deferred pages (see
//! `UforkOs::commit_fork` in `fork.rs`); the hold travels in
//! [`PipelineState::reserved`] and is released chunk by chunk as the
//! background allocations consume the promise, with any remainder
//! (pages adopted in place because the parent exited) handed back when
//! the window closes.

use ufork_abi::{Errno, Pid, SysResult};
use ufork_cheri::Capability;
use ufork_exec::Ctx;
use ufork_sim::{Instant, Lane, LaneClocks, Phase};
use ufork_vmem::{PteFlags, Region, Vpn};

use crate::fork::{EagerPage, PageWriter};
use crate::fork_par::CHUNK_PAGES;
use crate::journal::JournalOp;
use crate::kernel::UforkOs;
use crate::reloc::{relocate_counted, RelocTarget, ScanMode, SourceLookup};

/// One background-copy chunk: up to [`CHUNK_PAGES`] staged child pages
/// in ascending-VPN order, flipped to their final frames atomically.
pub(crate) struct PipeChunk {
    pub(crate) pages: Vec<(Vpn, PteFlags)>,
    pub(crate) done: bool,
}

/// A committed pipelined fork's background-copy window.
pub(crate) struct PipelineState {
    /// The child's region (relocation target of every chunk).
    pub(crate) region: Region,
    /// The child's root capability (relocation authority).
    pub(crate) root: Capability,
    pub(crate) chunks: Vec<PipeChunk>,
    /// First chunk index that may still be pending (skip hint for the
    /// background stream; demand jumps punch holes beyond it).
    pub(crate) next: usize,
    /// Admission frames still held for the uncopied span.
    pub(crate) reserved: u64,
    /// Staged pages not yet copied.
    pub(crate) pending_pages: u64,
}

impl PipelineState {
    pub(crate) fn new(
        region: Region,
        root: Capability,
        deferred: Vec<(Vpn, PteFlags)>,
        reserved: u64,
    ) -> PipelineState {
        let pending_pages = deferred.len() as u64;
        let chunks = deferred
            .chunks(CHUNK_PAGES)
            .map(|pages| PipeChunk {
                pages: pages.to_vec(),
                done: false,
            })
            .collect();
        PipelineState {
            region,
            root,
            chunks,
            next: 0,
            reserved,
            pending_pages,
        }
    }
}

impl UforkOs {
    /// Pages of `pid`'s background-copy window still uncopied (0 once
    /// the window has drained, or for a non-pipelined child).
    pub fn pipeline_pending_pages(&self, pid: Pid) -> u64 {
        self.pipelines.get(&pid).map_or(0, |s| s.pending_pages)
    }

    /// The pending chunk containing `vpn` in `pid`'s window, if any —
    /// the demand-priority lookup the CoA fault path uses to decide
    /// whether to jump the copy queue.
    pub(crate) fn pipeline_chunk_of(&self, pid: Pid, vpn: Vpn) -> Option<usize> {
        let s = self.pipelines.get(&pid)?;
        // Chunks and pages-within-chunks are in ascending VPN order
        // (walk order), so locate by binary search on chunk bounds.
        let idx = s
            .chunks
            .partition_point(|c| c.pages.last().is_some_and(|&(last, _)| last < vpn));
        let c = s.chunks.get(idx)?;
        (!c.done && c.pages.binary_search_by_key(&vpn, |&(v, _)| v).is_ok()).then_some(idx)
    }

    /// Copies the next pending chunk of `pid`'s window, absorbing
    /// transient memory exhaustion through the bounded reclaim loop.
    /// Returns the chunk's index, or `None` when the window is closed
    /// (drained, or `pid` never had one).
    pub fn pipeline_copy_next(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<Option<usize>> {
        let idx = {
            let Some(s) = self.pipelines.get_mut(&pid) else {
                return Ok(None);
            };
            while s.next < s.chunks.len() && s.chunks[s.next].done {
                s.next += 1;
            }
            (s.next < s.chunks.len()).then_some(s.next)
        };
        let Some(idx) = idx else {
            // A live pipeline always has a pending chunk (the window is
            // closed when the last one completes), but stay defensive:
            // close it out rather than looping forever.
            debug_assert!(false, "pipeline left open with no pending chunk");
            if let Some(s) = self.pipelines.remove(&pid) {
                self.pm.release(s.reserved);
            }
            return Ok(None);
        };
        self.pipeline_copy_chunk(ctx, pid, idx)?;
        Ok(Some(idx))
    }

    /// Synchronously drains `pid`'s whole background window on `ctx`,
    /// folding per-chunk costs through [`LaneClocks`] exactly like the
    /// parallel walk does (single lane: the background stream), with one
    /// `fork/pipeline/chunk` span per chunk tiling the window. Returns
    /// the number of chunks copied. This is the test/oracle/bench path;
    /// the executive pumps [`UforkOs::pipeline_copy_next`] instead.
    pub fn pipeline_drain(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<u64> {
        if !self.pipelines.contains_key(&pid) {
            return Ok(0);
        }
        ctx.phase(Phase::ForkPipelineCopy);
        let base = ctx.kernel_ns;
        let mut lanes = LaneClocks::new(1);
        let mut chunks = 0u64;
        loop {
            let mut scratch = Ctx::new();
            let idx = match self.pipeline_copy_next(&mut scratch, pid) {
                Ok(Some(idx)) => idx,
                Ok(None) => break,
                Err(e) => {
                    // Keep what the failed chunk charged — the rollback
                    // work and its counters must survive the error.
                    ctx.kernel(lanes.elapsed() + scratch.kernel_ns);
                    ctx.counters.merge(&scratch.counters);
                    ctx.phase_end();
                    return Err(e);
                }
            };
            let cost = scratch.kernel_ns;
            ctx.lane_span(Lane::ForkPipelineChunk, 0, base + lanes.lane(idx), cost);
            lanes.charge(idx, cost);
            ctx.counters.merge(&scratch.counters);
            chunks += 1;
        }
        ctx.kernel(lanes.elapsed());
        ctx.phase_end();
        Ok(chunks)
    }

    /// Copies chunk `idx` of `pid`'s window (the demand-priority entry:
    /// the CoA fault path calls this with the faulting child's context,
    /// so the child pays for the chunk it jumped the queue for). Shares
    /// the fork's bounded reclaim-then-retry loop.
    pub(crate) fn pipeline_copy_chunk(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        idx: usize,
    ) -> SysResult<()> {
        self.retry_after_reclaim(ctx, |os, ctx| os.pipeline_chunk_attempt(ctx, pid, idx))
    }

    /// One transactional attempt at chunk `idx`: the chunk's pages
    /// ([`UforkOs::copy_chunk_pages`]), then the chunk commit. On `Err`
    /// the journal has been rolled back — the chunk is exactly as
    /// staged.
    fn pipeline_chunk_attempt(
        &mut self,
        ctx: &mut Ctx,
        pid: Pid,
        idx: usize,
    ) -> Result<(), crate::fork::ForkFail> {
        use crate::fork::ForkFail;
        debug_assert_eq!(
            self.journal.len(),
            0,
            "journal must be empty between chunks"
        );
        let (region, root, pages) = {
            let s = self
                .pipelines
                .get(&pid)
                .ok_or(ForkFail::Fatal(Errno::Inval))?;
            let c = s.chunks.get(idx).ok_or(ForkFail::Fatal(Errno::Inval))?;
            if c.done {
                return Ok(());
            }
            (s.region, s.root, c.pages.clone())
        };
        let allocs = match self.copy_chunk_pages(ctx, region, &root, &pages) {
            Ok(allocs) => allocs,
            Err(e) => return Err(self.abort_fork(ctx, e)),
        };

        // Chunk commit: clear the journal, consume the admission hold the
        // allocations fulfilled, and close the window if this was the
        // last pending chunk.
        let (ops, reserved) = self.journal.commit();
        debug_assert_eq!(reserved, 0, "chunks never reserve");
        ctx.counters.journal_ops += ops;
        ctx.counters.fork_chunks += 1;
        let s = self
            .pipelines
            .get_mut(&pid)
            .ok_or(ForkFail::Fatal(Errno::Inval))?;
        s.chunks[idx].done = true;
        s.pending_pages = s.pending_pages.saturating_sub(pages.len() as u64);
        let consumed = allocs.min(s.reserved);
        s.reserved -= consumed;
        self.pm.release(consumed);
        if s.pending_pages == 0 {
            let remainder = s.reserved;
            self.pipelines.remove(&pid);
            self.pm.release(remainder);
            ctx.instant(Instant::ForkPipelineDone);
        }
        Ok(())
    }

    /// The journaled body of a chunk attempt: copies (or adopts) every
    /// page, relocates its capabilities, flips the PTE to its final
    /// frame + flags, and drops the fork-time shared reference. Returns
    /// the frames allocated. On `Err` the caller rolls the journal back.
    fn copy_chunk_pages(
        &mut self,
        ctx: &mut Ctx,
        region: Region,
        root: &Capability,
        pages: &[(Vpn, PteFlags)],
    ) -> SysResult<u64> {
        let validates = self.isolation.validates_syscalls();
        let source = SourceLookup::Index(&self.region_index);
        let target = RelocTarget {
            region,
            root,
            source: &source,
            mode: ScanMode::TagSummary,
        };
        let mut allocs = 0u64;
        for &(c_vpn, final_flags) in pages {
            ctx.phase(Phase::ForkPipelineCopy);
            let pte = self.pt.lookup(c_vpn).ok_or(Errno::Fault)?;
            debug_assert!(
                pte.flags.contains(PteFlags::COA),
                "a pending staged page is CoA-protected"
            );
            let refcount = self.pm.refcount(pte.pfn).map_err(|_| Errno::Fault)?;
            let page = if refcount > 1 {
                // The frame is still shared (the usual case): share the
                // frame a sibling's background window already
                // materialized for this content, or allocate the child's
                // private copy, consuming the admission promise held
                // since the commit.
                let page = PageWriter {
                    pm: &mut self.pm,
                    pt: &self.pt,
                    journal: &mut self.journal,
                    dedup: self.dedup_frames.then_some(&mut self.dedup),
                    cost: &self.cost,
                    target: &target,
                    copy_phase: Phase::ForkPipelineCopy,
                    reloc_phase: Phase::ForkPipelineReloc,
                }
                .materialize(ctx, pte.pfn, &[], c_vpn, final_flags)?;
                allocs += u64::from(!page.hit);
                page
            } else {
                // Sole owner — every other sharer CoW'd its mapping
                // away or exited, so the fork-time frame (which still
                // holds the snapshot) is adopted in place, which is
                // strictly cheaper than any probe.
                ctx.counters.pages_reclaimed += 1;
                ctx.phase(Phase::ForkPipelineReloc);
                relocate_counted(&mut self.pm, pte.pfn, &target, &self.cost, ctx);
                EagerPage {
                    pfn: pte.pfn,
                    flags: final_flags,
                    hit: false,
                }
            };

            ctx.phase(Phase::ForkPipelinePte);
            // Record-then-apply: the inverse restores the staged CoA
            // mapping exactly, a no-op if the rewrite never ran.
            self.journal
                .record(JournalOp::PteRemap {
                    vpn: c_vpn,
                    old: pte,
                })
                .map_err(|_| Errno::NoMem)?;
            self.pt.map(c_vpn, page.pfn, page.flags);
            ctx.kernel(self.cost.pte_write);
            ctx.counters.ptes_written += 1;
            if page.hit {
                ctx.counters.frames_deduped += 1;
            } else if validates {
                ctx.kernel(self.cost.page_scan() + self.cost.tocttou_fixed);
            }
            if page.hit || page.pfn != pte.pfn {
                // Drop the fork-time shared reference (apply-then-record
                // — on an injected record failure the op is still in the
                // journal and rollback re-takes the reference). Observed
                // refcount ≥ 2 above, so this never frees the frame.
                self.pm.dec_ref(pte.pfn).map_err(|_| Errno::Fault)?;
                self.journal
                    .record(JournalOp::RefDec(pte.pfn))
                    .map_err(|_| Errno::NoMem)?;
            }
        }
        Ok(allocs)
    }
}
