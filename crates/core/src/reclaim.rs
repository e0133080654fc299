//! The memory-pressure survival tier: background reclaim and the OOM
//! last resort (ROADMAP open item 2, robustness layer).
//!
//! Both operations reuse the transactional fork journal as their
//! rollback machinery — exactly one kernel transaction is in flight at
//! a time under the big lock, so the single journal serves forks,
//! pipelined chunks, reclaim passes and OOM teardowns alike, and the
//! chaos sweep's `inject_journal_failure` reaches every one of them.
//!
//! * **Background reclaim** ([`UforkOs::reclaim_step_uproc`]) scrubs
//!   recycled frames from the sharded allocator's deferred-zero queues
//!   into the per-shard clean-frame magazines. It runs as a schedulable
//!   kernel μtask (the executive arms it like the pipelined-fork copy
//!   engine) whenever the hysteretic [`PressureLevel`] leaves `Normal`,
//!   so the zeroing cost of `ZeroPolicy::Zeroed` grants moves off the
//!   fork/fault hot path and onto idle simulated time.
//! * **OOM teardown** ([`UforkOs::oom_reap_uproc`]) releases a victim
//!   μprocess's memory as one journaled transaction: every PTE detach
//!   is recorded before the batched unmap applies (record-then-apply,
//!   same convention as the fork walk), so an abort anywhere in the
//!   sweep restores the victim untouched; past the commit the reference
//!   drops and bookkeeping are infallible. The executive's victim
//!   selection and wait/exit plumbing live in `ufork-exec` — this is
//!   only the memory half the kernel owns.

use ufork_abi::{Errno, Pid, SysResult};
use ufork_exec::Ctx;
use ufork_mem::{PressureLevel, PAGE_SIZE};
use ufork_sim::Phase;
use ufork_vmem::{Pte, Vpn};

use crate::journal::JournalOp;
use crate::kernel::UforkOs;

/// Frames one background reclaim pass scrubs at most, bounding the
/// simulated time a single daemon μtask step holds the big lock.
pub const RECLAIM_BATCH: u64 = 8;

impl UforkOs {
    /// True when the background reclaim daemon has useful work: the
    /// daemon is enabled, allocator pressure has left `Normal` (by the
    /// hysteretic level, so engagement does not flap at the watermark),
    /// and unscrubbed pooled frames exist.
    pub(crate) fn reclaim_pending_uproc(&self) -> bool {
        self.reclaim_daemon
            && self.pm.pressure() > PressureLevel::Normal
            && self.pm.pending_scrub() > 0
    }

    /// One bounded background-reclaim pass: scrubs up to
    /// [`RECLAIM_BATCH`] pooled frames into the clean-frame magazines,
    /// charging the zeroing to background simulated time under the
    /// `mem/reclaim_bg` phase. Returns how many frames were scrubbed;
    /// `Ok(0)` means no work (pressure normal, queues drained, or the
    /// daemon disabled) and the executive disarms the μtask.
    ///
    /// Each scrub is journaled apply-then-record, so an injected abort
    /// mid-pass rolls every flag back and leaks nothing — the chaos
    /// sweep audits exactly that.
    pub(crate) fn reclaim_step_uproc(&mut self, ctx: &mut Ctx) -> SysResult<u64> {
        if !self.reclaim_pending_uproc() {
            return Ok(0);
        }
        debug_assert_eq!(self.journal.len(), 0, "journal busy entering reclaim");
        ctx.phase(Phase::MemReclaimBg);
        let mut scrubbed = 0u64;
        while scrubbed < RECLAIM_BATCH {
            let Some(pfn) = self.pm.scrub_one() else {
                break;
            };
            scrubbed += 1;
            ctx.kernel(self.cost.zero_page);
            if self.journal.record(JournalOp::FrameScrub(pfn)).is_err() {
                self.rollback_fork(ctx);
                let _ = self.journal.take_injected();
                ctx.phase_end();
                return Err(Errno::Fault);
            }
        }
        let (ops, reserved) = self.journal.commit();
        debug_assert_eq!(reserved, 0, "reclaim reserves no frames");
        ctx.counters.journal_ops += ops;
        if scrubbed > 0 {
            ctx.counters.reclaim_background += 1;
            ctx.counters.frames_prezeroed += scrubbed;
        }
        ctx.phase_end();
        Ok(scrubbed)
    }

    /// Resident frames mapped by `pid` — the dominant OOM badness input
    /// (killing the largest resident set frees the most memory per
    /// kill). Zero for unknown pids.
    pub(crate) fn resident_pages_uproc(&self, pid: Pid) -> u64 {
        let Ok(p) = self.proc(pid) else { return 0 };
        let start = p.region.base.vpn();
        let end = Vpn(p.region.top().0.div_ceil(PAGE_SIZE));
        self.pt.range(start, end).count() as u64
    }

    /// Tears down `pid`'s memory as one journaled OOM transaction.
    ///
    /// Stage 1 (journaled, record-then-apply): every mapped PTE's
    /// detach is recorded as a [`JournalOp::PteRemap`] before the
    /// batched `unmap_range` runs. An abort anywhere in the recording
    /// sweep rolls back to the exact pre-reap state — the inverses
    /// rewrite PTEs that were never removed, which is idempotent — so
    /// the victim survives an aborted kill untouched and a later retry
    /// reaps it cleanly.
    ///
    /// Stage 2 (infallible, past the commit): drop the per-mapping
    /// frame references, hand back any open pipelined-fork reservation,
    /// and retire or free the region — mirroring
    /// [`MemOs::destroy`](ufork_exec::MemOs::destroy), which becomes a
    /// no-op for this pid afterwards (the executive still runs its own
    /// exit path for threads/fds/zombies).
    pub(crate) fn oom_reap_uproc(&mut self, ctx: &mut Ctx, pid: Pid) -> SysResult<()> {
        let Some(region) = self.procs.get(&pid).map(|p| p.region) else {
            return Ok(());
        };
        debug_assert_eq!(self.journal.len(), 0, "journal busy entering oom reap");
        ctx.phase(Phase::ForkOom);
        let start = region.base.vpn();
        let end = Vpn(region.top().0.div_ceil(PAGE_SIZE));
        let mapped: Vec<(Vpn, Pte)> = self.pt.range(start, end).collect();
        for &(vpn, old) in &mapped {
            if self
                .journal
                .record(JournalOp::PteRemap { vpn, old })
                .is_err()
            {
                self.rollback_fork(ctx);
                let _ = self.journal.take_injected();
                ctx.phase_end();
                return Err(Errno::Fault);
            }
        }
        let unmapped: Vec<(Vpn, Pte)> = self.pt.unmap_range(start, end);
        ctx.kernel(self.cost.pte_write * 0.5 * unmapped.len() as f64);
        let (ops, reserved) = self.journal.commit();
        debug_assert_eq!(reserved, 0, "oom reap reserves no frames");
        ctx.counters.journal_ops += ops;
        ctx.counters.oom_kills += 1;

        // Past the commit nothing can fail: pure reference drops and
        // bookkeeping, identical to `destroy`'s tail.
        let p = self
            .procs
            .remove(&pid)
            .expect("victim vanished mid-oom-reap");
        if let Some(s) = self.pipelines.remove(&pid) {
            self.pm.release(s.reserved);
        }
        for (_, pte) in unmapped {
            let _ = self.pm.dec_ref(pte.pfn);
        }
        if p.had_children {
            // Still a relocation source for frames its children share.
            self.retired.push(p.region);
        } else {
            self.region_index.remove(p.region);
            let _ = self.regions.free(p.region);
        }
        ctx.phase_end();
        Ok(())
    }
}
