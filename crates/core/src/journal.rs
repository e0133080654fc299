//! The transactional fork journal (robustness layer).
//!
//! Every side effect a fork performs — frame allocations, refcount
//! bumps, child PTE inserts, parent COW arming, region and process-table
//! bookkeeping, the admission reservation itself — is recorded as a
//! [`JournalOp`] with a well-defined inverse. A failure at *any* point
//! between the first side effect and the commit rolls the kernel back to
//! its exact pre-fork state by applying the inverses in reverse record
//! order (`UforkOs::rollback_fork` in `fork.rs`), replacing the old
//! ad-hoc `unwind_partial_fork` cleanup.
//!
//! Two recording conventions coexist, both rollback-safe:
//!
//! * **apply-then-record** for fallible side effects (allocations,
//!   refcount bumps): the op lands in the journal only once the effect
//!   exists, so an inverse never runs against nothing;
//! * **record-then-apply** for the batched page-table effects
//!   (`PteMap` before `extend_sorted`, `CowArm` before `protect_many`):
//!   their inverses are idempotent no-ops when the bulk apply never ran
//!   (unmapping an absent VPN, clearing an unset flag).
//!
//! The journal doubles as a deterministic failure-injection surface:
//! every `record` call is numbered since boot and a one-shot trigger
//! makes recording op *n* fail — with the op still recorded, since its
//! side effect already happened (or its inverse is a no-op). The chaos
//! sweep in `ufork-oracle` enumerates every index of a reference fork
//! and asserts frames, refcounts, PTEs and regions balance to zero at
//! each. Injected aborts are flagged so the kernel's reclaim-then-retry
//! loop does not absorb them.

use ufork_abi::Pid;
use ufork_mem::Pfn;
use ufork_vmem::{Pte, Region, Vpn};

/// What the kernel does when fork admission control cannot reserve the
/// frames the requested copy strategy demands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// No admission control: forks run straight into the allocator and
    /// rely on the journal to unwind mid-walk exhaustion.
    Disabled,
    /// Admission-gate each fork (and each fault-time allocation) against
    /// the reservation ledger, but never substitute a cheaper strategy:
    /// an unsatisfiable demand fails the fork with `NoMem` up front
    /// instead of part-way through the walk.
    #[default]
    Strict,
    /// Degrade `Full → CoA → CoPA` until a strategy's frame demand fits,
    /// failing only when even CoPA's eager pages cannot be reserved.
    Degrade,
}

/// One recorded fork side effect.
///
/// Frame references are owned by `FrameAlloc` / `RefInc` records;
/// `PteMap`'s inverse therefore unmaps without touching refcounts, so
/// each reference is dropped exactly once however far the fork got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JournalOp {
    /// Admission reserved this many frames (released at commit and at
    /// rollback alike — the reservation is an accounting promise, not a
    /// per-allocation debit).
    ReserveFrames(u64),
    /// The child's contiguous region was allocated.
    RegionAlloc(Region),
    /// A frame was allocated for the child (eager copy destination).
    FrameAlloc(Pfn),
    /// A shared frame's refcount was bumped for a child mapping.
    RefInc(Pfn),
    /// A child PTE reached (or is about to reach) the page table.
    PteMap(Vpn),
    /// A parent PTE was (or is about to be) armed copy-on-write. Only
    /// recorded for PTEs that were *not* already armed, so the inverse
    /// restores the exact pre-fork flags.
    CowArm(Vpn),
    /// The child region was added to the relocation source index.
    IndexInsert(Region),
    /// The child entered the process table.
    ProcInsert(Pid),
    /// An existing child PTE was (or is about to be) rewritten in place
    /// — a pipelined background chunk flipping a staged CoA mapping to
    /// its final frame + flags. The inverse restores the recorded
    /// pre-rewrite PTE exactly, so it is safe record-then-apply.
    PteRemap { vpn: Vpn, old: Pte },
    /// A shared frame's refcount was dropped (the pipelined chunk
    /// releasing the fork-time reference after the copy). Recorded
    /// apply-then-record; the inverse re-takes the reference.
    RefDec(Pfn),
    /// A parent PTE was (or is about to be) stamped with the new fork
    /// generation: generation field overwritten, soft-dirty bit cleared,
    /// COW re-armed on writable pages. Recorded record-then-apply (the
    /// stamp sweep runs after the walk's `protect_many`, so `had_cow`
    /// reflects the post-arm state it restores to); the inverse rewrites
    /// the exact pre-stamp generation/DIRTY/COW state and is idempotent
    /// when the stamp never landed.
    DirtyStamp {
        vpn: Vpn,
        old_gen: u32,
        was_dirty: bool,
        had_cow: bool,
    },
    /// The parent μprocess's dirty-tracking cursor was (or is about to
    /// be) advanced to a new generation. Record-then-apply; the inverse
    /// restores the prior cursor and tracked flag.
    DirtyTrack {
        pid: Pid,
        old_gen: u32,
        old_tracked: bool,
    },
    /// The background reclaim daemon scrubbed a pooled frame into the
    /// clean-frame magazine. Recorded apply-then-record; the inverse
    /// clears the magazine flag (the zeroed bytes stay — a frame marked
    /// unscrubbed but already clean is merely re-zeroed at grant, never
    /// handed out dirty).
    FrameScrub(Pfn),
}

/// The journal of the in-flight fork. Exactly one fork is in flight at a
/// time (the kernel runs under a big lock, paper §4.5), so one journal
/// on the kernel suffices.
#[derive(Default)]
pub(crate) struct ForkJournal {
    ops: Vec<JournalOp>,
    /// Ops recorded since boot — the index space for `fail_at`.
    recorded: u64,
    fail_at: Option<u64>,
    injected: bool,
}

impl ForkJournal {
    /// Records one side effect. On an injected failure the op is still
    /// recorded (its side effect happened; rollback must undo it), the
    /// injected-abort flag is set, and `Err(())` tells the caller to
    /// abort the fork.
    pub(crate) fn record(&mut self, op: JournalOp) -> Result<(), ()> {
        let idx = self.recorded;
        self.recorded += 1;
        self.ops.push(op);
        if self.fail_at == Some(idx) {
            self.fail_at = None;
            self.injected = true;
            return Err(());
        }
        Ok(())
    }

    /// Ops currently staged for the in-flight fork.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Drains the staged ops for reverse-order rollback.
    pub(crate) fn take_ops(&mut self) -> Vec<JournalOp> {
        std::mem::take(&mut self.ops)
    }

    /// Commits the fork: drains the staged ops, returning how many there
    /// were and the total frames reserved (for the caller to release).
    pub(crate) fn commit(&mut self) -> (u64, u64) {
        let reserved = self
            .ops
            .iter()
            .map(|op| match op {
                JournalOp::ReserveFrames(n) => *n,
                _ => 0,
            })
            .sum();
        let n = self.ops.len() as u64;
        self.ops.clear();
        (n, reserved)
    }

    /// Total ops recorded since boot (the injection index space).
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Arms one-shot injection: recording op `idx` (0-based since boot)
    /// fails.
    pub(crate) fn fail_at(&mut self, idx: u64) {
        self.fail_at = Some(idx);
    }

    /// True if the last abort came from injection; consumes the flag.
    pub(crate) fn take_injected(&mut self) -> bool {
        std::mem::take(&mut self.injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_since_boot_and_commit_clears() {
        let mut j = ForkJournal::default();
        j.record(JournalOp::ReserveFrames(3)).unwrap();
        j.record(JournalOp::FrameAlloc(Pfn(7))).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.recorded(), 2);
        let (n, reserved) = j.commit();
        assert_eq!((n, reserved), (2, 3));
        assert_eq!(j.len(), 0);
        // The boot-cumulative index space keeps counting.
        j.record(JournalOp::RefInc(Pfn(1))).unwrap();
        assert_eq!(j.recorded(), 3);
    }

    #[test]
    fn injection_is_one_shot_and_records_the_failing_op() {
        let mut j = ForkJournal::default();
        j.fail_at(1);
        j.record(JournalOp::ReserveFrames(1)).unwrap();
        assert!(j.record(JournalOp::FrameAlloc(Pfn(4))).is_err());
        // The failing op is in the journal: its side effect happened.
        assert_eq!(j.len(), 2);
        assert!(j.take_injected());
        assert!(!j.take_injected(), "flag is consumed");
        // Disarmed after firing: the retry records cleanly.
        let _ = j.take_ops();
        j.record(JournalOp::FrameAlloc(Pfn(4))).unwrap();
    }

    #[test]
    fn rollback_drains_in_recorded_order_for_reverse_replay() {
        let mut j = ForkJournal::default();
        j.record(JournalOp::ReserveFrames(2)).unwrap();
        j.record(JournalOp::RefInc(Pfn(9))).unwrap();
        let ops = j.take_ops();
        assert_eq!(
            ops,
            vec![JournalOp::ReserveFrames(2), JournalOp::RefInc(Pfn(9))]
        );
        assert_eq!(j.len(), 0);
    }
}
