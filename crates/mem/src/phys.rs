//! Physical memory: frame allocation, refcounting, and checked access.

use std::fmt;

use ufork_cheri::Capability;

use crate::frame::{Frame, Pfn, GRANULE_SIZE, PAGE_SIZE};

/// Errors raised by the physical memory layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// No free frames left.
    OutOfFrames,
    /// Frame number out of range or not allocated.
    BadFrame(Pfn),
    /// Access crosses the end of a frame.
    OutOfRange {
        /// Offset within the frame.
        offset: u64,
        /// Access length.
        len: u64,
    },
    /// Capability access at a non-granule-aligned offset.
    Unaligned(u64),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfFrames => write!(f, "out of physical frames"),
            MemError::BadFrame(p) => write!(f, "bad or unallocated frame {p:?}"),
            MemError::OutOfRange { offset, len } => {
                write!(
                    f,
                    "{len}-byte access at frame offset {offset:#x} out of range"
                )
            }
            MemError::Unaligned(o) => write!(f, "capability access at unaligned offset {o:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

struct Slot {
    frame: Frame,
    refcount: u32,
}

/// A freed frame parked on a recycled pool. `zeroed` records whether a
/// background reclaim pass already scrubbed it — in that case a later
/// [`ZeroPolicy::Zeroed`] allocation skips the redundant scrub.
struct Pooled {
    pfn: Pfn,
    frame: Frame,
    zeroed: bool,
}

/// Allocator pressure derived from the free-frame watermarks.
///
/// Admission control reads this before committing to a fork strategy:
/// `Normal` admits anything, `Elevated` is the degradation window
/// (Full→CoA→CoPA under a permissive `FallbackPolicy`), `Critical` means
/// even lazy strategies may fail and callers should reclaim first.
///
/// The level is **hysteretic** state, not an instantaneous function of
/// availability: entering a worse level happens the moment availability
/// crosses a watermark, but exiting back to a better one additionally
/// requires clearing the watermark by a slack band
/// (`high_watermark / 8`, at least 1 frame). A reservation+release pair
/// straddling a boundary therefore settles at the worse level instead of
/// toggling Elevated↔Normal on every call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Available frames at or above the high watermark.
    #[default]
    Normal,
    /// Available frames between the low and high watermarks.
    Elevated,
    /// Available frames below the low watermark.
    Critical,
}

/// Number of free-list shards in the physical allocator. Matches the
/// Morello SoC's 8 cores: each fork worker draws from its own shard and
/// falls back to deterministic work-stealing when its shard runs dry.
pub const NUM_SHARDS: usize = 8;

/// Whether an allocation needs the frame scrubbed before use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroPolicy {
    /// The caller reads the frame before fully writing it: a recycled
    /// frame must be zeroed (data and tags) at allocation time.
    Zeroed,
    /// The caller overwrites the entire frame (e.g. a Full-copy fork
    /// destination): skip the scrub — the deferred-zeroing win.
    Uninit,
}

/// What [`PhysMem::alloc_frame_in`] actually did, for cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocGrant {
    /// The allocated frame.
    pub pfn: Pfn,
    /// The frame came from a recycled pool rather than fresh memory.
    pub recycled: bool,
    /// The frame was recycled *and* the scrub was skipped
    /// ([`ZeroPolicy::Uninit`]): its old contents are garbage the caller
    /// has promised to overwrite.
    pub zeroing_skipped: bool,
    /// The frame was stolen from another shard's pool.
    pub stolen: bool,
    /// A [`ZeroPolicy::Zeroed`] request was served from the clean-frame
    /// magazine: the frame was recycled but a background reclaim pass had
    /// already scrubbed it, so no zeroing was charged at grant time.
    pub prezeroed: bool,
}

/// Cumulative sharded-allocator statistics, surfaced through `MemStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Allocations served with each shard as the home shard.
    pub per_shard_allocated: [u64; NUM_SHARDS],
    /// Allocations that had to steal from a foreign shard's pool.
    pub steals: u64,
    /// Allocations served from a recycled pool (any shard).
    pub recycled_hits: u64,
    /// Recycled allocations that skipped the zeroing scrub.
    pub zeroing_skipped: u64,
    /// [`ZeroPolicy::Zeroed`] allocations served pre-scrubbed from the
    /// clean-frame magazine.
    pub magazine_hits: u64,
}

/// Simulated physical memory: a bounded pool of refcounted, tagged frames.
///
/// Frames are lazily materialized — a `PhysMem` sized for a large machine
/// costs host memory only for frames actually allocated. Reference counts
/// support CoW-style sharing: a frame shared between N μprocesses has
/// `refcount == N` and contributes `1/N` to each one's proportional
/// resident set.
///
/// Freed frames land on one of [`NUM_SHARDS`] **recycled pools** (keyed by
/// `pfn % NUM_SHARDS`), keeping their backing storage so a later
/// allocation can skip or defer the zeroing scrub ([`ZeroPolicy`]). The
/// shards exist for the parallel fork walk: each worker lane has a home
/// shard, so concurrent chunks never contend on one free list in the
/// modeled machine, and allocation order stays deterministic.
pub struct PhysMem {
    slots: Vec<Option<Slot>>,
    shards: Vec<Vec<Pooled>>,
    next_fresh: u32,
    total_frames: u32,
    allocated: u32,
    peak_allocated: u32,
    alloc_attempts: u64,
    fail_at_attempt: Option<u64>,
    copy_attempts: u64,
    fail_copy_at: Option<u64>,
    stats: ShardStats,
    /// Frames promised to in-flight multi-frame operations (fork
    /// admission): they still sit on the free side of the ledger but are
    /// excluded from [`PhysMem::available_frames`], so a second admission
    /// check cannot double-book them. Accounting is cooperative — the
    /// allocation entry points do not enforce it (the kernel is the only
    /// reserver and serializes forks); admission happens at
    /// [`PhysMem::reserve`] call sites.
    reserved: u64,
    /// Pressure watermarks over *available* frames (free minus reserved).
    low_watermark: u32,
    high_watermark: u32,
    /// Hysteretic pressure state (see [`PressureLevel`]): recomputed on
    /// every availability change, read by [`PhysMem::pressure`].
    level: PressureLevel,
    /// Probe start for the single-lane [`PhysMem::alloc_frame`] entry
    /// point: the shard that received the most recent free. Starting
    /// there (and wrapping across all pools) makes legacy callers reuse
    /// freed, cache-warm frames in near-LIFO order instead of camping on
    /// one shard and burning fresh (cache-cold) memory while freed
    /// frames sit idle.
    legacy_cursor: usize,
}

impl PhysMem {
    /// Creates a physical memory of `total_frames` 4 KiB frames.
    pub fn new(total_frames: u32) -> PhysMem {
        let mut pm = PhysMem {
            slots: Vec::new(),
            shards: (0..NUM_SHARDS).map(|_| Vec::new()).collect(),
            next_fresh: 0,
            total_frames,
            allocated: 0,
            peak_allocated: 0,
            alloc_attempts: 0,
            fail_at_attempt: None,
            copy_attempts: 0,
            fail_copy_at: None,
            stats: ShardStats::default(),
            reserved: 0,
            // Defaults scale with the machine: pressure turns Elevated
            // below 1/8 of capacity and Critical below 1/64 (clamped so
            // tiny test machines still have a non-degenerate band).
            low_watermark: (total_frames / 64).max(1),
            high_watermark: (total_frames / 8).max(2),
            level: PressureLevel::Normal,
            legacy_cursor: 0,
        };
        pm.recompute_pressure();
        pm
    }

    /// Creates a physical memory of `mib` MiB.
    pub fn with_mib(mib: u32) -> PhysMem {
        PhysMem::new(mib * (1024 * 1024 / PAGE_SIZE as u32))
    }

    /// Total capacity in frames.
    pub fn total_frames(&self) -> u32 {
        self.total_frames
    }

    /// Currently allocated frames.
    pub fn allocated_frames(&self) -> u32 {
        self.allocated
    }

    /// High-water mark of allocated frames.
    pub fn peak_allocated_frames(&self) -> u32 {
        self.peak_allocated
    }

    /// Frames not currently allocated (recycled pools + fresh memory).
    pub fn free_frames(&self) -> u32 {
        self.total_frames - self.allocated
    }

    /// Free frames not spoken for by an outstanding reservation.
    pub fn available_frames(&self) -> u64 {
        u64::from(self.free_frames()).saturating_sub(self.reserved)
    }

    /// Outstanding reservation total, in frames.
    pub fn reserved_frames(&self) -> u64 {
        self.reserved
    }

    /// Reserves `n` frames against future allocation (fork admission
    /// pre-flight). Fails with `OutOfFrames` when fewer than `n` frames
    /// are available; on success the frames are excluded from
    /// [`PhysMem::available_frames`] until [`PhysMem::release`]d.
    ///
    /// The reservation is an accounting promise, not a frame list: the
    /// holder still allocates through the normal entry points and must
    /// release the full amount exactly once (at commit or rollback).
    pub fn reserve(&mut self, n: u64) -> Result<(), MemError> {
        if n > self.available_frames() {
            return Err(MemError::OutOfFrames);
        }
        self.reserved += n;
        self.recompute_pressure();
        Ok(())
    }

    /// Releases `n` previously [`PhysMem::reserve`]d frames.
    pub fn release(&mut self, n: u64) {
        debug_assert!(n <= self.reserved, "release of {n} exceeds reservation");
        self.reserved = self.reserved.saturating_sub(n);
        self.recompute_pressure();
    }

    /// Overrides the pressure watermarks (both counted in *available*
    /// frames). Panics in debug builds if `low > high`.
    pub fn set_watermarks(&mut self, low: u32, high: u32) {
        debug_assert!(low <= high, "low watermark above high");
        self.low_watermark = low;
        self.high_watermark = high;
        self.recompute_pressure();
    }

    /// Current allocator pressure: the hysteretic level maintained over
    /// [`PhysMem::available_frames`] (see [`PressureLevel`]).
    pub fn pressure(&self) -> PressureLevel {
        self.level
    }

    /// The exit-slack band of the hysteresis: a level improves only once
    /// availability clears its entry watermark by this many frames.
    /// Clamped so `high_watermark + slack` never exceeds total capacity —
    /// otherwise a machine whose high watermark sits at (or near) its
    /// frame count could never exit Elevated at all.
    fn pressure_slack(&self) -> u64 {
        u64::from(self.high_watermark / 8).max(1).min(u64::from(
            self.total_frames.saturating_sub(self.high_watermark),
        ))
    }

    /// The level availability maps to when every watermark is shifted up
    /// by `slack` frames (`slack == 0` gives the instantaneous level).
    fn level_at(&self, avail: u64, slack: u64) -> PressureLevel {
        if avail < u64::from(self.low_watermark) + slack {
            PressureLevel::Critical
        } else if avail < u64::from(self.high_watermark) + slack {
            PressureLevel::Elevated
        } else {
            PressureLevel::Normal
        }
    }

    /// Re-derives the hysteretic pressure level after an availability or
    /// watermark change: worsening applies immediately at the raw
    /// watermarks, improving requires clearing them by the slack band.
    /// Multi-level jumps in either direction are allowed (a large release
    /// can take Critical straight to Normal).
    fn recompute_pressure(&mut self) {
        let avail = self.available_frames();
        let raw = self.level_at(avail, 0);
        self.level = if raw >= self.level {
            raw
        } else {
            // Improving: step down only as far as the slack-shifted
            // watermarks allow, and never *up* (degenerate watermarks
            // where `low + slack > high` must not worsen on a release).
            self.level.min(self.level_at(avail, self.pressure_slack()))
        };
    }

    /// One bounded reclaim pass: scrubs every not-yet-zeroed frame parked
    /// on the recycled pools (the deferred-zero queue), so subsequent
    /// [`ZeroPolicy::Zeroed`] allocations skip their scrub. Returns the
    /// number of frames scrubbed — `0` means the pools were already clean
    /// and retrying reclaim cannot help.
    ///
    /// Reclaim converts deferred work into done work; it cannot conjure
    /// capacity, so true exhaustion still surfaces as `OutOfFrames` after
    /// the caller's bounded retry loop.
    pub fn reclaim_pass(&mut self) -> u64 {
        let mut scrubbed = 0;
        for pool in &mut self.shards {
            for p in pool.iter_mut() {
                if !p.zeroed {
                    p.frame.zero();
                    p.zeroed = true;
                    scrubbed += 1;
                }
            }
        }
        scrubbed
    }

    /// Pooled frames still awaiting a scrub (the deferred-zero queue the
    /// background reclaim daemon drains).
    pub fn pending_scrub(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|pool| pool.iter())
            .filter(|p| !p.zeroed)
            .count() as u64
    }

    /// Pre-scrubbed frames parked on the clean-frame magazines, ready to
    /// serve a [`ZeroPolicy::Zeroed`] allocation without an inline zero.
    pub fn magazine_depth(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|pool| pool.iter())
            .filter(|p| p.zeroed)
            .count() as u64
    }

    /// Scrubs exactly one unzeroed pooled frame into the clean-frame
    /// magazine and returns its pfn, or `None` when the deferred-zero
    /// queue is empty. The background reclaim daemon's unit of work:
    /// bounded, journalable per frame, deterministic order (shards
    /// ascending; within a pool the *newest* free first, since that is
    /// the next frame an allocation will pop).
    pub fn scrub_one(&mut self) -> Option<Pfn> {
        for pool in &mut self.shards {
            if let Some(p) = pool.iter_mut().rev().find(|p| !p.zeroed) {
                p.frame.zero();
                p.zeroed = true;
                return Some(p.pfn);
            }
        }
        None
    }

    /// Journal inverse of [`PhysMem::scrub_one`]: marks the pooled frame
    /// as not scrubbed again, so magazine accounting rolls back exactly.
    /// (The zeroed *contents* stay — a free frame's contents are
    /// unobservable until reallocation, and a `Zeroed` grant of an
    /// unmarked frame simply re-scrubs.) Returns `false` if `pfn` is not
    /// parked on a pool in the scrubbed state.
    pub fn unscrub_frame(&mut self, pfn: Pfn) -> bool {
        for pool in &mut self.shards {
            if let Some(p) = pool.iter_mut().find(|p| p.pfn == pfn && p.zeroed) {
                p.zeroed = false;
                return true;
            }
        }
        false
    }

    /// Total `alloc_frame` attempts so far (successful or not). A
    /// fault-injection campaign first counts a clean run's attempts, then
    /// replays with [`PhysMem::fail_alloc_at`] targeting each index.
    pub fn alloc_attempts(&self) -> u64 {
        self.alloc_attempts
    }

    /// Arms deterministic fault injection: the allocation attempt with
    /// index `attempt` (counted by [`PhysMem::alloc_attempts`], 0-based
    /// from boot) fails with `OutOfFrames`. One-shot: the trigger disarms
    /// after firing so recovery paths can allocate again.
    pub fn fail_alloc_at(&mut self, attempt: u64) {
        self.fail_at_attempt = Some(attempt);
    }

    /// Total `copy_frame` attempts so far (successful or not), counted
    /// like [`PhysMem::alloc_attempts`] for replay-style fault injection.
    pub fn copy_attempts(&self) -> u64 {
        self.copy_attempts
    }

    /// Arms deterministic copy-failure injection: the `copy_frame` call
    /// with index `attempt` (0-based from boot, see
    /// [`PhysMem::copy_attempts`]) fails with `BadFrame(dst)` — modeling
    /// a poisoned/ECC-failed destination frame. One-shot: the trigger
    /// disarms after firing so a retry can succeed.
    pub fn fail_copy_at(&mut self, attempt: u64) {
        self.fail_copy_at = Some(attempt);
    }

    /// Allocates a zeroed frame with refcount 1.
    ///
    /// Legacy single-lane entry point ([`ZeroPolicy::Zeroed`] — the frame
    /// is always safe to read). Recycled pools are drained before fresh
    /// memory, like the old global free list: the probe starts at the
    /// pool that received the most recent free (tracked by
    /// [`PhysMem::dec_ref`]) and wraps across all shards, so single-lane
    /// workloads reuse recently-freed (cache-warm) frames no matter which
    /// pool they landed in. Draining another shard's pool is not a steal
    /// here — there is no other lane to contend with.
    pub fn alloc_frame(&mut self) -> Result<Pfn, MemError> {
        self.alloc_frame_grant().map(|g| g.pfn)
    }

    /// [`PhysMem::alloc_frame`] with the full [`AllocGrant`] record, so
    /// single-lane callers can account magazine hits and inline-zeroing
    /// cost like the sharded entry point's callers do.
    pub fn alloc_frame_grant(&mut self) -> Result<AllocGrant, MemError> {
        self.alloc_legacy(false)
    }

    /// [`PhysMem::alloc_frame_grant`] for a frame the caller overwrites
    /// whole, data and tags (a copy destination).
    ///
    /// Chosen and accounted exactly like a [`ZeroPolicy::Zeroed`] grant:
    /// the same frame, the same [`AllocGrant`] and the same
    /// [`ShardStats`], a magazine hit included, so the caller charges the
    /// same scrub. Only the host work differs: a recycled frame no
    /// reclaim pass scrubbed loses its previous owner's capabilities and
    /// tags, but its data bytes are not zeroed. A frame freed before it
    /// was overwritten goes back to its pool as not scrubbed, so the next
    /// `Zeroed` grant of it zeroes it.
    pub fn alloc_overwrite_grant(&mut self) -> Result<AllocGrant, MemError> {
        self.alloc_legacy(true)
    }

    /// The single-lane probe behind [`PhysMem::alloc_frame_grant`] and
    /// [`PhysMem::alloc_overwrite_grant`].
    fn alloc_legacy(&mut self, overwrite: bool) -> Result<AllocGrant, MemError> {
        self.count_attempt()?;
        let home = self.legacy_cursor;
        let popped = (0..NUM_SHARDS)
            .map(|d| (home + d) % NUM_SHARDS)
            .find_map(|s| self.shards[s].pop());
        let (pfn, frame) = match popped {
            Some(p) => (p.pfn, Some((p.frame, p.zeroed))),
            None if self.next_fresh < self.total_frames => {
                let p = Pfn(self.next_fresh);
                self.next_fresh += 1;
                (p, None)
            }
            None => return Err(MemError::OutOfFrames),
        };
        Ok(self.grant(pfn, frame, home, false, ZeroPolicy::Zeroed, overwrite))
    }

    /// Allocates a frame with refcount 1 from home shard `shard`
    /// (wrapping modulo [`NUM_SHARDS`]).
    ///
    /// Allocation order: the home shard's recycled pool, then fresh
    /// (never-used) memory, then stealing from the other shards' pools in
    /// the fixed probe order `home+1, home+2, …` (mod `NUM_SHARDS`) — so
    /// the sequence of granted frames is a pure function of the call
    /// sequence, independent of host threading.
    ///
    /// `zero` controls the recycled-frame scrub; fresh frames are zeroed
    /// by construction, so [`ZeroPolicy::Uninit`] only has an effect (and
    /// only shows up in [`AllocGrant::zeroing_skipped`]) on recycled
    /// frames. Fault injection armed via [`PhysMem::fail_alloc_at`]
    /// counts attempts globally across all shards.
    pub fn alloc_frame_in(
        &mut self,
        shard: usize,
        zero: ZeroPolicy,
    ) -> Result<AllocGrant, MemError> {
        self.count_attempt()?;
        let home = shard % NUM_SHARDS;
        let (pfn, frame, stolen) = if let Some(p) = self.shards[home].pop() {
            (p.pfn, Some((p.frame, p.zeroed)), false)
        } else if self.next_fresh < self.total_frames {
            let p = Pfn(self.next_fresh);
            self.next_fresh += 1;
            (p, None, false)
        } else if let Some(p) = (1..NUM_SHARDS)
            .map(|d| (home + d) % NUM_SHARDS)
            .find_map(|s| self.shards[s].pop())
        {
            (p.pfn, Some((p.frame, p.zeroed)), true)
        } else {
            return Err(MemError::OutOfFrames);
        };
        Ok(self.grant(pfn, frame, home, stolen, zero, false))
    }

    /// The global attempt counter + one-shot fault injection, shared by
    /// every allocation entry point.
    fn count_attempt(&mut self) -> Result<(), MemError> {
        let attempt = self.alloc_attempts;
        self.alloc_attempts += 1;
        if self.fail_at_attempt == Some(attempt) {
            self.fail_at_attempt = None;
            return Err(MemError::OutOfFrames);
        }
        Ok(())
    }

    /// Installs a granted frame (recycled `Some(frame)` or fresh `None`)
    /// into its slot, applying the zero policy and recording stats.
    /// `overwrite` narrows a `Zeroed` scrub to the tags and capabilities.
    fn grant(
        &mut self,
        pfn: Pfn,
        frame: Option<(Frame, bool)>,
        home: usize,
        stolen: bool,
        zero: ZeroPolicy,
        overwrite: bool,
    ) -> AllocGrant {
        let recycled = frame.is_some();
        let zeroing_skipped = recycled && zero == ZeroPolicy::Uninit;
        let prezeroed = matches!(frame, Some((_, true))) && zero == ZeroPolicy::Zeroed;
        let frame = match frame {
            Some((mut f, scrubbed)) => {
                if zero == ZeroPolicy::Zeroed && !scrubbed {
                    if overwrite {
                        f.drop_caps();
                    } else {
                        f.zero();
                    }
                }
                f
            }
            None => Frame::zeroed(),
        };
        let idx = pfn.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(Slot { frame, refcount: 1 });
        self.allocated += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        self.stats.per_shard_allocated[home] += 1;
        if recycled {
            self.stats.recycled_hits += 1;
        }
        if zeroing_skipped {
            self.stats.zeroing_skipped += 1;
        }
        if prezeroed {
            self.stats.magazine_hits += 1;
        }
        if stolen {
            self.stats.steals += 1;
        }
        self.recompute_pressure();
        AllocGrant {
            pfn,
            recycled,
            zeroing_skipped,
            stolen,
            prezeroed,
        }
    }

    /// Cumulative sharded-allocator statistics.
    pub fn shard_stats(&self) -> ShardStats {
        self.stats
    }

    /// Increments a frame's refcount (a new sharer, e.g. a CoW mapping).
    pub fn inc_ref(&mut self, pfn: Pfn) -> Result<u32, MemError> {
        let slot = self.slot_mut(pfn)?;
        slot.refcount += 1;
        Ok(slot.refcount)
    }

    /// Decrements a frame's refcount, freeing the frame when it hits zero.
    ///
    /// A freed frame moves (contents and all) to the recycled pool of
    /// shard `pfn % NUM_SHARDS`; the scrub is deferred to reallocation
    /// time, where [`ZeroPolicy::Uninit`] callers can skip it entirely.
    ///
    /// Returns the remaining refcount.
    pub fn dec_ref(&mut self, pfn: Pfn) -> Result<u32, MemError> {
        let slot = self.slot_mut(pfn)?;
        slot.refcount -= 1;
        let remaining = slot.refcount;
        if remaining == 0 {
            let slot = self.slots[pfn.0 as usize].take().expect("checked above");
            let shard = pfn.0 as usize % NUM_SHARDS;
            self.shards[shard].push(Pooled {
                pfn,
                frame: slot.frame,
                zeroed: false,
            });
            // Point the single-lane probe at the freshest free so the next
            // legacy alloc reuses it first (LIFO, cache-warm).
            self.legacy_cursor = shard;
            self.allocated -= 1;
            self.recompute_pressure();
        }
        Ok(remaining)
    }

    /// Detaches a frame's storage, leaving a [`Frame::detached`]
    /// placeholder in its slot.
    ///
    /// The parallel fork walk uses this to hand owned destination frames
    /// to worker threads while `PhysMem` itself is only borrowed shared
    /// (for reading source frames). The caller must pair every detach
    /// with an [`PhysMem::attach_frame`] before the frame is accessed
    /// through `PhysMem` again.
    pub fn detach_frame(&mut self, pfn: Pfn) -> Result<Frame, MemError> {
        let slot = self.slot_mut(pfn)?;
        debug_assert!(!slot.frame.is_detached(), "double detach of {pfn:?}");
        Ok(std::mem::replace(&mut slot.frame, Frame::detached()))
    }

    /// Reattaches a frame previously taken with [`PhysMem::detach_frame`].
    pub fn attach_frame(&mut self, pfn: Pfn, frame: Frame) -> Result<(), MemError> {
        let slot = self.slot_mut(pfn)?;
        debug_assert!(slot.frame.is_detached(), "attach over live frame {pfn:?}");
        slot.frame = frame;
        Ok(())
    }

    /// Current refcount of a frame.
    pub fn refcount(&self, pfn: Pfn) -> Result<u32, MemError> {
        Ok(self.slot(pfn)?.refcount)
    }

    /// Reads `buf.len()` bytes from `pfn` at `offset`.
    pub fn read(&self, pfn: Pfn, offset: u64, buf: &mut [u8]) -> Result<(), MemError> {
        check_range(offset, buf.len() as u64)?;
        self.slot(pfn)?.frame.read(offset, buf);
        Ok(())
    }

    /// Writes `buf` to `pfn` at `offset`, clearing overlapped tags.
    pub fn write(&mut self, pfn: Pfn, offset: u64, buf: &[u8]) -> Result<(), MemError> {
        check_range(offset, buf.len() as u64)?;
        self.slot_mut(pfn)?.frame.write(offset, buf);
        Ok(())
    }

    /// Loads the capability (if tagged) at granule-aligned `offset`.
    pub fn load_cap(&self, pfn: Pfn, offset: u64) -> Result<Option<Capability>, MemError> {
        check_cap_offset(offset)?;
        Ok(self.slot(pfn)?.frame.load_cap(offset))
    }

    /// Stores a capability at granule-aligned `offset`, setting its tag.
    pub fn store_cap(&mut self, pfn: Pfn, offset: u64, cap: &Capability) -> Result<(), MemError> {
        check_cap_offset(offset)?;
        self.slot_mut(pfn)?.frame.store_cap(offset, cap);
        Ok(())
    }

    /// Borrows a frame immutably (for scans and bulk copies).
    pub fn frame(&self, pfn: Pfn) -> Result<&Frame, MemError> {
        Ok(&self.slot(pfn)?.frame)
    }

    /// Borrows a frame mutably.
    pub fn frame_mut(&mut self, pfn: Pfn) -> Result<&mut Frame, MemError> {
        Ok(&mut self.slot_mut(pfn)?.frame)
    }

    /// Copies `src`'s data and tags into `dst` (both must be allocated).
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) -> Result<(), MemError> {
        let attempt = self.copy_attempts;
        self.copy_attempts += 1;
        if self.fail_copy_at == Some(attempt) {
            self.fail_copy_at = None;
            return Err(MemError::BadFrame(dst));
        }
        if src == dst {
            return Ok(());
        }
        self.slot(src)?;
        self.slot(dst)?;
        let (a, b) = (src.0 as usize, dst.0 as usize);
        // Split-borrow the two slots.
        let (lo, hi) = if a < b {
            let (l, h) = self.slots.split_at_mut(b);
            (&l[a], &mut h[0])
        } else {
            let (l, h) = self.slots.split_at_mut(a);
            (&h[0], &mut l[b])
        };
        let src_frame = &lo.as_ref().expect("checked above").frame;
        let dst_slot = hi.as_mut().expect("checked above");
        dst_slot.frame.copy_from(src_frame);
        Ok(())
    }

    fn slot(&self, pfn: Pfn) -> Result<&Slot, MemError> {
        self.slots
            .get(pfn.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(MemError::BadFrame(pfn))
    }

    fn slot_mut(&mut self, pfn: Pfn) -> Result<&mut Slot, MemError> {
        self.slots
            .get_mut(pfn.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(MemError::BadFrame(pfn))
    }
}

fn check_range(offset: u64, len: u64) -> Result<(), MemError> {
    // `offset + len` can wrap for adversarial offsets (e.g. u64::MAX),
    // sneaking past the bound and panicking downstream in `Frame::read`.
    match offset.checked_add(len) {
        Some(end) if end <= PAGE_SIZE => Ok(()),
        _ => Err(MemError::OutOfRange { offset, len }),
    }
}

fn check_cap_offset(offset: u64) -> Result<(), MemError> {
    if !offset.is_multiple_of(GRANULE_SIZE) {
        return Err(MemError::Unaligned(offset));
    }
    match offset.checked_add(GRANULE_SIZE) {
        Some(end) if end <= PAGE_SIZE => Ok(()),
        _ => Err(MemError::OutOfRange {
            offset,
            len: GRANULE_SIZE,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufork_cheri::Perms;

    fn cap() -> Capability {
        Capability::new_root(0x8000, 32, Perms::data())
    }

    #[test]
    fn alloc_until_exhaustion() {
        let mut pm = PhysMem::new(3);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        let c = pm.alloc_frame().unwrap();
        assert_eq!(pm.alloc_frame().unwrap_err(), MemError::OutOfFrames);
        assert_eq!(pm.allocated_frames(), 3);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn free_recycles_frames() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.write(a, 0, &[9]).unwrap();
        assert_eq!(pm.dec_ref(a), Ok(0));
        assert_eq!(pm.allocated_frames(), 0);
        let b = pm.alloc_frame().unwrap();
        assert_eq!(a, b);
        // Recycled frame is zeroed.
        let mut out = [1u8];
        pm.read(b, 0, &mut out).unwrap();
        assert_eq!(out, [0]);
    }

    #[test]
    fn legacy_alloc_drains_every_pool_before_fresh_memory() {
        let mut pm = PhysMem::new(64);
        // Free frames spread across several shard pools.
        let pfns: Vec<Pfn> = (0..12).map(|_| pm.alloc_frame().unwrap()).collect();
        for p in &pfns {
            pm.dec_ref(*p).unwrap();
        }
        // The single-lane entry point must recycle all 12 (cache-warm)
        // frames before reaching for fresh (cold) memory.
        let mut recycled: Vec<u32> = (0..12).map(|_| pm.alloc_frame().unwrap().0).collect();
        recycled.sort_unstable();
        assert_eq!(recycled, (0..12).collect::<Vec<u32>>());
        // Only now does it break new ground.
        assert_eq!(pm.alloc_frame().unwrap(), Pfn(12));
        // Rotating over pools is not contention: no steals are recorded.
        assert_eq!(pm.shard_stats().steals, 0);
    }

    #[test]
    fn refcounting_shares_frames() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        assert_eq!(pm.inc_ref(a), Ok(2));
        assert_eq!(pm.dec_ref(a), Ok(1));
        assert_eq!(pm.refcount(a), Ok(1));
        assert_eq!(pm.dec_ref(a), Ok(0));
        assert_eq!(pm.refcount(a), Err(MemError::BadFrame(a)));
    }

    #[test]
    fn access_to_freed_frame_fails() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.dec_ref(a).unwrap();
        assert_eq!(pm.read(a, 0, &mut [0]).unwrap_err(), MemError::BadFrame(a));
        assert_eq!(pm.write(a, 0, &[0]).unwrap_err(), MemError::BadFrame(a));
    }

    #[test]
    fn cross_page_access_rejected() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        assert!(matches!(
            pm.read(a, PAGE_SIZE - 2, &mut [0u8; 4]),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn huge_offset_does_not_wrap_past_the_range_check() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        // offset + len wraps to a small value; the check must still reject.
        assert!(matches!(
            pm.read(a, u64::MAX, &mut [0u8; 4]),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            pm.write(a, u64::MAX - 1, &[0u8; 8]),
            Err(MemError::OutOfRange { .. })
        ));
        // Granule-aligned offset near u64::MAX: offset + GRANULE_SIZE wraps
        // to exactly 0, the worst case for an unchecked `<=` comparison.
        let aligned_huge = u64::MAX - (GRANULE_SIZE - 1);
        assert_eq!(aligned_huge % GRANULE_SIZE, 0);
        assert_eq!(aligned_huge.wrapping_add(GRANULE_SIZE), 0);
        assert!(matches!(
            pm.load_cap(a, aligned_huge),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            pm.store_cap(a, aligned_huge, &cap()),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn unaligned_cap_access_rejected() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        assert_eq!(
            pm.store_cap(a, 8, &cap()).unwrap_err(),
            MemError::Unaligned(8)
        );
        assert_eq!(pm.load_cap(a, 8).unwrap_err(), MemError::Unaligned(8));
    }

    #[test]
    fn copy_frame_duplicates_data_and_tags() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        pm.write(a, 0, b"hello").unwrap();
        pm.store_cap(a, 32, &cap()).unwrap();
        pm.copy_frame(a, b).unwrap();
        let mut out = [0u8; 5];
        pm.read(b, 0, &mut out).unwrap();
        assert_eq!(&out, b"hello");
        assert_eq!(pm.load_cap(b, 32).unwrap(), Some(cap()));
        // Copy in the other direction also works (exercises both borrow arms).
        pm.write(b, 0, b"world").unwrap();
        pm.copy_frame(b, a).unwrap();
        pm.read(a, 0, &mut out).unwrap();
        assert_eq!(&out, b"world");
    }

    #[test]
    fn peak_tracking() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        let _b = pm.alloc_frame().unwrap();
        pm.dec_ref(a).unwrap();
        assert_eq!(pm.allocated_frames(), 1);
        assert_eq!(pm.peak_allocated_frames(), 2);
    }

    #[test]
    fn with_mib_capacity() {
        let pm = PhysMem::with_mib(1);
        assert_eq!(pm.total_frames(), 256);
    }

    #[test]
    fn injected_alloc_failure_is_one_shot_and_deterministic() {
        let mut pm = PhysMem::new(8);
        let _a = pm.alloc_frame().unwrap();
        assert_eq!(pm.alloc_attempts(), 1);
        // Arm the third attempt (index 2): the next alloc succeeds, the
        // one after fails, and the one after that succeeds again.
        pm.fail_alloc_at(2);
        assert!(pm.alloc_frame().is_ok());
        assert_eq!(pm.alloc_frame().unwrap_err(), MemError::OutOfFrames);
        assert!(pm.alloc_frame().is_ok());
        assert_eq!(pm.alloc_attempts(), 4);
        // Failed attempts don't change accounting.
        assert_eq!(pm.allocated_frames(), 3);
    }

    #[test]
    fn injected_copy_failure_is_one_shot_and_leaves_frames_intact() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        pm.write(a, 0, b"keep").unwrap();
        pm.copy_frame(a, b).unwrap();
        assert_eq!(pm.copy_attempts(), 1);
        pm.fail_copy_at(1);
        assert_eq!(pm.copy_frame(a, b).unwrap_err(), MemError::BadFrame(b));
        // One-shot: the retry succeeds, and the source was never harmed.
        pm.copy_frame(a, b).unwrap();
        let mut out = [0u8; 4];
        pm.read(b, 0, &mut out).unwrap();
        assert_eq!(&out, b"keep");
        assert_eq!(pm.copy_attempts(), 3);
    }

    #[test]
    fn overwrite_grant_drops_caps_and_is_accounted_like_zeroed() {
        // The same history on two machines: a frame fills every granule
        // with a capability and is freed.
        let (mut pm, mut twin) = (PhysMem::new(4), PhysMem::new(4));
        for m in [&mut pm, &mut twin] {
            let f = m.alloc_frame().unwrap();
            for g in 0..crate::GRANULES_PER_PAGE {
                m.store_cap(f, g * GRANULE_SIZE, &cap()).unwrap();
            }
            assert_eq!(m.frame(f).unwrap().cap_count(), 256);
            m.dec_ref(f).unwrap();
        }
        let g = pm.alloc_overwrite_grant().unwrap();
        assert_eq!(g, twin.alloc_frame_grant().unwrap());
        assert!(g.recycled && !g.prezeroed && !g.zeroing_skipped);
        assert_eq!(pm.shard_stats(), twin.shard_stats());
        let frame = pm.frame(g.pfn).unwrap();
        assert_eq!(frame.cap_count(), 0);
        assert_eq!(frame.caps_capacity(), 0);
        assert!(frame.check_tag_invariant());
        // The data bytes were left for the caller to overwrite.
        assert!(frame.data().iter().any(|&b| b != 0));

        // A copy into it fails: the frame goes back to its pool as not
        // scrubbed, and the next `Zeroed` grant of it zeroes it.
        let src = pm.alloc_frame().unwrap();
        pm.fail_copy_at(pm.copy_attempts());
        assert!(pm.copy_frame(src, g.pfn).is_err());
        pm.dec_ref(g.pfn).unwrap();
        assert_eq!(pm.pending_scrub(), 1);
        let z = pm.alloc_frame_grant().unwrap();
        assert_eq!(z.pfn, g.pfn);
        assert!(z.recycled && !z.prezeroed);
        assert!(pm.frame(z.pfn).unwrap().data().iter().all(|&b| b == 0));

        // The same allocations on the twin, then a frame a reclaim pass
        // scrubbed is a magazine hit for both.
        assert_eq!(twin.alloc_frame().unwrap(), src);
        twin.dec_ref(g.pfn).unwrap();
        assert_eq!(twin.alloc_frame_grant().unwrap(), z);
        for m in [&mut pm, &mut twin] {
            m.dec_ref(z.pfn).unwrap();
            m.dec_ref(src).unwrap();
            m.reclaim_pass();
        }
        let a = pm.alloc_overwrite_grant().unwrap();
        assert_eq!(a, twin.alloc_frame_grant().unwrap());
        assert!(a.prezeroed);
        assert_eq!(pm.shard_stats(), twin.shard_stats());
    }

    #[test]
    fn shard_alloc_prefers_home_pool_then_fresh() {
        let mut pm = PhysMem::new(32);
        // Materialize pfn 0..16 and free them all: shard s pools hold
        // the pfns with pfn % NUM_SHARDS == s.
        let pfns: Vec<Pfn> = (0..16).map(|_| pm.alloc_frame().unwrap()).collect();
        for p in &pfns {
            pm.dec_ref(*p).unwrap();
        }
        // The setup allocations above went through the legacy entry point,
        // which also attributes shard stats — compare deltas from here.
        let base = pm.shard_stats();
        // Home shard 3 pool holds pfns 3 and 11 (LIFO: 11 first).
        let g = pm.alloc_frame_in(3, ZeroPolicy::Zeroed).unwrap();
        assert_eq!(g.pfn, Pfn(11));
        assert!(g.recycled && !g.stolen && !g.zeroing_skipped);
        let g = pm.alloc_frame_in(3, ZeroPolicy::Zeroed).unwrap();
        assert_eq!(g.pfn, Pfn(3));
        // Pool dry: fresh memory before stealing.
        let g = pm.alloc_frame_in(3, ZeroPolicy::Zeroed).unwrap();
        assert_eq!(g.pfn, Pfn(16));
        assert!(!g.recycled);
        let s = pm.shard_stats();
        assert_eq!(s.per_shard_allocated[3] - base.per_shard_allocated[3], 3);
        assert_eq!(s.recycled_hits - base.recycled_hits, 2);
        assert_eq!(s.steals, 0);
    }

    #[test]
    fn shard_steal_order_is_deterministic() {
        let mut pm = PhysMem::new(16);
        let pfns: Vec<Pfn> = (0..16).map(|_| pm.alloc_frame().unwrap()).collect();
        for p in &pfns {
            pm.dec_ref(*p).unwrap();
        }
        // Drain home shard 5 (pfns 13, 5), exhausting fresh too.
        assert_eq!(
            pm.alloc_frame_in(5, ZeroPolicy::Zeroed).unwrap().pfn,
            Pfn(13)
        );
        assert_eq!(
            pm.alloc_frame_in(5, ZeroPolicy::Zeroed).unwrap().pfn,
            Pfn(5)
        );
        // Next allocation steals from shard 6 (probe order 6, 7, 0, …).
        let g = pm.alloc_frame_in(5, ZeroPolicy::Zeroed).unwrap();
        assert_eq!(g.pfn, Pfn(14));
        assert!(g.stolen && g.recycled);
        assert_eq!(pm.shard_stats().steals, 1);
    }

    #[test]
    fn uninit_recycled_frame_skips_the_scrub() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.write(a, 0, &[0xab; 4]).unwrap();
        pm.store_cap(a, 32, &cap()).unwrap();
        pm.dec_ref(a).unwrap();
        let g = pm.alloc_frame_in(0, ZeroPolicy::Uninit).unwrap();
        assert_eq!(g.pfn, a);
        assert!(g.recycled && g.zeroing_skipped);
        // The stale contents survive — the caller promised to overwrite.
        let mut out = [0u8; 4];
        pm.read(g.pfn, 0, &mut out).unwrap();
        assert_eq!(out, [0xab; 4]);
        assert_eq!(pm.load_cap(g.pfn, 32).unwrap(), Some(cap()));
        assert_eq!(pm.shard_stats().zeroing_skipped, 1);
        // A fresh allocation is zeroed by construction and never reports
        // a skipped scrub.
        let mut pm2 = PhysMem::new(2);
        let g2 = pm2.alloc_frame_in(0, ZeroPolicy::Uninit).unwrap();
        assert!(!g2.recycled && !g2.zeroing_skipped);
    }

    #[test]
    fn injection_counts_attempts_across_shards() {
        let mut pm = PhysMem::new(16);
        pm.fail_alloc_at(2);
        assert!(pm.alloc_frame_in(0, ZeroPolicy::Zeroed).is_ok());
        assert!(pm.alloc_frame_in(3, ZeroPolicy::Zeroed).is_ok());
        assert_eq!(
            pm.alloc_frame_in(6, ZeroPolicy::Uninit).unwrap_err(),
            MemError::OutOfFrames
        );
        assert!(pm.alloc_frame_in(6, ZeroPolicy::Zeroed).is_ok());
        assert_eq!(pm.alloc_attempts(), 4);
    }

    #[test]
    fn reserve_release_and_available_accounting() {
        let mut pm = PhysMem::new(16);
        assert_eq!(pm.free_frames(), 16);
        assert_eq!(pm.available_frames(), 16);
        pm.reserve(10).unwrap();
        assert_eq!(pm.reserved_frames(), 10);
        assert_eq!(pm.available_frames(), 6);
        // A second reservation cannot double-book the promised frames.
        assert_eq!(pm.reserve(7).unwrap_err(), MemError::OutOfFrames);
        pm.reserve(6).unwrap();
        assert_eq!(pm.available_frames(), 0);
        pm.release(16);
        assert_eq!(pm.available_frames(), 16);
        // Allocation shrinks availability like reservation does.
        let a = pm.alloc_frame().unwrap();
        assert_eq!(pm.available_frames(), 15);
        pm.dec_ref(a).unwrap();
        assert_eq!(pm.available_frames(), 16);
    }

    #[test]
    fn pressure_follows_the_watermarks() {
        let mut pm = PhysMem::new(64);
        pm.set_watermarks(4, 16);
        assert_eq!(pm.pressure(), PressureLevel::Normal);
        // Reserve down into the elevated band…
        pm.reserve(49).unwrap(); // available = 15
        assert_eq!(pm.pressure(), PressureLevel::Elevated);
        // …and allocation pushes it critical.
        let mut held = Vec::new();
        for _ in 0..12 {
            held.push(pm.alloc_frame().unwrap());
        }
        assert_eq!(pm.available_frames(), 3);
        assert_eq!(pm.pressure(), PressureLevel::Critical);
        pm.release(49);
        assert_eq!(pm.pressure(), PressureLevel::Normal);
    }

    #[test]
    fn pressure_hysteresis_stops_boundary_flapping() {
        let mut pm = PhysMem::new(64);
        pm.set_watermarks(4, 16); // exit slack = 16/8 = 2
        pm.reserve(49).unwrap(); // available = 15
        assert_eq!(pm.pressure(), PressureLevel::Elevated);
        // A release/reserve pair straddling the high watermark used to
        // toggle Elevated↔Normal on every call; with hysteresis the
        // level stays put until the slack band is cleared.
        pm.release(1); // available = 16, exactly at the watermark
        assert_eq!(pm.pressure(), PressureLevel::Elevated);
        pm.reserve(1).unwrap(); // available = 15
        assert_eq!(pm.pressure(), PressureLevel::Elevated);
        pm.release(3); // available = 18 = high + slack: genuine exit
        assert_eq!(pm.pressure(), PressureLevel::Normal);
        // Same stickiness at the low watermark; worsening is immediate.
        pm.reserve(15).unwrap(); // available = 3
        assert_eq!(pm.pressure(), PressureLevel::Critical);
        pm.release(2); // available = 5 < low + slack
        assert_eq!(pm.pressure(), PressureLevel::Critical);
        pm.release(1); // available = 6 = low + slack
        assert_eq!(pm.pressure(), PressureLevel::Elevated);
        pm.release(58); // everything back: multi-level exit allowed
        assert_eq!(pm.pressure(), PressureLevel::Normal);
    }

    #[test]
    fn scrub_one_fills_magazines_and_grants_report_hits() {
        let mut pm = PhysMem::new(16);
        let pfns: Vec<Pfn> = (0..3).map(|_| pm.alloc_frame().unwrap()).collect();
        for p in &pfns {
            pm.write(*p, 0, &[0xee; 4]).unwrap();
            pm.dec_ref(*p).unwrap();
        }
        assert_eq!(pm.pending_scrub(), 3);
        assert_eq!(pm.magazine_depth(), 0);
        let scrubbed = pm.scrub_one().unwrap();
        assert_eq!(pm.pending_scrub(), 2);
        assert_eq!(pm.magazine_depth(), 1);
        // The journal inverse restores the accounting exactly…
        assert!(pm.unscrub_frame(scrubbed));
        assert_eq!(pm.pending_scrub(), 3);
        assert_eq!(pm.magazine_depth(), 0);
        // …and rejects frames that aren't parked scrubbed.
        assert!(!pm.unscrub_frame(scrubbed));
        assert!(!pm.unscrub_frame(Pfn(77)));
        // Drain the queue: three scrubs, then empty.
        assert!(pm.scrub_one().is_some());
        assert!(pm.scrub_one().is_some());
        assert!(pm.scrub_one().is_some());
        assert!(pm.scrub_one().is_none());
        assert_eq!(pm.magazine_depth(), 3);
        // A Zeroed grant now hits the magazine (no inline scrub) and
        // still reads zeros.
        let g = pm.alloc_frame_grant().unwrap();
        assert!(g.recycled && g.prezeroed);
        assert_eq!(pm.shard_stats().magazine_hits, 1);
        let mut out = [0xffu8; 4];
        pm.read(g.pfn, 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 4]);
        // An unscrubbed recycled frame is zeroed inline, not a hit.
        pm.dec_ref(g.pfn).unwrap();
        let g2 = pm.alloc_frame_grant().unwrap();
        assert!(g2.recycled && !g2.prezeroed);
        assert_eq!(pm.shard_stats().magazine_hits, 1);
    }

    #[test]
    fn scrub_one_targets_the_next_frame_an_alloc_would_pop() {
        let mut pm = PhysMem::new(16);
        // Two frames freed onto the same shard pool (pfn 0 and 8).
        let a = pm.alloc_frame().unwrap();
        let frames: Vec<Pfn> = (0..8).map(|_| pm.alloc_frame().unwrap()).collect();
        pm.dec_ref(a).unwrap();
        // pfn 8 — newest free, top of pool. The daemon scrubs
        // newest-first, so the frame the next alloc pops is the one
        // that got cleaned.
        pm.dec_ref(frames[7]).unwrap();
        assert_eq!(pm.scrub_one(), Some(Pfn(8)));
        let g = pm.alloc_frame_grant().unwrap();
        assert_eq!(g.pfn, Pfn(8));
        assert!(g.prezeroed);
    }

    #[test]
    fn reclaim_pass_scrubs_pooled_frames_once() {
        let mut pm = PhysMem::new(8);
        let pfns: Vec<Pfn> = (0..4).map(|_| pm.alloc_frame().unwrap()).collect();
        for p in &pfns {
            pm.write(*p, 0, &[0xcd; 8]).unwrap();
            pm.dec_ref(*p).unwrap();
        }
        // First pass scrubs all four parked frames; a second finds the
        // deferred-zero queue empty.
        assert_eq!(pm.reclaim_pass(), 4);
        assert_eq!(pm.reclaim_pass(), 0);
        // A Zeroed allocation of a pre-scrubbed frame reads zeros (the
        // scrub was real) — and an Uninit one does too, because reclaim
        // already erased the stale contents.
        let g = pm.alloc_frame_in(0, ZeroPolicy::Uninit).unwrap();
        assert!(g.recycled);
        let mut out = [0xffu8; 8];
        pm.read(g.pfn, 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 8]);
    }

    #[test]
    fn detach_attach_round_trip() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        pm.write(a, 0, b"payload").unwrap();
        let mut f = pm.detach_frame(a).unwrap();
        assert!(pm.frame(a).unwrap().is_detached());
        f.write(0, b"PAYLOAD");
        pm.attach_frame(a, f).unwrap();
        let mut out = [0u8; 7];
        pm.read(a, 0, &mut out).unwrap();
        assert_eq!(&out, b"PAYLOAD");
        assert_eq!(
            pm.detach_frame(Pfn(9)).unwrap_err(),
            MemError::BadFrame(Pfn(9))
        );
    }
}
