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

/// A freed frame parked on the free stack. `zeroed` records whether a
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

/// How an allocation treats a recycled frame's old contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroPolicy {
    /// The caller reads the frame before fully writing it: a recycled
    /// frame must be zeroed (data and tags) at allocation time.
    Zeroed,
    /// The caller overwrites every byte and tag (a copy destination).
    /// Chosen and accounted exactly like `Zeroed`, a magazine hit
    /// included, so the caller charges the same scrub. Only the host
    /// work differs: a recycled frame no reclaim pass scrubbed loses its
    /// previous owner's capabilities and tags, but its data bytes are
    /// not zeroed. A frame freed before it was overwritten goes back to
    /// the free stack as not scrubbed, so the next `Zeroed` grant of it
    /// zeroes it.
    Overwrite,
    /// The caller overwrites the entire frame (e.g. a Full-copy fork
    /// destination): skip the scrub and charge none — the
    /// deferred-zeroing win.
    Uninit,
}

/// What [`PhysMem::alloc`] actually did, for cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocGrant {
    /// The allocated frame.
    pub pfn: Pfn,
    /// The frame came from the free stack rather than fresh memory.
    pub recycled: bool,
    /// The frame was recycled *and* the scrub was skipped
    /// ([`ZeroPolicy::Uninit`]): its old contents are garbage the caller
    /// has promised to overwrite.
    pub zeroing_skipped: bool,
    /// A `Zeroed` (or `Overwrite`) request was served from the
    /// clean-frame magazine: the frame was recycled but a background
    /// reclaim pass had already scrubbed it, so no zeroing was charged
    /// at grant time.
    pub prezeroed: bool,
}

/// Simulated physical memory: a bounded pool of refcounted, tagged frames.
///
/// Frames are lazily materialized — a `PhysMem` sized for a large machine
/// costs host memory only for frames actually allocated. Reference counts
/// support CoW-style sharing: a frame shared between N μprocesses has
/// `refcount == N` and contributes `1/N` to each one's proportional
/// resident set.
///
/// Freed frames land on one LIFO **free stack**, keeping their backing
/// storage so a later allocation can skip or defer the zeroing scrub
/// ([`ZeroPolicy`]). Allocation pops the most recent free (cache-warm)
/// before it breaks fresh memory, so the sequence of granted frames is a
/// pure function of the call sequence.
pub struct PhysMem {
    slots: Vec<Option<Slot>>,
    free: Vec<Pooled>,
    next_fresh: u32,
    total_frames: u32,
    allocated: u32,
    peak_allocated: u32,
    alloc_attempts: u64,
    fail_at_attempt: Option<u64>,
    copy_attempts: u64,
    fail_copy_at: Option<u64>,
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
}

impl PhysMem {
    /// Creates a physical memory of `total_frames` 4 KiB frames.
    pub fn new(total_frames: u32) -> PhysMem {
        let mut pm = PhysMem {
            slots: Vec::new(),
            free: Vec::new(),
            next_fresh: 0,
            total_frames,
            allocated: 0,
            peak_allocated: 0,
            alloc_attempts: 0,
            fail_at_attempt: None,
            copy_attempts: 0,
            fail_copy_at: None,
            reserved: 0,
            // Defaults scale with the machine: pressure turns Elevated
            // below 1/8 of capacity and Critical below 1/64 (clamped so
            // tiny test machines still have a non-degenerate band).
            low_watermark: (total_frames / 64).max(1),
            high_watermark: (total_frames / 8).max(2),
            level: PressureLevel::Normal,
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

    /// Frames not currently allocated (free stack + fresh memory).
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
    /// on the free stack (the deferred-zero queue), so subsequent
    /// [`ZeroPolicy::Zeroed`] allocations skip their scrub. Returns the
    /// number of frames scrubbed — `0` means the stack was already clean
    /// and retrying reclaim cannot help.
    ///
    /// Reclaim converts deferred work into done work; it cannot conjure
    /// capacity, so true exhaustion still surfaces as `OutOfFrames` after
    /// the caller's bounded retry loop.
    pub fn reclaim_pass(&mut self) -> u64 {
        let mut scrubbed = 0;
        for p in self.free.iter_mut().filter(|p| !p.zeroed) {
            p.frame.zero();
            p.zeroed = true;
            scrubbed += 1;
        }
        scrubbed
    }

    /// Free frames still awaiting a scrub (the deferred-zero queue the
    /// background reclaim daemon drains).
    pub fn pending_scrub(&self) -> u64 {
        self.free.iter().filter(|p| !p.zeroed).count() as u64
    }

    /// Pre-scrubbed free frames (the clean-frame magazine), ready to
    /// serve a [`ZeroPolicy::Zeroed`] allocation without an inline zero.
    pub fn magazine_depth(&self) -> u64 {
        self.free.iter().filter(|p| p.zeroed).count() as u64
    }

    /// Scrubs exactly one unzeroed free frame into the clean-frame
    /// magazine and returns its pfn, or `None` when the deferred-zero
    /// queue is empty. The background reclaim daemon's unit of work:
    /// bounded, journalable per frame, deterministic order (the *newest*
    /// unscrubbed free first, since that is the next frame an allocation
    /// will pop).
    pub fn scrub_one(&mut self) -> Option<Pfn> {
        let p = self.free.iter_mut().rev().find(|p| !p.zeroed)?;
        p.frame.zero();
        p.zeroed = true;
        Some(p.pfn)
    }

    /// Journal inverse of [`PhysMem::scrub_one`]: marks the free frame
    /// as not scrubbed again, so magazine accounting rolls back exactly.
    /// (The zeroed *contents* stay — a free frame's contents are
    /// unobservable until reallocation, and a `Zeroed` grant of an
    /// unmarked frame simply re-scrubs.) Returns `false` if `pfn` is not
    /// on the free stack in the scrubbed state.
    pub fn unscrub_frame(&mut self, pfn: Pfn) -> bool {
        match self.free.iter_mut().find(|p| p.pfn == pfn && p.zeroed) {
            Some(p) => {
                p.zeroed = false;
                true
            }
            None => false,
        }
    }

    /// Total allocation attempts so far (successful or not). A
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

    /// Allocates a zeroed frame with refcount 1: [`PhysMem::alloc`] with
    /// [`ZeroPolicy::Zeroed`], for callers that need only the pfn.
    pub fn alloc_frame(&mut self) -> Result<Pfn, MemError> {
        self.alloc(ZeroPolicy::Zeroed).map(|g| g.pfn)
    }

    /// Allocates a frame with refcount 1: the most recently freed frame
    /// if the free stack holds one, else fresh (never-used) memory.
    ///
    /// `zero` controls the recycled-frame scrub (see [`ZeroPolicy`]);
    /// fresh frames are zeroed by construction, so it only has an effect
    /// on recycled frames. Fault injection armed via
    /// [`PhysMem::fail_alloc_at`] counts every attempt.
    pub fn alloc(&mut self, zero: ZeroPolicy) -> Result<AllocGrant, MemError> {
        let attempt = self.alloc_attempts;
        self.alloc_attempts += 1;
        if self.fail_at_attempt == Some(attempt) {
            self.fail_at_attempt = None;
            return Err(MemError::OutOfFrames);
        }
        // `scrubbed` is `None` for fresh memory, else whether a reclaim
        // pass already zeroed the recycled frame.
        let (pfn, mut frame, scrubbed) = match self.free.pop() {
            Some(p) => (p.pfn, p.frame, Some(p.zeroed)),
            None if self.next_fresh < self.total_frames => {
                self.next_fresh += 1;
                (Pfn(self.next_fresh - 1), Frame::zeroed(), None)
            }
            None => return Err(MemError::OutOfFrames),
        };
        if scrubbed == Some(false) {
            match zero {
                ZeroPolicy::Zeroed => frame.zero(),
                ZeroPolicy::Overwrite => frame.drop_caps(),
                ZeroPolicy::Uninit => {}
            }
        }
        let idx = pfn.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(Slot { frame, refcount: 1 });
        self.allocated += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        self.recompute_pressure();
        Ok(AllocGrant {
            pfn,
            recycled: scrubbed.is_some(),
            zeroing_skipped: scrubbed.is_some() && zero == ZeroPolicy::Uninit,
            prezeroed: scrubbed == Some(true) && zero != ZeroPolicy::Uninit,
        })
    }

    /// Increments a frame's refcount (a new sharer, e.g. a CoW mapping).
    pub fn inc_ref(&mut self, pfn: Pfn) -> Result<u32, MemError> {
        let slot = self.slot_mut(pfn)?;
        slot.refcount += 1;
        Ok(slot.refcount)
    }

    /// Decrements a frame's refcount, freeing the frame when it hits zero.
    ///
    /// A freed frame moves (contents and all) to the top of the free
    /// stack; the scrub is deferred to reallocation time, where
    /// [`ZeroPolicy::Uninit`] callers can skip it entirely.
    ///
    /// Returns the remaining refcount.
    pub fn dec_ref(&mut self, pfn: Pfn) -> Result<u32, MemError> {
        let slot = self.slot_mut(pfn)?;
        slot.refcount -= 1;
        let remaining = slot.refcount;
        if remaining == 0 {
            let slot = self.slots[pfn.0 as usize].take().expect("checked above");
            self.free.push(Pooled {
                pfn,
                frame: slot.frame,
                zeroed: false,
            });
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
    fn alloc_drains_the_free_stack_before_fresh_memory() {
        let mut pm = PhysMem::new(64);
        let pfns: Vec<Pfn> = (0..12).map(|_| pm.alloc_frame().unwrap()).collect();
        for p in &pfns {
            pm.dec_ref(*p).unwrap();
        }
        // All 12 (cache-warm) frames are recycled, newest free first,
        // before fresh (cold) memory is touched.
        let recycled: Vec<u32> = (0..12).map(|_| pm.alloc_frame().unwrap().0).collect();
        assert_eq!(recycled, (0..12).rev().collect::<Vec<u32>>());
        // Only now does it break new ground.
        assert_eq!(pm.alloc_frame().unwrap(), Pfn(12));
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
        let g = pm.alloc(ZeroPolicy::Overwrite).unwrap();
        assert_eq!(g, twin.alloc(ZeroPolicy::Zeroed).unwrap());
        assert!(g.recycled && !g.prezeroed && !g.zeroing_skipped);
        let frame = pm.frame(g.pfn).unwrap();
        assert_eq!(frame.cap_count(), 0);
        assert_eq!(frame.caps_capacity(), 0);
        assert!(frame.check_tag_invariant());
        // The data bytes were left for the caller to overwrite.
        assert!(frame.data().iter().any(|&b| b != 0));

        // A copy into it fails: the frame goes back to the free stack as
        // not scrubbed, and the next `Zeroed` grant of it zeroes it.
        let src = pm.alloc_frame().unwrap();
        pm.fail_copy_at(pm.copy_attempts());
        assert!(pm.copy_frame(src, g.pfn).is_err());
        pm.dec_ref(g.pfn).unwrap();
        assert_eq!(pm.pending_scrub(), 1);
        let z = pm.alloc(ZeroPolicy::Zeroed).unwrap();
        assert_eq!(z.pfn, g.pfn);
        assert!(z.recycled && !z.prezeroed);
        assert!(pm.frame(z.pfn).unwrap().data().iter().all(|&b| b == 0));

        // The same allocations on the twin, then a frame a reclaim pass
        // scrubbed is a magazine hit for both.
        assert_eq!(twin.alloc_frame().unwrap(), src);
        twin.dec_ref(g.pfn).unwrap();
        assert_eq!(twin.alloc(ZeroPolicy::Zeroed).unwrap(), z);
        for m in [&mut pm, &mut twin] {
            m.dec_ref(z.pfn).unwrap();
            m.dec_ref(src).unwrap();
            m.reclaim_pass();
        }
        let a = pm.alloc(ZeroPolicy::Overwrite).unwrap();
        assert_eq!(a, twin.alloc(ZeroPolicy::Zeroed).unwrap());
        assert!(a.prezeroed);
    }

    #[test]
    fn uninit_recycled_frame_skips_the_scrub() {
        let mut pm = PhysMem::new(1);
        let a = pm.alloc_frame().unwrap();
        pm.write(a, 0, &[0xab; 4]).unwrap();
        pm.store_cap(a, 32, &cap()).unwrap();
        pm.dec_ref(a).unwrap();
        let g = pm.alloc(ZeroPolicy::Uninit).unwrap();
        assert_eq!(g.pfn, a);
        assert!(g.recycled && g.zeroing_skipped);
        // The stale contents survive — the caller promised to overwrite.
        let mut out = [0u8; 4];
        pm.read(g.pfn, 0, &mut out).unwrap();
        assert_eq!(out, [0xab; 4]);
        assert_eq!(pm.load_cap(g.pfn, 32).unwrap(), Some(cap()));
        // A fresh allocation is zeroed by construction and never reports
        // a skipped scrub.
        let mut pm2 = PhysMem::new(2);
        let g2 = pm2.alloc(ZeroPolicy::Uninit).unwrap();
        assert!(!g2.recycled && !g2.zeroing_skipped);
    }

    #[test]
    fn injection_counts_attempts_across_policies() {
        let mut pm = PhysMem::new(16);
        pm.fail_alloc_at(2);
        assert!(pm.alloc(ZeroPolicy::Zeroed).is_ok());
        assert!(pm.alloc(ZeroPolicy::Overwrite).is_ok());
        assert_eq!(
            pm.alloc(ZeroPolicy::Uninit).unwrap_err(),
            MemError::OutOfFrames
        );
        assert!(pm.alloc(ZeroPolicy::Zeroed).is_ok());
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
        let g = pm.alloc(ZeroPolicy::Zeroed).unwrap();
        assert!(g.recycled && g.prezeroed);
        let mut out = [0xffu8; 4];
        pm.read(g.pfn, 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 4]);
        // An unscrubbed recycled frame is zeroed inline, not a hit.
        pm.dec_ref(g.pfn).unwrap();
        let g2 = pm.alloc(ZeroPolicy::Zeroed).unwrap();
        assert!(g2.recycled && !g2.prezeroed);
    }

    #[test]
    fn scrub_one_targets_the_next_frame_an_alloc_would_pop() {
        // Two frames freed in order, the second the newest free: pfns
        // 0 and 8, and pfns 0 and 1 (which an allocator keyed by pfn
        // would park apart). The daemon scrubs newest-first, so the frame
        // the next alloc pops is the one that got cleaned.
        for [older, newer] in [[0, 8], [0, 1]] {
            let mut pm = PhysMem::new(16);
            for _ in 0..9 {
                pm.alloc_frame().unwrap();
            }
            pm.dec_ref(Pfn(older)).unwrap();
            pm.dec_ref(Pfn(newer)).unwrap();
            let scrubbed = pm.scrub_one().unwrap();
            let g = pm.alloc(ZeroPolicy::Zeroed).unwrap();
            assert_eq!(
                g.pfn, scrubbed,
                "scrubbed {scrubbed:?} but the allocation took {:?}",
                g.pfn
            );
            assert_eq!(g.pfn, Pfn(newer));
            assert!(g.prezeroed);
        }
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
        let g = pm.alloc(ZeroPolicy::Uninit).unwrap();
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
