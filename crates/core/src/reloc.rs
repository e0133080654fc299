//! The relocation engine (paper §4.2).
//!
//! After a page is copied for a child μprocess, it is scanned for valid
//! capability tags. Each tagged capability whose target or bounds escape
//! the child's region is *relocated*: rebased by the distance between the
//! region it points into and the child's region, with bounds clamped to
//! the child's region. Capabilities pointing to no known μprocess region
//! (e.g. leaked kernel pointers) have their tag cleared — strictly safer
//! than leaving a stale reference.
//!
//! Two scan strategies are modelled ([`ScanMode`]):
//!
//! * **Naive** — the paper's sequential sweep: every 16-byte granule of
//!   the page is inspected individually (256 `granule_check`s of
//!   simulated time per page, regardless of how many tags are set).
//! * **TagSummary** (default) — the `CLoadTags` fast path: four bulk tag
//!   reads (64 granule tags per word) fetch the page's tag-occupancy
//!   bitmap, untagged pages are skipped outright, and on sparse pages the
//!   scan jumps directly to the set bits. This is the shortcut Morello
//!   hardware exposes and the CHERI VM-porting literature recommends over
//!   per-granule sweeps.
//!
//! Both strategies produce byte- and tag-identical frames; they differ
//! only in cost (simulated *and* host-side). The `naive` mode is kept as
//! an ablation so the benchmark harness can show both cost curves.
//!
//! Both scans hand each tagged capability to the same fix-up, which
//! works on one page's invariants computed once per pass: the child's
//! bounds and root, and a memo of the last source region resolved with
//! its rebase delta (`child_base - source_base`; the source may be the
//! parent or a retired ancestor). The memo is checked before the source
//! lookup is called, because capabilities within a page cluster (GOT
//! slots, stack frames, allocator metadata point near each other). It
//! lives for one pass only, never in the shared [`RegionIndex`]. Every
//! capability not already confined to the child counts one lookup in
//! [`RelocStats::lookups`], memo hits included, so both scans count
//! alike.
//!
//! Under the fast path the fix-ups are one in-place pass over the frame's
//! rank-indexed capability array ([`Frame::rewrite_caps`]): rebased
//! capabilities overwrite their slots and cleared ones are compacted
//! away as the pass goes, so relocating a page allocates nothing. The
//! naive sweep applies each fix-up as it meets the granule.

use ufork_cheri::Capability;
use ufork_exec::Ctx;
use ufork_mem::{Frame, Pfn, PhysMem, GRANULES_PER_PAGE, TAG_WORDS_PER_PAGE};
use ufork_sim::CostModel;
use ufork_vmem::{Region, VirtAddr};

use crate::region_index::RegionIndex;
use crate::Segment;

/// How `relocate_frame` discovers tagged granules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Sequential per-granule sweep (256 tag inspections per page).
    Naive,
    /// Bulk tag reads + jump-to-set-bits (the `CLoadTags` fast path).
    #[default]
    TagSummary,
}

/// Outcome of relocating one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelocStats {
    /// Granules individually inspected (256 under the naive sweep; the
    /// number of *tagged* granules under the tag-summary fast path).
    pub granules_scanned: u64,
    /// Granules skipped without inspection because a bulk tag read showed
    /// their tag clear (0 under the naive sweep).
    pub granules_skipped: u64,
    /// Bulk tag-summary words loaded (0 under the naive sweep; one per 64
    /// granules — 4 per page — under the fast path).
    pub tag_words_loaded: u64,
    /// Capabilities rebased into the child region.
    pub relocated: u64,
    /// Capabilities whose tag was cleared (target unknown).
    pub cleared: u64,
    /// Source-region lookups: one per tagged capability not already
    /// confined to the child, memo hits included (the same under both
    /// scans).
    pub lookups: u64,
}

impl RelocStats {
    /// Adds `other`'s work to this pass's.
    pub(crate) fn add(&mut self, other: &RelocStats) {
        self.granules_scanned += other.granules_scanned;
        self.granules_skipped += other.granules_skipped;
        self.tag_words_loaded += other.tag_words_loaded;
        self.relocated += other.relocated;
        self.cleared += other.cleared;
        self.lookups += other.lookups;
    }

    /// Folds this pass's work into the scan counters.
    pub(crate) fn count(&self, ctx: &mut Ctx) {
        ctx.counters.granules_scanned += self.granules_scanned;
        ctx.counters.granules_skipped += self.granules_skipped;
        ctx.counters.tag_words_loaded += self.tag_words_loaded;
        ctx.counters.caps_relocated += self.relocated + self.cleared;
        ctx.counters.region_lookups += self.lookups;
    }
}

/// Where relocation resolves a capability's source region.
pub(crate) enum SourceLookup<'a> {
    /// The incrementally maintained region index (fast path).
    Index(&'a RegionIndex),
    /// The [`ScanMode::Naive`] ablation's lookup: a region list rebuilt
    /// for this pass and scanned linearly, reproducing the pre-index
    /// host cost.
    Linear(Vec<Region>),
}

impl<'a> SourceLookup<'a> {
    /// The lookup `scan` pairs with: the index under the tag-summary
    /// scan, a freshly `rebuild`-ed linear list under the naive one.
    pub(crate) fn new(
        scan: ScanMode,
        index: &'a RegionIndex,
        rebuild: impl FnOnce() -> Vec<Region>,
    ) -> SourceLookup<'a> {
        match scan {
            ScanMode::TagSummary => SourceLookup::Index(index),
            ScanMode::Naive => SourceLookup::Linear(rebuild()),
        }
    }

    /// The region containing `addr`, if any.
    pub(crate) fn lookup(&self, addr: u64) -> Option<Region> {
        match self {
            SourceLookup::Index(index) => index.lookup(addr),
            SourceLookup::Linear(regions) => {
                regions.iter().find(|r| r.contains(VirtAddr(addr))).copied()
            }
        }
    }
}

/// Where a copied page's capabilities are relocated to: the child's
/// region and root, the source-region lookup, and the scan strategy.
pub(crate) struct RelocTarget<'a> {
    pub(crate) region: Region,
    pub(crate) root: &'a Capability,
    pub(crate) source: &'a SourceLookup<'a>,
    pub(crate) mode: ScanMode,
}

/// Relocates `frame` into `target`, charging the pass's simulated cost
/// to `ctx` and counting its scan work and region lookups.
pub(crate) fn relocate_counted(
    pm: &mut PhysMem,
    frame: Pfn,
    target: &RelocTarget<'_>,
    cost: &CostModel,
    ctx: &mut Ctx,
) {
    let stats = relocate_frame(
        pm,
        frame,
        target.region,
        target.root,
        &|addr| target.source.lookup(addr),
        target.mode,
    );
    ctx.kernel(reloc_cost(cost, &stats));
    stats.count(ctx);
}

/// Relocates every out-of-region capability in `frame` into `child`.
///
/// `source_of` maps an address to the region containing it (the parent's
/// region in the common case; an older ancestor's for pages shared across
/// multiple forks; `None` for addresses outside any μprocess region).
/// Regions must be disjoint: a capability whose base falls in the region
/// the previous lookup returned reuses that answer without a call.
///
/// Returns statistics; the caller charges simulated time from them via
/// [`reloc_cost`].
pub fn relocate_frame(
    pm: &mut PhysMem,
    frame: Pfn,
    child: Region,
    child_root: &Capability,
    source_of: &dyn Fn(u64) -> Option<Region>,
    mode: ScanMode,
) -> RelocStats {
    let f = pm.frame_mut(frame).expect("relocating an allocated frame");
    relocate_frame_in(f, child, child_root, source_of, mode)
}

/// [`relocate_frame`] on a directly borrowed (or detached) [`Frame`].
///
/// The parallel fork walk detaches destination frames from `PhysMem` and
/// relocates them on worker threads, where no `&mut PhysMem` exists; this
/// entry point is the common implementation both paths share.
pub fn relocate_frame_in(
    f: &mut Frame,
    child: Region,
    child_root: &Capability,
    source_of: &dyn Fn(u64) -> Option<Region>,
    mode: ScanMode,
) -> RelocStats {
    let mut pass = PagePass {
        child_base: child.base.0,
        child_len: child.len,
        child_root: *child_root,
        source_of,
        memo: SourceMemo::default(),
        stats: RelocStats::default(),
    };
    // The two modes genuinely differ in how they find the tagged
    // granules — this is what the host-side bench measures.
    match mode {
        ScanMode::Naive => {
            // The paper's sweep, performed for real: inspect every
            // granule's tag individually.
            pass.stats.granules_scanned = GRANULES_PER_PAGE;
            for g in 0..GRANULES_PER_PAGE {
                let off = g * ufork_mem::GRANULE_SIZE;
                let Some(cap) = f.load_cap(off) else {
                    continue;
                };
                match pass.fix_up(&cap) {
                    Some(new_cap) if new_cap != cap => f.store_cap(off, &new_cap),
                    Some(_) => {}
                    None => f.clear_tag(off),
                }
            }
        }
        ScanMode::TagSummary => {
            // Four CLoadTags-style bulk reads fetch the whole page's tag
            // occupancy; only set bits are then inspected individually.
            let words = f.tag_words();
            pass.stats.tag_words_loaded = TAG_WORDS_PER_PAGE as u64;
            let tagged: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            pass.stats.granules_scanned = tagged;
            pass.stats.granules_skipped = GRANULES_PER_PAGE - tagged;
            if tagged == 0 {
                return pass.stats; // untagged page: nothing to relocate
            }
            f.rewrite_caps(|_, cap| pass.fix_up(cap));
        }
    }
    pass.stats
}

/// The last source region a relocation pass resolved, with its rebase
/// delta into the pass's child. Lives for one pass (a page, or a fork's
/// register file), never in the shared [`RegionIndex`].
#[derive(Default)]
pub(crate) struct SourceMemo(Option<(Region, i64)>);

impl SourceMemo {
    /// The delta that rebases a capability based at `addr` into the child
    /// at `child_base`: the memo's if its region holds `addr`, otherwise
    /// from `source_of`'s region (remembered), or `None` for an unknown
    /// target.
    #[inline]
    pub(crate) fn delta(
        &mut self,
        addr: u64,
        child_base: u64,
        source_of: impl FnOnce(u64) -> Option<Region>,
    ) -> Option<i64> {
        if let Some((src, delta)) = self.0 {
            if src.contains(VirtAddr(addr)) {
                return Some(delta);
            }
        }
        let src = source_of(addr)?;
        let delta = child_base as i64 - src.base.0 as i64;
        self.0 = Some((src, delta));
        Some(delta)
    }
}

/// One page's relocation pass: the child's bounds and root, computed
/// once, and the source memo.
struct PagePass<'a> {
    child_base: u64,
    child_len: u64,
    child_root: Capability,
    source_of: &'a dyn Fn(u64) -> Option<Region>,
    memo: SourceMemo,
    stats: RelocStats,
}

impl PagePass<'_> {
    /// What relocation leaves in a granule holding `cap`: `cap` itself if
    /// it already points into the child, the rebased capability if its
    /// source region is known and the rebase succeeds, or `None` (tag
    /// cleared).
    #[inline]
    fn fix_up(&mut self, cap: &Capability) -> Option<Capability> {
        if cap.confined_to(self.child_base, self.child_len) {
            return Some(*cap); // already points into the child
        }
        self.stats.lookups += 1;
        let delta = self.memo.delta(cap.base(), self.child_base, self.source_of);
        // Unknown target (kernel or dead region), or a failed rebase:
        // clear the tag.
        let rebased = delta.and_then(|d| cap.rebase(d, &self.child_root).ok());
        match rebased {
            Some(_) => self.stats.relocated += 1,
            None => self.stats.cleared += 1,
        }
        rebased
    }
}

/// Simulated cost of a relocation pass with the given statistics.
///
/// `tags_load × words + granule_check × inspected + cap_relocate × fixed`:
/// under the naive sweep `words` is 0 and `inspected` is 256; under the
/// tag-summary fast path `words` is 4 and `inspected` is the tagged count.
pub fn reloc_cost(cost: &CostModel, stats: &RelocStats) -> f64 {
    cost.tags_load * stats.tag_words_loaded as f64
        + cost.granule_check * stats.granules_scanned as f64
        + cost.cap_relocate * (stats.relocated + stats.cleared) as f64
}

/// Whether fork must copy this segment *eagerly* (paper §3.5: allocator
/// metadata and GOT pages are proactively copied and updated during fork).
pub fn eager_at_fork(seg: Segment) -> bool {
    matches!(seg, Segment::Got | Segment::HeapMeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufork_cheri::Perms;
    use ufork_vmem::VirtAddr;

    fn region(base: u64, len: u64) -> Region {
        Region {
            base: VirtAddr(base),
            len,
        }
    }

    #[test]
    fn relocates_parent_caps_and_keeps_child_caps() {
        let mut pm = PhysMem::new(4);
        let f = pm.alloc_frame().unwrap();
        let parent = region(0x10_0000, 0x1_0000);
        let child = region(0x90_0000, 0x1_0000);
        let child_root = Capability::new_root(child.base.0, child.len, Perms::data());

        let stale = Capability::new_root(0x10_4000, 0x100, Perms::data());
        let fine = Capability::new_root(0x90_2000, 0x40, Perms::data());
        pm.store_cap(f, 0, &stale).unwrap();
        pm.store_cap(f, 16, &fine).unwrap();

        let src = |a: u64| {
            if a >= parent.base.0 && a < parent.base.0 + parent.len {
                Some(parent)
            } else {
                None
            }
        };
        let stats = relocate_frame(&mut pm, f, child, &child_root, &src, ScanMode::TagSummary);
        assert_eq!(stats.relocated, 1);
        assert_eq!(stats.cleared, 0);
        // Fast path: only the two tagged granules were inspected.
        assert_eq!(stats.granules_scanned, 2);
        assert_eq!(stats.granules_skipped, 254);
        assert_eq!(stats.tag_words_loaded, 4);

        let moved = pm.load_cap(f, 0).unwrap().unwrap();
        assert_eq!(moved.base(), 0x90_4000);
        assert!(moved.confined_to(child.base.0, child.len));
        assert_eq!(pm.load_cap(f, 16).unwrap().unwrap(), fine);
    }

    #[test]
    fn naive_mode_charges_full_sweep() {
        let mut pm = PhysMem::new(2);
        let f = pm.alloc_frame().unwrap();
        let parent = region(0x10_0000, 0x1_0000);
        let child = region(0x90_0000, 0x1_0000);
        let child_root = Capability::new_root(child.base.0, child.len, Perms::data());
        let stale = Capability::new_root(0x10_4000, 0x100, Perms::data());
        pm.store_cap(f, 0, &stale).unwrap();
        let stats = relocate_frame(
            &mut pm,
            f,
            child,
            &child_root,
            &|_| Some(parent),
            ScanMode::Naive,
        );
        assert_eq!(stats.granules_scanned, 256);
        assert_eq!(stats.granules_skipped, 0);
        assert_eq!(stats.tag_words_loaded, 0);
        assert_eq!(stats.relocated, 1);
    }

    #[test]
    fn untagged_page_is_skipped_entirely() {
        let mut pm = PhysMem::new(2);
        let f = pm.alloc_frame().unwrap();
        let child = region(0x90_0000, 0x1_0000);
        let child_root = Capability::new_root(child.base.0, child.len, Perms::data());
        let stats = relocate_frame(
            &mut pm,
            f,
            child,
            &child_root,
            &|_| panic!("no lookup on an untagged page"),
            ScanMode::TagSummary,
        );
        assert_eq!(stats.granules_scanned, 0);
        assert_eq!(stats.granules_skipped, 256);
        assert_eq!(stats.tag_words_loaded, 4);
        assert_eq!(stats.relocated + stats.cleared, 0);
    }

    #[test]
    fn unknown_targets_get_cleared() {
        let mut pm = PhysMem::new(2);
        let f = pm.alloc_frame().unwrap();
        let child = region(0x90_0000, 0x1_0000);
        let child_root = Capability::new_root(child.base.0, child.len, Perms::data());
        let kernel_ptr = Capability::new_root(0xffff_0000_0000, 0x1000, Perms::kernel());
        pm.store_cap(f, 32, &kernel_ptr).unwrap();
        let stats = relocate_frame(
            &mut pm,
            f,
            child,
            &child_root,
            &|_| None,
            ScanMode::TagSummary,
        );
        assert_eq!(stats.cleared, 1);
        assert_eq!(pm.load_cap(f, 32).unwrap(), None);
    }

    #[test]
    fn bounds_clamped_to_child_region() {
        let mut pm = PhysMem::new(2);
        let f = pm.alloc_frame().unwrap();
        let parent = region(0x10_0000, 0x1_0000);
        let child = region(0x90_0000, 0x8000); // smaller child region
        let child_root = Capability::new_root(child.base.0, child.len, Perms::data());
        // Cap spanning the whole parent region.
        let wide = Capability::new_root(parent.base.0, parent.len, Perms::data());
        pm.store_cap(f, 0, &wide).unwrap();
        relocate_frame(
            &mut pm,
            f,
            child,
            &child_root,
            &|_| Some(parent),
            ScanMode::TagSummary,
        );
        let moved = pm.load_cap(f, 0).unwrap().unwrap();
        assert!(moved.confined_to(child.base.0, child.len));
        assert_eq!(moved.top(), child.base.0 + child.len);
    }

    #[test]
    fn both_modes_produce_identical_frames() {
        let parent = region(0x10_0000, 0x1_0000);
        let child = region(0x90_0000, 0x1_0000);
        let child_root = Capability::new_root(child.base.0, child.len, Perms::data());
        let src = |a: u64| {
            if a >= parent.base.0 && a < parent.base.0 + parent.len {
                Some(parent)
            } else {
                None
            }
        };
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        for (i, g) in [3u64, 17, 64, 200].iter().enumerate() {
            let cap = Capability::new_root(parent.base.0 + (i as u64) * 0x100, 0x40, Perms::data());
            pm.store_cap(a, g * 16, &cap).unwrap();
        }
        pm.store_cap(
            a,
            100 * 16,
            &Capability::new_root(0xdead_0000, 8, Perms::data()),
        )
        .unwrap();
        pm.copy_frame(a, b).unwrap();

        let s_naive = relocate_frame(&mut pm, a, child, &child_root, &src, ScanMode::Naive);
        let s_fast = relocate_frame(&mut pm, b, child, &child_root, &src, ScanMode::TagSummary);
        assert_eq!(s_naive.relocated, s_fast.relocated);
        assert_eq!(s_naive.cleared, s_fast.cleared);
        let fa = pm.frame(a).unwrap();
        let fb = pm.frame(b).unwrap();
        assert_eq!(fa.data(), fb.data());
        assert_eq!(fa.tag_words(), fb.tag_words());
        assert_eq!(
            fa.tagged_granules().collect::<Vec<_>>(),
            fb.tagged_granules().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cost_accounts_scan_and_fixups() {
        let cost = CostModel::morello();
        // Naive: full sweep, no bulk reads.
        let naive = RelocStats {
            granules_scanned: 256,
            relocated: 3,
            cleared: 1,
            ..RelocStats::default()
        };
        let c = reloc_cost(&cost, &naive);
        assert!((c - (256.0 * cost.granule_check + 4.0 * cost.cap_relocate)).abs() < 1e-9);
        // Fast path: 4 bulk reads + 4 tagged inspections.
        let fast = RelocStats {
            granules_scanned: 4,
            granules_skipped: 252,
            tag_words_loaded: 4,
            relocated: 3,
            cleared: 1,
            lookups: 4,
        };
        let c = reloc_cost(&cost, &fast);
        let expect = 4.0 * cost.tags_load + 4.0 * cost.granule_check + 4.0 * cost.cap_relocate;
        assert!((c - expect).abs() < 1e-9);
        // The fast path is cheaper than the naive sweep on sparse pages…
        assert!(reloc_cost(&cost, &fast) < reloc_cost(&cost, &naive));
        // …and matches `CostModel::page_scan_summary` for the scan part.
        let scan_only = RelocStats {
            granules_scanned: 4,
            granules_skipped: 252,
            tag_words_loaded: 4,
            ..RelocStats::default()
        };
        assert!((reloc_cost(&cost, &scan_only) - cost.page_scan_summary(4)).abs() < 1e-9);
    }

    #[test]
    fn eager_segments() {
        assert!(eager_at_fork(Segment::Got));
        assert!(eager_at_fork(Segment::HeapMeta));
        assert!(!eager_at_fork(Segment::HeapArena));
        assert!(!eager_at_fork(Segment::Text));
        assert!(!eager_at_fork(Segment::Stack));
    }
}
