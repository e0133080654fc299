//! Page tables and PTE flags.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use ufork_mem::Pfn;

use crate::addr::{VirtAddr, Vpn};
use crate::fault::{AccessKind, Fault};

/// Page-table entry flags.
///
/// `READ`/`WRITE`/`EXEC` are the usual permissions. The remaining bits
/// drive the μFork copy strategies:
///
/// * `LC_FAULT` — the CHERI *fault on capability load* page-permission bit
///   (paper §4.2). Plain loads succeed; loading a **tagged** granule
///   faults, so the kernel can copy + relocate before a stale parent
///   capability reaches the child (CoPA).
/// * `COW` — software bit: page is shared, copy on first store.
/// * `COA` — software bit: page is shared and *inaccessible*; copy on any
///   access (CoA strategy).
/// * `DIRTY` — software soft-dirty bit: set by the kernel's fault handler
///   on the first write fault after a fork-generation stamp, cleared by
///   the next stamp. Together with [`Pte::gen`] it lets repeated forks
///   copy only pages written since the previous fork (`O(dirty)` snapshot
///   trains) instead of the whole address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PteFlags(u8);

impl PteFlags {
    /// Loads permitted.
    pub const READ: PteFlags = PteFlags(1 << 0);
    /// Stores permitted.
    pub const WRITE: PteFlags = PteFlags(1 << 1);
    /// Instruction fetch permitted.
    pub const EXEC: PteFlags = PteFlags(1 << 2);
    /// Fault on loading a tagged (capability) granule.
    pub const LC_FAULT: PteFlags = PteFlags(1 << 3);
    /// Copy-on-write (software).
    pub const COW: PteFlags = PteFlags(1 << 4);
    /// Copy-on-access (software): all accesses fault.
    pub const COA: PteFlags = PteFlags(1 << 5);
    /// Soft-dirty (software): written since the last generation stamp.
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// Shared-memory mapping (software): fork refcount-shares the frame
    /// instead of copying or arming CoW/CoA, and writes never dirty-copy.
    pub const SHARED: PteFlags = PteFlags(1 << 7);

    /// No flags.
    pub const fn empty() -> PteFlags {
        PteFlags(0)
    }

    /// Read + write.
    pub const fn rw() -> PteFlags {
        PteFlags(PteFlags::READ.0 | PteFlags::WRITE.0)
    }

    /// Read + exec.
    pub const fn rx() -> PteFlags {
        PteFlags(PteFlags::READ.0 | PteFlags::EXEC.0)
    }

    /// Read only.
    pub const fn ro() -> PteFlags {
        PteFlags::READ
    }

    /// True if every bit of `other` is set.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union.
    pub const fn with(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Difference (clears `other`'s bits).
    pub const fn without(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (PteFlags::READ, "R"),
            (PteFlags::WRITE, "W"),
            (PteFlags::EXEC, "X"),
            (PteFlags::LC_FAULT, "LC"),
            (PteFlags::COW, "CoW"),
            (PteFlags::COA, "CoA"),
            (PteFlags::DIRTY, "D"),
            (PteFlags::SHARED, "Sh"),
        ];
        write!(f, "[")?;
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        write!(f, "]")
    }
}

/// A page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Backing physical frame.
    pub pfn: Pfn,
    /// Permission and strategy flags.
    pub flags: PteFlags,
    /// Fork-generation stamp. `0` means "never stamped": every fresh
    /// mapping — [`PageTable::map`], fault-time remaps — starts at 0, so
    /// a page is *clean with respect to generation `g`* only when a stamp
    /// sweep explicitly set `gen == g` and nothing remapped it since.
    /// A dirty-scoped fork treats `gen != g || DIRTY` as dirty.
    pub gen: u32,
}

impl Pte {
    /// A fresh (never-stamped) entry.
    pub fn new(pfn: Pfn, flags: PteFlags) -> Pte {
        Pte { pfn, flags, gen: 0 }
    }

    /// Checks an access to `va` against this entry's permission and
    /// copy-strategy bits, returning the entry when it is allowed.
    ///
    /// `tagged` reports whether a `CapLoad` access would actually read a
    /// tagged granule; the hardware only raises an `LC_FAULT` fault when
    /// the loaded granule's tag is set. Callers that don't know yet may
    /// pass `true` conservatively.
    pub fn check_access(self, va: VirtAddr, kind: AccessKind, tagged: bool) -> Result<Pte, Fault> {
        let f = self.flags;
        if f.contains(PteFlags::COA) {
            return Err(Fault::CoAccess { va, kind });
        }
        match kind {
            AccessKind::Load => {
                if !f.contains(PteFlags::READ) {
                    return Err(Fault::Protection { va, kind });
                }
            }
            AccessKind::CapLoad => {
                if !f.contains(PteFlags::READ) {
                    return Err(Fault::Protection { va, kind });
                }
                if f.contains(PteFlags::LC_FAULT) && tagged {
                    return Err(Fault::CapLoad { va });
                }
            }
            AccessKind::Store | AccessKind::CapStore => {
                if f.contains(PteFlags::COW) {
                    return Err(Fault::Cow { va });
                }
                if !f.contains(PteFlags::WRITE) {
                    return Err(Fault::Protection { va, kind });
                }
            }
            AccessKind::Fetch => {
                if !f.contains(PteFlags::EXEC) {
                    return Err(Fault::Protection { va, kind });
                }
            }
        }
        Ok(self)
    }
}

/// log2 of the pages per page-table leaf.
const LEAF_SHIFT: u32 = 6;
/// Pages per page-table leaf.
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;

/// Filler for unmapped leaf slots; never observable, since a slot is read
/// only when its `present` bit is set.
const VACANT: Pte = Pte {
    pfn: Pfn(0),
    flags: PteFlags::empty(),
    gen: 0,
};

/// The directory key of the leaf holding `vpn`.
fn leaf_key(vpn: Vpn) -> u64 {
    vpn.0 >> LEAF_SHIFT
}

/// The slot of `vpn` within its leaf.
fn leaf_slot(vpn: Vpn) -> usize {
    vpn.0 as usize & (LEAF_PAGES - 1)
}

/// The first page of leaf `key`.
fn leaf_base(key: u64) -> u64 {
    key << LEAF_SHIFT
}

/// The slots of leaf `key` whose pages lie in `[start, end)`.
fn window(key: u64, start: Vpn, end: Vpn) -> u64 {
    let base = leaf_base(key);
    let lo = start.0.saturating_sub(base).min(LEAF_PAGES as u64);
    let hi = end.0.saturating_sub(base).min(LEAF_PAGES as u64);
    if lo >= hi {
        return 0;
    }
    (u64::MAX >> (LEAF_PAGES as u64 - (hi - lo))) << lo
}

/// 64 consecutive PTEs and the bitmap of which of them are mapped.
struct Leaf {
    present: u64,
    ptes: [Pte; LEAF_PAGES],
}

impl Leaf {
    fn new() -> Box<Leaf> {
        Box::new(Leaf {
            present: 0,
            ptes: [VACANT; LEAF_PAGES],
        })
    }

    fn get(&self, slot: usize) -> Option<&Pte> {
        (self.present >> slot & 1 != 0).then(|| &self.ptes[slot])
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Pte> {
        (self.present >> slot & 1 != 0).then(|| &mut self.ptes[slot])
    }

    /// Stores `pte` in `slot`, returning the entry it replaced.
    fn put(&mut self, slot: usize, pte: Pte) -> Option<Pte> {
        let old = self.get(slot).copied();
        self.ptes[slot] = pte;
        self.present |= 1 << slot;
        old
    }

    /// The mapped entries among the slots in `mask`, ascending, each
    /// tagged with its page number given the leaf's directory `key`.
    fn entries(&self, key: u64, mask: u64) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        let mut bits = self.present & mask;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (Vpn(leaf_base(key) + slot as u64), self.ptes[slot])
            })
        })
    }
}

/// A page table: virtual page → [`Pte`].
///
/// μFork keeps exactly one (the single address space); the monolithic
/// baseline keeps one per process. Entries live in fixed 64-entry
/// leaves. A leaf's `present` bitmap is the only record of which of its
/// slots are mapped. A sparse ordered directory keyed by `vpn >> 6` holds
/// only the occupied leaves: an empty table allocates nothing, a leaf is
/// freed the moment its bitmap empties, and iteration runs in ascending
/// page order. Single-page operations are one directory probe and a bit
/// test. The batched ones ([`PageTable::extend_sorted`],
/// [`PageTable::protect_many`], [`PageTable::stamp_many`],
/// [`PageTable::unmap_range`]) probe once per leaf and then work on
/// contiguous slots, the way a radix MMU table is swept.
///
/// The leaf size follows the traffic. A μprocess region is its image plus
/// a 4 MiB shm window and a 16 MiB mmap window, which stay unmapped, so a
/// fork-storm child maps ~12 pages at the front of a ~20 MiB region and
/// owns a leaf of its own. A 64-entry leaf is 776 B. A 512-entry leaf,
/// the hardware's size, would be 6 KiB per live μprocess, ~180 MiB across
/// a 29k-child storm; fixed 512-way interior levels would add a 4 KiB
/// node per handful of regions. Translation *cost* is charged by the
/// simulation cost model, not by this host layout.
#[derive(Default)]
pub struct PageTable {
    leaves: BTreeMap<u64, Box<Leaf>>,
    len: usize,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps `vpn` to `pfn` with `flags`, replacing any existing mapping.
    /// The new entry's generation stamp is reset to 0 (never stamped), so
    /// remapped pages are conservatively dirty for dirty-scoped forks.
    ///
    /// Returns the previous entry if one existed.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn, flags: PteFlags) -> Option<Pte> {
        let leaf = self.leaves.entry(leaf_key(vpn)).or_insert_with(Leaf::new);
        let old = leaf.put(leaf_slot(vpn), Pte::new(pfn, flags));
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes the mapping for `vpn`.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let Entry::Occupied(mut e) = self.leaves.entry(leaf_key(vpn)) else {
            return None;
        };
        let slot = leaf_slot(vpn);
        let pte = *e.get().get(slot)?;
        e.get_mut().present &= !(1 << slot);
        if e.get().present == 0 {
            e.remove();
        }
        self.len -= 1;
        Some(pte)
    }

    /// Looks up the entry for `vpn`.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pte> {
        self.leaves
            .get(&leaf_key(vpn))?
            .get(leaf_slot(vpn))
            .copied()
    }

    /// Mutable access to the entry for `vpn`.
    pub fn lookup_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.leaves.get_mut(&leaf_key(vpn))?.get_mut(leaf_slot(vpn))
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates mappings with page numbers in `[start, end)`.
    pub fn range(&self, start: Vpn, end: Vpn) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        (start < end)
            .then(|| {
                self.leaves
                    .range(leaf_key(start)..=leaf_key(Vpn(end.0 - 1)))
            })
            .into_iter()
            .flatten()
            .flat_map(move |(&key, leaf)| leaf.entries(key, window(key, start, end)))
    }

    /// Bulk-inserts a batch of mappings, replacing any existing ones.
    ///
    /// The batch is typically produced in ascending page order (e.g. by
    /// walking [`PageTable::range`] of another region). Consecutive
    /// entries that fall in one leaf share a single directory probe, so a
    /// sorted batch costs one probe per 64 pages plus a slot store per
    /// page; the call is correct for any order. Returns the number of
    /// entries inserted. This is the batched half of the fork walk: the
    /// child's PTEs are staged in a `Vec` and land in the table in one
    /// sweep, instead of one `map` per page interleaved with frame copies.
    pub fn extend_sorted(&mut self, batch: impl IntoIterator<Item = (Vpn, Pte)>) -> u64 {
        let mut n = 0u64;
        let mut batch = batch.into_iter().peekable();
        while let Some((vpn, pte)) = batch.next() {
            let key = leaf_key(vpn);
            let leaf = self.leaves.entry(key).or_insert_with(Leaf::new);
            let run = std::iter::once((vpn, pte)).chain(std::iter::from_fn(|| {
                batch.next_if(|(v, _)| leaf_key(*v) == key)
            }));
            for (vpn, pte) in run {
                self.len += usize::from(leaf.put(leaf_slot(vpn), pte).is_none());
                n += 1;
            }
        }
        n
    }

    /// Maps `frames` to consecutive pages starting at `start`, all with
    /// `flags`. Returns the number of pages mapped.
    pub fn map_range(
        &mut self,
        start: Vpn,
        frames: impl IntoIterator<Item = Pfn>,
        flags: PteFlags,
    ) -> u64 {
        self.extend_sorted(
            frames
                .into_iter()
                .enumerate()
                .map(|(i, pfn)| (Vpn(start.0 + i as u64), Pte::new(pfn, flags))),
        )
    }

    /// Applies `f` to the entry of every listed page that is mapped and
    /// returns how many there were. Consecutive pages in one leaf share a
    /// directory probe.
    fn update_many(
        &mut self,
        vpns: impl IntoIterator<Item = Vpn>,
        mut f: impl FnMut(&mut Pte),
    ) -> u64 {
        let mut n = 0u64;
        let mut vpns = vpns.into_iter().peekable();
        while let Some(vpn) = vpns.next() {
            let key = leaf_key(vpn);
            let mut leaf = self.leaves.get_mut(&key);
            let run = std::iter::once(vpn)
                .chain(std::iter::from_fn(|| vpns.next_if(|v| leaf_key(*v) == key)));
            for vpn in run {
                if let Some(pte) = leaf.as_mut().and_then(|l| l.get_mut(leaf_slot(vpn))) {
                    f(pte);
                    n += 1;
                }
            }
        }
        n
    }

    /// Stamps every listed page that is mapped with generation `gen`,
    /// clearing its soft-dirty bit and — for writable pages — arming
    /// copy-on-write so the *next* store faults and re-dirties it.
    /// Returns the number of entries stamped. This is the batched
    /// generation sweep a dirty-tracking fork runs over the parent's
    /// pages; the caller journals the per-page pre-state for rollback.
    pub fn stamp_many(&mut self, vpns: impl IntoIterator<Item = Vpn>, gen: u32) -> u64 {
        self.update_many(vpns, |pte| {
            pte.gen = gen;
            pte.flags = pte.flags.without(PteFlags::DIRTY);
            if pte.flags.contains(PteFlags::WRITE) {
                pte.flags = pte.flags.with(PteFlags::COW);
            }
        })
    }

    /// Removes every mapping with page number in `[start, end)` and
    /// returns the removed entries in address order.
    ///
    /// One pass over the directory range: each leaf's slots in the span
    /// are read off its bitmap and cleared with a single mask, and a leaf
    /// left empty is freed in the same pass. Cost is O(log n) to find the
    /// first leaf plus O(1) per leaf and per removed page, independent of
    /// everything mapped outside the span, so tearing down one region of
    /// a 29k-process fork storm touches only that region's leaves.
    pub fn unmap_range(&mut self, start: Vpn, end: Vpn) -> Vec<(Vpn, Pte)> {
        let mut removed = Vec::new();
        if start >= end {
            return removed;
        }
        let keys = leaf_key(start)..=leaf_key(Vpn(end.0 - 1));
        self.leaves
            .extract_if(keys, |&key, leaf| {
                let mask = leaf.present & window(key, start, end);
                removed.extend(leaf.entries(key, mask));
                leaf.present &= !mask;
                leaf.present == 0
            })
            .for_each(drop);
        self.len -= removed.len();
        removed
    }

    /// ORs `add` into the flags of every listed page that is mapped.
    ///
    /// Returns the number of entries updated. This is the batched COW
    /// protection sweep fork uses on the parent's writable pages — one
    /// traversal instead of a `lookup_mut` per page.
    pub fn protect_many(&mut self, vpns: impl IntoIterator<Item = Vpn>, add: PteFlags) -> u64 {
        self.update_many(vpns, |pte| pte.flags = pte.flags.with(add))
    }

    /// Iterates all mappings in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.leaves
            .iter()
            .flat_map(|(&key, leaf)| leaf.entries(key, u64::MAX))
    }

    /// Number of allocated leaves.
    #[cfg(test)]
    fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Translates an access, enforcing PTE flags and copy-strategy bits:
    /// one [`PageTable::lookup`] and then [`Pte::check_access`] on the
    /// entry it found.
    ///
    /// On success returns the backing frame; the byte offset within it is
    /// `va.page_offset()`. Transparent faults ([`Fault::is_transparent`])
    /// must be resolved by the kernel's fault handler, after which the
    /// access is retried.
    pub fn translate(&self, va: VirtAddr, kind: AccessKind, tagged: bool) -> Result<Pte, Fault> {
        self.lookup(va.vpn())
            .ok_or(Fault::NotMapped { va })?
            .check_access(va, kind, tagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(x: u64) -> VirtAddr {
        VirtAddr(x)
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        assert_eq!(pt.map(Vpn(1), Pfn(7), PteFlags::rw()), None);
        assert_eq!(pt.lookup(Vpn(1)).unwrap().pfn, Pfn(7));
        assert_eq!(pt.len(), 1);
        let old = pt.map(Vpn(1), Pfn(8), PteFlags::ro()).unwrap();
        assert_eq!(old.pfn, Pfn(7));
        assert_eq!(pt.unmap(Vpn(1)).unwrap().pfn, Pfn(8));
        assert!(pt.lookup(Vpn(1)).is_none());
    }

    #[test]
    fn translate_basic_permissions() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), PteFlags::ro());
        assert!(pt.translate(va(0x1000), AccessKind::Load, false).is_ok());
        assert_eq!(
            pt.translate(va(0x1000), AccessKind::Store, false)
                .unwrap_err(),
            Fault::Protection {
                va: va(0x1000),
                kind: AccessKind::Store
            }
        );
        assert_eq!(
            pt.translate(va(0x1000), AccessKind::Fetch, false)
                .unwrap_err(),
            Fault::Protection {
                va: va(0x1000),
                kind: AccessKind::Fetch
            }
        );
        assert_eq!(
            pt.translate(va(0x5000), AccessKind::Load, false)
                .unwrap_err(),
            Fault::NotMapped { va: va(0x5000) }
        );
    }

    #[test]
    fn cow_faults_only_on_store() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), PteFlags::ro().with(PteFlags::COW));
        assert!(pt.translate(va(0x1000), AccessKind::Load, false).is_ok());
        assert_eq!(
            pt.translate(va(0x1008), AccessKind::Store, false)
                .unwrap_err(),
            Fault::Cow { va: va(0x1008) }
        );
        assert_eq!(
            pt.translate(va(0x1008), AccessKind::CapStore, false)
                .unwrap_err(),
            Fault::Cow { va: va(0x1008) }
        );
    }

    #[test]
    fn coa_faults_on_everything() {
        let mut pt = PageTable::new();
        pt.map(Vpn(2), Pfn(2), PteFlags::empty().with(PteFlags::COA));
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::CapLoad] {
            assert_eq!(
                pt.translate(va(0x2000), kind, false).unwrap_err(),
                Fault::CoAccess {
                    va: va(0x2000),
                    kind
                }
            );
        }
    }

    #[test]
    fn lc_fault_only_for_tagged_cap_loads() {
        let mut pt = PageTable::new();
        pt.map(Vpn(3), Pfn(3), PteFlags::ro().with(PteFlags::LC_FAULT));
        // Plain data load: fine.
        assert!(pt.translate(va(0x3000), AccessKind::Load, false).is_ok());
        // Capability load of an untagged granule: fine (reads data bytes).
        assert!(pt.translate(va(0x3000), AccessKind::CapLoad, false).is_ok());
        // Capability load of a tagged granule: faults.
        assert_eq!(
            pt.translate(va(0x3000), AccessKind::CapLoad, true)
                .unwrap_err(),
            Fault::CapLoad { va: va(0x3000) }
        );
    }

    #[test]
    fn range_iteration() {
        let mut pt = PageTable::new();
        for i in 0..10 {
            pt.map(Vpn(i), Pfn(i as u32), PteFlags::rw());
        }
        let got: Vec<u64> = pt.range(Vpn(3), Vpn(6)).map(|(v, _)| v.0).collect();
        assert_eq!(got, vec![3, 4, 5]);
        assert_eq!(pt.iter().count(), 10);
    }

    #[test]
    fn extend_sorted_inserts_batch() {
        let mut pt = PageTable::new();
        pt.map(Vpn(5), Pfn(99), PteFlags::ro()); // will be replaced
        let batch = (3..8).map(|i| (Vpn(i), Pte::new(Pfn(i as u32), PteFlags::rw())));
        assert_eq!(pt.extend_sorted(batch), 5);
        assert_eq!(pt.len(), 5);
        assert_eq!(pt.lookup(Vpn(5)).unwrap().pfn, Pfn(5));
        assert_eq!(pt.lookup(Vpn(5)).unwrap().flags, PteFlags::rw());
    }

    #[test]
    fn map_range_consecutive_pages() {
        let mut pt = PageTable::new();
        let n = pt.map_range(Vpn(10), [Pfn(1), Pfn(2), Pfn(3)], PteFlags::rx());
        assert_eq!(n, 3);
        assert_eq!(pt.lookup(Vpn(10)).unwrap().pfn, Pfn(1));
        assert_eq!(pt.lookup(Vpn(12)).unwrap().pfn, Pfn(3));
        assert!(pt.lookup(Vpn(13)).is_none());
    }

    #[test]
    fn unmap_range_removes_and_returns_span() {
        let mut pt = PageTable::new();
        for i in 0..10 {
            pt.map(Vpn(i), Pfn(i as u32), PteFlags::rw());
        }
        let removed = pt.unmap_range(Vpn(3), Vpn(7));
        assert_eq!(
            removed.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        assert_eq!(pt.len(), 6);
        assert!(pt.lookup(Vpn(3)).is_none());
        assert!(pt.lookup(Vpn(2)).is_some());
        assert!(pt.lookup(Vpn(7)).is_some());
        // Empty and inverted ranges are no-ops.
        assert!(pt.unmap_range(Vpn(20), Vpn(30)).is_empty());
        assert!(pt.unmap_range(Vpn(5), Vpn(5)).is_empty());
        assert_eq!(pt.len(), 6);
    }

    #[test]
    fn leaf_is_776_bytes() {
        // The size the layout's storm-RSS argument is made with.
        assert_eq!(std::mem::size_of::<Leaf>(), 776);
    }

    #[test]
    fn emptied_leaves_are_freed() {
        let mut pt = PageTable::new();
        assert_eq!(pt.leaf_count(), 0);
        // A region straddling three leaves, torn down page by page.
        pt.map_range(Vpn(60), (0..80).map(Pfn), PteFlags::rw());
        assert_eq!(pt.leaf_count(), 3);
        for v in 60..140 {
            assert!(pt.unmap(Vpn(v)).is_some());
        }
        assert_eq!(pt.leaf_count(), 0);
        assert!(pt.is_empty());
        // The same region torn down by range, in two pieces, beside a
        // neighbour whose leaf must survive.
        pt.map_range(Vpn(60), (0..80).map(Pfn), PteFlags::rw());
        pt.map(Vpn(1000), Pfn(9), PteFlags::rw());
        assert_eq!(pt.unmap_range(Vpn(60), Vpn(100)).len(), 40);
        assert_eq!(pt.leaf_count(), 3);
        assert_eq!(pt.unmap_range(Vpn(100), Vpn(140)).len(), 40);
        assert_eq!(pt.leaf_count(), 1);
        assert_eq!(pt.unmap(Vpn(1000)).unwrap().pfn, Pfn(9));
        assert_eq!(pt.leaf_count(), 0);
        assert!(pt.is_empty());
    }

    #[test]
    fn protect_many_ors_flags() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), PteFlags::rw());
        pt.map(Vpn(2), Pfn(2), PteFlags::ro());
        // Vpn(9) is unmapped: skipped, not counted.
        let n = pt.protect_many([Vpn(1), Vpn(2), Vpn(9)], PteFlags::COW);
        assert_eq!(n, 2);
        assert!(pt.lookup(Vpn(1)).unwrap().flags.contains(PteFlags::COW));
        assert!(pt.lookup(Vpn(2)).unwrap().flags.contains(PteFlags::COW));
        assert!(pt.lookup(Vpn(2)).unwrap().flags.contains(PteFlags::READ));
    }

    #[test]
    fn map_resets_generation_stamp() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), PteFlags::rw());
        assert_eq!(pt.lookup(Vpn(1)).unwrap().gen, 0);
        assert_eq!(pt.stamp_many([Vpn(1)], 3), 1);
        assert_eq!(pt.lookup(Vpn(1)).unwrap().gen, 3);
        // A remap (fault resolution, mmap reuse) is conservatively dirty.
        pt.map(Vpn(1), Pfn(2), PteFlags::rw());
        assert_eq!(pt.lookup(Vpn(1)).unwrap().gen, 0);
    }

    #[test]
    fn stamp_many_clears_dirty_and_arms_cow_on_writable() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), PteFlags::rw().with(PteFlags::DIRTY));
        pt.map(Vpn(2), Pfn(2), PteFlags::ro()); // read-only: no COW needed
        pt.map(Vpn(3), Pfn(3), PteFlags::rw().with(PteFlags::COW)); // already armed
        assert_eq!(pt.stamp_many([Vpn(1), Vpn(2), Vpn(3), Vpn(9)], 7), 3);
        let p1 = pt.lookup(Vpn(1)).unwrap();
        assert_eq!(p1.gen, 7);
        assert!(!p1.flags.contains(PteFlags::DIRTY));
        assert!(p1.flags.contains(PteFlags::COW));
        let p2 = pt.lookup(Vpn(2)).unwrap();
        assert_eq!(p2.gen, 7);
        assert!(!p2.flags.contains(PteFlags::COW));
        assert!(pt.lookup(Vpn(3)).unwrap().flags.contains(PteFlags::COW));
    }

    #[test]
    fn dirty_bit_does_not_affect_translation() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), PteFlags::rw().with(PteFlags::DIRTY));
        assert!(pt.translate(va(0x1000), AccessKind::Load, false).is_ok());
        assert!(pt.translate(va(0x1000), AccessKind::Store, false).is_ok());
        assert_eq!(
            format!("{:?}", PteFlags::rw().with(PteFlags::DIRTY)),
            "[R,W,D]"
        );
    }

    #[test]
    fn extend_sorted_preserves_generation() {
        let mut pt = PageTable::new();
        let mut pte = Pte::new(Pfn(4), PteFlags::rw());
        pte.gen = 11;
        pt.extend_sorted([(Vpn(4), pte)]);
        assert_eq!(pt.lookup(Vpn(4)).unwrap().gen, 11);
    }

    #[test]
    fn flags_set_operations() {
        let f = PteFlags::rw().with(PteFlags::COW);
        assert!(f.contains(PteFlags::COW));
        let g = f.without(PteFlags::COW);
        assert!(!g.contains(PteFlags::COW));
        assert!(g.contains(PteFlags::WRITE));
        assert_eq!(format!("{:?}", PteFlags::rx()), "[R,X]");
    }
}
