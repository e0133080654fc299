//! Indexed source-region lookup for relocation.
//!
//! Every capability the relocation scan fixes up needs to know *which*
//! μprocess region it points into (live parent, or the retired region of
//! an exited ancestor) to compute the rebase delta. The kernel used to
//! rebuild a `Vec<Region>` of all live + retired regions on every fork and
//! every resolved fault, then linear-scan it once per capability — O(procs
//! + retired) per lookup, rebuilt per page.
//!
//! [`RegionIndex`] replaces that with an incrementally-maintained ordered
//! map of non-overlapping regions keyed by base address: O(log n) insert,
//! remove and lookup, so the index's share of a fork or an exit grows
//! only logarithmically with the number of live μprocesses. Regions never
//! overlap by construction — the region allocator hands out disjoint
//! spans, and retired regions are never reused (paper §3.5: a forked
//! μprocess' region is kept after exit so relocation of still-shared
//! frames stays unambiguous) — so a single ordering serves live and
//! retired regions alike: the region containing an address, if any, is
//! the one with the greatest base at or below it.
//!
//! The index itself is a plain ordered map with no interior state, so
//! it is `Sync` and the parallel fork walk's worker lanes share it
//! directly. Clustering of capability targets within a page (GOT slots,
//! stack frames, allocator metadata all point near each other) is
//! exploited by the relocation pass's own memo (`crate::reloc`), and
//! lookups are counted there, in `RelocStats`.

use std::collections::BTreeMap;

use ufork_vmem::{Region, VirtAddr};

/// Ordered index of disjoint μprocess regions.
#[derive(Default)]
pub struct RegionIndex {
    /// Regions keyed by base address; pairwise disjoint.
    regions: BTreeMap<u64, Region>,
}

impl RegionIndex {
    /// Creates an empty index.
    pub fn new() -> RegionIndex {
        RegionIndex::default()
    }

    /// Number of indexed regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no region is indexed.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Inserts a region in O(log n).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the region overlaps an indexed one —
    /// that would make relocation lookups ambiguous.
    pub fn insert(&mut self, region: Region) {
        let base = region.base.0;
        debug_assert!(
            self.regions
                .range(base..)
                .next()
                .is_none_or(|(_, next)| region.top() <= next.base),
            "region {region:?} overlaps {:?}",
            self.regions.range(base..).next()
        );
        debug_assert!(
            self.regions
                .range(..base)
                .next_back()
                .is_none_or(|(_, prev)| prev.top() <= region.base),
            "region {region:?} overlaps {:?}",
            self.regions.range(..base).next_back()
        );
        self.regions.insert(base, region);
    }

    /// Removes a region previously inserted (exact match on base), in
    /// O(log n).
    ///
    /// Returns whether it was present. Regions of exited μprocesses that
    /// forked are *not* removed — they stay as relocation sources.
    pub fn remove(&mut self, region: Region) -> bool {
        self.regions.remove(&region.base.0).is_some()
    }

    /// Finds the region containing `addr`, if any, in O(log n): the one
    /// with the greatest base at or below `addr`, if `addr` falls inside
    /// it.
    pub fn lookup(&self, addr: u64) -> Option<Region> {
        let (_, r) = self.regions.range(..=addr).next_back()?;
        r.contains(VirtAddr(addr)).then_some(*r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(base: u64, len: u64) -> Region {
        Region {
            base: VirtAddr(base),
            len,
        }
    }

    #[test]
    fn lookup_hits_the_containing_region() {
        let mut idx = RegionIndex::new();
        // Insert out of order; the index keeps itself sorted.
        idx.insert(region(0x30_0000, 0x1000));
        idx.insert(region(0x10_0000, 0x1000));
        idx.insert(region(0x20_0000, 0x1000));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.lookup(0x10_0000), Some(region(0x10_0000, 0x1000)));
        assert_eq!(idx.lookup(0x20_0fff), Some(region(0x20_0000, 0x1000)));
        assert_eq!(idx.lookup(0x30_0800), Some(region(0x30_0000, 0x1000)));
    }

    #[test]
    fn lookup_misses_gaps_and_ends() {
        let mut idx = RegionIndex::new();
        idx.insert(region(0x10_0000, 0x1000));
        idx.insert(region(0x30_0000, 0x1000));
        assert_eq!(idx.lookup(0x0f_ffff), None); // before everything
        assert_eq!(idx.lookup(0x10_1000), None); // one past the end
        assert_eq!(idx.lookup(0x20_0000), None); // in the gap
        assert_eq!(idx.lookup(0x40_0000), None); // after everything
        assert_eq!(RegionIndex::new().lookup(0x10_0000), None);
    }

    #[test]
    fn remove_unindexes_exact_region_only() {
        let mut idx = RegionIndex::new();
        let a = region(0x10_0000, 0x1000);
        let b = region(0x20_0000, 0x1000);
        idx.insert(a);
        idx.insert(b);
        assert!(idx.lookup(a.base.0).is_some());
        assert!(idx.remove(a));
        assert!(!idx.remove(a)); // already gone
        assert_eq!(idx.lookup(0x10_0000), None);
        assert_eq!(idx.lookup(0x20_0000), Some(b));
        assert_eq!(idx.len(), 1);
    }

    /// One step of the property test against the linear-scan reference.
    #[cfg(feature = "props")]
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert into slot `.0` (if free) a region at page offset and
        /// length drawn from `.1`.
        Insert(usize, u64),
        /// Remove the `.0`-th indexed region.
        Remove(usize),
        /// Remove a region that is not indexed (must report `false`).
        RemoveAbsent(usize),
        /// Look up an address of shape `.0` drawn from `.1`.
        Lookup(u8, u64),
        /// Look up inside the `.0`-th region, remove it, then look up the
        /// same address again.
        LookupRemoveLookup(usize, u64),
    }

    #[cfg(feature = "props")]
    #[test]
    fn agrees_with_linear_scan_reference() {
        use ufork_testkit::{forall, shrink_vec, PropConfig};

        // Regions live in fixed slots so they stay disjoint; a region
        // may fill its slot and abut its neighbours.
        const LO: u64 = 0x10_0000;
        const SLOT: u64 = 0x1_0000;
        const SLOTS: usize = 48;
        const PAGE: u64 = 0x1000;

        forall(
            "region_index_agrees_with_linear_scan_reference",
            &PropConfig::from_env(256),
            |rng| {
                let n = rng.range(1, 160) as usize;
                (0..n)
                    .map(|_| match rng.below(8) {
                        0..=2 => Op::Insert(rng.index(SLOTS), rng.next_u64()),
                        3 => Op::Remove(rng.index(64)),
                        4 => Op::RemoveAbsent(rng.index(64)),
                        5 => Op::LookupRemoveLookup(rng.index(64), rng.next_u64()),
                        _ => Op::Lookup(rng.below(6) as u8, rng.next_u64()),
                    })
                    .collect::<Vec<_>>()
            },
            |ops| shrink_vec(ops),
            |ops| {
                let mut idx = RegionIndex::new();
                // Reference: unsorted, linear scan.
                let mut live: Vec<Region> = Vec::new();
                let mut gone: Vec<Region> = Vec::new();
                let scan = |live: &[Region], addr: u64| {
                    live.iter().copied().find(|r| r.contains(VirtAddr(addr)))
                };
                let check = |idx: &RegionIndex, live: &[Region], addr: u64| {
                    let (got, want) = (idx.lookup(addr), scan(live, addr));
                    if got != want {
                        return Err(format!("lookup({addr:#x}) = {got:?}, reference {want:?}"));
                    }
                    Ok(())
                };
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Insert(slot, r) => {
                            let slot_base = LO + slot as u64 * SLOT;
                            if live.iter().any(|l| l.base.0 / SLOT == slot_base / SLOT) {
                                continue;
                            }
                            let off = if r & 1 == 0 { 0 } else { (r >> 8) % 16 * PAGE };
                            let len = PAGE * (1 + (r >> 16) % ((SLOT - off) / PAGE));
                            let region = Region {
                                base: VirtAddr(slot_base + off),
                                len,
                            };
                            idx.insert(region);
                            live.push(region);
                        }
                        Op::Remove(i) if !live.is_empty() => {
                            let r = live.swap_remove(i % live.len());
                            if !idx.remove(r) {
                                return Err(format!("step {step}: remove({r:?}) missed"));
                            }
                            gone.push(r);
                        }
                        Op::RemoveAbsent(i) if !gone.is_empty() => {
                            let r = gone[i % gone.len()];
                            if !live.iter().any(|l| l.base == r.base) && idx.remove(r) {
                                return Err(format!("step {step}: absent {r:?} removed"));
                            }
                        }
                        Op::Lookup(shape, a) => {
                            let sorted = {
                                let mut v = live.clone();
                                v.sort_by_key(|r| r.base);
                                v
                            };
                            let pick = |a: u64| sorted[a as usize % sorted.len()];
                            let addr = match shape {
                                _ if sorted.is_empty() => a % (LO + 2 * SLOT * SLOTS as u64),
                                0 => {
                                    let r = pick(a);
                                    r.base.0 + (a >> 32) % r.len
                                }
                                1 => pick(a).top().0,
                                2 => pick(a).base.0 - 1,
                                3 => sorted[0].base.0 - 1 - (a >> 32) % PAGE,
                                4 => sorted[sorted.len() - 1].top().0 + (a >> 32) % SLOT,
                                _ => a % (LO + 2 * SLOT * SLOTS as u64),
                            };
                            check(&idx, &live, addr).map_err(|e| format!("step {step}: {e}"))?;
                        }
                        Op::LookupRemoveLookup(i, a) if !live.is_empty() => {
                            let r = live.swap_remove(i % live.len());
                            let addr = r.base.0 + a % r.len;
                            check(&idx, &[r], addr).map_err(|e| format!("step {step}: {e}"))?;
                            idx.remove(r);
                            gone.push(r);
                            check(&idx, &live, addr).map_err(|e| format!("step {step}: {e}"))?;
                        }
                        _ => {}
                    }
                    if idx.len() != live.len() {
                        return Err(format!(
                            "step {step}: len {} != reference {}",
                            idx.len(),
                            live.len()
                        ));
                    }
                }
                Ok(())
            },
        );
    }
}
