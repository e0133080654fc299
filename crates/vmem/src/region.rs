//! Contiguous μprocess region allocation within the single address space.
//!
//! In a μFork system, "each μprocess is loaded in a contiguous area of the
//! virtual address space" (paper §3.7), so intra-address-space isolation
//! can use simple contiguous bounds. This module manages those areas with
//! a first-fit hole allocator, optional ASLR (randomizing the base offset
//! of each region, paper §3.7), and fragmentation accounting (paper §6).

use std::fmt;

use crate::addr::VirtAddr;

/// A contiguous region of the virtual address space.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte of the region.
    pub base: VirtAddr,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// One byte past the end.
    pub const fn top(&self) -> VirtAddr {
        VirtAddr(self.base.0 + self.len)
    }

    /// True if `va` lies within the region.
    #[inline]
    pub const fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.base.0 && va.0 < self.base.0 + self.len
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region[{:#x}..{:#x})", self.base.0, self.top().0)
    }
}

/// Errors from the region allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionError {
    /// No hole large enough for the request (possibly due to
    /// fragmentation: check [`RegionAllocator::largest_hole`] vs
    /// [`RegionAllocator::free_bytes`]).
    NoSpace { requested: u64 },
    /// Freed region does not match an allocation.
    BadFree(Region),
    /// Zero-length request.
    ZeroLength,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::NoSpace { requested } => {
                write!(f, "no contiguous hole of {requested:#x} bytes")
            }
            RegionError::BadFree(r) => write!(f, "bad free of {r:?}"),
            RegionError::ZeroLength => write!(f, "zero-length region request"),
        }
    }
}

impl std::error::Error for RegionError {}

/// First-fit allocator of contiguous regions with coalescing free.
///
/// Holes are kept sorted by base address. When ASLR is enabled
/// ([`RegionAllocator::set_aslr_seed`]), allocation adds a random
/// page-aligned offset inside the chosen hole, randomizing each μprocess's
/// base address as sketched in paper §3.7.
pub struct RegionAllocator {
    span: Region,
    holes: Vec<Region>,
    aslr: Option<u64>, // xorshift state
    align: u64,
}

impl RegionAllocator {
    /// Manages `[base, base+len)` with the given allocation alignment.
    pub fn new(base: VirtAddr, len: u64, align: u64) -> RegionAllocator {
        assert!(align.is_power_of_two());
        RegionAllocator {
            span: Region { base, len },
            holes: vec![Region { base, len }],
            aslr: None,
            align,
        }
    }

    /// Enables ASLR with the given seed (deterministic for tests).
    pub fn set_aslr_seed(&mut self, seed: u64) {
        // splitmix64 finalizer so that nearby seeds diverge.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.aslr = Some((z ^ (z >> 31)) | 1);
    }

    /// Disables ASLR.
    pub fn disable_aslr(&mut self) {
        self.aslr = None;
    }

    /// The full span managed by this allocator.
    pub fn span(&self) -> Region {
        self.span
    }

    /// Total free bytes across all holes.
    pub fn free_bytes(&self) -> u64 {
        self.holes.iter().map(|h| h.len).sum()
    }

    /// Size of the largest hole (0 when full).
    pub fn largest_hole(&self) -> u64 {
        self.holes.iter().map(|h| h.len).max().unwrap_or(0)
    }

    /// External fragmentation: `1 - largest_hole / free_bytes` (0 when
    /// free space is one hole; → 1 as free space shatters).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            0.0
        } else {
            1.0 - self.largest_hole() as f64 / free as f64
        }
    }

    /// Allocates a region of at least `len` bytes.
    pub fn alloc(&mut self, len: u64) -> Result<Region, RegionError> {
        if len == 0 {
            return Err(RegionError::ZeroLength);
        }
        let len = len.div_ceil(self.align) * self.align;
        let idx = self
            .holes
            .iter()
            .position(|h| h.len >= len)
            .ok_or(RegionError::NoSpace { requested: len })?;
        let hole = self.holes[idx];
        // ASLR: slide the allocation within the hole by a random multiple
        // of the alignment.
        let slack = (hole.len - len) / self.align;
        let offset = match (&mut self.aslr, slack) {
            (Some(state), s) if s > 0 => {
                // xorshift64*
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (s + 1)) * self.align
            }
            _ => 0,
        };
        let region = Region {
            base: VirtAddr(hole.base.0 + offset),
            len,
        };
        // Replace the hole with up to two remainder holes.
        self.holes.remove(idx);
        let before = Region {
            base: hole.base,
            len: offset,
        };
        let after = Region {
            base: region.top(),
            len: hole.top().0 - region.top().0,
        };
        let mut insert_at = idx;
        if before.len > 0 {
            self.holes.insert(insert_at, before);
            insert_at += 1;
        }
        if after.len > 0 {
            self.holes.insert(insert_at, after);
        }
        Ok(region)
    }

    /// Frees a previously allocated region, coalescing adjacent holes.
    ///
    /// Rejects a region that is empty, leaves the span, or overlaps a
    /// hole (a double or partial free). Holes are sorted and pairwise
    /// disjoint, so only the holes on either side of the region's
    /// insertion point can overlap it: the check costs O(log holes).
    pub fn free(&mut self, region: Region) -> Result<(), RegionError> {
        let pos = self.holes.partition_point(|h| h.base.0 <= region.base.0);
        let overlaps = |h: &Region| region.base.0 < h.top().0 && h.base.0 < region.top().0;
        if region.len == 0
            || region.base.0 < self.span.base.0
            || region.top().0 > self.span.top().0
            || pos.checked_sub(1).is_some_and(|i| overlaps(&self.holes[i]))
            || self.holes.get(pos).is_some_and(overlaps)
        {
            return Err(RegionError::BadFree(region));
        }
        self.holes.insert(pos, region);
        // Coalesce around `pos`.
        if pos + 1 < self.holes.len() && self.holes[pos].top() == self.holes[pos + 1].base {
            self.holes[pos].len += self.holes[pos + 1].len;
            self.holes.remove(pos + 1);
        }
        if pos > 0 && self.holes[pos - 1].top() == self.holes[pos].base {
            self.holes[pos - 1].len += self.holes[pos].len;
            self.holes.remove(pos);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_at(a: &mut RegionAllocator, len: u64) -> Region {
        a.alloc(len).unwrap()
    }

    #[test]
    fn alloc_free_coalesce() {
        let mut a = RegionAllocator::new(VirtAddr(0x10000), 0x10000, 0x1000);
        let r1 = alloc_at(&mut a, 0x1000);
        let r2 = alloc_at(&mut a, 0x1000);
        let r3 = alloc_at(&mut a, 0x1000);
        assert_eq!(r1.top(), r2.base);
        assert_eq!(a.free_bytes(), 0x10000 - 0x3000);
        a.free(r2).unwrap();
        assert!(a.fragmentation() > 0.0);
        a.free(r1).unwrap();
        a.free(r3).unwrap();
        assert_eq!(a.free_bytes(), 0x10000);
        assert_eq!(a.largest_hole(), 0x10000);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn alignment_rounds_up() {
        let mut a = RegionAllocator::new(VirtAddr(0), 0x10000, 0x1000);
        let r = alloc_at(&mut a, 1);
        assert_eq!(r.len, 0x1000);
    }

    #[test]
    fn exhaustion_and_fragmentation() {
        let mut a = RegionAllocator::new(VirtAddr(0), 0x4000, 0x1000);
        let r1 = alloc_at(&mut a, 0x1000);
        let _r2 = alloc_at(&mut a, 0x1000);
        let r3 = alloc_at(&mut a, 0x1000);
        let _r4 = alloc_at(&mut a, 0x1000);
        a.free(r1).unwrap();
        a.free(r3).unwrap();
        // 2 pages free but no 2-page hole.
        assert_eq!(a.free_bytes(), 0x2000);
        assert_eq!(a.largest_hole(), 0x1000);
        assert!(matches!(a.alloc(0x2000), Err(RegionError::NoSpace { .. })));
        assert!((a.fragmentation() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bad_frees_rejected() {
        let mut a = RegionAllocator::new(VirtAddr(0x1000), 0x4000, 0x1000);
        let r = alloc_at(&mut a, 0x1000);
        // Double free.
        a.free(r).unwrap();
        assert!(a.free(r).is_err());
        // Out of span.
        assert!(a
            .free(Region {
                base: VirtAddr(0),
                len: 0x1000
            })
            .is_err());
    }

    #[test]
    fn aslr_randomizes_bases_but_stays_in_span() {
        let mut a = RegionAllocator::new(VirtAddr(0), 1 << 30, 0x1000);
        a.set_aslr_seed(42);
        let r1 = alloc_at(&mut a, 0x1000);
        let mut b = RegionAllocator::new(VirtAddr(0), 1 << 30, 0x1000);
        b.set_aslr_seed(43);
        let r2 = alloc_at(&mut b, 0x1000);
        assert_ne!(
            r1.base, r2.base,
            "different seeds should give different bases"
        );
        assert!(a.span().contains(r1.base));
        assert_eq!(r1.base.0 % 0x1000, 0);
        // Free works with ASLR-placed regions too.
        a.free(r1).unwrap();
        assert_eq!(a.free_bytes(), 1 << 30);
    }

    #[test]
    fn zero_len_rejected() {
        let mut a = RegionAllocator::new(VirtAddr(0), 0x1000, 0x1000);
        assert_eq!(a.alloc(0), Err(RegionError::ZeroLength));
    }

    #[test]
    fn region_contains() {
        let r = Region {
            base: VirtAddr(0x1000),
            len: 0x1000,
        };
        assert!(r.contains(VirtAddr(0x1000)));
        assert!(r.contains(VirtAddr(0x1fff)));
        assert!(!r.contains(VirtAddr(0x2000)));
        assert!(!r.contains(VirtAddr(0xfff)));
    }
}
