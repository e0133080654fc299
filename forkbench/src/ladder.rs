//! The host layer ladder: ns per call of the public primitives each
//! layer's hot path is built from, so a change in a workload's per-kind
//! host time can be traced to the layer that moved.

use std::hint::black_box;
use std::time::Instant;

use ufork::reloc::{relocate_frame, ScanMode};
use ufork_cheri::{Capability, Perms};
use ufork_mem::{PhysMem, GRANULES_PER_PAGE, GRANULE_SIZE};
use ufork_vmem::{PageTable, PteFlags, Region, VirtAddr, Vpn};

use crate::stats::median;

/// One rung of the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Metric name.
    pub name: &'static str,
    /// The workload whose host time this primitive explains.
    pub explains: &'static str,
    /// Host ns per call (or per page, for the page-range rungs).
    pub ns: f64,
}

/// Every rung, in the order [`run`] measures them: the metric name and
/// the workload whose host time the primitive explains.
pub const RUNGS: [(&str, &str); 10] = [
    ("ladder.cheri.with_addr_ns", "snapshot"),
    ("ladder.cheri.check_access_ns", "ringsvc"),
    ("ladder.mem.alloc_free_ns", "storm"),
    ("ladder.mem.copy_frame_ns", "faas"),
    ("ladder.mem.store_cap_ns", "snapshot"),
    ("ladder.vmem.map_range_ns_per_page", "faas"),
    ("ladder.vmem.protect_many_ns_per_page", "snapshot"),
    ("ladder.vmem.unmap_range_ns_per_page", "storm"),
    ("ladder.reloc.sparse_ns_per_page", "faas"),
    ("ladder.reloc.dense_ns_per_page", "snapshot"),
];

/// Pages per page-table batch.
const BATCH_PAGES: u64 = 64;
/// Timed batches per rung; the median batch is reported.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of the ns per unit of `f`, which returns the
/// host ns it spent on `units` units (setup it did outside its own
/// timer is excluded).
fn rung(units: f64, mut f: impl FnMut() -> f64) -> f64 {
    f(); // warm-up
    median(&(0..BATCHES).map(|_| f() / units).collect::<Vec<_>>())
}

/// Times `iters` calls of `op` as one interval.
fn loop_ns(iters: u32, mut op: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t.elapsed().as_nanos() as f64
}

/// Two disjoint regions with a root capability each, for relocation.
fn regions() -> [(Region, Capability); 2] {
    [0x10_0000u64, 0x90_0000].map(|base| {
        let region = Region {
            base: VirtAddr(base),
            len: 0x10_0000,
        };
        (
            region,
            Capability::new_root(base, region.len, Perms::data()),
        )
    })
}

/// Relocation ns per page for pages carrying `caps` capabilities. The
/// page is relocated back and forth between two regions, so every pass
/// rebases every capability.
fn reloc_rung(caps: u64) -> f64 {
    const ITERS: u32 = 2000;
    let roots = regions();
    let (a, b) = (roots[0].0, roots[1].0);
    let mut pm = PhysMem::new(4);
    let f = pm.alloc_frame().expect("frame");
    for i in 0..caps {
        let slot = i * (GRANULES_PER_PAGE / caps) * GRANULE_SIZE;
        let cap = Capability::new_root(a.base.0 + (i * 64) % a.len, 64, Perms::data());
        pm.store_cap(f, slot, &cap).expect("store cap");
    }
    let source_of = |addr: u64| {
        [a, b]
            .into_iter()
            .find(|r| addr >= r.base.0 && addr < r.base.0 + r.len)
    };
    let mut toward = 1;
    rung(f64::from(ITERS), || {
        loop_ns(ITERS, |_| {
            let (dst, root) = &roots[toward];
            black_box(relocate_frame(
                &mut pm,
                f,
                *dst,
                root,
                &source_of,
                ScanMode::TagSummary,
            ));
            toward ^= 1;
        })
    })
}

/// Page-table ns per page for `map_range`, `protect_many` and
/// `unmap_range` over 64-page batches.
fn page_table_rungs() -> [f64; 3] {
    const ROUNDS: u64 = 200;
    let mut pm = PhysMem::new(BATCH_PAGES as u32);
    let frames: Vec<_> = (0..BATCH_PAGES)
        .map(|_| pm.alloc_frame().expect("frame"))
        .collect();
    let mut pt = PageTable::new();
    // Background mappings, so the batches work in a populated table.
    pt.map_range(
        Vpn(1 << 20),
        frames.iter().copied().cycle().take(4096),
        PteFlags::rw(),
    );
    let mut batch = || {
        let mut spent = [0f64; 3];
        for r in 0..ROUNDS {
            let start = Vpn(r % 16 * BATCH_PAGES);
            let t = Instant::now();
            black_box(pt.map_range(start, frames.iter().copied(), PteFlags::rw()));
            spent[0] += t.elapsed().as_nanos() as f64;
            let vpns = (0..BATCH_PAGES).map(|i| Vpn(start.0 + i));
            let t = Instant::now();
            black_box(pt.protect_many(vpns, PteFlags::COW));
            spent[1] += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            black_box(pt.unmap_range(start, Vpn(start.0 + BATCH_PAGES)));
            spent[2] += t.elapsed().as_nanos() as f64;
        }
        spent.map(|ns| ns / (ROUNDS * BATCH_PAGES) as f64)
    };
    batch(); // warm-up
    let samples: Vec<[f64; 3]> = (0..BATCHES).map(|_| batch()).collect();
    [0, 1, 2].map(|i| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()))
}

/// Runs every rung (about half a second).
pub fn run() -> Vec<Rung> {
    const ITERS: u32 = 100_000;
    let root = Capability::new_root(0x10_0000, 0x100_0000, Perms::data());
    let with_addr = rung(f64::from(ITERS), || {
        loop_ns(ITERS, |i| {
            black_box(
                root.with_addr(black_box(0x10_0000 + u64::from(i) * 16))
                    .ok(),
            );
        })
    });
    let check_access = rung(f64::from(ITERS), || {
        loop_ns(ITERS, |i| {
            black_box(
                root.check_access(black_box(0x10_0000 + u64::from(i) * 16), 32, Perms::LOAD)
                    .ok(),
            );
        })
    });

    let mut pm = PhysMem::new(64);
    let alloc_free = rung(f64::from(ITERS), || {
        loop_ns(ITERS, |_| {
            let f = pm.alloc_frame().expect("frame");
            black_box(pm.dec_ref(f).ok());
        })
    });
    let (src, dst) = (
        pm.alloc_frame().expect("frame"),
        pm.alloc_frame().expect("frame"),
    );
    for g in (0..GRANULES_PER_PAGE).step_by(8) {
        pm.store_cap(src, g * GRANULE_SIZE, &root)
            .expect("store cap");
    }
    let copy_frame = rung(2000.0, || {
        loop_ns(2000, |_| {
            black_box(pm.copy_frame(src, dst).ok());
        })
    });
    let store_cap = rung(f64::from(ITERS), || {
        loop_ns(ITERS, |i| {
            let off = u64::from(i) % GRANULES_PER_PAGE * GRANULE_SIZE;
            black_box(pm.store_cap(dst, off, &root).ok());
        })
    });

    let [map, protect, unmap] = page_table_rungs();
    let ns = [
        with_addr,
        check_access,
        alloc_free,
        copy_frame,
        store_cap,
        map,
        protect,
        unmap,
        reloc_rung(4),
        reloc_rung(256),
    ];
    RUNGS
        .iter()
        .zip(ns)
        .map(|(&(name, explains), ns)| Rung { name, explains, ns })
        .collect()
}
