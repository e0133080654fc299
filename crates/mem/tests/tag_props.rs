//! Property tests of the tagged-memory invariant μFork's relocation
//! depends on: a tag is set iff the last write to its granule was a
//! capability store, and data writes always clear overlapped tags.
//!
//! Runs on the in-repo `ufork-testkit` harness (offline; default-on
//! `props` feature).
#![cfg(feature = "props")]

use std::collections::BTreeSet;

use ufork_cheri::{Capability, Perms};
use ufork_mem::{Pfn, PhysMem, GRANULES_PER_PAGE, GRANULE_SIZE, PAGE_SIZE};
use ufork_testkit::{forall, no_shrink, shrink_vec, PropConfig, Rng};

fn cfg() -> PropConfig {
    PropConfig::from_env(256)
}

#[derive(Clone, Debug)]
enum Op {
    Write { off: u16, len: u8 },
    StoreCap { granule: u8 },
    ClearViaWrite { granule: u8 },
}

fn gen_ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.range(1, 80) as usize;
    (0..n)
        .map(|_| match rng.below(3) {
            0 => Op::Write {
                off: (rng.next_u64() as u16) % (PAGE_SIZE as u16 - 64),
                len: rng.range(1, 64) as u8,
            },
            1 => Op::StoreCap {
                granule: rng.next_u64() as u8,
            },
            _ => Op::ClearViaWrite {
                granule: rng.next_u64() as u8,
            },
        })
        .collect()
}

#[test]
fn tag_set_iff_last_writer_was_cap_store() {
    forall(
        "tag_set_iff_last_writer_was_cap_store",
        &cfg(),
        gen_ops,
        |ops| shrink_vec(ops),
        |ops| {
            let mut pm = PhysMem::new(2);
            let f = pm.alloc_frame().unwrap();
            // Shadow: which granules hold valid capabilities.
            let mut shadow = vec![false; GRANULES_PER_PAGE as usize];
            let cap = Capability::new_root(0x4000, 64, Perms::data());

            for op in ops {
                match op {
                    Op::Write { off, len } => {
                        let off = u64::from(*off);
                        let len = u64::from(*len);
                        pm.write(f, off, &vec![0xAA; len as usize]).unwrap();
                        let first = off / GRANULE_SIZE;
                        let last = (off + len - 1) / GRANULE_SIZE;
                        for g in first..=last {
                            shadow[g as usize] = false;
                        }
                    }
                    Op::StoreCap { granule } => {
                        let g = u64::from(*granule) % GRANULES_PER_PAGE;
                        pm.store_cap(f, g * GRANULE_SIZE, &cap).unwrap();
                        shadow[g as usize] = true;
                    }
                    Op::ClearViaWrite { granule } => {
                        let g = u64::from(*granule) % GRANULES_PER_PAGE;
                        pm.write(f, g * GRANULE_SIZE + 7, &[1]).unwrap();
                        shadow[g as usize] = false;
                    }
                }
                // Invariant: the frame's tag map equals the shadow.
                for (g, expect) in shadow.iter().enumerate() {
                    let got = pm.load_cap(f, g as u64 * GRANULE_SIZE).unwrap().is_some();
                    if got != *expect {
                        return Err(format!("granule {g}: tag {got}, shadow expects {expect}"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Copying a frame preserves both data and tags exactly.
#[test]
fn frame_copy_preserves_tags() {
    forall(
        "frame_copy_preserves_tags",
        &cfg(),
        |rng| {
            let n = rng.below(32);
            let mut granules = BTreeSet::new();
            for _ in 0..n {
                granules.insert(rng.below(GRANULES_PER_PAGE));
            }
            granules
        },
        no_shrink,
        |granules| {
            let mut pm = PhysMem::new(3);
            let a = pm.alloc_frame().unwrap();
            let b = pm.alloc_frame().unwrap();
            for &g in granules {
                let cap = Capability::new_root(0x8000 + g * 64, 64, Perms::data());
                pm.store_cap(a, g * GRANULE_SIZE, &cap).unwrap();
            }
            pm.copy_frame(a, b).unwrap();
            for g in 0..GRANULES_PER_PAGE {
                let src = pm.load_cap(a, g * GRANULE_SIZE).unwrap();
                let dst = pm.load_cap(b, g * GRANULE_SIZE).unwrap();
                if src != dst {
                    return Err(format!("granule {g}: copy diverged"));
                }
            }
            Ok(())
        },
    );
}

#[derive(Clone, Debug)]
enum BitmapOp {
    Write { off: u16, len: u8 },
    StoreCap { granule: u8 },
    ClearTag { granule: u8 },
    CopyFrom,
}

fn gen_bitmap_ops(rng: &mut Rng) -> Vec<BitmapOp> {
    let n = rng.range(1, 100) as usize;
    (0..n)
        .map(|_| match rng.below(4) {
            0 => BitmapOp::Write {
                off: (rng.next_u64() as u16) % (PAGE_SIZE as u16 - 64),
                len: rng.range(1, 64) as u8,
            },
            1 => BitmapOp::StoreCap {
                granule: rng.next_u64() as u8,
            },
            2 => BitmapOp::ClearTag {
                granule: rng.next_u64() as u8,
            },
            _ => BitmapOp::CopyFrom,
        })
        .collect()
}

/// The tag-occupancy bitmap (`tag_words`, the `CLoadTags` summary the
/// relocation fast path trusts) must agree with `load_cap` after
/// any interleaving of writes, cap stores, tag clears, and frame copies:
/// bit `g` set iff granule `g` holds a valid capability, and the popcount
/// equals `cap_count`.
#[test]
fn tag_bitmap_agrees_with_cap_map() {
    forall(
        "tag_bitmap_agrees_with_cap_map",
        &cfg(),
        gen_bitmap_ops,
        |ops| shrink_vec(ops),
        |ops| {
            let mut pm = PhysMem::new(3);
            let f = pm.alloc_frame().unwrap();
            // A donor frame with a fixed sparse cap population, for
            // exercising `copy_from`'s bitmap transfer.
            let donor = pm.alloc_frame().unwrap();
            for g in [5u64, 77, 130, 255] {
                let cap = Capability::new_root(0x6000 + g * 64, 64, Perms::data());
                pm.store_cap(donor, g * GRANULE_SIZE, &cap).unwrap();
            }
            let cap = Capability::new_root(0x4000, 64, Perms::data());

            for op in ops {
                match op {
                    BitmapOp::Write { off, len } => {
                        pm.write(f, u64::from(*off), &vec![0x55; usize::from(*len)])
                            .unwrap();
                    }
                    BitmapOp::StoreCap { granule } => {
                        let g = u64::from(*granule) % GRANULES_PER_PAGE;
                        pm.store_cap(f, g * GRANULE_SIZE, &cap).unwrap();
                    }
                    BitmapOp::ClearTag { granule } => {
                        let g = u64::from(*granule) % GRANULES_PER_PAGE;
                        pm.frame_mut(f).unwrap().clear_tag(g * GRANULE_SIZE);
                    }
                    BitmapOp::CopyFrom => {
                        pm.copy_frame(donor, f).unwrap();
                    }
                }
                let frame = pm.frame(f).unwrap();
                let words = frame.tag_words();
                for g in 0..GRANULES_PER_PAGE {
                    let bit = words[(g / 64) as usize] >> (g % 64) & 1 == 1;
                    let tagged = frame.load_cap(g * GRANULE_SIZE).is_some();
                    if bit != tagged {
                        return Err(format!(
                            "granule {g}: bitmap bit {bit}, load_cap says {tagged} after {op:?}"
                        ));
                    }
                }
                let popcount: u32 = words.iter().map(|w| w.count_ones()).sum();
                if popcount as usize != frame.cap_count() {
                    return Err(format!(
                        "popcount {popcount} != cap_count {} after {op:?}",
                        frame.cap_count()
                    ));
                }
                if !frame.check_tag_invariant() {
                    return Err(format!("check_tag_invariant failed after {op:?}"));
                }
            }
            Ok(())
        },
    );
}

#[derive(Clone, Debug)]
enum ExactOp {
    /// Plain-data write into frame `at`; long ones span tag words.
    Write {
        at: usize,
        off: u16,
        len: u16,
    },
    /// Stores a fresh capability at each of `n` granules from `granule`.
    StoreRun {
        at: usize,
        granule: u8,
        n: u8,
    },
    ClearTag {
        at: usize,
        granule: u8,
    },
    /// `copy_frame` from frame `from` into the other one.
    Copy {
        from: usize,
    },
    /// `rewrite_caps` on frame `at`: each tagged granule is kept, given a
    /// fresh capability or cleared, chosen by hashing it with `seed`.
    Rewrite {
        at: usize,
        seed: u64,
    },
    /// Frees frame `at` and allocates it again from the recycled pool.
    Recycle {
        at: usize,
    },
}

fn gen_exact_ops(rng: &mut Rng) -> Vec<ExactOp> {
    let n = rng.range(1, 160) as usize;
    (0..n)
        .map(|_| {
            let at = rng.index(2);
            match rng.below(12) {
                0..=2 => {
                    let len = if rng.bool() {
                        rng.range(1, 64)
                    } else {
                        rng.range(64, 2100)
                    };
                    ExactOp::Write {
                        at,
                        off: rng.below(PAGE_SIZE - len) as u16,
                        len: len as u16,
                    }
                }
                3..=6 => ExactOp::StoreRun {
                    at,
                    granule: rng.next_u64() as u8,
                    n: if rng.chance(1, 4) {
                        rng.range(1, 256) as u8
                    } else {
                        rng.range(1, 4) as u8
                    },
                },
                7 | 8 => ExactOp::ClearTag {
                    at,
                    granule: rng.next_u64() as u8,
                },
                9 => ExactOp::Copy { from: at },
                10 => ExactOp::Rewrite {
                    at,
                    seed: rng.next_u64(),
                },
                _ => ExactOp::Recycle { at },
            }
        })
        .collect()
}

/// A capability no earlier store in the run used.
fn fresh_cap(serial: &mut u64) -> Capability {
    *serial += 1;
    Capability::new_root(
        0x10_0000 + *serial * 0x40,
        0x20 + *serial % 32,
        Perms::data(),
    )
}

type Shadow = [Option<Capability>; GRANULES_PER_PAGE as usize];

/// `(byte_offset, capability)` of every tagged granule of `shadow`, in
/// address order.
fn listing(shadow: &Shadow) -> Vec<(u64, Capability)> {
    shadow
        .iter()
        .enumerate()
        .filter_map(|(g, c)| c.map(|c| (g as u64 * GRANULE_SIZE, c)))
        .collect()
}

/// Every granule of `pfn` holds exactly what `shadow` says, in value and
/// in address order, with a tagged granule's bytes showing its value.
fn check_exact(pm: &PhysMem, pfn: Pfn, shadow: &Shadow) -> Result<(), String> {
    let frame = pm.frame(pfn).unwrap();
    for (g, expect) in shadow.iter().enumerate() {
        let off = g as u64 * GRANULE_SIZE;
        let got = frame.load_cap(off);
        if got != *expect {
            return Err(format!("granule {g}: load_cap {got:?}, shadow {expect:?}"));
        }
        if let Some(cap) = expect {
            let mut bytes = [0u8; 16];
            frame.read(off, &mut bytes);
            if bytes != cap.to_bytes() {
                return Err(format!("granule {g}: bytes do not match its capability"));
            }
        }
    }
    let listed: Vec<_> = frame.tagged_granules().collect();
    let expect = listing(shadow);
    if listed != expect {
        return Err(format!("tagged_granules {listed:?}, shadow {expect:?}"));
    }
    if !frame.check_tag_invariant() {
        return Err("check_tag_invariant failed".into());
    }
    Ok(())
}

/// Value-exact tag storage: every store writes a distinct capability, so
/// a capability attached to the wrong granule — a rank off by one, a
/// write clearing one entry too few, a compaction that slips — shows up
/// as a wrong value, not just a wrong tag bit. Two frames take writes
/// (short and tag-word-spanning), overwriting stores, tag clears, copies
/// in both directions, in-place rewrites and free-then-realloc, and both
/// are checked against a per-granule shadow after every op.
#[test]
fn every_granule_holds_exactly_its_last_stored_capability() {
    forall(
        "every_granule_holds_exactly_its_last_stored_capability",
        &cfg(),
        gen_exact_ops,
        |ops| shrink_vec(ops),
        |ops| {
            let mut pm = PhysMem::new(2);
            let mut pfns = [pm.alloc_frame().unwrap(), pm.alloc_frame().unwrap()];
            let mut shadows: [Shadow; 2] = [[None; GRANULES_PER_PAGE as usize]; 2];
            let mut serial = 0;
            for op in ops {
                match *op {
                    ExactOp::Write { at, off, len } => {
                        let (off, len) = (u64::from(off), u64::from(len));
                        pm.write(pfns[at], off, &vec![0x5A; len as usize]).unwrap();
                        for g in off / GRANULE_SIZE..=(off + len - 1) / GRANULE_SIZE {
                            shadows[at][g as usize] = None;
                        }
                    }
                    ExactOp::StoreRun { at, granule, n } => {
                        for g in (u64::from(granule)..GRANULES_PER_PAGE).take(usize::from(n)) {
                            let cap = fresh_cap(&mut serial);
                            pm.store_cap(pfns[at], g * GRANULE_SIZE, &cap).unwrap();
                            shadows[at][g as usize] = Some(cap);
                        }
                    }
                    ExactOp::ClearTag { at, granule } => {
                        let off = u64::from(granule) * GRANULE_SIZE;
                        pm.frame_mut(pfns[at]).unwrap().clear_tag(off);
                        shadows[at][usize::from(granule)] = None;
                    }
                    ExactOp::Copy { from } => {
                        pm.copy_frame(pfns[from], pfns[1 - from]).unwrap();
                        shadows[1 - from] = shadows[from];
                    }
                    ExactOp::Rewrite { at, seed } => {
                        let before = shadows[at];
                        let mut visited = Vec::new();
                        pm.frame_mut(pfns[at]).unwrap().rewrite_caps(|off, cap| {
                            let g = (off / GRANULE_SIZE) as usize;
                            visited.push((off, *cap));
                            let fate = match (g as u64 ^ seed).wrapping_mul(0x9e37_79b9) >> 7 & 3 {
                                0 => None,
                                1 => Some(fresh_cap(&mut serial)),
                                _ => Some(*cap),
                            };
                            shadows[at][g] = fate;
                            fate
                        });
                        // The pass must show each tagged granule its own
                        // capability, in address order.
                        let expect = listing(&before);
                        if visited != expect {
                            return Err(format!(
                                "rewrite_caps visited {visited:?}, expected {expect:?}"
                            ));
                        }
                    }
                    ExactOp::Recycle { at } => {
                        pm.dec_ref(pfns[at]).unwrap();
                        pfns[at] = pm.alloc_frame().unwrap();
                        shadows[at] = [None; GRANULES_PER_PAGE as usize];
                    }
                }
                for at in 0..2 {
                    check_exact(&pm, pfns[at], &shadows[at])
                        .map_err(|e| format!("frame {at} after {op:?}: {e}"))?;
                }
            }
            Ok(())
        },
    );
}

/// Refcounts: after any sequence of inc/dec the frame is freed exactly
/// when the count hits zero, and never before.
#[test]
fn refcount_lifecycle() {
    forall(
        "refcount_lifecycle",
        &cfg(),
        |rng| rng.below(12) as u32,
        no_shrink,
        |&incs| {
            let mut pm = PhysMem::new(1);
            let f = pm.alloc_frame().unwrap();
            for _ in 0..incs {
                pm.inc_ref(f).unwrap();
            }
            for i in 0..incs {
                if pm.dec_ref(f).unwrap() != incs - i {
                    return Err(format!("dec_ref {i} returned wrong remaining count"));
                }
                if pm.refcount(f).is_err() {
                    return Err(format!("frame freed early at dec {i}"));
                }
            }
            if pm.dec_ref(f).unwrap() != 0 {
                return Err("final dec_ref did not report zero".into());
            }
            if pm.refcount(f).is_ok() {
                return Err("frame still allocated after final dec_ref".into());
            }
            if pm.allocated_frames() != 0 {
                return Err("allocated_frames nonzero after free".into());
            }
            Ok(())
        },
    );
}
