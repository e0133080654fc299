//! Differential property test of the relocation scan: the tag-summary
//! fast path must be observationally identical to the naive per-granule
//! sweep — same bytes, same tags, same capabilities, same fix-up and
//! lookup counts — for any frame population. Only the cost may differ.
//!
//! Runs on the in-repo `ufork-testkit` harness (offline; default-on
//! `props` feature).
#![cfg(feature = "props")]

use ufork::reloc::{relocate_frame, ScanMode};
use ufork_cheri::{Capability, Perms};
use ufork_mem::{PhysMem, GRANULES_PER_PAGE, GRANULE_SIZE, PAGE_SIZE};
use ufork_testkit::{forall, shrink_vec, PropConfig, Rng};
use ufork_vmem::{Region, VirtAddr};

const PARENT: Region = Region {
    base: VirtAddr(0x10_0000),
    len: 0x1_0000,
};
const ANCESTOR: Region = Region {
    base: VirtAddr(0x40_0000),
    len: 0x8000,
};
/// Abuts `PARENT` at `PARENT.top()`: a source memo that treated a
/// region's top as inclusive would resolve a capability based here to
/// `PARENT` and rebase it by the wrong delta.
const NEIGHBOUR: Region = Region {
    base: VirtAddr(0x11_0000),
    len: 0x1_0000,
};
const CHILD: Region = Region {
    base: VirtAddr(0x90_0000),
    len: 0x1_0000,
};
/// A child region shorter than `PARENT`: rebasing a capability from the
/// upper part of `PARENT` lands wholly past its top, so the rebase fails
/// and the tag is cleared.
const SHORT_CHILD: Region = Region {
    base: VirtAddr(0x90_0000),
    len: 0x2000,
};

/// One capability planted in the frame before relocation.
#[derive(Clone, Copy, Debug)]
struct Plant {
    granule: u8,
    /// Where the capability points: parent region (relocated), an older
    /// ancestor region or the parent's abutting neighbour (relocated with
    /// other deltas), the child region itself (left untouched), or
    /// nowhere known (tag cleared).
    target: Target,
    /// Offset within the target region (kept in-bounds by construction).
    offset: u16,
    len: u8,
}

#[derive(Clone, Copy, Debug)]
enum Target {
    Parent,
    Ancestor,
    Neighbour,
    Child,
    Unknown,
}

fn gen_target(rng: &mut Rng) -> Target {
    match rng.below(5) {
        0 => Target::Parent,
        1 => Target::Ancestor,
        2 => Target::Neighbour,
        3 => Target::Child,
        _ => Target::Unknown,
    }
}

/// Offsets cluster at the start of the target region half the time, so
/// neighbour capabilities sit right at `PARENT.top()`.
fn gen_plant(rng: &mut Rng, granule: u8) -> Plant {
    let offset = if rng.bool() {
        rng.below(0x40)
    } else {
        rng.next_u64()
    };
    Plant {
        granule,
        target: gen_target(rng),
        offset: offset as u16,
        len: rng.range(1, 128) as u8,
    }
}

/// One case: the planted capabilities, the plain-data writes over them,
/// and the child region the page is relocated into.
type Case = (Vec<Plant>, Vec<(u16, u8)>, Region);

/// A quarter of the pages are completely full, where the in-place
/// compaction of cleared capabilities has the most to move; the rest are
/// sparse (under 24 plants) or dense (up to 256 plants at random
/// granules), half each.
fn gen_case(rng: &mut Rng) -> Case {
    let plants = if rng.chance(1, 4) {
        (0..=255).map(|g| gen_plant(rng, g)).collect()
    } else {
        let n = if rng.bool() {
            rng.below(24)
        } else {
            rng.range(24, 257)
        };
        (0..n)
            .map(|_| {
                let g = rng.next_u64() as u8;
                gen_plant(rng, g)
            })
            .collect()
    };
    let writes = rng.below(8) as usize;
    let writes = (0..writes)
        .map(|_| {
            (
                (rng.next_u64() as u16) % (PAGE_SIZE as u16 - 64),
                rng.range(1, 64) as u8,
            )
        })
        .collect();
    let child = if rng.chance(1, 4) { SHORT_CHILD } else { CHILD };
    (plants, writes, child)
}

fn populate(pm: &mut PhysMem, f: ufork_mem::Pfn, plants: &[Plant], writes: &[(u16, u8)]) {
    for (off, len) in writes {
        pm.write(f, u64::from(*off), &vec![0xC3; usize::from(*len)])
            .unwrap();
    }
    for p in plants {
        let region = match p.target {
            Target::Parent => Some(PARENT),
            Target::Ancestor => Some(ANCESTOR),
            Target::Neighbour => Some(NEIGHBOUR),
            Target::Child => Some(CHILD),
            Target::Unknown => None,
        };
        let base = match region {
            Some(r) => r.base.0 + u64::from(p.offset) % r.len,
            None => 0xdead_0000 + u64::from(p.offset),
        };
        let cap = Capability::new_root(base, u64::from(p.len), Perms::data());
        let g = u64::from(p.granule) % GRANULES_PER_PAGE;
        pm.store_cap(f, g * GRANULE_SIZE, &cap).unwrap();
    }
}

fn source_of(addr: u64) -> Option<Region> {
    [PARENT, ANCESTOR, NEIGHBOUR]
        .into_iter()
        .find(|r| r.contains(VirtAddr(addr)))
}

#[test]
fn naive_and_tag_summary_scans_are_observationally_identical() {
    let cfg = PropConfig::from_env(192);
    forall(
        "naive_and_tag_summary_scans_are_observationally_identical",
        &cfg,
        gen_case,
        |case| {
            // Shrink by dropping planted caps; keep the writes and the
            // child fixed.
            shrink_vec(&case.0)
                .into_iter()
                .map(|plants| (plants, case.1.clone(), case.2))
                .collect()
        },
        |(plants, writes, child)| differential(plants, writes, *child),
    );
}

/// What the relocation of one frame must produce, computed granule by
/// granule with a fresh lookup per capability: the surviving
/// `(offset, capability)` pairs, the `(relocated, cleared)` counts, and
/// the number of lookups (capabilities not already confined to `child`).
fn expected(
    before: &[(u64, Capability)],
    child: Region,
    root: &Capability,
) -> (Vec<(u64, Capability)>, (u64, u64), u64) {
    let (mut caps, mut fixed, mut lookups) = (Vec::new(), (0, 0), 0);
    for &(off, cap) in before {
        if cap.confined_to(child.base.0, child.len) {
            caps.push((off, cap));
            continue;
        }
        lookups += 1;
        let rebased = source_of(cap.base()).and_then(|src| {
            cap.rebase(child.base.0 as i64 - src.base.0 as i64, root)
                .ok()
        });
        match rebased {
            Some(r) => {
                caps.push((off, r));
                fixed.0 += 1;
            }
            None => fixed.1 += 1,
        }
    }
    (caps, fixed, lookups)
}

/// Relocates two copies of one populated frame into `child`, one per scan
/// mode, and checks that they land on identical frames with identical
/// fix-up and lookup counts, and that both match the capability-by-
/// capability reference.
fn differential(plants: &[Plant], writes: &[(u16, u8)], child: Region) -> Result<(), String> {
    let mut pm = PhysMem::new(4);
    let a = pm.alloc_frame().unwrap();
    let b = pm.alloc_frame().unwrap();
    populate(&mut pm, a, plants, writes);
    pm.copy_frame(a, b).unwrap();

    let root = Capability::new_root(child.base.0, child.len, Perms::data());
    let before: Vec<_> = pm.frame(a).unwrap().tagged_granules().collect();
    let (want_caps, want_fixed, want_lookups) = expected(&before, child, &root);
    let s_naive = relocate_frame(&mut pm, a, child, &root, &source_of, ScanMode::Naive);
    let s_fast = relocate_frame(&mut pm, b, child, &root, &source_of, ScanMode::TagSummary);

    for s in [&s_naive, &s_fast] {
        if (s.relocated, s.cleared) != want_fixed || s.lookups != want_lookups {
            return Err(format!(
                "counts {s:?}, reference (relocated, cleared) {want_fixed:?}, \
                 lookups {want_lookups}"
            ));
        }
    }
    // The modes must *search* differently…
    if s_naive.granules_scanned != GRANULES_PER_PAGE || s_naive.tag_words_loaded != 0 {
        return Err(format!(
            "naive sweep did not inspect every granule: {s_naive:?}"
        ));
    }
    if s_fast.granules_scanned + s_fast.granules_skipped != GRANULES_PER_PAGE {
        return Err(format!("fast path lost granules: {s_fast:?}"));
    }
    // …but land on identical frames.
    let fa = pm.frame(a).unwrap();
    let fb = pm.frame(b).unwrap();
    if fa.data() != fb.data() {
        return Err("frame bytes diverged".into());
    }
    if fa.tag_words() != fb.tag_words() {
        return Err(format!(
            "tag bitmaps diverged: {:?} vs {:?}",
            fa.tag_words(),
            fb.tag_words()
        ));
    }
    let ca: Vec<_> = fa.tagged_granules().collect();
    let cb: Vec<_> = fb.tagged_granules().collect();
    if ca != cb {
        return Err(format!("capability maps diverged: {ca:?} vs {cb:?}"));
    }
    if ca != want_caps {
        return Err(format!("capabilities {ca:?}, reference {want_caps:?}"));
    }
    // Every surviving capability must be confined to the child.
    for (off, cap) in &ca {
        if !cap.confined_to(child.base.0, child.len) {
            return Err(format!("cap at offset {off} escapes the child: {cap:?}"));
        }
    }
    Ok(())
}

/// A full page — every granule tagged, the five target kinds rotating so
/// each tag word holds parents, ancestors, neighbours, children and
/// unknowns side by side — relocates identically under both scans.
#[test]
fn full_page_of_mixed_targets_relocates_identically() {
    let targets = [
        Target::Parent,
        Target::Ancestor,
        Target::Neighbour,
        Target::Child,
        Target::Unknown,
    ];
    let plants: Vec<Plant> = (0..=255u8)
        .map(|g| Plant {
            granule: g,
            target: targets[usize::from(g) % 5],
            offset: u16::from(g) * 0x20,
            len: 0x10 + g % 64,
        })
        .collect();
    differential(&plants, &[], CHILD).unwrap();
}

/// A neighbour capability based exactly at `PARENT.top()`, right after a
/// parent capability, is rebased by the neighbour's delta, not by the
/// parent's the lookup just returned.
#[test]
fn capability_at_parent_top_resolves_to_the_neighbour() {
    let plants = [
        Plant {
            granule: 0,
            target: Target::Parent,
            offset: 0x100,
            len: 0x10,
        },
        Plant {
            granule: 1,
            target: Target::Neighbour,
            offset: 0,
            len: 0x10,
        },
    ];
    differential(&plants, &[], CHILD).unwrap();
}

/// Into a child shorter than the parent, capabilities from the parent's
/// upper part cannot be rebased: their tags are cleared and counted.
#[test]
fn short_child_clears_what_it_cannot_hold() {
    let plants: Vec<Plant> = (0..16u8)
        .map(|g| Plant {
            granule: g,
            target: Target::Parent,
            offset: u16::from(g) * 0x1000,
            len: 0x10,
        })
        .collect();
    differential(&plants, &[], SHORT_CHILD).unwrap();
    let mut pm = PhysMem::new(2);
    let f = pm.alloc_frame().unwrap();
    populate(&mut pm, f, &plants, &[]);
    let root = Capability::new_root(SHORT_CHILD.base.0, SHORT_CHILD.len, Perms::data());
    let stats = relocate_frame(
        &mut pm,
        f,
        SHORT_CHILD,
        &root,
        &source_of,
        ScanMode::TagSummary,
    );
    // Offsets 0x0000 and 0x1000 fit the 0x2000-byte child, and 0x2000
    // lands on its top as an empty capability; the other 13 miss it.
    assert_eq!((stats.relocated, stats.cleared, stats.lookups), (3, 13, 16));
}
