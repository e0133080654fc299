//! Differential property test of the relocation scan: the tag-summary
//! fast path must be observationally identical to the naive per-granule
//! sweep — same bytes, same tags, same capabilities, same fix-up counts —
//! for any frame population. Only the cost may differ.
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
const CHILD: Region = Region {
    base: VirtAddr(0x90_0000),
    len: 0x1_0000,
};

/// One capability planted in the frame before relocation.
#[derive(Clone, Copy, Debug)]
struct Plant {
    granule: u8,
    /// Where the capability points: parent region (relocated), an older
    /// ancestor region (relocated with a different delta), the child
    /// region itself (left untouched), or nowhere known (tag cleared).
    target: Target,
    /// Offset within the target region (kept in-bounds by construction).
    offset: u16,
    len: u8,
}

#[derive(Clone, Copy, Debug)]
enum Target {
    Parent,
    Ancestor,
    Child,
    Unknown,
}

fn gen_target(rng: &mut Rng) -> Target {
    match rng.below(4) {
        0 => Target::Parent,
        1 => Target::Ancestor,
        2 => Target::Child,
        _ => Target::Unknown,
    }
}

fn gen_plant(rng: &mut Rng, granule: u8) -> Plant {
    Plant {
        granule,
        target: gen_target(rng),
        offset: (rng.next_u64() % 0x4000) as u16,
        len: rng.range(1, 128) as u8,
    }
}

/// A quarter of the pages are completely full, where the in-place
/// compaction of cleared capabilities has the most to move; the rest are
/// sparse (under 24 plants) or dense (up to 256 plants at random
/// granules), half each.
fn gen_case(rng: &mut Rng) -> (Vec<Plant>, Vec<(u16, u8)>) {
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
    (plants, writes)
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
    [PARENT, ANCESTOR]
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
            // Shrink by dropping planted caps; keep the writes fixed.
            shrink_vec(&case.0)
                .into_iter()
                .map(|plants| (plants, case.1.clone()))
                .collect()
        },
        |(plants, writes)| differential(plants, writes),
    );
}

/// Relocates two copies of one populated frame, one per scan mode, and
/// checks that they land on identical frames with identical fix-up counts.
fn differential(plants: &[Plant], writes: &[(u16, u8)]) -> Result<(), String> {
    let mut pm = PhysMem::new(4);
    let a = pm.alloc_frame().unwrap();
    let b = pm.alloc_frame().unwrap();
    populate(&mut pm, a, plants, writes);
    pm.copy_frame(a, b).unwrap();

    let root = Capability::new_root(CHILD.base.0, CHILD.len, Perms::data());
    let s_naive = relocate_frame(&mut pm, a, CHILD, &root, &source_of, ScanMode::Naive);
    let s_fast = relocate_frame(&mut pm, b, CHILD, &root, &source_of, ScanMode::TagSummary);

    if s_naive.relocated != s_fast.relocated || s_naive.cleared != s_fast.cleared {
        return Err(format!(
            "fix-up counts diverged: naive {s_naive:?}, fast {s_fast:?}"
        ));
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
    // Every surviving capability must be confined to the child.
    for (off, cap) in &ca {
        if !cap.confined_to(CHILD.base.0, CHILD.len) {
            return Err(format!("cap at offset {off} escapes the child: {cap:?}"));
        }
    }
    Ok(())
}

/// A full page — every granule tagged, the four target kinds rotating so
/// each tag word holds parents, ancestors, children and unknowns side by
/// side — relocates identically under both scans.
#[test]
fn full_page_of_mixed_targets_relocates_identically() {
    let targets = [
        Target::Parent,
        Target::Ancestor,
        Target::Child,
        Target::Unknown,
    ];
    let plants: Vec<Plant> = (0..=255u8)
        .map(|g| Plant {
            granule: g,
            target: targets[usize::from(g) % 4],
            offset: u16::from(g) * 0x20,
            len: 0x10 + g % 64,
        })
        .collect();
    differential(&plants, &[]).unwrap();
}
