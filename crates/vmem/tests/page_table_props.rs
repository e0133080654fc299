//! Differential property test for the page table: random operation
//! sequences run against both `PageTable` and a `BTreeMap<Vpn, Pte>`
//! model, and every return value, `len`, the full ascending iteration
//! and a random `range` window must agree after every operation.
//!
//! VPNs are drawn both at leaf edges (slots 0, 1, 62, 63 of a 64-page
//! leaf) and under directory keys far apart, so runs cross leaves and
//! land in sparse parts of the directory.
//!
//! A second, exhaustive test checks translation: `translate` and
//! `lookup` + `Pte::check_access` against the access rules written out
//! here, for every flag combination, access kind and tag state.
//!
//! Runs on the in-repo `ufork-testkit` harness (offline; default-on
//! `props` feature). `PROP_CASES` / `PROP_SEED` override the defaults.
#![cfg(feature = "props")]

use std::collections::BTreeMap;

use ufork_mem::Pfn;
use ufork_testkit::{forall, shrink_vec, PropConfig, Rng};
use ufork_vmem::{AccessKind, Fault, PageTable, Pte, PteFlags, VirtAddr, Vpn};

fn cfg() -> PropConfig {
    PropConfig::from_env(256)
}

/// Pages per page-table leaf, as the layout under test uses it.
const LEAF: u64 = 64;

/// Directory keys: adjacent ones (runs cross from one into the next) and
/// far-apart ones (sparse directory).
const KEYS: [u64; 7] = [0, 1, 2, 3, 1000, 1 << 20, 1 << 40];

const FLAG_BITS: [PteFlags; 8] = [
    PteFlags::READ,
    PteFlags::WRITE,
    PteFlags::EXEC,
    PteFlags::LC_FAULT,
    PteFlags::COW,
    PteFlags::COA,
    PteFlags::DIRTY,
    PteFlags::SHARED,
];

fn flags(bits: u8) -> PteFlags {
    FLAG_BITS
        .iter()
        .enumerate()
        .filter(|(i, _)| bits >> i & 1 != 0)
        .fold(PteFlags::empty(), |f, (_, &bit)| f.with(bit))
}

fn pte(pfn: u32, bits: u8, gen: u32) -> Pte {
    Pte {
        pfn: Pfn(pfn),
        flags: flags(bits),
        gen,
    }
}

/// A VPN near a leaf edge or anywhere in a leaf, under one of `KEYS`.
fn gen_vpn(rng: &mut Rng) -> u64 {
    let key = *rng.pick(&KEYS);
    let slot = if rng.bool() {
        *rng.pick(&[0, 1, LEAF - 2, LEAF - 1])
    } else {
        rng.below(LEAF)
    };
    key * LEAF + slot
}

/// A range bound: `64k - 1`, `64k` or `64k + 1` for some directory key
/// `k`, or any VPN.
fn gen_bound(rng: &mut Rng) -> u64 {
    if rng.bool() {
        let edge = (*rng.pick(&KEYS) + rng.range(0, 2)) * LEAF;
        (edge + rng.below(3)).saturating_sub(1)
    } else {
        gen_vpn(rng)
    }
}

/// A `[start, end)` window: edge-aligned, empty, inverted or huge.
fn gen_window(rng: &mut Rng) -> (u64, u64) {
    match rng.below(8) {
        0 => {
            let v = gen_bound(rng);
            (v, v)
        }
        1 => {
            let (a, b) = (gen_bound(rng), gen_bound(rng));
            (a.max(b), a.min(b))
        }
        2 => (0, u64::MAX),
        3 => (gen_bound(rng), u64::MAX),
        _ => {
            let a = gen_bound(rng);
            (a, a + rng.range(1, 3 * LEAF))
        }
    }
}

/// A list of VPNs that mixes mapped and unmapped pages: a run that
/// crosses leaves, scattered picks and repeats.
fn gen_vpn_list(rng: &mut Rng) -> Vec<u64> {
    let start = gen_vpn(rng);
    let mut vpns: Vec<u64> = (start..start + rng.range(1, 2 * LEAF)).collect();
    for _ in 0..rng.below(8) {
        vpns.push(gen_vpn(rng));
    }
    if rng.bool() {
        vpns.sort_unstable();
    }
    vpns
}

#[derive(Clone, Debug)]
enum Op {
    Map(u64, u32, u8),
    Unmap(u64),
    /// Writes `(flags, gen)` through `lookup_mut`.
    LookupMut(u64, u8, u32),
    MapRange(u64, Vec<u32>, u8),
    /// `(vpn, pfn, flags, gen)` entries, possibly unsorted or repeated.
    Extend(Vec<(u64, u32, u8, u32)>),
    UnmapRange(u64, u64),
    Protect(Vec<u64>, u8),
    Stamp(Vec<u64>, u32),
}

/// One step: an operation, then a `range` window and a VPN to probe.
type Step = (Op, (u64, u64), u64);

fn gen_op(rng: &mut Rng) -> Op {
    match rng.below(8) {
        0 => Op::Map(gen_vpn(rng), rng.next_u64() as u32, rng.next_u64() as u8),
        1 => Op::Unmap(gen_vpn(rng)),
        2 => Op::LookupMut(gen_vpn(rng), rng.next_u64() as u8, rng.below(9) as u32),
        3 => {
            let n = rng.range(1, 2 * LEAF + 2);
            let pfns = (0..n).map(|_| rng.next_u64() as u32).collect();
            Op::MapRange(gen_vpn(rng), pfns, rng.next_u64() as u8)
        }
        4 => {
            let mut batch: Vec<(u64, u32, u8, u32)> = gen_vpn_list(rng)
                .into_iter()
                .map(|v| {
                    (
                        v,
                        rng.next_u64() as u32,
                        rng.next_u64() as u8,
                        rng.below(9) as u32,
                    )
                })
                .collect();
            if rng.bool() {
                let dup = batch[rng.index(batch.len())];
                batch.push((dup.0, dup.1 ^ 1, dup.2, dup.3));
            }
            Op::Extend(batch)
        }
        5 => {
            let (a, b) = gen_window(rng);
            Op::UnmapRange(a, b)
        }
        6 => Op::Protect(gen_vpn_list(rng), rng.next_u64() as u8),
        _ => Op::Stamp(gen_vpn_list(rng), rng.below(9) as u32),
    }
}

fn gen_steps(rng: &mut Rng) -> Vec<Step> {
    let n = rng.range(1, 48) as usize;
    (0..n)
        .map(|_| (gen_op(rng), gen_window(rng), gen_vpn(rng)))
        .collect()
}

type Model = BTreeMap<Vpn, Pte>;

fn model_range(m: &Model, start: u64, end: u64) -> Vec<(Vpn, Pte)> {
    if start >= end {
        return Vec::new();
    }
    m.range(Vpn(start)..Vpn(end))
        .map(|(v, p)| (*v, *p))
        .collect()
}

/// Applies `op` to both sides; `Err` if their return values differ.
fn apply(pt: &mut PageTable, m: &mut Model, op: &Op) -> Result<(), String> {
    let same = |what: &str, got: String, want: String| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: table {got}, model {want}"))
        }
    };
    match op {
        &Op::Map(v, pfn, bits) => {
            let want = m.insert(Vpn(v), pte(pfn, bits, 0));
            let got = pt.map(Vpn(v), Pfn(pfn), flags(bits));
            same("map", format!("{got:?}"), format!("{want:?}"))
        }
        &Op::Unmap(v) => {
            let want = m.remove(&Vpn(v));
            let got = pt.unmap(Vpn(v));
            same("unmap", format!("{got:?}"), format!("{want:?}"))
        }
        &Op::LookupMut(v, bits, gen) => {
            let write = |p: &mut Pte| {
                p.flags = flags(bits);
                p.gen = gen;
                *p
            };
            let want = m.get_mut(&Vpn(v)).map(write);
            let got = pt.lookup_mut(Vpn(v)).map(write);
            same("lookup_mut", format!("{got:?}"), format!("{want:?}"))
        }
        Op::MapRange(start, pfns, bits) => {
            for (i, &pfn) in pfns.iter().enumerate() {
                m.insert(Vpn(start + i as u64), pte(pfn, *bits, 0));
            }
            let got = pt.map_range(Vpn(*start), pfns.iter().map(|&p| Pfn(p)), flags(*bits));
            same("map_range", got.to_string(), pfns.len().to_string())
        }
        Op::Extend(batch) => {
            let batch: Vec<(Vpn, Pte)> = batch
                .iter()
                .map(|&(v, pfn, bits, gen)| (Vpn(v), pte(pfn, bits, gen)))
                .collect();
            m.extend(batch.iter().copied());
            let got = pt.extend_sorted(batch.iter().copied());
            same("extend_sorted", got.to_string(), batch.len().to_string())
        }
        &Op::UnmapRange(start, end) => {
            let want = model_range(m, start, end);
            for (v, _) in &want {
                m.remove(v);
            }
            let got = pt.unmap_range(Vpn(start), Vpn(end));
            same("unmap_range", format!("{got:?}"), format!("{want:?}"))
        }
        Op::Protect(vpns, bits) => {
            let add = flags(*bits);
            let mut want = 0;
            for v in vpns {
                if let Some(p) = m.get_mut(&Vpn(*v)) {
                    p.flags = p.flags.with(add);
                    want += 1;
                }
            }
            let got = pt.protect_many(vpns.iter().map(|&v| Vpn(v)), add);
            same("protect_many", got.to_string(), want.to_string())
        }
        Op::Stamp(vpns, gen) => {
            let mut want = 0;
            for v in vpns {
                if let Some(p) = m.get_mut(&Vpn(*v)) {
                    p.gen = *gen;
                    p.flags = p.flags.without(PteFlags::DIRTY);
                    if p.flags.contains(PteFlags::WRITE) {
                        p.flags = p.flags.with(PteFlags::COW);
                    }
                    want += 1;
                }
            }
            let got = pt.stamp_many(vpns.iter().map(|&v| Vpn(v)), *gen);
            same("stamp_many", got.to_string(), want.to_string())
        }
    }
}

/// Compares the observable state of both sides.
fn compare(pt: &PageTable, m: &Model, (start, end): (u64, u64), probe: u64) -> Result<(), String> {
    if pt.len() != m.len() || pt.is_empty() != m.is_empty() {
        return Err(format!("len: table {}, model {}", pt.len(), m.len()));
    }
    let got: Vec<(Vpn, Pte)> = pt.iter().collect();
    let want: Vec<(Vpn, Pte)> = m.iter().map(|(v, p)| (*v, *p)).collect();
    if got != want {
        return Err(format!("iter: table {got:?}, model {want:?}"));
    }
    let got: Vec<(Vpn, Pte)> = pt.range(Vpn(start), Vpn(end)).collect();
    let want = model_range(m, start, end);
    if got != want {
        return Err(format!(
            "range({start}, {end}): table {got:?}, model {want:?}"
        ));
    }
    for v in m.keys().copied().chain([Vpn(probe)]) {
        if pt.lookup(v) != m.get(&v).copied() {
            return Err(format!("lookup({v:?}) disagrees"));
        }
    }
    Ok(())
}

#[test]
fn page_table_matches_sorted_map_model() {
    forall(
        "page_table_matches_sorted_map_model",
        &cfg(),
        gen_steps,
        |steps| shrink_vec(steps),
        |steps| {
            let mut pt = PageTable::new();
            let mut m = Model::new();
            for (i, (op, window, probe)) in steps.iter().enumerate() {
                apply(&mut pt, &mut m, op)
                    .and_then(|()| compare(&pt, &m, *window, *probe))
                    .map_err(|e| format!("after step {i} {op:?}: {e}"))?;
            }
            Ok(())
        },
    );
}

/// The access rules of a page-table entry, written out independently of
/// the crate: copy-on-access faults first, whatever the access; then each
/// kind's own permission bit, where a capability load of a tagged granule
/// under `LC_FAULT` raises CoPA's fault and a store to a CoW page raises
/// CoW's before its permission is looked at.
fn expected_access(f: PteFlags, va: VirtAddr, kind: AccessKind, tagged: bool) -> Option<Fault> {
    let has = |bit| f.contains(bit);
    if has(PteFlags::COA) {
        return Some(Fault::CoAccess { va, kind });
    }
    let denied = Fault::Protection { va, kind };
    match kind {
        AccessKind::Load => (!has(PteFlags::READ)).then_some(denied),
        AccessKind::CapLoad if !has(PteFlags::READ) => Some(denied),
        AccessKind::CapLoad => (has(PteFlags::LC_FAULT) && tagged).then_some(Fault::CapLoad { va }),
        AccessKind::Store | AccessKind::CapStore if has(PteFlags::COW) => Some(Fault::Cow { va }),
        AccessKind::Store | AccessKind::CapStore => (!has(PteFlags::WRITE)).then_some(denied),
        AccessKind::Fetch => (!has(PteFlags::EXEC)).then_some(denied),
    }
}

/// `translate` and the access path's `lookup` + `check_access` give the
/// same answer as the written-out rules for every flag combination, every
/// access kind and both tag states, and `NotMapped` for unmapped pages.
#[test]
fn translate_is_lookup_then_check() {
    const KINDS: [AccessKind; 5] = [
        AccessKind::Load,
        AccessKind::Store,
        AccessKind::Fetch,
        AccessKind::CapLoad,
        AccessKind::CapStore,
    ];
    let mut pt = PageTable::new();
    for bits in 0..=u8::MAX {
        let vpn = Vpn(u64::from(bits) * 3);
        pt.map(vpn, Pfn(u32::from(bits)), flags(bits));
    }
    for bits in 0..=u8::MAX {
        let va = VirtAddr(u64::from(bits) * 3 * 4096 + 0x40);
        let entry = pt.lookup(va.vpn()).expect("mapped above");
        assert_eq!(entry.flags, flags(bits));
        for kind in KINDS {
            for tagged in [false, true] {
                let want = match expected_access(flags(bits), va, kind, tagged) {
                    Some(fault) => Err(fault),
                    None => Ok(entry),
                };
                let ctx = format!("{:?} {kind:?} tagged={tagged}", flags(bits));
                assert_eq!(pt.translate(va, kind, tagged), want, "translate, {ctx}");
                assert_eq!(entry.check_access(va, kind, tagged), want, "check, {ctx}");
            }
        }
    }
    // Unmapped: a neighbour of a mapped page, a page in an empty leaf and
    // one under a far directory key.
    for vpn in [1, 64 * 100, 1 << 40] {
        let va = VirtAddr(vpn * 4096 + 8);
        assert!(pt.lookup(va.vpn()).is_none());
        for kind in KINDS {
            for tagged in [false, true] {
                assert_eq!(pt.translate(va, kind, tagged), Err(Fault::NotMapped { va }));
            }
        }
    }
}
