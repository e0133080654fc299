//! Property tests for the SAS region allocator: no two live regions ever
//! overlap, frees coalesce, and accounting stays consistent under
//! arbitrary alloc/free churn.
//!
//! Runs on the in-repo `ufork-testkit` harness (offline; default-on
//! `props` feature).
#![cfg(feature = "props")]

use ufork_testkit::{forall, no_shrink, shrink_vec, PropConfig, Rng};
use ufork_vmem::{Region, RegionAllocator, VirtAddr};

fn cfg() -> PropConfig {
    PropConfig::from_env(256)
}

#[derive(Clone, Debug)]
enum Op {
    Alloc(u64),
    Free(usize),
}

fn gen_ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.range(1, 64) as usize;
    (0..n)
        .map(|_| {
            if rng.bool() {
                Op::Alloc(rng.range(1, 0x8000))
            } else {
                Op::Free(rng.index(32))
            }
        })
        .collect()
}

fn overlapping(a: &Region, b: &Region) -> bool {
    a.base.0 < b.top().0 && b.base.0 < a.top().0
}

#[test]
fn live_regions_never_overlap() {
    forall(
        "live_regions_never_overlap",
        &cfg(),
        |rng| {
            let aslr = if rng.bool() {
                Some(rng.next_u64())
            } else {
                None
            };
            (gen_ops(rng), aslr)
        },
        |(ops, aslr)| shrink_vec(ops).into_iter().map(|o| (o, *aslr)).collect(),
        |(ops, aslr)| {
            let span = 0x40_0000;
            let mut a = RegionAllocator::new(VirtAddr(0x1000), span, 0x1000);
            if let Some(seed) = aslr {
                a.set_aslr_seed(*seed);
            }
            let mut live: Vec<Region> = Vec::new();
            for op in ops {
                match op {
                    Op::Alloc(len) => {
                        if let Ok(r) = a.alloc(*len) {
                            if r.base.0 < 0x1000 || r.top().0 > 0x1000 + span {
                                return Err(format!("{r:?} escapes the span"));
                            }
                            if r.base.0 % 0x1000 != 0 {
                                return Err(format!("{r:?} misaligned"));
                            }
                            for other in &live {
                                if overlapping(&r, other) {
                                    return Err(format!("{r:?} overlaps {other:?}"));
                                }
                            }
                            live.push(r);
                        }
                    }
                    Op::Free(idx) => {
                        if !live.is_empty() {
                            let r = live.remove(idx % live.len());
                            if a.free(r).is_err() {
                                return Err(format!("free of live {r:?} rejected"));
                            }
                        }
                    }
                }
                // Accounting: free bytes + live bytes == span.
                let live_bytes: u64 = live.iter().map(|r| r.len).sum();
                if a.free_bytes() + live_bytes != span {
                    return Err(format!(
                        "accounting drift: free {} + live {live_bytes} != span {span}",
                        a.free_bytes()
                    ));
                }
                // Fragmentation is a valid ratio.
                let f = a.fragmentation();
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("fragmentation {f} out of [0,1]"));
                }
            }
            // Freeing everything restores a single hole.
            for r in live.drain(..) {
                if a.free(r).is_err() {
                    return Err(format!("final free of {r:?} rejected"));
                }
            }
            if a.free_bytes() != span || a.largest_hole() != span {
                return Err("frees did not coalesce back to a single hole".into());
            }
            Ok(())
        },
    );
}

#[test]
fn double_free_always_rejected() {
    forall(
        "double_free_always_rejected",
        &cfg(),
        |rng| rng.range(1, 0x4000),
        no_shrink,
        |&len| {
            let mut a = RegionAllocator::new(VirtAddr(0), 0x10_0000, 0x1000);
            let r = a.alloc(len).unwrap();
            a.free(r).unwrap();
            if a.free(r).is_ok() {
                return Err(format!("double free of {r:?} accepted"));
            }
            Ok(())
        },
    );
}

/// Reference model of the allocator with the full-scan `free`: the same
/// first-fit `alloc` and ASLR draw, but a free is tested against every
/// hole for overlap and placed by a linear search. The allocator's
/// neighbour-only check must agree with it call for call.
struct FullScanModel {
    span: Region,
    holes: Vec<Region>,
    aslr: Option<u64>,
    align: u64,
}

impl FullScanModel {
    fn new(base: u64, len: u64, align: u64, aslr_seed: Option<u64>) -> FullScanModel {
        let span = Region {
            base: VirtAddr(base),
            len,
        };
        let aslr = aslr_seed.map(|seed| {
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) | 1
        });
        FullScanModel {
            span,
            holes: vec![span],
            aslr,
            align,
        }
    }

    fn free_bytes(&self) -> u64 {
        self.holes.iter().map(|h| h.len).sum()
    }

    fn largest_hole(&self) -> u64 {
        self.holes.iter().map(|h| h.len).max().unwrap_or(0)
    }

    fn alloc(&mut self, len: u64) -> Option<Region> {
        if len == 0 {
            return None;
        }
        let len = len.div_ceil(self.align) * self.align;
        let idx = self.holes.iter().position(|h| h.len >= len)?;
        let hole = self.holes.remove(idx);
        let slack = (hole.len - len) / self.align;
        let offset = match (&mut self.aslr, slack) {
            (Some(state), s) if s > 0 => {
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
        let rest = [
            Region {
                base: hole.base,
                len: offset,
            },
            Region {
                base: region.top(),
                len: hole.top().0 - region.top().0,
            },
        ];
        self.holes
            .splice(idx..idx, rest.into_iter().filter(|r| r.len > 0));
        Some(region)
    }

    fn free(&mut self, region: Region) -> bool {
        if region.len == 0
            || region.base.0 < self.span.base.0
            || region.top().0 > self.span.top().0
            || self.holes.iter().any(|h| overlapping(h, &region))
        {
            return false;
        }
        let pos = self
            .holes
            .iter()
            .position(|h| h.base.0 > region.base.0)
            .unwrap_or(self.holes.len());
        self.holes.insert(pos, region);
        if pos + 1 < self.holes.len() && self.holes[pos].top() == self.holes[pos + 1].base {
            self.holes[pos].len += self.holes[pos + 1].len;
            self.holes.remove(pos + 1);
        }
        if pos > 0 && self.holes[pos - 1].top() == self.holes[pos].base {
            self.holes[pos - 1].len += self.holes[pos].len;
            self.holes.remove(pos);
        }
        true
    }
}

/// A free the allocator must judge. Bad frees are shaped against the
/// model's current holes when the op runs; `a` and `b` pick the hole and
/// the offsets.
#[derive(Clone, Copy, Debug)]
enum FreeOp {
    /// A live region (always valid).
    Live(usize),
    /// A region freed earlier (a double free, unless it was handed out
    /// again since).
    Again(usize),
    /// A region entirely inside one hole.
    InsideHole(u64, u64),
    /// A region that starts before a hole and ends inside it.
    HoleHead(u64, u64),
    /// A region that starts inside a hole and ends past it.
    HoleTail(u64, u64),
    /// A region from inside one hole to inside the next.
    Straddle(u64, u64),
    /// A region at or crossing the span's ends.
    OutsideSpan(u64, u64),
}

impl FreeOp {
    /// Position of the variant in declaration order.
    fn kind(self) -> usize {
        match self {
            FreeOp::Live(_) => 0,
            FreeOp::Again(_) => 1,
            FreeOp::InsideHole(..) => 2,
            FreeOp::HoleHead(..) => 3,
            FreeOp::HoleTail(..) => 4,
            FreeOp::Straddle(..) => 5,
            FreeOp::OutsideSpan(..) => 6,
        }
    }
}

#[derive(Clone, Debug)]
enum ModelOp {
    Alloc(u64),
    Free(FreeOp),
}

fn gen_model_ops(rng: &mut Rng) -> Vec<ModelOp> {
    let n = rng.range(1, 96) as usize;
    (0..n)
        .map(|_| {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            match rng.below(10) {
                0..=3 => ModelOp::Alloc(rng.range(1, 0x8000)),
                4 | 5 => ModelOp::Free(FreeOp::Live(a as usize)),
                6 => ModelOp::Free(FreeOp::Again(a as usize)),
                7 => ModelOp::Free(*rng.pick(&[
                    FreeOp::InsideHole(a, b),
                    FreeOp::HoleHead(a, b),
                    FreeOp::HoleTail(a, b),
                ])),
                8 => ModelOp::Free(FreeOp::Straddle(a, b)),
                _ => ModelOp::Free(FreeOp::OutsideSpan(a, b)),
            }
        })
        .collect()
}

/// `[base, top)` as a region (empty if `top <= base`).
fn span_of(base: u64, top: u64) -> Region {
    Region {
        base: VirtAddr(base),
        len: top.saturating_sub(base),
    }
}

/// The concrete region `op` frees, given the model's state; `None` when
/// the state has nothing of that shape (no live region, no two holes).
fn shape_free(
    op: FreeOp,
    model: &FullScanModel,
    live: &[Region],
    freed: &[Region],
) -> Option<Region> {
    let holes = &model.holes;
    let pick_hole = |a: u64| (!holes.is_empty()).then(|| holes[a as usize % holes.len()]);
    Some(match op {
        FreeOp::Live(i) => *live.get(i % live.len().max(1))?,
        FreeOp::Again(i) => *freed.get(i % freed.len().max(1))?,
        FreeOp::InsideHole(a, b) => {
            let h = pick_hole(a)?;
            let off = b % h.len;
            let len = 1 + (b >> 32) % (h.len - off);
            span_of(h.base.0 + off, h.base.0 + off + len)
        }
        FreeOp::HoleHead(a, b) => {
            let h = pick_hole(a)?;
            let before = 1 + b % 0x4000;
            let into = 1 + (b >> 32) % h.len;
            span_of(h.base.0.saturating_sub(before), h.base.0 + into)
        }
        FreeOp::HoleTail(a, b) => {
            let h = pick_hole(a)?;
            let off = b % h.len;
            let past = 1 + (b >> 32) % 0x4000;
            span_of(h.base.0 + off, h.top().0 + past)
        }
        FreeOp::Straddle(a, b) => {
            if holes.len() < 2 {
                return None;
            }
            let i = a as usize % (holes.len() - 1);
            let (lo, hi) = (holes[i], holes[i + 1]);
            let start = lo.base.0 + b % lo.len;
            let end = hi.base.0 + 1 + (b >> 32) % hi.len;
            span_of(start, end)
        }
        FreeOp::OutsideSpan(a, b) => {
            let s = model.span;
            let len = 0x1000 * (1 + b % 4);
            match a % 4 {
                0 => span_of(s.top().0, s.top().0 + len),
                1 => span_of(s.top().0 - 0x1000, s.top().0 - 0x1000 + len + 0x1000),
                2 => span_of(s.base.0.saturating_sub(len), s.base.0),
                _ => span_of(s.base.0.saturating_sub(0x1000), s.base.0 + len),
            }
        }
    })
}

#[test]
fn free_agrees_with_full_scan_model() {
    // Rejected frees per `FreeOp` kind: live frees must never be, and
    // every bad shape must be reached.
    let mut rejected = [0u64; 7];
    forall(
        "free_agrees_with_full_scan_model",
        &cfg(),
        |rng| {
            let aslr = if rng.bool() {
                Some(rng.next_u64())
            } else {
                None
            };
            (gen_model_ops(rng), aslr)
        },
        |(ops, aslr)| shrink_vec(ops).into_iter().map(|o| (o, *aslr)).collect(),
        |(ops, aslr)| {
            let (base, span) = (0x1000, 0x40_0000);
            let mut a = RegionAllocator::new(VirtAddr(base), span, 0x1000);
            match aslr {
                Some(seed) => a.set_aslr_seed(*seed),
                None => a.disable_aslr(),
            }
            let mut model = FullScanModel::new(base, span, 0x1000, *aslr);
            let mut live: Vec<Region> = Vec::new();
            let mut freed: Vec<Region> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    ModelOp::Alloc(len) => {
                        let got = a.alloc(len).ok();
                        let want = model.alloc(len);
                        if got != want {
                            return Err(format!(
                                "step {step}: alloc({len:#x}) {got:?} != {want:?}"
                            ));
                        }
                        live.extend(got);
                    }
                    ModelOp::Free(f) => {
                        let Some(r) = shape_free(f, &model, &live, &freed) else {
                            continue;
                        };
                        let got = a.free(r).is_ok();
                        let want = model.free(r);
                        if got != want {
                            return Err(format!(
                                "step {step}: {f:?} free({r:?}) ok={got}, model ok={want}"
                            ));
                        }
                        if got {
                            live.retain(|l| !overlapping(l, &r));
                            freed.push(r);
                        } else {
                            rejected[f.kind()] += 1;
                        }
                    }
                }
                if (a.free_bytes(), a.largest_hole()) != (model.free_bytes(), model.largest_hole())
                {
                    return Err(format!(
                        "step {step}: free/largest {:#x}/{:#x} != model {:#x}/{:#x}",
                        a.free_bytes(),
                        a.largest_hole(),
                        model.free_bytes(),
                        model.largest_hole()
                    ));
                }
            }
            Ok(())
        },
    );
    assert_eq!(rejected[0], 0, "the free of a live region was rejected");
    for (kind, n) in rejected.iter().enumerate().skip(1) {
        assert!(*n > 0, "no free of kind {kind} was ever rejected");
    }
}
