//! Property tests of fork semantics: arbitrary parent/child write
//! interleavings never leak across the fork boundary, under any strategy.
//!
//! Runs on the in-repo `ufork-testkit` harness (offline; default-on
//! `props` feature).
#![cfg(feature = "props")]

use ufork::{ScanMode, UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_cheri::Capability;
use ufork_exec::{Ctx, MemOs};
use ufork_mem::PAGE_SIZE;
use ufork_testkit::{forall, shrink_vec, PropConfig, Rng};

const PARENT: Pid = Pid(1);
const CHILD: Pid = Pid(2);
const CELLS: u64 = 24;

fn cfg() -> PropConfig {
    PropConfig::from_env(96)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    ParentWrite(u8, u64),
    ChildWrite(u8, u64),
    ParentRead(u8),
    ChildRead(u8),
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.below(4) {
        0 => Op::ParentWrite(rng.next_u64() as u8, rng.next_u64()),
        1 => Op::ChildWrite(rng.next_u64() as u8, rng.next_u64()),
        2 => Op::ParentRead(rng.next_u64() as u8),
        _ => Op::ChildRead(rng.next_u64() as u8),
    }
}

fn strategy_of(ix: u8) -> CopyStrategy {
    match ix % 3 {
        0 => CopyStrategy::Full,
        1 => CopyStrategy::CoA,
        _ => CopyStrategy::CoPA,
    }
}

/// The cells live in one shared array in the parent; each cell is a u64
/// at a distinct offset. Pointers to the array hop through a capability
/// cell so relocation is exercised too.
fn cell_addr(arr: &Capability, i: u8) -> Capability {
    let idx = u64::from(i) % CELLS;
    // Spread cells across pages (512 B apart) so strategies differ.
    arr.with_addr(arr.base() + idx * 512).expect("in bounds")
}

#[test]
fn interleaved_writes_never_leak() {
    forall(
        "interleaved_writes_never_leak",
        &cfg(),
        |rng| {
            let strategy_ix = rng.below(3) as u8;
            let n = rng.range(1, 48) as usize;
            let ops: Vec<Op> = (0..n).map(|_| gen_op(rng)).collect();
            (strategy_ix, ops)
        },
        |(ix, ops)| shrink_vec(ops).into_iter().map(|o| (*ix, o)).collect(),
        |(strategy_ix, ops)| {
            let strategy = strategy_of(*strategy_ix);
            let mut os = UforkOs::new(UforkConfig {
                phys_mib: 64,
                strategy,
                ..UforkConfig::default()
            });
            let mut ctx = Ctx::new();
            os.spawn(&mut ctx, PARENT, &ImageSpec::hello_world())
                .unwrap();
            let arr = os.malloc(&mut ctx, PARENT, CELLS * 512).unwrap();
            // Initialize cells to i.
            for i in 0..CELLS {
                os.store(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + i * 512).unwrap(),
                    &i.to_le_bytes(),
                )
                .unwrap();
            }
            // A pointer to the array stored in memory (forces relocation)
            // and in a register.
            let slot = os.malloc(&mut ctx, PARENT, 16).unwrap();
            os.store_cap(&mut ctx, PARENT, &slot, &arr).unwrap();
            os.set_reg(PARENT, 4, slot).unwrap();

            os.fork(&mut ctx, PARENT, CHILD).unwrap();

            // Shadow models.
            let mut shadow_p: Vec<u64> = (0..CELLS).collect();
            let mut shadow_c = shadow_p.clone();

            // Resolve each side's array pointer through its own memory.
            let p_slot = os.reg(PARENT, 4).unwrap();
            let p_arr = os
                .load_cap(&mut ctx, PARENT, &p_slot.with_addr(p_slot.base()).unwrap())
                .unwrap()
                .expect("parent array ptr");
            let c_slot = os.reg(CHILD, 4).unwrap();
            let c_arr = os
                .load_cap(&mut ctx, CHILD, &c_slot.with_addr(c_slot.base()).unwrap())
                .unwrap()
                .expect("child array ptr");
            if p_arr.base() == c_arr.base() {
                return Err("child pointer must be relocated".into());
            }

            for o in ops {
                match *o {
                    Op::ParentWrite(i, v) => {
                        os.store(&mut ctx, PARENT, &cell_addr(&p_arr, i), &v.to_le_bytes())
                            .unwrap();
                        shadow_p[(u64::from(i) % CELLS) as usize] = v;
                    }
                    Op::ChildWrite(i, v) => {
                        os.store(&mut ctx, CHILD, &cell_addr(&c_arr, i), &v.to_le_bytes())
                            .unwrap();
                        shadow_c[(u64::from(i) % CELLS) as usize] = v;
                    }
                    Op::ParentRead(i) => {
                        let mut b = [0u8; 8];
                        os.load(&mut ctx, PARENT, &cell_addr(&p_arr, i), &mut b)
                            .unwrap();
                        let want = shadow_p[(u64::from(i) % CELLS) as usize];
                        if u64::from_le_bytes(b) != want {
                            return Err(format!("{strategy:?}: parent read diverged"));
                        }
                    }
                    Op::ChildRead(i) => {
                        let mut b = [0u8; 8];
                        os.load(&mut ctx, CHILD, &cell_addr(&c_arr, i), &mut b)
                            .unwrap();
                        let want = shadow_c[(u64::from(i) % CELLS) as usize];
                        if u64::from_le_bytes(b) != want {
                            return Err(format!("{strategy:?}: child read diverged"));
                        }
                    }
                }
            }
            // Final sweep: both views must equal their shadows, and
            // isolation must audit clean.
            for i in 0..CELLS {
                let mut b = [0u8; 8];
                os.load(
                    &mut ctx,
                    PARENT,
                    &p_arr.with_addr(p_arr.base() + i * 512).unwrap(),
                    &mut b,
                )
                .unwrap();
                if u64::from_le_bytes(b) != shadow_p[i as usize] {
                    return Err(format!("{strategy:?}: parent cell {i} diverged at sweep"));
                }
                os.load(
                    &mut ctx,
                    CHILD,
                    &c_arr.with_addr(c_arr.base() + i * 512).unwrap(),
                    &mut b,
                )
                .unwrap();
                if u64::from_le_bytes(b) != shadow_c[i as usize] {
                    return Err(format!("{strategy:?}: child cell {i} diverged at sweep"));
                }
            }
            if os.audit_isolation(PARENT) != 0 || os.audit_isolation(CHILD) != 0 {
                return Err(format!("{strategy:?}: isolation audit found violations"));
            }
            if ctx.counters.isolation_violations != 0 {
                return Err(format!("{strategy:?}: isolation violations counted"));
            }
            Ok(())
        },
    );
}

/// Observational equivalence: after fork, the child's full view of the
/// array equals the parent's at-fork view under EVERY strategy — byte for
/// byte — no matter which cells the parent dirtied first.
#[test]
fn strategies_observationally_equivalent() {
    forall(
        "strategies_observationally_equivalent",
        &cfg(),
        |rng| {
            let strategy_ix = rng.below(3) as u8;
            let n = rng.index(16);
            let dirty: Vec<(u8, u64)> = (0..n)
                .map(|_| (rng.next_u64() as u8, rng.next_u64()))
                .collect();
            (strategy_ix, dirty)
        },
        |(ix, dirty)| shrink_vec(dirty).into_iter().map(|d| (*ix, d)).collect(),
        |(strategy_ix, parent_dirty)| {
            let strategy = strategy_of(*strategy_ix);
            let mut os = UforkOs::new(UforkConfig {
                phys_mib: 64,
                strategy,
                ..UforkConfig::default()
            });
            let mut ctx = Ctx::new();
            os.spawn(&mut ctx, PARENT, &ImageSpec::hello_world())
                .unwrap();
            let arr = os.malloc(&mut ctx, PARENT, CELLS * 512).unwrap();
            for i in 0..CELLS {
                os.store(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + i * 512).unwrap(),
                    &(0xAB00 + i).to_le_bytes(),
                )
                .unwrap();
            }
            os.set_reg(PARENT, 4, arr).unwrap();
            os.fork(&mut ctx, PARENT, CHILD).unwrap();
            // Parent dirties some cells AFTER the fork.
            for (i, v) in parent_dirty {
                os.store(&mut ctx, PARENT, &cell_addr(&arr, *i), &v.to_le_bytes())
                    .unwrap();
            }
            // The child still sees the at-fork snapshot.
            let c_arr = os.reg(CHILD, 4).unwrap();
            for i in 0..CELLS {
                let mut b = [0u8; 8];
                os.load(
                    &mut ctx,
                    CHILD,
                    &c_arr.with_addr(c_arr.base() + i * 512).unwrap(),
                    &mut b,
                )
                .unwrap();
                if u64::from_le_bytes(b) != 0xAB00 + i {
                    return Err(format!("{strategy:?} cell {i}: child lost the snapshot"));
                }
            }
            Ok(())
        },
    );
}

/// One random heap-population action for the parallel/serial differential:
/// either plain data or a capability pointing at another heap slot (so the
/// relocation scan has tagged granules to fix up across chunks).
#[derive(Clone, Copy, Debug)]
enum Seed {
    Data(u16, u64),
    CapTo(u16, u16),
}

/// What a heap slot looks like from the child's point of view, normalized
/// against the child's own array base (the *anchor*) so the comparison is
/// position-independent — the same idea the differential oracle uses.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Slot {
    Data(u64),
    Cap { addr: u64, base: u64, len: u64 },
}

/// A child-side heap fingerprint: every touched `(offset, slot)` pair plus
/// the `(pages_copied, caps_relocated, region_lookups)` counters from the
/// fork itself.
type Fingerprint = (Vec<(u64, Slot)>, u64, u64, u64);

/// A child's mapping structure right after its fork: `(private frames,
/// shared frames, tagged granules)` over its PTEs.
type Mappings = (u64, u64, u64);

/// Spawns a parent, populates a `pages`-page heap from `seeds`, forks under
/// `walk` with relocation scan `scan`, and fingerprints the child's view of
/// every touched slot plus the fork-path counters and child mappings that
/// must not depend on the walk mode or the scan.
fn fork_fingerprint(
    walk: WalkMode,
    scan: ScanMode,
    strategy: CopyStrategy,
    pages: u64,
    seeds: &[Seed],
) -> Result<(Fingerprint, Mappings), String> {
    let slots = pages * (PAGE_SIZE / 64);
    let off = |s: u16| (u64::from(s) % slots) * 64;
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 64,
        strategy,
        walk,
        scan,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    let image = ImageSpec::with_heap("par-diff", pages * PAGE_SIZE + 64 * 1024);
    os.spawn(&mut ctx, PARENT, &image).unwrap();
    let arr = os.malloc(&mut ctx, PARENT, pages * PAGE_SIZE).unwrap();
    let mut touched: Vec<u64> = Vec::new();
    for s in seeds {
        match *s {
            Seed::Data(i, v) => {
                os.store(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + off(i)).unwrap(),
                    &v.to_le_bytes(),
                )
                .unwrap();
                touched.push(off(i));
            }
            Seed::CapTo(i, t) => {
                let target = arr.with_addr(arr.base() + off(t)).unwrap();
                os.store_cap(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + off(i)).unwrap(),
                    &target,
                )
                .unwrap();
                touched.push(off(i));
            }
        }
    }
    touched.sort_unstable();
    touched.dedup();
    os.set_reg(PARENT, 4, arr).unwrap();

    let before = ctx.counters;
    os.fork(&mut ctx, PARENT, CHILD).unwrap();
    // A pipelined fork commits with the copy still outstanding; drain
    // the background window so fingerprints always compare
    // completed-copy states. A no-op for the other walk modes.
    os.pipeline_drain(&mut ctx, CHILD).unwrap();
    let during = ctx.counters.since(&before);
    let mapped = os.mem_stats(CHILD);
    let mapped = (
        mapped.private_frames,
        mapped.shared_frames,
        mapped.cap_granules,
    );

    let c_arr = os.reg(CHILD, 4).unwrap();
    let anchor = c_arr.base();
    if anchor == arr.base() {
        return Err(format!("{walk:?}: child array was not relocated"));
    }
    let mut prints = Vec::with_capacity(touched.len());
    for o in &touched {
        let at = c_arr.with_addr(anchor + o).unwrap();
        let print = match os.load_cap(&mut ctx, CHILD, &at).unwrap() {
            Some(c) => Slot::Cap {
                addr: c.addr() - anchor,
                base: c.base() - anchor,
                len: c.len(),
            },
            None => {
                let mut b = [0u8; 8];
                os.load(&mut ctx, CHILD, &at, &mut b).unwrap();
                Slot::Data(u64::from_le_bytes(b))
            }
        };
        prints.push((*o, print));
    }
    if os.audit_kernel() != (0, 0) {
        return Err(format!("{walk:?}: kernel audit found leaks"));
    }
    if os.audit_isolation(PARENT) != 0 || os.audit_isolation(CHILD) != 0 {
        return Err(format!("{walk:?}: isolation audit found violations"));
    }
    Ok((
        (
            prints,
            during.pages_copied,
            during.caps_relocated,
            during.region_lookups,
        ),
        mapped,
    ))
}

/// The parallel walk is an *optimization*, not a semantic change: for every
/// worker count the child heap and its capability map must be bit-identical
/// to what the serial walk produces (anchor-normalized), and the
/// walk-independent counters (pages copied, caps relocated,
/// region lookups) must agree.
#[test]
fn parallel_walk_matches_serial_bit_identical() {
    forall(
        "parallel_walk_matches_serial_bit_identical",
        &cfg(),
        |rng| {
            let strategy_ix = rng.below(3) as u8;
            // Past 32 pages the parallel walk splits into multiple chunks;
            // keep a spread of sub-chunk and multi-chunk heaps.
            let pages = rng.range(1, 72);
            let n = rng.range(1, 48) as usize;
            let seeds: Vec<Seed> = (0..n)
                .map(|_| {
                    if rng.chance(1, 2) {
                        Seed::CapTo(rng.next_u64() as u16, rng.next_u64() as u16)
                    } else {
                        Seed::Data(rng.next_u64() as u16, rng.next_u64())
                    }
                })
                .collect();
            (strategy_ix, pages, seeds)
        },
        |(ix, pages, seeds)| {
            shrink_vec(seeds)
                .into_iter()
                .map(|s| (*ix, *pages, s))
                .collect()
        },
        |(strategy_ix, pages, seeds)| {
            let strategy = strategy_of(*strategy_ix);
            let serial = fork_fingerprint(
                WalkMode::Serial,
                ScanMode::TagSummary,
                strategy,
                *pages,
                seeds,
            )?;
            for n in [1usize, 2, 4, 8] {
                let par = fork_fingerprint(
                    WalkMode::Parallel(n),
                    ScanMode::TagSummary,
                    strategy,
                    *pages,
                    seeds,
                )?;
                if par != serial {
                    return Err(format!(
                        "{strategy:?}, {pages} pages: Parallel({n}) diverged from Serial:\n\
                         serial: {serial:?}\n\
                         par:    {par:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Pipelined fork is an optimization with a *window*, not a semantic
/// change: once the background copy drains, the child heap and its
/// capability map must be bit-identical to what the serial walk produces
/// (anchor-normalized), and the walk-independent totals (pages copied,
/// caps relocated, region lookups) must agree — the pipeline moved the
/// work, it didn't change it.
#[test]
fn pipelined_walk_matches_serial_after_drain() {
    forall(
        "pipelined_walk_matches_serial_after_drain",
        &cfg(),
        |rng| {
            let strategy_ix = rng.below(3) as u8;
            let pages = rng.range(1, 72);
            let n = rng.range(1, 48) as usize;
            let seeds: Vec<Seed> = (0..n)
                .map(|_| {
                    if rng.chance(1, 2) {
                        Seed::CapTo(rng.next_u64() as u16, rng.next_u64() as u16)
                    } else {
                        Seed::Data(rng.next_u64() as u16, rng.next_u64())
                    }
                })
                .collect();
            (strategy_ix, pages, seeds)
        },
        |(ix, pages, seeds)| {
            shrink_vec(seeds)
                .into_iter()
                .map(|s| (*ix, *pages, s))
                .collect()
        },
        |(strategy_ix, pages, seeds)| {
            let strategy = strategy_of(*strategy_ix);
            let serial = fork_fingerprint(
                WalkMode::Serial,
                ScanMode::TagSummary,
                strategy,
                *pages,
                seeds,
            )?;
            let piped = fork_fingerprint(
                WalkMode::Pipelined,
                ScanMode::TagSummary,
                strategy,
                *pages,
                seeds,
            )?;
            if piped != serial {
                return Err(format!(
                    "{strategy:?}, {pages} pages: Pipelined diverged from Serial:\n\
                     serial: {serial:?}\n\
                     piped:  {piped:?}"
                ));
            }
            Ok(())
        },
    );
}

/// The naive-scan ablation is a cost knob on the one fork walk, not a
/// semantic change: under every strategy, and whatever walk mode is
/// configured (the ablation always copies inline), the child heap, its
/// capability map, its mappings and the walk-independent counters must
/// equal the tag-summary serial walk's.
#[test]
fn naive_scan_walk_matches_tagsummary() {
    forall(
        "naive_scan_walk_matches_tagsummary",
        &cfg(),
        |rng| {
            let strategy_ix = rng.below(3) as u8;
            let pages = rng.range(1, 72);
            let n = rng.range(1, 48) as usize;
            let seeds: Vec<Seed> = (0..n)
                .map(|_| {
                    if rng.chance(1, 2) {
                        Seed::CapTo(rng.next_u64() as u16, rng.next_u64() as u16)
                    } else {
                        Seed::Data(rng.next_u64() as u16, rng.next_u64())
                    }
                })
                .collect();
            (strategy_ix, pages, seeds)
        },
        |(ix, pages, seeds)| {
            shrink_vec(seeds)
                .into_iter()
                .map(|s| (*ix, *pages, s))
                .collect()
        },
        |(strategy_ix, pages, seeds)| {
            let strategy = strategy_of(*strategy_ix);
            let fast = fork_fingerprint(
                WalkMode::Serial,
                ScanMode::TagSummary,
                strategy,
                *pages,
                seeds,
            )?;
            for walk in [WalkMode::Serial, WalkMode::Parallel(4), WalkMode::Pipelined] {
                let naive = fork_fingerprint(walk, ScanMode::Naive, strategy, *pages, seeds)?;
                if naive != fast {
                    return Err(format!(
                        "{strategy:?}, {pages} pages, {walk:?}: Naive diverged from TagSummary:\n\
                         tagsummary: {fast:?}\n\
                         naive:      {naive:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The hard pipelined case: the child (and parent) run *inside* the
/// background-copy window. Child accesses to uncopied pages must jump
/// the copy queue and see the fork-time snapshot; parent writes must
/// divert copy-on-write without perturbing it; interleaved background
/// chunk steps must not disturb either side. Every interleaving of
/// those three event sources must converge — after the final drain — to
/// exactly the serial fork's outcome.
#[test]
fn child_touching_pages_during_copy_sees_snapshot() {
    const PAGES: u64 = 96; // 3 chunks of background window
    #[derive(Clone, Copy, Debug)]
    enum Ev {
        ParentWrite(u8, u64),
        ChildWrite(u8, u64),
        ChildRead(u8),
        /// One background copy-engine step (one chunk).
        Pump,
    }
    forall(
        "child_touching_pages_during_copy_sees_snapshot",
        &cfg(),
        |rng| {
            let n = rng.range(4, 40) as usize;
            let evs: Vec<Ev> = (0..n)
                .map(|_| match rng.below(4) {
                    0 => Ev::ParentWrite(rng.next_u64() as u8, rng.next_u64()),
                    1 => Ev::ChildWrite(rng.next_u64() as u8, rng.next_u64()),
                    2 => Ev::ChildRead(rng.next_u64() as u8),
                    _ => Ev::Pump,
                })
                .collect();
            evs
        },
        |evs| shrink_vec(evs),
        |evs| {
            let mut os = UforkOs::new(UforkConfig {
                phys_mib: 64,
                strategy: CopyStrategy::Full,
                walk: WalkMode::Pipelined,
                ..UforkConfig::default()
            });
            let mut ctx = Ctx::new();
            let image = ImageSpec::with_heap("pipe-window", PAGES * PAGE_SIZE + 64 * 1024);
            os.spawn(&mut ctx, PARENT, &image).unwrap();
            let arr = os.malloc(&mut ctx, PARENT, PAGES * PAGE_SIZE).unwrap();
            // One u64 cell + one capability (for relocation coverage)
            // per page, so every chunk carries tagged granules.
            for p in 0..PAGES {
                let at = arr.with_addr(arr.base() + p * PAGE_SIZE).unwrap();
                os.store(&mut ctx, PARENT, &at, &(0xBEEF + p).to_le_bytes())
                    .unwrap();
                let slot = arr.with_addr(arr.base() + p * PAGE_SIZE + 64).unwrap();
                os.store_cap(&mut ctx, PARENT, &slot, &at).unwrap();
            }
            os.set_reg(PARENT, 4, arr).unwrap();
            os.fork(&mut ctx, PARENT, CHILD).unwrap();
            if os.pipeline_pending_pages(CHILD) == 0 {
                return Err("pipelined Full fork left no background window".into());
            }
            let c_arr = os.reg(CHILD, 4).unwrap();
            let anchor = c_arr.base();

            let mut shadow_p: Vec<u64> = (0..PAGES).map(|p| 0xBEEF + p).collect();
            let mut shadow_c = shadow_p.clone();
            let cell = |root: &Capability, base: u64, i: u8| {
                let p = u64::from(i) % PAGES;
                root.with_addr(base + p * PAGE_SIZE).unwrap()
            };
            for ev in evs {
                match *ev {
                    Ev::ParentWrite(i, v) => {
                        os.store(
                            &mut ctx,
                            PARENT,
                            &cell(&arr, arr.base(), i),
                            &v.to_le_bytes(),
                        )
                        .unwrap();
                        shadow_p[(u64::from(i) % PAGES) as usize] = v;
                    }
                    Ev::ChildWrite(i, v) => {
                        os.store(&mut ctx, CHILD, &cell(&c_arr, anchor, i), &v.to_le_bytes())
                            .unwrap();
                        shadow_c[(u64::from(i) % PAGES) as usize] = v;
                    }
                    Ev::ChildRead(i) => {
                        let mut b = [0u8; 8];
                        os.load(&mut ctx, CHILD, &cell(&c_arr, anchor, i), &mut b)
                            .unwrap();
                        let want = shadow_c[(u64::from(i) % PAGES) as usize];
                        if u64::from_le_bytes(b) != want {
                            return Err(format!(
                                "child read {} mid-window, wanted {want}",
                                u64::from_le_bytes(b)
                            ));
                        }
                    }
                    Ev::Pump => {
                        os.pipeline_copy_next(&mut ctx, CHILD).unwrap();
                    }
                }
            }
            os.pipeline_drain(&mut ctx, CHILD).unwrap();
            if os.pipeline_pending_pages(CHILD) != 0 {
                return Err("window still open after drain".into());
            }
            // Converged state: both sides match their shadows, every
            // child capability was relocated into the child's region.
            for p in 0..PAGES {
                let mut b = [0u8; 8];
                os.load(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + p * PAGE_SIZE).unwrap(),
                    &mut b,
                )
                .unwrap();
                if u64::from_le_bytes(b) != shadow_p[p as usize] {
                    return Err(format!("parent page {p} diverged after drain"));
                }
                os.load(
                    &mut ctx,
                    CHILD,
                    &c_arr.with_addr(anchor + p * PAGE_SIZE).unwrap(),
                    &mut b,
                )
                .unwrap();
                if u64::from_le_bytes(b) != shadow_c[p as usize] {
                    return Err(format!("child page {p} diverged after drain"));
                }
                let slot = c_arr.with_addr(anchor + p * PAGE_SIZE + 64).unwrap();
                let cap = os
                    .load_cap(&mut ctx, CHILD, &slot)
                    .unwrap()
                    .ok_or_else(|| format!("child page {p}: relocated cap lost its tag"))?;
                if cap.addr() != anchor + p * PAGE_SIZE {
                    return Err(format!("child page {p}: cap not relocated to child region"));
                }
            }
            if os.audit_kernel() != (0, 0) {
                return Err("kernel audit found leaks after window closed".into());
            }
            if os.audit_isolation(PARENT) != 0 || os.audit_isolation(CHILD) != 0 {
                return Err("isolation audit found violations".into());
            }
            Ok(())
        },
    );
}

/// Deterministic lane-allocation failure anywhere inside the parallel
/// fork walk must be absorbed by the journal: the fork rolls back, runs a
/// reclaim pass, retries, and succeeds — with no leaked frames, no
/// dangling PTEs, and a parent and child that both work.
#[test]
fn lane_alloc_failure_mid_walk_leaks_nothing() {
    const PAGES: u64 = 40; // > CHUNK_PAGES, so the walk is multi-chunk
    let setup = |walk: WalkMode| {
        let mut os = UforkOs::new(UforkConfig {
            phys_mib: 64,
            strategy: CopyStrategy::Full,
            walk,
            ..UforkConfig::default()
        });
        let mut ctx = Ctx::new();
        let image = ImageSpec::with_heap("unwind", PAGES * PAGE_SIZE + 64 * 1024);
        os.spawn(&mut ctx, PARENT, &image).unwrap();
        let arr = os.malloc(&mut ctx, PARENT, PAGES * PAGE_SIZE).unwrap();
        for p in 0..PAGES {
            let at = arr.with_addr(arr.base() + p * PAGE_SIZE).unwrap();
            os.store(&mut ctx, PARENT, &at, &(0xF00D + p).to_le_bytes())
                .unwrap();
            let slot = arr.with_addr(arr.base() + p * PAGE_SIZE + 64).unwrap();
            os.store_cap(&mut ctx, PARENT, &slot, &at).unwrap();
        }
        os.set_reg(PARENT, 4, arr).unwrap();
        (os, ctx, arr)
    };
    forall(
        "lane_alloc_failure_mid_walk_leaks_nothing",
        &cfg(),
        |rng| {
            let workers = *rng.pick(&[1usize, 2, 4, 8]);
            let frac = rng.below(1000);
            (workers, frac)
        },
        ufork_testkit::no_shrink,
        |(workers, frac)| {
            let walk = WalkMode::Parallel(*workers);
            // Dry run: count how many allocation attempts a successful
            // fork makes, so the injected failure lands mid-walk.
            let (mut os, mut ctx, _) = setup(walk);
            let before = os.frame_alloc_attempts();
            os.fork(&mut ctx, PARENT, CHILD).unwrap();
            let span = os.frame_alloc_attempts() - before;
            if span == 0 {
                return Err("Full-strategy fork made no allocations".into());
            }

            // Real run: same deterministic setup, failure injected at a
            // fraction of the way through the fork's allocations.
            let (mut os, mut ctx, arr) = setup(walk);
            os.inject_frame_alloc_failure(before + frac * span / 1000);
            // The journal rolls the partial fork back, reclaims, and the
            // retry inside fork() succeeds (the injection is one-shot).
            os.fork(&mut ctx, PARENT, CHILD)
                .map_err(|e| format!("injected alloc failure not absorbed: {e:?}"))?;
            if ctx.counters.fork_rollbacks < 1 {
                return Err("absorbed failure did not record a rollback".into());
            }
            if ctx.counters.reclaim_inline < 1 {
                return Err("absorbed failure did not run a reclaim pass".into());
            }
            if os.audit_kernel() != (0, 0) {
                return Err("kernel audit found dangling PTEs or frames".into());
            }
            // The parent is untouched...
            let mut b = [0u8; 8];
            os.load(
                &mut ctx,
                PARENT,
                &arr.with_addr(arr.base()).unwrap(),
                &mut b,
            )
            .unwrap();
            if u64::from_le_bytes(b) != 0xF00D {
                return Err("parent heap corrupted by rolled-back walk".into());
            }
            // ...and the child from the retried fork is complete.
            let c_arr = os.reg(CHILD, 4).unwrap();
            os.load(
                &mut ctx,
                CHILD,
                &c_arr.with_addr(c_arr.base()).unwrap(),
                &mut b,
            )
            .unwrap();
            if u64::from_le_bytes(b) != 0xF00D {
                return Err("child heap wrong after absorbed failure".into());
            }
            Ok(())
        },
    );
}

/// Generation-bit hygiene: a fork under `track_dirty` clears every
/// soft-dirty bit exactly once — right after any fork the parent has
/// zero dirty PTEs, each batch of post-fork stores raises exactly one
/// bit per distinct page, the next fork copies exactly those pages and
/// clears the bits again, and a fork with nothing written since copies
/// nothing at all.
#[test]
fn dirty_bits_cleared_exactly_once_per_fork() {
    const PAGES: u64 = 64;
    forall(
        "dirty_bits_cleared_exactly_once_per_fork",
        &cfg(),
        |rng| {
            let walk = *rng.pick(&[WalkMode::Serial, WalkMode::Parallel(4), WalkMode::Pipelined]);
            let n = rng.range(0, 24) as usize;
            let writes: Vec<(u8, u64)> = (0..n)
                .map(|_| (rng.next_u64() as u8, rng.next_u64()))
                .collect();
            (walk, writes)
        },
        |(walk, writes)| shrink_vec(writes).into_iter().map(|w| (*walk, w)).collect(),
        |(walk, writes)| {
            let mut os = UforkOs::new(UforkConfig {
                phys_mib: 64,
                strategy: CopyStrategy::Full,
                walk: *walk,
                track_dirty: true,
                ..UforkConfig::default()
            });
            let mut ctx = Ctx::new();
            let image = ImageSpec::with_heap("gen-hygiene", PAGES * PAGE_SIZE + 64 * 1024);
            os.spawn(&mut ctx, PARENT, &image).unwrap();
            let arr = os.malloc(&mut ctx, PARENT, PAGES * PAGE_SIZE).unwrap();
            for p in 0..PAGES {
                os.store(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + p * PAGE_SIZE).unwrap(),
                    &p.to_le_bytes(),
                )
                .unwrap();
            }
            os.set_reg(PARENT, 4, arr).unwrap();

            os.fork(&mut ctx, PARENT, CHILD).unwrap();
            os.pipeline_drain(&mut ctx, CHILD).unwrap();
            if os.dirty_page_count(PARENT).unwrap() != 0 {
                return Err("dirty bits survived the first fork's stamp".into());
            }
            if os.fork_generation(PARENT).is_none() {
                return Err("first fork under track_dirty did not stamp a generation".into());
            }

            // Post-fork stores: exactly one dirty bit per distinct page.
            let mut pages: Vec<u64> = Vec::new();
            for (i, v) in writes {
                let p = u64::from(*i) % PAGES;
                os.store(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + p * PAGE_SIZE + 8).unwrap(),
                    &v.to_le_bytes(),
                )
                .unwrap();
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
            let dirty = os.dirty_page_count(PARENT).unwrap();
            if dirty != pages.len() {
                return Err(format!(
                    "{} distinct pages written but {dirty} dirty bits set",
                    pages.len()
                ));
            }

            // The next fork copies exactly the dirty pages and clears
            // every bit again (exactly once: the count returns to zero).
            let mut fctx = Ctx::new();
            os.fork(&mut fctx, PARENT, Pid(3)).unwrap();
            os.pipeline_drain(&mut fctx, Pid(3)).unwrap();
            if fctx.counters.pages_dirty_copied != pages.len() as u64 {
                return Err(format!(
                    "second fork copied {} dirty pages, expected {}",
                    fctx.counters.pages_dirty_copied,
                    pages.len()
                ));
            }
            if fctx.counters.pages_shared_clean == 0 {
                return Err("second fork shared no clean pages".into());
            }
            if os.dirty_page_count(PARENT).unwrap() != 0 {
                return Err("dirty bits survived the second fork's stamp".into());
            }

            // Nothing written since: the third fork copies nothing.
            let mut fctx = Ctx::new();
            os.fork(&mut fctx, PARENT, Pid(4)).unwrap();
            os.pipeline_drain(&mut fctx, Pid(4)).unwrap();
            if fctx.counters.pages_dirty_copied != 0 {
                return Err(format!(
                    "idle refork still copied {} pages",
                    fctx.counters.pages_dirty_copied
                ));
            }
            if os.audit_kernel() != (0, 0) {
                return Err("kernel audit found leaks".into());
            }
            Ok(())
        },
    );
}

/// Spawns a parent, populates a heap from `seeds`, forks once (stamping
/// under `track_dirty`), applies `post` parent writes, forks again, and
/// fingerprints the *second* child — the one a `DirtySince` scope
/// builds from dirty copies plus refcount-shared clean pages.
fn refork_fingerprint(
    walk: WalkMode,
    track_dirty: bool,
    pages: u64,
    seeds: &[Seed],
    post: &[(u16, u64)],
) -> Result<Fingerprint, String> {
    let slots = pages * (PAGE_SIZE / 64);
    let off = |s: u16| (u64::from(s) % slots) * 64;
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 64,
        strategy: CopyStrategy::Full,
        walk,
        track_dirty,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    let image = ImageSpec::with_heap("dirty-diff", pages * PAGE_SIZE + 64 * 1024);
    os.spawn(&mut ctx, PARENT, &image).unwrap();
    let arr = os.malloc(&mut ctx, PARENT, pages * PAGE_SIZE).unwrap();
    let mut touched: Vec<u64> = Vec::new();
    for s in seeds {
        match *s {
            Seed::Data(i, v) => {
                os.store(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + off(i)).unwrap(),
                    &v.to_le_bytes(),
                )
                .unwrap();
                touched.push(off(i));
            }
            Seed::CapTo(i, t) => {
                let target = arr.with_addr(arr.base() + off(t)).unwrap();
                os.store_cap(
                    &mut ctx,
                    PARENT,
                    &arr.with_addr(arr.base() + off(i)).unwrap(),
                    &target,
                )
                .unwrap();
                touched.push(off(i));
            }
        }
    }
    os.set_reg(PARENT, 4, arr).unwrap();

    os.fork(&mut ctx, PARENT, CHILD).unwrap();
    os.pipeline_drain(&mut ctx, CHILD).unwrap();
    // The write mix between the snapshots.
    for (i, v) in post {
        os.store(
            &mut ctx,
            PARENT,
            &arr.with_addr(arr.base() + off(*i)).unwrap(),
            &v.to_le_bytes(),
        )
        .unwrap();
        touched.push(off(*i));
    }
    touched.sort_unstable();
    touched.dedup();

    let before = ctx.counters;
    os.fork(&mut ctx, PARENT, Pid(3)).unwrap();
    os.pipeline_drain(&mut ctx, Pid(3)).unwrap();
    let during = ctx.counters.since(&before);

    let c_arr = os.reg(Pid(3), 4).unwrap();
    let anchor = c_arr.base();
    let mut prints = Vec::with_capacity(touched.len());
    for o in &touched {
        let at = c_arr.with_addr(anchor + o).unwrap();
        let print = match os.load_cap(&mut ctx, Pid(3), &at).unwrap() {
            Some(c) => Slot::Cap {
                addr: c.addr() - anchor,
                base: c.base() - anchor,
                len: c.len(),
            },
            None => {
                let mut b = [0u8; 8];
                os.load(&mut ctx, Pid(3), &at, &mut b).unwrap();
                Slot::Data(u64::from_le_bytes(b))
            }
        };
        prints.push((*o, print));
    }
    if os.audit_kernel() != (0, 0) {
        return Err(format!(
            "track_dirty={track_dirty}: kernel audit found leaks"
        ));
    }
    if os.audit_isolation(PARENT) != 0 || os.audit_isolation(Pid(3)) != 0 {
        return Err(format!(
            "track_dirty={track_dirty}: isolation audit found violations"
        ));
    }
    // The fork-path counters stay comparable in shape only: the scopes
    // intentionally copy different page counts, so only the heap
    // fingerprint is compared. Return zeros for the counter slots.
    let _ = during;
    Ok((prints, 0, 0, 0))
}

/// `CopyScope::DirtySince` is an optimization, not a semantic change:
/// for every seeded heap and post-fork write mix, the second child's
/// full view (data and relocated capability map, anchor-normalized)
/// must be bit-identical whether the fork copied everything or only the
/// pages dirtied since the previous fork.
#[test]
fn dirty_scope_matches_everything_scope() {
    forall(
        "dirty_scope_matches_everything_scope",
        &cfg(),
        |rng| {
            let walk = *rng.pick(&[WalkMode::Serial, WalkMode::Parallel(4), WalkMode::Pipelined]);
            let pages = rng.range(1, 72);
            let n = rng.range(1, 32) as usize;
            let seeds: Vec<Seed> = (0..n)
                .map(|_| {
                    if rng.chance(1, 2) {
                        Seed::CapTo(rng.next_u64() as u16, rng.next_u64() as u16)
                    } else {
                        Seed::Data(rng.next_u64() as u16, rng.next_u64())
                    }
                })
                .collect();
            let m = rng.range(0, 24) as usize;
            let post: Vec<(u16, u64)> = (0..m)
                .map(|_| (rng.next_u64() as u16, rng.next_u64()))
                .collect();
            (walk, pages, seeds, post)
        },
        |(walk, pages, seeds, post)| {
            shrink_vec(post)
                .into_iter()
                .map(|p| (*walk, *pages, seeds.clone(), p))
                .collect()
        },
        |(walk, pages, seeds, post)| {
            let every = refork_fingerprint(*walk, false, *pages, seeds, post)?;
            let dirty = refork_fingerprint(*walk, true, *pages, seeds, post)?;
            if dirty != every {
                return Err(format!(
                    "{walk:?}, {pages} pages: DirtySince child diverged from Everything:\n\
                     everything: {every:?}\n\
                     dirty:      {dirty:?}"
                ));
            }
            Ok(())
        },
    );
}
