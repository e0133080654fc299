//! Dirty-scope fork scenarios: the snapshot train and the zygote fleet.
//!
//! The **snapshot train** is the Redis-BGSAVE pattern distilled: one
//! long-lived parent forks a snapshot child every K sim-ms while a
//! write-heavy mix dirties a fraction of its heap between snapshots.
//! With `track_dirty` on, every fork after the first runs under
//! `CopyScope::DirtySince` and copies only the pages written since the
//! previous snapshot — O(dirty) instead of O(heap) — while clean pages
//! are shared with the parent by a refcount bump. The multi-AS baseline
//! drives the *same* train through the shared [`MemOs`] trait for the
//! paper-style comparison.
//!
//! The **zygote fleet** forks M warm children from one unmodified parent
//! and keeps them all alive. With the cross-child frame-dedup index on,
//! child N's eager copies content-hash to child 1's frames and are
//! shared instead of re-copied, so resident frames stay ~flat in M.

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_baselines::{mono, BaselineConfig};
use ufork_exec::{Ctx, MemOs};
use ufork_mem::PAGE_SIZE;
use ufork_sim::OpCounters;

use crate::report::{repeatable, Cell, Row};

/// Heap pages of the snapshot-train parent. Large enough that the
/// per-page walk dwarfs the fixed fork cost — the 0.25× dirty-scope
/// gate is asymptotic, not a fixed-cost artifact.
pub const TRAIN_HEAP_PAGES: u64 = 2048;

/// Fraction of the heap dirtied between consecutive snapshots (the
/// gate's write-heavy mix: 5%).
pub const TRAIN_WRITE_RATE: f64 = 0.05;

/// Snapshots per train. The first always runs `Everything` (nothing is
/// stamped yet); the steady state the gate measures is snapshots ≥ 2.
pub const TRAIN_SNAPSHOTS: u32 = 5;

/// Children in the zygote fleet.
pub const FLEET_CHILDREN: u32 = 8;

/// One fork of a snapshot train.
#[derive(Clone, Debug)]
pub struct SnapshotRow {
    /// System label (`μFork (full copy)`, `CheriBSD`, ...).
    pub system: String,
    /// Copy scope the train ran under: `everything` (dirty tracking
    /// off) or `dirty` (`CopyScope::DirtySince` from snapshot 2 on).
    pub scope: &'static str,
    /// Walk mode label (`serial`, `pipelined`; `-` for the baseline).
    pub walk: &'static str,
    /// 1-based index of this snapshot in the train.
    pub snapshot: u32,
    /// Simulated fork latency as the parent observes it (commit
    /// latency for the pipelined walk), ns.
    pub sim_fork_ns: f64,
    /// Simulated time until the child's copy is complete, including
    /// any drained pipelined background window, ns.
    pub sim_copy_done_ns: f64,
    /// The fork's counters, including any drained pipelined window.
    pub counters: OpCounters,
}

impl Row for SnapshotRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("system", Cell::Str(self.system.clone())),
            ("scope", Cell::Str(self.scope.into())),
            ("walk", Cell::Str(self.walk.into())),
            ("snapshot", Cell::Int(self.snapshot.into())),
            ("sim_fork_ns", Cell::Ns(self.sim_fork_ns)),
            ("sim_copy_done_ns", Cell::Ns(self.sim_copy_done_ns)),
            (
                "pages_dirty_copied",
                Cell::Int(self.counters.pages_dirty_copied),
            ),
            (
                "pages_shared_clean",
                Cell::Int(self.counters.pages_shared_clean),
            ),
        ]
    }
}

/// Drives one snapshot train through the [`MemOs`] trait, so μFork and
/// the multi-AS baseline run the identical workload: populate
/// [`TRAIN_HEAP_PAGES`], then per round dirty [`TRAIN_WRITE_RATE`] of them
/// (a rotating contiguous window, so rounds are deterministic but not
/// identical) and fork a snapshot child, draining any pipelined
/// background copy before tearing the child down. Returns one row per
/// snapshot, labelled `system`, `scope` and `walk`.
fn run_train<O: MemOs>(
    mut os: O,
    system: &str,
    scope: &'static str,
    walk: &'static str,
) -> Vec<SnapshotRow> {
    let heap_pages = TRAIN_HEAP_PAGES;
    let mut ctx = Ctx::new();
    let img = ImageSpec::with_heap("snapshot", heap_pages * PAGE_SIZE + (256 << 10));
    os.spawn(&mut ctx, Pid(1), &img).expect("spawn snapshot");
    let heap_bytes = heap_pages * PAGE_SIZE;
    let arr = os.malloc(&mut ctx, Pid(1), heap_bytes).expect("heap");
    // Touch every page so the whole heap is resident before the first
    // snapshot, with a capability every 8th page so the dirty walk still
    // exercises the tag scan.
    for p in 0..heap_pages {
        let slot = arr.with_addr(arr.base() + p * PAGE_SIZE).expect("slot");
        if p % 8 == 0 {
            os.store_cap(&mut ctx, Pid(1), &slot, &slot).expect("cap");
        } else {
            os.store(&mut ctx, Pid(1), &slot, &p.to_le_bytes())
                .expect("store");
        }
    }

    let dirty_per_round = ((heap_pages as f64 * TRAIN_WRITE_RATE).ceil() as u64).min(heap_pages);
    let mut rows = Vec::new();
    for s in 1..=TRAIN_SNAPSHOTS {
        // The write-heavy mix between snapshots: a contiguous window of
        // `TRAIN_WRITE_RATE` pages, rotated per round.
        let start = (u64::from(s - 1) * dirty_per_round) % heap_pages;
        for i in 0..dirty_per_round {
            let page = (start + i) % heap_pages;
            let slot = arr
                .with_addr(arr.base() + page * PAGE_SIZE + 64)
                .expect("slot");
            os.store(&mut ctx, Pid(1), &slot, &[s as u8; 8])
                .expect("dirty store");
        }

        let child = Pid(1000 + s);
        let mut fctx = Ctx::new();
        os.fork(&mut fctx, Pid(1), child).expect("snapshot fork");
        let commit_ns = fctx.kernel_ns;
        // Stream any pipelined background window on the same context.
        while os.pipeline_step(&mut fctx, child).expect("drain") {}
        rows.push(SnapshotRow {
            system: system.to_string(),
            scope,
            walk,
            snapshot: s,
            sim_fork_ns: commit_ns,
            sim_copy_done_ns: fctx.kernel_ns,
            counters: fctx.counters,
        });
        // BGSAVE done: the snapshot child exits.
        os.destroy(&mut ctx, child);
    }
    rows
}

/// The μFork variants of the train: {everything, dirty} × {serial,
/// pipelined}, all under the eager Full strategy (where fork-time copy
/// volume is what the dirty scope cuts).
pub fn snapshot_train_modes() -> Vec<(&'static str, &'static str, WalkMode, bool)> {
    vec![
        ("everything", "serial", WalkMode::Serial, false),
        ("dirty", "serial", WalkMode::Serial, true),
        ("everything", "pipelined", WalkMode::Pipelined, false),
        ("dirty", "pipelined", WalkMode::Pipelined, true),
    ]
}

/// Runs one μFork snapshot train.
pub fn snapshot_train_run(
    scope: &'static str,
    walk_label: &'static str,
    walk: WalkMode,
    track_dirty: bool,
) -> Vec<SnapshotRow> {
    let os = UforkOs::new(UforkConfig {
        phys_mib: 64,
        strategy: CopyStrategy::Full,
        walk,
        track_dirty,
        ..UforkConfig::default()
    });
    run_train(os, "μFork (full copy)", scope, walk_label)
}

/// Runs the same train on the CheriBSD-like multi-AS baseline (classic
/// CoW fork; no dirty scope exists to cut the per-PTE walk).
pub fn snapshot_train_baseline() -> Vec<SnapshotRow> {
    let os = mono(BaselineConfig {
        phys_mib: 64,
        ..BaselineConfig::default()
    });
    run_train(os, "CheriBSD", "everything", "-")
}

/// The full snapshot-train sweep: every μFork variant plus the
/// baseline.
///
/// Runs the sweep twice and asserts the repeats bit-identical, then
/// enforces the dirty scope's asymptotic gate under both the serial and
/// the pipelined walk: at a 5% write rate every steady-state (N ≥ 2)
/// `DirtySince` fork completes its copy within 0.25× the
/// `Everything`-scope fork, and shares clean pages.
pub fn snapshot_train_sweep() -> Vec<SnapshotRow> {
    let rows = repeatable("fork_snapshot_train", || {
        let mut rows = Vec::new();
        for (scope, walk_label, walk, track) in snapshot_train_modes() {
            rows.extend(snapshot_train_run(scope, walk_label, walk, track));
        }
        rows.extend(snapshot_train_baseline());
        rows
    });
    let pick = |scope: &str, walk: &str, snap: u32| {
        rows.iter()
            .find(|r| r.scope == scope && r.walk == walk && r.snapshot == snap)
            .expect("snapshot row")
    };
    for walk in ["serial", "pipelined"] {
        for snap in 2..=TRAIN_SNAPSHOTS {
            let dirty = pick("dirty", walk, snap);
            let every = pick("everything", walk, snap);
            let ratio = dirty.sim_copy_done_ns / every.sim_copy_done_ns;
            assert!(
                ratio <= 0.25,
                "{walk} snapshot {snap}: DirtySince copy-done {:.0} ns is {ratio:.3}x the \
                 Everything fork ({:.0} ns); the dirty scope must stay under 0.25x at 5% writes",
                dirty.sim_copy_done_ns,
                every.sim_copy_done_ns
            );
            assert!(
                dirty.counters.pages_shared_clean > 0,
                "{walk} snapshot {snap}: no clean pages were shared"
            );
        }
    }
    rows
}

/// One zygote-fleet configuration: M warm children forked from one
/// unmodified parent, all kept alive.
#[derive(Clone, Debug)]
pub struct ZygoteFleetRow {
    /// Variant label: `baseline` (no dedup, no dirty tracking),
    /// `dedup` (cross-child frame dedup), `dirty` (dirty tracking: the
    /// clean-share path), for serial and pipelined walks.
    pub variant: String,
    /// Children forked and kept alive.
    pub children: u32,
    /// Frames allocated after the first child.
    pub frames_one_child: u32,
    /// Frames allocated after all `children`.
    pub frames_fleet: u32,
    /// The fleet's counters, summed over every fork and drain.
    pub counters: OpCounters,
}

impl Row for ZygoteFleetRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        let c = &self.counters;
        vec![
            ("variant", Cell::Str(self.variant.clone())),
            ("children", Cell::Int(self.children.into())),
            ("frames_one_child", Cell::Int(self.frames_one_child.into())),
            ("frames_fleet", Cell::Int(self.frames_fleet.into())),
            ("frames_deduped", Cell::Int(c.frames_deduped)),
            ("dedup_hash_probes", Cell::Int(c.dedup_hash_probes)),
            ("pages_shared_clean", Cell::Int(c.pages_shared_clean)),
        ]
    }
}

/// Zygote heap pages. Data-only content (no capabilities): frames that
/// carry tags are region-specific by construction and the dedup index
/// refuses them, so the fleet scenario measures the dedup path itself.
pub const FLEET_HEAP_PAGES: u64 = 512;

/// Runs one zygote fleet: fork [`FLEET_CHILDREN`] children under the
/// given walk and knobs, sampling resident frames after the first child
/// and after the full fleet.
pub fn zygote_fleet_run(
    variant: &str,
    walk: WalkMode,
    dedup_frames: bool,
    track_dirty: bool,
) -> ZygoteFleetRow {
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy: CopyStrategy::Full,
        walk,
        dedup_frames,
        track_dirty,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    let img = ImageSpec::with_heap("zygote", FLEET_HEAP_PAGES * PAGE_SIZE + (256 << 10));
    os.spawn(&mut ctx, Pid(1), &img).expect("spawn zygote");
    let arr = os
        .malloc(&mut ctx, Pid(1), FLEET_HEAP_PAGES * PAGE_SIZE)
        .expect("heap");
    // Per-page-unique warm state (a JIT'd runtime image): identical
    // across children, distinct across pages.
    for p in 0..FLEET_HEAP_PAGES {
        let slot = arr.with_addr(arr.base() + p * PAGE_SIZE).expect("slot");
        os.store(&mut ctx, Pid(1), &slot, &(p * 31).to_le_bytes())
            .expect("store");
    }

    let mut fctx = Ctx::new();
    let mut frames_one_child = 0;
    for c in 1..=FLEET_CHILDREN {
        let child = Pid(1 + c);
        os.fork(&mut fctx, Pid(1), child).expect("fleet fork");
        while os.pipeline_step(&mut fctx, child).expect("drain") {}
        if c == 1 {
            frames_one_child = os.allocated_frames();
        }
    }
    ZygoteFleetRow {
        variant: variant.to_string(),
        children: FLEET_CHILDREN,
        frames_one_child,
        frames_fleet: os.allocated_frames(),
        counters: fctx.counters,
    }
}

/// The zygote-fleet sweep: no-sharing baseline, dedup, and dirty-scope
/// clean-sharing, under the serial and pipelined walks.
///
/// Runs the sweep twice and asserts the repeats identical, then enforces
/// the sharing gate: every dedup and dirty fleet holds at most 1.2× the
/// resident frames of a single child, and every dedup fleet actually
/// deduplicated frames.
pub fn zygote_fleet_sweep() -> Vec<ZygoteFleetRow> {
    let rows = repeatable("fork_zygote", || {
        vec![
            zygote_fleet_run("baseline/serial", WalkMode::Serial, false, false),
            zygote_fleet_run("dedup/serial", WalkMode::Serial, true, false),
            zygote_fleet_run("dirty/serial", WalkMode::Serial, false, true),
            zygote_fleet_run("baseline/pipelined", WalkMode::Pipelined, false, false),
            zygote_fleet_run("dedup/pipelined", WalkMode::Pipelined, true, false),
            zygote_fleet_run("dirty/pipelined", WalkMode::Pipelined, false, true),
        ]
    });
    for r in &rows {
        if r.variant.starts_with("dedup/") || r.variant.starts_with("dirty/") {
            let ratio = f64::from(r.frames_fleet) / f64::from(r.frames_one_child);
            assert!(
                ratio <= 1.2,
                "fork_zygote/{}: fleet of {} holds {} frames, {ratio:.3}x a single child's {} \
                 (must stay <= 1.2x)",
                r.variant,
                r.children,
                r.frames_fleet,
                r.frames_one_child
            );
        }
        if r.variant.starts_with("dedup/") {
            assert!(
                r.counters.frames_deduped > 0,
                "fork_zygote/{}: dedup enabled but no frames were deduplicated",
                r.variant
            );
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial walk finds the same in-fork duplicates as the pipelined
    /// chunks: a fresh copy staged earlier in the same walk is a valid
    /// dedup target before the walk's batch installs its PTE, so both
    /// walks account one child, the fleet and the deduped frames alike.
    #[test]
    fn dedup_serial_matches_pipelined() {
        let serial = zygote_fleet_run("dedup/serial", WalkMode::Serial, true, false);
        let piped = zygote_fleet_run("dedup/pipelined", WalkMode::Pipelined, true, false);
        assert_eq!(
            (
                serial.frames_one_child,
                serial.frames_fleet,
                serial.counters.frames_deduped
            ),
            (
                piped.frames_one_child,
                piped.frames_fleet,
                piped.counters.frames_deduped
            )
        );
    }
}
