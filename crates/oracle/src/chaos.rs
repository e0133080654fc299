//! Auto-enumerated chaos sweep over the transactional fork journal.
//!
//! Where [`crate::fault`] injects failures at *allocator attempt*
//! granularity, this sweep works at *journal op* granularity: a clean
//! reference fork measures the window of journal records a fork of the
//! oracle image produces, then the scenario is replayed once per record
//! index with [`UforkOs::inject_journal_failure`] armed at exactly that
//! op. Injected journal aborts are flagged fatal — the kernel's
//! reclaim-then-retry loop must *not* absorb them — so each replay must
//! show a textbook transactional abort:
//!
//! * the fork fails (no partial child: no region, no process-table
//!   entry),
//! * every frame taken since the fork began is back
//!   (`allocated_frames` unchanged, `audit_kernel` balanced to zero),
//! * a rollback was recorded and ran in reverse op order,
//! * the parent is fully usable and an immediate retry succeeds with a
//!   bit-correct child,
//! * teardown afterwards releases everything down to zero frames.
//!
//! The sweep enumerates the window automatically, so a new journal op
//! added to the fork path is covered without touching this file. It runs
//! for all three copy strategies plus the parallel and pipelined walks,
//! exercising the rollback of every op kind: the admission reservation,
//! the region grab, eager frame allocations, shared/lazy refcount bumps,
//! child PTE batches, parent COW arming, and the index/process-table
//! inserts.
//!
//! Pipelined fork gets a second, wider window: after its fork commits,
//! the background copy runs per-chunk journal transactions of its own
//! (frame allocations, `PteRemap` rewrites, `RefDec` releases —
//! `crates/core/src/pipeline.rs`). `sweep_pipeline_window` enumerates every
//! journal op of a reference drain and aborts each one: the failing
//! chunk must roll back whole (the window shrinks only in chunk-sized
//! steps), nothing may leak, a retry drain must complete, and the child
//! must end bit-correct.

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_cheri::{Capability, OType};
use ufork_exec::ring::{self, RingPop, RingPush};
use ufork_exec::{Ctx, Machine, MachineConfig, MemOs};
use ufork_workloads::storm::{StormConfig, StormZygote};

use crate::fault::{check_consistent, child_cap, prelude, teardown_clean};

/// What the sweep exercised (for reporting).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosSummary {
    /// Journal op indices replayed with an injected abort.
    pub points: u64,
    /// Abort points replayed with live shared-memory ring endpoints.
    pub ring_points: u64,
    /// Abort points inside the pipelined background-copy window.
    pub pipeline_points: u64,
    /// Abort points inside the 10-deep dirty-scope snapshot train.
    pub train_points: u64,
    /// Strategy × walk-mode configurations swept.
    pub configs: u64,
    /// Mid-storm injection scenarios run to clean completion.
    pub storm_scenarios: u64,
    /// Fork retries the storm zygotes absorbed across those scenarios.
    pub storm_retries: u64,
    /// Journal rollbacks recorded across those scenarios.
    pub storm_rollbacks: u64,
    /// Abort points inside background-reclaim scrub passes.
    pub reclaim_points: u64,
    /// Abort points inside OOM victim memory teardowns.
    pub oom_points: u64,
}

/// Strategy × walk-mode configurations under sweep. The parallel walk
/// runs once (under Full, the op-richest strategy); lane-count variants
/// share its journal schedule, which the determinism properties already
/// pin down.
const CONFIGS: [(CopyStrategy, WalkMode); 5] = [
    (CopyStrategy::Full, WalkMode::Serial),
    (CopyStrategy::Full, WalkMode::Parallel(4)),
    (CopyStrategy::Full, WalkMode::Pipelined),
    (CopyStrategy::CoA, WalkMode::Serial),
    (CopyStrategy::CoPA, WalkMode::Serial),
];

fn build(strategy: CopyStrategy, walk: WalkMode) -> UforkOs {
    UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy,
        walk,
        ..UforkConfig::default()
    })
}

fn sweep_config(
    strategy: CopyStrategy,
    walk: WalkMode,
    summary: &mut ChaosSummary,
) -> Result<(), String> {
    // Reference run: measure the fork's journal-record window.
    let (j0, j1) = {
        let mut os = build(strategy, walk);
        let mut ctx = Ctx::new();
        prelude(&mut os, &mut ctx)?;
        let j0 = os.journal_ops_recorded();
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("{strategy:?}/{walk:?}: reference fork failed: {e:?}"))?;
        (j0, os.journal_ops_recorded())
    };
    if j1 == j0 {
        return Err(format!(
            "{strategy:?}/{walk:?}: fork recorded no journal ops (window empty)"
        ));
    }
    for op in j0..j1 {
        let label = format!("{strategy:?}/{walk:?} journal op {op}");
        let mut os = build(strategy, walk);
        let mut ctx = Ctx::new();
        let caps = prelude(&mut os, &mut ctx)?;
        let frames_before = os.allocated_frames();
        os.inject_journal_failure(op);
        if os.fork(&mut ctx, Pid(1), Pid(2)).is_ok() {
            return Err(format!("{label}: injected abort was absorbed"));
        }
        if ctx.counters.fork_rollbacks == 0 {
            return Err(format!("{label}: abort did not run a rollback"));
        }
        if os.region_of(Pid(2)).is_ok() {
            return Err(format!("{label}: aborted fork left a child behind"));
        }
        let frames = os.allocated_frames();
        if frames != frames_before {
            return Err(format!(
                "{label}: {} frames leaked ({frames_before} -> {frames})",
                frames as i64 - frames_before as i64
            ));
        }
        check_consistent(&mut os, &mut ctx, &label)?;
        // The injection is one-shot: the retry must produce a complete,
        // correct child.
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("{label}: retry fork failed: {e:?}"))?;
        let cc = child_cap(&os, &caps[0])?;
        let mut b = [0u8; 8];
        os.load(&mut ctx, Pid(2), &cc, &mut b)
            .map_err(|e| format!("{label}: child read after retry: {e:?}"))?;
        if u64::from_le_bytes(b) != 0xA0 {
            return Err(format!(
                "{label}: child sees {:#x}, expected 0xA0",
                u64::from_le_bytes(b)
            ));
        }
        teardown_clean(&mut os, &mut ctx, &label)?;
        summary.points += 1;
    }
    summary.configs += 1;
    Ok(())
}

// ---- ring-endpoint chaos -----------------------------------------------

/// Geometry of the chaos ring: a few slots, small fixed messages.
const RING_SLOTS: u64 = 4;
const RING_MSG_BYTES: u64 = 16;
/// Messages left in flight across the aborted fork.
const RING_MSGS: u64 = 3;
/// Register carrying the sealed endpoint capability (kernel reserves
/// 0..=2 for the data root / spare / PCC).
const RING_REG: usize = 5;
const RING_NAME: &str = "chaos:ring";

/// Bytes of one slot image, `[stamp | payload]`.
const RING_SLOT_IMAGE: usize = (ring::RING_SLOT_HDR + RING_MSG_BYTES) as usize;

/// Slot image of in-flight message `i`: a zero stamp (a push writes its
/// own) and a deterministic payload.
fn ring_slot(i: u64) -> [u8; RING_SLOT_IMAGE] {
    let (mut b, h) = ([0u8; RING_SLOT_IMAGE], ring::RING_SLOT_HDR as usize);
    b[h..h + 8].copy_from_slice(&(0x5249_4e47_0000_0000u64 | i).to_le_bytes());
    b[h + 8..].copy_from_slice(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
    b
}

/// Extends the standard prelude with a live ring: a `Shm`-backed window,
/// an initialized header, [`RING_MSGS`] messages in flight, and the
/// sealed endpoint capability parked in register [`RING_REG`] where the
/// fork's register-relocation walk will find it.
fn ring_prelude(os: &mut UforkOs, ctx: &mut Ctx) -> Result<Vec<Capability>, String> {
    let caps = prelude(os, ctx)?;
    let window = os
        .shm_open(
            ctx,
            Pid(1),
            RING_NAME,
            ring::ring_bytes(RING_SLOTS, RING_MSG_BYTES).ok_or("ring geometry overflows")?,
        )
        .map_err(|e| format!("ring shm_open: {e:?}"))?;
    ring::ring_init(os, ctx, Pid(1), &window, RING_SLOTS, RING_MSG_BYTES)
        .map_err(|e| format!("ring_init: {e:?}"))?;
    for i in 0..RING_MSGS {
        match ring::ring_push_raw(os, ctx, Pid(1), &window, RING_SLOTS, &mut ring_slot(i), 1.0) {
            Ok(RingPush::Pushed(_)) => {}
            other => return Err(format!("ring push #{i}: {other:?}")),
        }
    }
    let sealed = window
        .seal(OType::RING_ENDPOINT, &ring::seal_authority())
        .map_err(|e| format!("ring seal: {e:?}"))?;
    os.set_reg(Pid(1), RING_REG, sealed)
        .map_err(|e| format!("ring set_reg: {e:?}"))?;
    Ok(caps)
}

/// Fetches `pid`'s endpoint register, demands the seal survived, and
/// unseals it with the machine authority.
fn ring_window(os: &UforkOs, pid: Pid, label: &str) -> Result<Capability, String> {
    let sealed = os
        .reg(pid, RING_REG)
        .map_err(|e| format!("{label}: pid {} endpoint register: {e:?}", pid.0))?;
    if !sealed.is_sealed() {
        return Err(format!(
            "{label}: pid {} endpoint lost its seal across fork",
            pid.0
        ));
    }
    sealed
        .unseal(&ring::seal_authority())
        .map_err(|e| format!("{label}: pid {} endpoint unseal: {e:?}", pid.0))
}

fn ring_pop_expect(
    os: &mut UforkOs,
    ctx: &mut Ctx,
    pid: Pid,
    window: &Capability,
    now: f64,
    label: &str,
) -> Result<u64, String> {
    let mut slot = [0u8; RING_SLOT_IMAGE];
    match ring::ring_pop_raw(os, ctx, pid, window, RING_SLOTS, &mut slot, now) {
        Ok(RingPop::Popped(seq)) => {
            // Pushes always cycle payloads 0..RING_MSGS in order.
            let h = ring::RING_SLOT_HDR as usize;
            let data = &slot[h..];
            if data != &ring_slot(seq % RING_MSGS)[h..] {
                return Err(format!(
                    "{label}: pid {} popped seq {seq} with torn payload {data:x?}",
                    pid.0
                ));
            }
            Ok(seq)
        }
        other => Err(format!("{label}: pid {} pop: {other:?}", pid.0)),
    }
}

/// After an aborted fork the ring must be exactly as it stood: header
/// verified, all in-flight messages present, every payload bitwise
/// intact — a message is in or out, never partial. The messages are
/// popped for inspection and re-pushed to restore the in-flight state.
fn check_ring_untorn(os: &mut UforkOs, ctx: &mut Ctx, label: &str) -> Result<(), String> {
    let w = ring_window(os, Pid(1), label)?;
    ring::ring_verify(os, ctx, Pid(1), &w, RING_SLOTS, RING_MSG_BYTES)
        .map_err(|e| format!("{label}: ring header torn: {e:?}"))?;
    let depth =
        ring::ring_depth(os, ctx, Pid(1), &w).map_err(|e| format!("{label}: ring depth: {e:?}"))?;
    if depth != RING_MSGS {
        return Err(format!(
            "{label}: {depth} messages in flight after abort, want {RING_MSGS}"
        ));
    }
    for _ in 0..RING_MSGS {
        let seq = ring_pop_expect(os, ctx, Pid(1), &w, 10.0, label)?;
        let mut slot = ring_slot(seq % RING_MSGS);
        match ring::ring_push_raw(os, ctx, Pid(1), &w, RING_SLOTS, &mut slot, 11.0) {
            Ok(RingPush::Pushed(_)) => {}
            other => return Err(format!("{label}: restore push: {other:?}")),
        }
    }
    Ok(())
}

/// Journal chaos with live IPC: the fork in flight carries a shared
/// ring with messages enqueued and a sealed endpoint capability in a
/// register. Every journal op of the reference fork is aborted once;
/// each abort must leave no child, no leaked frame (the shm frames'
/// refcounts roll back with everything else), the parent's sealed
/// endpoint untouched, and the ring bitwise untorn. The retry must then
/// relocate the endpoint seal-intact into the child, and parent and
/// child must drain the same shared ring interleaved — connectivity
/// survives the failed fork and the successful one alike.
fn sweep_ring_config(
    strategy: CopyStrategy,
    walk: WalkMode,
    summary: &mut ChaosSummary,
) -> Result<(), String> {
    // Reference run: the journal window of a fork with a live ring.
    let (j0, j1) = {
        let mut os = build(strategy, walk);
        let mut ctx = Ctx::new();
        ring_prelude(&mut os, &mut ctx)?;
        let j0 = os.journal_ops_recorded();
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("ring/{strategy:?}/{walk:?}: reference fork failed: {e:?}"))?;
        (j0, os.journal_ops_recorded())
    };
    if j1 == j0 {
        return Err(format!(
            "ring/{strategy:?}/{walk:?}: fork recorded no journal ops"
        ));
    }
    for op in j0..j1 {
        let label = format!("ring/{strategy:?}/{walk:?} journal op {op}");
        let mut os = build(strategy, walk);
        let mut ctx = Ctx::new();
        let caps = ring_prelude(&mut os, &mut ctx)?;
        let frames_before = os.allocated_frames();
        os.inject_journal_failure(op);
        if os.fork(&mut ctx, Pid(1), Pid(2)).is_ok() {
            return Err(format!("{label}: injected abort was absorbed"));
        }
        if ctx.counters.fork_rollbacks == 0 {
            return Err(format!("{label}: abort did not run a rollback"));
        }
        if os.region_of(Pid(2)).is_ok() {
            return Err(format!("{label}: aborted fork left a child behind"));
        }
        let frames = os.allocated_frames();
        if frames != frames_before {
            return Err(format!(
                "{label}: {} frames leaked ({frames_before} -> {frames})",
                frames as i64 - frames_before as i64
            ));
        }
        check_consistent(&mut os, &mut ctx, &label)?;
        check_ring_untorn(&mut os, &mut ctx, &label)?;
        // Retry: the relocated sealed endpoint must grant the child the
        // same shared window, drained interleaved with the parent.
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("{label}: retry fork failed: {e:?}"))?;
        let cc = child_cap(&os, &caps[0])?;
        let mut b = [0u8; 8];
        os.load(&mut ctx, Pid(2), &cc, &mut b)
            .map_err(|e| format!("{label}: child heap read after retry: {e:?}"))?;
        if u64::from_le_bytes(b) != 0xA0 {
            return Err(format!(
                "{label}: child sees {:#x}, expected 0xA0",
                u64::from_le_bytes(b)
            ));
        }
        let pw = ring_window(&os, Pid(1), &label)?;
        let cw = ring_window(&os, Pid(2), &label)?;
        ring::ring_verify(&mut os, &mut ctx, Pid(2), &cw, RING_SLOTS, RING_MSG_BYTES)
            .map_err(|e| format!("{label}: child ring header: {e:?}"))?;
        // Child, parent, child: each pop must observe the other side's
        // head advance — one ring, two address views.
        let s0 = ring_pop_expect(&mut os, &mut ctx, Pid(2), &cw, 20.0, &label)?;
        let s1 = ring_pop_expect(&mut os, &mut ctx, Pid(1), &pw, 21.0, &label)?;
        let s2 = ring_pop_expect(&mut os, &mut ctx, Pid(2), &cw, 22.0, &label)?;
        if s1 != s0 + 1 || s2 != s0 + 2 {
            return Err(format!(
                "{label}: interleaved drain saw seqs {s0},{s1},{s2} (not consecutive)"
            ));
        }
        for (pid, w) in [(Pid(1), &pw), (Pid(2), &cw)] {
            let depth = ring::ring_depth(&mut os, &mut ctx, pid, w)
                .map_err(|e| format!("{label}: final depth: {e:?}"))?;
            if depth != 0 {
                return Err(format!(
                    "{label}: pid {} still sees {depth} messages after drain",
                    pid.0
                ));
            }
        }
        // Unlink the ring object and tear everything down: with the
        // object's own references dropped and both mappings unmapped,
        // the allocator must balance to zero — no frame or capability
        // outlives the fabric.
        if !os.shm_unlink(RING_NAME) {
            return Err(format!("{label}: ring shm object vanished"));
        }
        teardown_clean(&mut os, &mut ctx, &label)?;
        summary.ring_points += 1;
    }
    Ok(())
}

/// Abort points inside the pipelined background-copy window: a
/// reference run measures the journal ops a full drain of the committed
/// fork's window records, then each op index is aborted in its own
/// replay. At every point the failing chunk must roll back whole —
/// the window only ever shrinks by whole chunks — the kernel must stay
/// balanced, the one-shot injection must not survive into the retry
/// drain, and the fully-drained child must read bit-correct. Teardown
/// to zero frames at each point is the leak check.
fn sweep_pipeline_window(summary: &mut ChaosSummary) -> Result<(), String> {
    let strategy = CopyStrategy::Full;
    let walk = WalkMode::Pipelined;
    // Reference run: fork commits, then the drain's journal window.
    let (j1, j2) = {
        let mut os = build(strategy, walk);
        let mut ctx = Ctx::new();
        prelude(&mut os, &mut ctx)?;
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("pipeline reference fork failed: {e:?}"))?;
        let j1 = os.journal_ops_recorded();
        os.pipeline_drain(&mut ctx, Pid(2))
            .map_err(|e| format!("pipeline reference drain failed: {e:?}"))?;
        (j1, os.journal_ops_recorded())
    };
    if j2 == j1 {
        return Err("pipelined background window recorded no journal ops".into());
    }
    for op in j1..j2 {
        let label = format!("pipeline window op {op}");
        let mut os = build(strategy, walk);
        let mut ctx = Ctx::new();
        let caps = prelude(&mut os, &mut ctx)?;
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("{label}: fork failed: {e:?}"))?;
        let staged = os.pipeline_pending_pages(Pid(2));
        if staged == 0 {
            return Err(format!("{label}: pipelined fork left no window"));
        }
        os.inject_journal_failure(op);
        let rollbacks_before = ctx.counters.fork_rollbacks;
        if os.pipeline_drain(&mut ctx, Pid(2)).is_ok() {
            return Err(format!("{label}: injected chunk abort was absorbed"));
        }
        if ctx.counters.fork_rollbacks == rollbacks_before {
            return Err(format!("{label}: chunk abort did not run a rollback"));
        }
        // Chunk atomicity: the window shrinks only in whole chunks, so
        // the failing chunk is exactly as staged — never in between.
        let pending = os.pipeline_pending_pages(Pid(2));
        if pending == 0 || !(staged - pending).is_multiple_of(ufork::CHUNK_PAGES as u64) {
            return Err(format!(
                "{label}: window went {staged} -> {pending} pages (not chunk-aligned)"
            ));
        }
        check_consistent(&mut os, &mut ctx, &label)?;
        // The injection is one-shot: the retry drain must complete and
        // the child must end bit-correct.
        os.pipeline_drain(&mut ctx, Pid(2))
            .map_err(|e| format!("{label}: retry drain failed: {e:?}"))?;
        if os.pipeline_pending_pages(Pid(2)) != 0 {
            return Err(format!("{label}: window still open after retry drain"));
        }
        let cc = child_cap(&os, &caps[0])?;
        let mut b = [0u8; 8];
        os.load(&mut ctx, Pid(2), &cc, &mut b)
            .map_err(|e| format!("{label}: child read after drain: {e:?}"))?;
        if u64::from_le_bytes(b) != 0xA0 {
            return Err(format!(
                "{label}: child sees {:#x}, expected 0xA0",
                u64::from_le_bytes(b)
            ));
        }
        teardown_clean(&mut os, &mut ctx, &label)?;
        summary.pipeline_points += 1;
    }
    Ok(())
}

/// Forks in the chaos snapshot train (the "10-deep" of the refcount
/// leak-freedom requirement: clean frames end up shared by the parent
/// plus up to ten live snapshot children).
const TRAIN_DEPTH: u32 = 10;

fn build_train(walk: WalkMode) -> UforkOs {
    UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy: CopyStrategy::Full,
        walk,
        track_dirty: true,
        dedup_frames: true,
        ..UforkConfig::default()
    })
}

/// The value the train's round-`r` store writes into surviving slot
/// `r % 4`, and the value slot 0 held when the round-`r` child forked
/// (slot 0 is rewritten at rounds 0, 4, 8).
fn train_value(round: u32) -> u64 {
    0xD0 + u64::from(round)
}
fn train_slot0_at(round: u32) -> u64 {
    train_value(round - round % 4)
}

/// Drives one 10-deep snapshot train: per round, dirty one surviving
/// slot, fork a child that stays alive, and drain any pipelined window.
/// An injected journal abort is fatal for the syscall it lands in — the
/// op rolls back and surfaces an error — and the train then retries
/// that one step (the injection is one-shot). Returns how many aborts
/// surfaced.
fn drive_train(
    os: &mut UforkOs,
    ctx: &mut Ctx,
    caps: &[ufork_cheri::Capability],
    label: &str,
) -> Result<u32, String> {
    let mut aborts = 0u32;
    for round in 0..TRAIN_DEPTH {
        let child = Pid(2 + round);
        let slot = &caps[(round % 4) as usize];
        let bytes = train_value(round).to_le_bytes();
        if let Err(e) = os.store(ctx, Pid(1), slot, &bytes) {
            aborts += 1;
            os.store(ctx, Pid(1), slot, &bytes).map_err(|e2| {
                format!("{label}: round {round} store retry ({e:?}) failed: {e2:?}")
            })?;
        }
        let frames_before = os.allocated_frames();
        if let Err(e) = os.fork(ctx, Pid(1), child) {
            aborts += 1;
            if os.region_of(child).is_ok() {
                return Err(format!("{label}: aborted round-{round} fork left a child"));
            }
            if os.allocated_frames() != frames_before {
                return Err(format!("{label}: aborted round-{round} fork leaked frames"));
            }
            os.fork(ctx, Pid(1), child).map_err(|e2| {
                format!("{label}: round {round} fork retry ({e:?}) failed: {e2:?}")
            })?;
        }
        if let Err(e) = os.pipeline_drain(ctx, child) {
            aborts += 1;
            os.pipeline_drain(ctx, child).map_err(|e2| {
                format!("{label}: round {round} drain retry ({e:?}) failed: {e2:?}")
            })?;
        }
    }
    Ok(aborts)
}

/// Every child of the train is a point-in-time snapshot: round `r`'s
/// child must see slot 0 as it stood at its own fork, not the parent's
/// latest write — the dirty scope shares clean pages but must never
/// share dirty ones.
fn check_train_snapshots(
    os: &mut UforkOs,
    ctx: &mut Ctx,
    caps: &[ufork_cheri::Capability],
    label: &str,
) -> Result<(), String> {
    let p_root = os
        .reg(Pid(1), 0)
        .map_err(|e| format!("{label}: p root: {e:?}"))?;
    for round in 0..TRAIN_DEPTH {
        let child = Pid(2 + round);
        let c_root = os
            .reg(child, 0)
            .map_err(|e| format!("{label}: child {round} root: {e:?}"))?;
        let delta = c_root.base() as i64 - p_root.base() as i64;
        let cc = caps[0]
            .rebase(delta, &c_root)
            .map_err(|e| format!("{label}: child {round} rebase: {e:?}"))?;
        let mut b = [0u8; 8];
        os.load(ctx, child, &cc, &mut b)
            .map_err(|e| format!("{label}: child {round} read: {e:?}"))?;
        let want = train_slot0_at(round);
        if u64::from_le_bytes(b) != want {
            return Err(format!(
                "{label}: round-{round} child sees {:#x}, expected its fork-time {want:#x}",
                u64::from_le_bytes(b)
            ));
        }
    }
    Ok(())
}

/// Tears the whole train down — ten children sharing clean frames with
/// the parent through refcounts (and dedup'd frames with each other) —
/// and requires the allocator to balance to zero: the refcount
/// leak-freedom check of the dirty-scope machinery.
fn teardown_train(os: &mut UforkOs, ctx: &mut Ctx, label: &str) -> Result<(), String> {
    for round in 0..TRAIN_DEPTH {
        let child = Pid(2 + round);
        if os.region_of(child).is_ok() {
            os.destroy(ctx, child);
        }
    }
    teardown_clean(os, ctx, label)
}

/// Journal chaos across the dirty-scope snapshot train: a reference
/// train measures the journal window of ten generation-stamped forks
/// (dirty stamps, dirty-track cursor updates, clean-share and dedup
/// refcount bumps, plus everything the base walk records), then each op
/// index is aborted in its own replay. The abort must surface from
/// exactly the step it lands in, that step must retry clean, every
/// later child must still see its own fork-time snapshot, and teardown
/// of the full train must balance to zero frames. The window is
/// enumerated from `journal_ops_recorded`, so any journal op added to
/// the dirty-scope path widens this sweep automatically.
fn sweep_snapshot_train(walk: WalkMode, summary: &mut ChaosSummary) -> Result<(), String> {
    // Reference run: the train's journal window, and zero aborts.
    let (j0, j1) = {
        let mut os = build_train(walk);
        let mut ctx = Ctx::new();
        let caps = prelude(&mut os, &mut ctx)?;
        let j0 = os.journal_ops_recorded();
        let aborts = drive_train(&mut os, &mut ctx, &caps, "train reference")?;
        if aborts != 0 {
            return Err(format!(
                "train/{walk:?}: reference run aborted {aborts} times"
            ));
        }
        check_train_snapshots(&mut os, &mut ctx, &caps, "train reference")?;
        teardown_train(&mut os, &mut ctx, "train reference")?;
        (j0, os.journal_ops_recorded())
    };
    if j1 == j0 {
        return Err(format!("train/{walk:?}: train recorded no journal ops"));
    }
    for op in j0..j1 {
        let label = format!("train/{walk:?} journal op {op}");
        let mut os = build_train(walk);
        let mut ctx = Ctx::new();
        let caps = prelude(&mut os, &mut ctx)?;
        os.inject_journal_failure(op);
        let aborts = drive_train(&mut os, &mut ctx, &caps, &label)?;
        if aborts != 1 {
            return Err(format!(
                "{label}: expected exactly 1 surfaced abort, saw {aborts}"
            ));
        }
        if ctx.counters.fork_rollbacks == 0 {
            return Err(format!("{label}: abort did not run a rollback"));
        }
        check_train_snapshots(&mut os, &mut ctx, &caps, &label)?;
        check_consistent(&mut os, &mut ctx, &label)?;
        teardown_train(&mut os, &mut ctx, &label)?;
        summary.train_points += 1;
    }
    Ok(())
}

// ---- background-reclaim and OOM-teardown chaos -------------------------

/// Machine-global allocator snapshot for the reclaim/OOM abort checks.
fn alloc_snapshot(os: &UforkOs) -> (u64, u64, u64) {
    let s = os.mem_stats(Pid(1));
    (
        u64::from(os.allocated_frames()),
        s.pending_scrub,
        s.magazine_depth,
    )
}

/// Builds a kernel with the background reclaim daemon enabled, a parent
/// with the standard oracle heap, a forked-and-destroyed child whose
/// frames now sit unscrubbed on the free stack, and the pressure
/// watermarks forced up so the hysteretic level reads `Elevated` —
/// exactly the state in which the executive would arm the daemon.
fn reclaim_prelude(os: &mut UforkOs, ctx: &mut Ctx) -> Result<Vec<Capability>, String> {
    let caps = prelude(os, ctx)?;
    os.fork(ctx, Pid(1), Pid(2))
        .map_err(|e| format!("reclaim prelude fork: {e:?}"))?;
    os.destroy(ctx, Pid(2));
    // 256 MiB = 65536 frames; a high watermark at capacity means any
    // allocation at all leaves availability below it.
    os.set_pressure_watermarks(32_768, 65_536);
    Ok(caps)
}

fn build_reclaim() -> UforkOs {
    UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy: CopyStrategy::Full,
        walk: WalkMode::Serial,
        reclaim_daemon: true,
        ..UforkConfig::default()
    })
}

/// Abort points inside the background reclaim daemon: a reference run
/// measures the journal window of a full scrub drain (every pooled
/// frame scrubbed into the clean-frame magazine, batch by batch), then
/// each `FrameScrub` op index is aborted in its own replay. The dying
/// pass must roll back whole — allocated frames, the unscrubbed-pool
/// count and the magazine depth all exactly as before the pass — the
/// one-shot injection must not survive into the retry, the drain must
/// then complete, and a subsequent fork must actually *hit* the
/// magazine its scrubs filled (pre-zeroed frames served on the fork
/// hot path). Teardown to zero frames at each point is the leak check.
fn sweep_reclaim_window(summary: &mut ChaosSummary) -> Result<(), String> {
    // Reference run: the journal window of a full drain.
    let (j0, j1) = {
        let mut os = build_reclaim();
        let mut ctx = Ctx::new();
        reclaim_prelude(&mut os, &mut ctx)?;
        let j0 = os.journal_ops_recorded();
        loop {
            match os.reclaim_step(&mut ctx) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => return Err(format!("reference reclaim drain failed: {e:?}")),
            }
        }
        (j0, os.journal_ops_recorded())
    };
    if j1 == j0 {
        return Err("reclaim drain recorded no journal ops".into());
    }
    for op in j0..j1 {
        let label = format!("reclaim op {op}");
        let mut os = build_reclaim();
        let mut ctx = Ctx::new();
        let caps = reclaim_prelude(&mut os, &mut ctx)?;
        let (frames0, pending0, depth0) = alloc_snapshot(&os);
        if pending0 == 0 {
            return Err(format!("{label}: prelude left nothing to scrub"));
        }
        os.inject_journal_failure(op);
        let rollbacks_before = ctx.counters.fork_rollbacks;
        let mut aborts = 0u32;
        loop {
            let before = alloc_snapshot(&os);
            match os.reclaim_step(&mut ctx) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    aborts += 1;
                    let after = alloc_snapshot(&os);
                    if after != before {
                        return Err(format!(
                            "{label}: dying pass leaked state ({before:?} -> {after:?})"
                        ));
                    }
                }
            }
        }
        if aborts != 1 {
            return Err(format!("{label}: expected 1 surfaced abort, saw {aborts}"));
        }
        if ctx.counters.fork_rollbacks == rollbacks_before {
            return Err(format!("{label}: abort did not run a rollback"));
        }
        let (frames1, pending1, depth1) = alloc_snapshot(&os);
        if frames1 != frames0 {
            return Err(format!(
                "{label}: drain changed allocated frames ({frames0} -> {frames1})"
            ));
        }
        if pending1 != 0 || depth1 != depth0 + pending0 {
            return Err(format!(
                "{label}: drain left {pending1} unscrubbed, magazine {depth0}+{pending0} \
                 -> {depth1}"
            ));
        }
        if ctx.counters.frames_prezeroed < pending0 {
            return Err(format!(
                "{label}: only {} frames counted prezeroed of {pending0}",
                ctx.counters.frames_prezeroed
            ));
        }
        // The payoff: a fork right after the drain must serve its child
        // copies from the magazine the daemon filled.
        let hits_before = ctx.counters.magazine_hits;
        os.fork(&mut ctx, Pid(1), Pid(2))
            .map_err(|e| format!("{label}: post-drain fork failed: {e:?}"))?;
        if ctx.counters.magazine_hits == hits_before {
            return Err(format!("{label}: post-drain fork hit no magazine frame"));
        }
        let cc = child_cap(&os, &caps[0])?;
        let mut b = [0u8; 8];
        os.load(&mut ctx, Pid(2), &cc, &mut b)
            .map_err(|e| format!("{label}: child read: {e:?}"))?;
        if u64::from_le_bytes(b) != 0xA0 {
            return Err(format!(
                "{label}: child sees {:#x}, expected 0xA0",
                u64::from_le_bytes(b)
            ));
        }
        check_consistent(&mut os, &mut ctx, &label)?;
        teardown_clean(&mut os, &mut ctx, &label)?;
        summary.reclaim_points += 1;
    }
    Ok(())
}

/// Abort points inside the OOM victim memory teardown: a reference run
/// measures the journal window of one `oom_reap` of a forked child
/// (every mapped PTE detach recorded before the batched unmap), then
/// each op index is aborted in its own replay. An aborted kill must
/// leave the victim *completely untouched* — region present, heap
/// bit-readable, not a frame moved — because a victim that survives the
/// abort must still be killable by the retry, which must then release
/// its memory in full. Swept under the eager, CoW-sharing and pipelined
/// walks, since each leaves different reference-count shapes for the
/// teardown to unwind.
fn sweep_oom_teardown(summary: &mut ChaosSummary) -> Result<(), String> {
    const OOM_CONFIGS: [(CopyStrategy, WalkMode); 3] = [
        (CopyStrategy::Full, WalkMode::Serial),
        (CopyStrategy::CoA, WalkMode::Serial),
        (CopyStrategy::Full, WalkMode::Pipelined),
    ];
    for (strategy, walk) in OOM_CONFIGS {
        // Reference run: the reap's journal window.
        let (j0, j1) = {
            let mut os = build(strategy, walk);
            let mut ctx = Ctx::new();
            prelude(&mut os, &mut ctx)?;
            os.fork(&mut ctx, Pid(1), Pid(2))
                .map_err(|e| format!("oom/{strategy:?}/{walk:?}: reference fork: {e:?}"))?;
            let j0 = os.journal_ops_recorded();
            os.oom_reap(&mut ctx, Pid(2))
                .map_err(|e| format!("oom/{strategy:?}/{walk:?}: reference reap: {e:?}"))?;
            (j0, os.journal_ops_recorded())
        };
        if j1 == j0 {
            return Err(format!(
                "oom/{strategy:?}/{walk:?}: reap recorded no journal ops"
            ));
        }
        for op in j0..j1 {
            let label = format!("oom/{strategy:?}/{walk:?} journal op {op}");
            let mut os = build(strategy, walk);
            let mut ctx = Ctx::new();
            let caps = prelude(&mut os, &mut ctx)?;
            os.fork(&mut ctx, Pid(1), Pid(2))
                .map_err(|e| format!("{label}: fork failed: {e:?}"))?;
            let frames_before = os.allocated_frames();
            os.inject_journal_failure(op);
            let rollbacks_before = ctx.counters.fork_rollbacks;
            if os.oom_reap(&mut ctx, Pid(2)).is_ok() {
                return Err(format!("{label}: injected reap abort was absorbed"));
            }
            if ctx.counters.fork_rollbacks == rollbacks_before {
                return Err(format!("{label}: reap abort did not run a rollback"));
            }
            // The victim survives an aborted kill untouched.
            if os.region_of(Pid(2)).is_err() {
                return Err(format!("{label}: aborted reap lost the victim"));
            }
            if os.allocated_frames() != frames_before {
                return Err(format!(
                    "{label}: aborted reap moved frames ({frames_before} -> {})",
                    os.allocated_frames()
                ));
            }
            // Heap integrity check after the frame balance: under CoA
            // this read legitimately materializes a lazily-shared page.
            let cc = child_cap(&os, &caps[0])?;
            let mut b = [0u8; 8];
            os.load(&mut ctx, Pid(2), &cc, &mut b)
                .map_err(|e| format!("{label}: victim read after abort: {e:?}"))?;
            if u64::from_le_bytes(b) != 0xA0 {
                return Err(format!(
                    "{label}: victim sees {:#x} after abort, expected 0xA0",
                    u64::from_le_bytes(b)
                ));
            }
            check_consistent(&mut os, &mut ctx, &label)?;
            // The injection is one-shot: the retried kill must complete
            // and actually release the victim's memory.
            os.oom_reap(&mut ctx, Pid(2))
                .map_err(|e| format!("{label}: retry reap failed: {e:?}"))?;
            if os.region_of(Pid(2)).is_ok() {
                return Err(format!("{label}: victim still present after retry reap"));
            }
            teardown_clean(&mut os, &mut ctx, &label)?;
            summary.oom_points += 1;
        }
    }
    Ok(())
}

/// Which fault a mid-storm scenario arms once the storm is in flight.
#[derive(Clone, Copy, Debug)]
enum StormFault {
    /// A fatal journal abort: the fork in flight rolls back and fails,
    /// and the zygote's retry loop must absorb the failure.
    Journal,
    /// An allocator `NoMem`: the kernel's reclaim-then-retry loop may
    /// absorb it internally, or surface it for the zygote to retry.
    Alloc,
}

/// Mid-storm chaos: run a fork storm on the event-driven scheduler with
/// hundreds of live children, arm a one-shot fault *mid-flight* (after
/// the storm has built up real concurrency), and require the storm to
/// finish as if nothing happened — every child completed, the zygote
/// exits 0, and teardown balances to zero frames. Unlike
/// [`sweep_config`], the fork here fails under load, between thousands
/// of scheduler events, with the allocator warm and the journal window
/// mid-stream — the realistic shape of the failure, not the lab one.
fn storm_chaos(
    strategy: CopyStrategy,
    walk: WalkMode,
    fault: StormFault,
    summary: &mut ChaosSummary,
) -> Result<(), String> {
    const CHILDREN: u32 = 300;
    const ARMED_AFTER_FORKS: usize = 100;
    let label = format!("storm/{strategy:?}/{walk:?}/{fault:?}");
    let os = UforkOs::new(UforkConfig {
        phys_mib: 256,
        strategy,
        walk,
        ..UforkConfig::default()
    });
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores: 4,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(StormZygote::new(StormConfig::standard(CHILDREN, 0xC0A5))),
        )
        .map_err(|e| format!("{label}: spawn failed: {e:?}"))?;
    // Let the storm build up: arm only once a third of the children are
    // already live and forking is in full swing.
    while m.fork_log().len() < ARMED_AFTER_FORKS {
        if !m.step() {
            return Err(format!(
                "{label}: machine drained after {} forks, before arming",
                m.fork_log().len()
            ));
        }
    }
    match fault {
        StormFault::Journal => m.os.inject_journal_failure(m.os.journal_ops_recorded() + 7),
        StormFault::Alloc => {
            m.os.inject_frame_alloc_failure(m.os.frame_alloc_attempts() + 13)
        }
    }
    m.run();
    if m.exit_code(pid) != Some(0) {
        return Err(format!(
            "{label}: zygote exited {:?}, expected 0",
            m.exit_code(pid)
        ));
    }
    let z = m
        .program::<StormZygote>(pid)
        .ok_or_else(|| format!("{label}: zygote state lost"))?;
    if z.completed != CHILDREN {
        return Err(format!(
            "{label}: {} of {CHILDREN} children completed",
            z.completed
        ));
    }
    if let StormFault::Journal = fault {
        // A journal abort always records a rollback, wherever it lands.
        if m.counters().fork_rollbacks == 0 {
            return Err(format!("{label}: no rollback recorded"));
        }
        // Under the serial/parallel walks the abort necessarily hits a
        // fork in flight, so it surfaces to the zygote's retry loop.
        // Under the pipelined walk it may instead land in a background
        // chunk, where the copy engine (or a demand fault) re-runs the
        // chunk without any program-visible failure — so no retry is
        // required there.
        if walk != WalkMode::Pipelined && z.retries == 0 {
            return Err(format!("{label}: zygote absorbed no fork failure"));
        }
    }
    let frames = m.os.allocated_frames();
    if frames != 0 {
        return Err(format!("{label}: {frames} frames leaked after drain"));
    }
    summary.storm_scenarios += 1;
    summary.storm_retries += u64::from(z.retries);
    summary.storm_rollbacks += m.counters().fork_rollbacks;
    Ok(())
}

/// Runs the whole sweep; returns what was exercised.
pub fn chaos_sweep() -> Result<ChaosSummary, String> {
    let mut summary = ChaosSummary::default();
    for (strategy, walk) in CONFIGS {
        sweep_config(strategy, walk, &mut summary)?;
    }
    // The same abort sweep with live ring endpoints in flight: every
    // strategy × walk, since each walk has its own Shm refcount-share
    // arm and register-relocation schedule to unwind.
    for (strategy, walk) in CONFIGS {
        sweep_ring_config(strategy, walk, &mut summary)?;
    }
    sweep_pipeline_window(&mut summary)?;
    sweep_reclaim_window(&mut summary)?;
    sweep_oom_teardown(&mut summary)?;
    // The dirty-scope snapshot train, under the serial and pipelined
    // walks (the two the 0.25× bench gate holds).
    sweep_snapshot_train(WalkMode::Serial, &mut summary)?;
    sweep_snapshot_train(WalkMode::Pipelined, &mut summary)?;
    for strategy in [CopyStrategy::Full, CopyStrategy::CoA, CopyStrategy::CoPA] {
        for fault in [StormFault::Journal, StormFault::Alloc] {
            storm_chaos(strategy, WalkMode::default(), fault, &mut summary)?;
        }
    }
    // The pipelined walk under load: the injection lands mid-storm,
    // either in a fork in flight or inside a background-copy chunk.
    for fault in [StormFault::Journal, StormFault::Alloc] {
        storm_chaos(CopyStrategy::Full, WalkMode::Pipelined, fault, &mut summary)?;
    }
    Ok(summary)
}
