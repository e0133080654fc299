//! Auto-enumerated chaos sweep over the transactional fork journal.
//!
//! Where [`crate::fault`] fails *allocations*, this sweep aborts at
//! *journal op* granularity: each leg of the abort-point sweep
//! (`crate::sweep`) arms [`UforkOs::inject_journal_failure`] at every
//! op its operation records. Injected aborts are fatal — the kernel's
//! reclaim-then-retry loop must *not* absorb them — so each point must
//! show a textbook transactional abort: the operation fails once with a
//! rollback, leaves nothing half-done, the kernel stays consistent, a
//! retry succeeds bit-correct, and teardown returns every frame.
//!
//! The legs: the fork under each copy strategy and walk, with and
//! without a live shared-memory ring in flight; the pipelined fork's
//! per-chunk background copy (`crates/core/src/pipeline.rs`); a 10-deep
//! dirty-scope snapshot train; background-reclaim scrub passes; and OOM
//! victim teardowns. Mid-storm injections (`storm_chaos`) then fail a
//! fork under scheduler load.

use std::fmt;

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::{CopyStrategy, Errno, ImageSpec, Pid};
use ufork_cheri::{Capability, OType};
use ufork_exec::ring::{self, RingPop, RingPush};
use ufork_exec::{Ctx, Machine, MachineConfig, MemOs};
use ufork_workloads::storm::{StormConfig, StormZygote};

use crate::sweep::{
    fork, forked_prelude, frames_balanced, kernel, prelude, surfaced, sweep, Counter, Leg, Run,
};

/// What the sweep exercised (for reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Fork journal ops replayed with an injected abort.
    pub points: u64,
    /// Abort points replayed with live shared-memory ring endpoints.
    pub ring_points: u64,
    /// Abort points inside the pipelined background-copy window.
    pub pipeline_points: u64,
    /// Abort points inside the 10-deep dirty-scope snapshot train.
    pub train_points: u64,
    /// Mid-storm injection scenarios run to clean completion.
    pub storm_scenarios: u64,
    /// Abort points inside background-reclaim scrub passes.
    pub reclaim_points: u64,
    /// Abort points inside OOM victim memory teardowns.
    pub oom_points: u64,
}

impl fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fork, {} ring, {} pipeline-window, {} snapshot-train, {} reclaim and {} OOM \
             journal-op aborts, all rolled back leak-free; {} mid-storm injection scenarios \
             completed clean",
            self.points,
            self.ring_points,
            self.pipeline_points,
            self.train_points,
            self.reclaim_points,
            self.oom_points,
            self.storm_scenarios
        )
    }
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

/// An aborted fork leaves no child and every frame where it was.
fn fork_left_nothing(run: &mut Run) -> Result<(), String> {
    if run.os.region_of(Pid(2)).is_ok() {
        return Err(run.err("aborted fork left a child behind"));
    }
    run.frames_balanced()
}

/// The injection is one-shot: the retry must produce a complete, correct
/// child.
fn retry_fork(run: &mut Run) -> Result<(), String> {
    run.os
        .fork(&mut run.ctx, Pid(1), Pid(2))
        .map_err(|e| run.err(format_args!("retry fork failed: {e:?}")))?;
    run.child_reads(Pid(2), 0xA0)
}

fn fork_leg(strategy: CopyStrategy, walk: WalkMode) -> Leg {
    Leg {
        check: fork_left_nothing,
        retry: retry_fork,
        ..Leg::new(
            format!("fork/{strategy:?}/{walk:?}"),
            Counter::JournalOps,
            kernel(strategy, walk),
            prelude,
            fork,
        )
    }
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
    let popped = ring::ring_pop_raw(os, ctx, pid, window, RING_SLOTS, &mut slot, now);
    let Ok(RingPop::Popped(seq)) = popped else {
        return Err(format!("{label}: pid {} pop: {popped:?}", pid.0));
    };
    // Pushes always cycle payloads 0..RING_MSGS in order.
    let h = ring::RING_SLOT_HDR as usize;
    if slot[h..] != ring_slot(seq % RING_MSGS)[h..] {
        let data = &slot[h..];
        return Err(format!(
            "{label}: pid {} popped seq {seq} with torn payload {data:x?}",
            pid.0
        ));
    }
    Ok(seq)
}

/// After an aborted fork the ring must be exactly as it stood: header
/// verified, all in-flight messages present, every payload bitwise
/// intact — a message is in or out, never partial. The messages are
/// popped for inspection and re-pushed to restore the in-flight state.
fn check_ring_untorn(run: &mut Run) -> Result<(), String> {
    let Run { os, ctx, label, .. } = run;
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
/// register. Each abort must leave no child, no leaked frame (the shm
/// frames' refcounts roll back with everything else), the parent's
/// sealed endpoint untouched, and the ring bitwise untorn. The retry must
/// then relocate the endpoint seal-intact into the child, and parent and
/// child must drain the same shared ring interleaved — connectivity
/// survives the failed fork and the successful one alike.
fn ring_leg(strategy: CopyStrategy, walk: WalkMode) -> Leg {
    Leg {
        check: fork_left_nothing,
        retry: |run| {
            check_ring_untorn(run)?;
            retry_fork(run)?;
            drain_shared_ring(run)
        },
        // With the object's own references dropped and both mappings
        // unmapped by teardown, the allocator must balance to zero: no
        // frame or capability outlives the fabric.
        release: |run| {
            run.os
                .shm_unlink(RING_NAME)
                .then_some(())
                .ok_or_else(|| run.err("ring shm object vanished"))
        },
        ..Leg::new(
            format!("ring/{strategy:?}/{walk:?}"),
            Counter::JournalOps,
            kernel(strategy, walk),
            ring_prelude,
            fork,
        )
    }
}

/// After a retried fork, the relocated sealed endpoint must grant the
/// child the same shared window: child, parent, child pop in turn, each
/// observing the other side's head advance — one ring, two address views.
fn drain_shared_ring(run: &mut Run) -> Result<(), String> {
    let Run { os, ctx, label, .. } = run;
    let pw = ring_window(os, Pid(1), label)?;
    let cw = ring_window(os, Pid(2), label)?;
    ring::ring_verify(os, ctx, Pid(2), &cw, RING_SLOTS, RING_MSG_BYTES)
        .map_err(|e| format!("{label}: child ring header: {e:?}"))?;
    let s0 = ring_pop_expect(os, ctx, Pid(2), &cw, 20.0, label)?;
    let s1 = ring_pop_expect(os, ctx, Pid(1), &pw, 21.0, label)?;
    let s2 = ring_pop_expect(os, ctx, Pid(2), &cw, 22.0, label)?;
    if s1 != s0 + 1 || s2 != s0 + 2 {
        return Err(format!(
            "{label}: interleaved drain saw seqs {s0},{s1},{s2} (not consecutive)"
        ));
    }
    for (pid, w) in [(Pid(1), &pw), (Pid(2), &cw)] {
        let depth = ring::ring_depth(os, ctx, pid, w)
            .map_err(|e| format!("{label}: final depth: {e:?}"))?;
        if depth != 0 {
            return Err(format!(
                "{label}: pid {} still sees {depth} messages after drain",
                pid.0
            ));
        }
    }
    Ok(())
}

/// Abort points inside the pipelined background-copy window: the fork
/// commits in the prelude, and each journal op of the drain is aborted.
/// The failing chunk must roll back whole — the window only ever shrinks
/// by whole chunks — the one-shot injection must not survive into the
/// retry drain, and the fully-drained child must read bit-correct.
fn pipeline_leg() -> Leg {
    Leg {
        retry: |run| {
            run.os
                .pipeline_drain(&mut run.ctx, Pid(2))
                .map_err(|e| run.err(format_args!("retry drain failed: {e:?}")))?;
            if run.os.pipeline_pending_pages(Pid(2)) != 0 {
                return Err(run.err("window still open after retry drain"));
            }
            run.child_reads(Pid(2), 0xA0)
        },
        ..Leg::new(
            "pipeline".into(),
            Counter::JournalOps,
            kernel(CopyStrategy::Full, WalkMode::Pipelined),
            forked_prelude,
            |run| {
                let staged = run.os.pipeline_pending_pages(Pid(2));
                if staged == 0 {
                    return Err(run.err("pipelined fork left no window"));
                }
                let Err(e) = run.os.pipeline_drain(&mut run.ctx, Pid(2)) else {
                    return Ok(Vec::new());
                };
                // Chunk atomicity: the window shrinks only in whole
                // chunks, so the failing chunk is exactly as staged.
                let pending = run.os.pipeline_pending_pages(Pid(2));
                if pending == 0 || !(staged - pending).is_multiple_of(ufork::CHUNK_PAGES as u64) {
                    return Err(run.err(format_args!(
                        "window went {staged} -> {pending} pages (not chunk-aligned)"
                    )));
                }
                Ok(vec![e])
            },
        )
    }
}

/// Forks in the chaos snapshot train (the "10-deep" of the refcount
/// leak-freedom requirement: clean frames end up shared by the parent
/// plus up to ten live snapshot children).
const TRAIN_DEPTH: u32 = 10;

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
/// that one step (the injection is one-shot). Returns the aborts that
/// surfaced.
fn drive_train(run: &mut Run) -> Result<Vec<Errno>, String> {
    let (os, ctx, caps, label) = (&mut run.os, &mut run.ctx, &run.caps, &run.label);
    let mut aborts = Vec::new();
    for round in 0..TRAIN_DEPTH {
        let child = Pid(2 + round);
        let slot = &caps[(round % 4) as usize];
        let bytes = train_value(round).to_le_bytes();
        if let Err(e) = os.store(ctx, Pid(1), slot, &bytes) {
            aborts.push(e);
            os.store(ctx, Pid(1), slot, &bytes).map_err(|e2| {
                format!("{label}: round {round} store retry ({e:?}) failed: {e2:?}")
            })?;
        }
        let frames_before = os.allocated_frames();
        if let Err(e) = os.fork(ctx, Pid(1), child) {
            aborts.push(e);
            if os.region_of(child).is_ok() {
                return Err(format!("{label}: aborted round-{round} fork left a child"));
            }
            frames_balanced(os, frames_before, label)?;
            os.fork(ctx, Pid(1), child).map_err(|e2| {
                format!("{label}: round {round} fork retry ({e:?}) failed: {e2:?}")
            })?;
        }
        if let Err(e) = os.pipeline_drain(ctx, child) {
            aborts.push(e);
            os.pipeline_drain(ctx, child).map_err(|e2| {
                format!("{label}: round {round} drain retry ({e:?}) failed: {e2:?}")
            })?;
        }
    }
    Ok(aborts)
}

/// Journal chaos across the dirty-scope snapshot train: the window spans
/// ten generation-stamped forks (dirty stamps, dirty-track cursor
/// updates, clean-share and dedup refcount bumps, plus everything the
/// base walk records). The abort must surface from exactly the step it
/// lands in, that step must retry clean, every child must still see its
/// own fork-time snapshot, and teardown of the full train must balance to
/// zero frames: the refcount leak-freedom check of the dirty-scope
/// machinery, with clean frames shared by the parent and up to ten live
/// children (and dedup'd frames shared between children).
fn train_leg(walk: WalkMode) -> Leg {
    Leg {
        release: |run| {
            for round in 0..TRAIN_DEPTH {
                let child = Pid(2 + round);
                if run.os.region_of(child).is_ok() {
                    run.os.destroy(&mut run.ctx, child);
                }
            }
            Ok(())
        },
        ..Leg::new(
            format!("train/{walk:?}"),
            Counter::JournalOps,
            UforkConfig {
                track_dirty: true,
                dedup_frames: true,
                ..kernel(CopyStrategy::Full, walk)
            },
            prelude,
            |run| {
                let aborts = drive_train(run)?;
                // Every child is a point-in-time snapshot: round `r`'s
                // child sees slot 0 as it stood at its own fork, not the
                // parent's latest write — the dirty scope shares clean
                // pages but must never share dirty ones.
                for round in 0..TRAIN_DEPTH {
                    run.child_reads(Pid(2 + round), train_slot0_at(round))?;
                }
                Ok(aborts)
            },
        )
    }
}

// ---- background-reclaim and OOM-teardown chaos -------------------------

/// Machine-global allocator snapshot for the reclaim abort checks.
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
    let caps = forked_prelude(os, ctx)?;
    os.destroy(ctx, Pid(2));
    // 256 MiB = 65536 frames; a high watermark at capacity means any
    // allocation at all leaves availability below it.
    os.set_pressure_watermarks(32_768, 65_536);
    if os.mem_stats(Pid(1)).pending_scrub == 0 {
        return Err("reclaim prelude left nothing to scrub".into());
    }
    Ok(caps)
}

/// Abort points inside the background reclaim daemon: the window is a
/// full scrub drain (every pooled frame scrubbed into the clean-frame
/// magazine, batch by batch). The dying pass must roll back whole —
/// allocated frames, the unscrubbed-pool count and the magazine depth
/// all exactly as before the pass — the one-shot injection must not
/// survive into the retry, the drain must then complete, and a
/// subsequent fork must actually *hit* the magazine its scrubs filled
/// (pre-zeroed frames served on the fork hot path).
fn reclaim_leg() -> Leg {
    Leg {
        // The payoff: a fork right after the drain must serve its child
        // copies from the magazine the daemon filled.
        check: |run| {
            let hits_before = run.ctx.counters.magazine_hits;
            run.os
                .fork(&mut run.ctx, Pid(1), Pid(2))
                .map_err(|e| run.err(format_args!("post-drain fork failed: {e:?}")))?;
            if run.ctx.counters.magazine_hits == hits_before {
                return Err(run.err("post-drain fork hit no magazine frame"));
            }
            run.child_reads(Pid(2), 0xA0)
        },
        ..Leg::new(
            "reclaim".into(),
            Counter::JournalOps,
            UforkConfig {
                reclaim_daemon: true,
                ..kernel(CopyStrategy::Full, WalkMode::Serial)
            },
            reclaim_prelude,
            |run| {
                let (_, pending0, depth0) = alloc_snapshot(&run.os);
                let mut aborts = Vec::new();
                loop {
                    let before = alloc_snapshot(&run.os);
                    match run.os.reclaim_step(&mut run.ctx) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) => {
                            aborts.push(e);
                            let after = alloc_snapshot(&run.os);
                            if after != before {
                                return Err(run.err(format_args!(
                                    "dying pass leaked state ({before:?} -> {after:?})"
                                )));
                            }
                        }
                    }
                }
                run.frames_balanced()?;
                let (_, pending1, depth1) = alloc_snapshot(&run.os);
                if pending1 != 0 || depth1 != depth0 + pending0 {
                    return Err(run.err(format_args!(
                        "drain left {pending1} unscrubbed, magazine {depth0}+{pending0} -> {depth1}"
                    )));
                }
                if run.ctx.counters.frames_prezeroed < pending0 {
                    return Err(run.err(format_args!(
                        "only {} frames counted prezeroed of {pending0}",
                        run.ctx.counters.frames_prezeroed
                    )));
                }
                Ok(aborts)
            },
        )
    }
}

/// Abort points inside the OOM victim memory teardown: the window is one
/// `oom_reap` of a forked child (every mapped PTE detach recorded before
/// the batched unmap). An aborted kill must leave the victim *completely
/// untouched* — region present, not a frame moved, heap bit-readable —
/// because a victim that survives the abort must still be killable by
/// the retry, which must then release its memory in full. Swept under
/// the eager, CoW-sharing and pipelined walks, since each leaves
/// different reference-count shapes for the teardown to unwind.
fn oom_leg(strategy: CopyStrategy, walk: WalkMode) -> Leg {
    Leg {
        check: |run| {
            if run.os.region_of(Pid(2)).is_err() {
                return Err(run.err("aborted reap lost the victim"));
            }
            // Heap integrity check after the frame balance: under CoA
            // this read legitimately materializes a lazily-shared page.
            run.frames_balanced()?;
            run.child_reads(Pid(2), 0xA0)
        },
        retry: |run| {
            run.os
                .oom_reap(&mut run.ctx, Pid(2))
                .map_err(|e| run.err(format_args!("retry reap failed: {e:?}")))?;
            if run.os.region_of(Pid(2)).is_ok() {
                return Err(run.err("victim still present after retry reap"));
            }
            Ok(())
        },
        ..Leg::new(
            format!("oom/{strategy:?}/{walk:?}"),
            Counter::JournalOps,
            kernel(strategy, walk),
            forked_prelude,
            |run| Ok(surfaced(run.os.oom_reap(&mut run.ctx, Pid(2)))),
        )
    }
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
/// exits 0, and teardown balances to zero frames. Unlike the window
/// sweeps, the fork here fails under load, between thousands
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
    let mut m = Machine::new(
        UforkOs::new(kernel(strategy, walk)),
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
    frames_balanced(&m.os, 0, &label)?;
    summary.storm_scenarios += 1;
    Ok(())
}

/// Runs the whole sweep; returns what was exercised.
pub fn chaos_sweep() -> Result<ChaosSummary, String> {
    let mut summary = ChaosSummary::default();
    for (strategy, walk) in CONFIGS {
        summary.points += sweep(&fork_leg(strategy, walk))?;
    }
    // The same abort sweep with live ring endpoints in flight: every
    // strategy × walk, since each walk has its own Shm refcount-share
    // arm and register-relocation schedule to unwind.
    for (strategy, walk) in CONFIGS {
        summary.ring_points += sweep(&ring_leg(strategy, walk))?;
    }
    summary.pipeline_points = sweep(&pipeline_leg())?;
    summary.reclaim_points = sweep(&reclaim_leg())?;
    for (strategy, walk) in [
        (CopyStrategy::Full, WalkMode::Serial),
        (CopyStrategy::CoA, WalkMode::Serial),
        (CopyStrategy::Full, WalkMode::Pipelined),
    ] {
        summary.oom_points += sweep(&oom_leg(strategy, walk))?;
    }
    // The dirty-scope snapshot train, under the serial and pipelined
    // walks (the two the 0.25× bench gate holds).
    for walk in [WalkMode::Serial, WalkMode::Pipelined] {
        summary.train_points += sweep(&train_leg(walk))?;
    }
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
