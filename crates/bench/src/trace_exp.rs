//! The `repro trace` experiment: the paper-style per-phase fork-latency
//! breakdown, produced from the simulated-time trace layer
//! (`ufork_sim::trace`) instead of Morello PMU counters.
//!
//! Each run forks the fork-scaling workload (cap-dense heap,
//! [`crate::SCALING_PAGES`] pages, Full-copy strategy) on a **fresh
//! traced context**, so the trace's charge accumulator is bitwise equal
//! to the fork's end-to-end simulated kernel time — asserted here on
//! every run, and re-validated structurally by the CI trace-smoke job on
//! the exported JSON.

use ufork::WalkMode;
use ufork_abi::{CopyStrategy, Pid};
use ufork_exec::{Ctx, MemOs};
use ufork_sim::{
    assert_counter_pairs, chrome_trace_json, summary_table, OpCounters, PhaseTotal, TraceBuf,
    TraceRun, DEFAULT_TRACE_CAPACITY,
};

use crate::report::{Cell, Row};
use crate::{scaling_parent, walk_label};

/// One traced fork: the recorded buffer plus the independently measured
/// end-to-end simulated time and the fork's counter deltas.
pub struct TracedFork {
    /// Run label: `"serial"`, `"parN"` or `"pipelined"`.
    pub name: String,
    /// Simulated latency at which the fork committed and the child was
    /// runnable (kernel ns). Equals `end_to_end_ns` except under the
    /// pipelined walk, which keeps copying after the commit.
    pub commit_ns: f64,
    /// End-to-end simulated fork latency (kernel ns) on the fresh
    /// context that fed the trace — for the pipelined walk this
    /// includes draining the background-copy window.
    pub end_to_end_ns: f64,
    /// The recorded trace.
    pub buf: TraceBuf,
    /// Counters accumulated by the fork.
    pub counters: OpCounters,
}

/// One `fork_phases` row: one phase's totals in one traced fork.
pub struct PhaseRow<'a> {
    /// The traced fork's label.
    pub mode: &'a str,
    /// The phase's totals.
    pub phase: &'a PhaseTotal,
}

impl Row for PhaseRow<'_> {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        vec![
            ("mode", Cell::Str(self.mode.into())),
            ("phase", Cell::Str(self.phase.name.into())),
            ("sim_total_ns", Cell::Ns(self.phase.total_ns)),
            ("spans", Cell::Int(self.phase.count)),
        ]
    }
}

impl TracedFork {
    /// The fork's phases as `fork_phases` rows, in first-closed order.
    pub fn phase_rows(&self) -> impl Iterator<Item = PhaseRow<'_>> {
        self.buf.phases().iter().map(|phase| PhaseRow {
            mode: &self.name,
            phase,
        })
    }
}

/// Forks the scaling workload under `walk` with tracing enabled.
///
/// # Panics
///
/// Panics if the trace's same-order charge accumulator is not bitwise
/// equal to the fork's `kernel_ns` — the exactness contract the whole
/// phase breakdown rests on — or if a counter differs from the trace
/// events the phase table pairs it with.
pub fn trace_fork_run(walk: WalkMode) -> TracedFork {
    let mut os = scaling_parent(CopyStrategy::Full, walk, true);

    // A fresh context makes kernel_ns start at zero, so its final value
    // is the same ordered sum of charges the trace accumulated.
    let mut fctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
    os.fork(&mut fctx, Pid(1), Pid(2)).expect("fork trace");
    assert_eq!(
        fctx.kernel_ns.to_bits(),
        fctx.trace.charged_total().to_bits(),
        "trace charge accumulator must equal fork kernel time bitwise"
    );
    let commit_ns = fctx.kernel_ns;
    // For the pipelined walk, stream the background window on the same
    // traced context so its `fork/pipeline/*` spans tile the rest of the
    // copy work. A no-op for the other walks.
    os.pipeline_drain(&mut fctx, Pid(2)).expect("drain trace");
    assert_eq!(
        fctx.kernel_ns.to_bits(),
        fctx.trace.charged_total().to_bits(),
        "trace charge accumulator must survive the background drain bitwise"
    );
    assert_counter_pairs(&fctx.trace, &fctx.counters);
    let (name, _) = walk_label(walk);
    TracedFork {
        name,
        commit_ns,
        end_to_end_ns: fctx.kernel_ns,
        buf: fctx.trace,
        counters: fctx.counters,
    }
}

/// The traced runs exported by `repro trace` and gated by CI: the serial
/// walk, the widest parallel walk, and the pipelined walk (commit +
/// drained background window).
pub fn trace_fork_runs() -> Vec<TracedFork> {
    vec![
        trace_fork_run(WalkMode::Serial),
        trace_fork_run(WalkMode::Parallel(8)),
        trace_fork_run(WalkMode::Pipelined),
    ]
}

/// Renders the runs as Chrome trace-event JSON (run *i* = Chrome pid
/// *i*). Byte-identical across invocations with the same configuration.
pub fn trace_chrome_json(runs: &[TracedFork]) -> String {
    let trs: Vec<TraceRun<'_>> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| TraceRun {
            name: &r.name,
            pid: i as u32,
            buf: &r.buf,
            end_to_end_ns: r.end_to_end_ns,
        })
        .collect();
    chrome_trace_json(&trs)
}

/// Renders the per-phase histogram summaries as a markdown-friendly
/// block (also printed by `repro trace`).
pub fn trace_summary_text(runs: &[TracedFork]) -> String {
    let mut out = String::new();
    for r in runs {
        out.push_str(&format!(
            "### {} walk — fork {:.1} µs (simulated)\n\n```\n{}```\n\n",
            r.name,
            r.end_to_end_ns / 1e3,
            summary_table(&r.buf)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufork::{UforkConfig, UforkOs};
    use ufork_abi::ImageSpec;
    use ufork_mem::PAGE_SIZE;
    use ufork_sim::{Instant, Lane, Phase};

    #[test]
    fn traced_serial_fork_phases_tile_end_to_end() {
        let r = trace_fork_run(WalkMode::Serial);
        // Exact by construction (asserted inside the run); the phase-sum
        // regrouping only differs by f64 re-association.
        let sum = r.buf.phase_sum();
        assert!(
            (sum - r.end_to_end_ns).abs() <= 1e-9 * r.end_to_end_ns,
            "phase sum {sum} vs end-to-end {}",
            r.end_to_end_ns
        );
        // The fork pipeline phases all show up.
        for phase in [
            Phase::ForkFixed,
            Phase::ForkRegion,
            Phase::ForkWalkPte,
            Phase::ForkWalkCopy,
            Phase::ForkWalkReloc,
            Phase::ForkWalkCowArm,
            Phase::ForkRegs,
            Phase::ForkCommit,
        ] {
            assert!(
                r.buf.phase_total(phase).is_some(),
                "missing phase {phase:?}"
            );
        }
        assert_eq!(
            r.buf.instant_count(Instant::GateEnter),
            0,
            "direct fork, no gate"
        );
    }

    #[test]
    fn traced_parallel_fork_is_deterministic_and_has_lane_spans() {
        let a = trace_fork_run(WalkMode::Parallel(4));
        let b = trace_fork_run(WalkMode::Parallel(4));
        assert_eq!(
            a.end_to_end_ns.to_bits(),
            b.end_to_end_ns.to_bits(),
            "same seed + workers ⇒ bit-identical simulated time"
        );
        let ja = trace_chrome_json(&[a]);
        let jb = trace_chrome_json(&[b]);
        assert_eq!(ja, jb, "byte-identical export");
        assert!(ja.contains(Lane::ForkChunk.name()), "lane spans recorded");
        assert!(
            ja.contains(Phase::ForkWalkPar.name()),
            "parallel phase recorded"
        );
    }

    #[test]
    fn traced_pipelined_fork_tiles_and_matches_serial_copy_work() {
        let serial = trace_fork_run(WalkMode::Serial);
        let piped = trace_fork_run(WalkMode::Pipelined);
        // The pipelined phases tile commit + drain exactly, like every
        // other walk (modulo f64 re-association in the regrouping).
        let sum = piped.buf.phase_sum();
        assert!(
            (sum - piped.end_to_end_ns).abs() <= 1e-9 * piped.end_to_end_ns,
            "phase sum {sum} vs end-to-end {}",
            piped.end_to_end_ns
        );
        for phase in [Phase::ForkPipelineStage, Phase::ForkPipelineCopy] {
            assert!(
                piped.buf.phase_total(phase).is_some(),
                "missing phase {phase:?}"
            );
        }
        assert_eq!(
            piped.buf.instant_count(Instant::ForkPipelineCommit),
            1,
            "exactly one early commit"
        );
        // Commit happens at lazy-grade latency: well before the serial
        // walk would have finished copying.
        assert!(
            piped.commit_ns < serial.end_to_end_ns / 2.0,
            "pipelined commit {} ns is not early against serial {} ns",
            piped.commit_ns,
            serial.end_to_end_ns
        );
        // ...but the total copy work matches the eager walk: every page
        // is copied and every capability relocated exactly once.
        assert_eq!(piped.counters.pages_copied, serial.counters.pages_copied);
        assert_eq!(
            piped.counters.caps_relocated,
            serial.counters.caps_relocated
        );
    }

    /// Simulated ns a traced context charged to `fork/dedup`.
    fn dedup_phase_ns(ctx: &Ctx) -> f64 {
        ctx.trace
            .phase_total(Phase::ForkDedup)
            .map_or(0.0, |p| p.total_ns)
    }

    #[test]
    fn traced_dirty_scope_fork_has_scan_and_dedup_phases() {
        // A dirty-tracking + dedup fork must keep the bitwise
        // charge-accumulator contract and surface its two extra phases
        // (`fork/dirty_scan` for the generation stamp, `fork/dedup` for
        // the content-hash probes) in the same trace stream. `fork/dedup`
        // holds the probes and nothing else: not the PTE write of a
        // serial dedup hit, nor the copy after a pipelined chunk's miss.
        const PAGES: u64 = 64;
        let page_hash = UforkConfig::default().cost.page_hash;
        let mut os = UforkOs::new(UforkConfig {
            phys_mib: 64,
            strategy: CopyStrategy::Full,
            walk: WalkMode::Serial,
            track_dirty: true,
            dedup_frames: true,
            ..UforkConfig::default()
        });
        let mut ctx = Ctx::new();
        let img = ImageSpec::with_heap("dirty-trace", PAGES * PAGE_SIZE + (64 << 10));
        os.spawn(&mut ctx, Pid(1), &img).expect("spawn");
        let arr = os
            .malloc(&mut ctx, Pid(1), PAGES * PAGE_SIZE)
            .expect("heap");
        for p in 0..PAGES {
            // Untagged data only, so the dedup probes actually run.
            let slot = arr.with_addr(arr.base() + p * PAGE_SIZE).expect("slot");
            os.store(&mut ctx, Pid(1), &slot, &1u64.to_le_bytes())
                .expect("store");
        }
        os.fork(&mut ctx, Pid(1), Pid(2)).expect("stamping fork");
        for p in 0..8 {
            // Four distinct dirty pages, then four identical ones: the
            // walk dedups the last three against the first.
            let v = if p < 4 { p + 2 } else { 0xD0 };
            let slot = arr.with_addr(arr.base() + p * PAGE_SIZE + 8).expect("slot");
            os.store(&mut ctx, Pid(1), &slot, &v.to_le_bytes())
                .expect("dirtying store");
        }

        let mut fctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
        os.fork(&mut fctx, Pid(1), Pid(3))
            .expect("dirty-scope fork");
        assert_eq!(
            fctx.kernel_ns.to_bits(),
            fctx.trace.charged_total().to_bits(),
            "charge accumulator must stay exact with dirty scan + dedup on"
        );
        assert_counter_pairs(&fctx.trace, &fctx.counters);
        for phase in [Phase::ForkDirtyScan, Phase::ForkDedup] {
            assert!(
                fctx.trace.phase_total(phase).is_some(),
                "missing phase {phase:?}"
            );
        }
        // The phases tie out to the counters they narrate.
        assert!(fctx.counters.pages_dirty_copied > 0, "no dirty copies");
        assert!(fctx.counters.pages_shared_clean > 0, "no clean shares");
        assert!(fctx.counters.dedup_hash_probes > 0, "no dedup probes");
        assert!(fctx.counters.frames_deduped > 0, "no serial dedup hits");
        assert_eq!(
            dedup_phase_ns(&fctx),
            page_hash * fctx.counters.dedup_hash_probes as f64,
            "serial fork/dedup holds only the hash probes"
        );

        // Pipelined: the child's demand faults resolve background chunks
        // on its own traced context.
        let mut os = UforkOs::new(UforkConfig {
            phys_mib: 64,
            strategy: CopyStrategy::Full,
            walk: WalkMode::Pipelined,
            dedup_frames: true,
            ..UforkConfig::default()
        });
        let mut ctx = Ctx::new();
        os.spawn(&mut ctx, Pid(1), &img).expect("spawn");
        let arr = os
            .malloc(&mut ctx, Pid(1), PAGES * PAGE_SIZE)
            .expect("heap");
        for p in 0..PAGES {
            // Four contents repeat across the pages, so the chunks see
            // both probe misses and hits.
            let slot = arr.with_addr(arr.base() + p * PAGE_SIZE).expect("slot");
            os.store(&mut ctx, Pid(1), &slot, &(p % 4 + 1).to_le_bytes())
                .expect("store");
        }
        os.fork(&mut ctx, Pid(1), Pid(2)).expect("pipelined fork");
        let p_root = os.reg(Pid(1), 0).expect("parent root");
        let c_root = os.reg(Pid(2), 0).expect("child root");
        let child_arr = arr
            .rebase(c_root.base() as i64 - p_root.base() as i64, &c_root)
            .expect("child view");
        let mut cctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
        for p in [0, PAGES / 2, PAGES - 1] {
            let slot = child_arr
                .with_addr(child_arr.base() + p * PAGE_SIZE)
                .expect("slot");
            let mut b = [0u8; 8];
            os.load(&mut cctx, Pid(2), &slot, &mut b)
                .expect("child demand fault");
            assert_eq!(u64::from_le_bytes(b), p % 4 + 1, "child page {p}");
        }
        assert_counter_pairs(&cctx.trace, &cctx.counters);
        assert!(cctx.counters.fork_chunks > 0, "no chunk resolved on demand");
        assert!(cctx.counters.dedup_hash_probes > 0, "no chunk dedup probes");
        assert_eq!(
            dedup_phase_ns(&cctx),
            page_hash * cctx.counters.dedup_hash_probes as f64,
            "pipelined fork/dedup holds only the hash probes"
        );
    }
}
