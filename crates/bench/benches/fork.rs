//! Wall-clock cost of the simulator's fork paths themselves — one bench
//! per system and strategy (the simulated-time results are produced by
//! the `repro` binary; these measure the host cost of the mechanism).
//!
//! The `scan=` benches compare the naive relocation pipeline (per-granule
//! sweep + rebuilt-Vec linear region lookup, `ScanMode::Naive`) against
//! the tag-summary fast path (bitmap scan + indexed region lookup), both
//! on the same batched fork walk, on a forking
//! lineage whose pages carry at most a handful of capabilities — the
//! sparse case the tentpole optimizes. Medians land in `BENCH_fork.json`
//! at the repository root so future PRs have a perf trajectory.

use std::hint::black_box;
use std::path::Path;

use ufork::reloc::{relocate_frame, ScanMode};
use ufork::{FallbackPolicy, UforkConfig, UforkOs};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_baselines::{mono, nephele, BaselineConfig};
use ufork_bench::{
    fork_frontier_sweep, fork_scaling_sweep, pressure_children_from_env, pressure_sweep,
    ring_fork_sweep, ring_requests_from_env, ring_service_sweep, snapshot_train_sweep,
    storm_children_from_env, storm_sweep, trace_fork_runs, zygote_fleet_sweep, FrontierRow,
    PressureStormRow, RingForkRow, RingServiceRow, ScalingRow, SnapshotRow, StormMode,
    StormPipeline, TracedFork, ZygoteFleetRow, PRESSURE_P99_LIMIT, PRESSURE_SEED,
    RING_FORK_OVERHEAD_LIMIT, STORM_CORES, STORM_SEED,
};
use ufork_cheri::{Capability, Perms};
use ufork_exec::{Ctx, MemOs};
use ufork_mem::PhysMem;
use ufork_sim::DEFAULT_TRACE_CAPACITY;
use ufork_testkit::bench::bench_with_setup_ns;
use ufork_vmem::{Region, VirtAddr};
use ufork_workloads::storm::StormReport;

/// Forks in the lineage built during setup: each fork retires its parent,
/// so relocation lookups face a realistic population of retired regions.
const LINEAGE: u32 = 12;

fn forking_os(scan: ScanMode) -> (UforkOs, Pid) {
    let cfg = UforkConfig {
        phys_mib: 128,
        strategy: CopyStrategy::Full,
        scan,
        ..UforkConfig::default()
    };
    let mut os = UforkOs::new(cfg);
    let mut ctx = Ctx::new();
    os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
        .unwrap();
    for i in 1..LINEAGE {
        os.fork(&mut ctx, Pid(i), Pid(i + 1)).unwrap();
        os.destroy(&mut ctx, Pid(i));
    }
    (os, Pid(LINEAGE))
}

fn page_scan_bench(mode_name: &str, mode: ScanMode) -> u64 {
    let parent = Region {
        base: VirtAddr(0x10_0000),
        len: 0x10_0000,
    };
    let child = Region {
        base: VirtAddr(0x90_0000),
        len: 0x10_0000,
    };
    let child_root = Capability::new_root(child.base.0, child.len, Perms::data());
    bench_with_setup_ns(
        &format!("fork/page_scan/4caps/{mode_name}"),
        || {
            let mut pm = PhysMem::new(4);
            let f = pm.alloc_frame().unwrap();
            // ≤4 tagged granules: the sparse page the fast path targets.
            for i in 0..4u64 {
                let cap = Capability::new_root(parent.base.0 + i * 0x1000, 64, Perms::data());
                pm.store_cap(f, i * 1024, &cap).unwrap();
            }
            (pm, f)
        },
        |(pm, f)| {
            let stats = relocate_frame(
                pm,
                *f,
                child,
                &child_root,
                &|a| {
                    if a >= parent.base.0 && a < parent.base.0 + parent.len {
                        Some(parent)
                    } else {
                        None
                    }
                },
                mode,
            );
            black_box(stats)
        },
    )
}

fn main() {
    let mut results: Vec<(String, u64)> = Vec::new();

    for strategy in [CopyStrategy::CoPA, CopyStrategy::CoA, CopyStrategy::Full] {
        let ns = bench_with_setup_ns(
            &format!("fork/ufork/{strategy:?}"),
            || {
                let cfg = UforkConfig {
                    phys_mib: 128,
                    strategy,
                    ..UforkConfig::default()
                };
                let mut os = UforkOs::new(cfg);
                let mut ctx = Ctx::new();
                os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
                    .unwrap();
                os
            },
            |os| {
                let mut ctx = Ctx::new();
                os.fork(&mut ctx, Pid(1), Pid(2)).unwrap();
                black_box(ctx.kernel_ns)
            },
        );
        results.push((format!("fork/ufork/{strategy:?}"), ns));
    }

    // Trace-layer overhead guard: every Ctx now carries a TraceBuf, and
    // the disabled path must cost nothing beyond one untaken branch per
    // charge. The `fork/ufork/Full` bench above IS the disabled-trace
    // number (gated against the pre-trace baseline by bench_gate.py); on
    // top of that, assert in-process that it does not measurably exceed
    // the *enabled*-trace fork — if the disabled path ever started doing
    // tracing work, the two would converge and this still holds, so also
    // record the enabled run for the JSON trajectory and eyeballs.
    let full_off_ns = results
        .iter()
        .find(|(n, _)| n == "fork/ufork/Full")
        .expect("Full fork result")
        .1;
    let full_on_ns = bench_with_setup_ns(
        "fork/ufork/Full/trace_on",
        || {
            let cfg = UforkConfig {
                phys_mib: 128,
                strategy: CopyStrategy::Full,
                ..UforkConfig::default()
            };
            let mut os = UforkOs::new(cfg);
            let mut ctx = Ctx::new();
            os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
                .unwrap();
            os
        },
        |os| {
            let mut ctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
            os.fork(&mut ctx, Pid(1), Pid(2)).unwrap();
            black_box(ctx.trace.phase_sum())
        },
    );
    results.push(("fork/ufork/Full/trace_on".to_string(), full_on_ns));
    let trace_overhead = full_on_ns as f64 / full_off_ns.max(1) as f64;
    println!(
        "fork/ufork/Full tracing overhead: {trace_overhead:.2}x (off {full_off_ns} ns -> on {full_on_ns} ns)"
    );
    assert!(
        full_off_ns as f64 <= full_on_ns as f64 * 1.25,
        "disabled-trace fork ({full_off_ns} ns) measurably slower than traced fork \
         ({full_on_ns} ns): the disabled path must be a single untaken branch"
    );

    // The tentpole comparison: an eager-copy fork at the end of a forking
    // lineage, naive pipeline vs. tag-summary fast path.
    let mut lineage_ns = [0u64; 2];
    for (i, (mode_name, mode)) in [
        ("naive", ScanMode::Naive),
        ("tagsummary", ScanMode::TagSummary),
    ]
    .into_iter()
    .enumerate()
    {
        let ns = bench_with_setup_ns(
            &format!("fork/ufork/Full/lineage/{mode_name}"),
            || forking_os(mode),
            |(os, parent)| {
                let mut ctx = Ctx::new();
                os.fork(&mut ctx, *parent, Pid(parent.0 + 1)).unwrap();
                black_box(ctx.kernel_ns)
            },
        );
        results.push((format!("fork/ufork/Full/lineage/{mode_name}"), ns));
        lineage_ns[i] = ns;
    }

    // Per-page scan at ≤4 tagged granules: the acceptance microbench.
    let naive_page = page_scan_bench("naive", ScanMode::Naive);
    let fast_page = page_scan_bench("tagsummary", ScanMode::TagSummary);
    results.push(("fork/page_scan/4caps/naive".to_string(), naive_page));
    results.push(("fork/page_scan/4caps/tagsummary".to_string(), fast_page));

    let ns = bench_with_setup_ns(
        "fork/baseline/mono",
        || {
            let mut os = mono(BaselineConfig {
                phys_mib: 128,
                ..BaselineConfig::default()
            });
            let mut ctx = Ctx::new();
            os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
                .unwrap();
            os
        },
        |os| {
            let mut ctx = Ctx::new();
            os.fork(&mut ctx, Pid(1), Pid(2)).unwrap();
            black_box(ctx.kernel_ns)
        },
    );
    results.push(("fork/baseline/mono".to_string(), ns));
    let ns = bench_with_setup_ns(
        "fork/baseline/nephele",
        || {
            let mut os = nephele(BaselineConfig {
                phys_mib: 128,
                ..BaselineConfig::default()
            });
            let mut ctx = Ctx::new();
            os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
                .unwrap();
            os
        },
        |os| {
            let mut ctx = Ctx::new();
            os.fork(&mut ctx, Pid(1), Pid(2)).unwrap();
            black_box(ctx.kernel_ns)
        },
    );
    results.push(("fork/baseline/nephele".to_string(), ns));

    let sparse_speedup = naive_page as f64 / fast_page.max(1) as f64;
    let lineage_speedup = lineage_ns[0] as f64 / lineage_ns[1].max(1) as f64;
    println!("fork/page_scan/4caps speedup: {sparse_speedup:.2}x (naive {naive_page} ns -> tagsummary {fast_page} ns)");
    println!(
        "fork/ufork/Full/lineage speedup: {lineage_speedup:.2}x (naive {} ns -> tagsummary {} ns)",
        lineage_ns[0], lineage_ns[1]
    );

    let (admission, admission_overhead) = run_admission();

    let (scaling, scaling_speedup) = run_scaling();

    let frontier = run_frontier();

    let snapshot = run_snapshot_train();

    let zygote = run_zygote_fleet();

    let storm = run_storm_family();

    let pressure = run_pressure_family();

    let (ring_fork, ring_service) = run_ring_family();
    // Per-phase simulated totals from the trace layer: exactly
    // reproducible, so bench_gate.py gates them like fork_scaling rows.
    let phases = trace_fork_runs();
    for r in &phases {
        println!(
            "fork_phases/{}: {:.0} ns simulated end-to-end across {} phases",
            r.name,
            r.end_to_end_ns,
            r.buf.phases().len()
        );
    }
    write_json(
        &results,
        &Speedups {
            sparse: sparse_speedup,
            lineage: lineage_speedup,
            trace: trace_overhead,
            admission: admission_overhead,
            scaling: scaling_speedup,
        },
        &admission,
        &scaling,
        &frontier,
        &phases,
        &storm,
        &pressure,
        &snapshot,
        &zygote,
        &ring_fork,
        &ring_service,
    );
}

/// Runs the `fork_pressure` family: the churning storm across occupancy
/// × reclaim daemon. `pressure_sweep` runs every point twice, asserts
/// bit-identical repeats, daemon invisibility at Normal pressure,
/// daemon engagement at Elevated, and the PR's survival gate in-process
/// (fork p99 across the high watermark ≤ 1.25× the low-occupancy p99
/// with the daemon on); bench_gate.py holds the JSON rows to the same
/// limit across PRs, with the daemon-off ablation kept alongside.
fn run_pressure_family() -> Vec<PressureStormRow> {
    let children = pressure_children_from_env();
    let rows = pressure_sweep(children, PRESSURE_SEED, STORM_CORES);
    for r in &rows {
        println!(
            "fork_pressure/{}/daemon={}: fork p50 {:.0} ns / p99 {:.0} ns, {} bg passes, {} prezeroed, {} magazine hits, {} inline reclaims, {} oom kills",
            r.occupancy, r.daemon, r.sim_p50_ns, r.sim_p99_ns,
            r.reclaim_background, r.frames_prezeroed, r.magazine_hits,
            r.reclaim_inline, r.oom_kills
        );
    }
    let p99 = |occupancy: &str, daemon: bool| {
        rows.iter()
            .find(|r| r.occupancy == occupancy && r.daemon == daemon)
            .expect("pressure row")
            .sim_p99_ns
    };
    println!(
        "fork_pressure high-watermark p99 over low (daemon on): {:.3}x (limit {PRESSURE_P99_LIMIT}x); daemon-off ablation: {:.3}x",
        p99("high", true) / p99("low", true),
        p99("high", false) / p99("low", false),
    );
    rows
}

/// Runs the `fork_ring` family: the fork probe (pipes vs live ring
/// endpoints, every storm mode) and the multi-tier ring-service sweep.
/// `ring_fork_sweep`/`ring_service_sweep` already run everything twice
/// and assert bit-identical simulated numbers; on top, this enforces the
/// PR's acceptance gate in-process: carrying live sealed ring endpoints
/// across fork costs at most 1.2× the pipe-only fork in every mode.
/// (bench_gate.py holds the JSON rows to the same limit across PRs.)
fn run_ring_family() -> (Vec<RingForkRow>, Vec<RingServiceRow>) {
    let rows = ring_fork_sweep();
    for r in &rows {
        println!(
            "fork_ring/{}/{}: {:.0} ns simulated fork with {} endpoints ({} sealed caps relocated)",
            r.mode, r.setup, r.sim_fork_ns, r.endpoints, r.ring_caps_relocated
        );
    }
    let pick = |mode: &str, setup: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.setup == setup)
            .expect("ring probe row")
            .sim_fork_ns
    };
    for mode in rows
        .iter()
        .map(|r| r.mode)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let pipes = pick(mode, "pipes");
        let rings = pick(mode, "rings");
        let ratio = rings / pipes;
        println!("fork_ring/{mode} rings over pipes: {ratio:.3}x ({pipes:.0} ns -> {rings:.0} ns)");
        assert!(
            ratio <= RING_FORK_OVERHEAD_LIMIT,
            "fork_ring/{mode}: fork with live ring endpoints ({rings:.0} ns) is {ratio:.3}x \
             the pipe-only fork ({pipes:.0} ns); must stay <= {RING_FORK_OVERHEAD_LIMIT}x"
        );
    }
    let service = ring_service_sweep(ring_requests_from_env());
    for r in &service {
        println!(
            "fork_ring_service/{}: {} requests in {:.3} sim-s ({} ring msgs, {} full stalls, {} caps relocated, kv {:#018x})",
            r.mode, r.requests, r.sim_final_ns / 1e9,
            r.ring_msgs, r.ring_full_stalls, r.ring_caps_relocated, r.kv_digest
        );
    }
    (rows, service)
}

/// Runs the dirty-scope snapshot train twice, asserts determinism, and
/// enforces the PR's asymptotic acceptance gate in-process: at a 5%
/// write rate every steady-state (N≥2) `DirtySince` fork completes its
/// copy within 0.25× the `Everything`-scope fork, under both the serial
/// and the pipelined walk. (bench_gate.py holds the JSON rows to the
/// same threshold across PRs.)
fn run_snapshot_train() -> Vec<SnapshotRow> {
    let rows = snapshot_train_sweep();
    let again = snapshot_train_sweep();
    for (a, b) in rows.iter().zip(&again) {
        assert_eq!(
            a.sim_fork_ns.to_bits(),
            b.sim_fork_ns.to_bits(),
            "fork_snapshot_train/{}/{}/{} is nondeterministic",
            a.scope,
            a.walk,
            a.snapshot
        );
        assert_eq!(a.sim_copy_done_ns.to_bits(), b.sim_copy_done_ns.to_bits());
    }
    for r in &rows {
        println!(
            "fork_snapshot_train/{}/{}/{}: fork {:.0} ns, copy done {:.0} ns ({} dirty copied, {} shared clean)",
            r.scope, r.walk, r.snapshot, r.sim_fork_ns, r.sim_copy_done_ns,
            r.pages_dirty_copied, r.pages_shared_clean
        );
    }
    let pick = |scope: &str, walk: &str, snap: u32| {
        rows.iter()
            .find(|r| r.scope == scope && r.walk == walk && r.snapshot == snap)
            .expect("snapshot row")
    };
    for walk in ["serial", "pipelined"] {
        for snap in 2..=ufork_bench::TRAIN_SNAPSHOTS {
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
                dirty.pages_shared_clean > 0,
                "{walk} snapshot {snap}: no clean pages were shared"
            );
        }
        let ratio =
            pick("dirty", walk, 2).sim_copy_done_ns / pick("everything", walk, 2).sim_copy_done_ns;
        println!("fork_snapshot_train/{walk} dirty over everything (snapshot 2): {ratio:.3}x");
    }
    rows
}

/// Runs the zygote fleet twice, asserts determinism, and enforces the
/// dedup acceptance gate: with cross-child frame dedup on, M warm
/// children stay within 1.2× the resident frames of a single child.
fn run_zygote_fleet() -> Vec<ZygoteFleetRow> {
    let rows = zygote_fleet_sweep();
    let again = zygote_fleet_sweep();
    for (a, b) in rows.iter().zip(&again) {
        assert_eq!(
            (a.frames_fleet, a.frames_deduped),
            (b.frames_fleet, b.frames_deduped),
            "fork_zygote/{} is nondeterministic",
            a.variant
        );
    }
    for r in &rows {
        println!(
            "fork_zygote/{}: {} children, {} frames after 1 child -> {} after fleet ({} deduped, {} probes, {} shared clean)",
            r.variant, r.children, r.frames_one_child, r.frames_fleet,
            r.frames_deduped, r.dedup_hash_probes, r.pages_shared_clean
        );
    }
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
                r.frames_deduped > 0,
                "fork_zygote/{}: dedup enabled but no frames were deduplicated",
                r.variant
            );
        }
    }
    rows
}

/// Runs the pipelined-fork latency frontier twice, asserts determinism,
/// and enforces the PR's acceptance criteria on it: the pipelined walk
/// commits within 1.5× the CoPA fork on both heap shapes while its
/// total copy-complete time stays eager-grade work (the trace tests
/// separately prove the copy-work parity page for page).
fn run_frontier() -> Vec<FrontierRow> {
    let rows = fork_frontier_sweep();
    let again = fork_frontier_sweep();
    for (a, b) in rows.iter().zip(&again) {
        assert_eq!(
            a.commit_ns.to_bits(),
            b.commit_ns.to_bits(),
            "fork_pipeline/{}/{} is nondeterministic",
            a.heap,
            a.mode
        );
        assert_eq!(a.copy_done_ns.to_bits(), b.copy_done_ns.to_bits());
    }
    for r in &rows {
        println!(
            "fork_pipeline/{}/{}: commit {:.0} ns, copy done {:.0} ns (simulated)",
            r.heap, r.mode, r.commit_ns, r.copy_done_ns
        );
    }
    let pick = |heap: &str, mode: &str| {
        *rows
            .iter()
            .find(|r| r.heap == heap && r.mode == mode)
            .expect("frontier row")
    };
    for heap in ["cap-sparse", "cap-dense"] {
        let piped = pick(heap, "pipelined");
        let copa = pick(heap, "copa");
        let full = pick(heap, "full");
        let ratio = piped.commit_ns / copa.commit_ns;
        println!(
            "fork_pipeline/{heap} pipelined commit over copa: {ratio:.3}x ({:.0} ns vs {:.0} ns)",
            piped.commit_ns, copa.commit_ns
        );
        assert!(
            ratio <= 1.5,
            "{heap}: pipelined commit {:.0} ns exceeds 1.5x CoPA ({:.0} ns)",
            piped.commit_ns,
            copa.commit_ns
        );
        assert!(
            piped.commit_ns < full.commit_ns,
            "{heap}: pipelined commit not earlier than the eager serial fork"
        );
        assert!(
            piped.copy_done_ns > piped.commit_ns,
            "{heap}: pipelined fork deferred no copy work"
        );
    }
    rows
}

/// Runs the fork-storm sweep through the event-driven scheduler:
/// `BENCH_STORM_CHILDREN` concurrent children (default 10 000; CI smoke
/// sets a reduced N) per copy-strategy mode, on 8 simulated cores.
///
/// All metrics are *simulated* time. `storm_sweep` itself runs every
/// mode twice and asserts the two runs bit-identical (event-log digest,
/// final sim time, p50/p99), and `run_storm` inside it asserts full
/// completion, full overlap (peak_live == children), and zero leaked
/// frames — so a row landing in the JSON certifies the scheduler held
/// 10k live μprocesses deterministically.
fn run_storm_family() -> Vec<(StormMode, StormReport, StormPipeline)> {
    let children = storm_children_from_env();
    let rows = storm_sweep(children, STORM_SEED, STORM_CORES);
    for (mode, r, p) in &rows {
        println!(
            "fork_storm/{}: {} children, fork p50 {:.0} ns / p99 {:.0} ns, {:.1} forks/sim-s, {:.3} sim-s, {} copy windows (p99 behind {:.0} ns)",
            mode.label,
            r.completed,
            r.p50_fork_ns,
            r.p99_fork_ns,
            r.forks_per_sim_sec,
            r.final_ns / 1e9,
            p.windows,
            p.p99_copy_done_ns
        );
    }
    // The point of committing early: under storm pressure the pipelined
    // eager fork must beat the widest synchronous parallel walk at the
    // tail, not just the median.
    let p99 = |label: &str| {
        rows.iter()
            .find(|(m, _, _)| m.label == label)
            .expect("storm mode")
            .1
            .p99_fork_ns
    };
    assert!(
        p99("full_pipelined") < p99("full_par8"),
        "pipelined storm fork p99 ({:.0} ns) does not improve on full_par8 ({:.0} ns)",
        p99("full_pipelined"),
        p99("full_par8")
    );
    rows
}

/// The derived ratios reported in the JSON `speedup` section.
struct Speedups {
    sparse: f64,
    lineage: f64,
    trace: f64,
    admission: f64,
    scaling: f64,
}

/// Simulated kernel time of one uncontended cap-sparse Full fork under
/// the given admission fallback policy.
fn admission_fork_ns(policy: FallbackPolicy) -> f64 {
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: 128,
        strategy: CopyStrategy::Full,
        fallback: policy,
        ..UforkConfig::default()
    });
    let mut ctx = Ctx::new();
    os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
        .unwrap();
    let mut fctx = Ctx::new();
    os.fork(&mut fctx, Pid(1), Pid(2)).unwrap();
    fctx.kernel_ns
}

/// Measures the admission-control pre-flight cost on an uncontended fork
/// in *simulated* time: `FallbackPolicy::Strict` (the default: reserve
/// the frame demand up front) against `FallbackPolicy::Disabled` (run
/// straight into the allocator). Deterministic, so bench_gate.py holds
/// both rows to the strict threshold — admission must stay a fixed
/// per-fork charge, never a per-page one.
fn run_admission() -> (Vec<(&'static str, f64)>, f64) {
    let rows: Vec<(&'static str, f64)> = [
        ("disabled", FallbackPolicy::Disabled),
        ("strict", FallbackPolicy::Strict),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let ns = admission_fork_ns(policy);
        let again = admission_fork_ns(policy);
        assert_eq!(
            ns.to_bits(),
            again.to_bits(),
            "fork_admission/{label} is nondeterministic: {ns} ns vs {again} ns"
        );
        println!("fork_admission/{label}: {ns:.0} ns simulated");
        (label, ns)
    })
    .collect();
    let overhead = rows[1].1 / rows[0].1;
    println!(
        "fork_admission strict over disabled: {overhead:.4}x ({:.0} ns -> {:.0} ns)",
        rows[0].1, rows[1].1
    );
    (rows, overhead)
}

/// Runs the 1/2/4/8-worker scaling sweep in *simulated* time, twice, and
/// enforces the PR's acceptance criteria: repeated runs are bit-identical
/// (determinism) and 8 workers beat the serial walk ≥2× on the cap-dense
/// heap. Returns the rows and the dense serial/par8 speedup.
fn run_scaling() -> (Vec<ScalingRow>, f64) {
    let rows = fork_scaling_sweep();
    let again = fork_scaling_sweep();
    for (a, b) in rows.iter().zip(&again) {
        assert_eq!(
            a.sim_fork_ns.to_bits(),
            b.sim_fork_ns.to_bits(),
            "fork_scaling/{}/{} is nondeterministic: {} ns vs {} ns",
            a.heap,
            a.mode_label(),
            a.sim_fork_ns,
            b.sim_fork_ns
        );
        assert_eq!(a.sim_copy_done_ns.to_bits(), b.sim_copy_done_ns.to_bits());
    }
    let dense_ns = |workers: usize| {
        rows.iter()
            .find(|r| r.heap == "cap-dense" && r.workers == workers)
            .expect("dense row")
            .sim_fork_ns
    };
    let speedup = dense_ns(0) / dense_ns(8);
    for r in &rows {
        println!(
            "fork_scaling/{}/{}: {:.0} ns simulated, copy done {:.0} ns ({} chunks, {} steals, {} recycled, {} zero-skipped)",
            r.heap,
            r.mode_label(),
            r.sim_fork_ns,
            r.sim_copy_done_ns,
            r.chunks,
            r.steals,
            r.recycled,
            r.zeroing_skipped
        );
    }
    println!(
        "fork_scaling/cap-dense serial over par8: {speedup:.2}x ({:.0} ns -> {:.0} ns)",
        dense_ns(0),
        dense_ns(8)
    );
    assert!(
        speedup >= 2.0,
        "parallel walk too slow: cap-dense Parallel(8) is only {speedup:.2}x over Serial (need >= 2x)"
    );
    (rows, speedup)
}

/// Writes `BENCH_fork.json` at the repository root (no serde: the schema
/// is flat enough to format by hand). `results` are host wall-clock
/// best-of-samples; the `fork_scaling` section is *simulated* time and
/// therefore exactly reproducible.
#[allow(clippy::too_many_arguments)] // one slice per JSON family
fn write_json(
    results: &[(String, u64)],
    speedups: &Speedups,
    admission: &[(&'static str, f64)],
    scaling: &[ScalingRow],
    frontier: &[FrontierRow],
    phases: &[TracedFork],
    storm: &[(StormMode, StormReport, StormPipeline)],
    pressure: &[PressureStormRow],
    snapshot: &[SnapshotRow],
    zygote: &[ZygoteFleetRow],
    ring_fork: &[RingForkRow],
    ring_service: &[RingServiceRow],
) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_fork.json");
    let rows = results
        .iter()
        .map(|(name, ns)| format!("    {{\"name\": \"{name}\", \"best_ns\": {ns}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let scaling_rows = scaling
        .iter()
        .map(|r| {
            format!(
                "    {{\"heap\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"sim_fork_ns\": {:.1}, \"sim_copy_done_ns\": {:.1}, \"chunks\": {}, \"steals\": {}, \"recycled\": {}, \"zeroing_skipped\": {}}}",
                r.heap,
                r.mode_label(),
                r.workers,
                r.sim_fork_ns,
                r.sim_copy_done_ns,
                r.chunks,
                r.steals,
                r.recycled,
                r.zeroing_skipped
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let frontier_rows = frontier
        .iter()
        .map(|r| {
            format!(
                "    {{\"heap\": \"{}\", \"mode\": \"{}\", \"sim_commit_ns\": {:.1}, \"sim_copy_done_ns\": {:.1}}}",
                r.heap, r.mode, r.commit_ns, r.copy_done_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let phase_rows = phases
        .iter()
        .flat_map(|r| {
            r.buf.phases().iter().map(move |p| {
                format!(
                    "    {{\"mode\": \"{}\", \"phase\": \"{}\", \"sim_total_ns\": {:.1}, \"spans\": {}}}",
                    r.name, p.name, p.total_ns, p.count
                )
            })
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let admission_rows = admission
        .iter()
        .map(|(policy, ns)| format!("    {{\"policy\": \"{policy}\", \"sim_fork_ns\": {ns:.1}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let storm_rows = storm
        .iter()
        .map(|(mode, r, p)| {
            format!(
                "    {{\"mode\": \"{}\", \"children\": {}, \"completed\": {}, \"peak_live\": {}, \"retries\": {}, \"sim_p50_ns\": {:.1}, \"sim_p99_ns\": {:.1}, \"sim_mean_ns\": {:.1}, \"sim_ns_per_fork\": {:.1}, \"forks_per_sim_sec\": {:.3}, \"sim_final_ns\": {:.1}, \"copy_windows\": {}, \"sim_copy_done_p50_ns\": {:.1}, \"sim_copy_done_p99_ns\": {:.1}, \"digest\": \"{:016x}\"}}",
                mode.label,
                r.children,
                r.completed,
                r.peak_live,
                r.retries,
                r.p50_fork_ns,
                r.p99_fork_ns,
                r.mean_fork_ns,
                r.sim_ns_per_fork,
                r.forks_per_sim_sec,
                r.final_ns,
                p.windows,
                p.p50_copy_done_ns,
                p.p99_copy_done_ns,
                r.digest
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let pressure_rows = pressure
        .iter()
        .map(|r| {
            format!(
                "    {{\"occupancy\": \"{}\", \"daemon\": {}, \"children\": {}, \"sim_p50_ns\": {:.1}, \"sim_p99_ns\": {:.1}, \"sim_final_ns\": {:.1}, \"reclaim_background\": {}, \"frames_prezeroed\": {}, \"magazine_hits\": {}, \"reclaim_inline\": {}, \"oom_kills\": {}, \"digest\": \"{:016x}\"}}",
                r.occupancy,
                r.daemon,
                r.children,
                r.sim_p50_ns,
                r.sim_p99_ns,
                r.sim_final_ns,
                r.reclaim_background,
                r.frames_prezeroed,
                r.magazine_hits,
                r.reclaim_inline,
                r.oom_kills,
                r.digest
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let snapshot_rows = snapshot
        .iter()
        .map(|r| {
            format!(
                "    {{\"system\": \"{}\", \"scope\": \"{}\", \"walk\": \"{}\", \"snapshot\": {}, \"sim_fork_ns\": {:.1}, \"sim_copy_done_ns\": {:.1}, \"pages_dirty_copied\": {}, \"pages_shared_clean\": {}}}",
                r.system,
                r.scope,
                r.walk,
                r.snapshot,
                r.sim_fork_ns,
                r.sim_copy_done_ns,
                r.pages_dirty_copied,
                r.pages_shared_clean
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let zygote_rows = zygote
        .iter()
        .map(|r| {
            format!(
                "    {{\"variant\": \"{}\", \"children\": {}, \"frames_one_child\": {}, \"frames_fleet\": {}, \"frames_deduped\": {}, \"dedup_hash_probes\": {}, \"pages_shared_clean\": {}}}",
                r.variant,
                r.children,
                r.frames_one_child,
                r.frames_fleet,
                r.frames_deduped,
                r.dedup_hash_probes,
                r.pages_shared_clean
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let ring_fork_rows = ring_fork
        .iter()
        .map(|r| {
            format!(
                "    {{\"mode\": \"{}\", \"setup\": \"{}\", \"endpoints\": {}, \"sim_fork_ns\": {:.1}, \"ring_caps_relocated\": {}}}",
                r.mode, r.setup, r.endpoints, r.sim_fork_ns, r.ring_caps_relocated
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let ring_service_rows = ring_service
        .iter()
        .map(|r| {
            format!(
                "    {{\"mode\": \"{}\", \"requests\": {}, \"sim_final_ns\": {:.1}, \"ring_msgs\": {}, \"ring_full_stalls\": {}, \"ring_caps_relocated\": {}, \"kv_digest\": \"{:016x}\"}}",
                r.mode,
                r.requests,
                r.sim_final_ns,
                r.ring_msgs,
                r.ring_full_stalls,
                r.ring_caps_relocated,
                r.kv_digest
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let body = format!(
        "{{\n  \"schema\": \"ufork-bench-fork/v9\",\n  \"unit\": \"ns/iter (best of samples, setup untimed); sim_* fields are simulated ns\",\n  \"results\": [\n{rows}\n  ],\n  \"fork_scaling\": [\n{scaling_rows}\n  ],\n  \"fork_pipeline\": [\n{frontier_rows}\n  ],\n  \"fork_phases\": [\n{phase_rows}\n  ],\n  \"fork_admission\": [\n{admission_rows}\n  ],\n  \"fork_storm\": [\n{storm_rows}\n  ],\n  \"fork_pressure\": [\n{pressure_rows}\n  ],\n  \"fork_snapshot_train\": [\n{snapshot_rows}\n  ],\n  \"fork_zygote\": [\n{zygote_rows}\n  ],\n  \"fork_ring\": [\n{ring_fork_rows}\n  ],\n  \"fork_ring_service\": [\n{ring_service_rows}\n  ],\n  \"speedup\": {{\n    \"page_scan_4caps_naive_over_tagsummary\": {sparse:.2},\n    \"fork_full_lineage_naive_over_tagsummary\": {lineage:.2},\n    \"fork_scaling_dense_serial_over_par8\": {scaling_speedup:.2},\n    \"fork_full_trace_on_over_off\": {trace:.2},\n    \"fork_full_admission_strict_over_disabled\": {admission_overhead:.4}\n  }}\n}}\n",
        sparse = speedups.sparse,
        lineage = speedups.lineage,
        scaling_speedup = speedups.scaling,
        trace = speedups.trace,
        admission_overhead = speedups.admission,
    );
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
