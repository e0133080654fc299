//! Memory-pressure survival tier: end-to-end properties of the
//! background reclaim daemon and the OOM last resort.
//!
//! * **Victim determinism** — with `oom_kill` on and physical memory too
//!   small for the storm, the machine kills victims; the same seed must
//!   produce the bit-identical kill sequence (victims, times, resident
//!   sizes) and event history.
//! * **Kill equivalence** — after an OOM reap, the surviving system must
//!   be indistinguishable from one in which the victim was never forked:
//!   same allocated frames, bitwise-equal heaps, balanced audit.
//! * **Scrub invisibility** — a run that interleaves background reclaim
//!   passes with fork/destroy churn must end with the exact same heap
//!   bytes and frame counts as one that never scrubbed: pre-zeroing is
//!   a latency optimization, never a semantic one.
//! * **High-occupancy soak** — a churning storm swept across physical
//!   sizes that keep the allocator Normal, push it over the high
//!   watermark, and pin it near exhaustion must complete every child
//!   with zero storm-visible fork failures, leak nothing, and keep the
//!   new counters consistent with the logs (`oom_kills == oom_log`,
//!   kills all visible as code-137 exits). The daemon and the killer are
//!   tasks in the same run queue as the storm's threads, and debug builds
//!   check every pick and wakeup against the linear reference.
//! * **Counter/trace consistency** — driving the daemon and a reap under
//!   a traced context must produce exactly one `mem/reclaim_bg` span per
//!   background pass and one `fork/oom` span per reap, with span time
//!   matching the kernel charges.

use ufork_repro::abi::{CopyStrategy, ImageSpec, Pid};
use ufork_repro::cheri::Capability;
use ufork_repro::exec::{Ctx, Machine, MachineConfig, MemOs};
use ufork_repro::ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_repro::workloads::storm::{StormConfig, StormZygote};

/// Heap slots the OS-level tests allocate and stamp in the parent.
const SLOTS: u64 = 6;

fn build(phys_mib: u32, reclaim_daemon: bool) -> UforkOs {
    UforkOs::new(UforkConfig {
        phys_mib,
        strategy: CopyStrategy::Full,
        walk: WalkMode::Serial,
        reclaim_daemon,
        ..UforkConfig::default()
    })
}

/// Spawns Pid(1) and stamps `SLOTS` heap slots with recognizable values.
fn setup(os: &mut UforkOs, ctx: &mut Ctx) -> Vec<Capability> {
    os.spawn(ctx, Pid(1), &ImageSpec::hello_world())
        .expect("spawn");
    let mut caps = Vec::new();
    for i in 0..SLOTS {
        let c = os.malloc(ctx, Pid(1), 512).expect("malloc");
        os.store(ctx, Pid(1), &c, &(0xB00 + i).to_le_bytes())
            .expect("store");
        caps.push(c);
    }
    caps
}

/// Reads one slot of `pid`'s heap through the parent capability,
/// rebased into the child's region.
fn read_slot(os: &mut UforkOs, ctx: &mut Ctx, pid: Pid, cap: &Capability) -> u64 {
    let cc = if pid == Pid(1) {
        *cap
    } else {
        let p_root = os.reg(Pid(1), 0).expect("parent root");
        let c_root = os.reg(pid, 0).expect("child root");
        let delta = c_root.base() as i64 - p_root.base() as i64;
        cap.rebase(delta, &c_root).expect("rebase")
    };
    let mut b = [0u8; 8];
    os.load(ctx, pid, &cc, &mut b).expect("load");
    u64::from_le_bytes(b)
}

/// Full observable state of a process's stamped heap.
fn heap_image(os: &mut UforkOs, ctx: &mut Ctx, pid: Pid, caps: &[Capability]) -> Vec<u64> {
    caps.iter().map(|c| read_slot(os, ctx, pid, c)).collect()
}

// ---- kill equivalence ---------------------------------------------------

/// After `oom_reap`, the system must be indistinguishable from one where
/// the victim was never forked: frames, audit, and every survivor's heap
/// agree with a run that skipped the victim entirely.
#[test]
fn post_kill_state_equals_victim_never_forked() {
    // Run A: fork victim (Pid 2), fork survivor (Pid 3), reap the
    // victim, fork one more child (Pid 4).
    let mut os_a = build(64, false);
    let mut ctx_a = Ctx::new();
    let caps_a = setup(&mut os_a, &mut ctx_a);
    os_a.fork(&mut ctx_a, Pid(1), Pid(2)).expect("fork victim");
    os_a.fork(&mut ctx_a, Pid(1), Pid(3))
        .expect("fork survivor");
    os_a.oom_reap(&mut ctx_a, Pid(2)).expect("reap victim");
    assert!(
        os_a.region_of(Pid(2)).is_err(),
        "victim still present after reap"
    );
    os_a.fork(&mut ctx_a, Pid(1), Pid(4))
        .expect("fork after kill");

    // Run B: identical, except the victim is never forked.
    let mut os_b = build(64, false);
    let mut ctx_b = Ctx::new();
    let caps_b = setup(&mut os_b, &mut ctx_b);
    os_b.fork(&mut ctx_b, Pid(1), Pid(3))
        .expect("fork survivor");
    os_b.fork(&mut ctx_b, Pid(1), Pid(4)).expect("fork after");

    assert_eq!(
        os_a.allocated_frames(),
        os_b.allocated_frames(),
        "kill did not return the victim's frames exactly"
    );
    for pid in [Pid(1), Pid(3), Pid(4)] {
        assert_eq!(
            heap_image(&mut os_a, &mut ctx_a, pid, &caps_a),
            heap_image(&mut os_b, &mut ctx_b, pid, &caps_b),
            "pid {} heap diverged from the never-forked run",
            pid.0
        );
    }
    for (label, os) in [("killed", &os_a), ("never-forked", &os_b)] {
        let (dangling, unaccounted) = os.audit_kernel();
        assert_eq!(
            (dangling, unaccounted),
            (0, 0),
            "{label} run fails the kernel audit"
        );
    }
}

// ---- scrub invisibility -------------------------------------------------

/// Interleaving background reclaim with fork/destroy churn must be
/// invisible to every observable output — the scrubbed run just serves
/// pre-zeroed frames (and must actually record magazine hits).
#[test]
fn reclaim_daemon_on_equals_daemon_off() {
    let run = |daemon: bool| -> (Vec<u64>, Vec<u64>, u32, u64, u64) {
        let mut os = build(64, daemon);
        let mut ctx = Ctx::new();
        let caps = setup(&mut os, &mut ctx);
        if daemon {
            // Force elevated pressure so the daemon has a reason to run
            // (64 MiB = 16384 frames).
            os.set_pressure_watermarks(8_192, 16_384);
        }
        for round in 0..4u32 {
            let child = Pid(2 + round);
            os.fork(&mut ctx, Pid(1), child).expect("churn fork");
            os.destroy(&mut ctx, child);
            if daemon {
                loop {
                    match os.reclaim_step(&mut ctx) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) => panic!("reclaim pass failed: {e:?}"),
                    }
                }
            }
        }
        os.fork(&mut ctx, Pid(1), Pid(9)).expect("final fork");
        let parent = heap_image(&mut os, &mut ctx, Pid(1), &caps);
        let child = heap_image(&mut os, &mut ctx, Pid(9), &caps);
        let (dangling, unaccounted) = os.audit_kernel();
        assert_eq!((dangling, unaccounted), (0, 0), "audit (daemon={daemon})");
        (
            parent,
            child,
            os.allocated_frames(),
            ctx.counters.magazine_hits,
            ctx.counters.frames_prezeroed,
        )
    };
    let (p_on, c_on, frames_on, hits_on, prezeroed_on) = run(true);
    let (p_off, c_off, frames_off, hits_off, _) = run(false);
    assert_eq!(p_on, p_off, "parent heap diverged under the daemon");
    assert_eq!(c_on, c_off, "child heap diverged under the daemon");
    assert_eq!(frames_on, frames_off, "frame accounting diverged");
    assert_eq!(hits_off, 0, "daemon-off run cannot hit magazines");
    assert!(
        prezeroed_on > 0 && hits_on > 0,
        "daemon run never exercised the magazines \
         (prezeroed {prezeroed_on}, hits {hits_on})"
    );
}

// ---- counter/trace consistency -----------------------------------------

/// One `mem/reclaim_bg` span per background pass, one `fork/oom` span
/// per victim teardown, and the spans' kernel time is real charge time.
#[test]
fn reclaim_and_oom_spans_match_counters() {
    let mut os = build(64, true);
    let mut ctx = Ctx::traced(4096);
    setup(&mut os, &mut ctx);
    os.fork(&mut ctx, Pid(1), Pid(2)).expect("fork");
    os.destroy(&mut ctx, Pid(2));
    os.set_pressure_watermarks(8_192, 16_384);
    loop {
        match os.reclaim_step(&mut ctx) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => panic!("reclaim pass failed: {e:?}"),
        }
    }
    os.fork(&mut ctx, Pid(1), Pid(3)).expect("fork victim");
    os.oom_reap(&mut ctx, Pid(3)).expect("reap");
    ctx.phase_end();

    let phase = |name: &str| ctx.trace.phases().iter().find(|p| p.name == name);
    let bg = phase("mem/reclaim_bg").expect("no mem/reclaim_bg span recorded");
    assert_eq!(
        bg.count, ctx.counters.reclaim_background,
        "reclaim_bg spans vs reclaim_background counter"
    );
    assert!(bg.total_ns > 0.0, "reclaim_bg spans carried no kernel time");
    let oom = phase("fork/oom").expect("no fork/oom span recorded");
    assert_eq!(oom.count, 1, "exactly one reap ran");
    assert!(oom.total_ns > 0.0, "fork/oom span carried no kernel time");
    assert!(
        ctx.counters.frames_prezeroed > 0,
        "drain scrubbed no frames"
    );
}

// ---- OOM victim determinism under the machine ---------------------------

/// One storm run on a machine small enough to force OOM kills.
fn oom_storm(seed: u64) -> (Machine<UforkOs>, Pid, u32) {
    const CHILDREN: u32 = 80;
    let os = UforkOs::new(UforkConfig {
        // Too small for 80 concurrent fully-copied children: the fork
        // path must kill victims to keep admitting.
        phys_mib: 8,
        strategy: CopyStrategy::Full,
        walk: WalkMode::Serial,
        ..UforkConfig::default()
    });
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores: 2,
            oom_kill: true,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(StormZygote::new(StormConfig::standard(CHILDREN, seed))),
        )
        .expect("spawn zygote");
    m.run();
    (m, pid, CHILDREN)
}

#[test]
fn oom_victim_selection_is_deterministic_per_seed() {
    for seed in [0xDEAD_0001u64, 0xDEAD_0002] {
        let (a, pid_a, children) = oom_storm(seed);
        let (b, pid_b, _) = oom_storm(seed);
        assert_eq!(
            a.exit_code(pid_a),
            Some(0),
            "zygote a failed (seed {seed:#x})"
        );
        assert_eq!(
            b.exit_code(pid_b),
            Some(0),
            "zygote b failed (seed {seed:#x})"
        );
        assert!(
            !a.oom_log().is_empty(),
            "storm never triggered an OOM kill (seed {seed:#x}) — shrink phys_mib"
        );
        let key = |m: &Machine<UforkOs>| {
            m.oom_log()
                .iter()
                .map(|e| (e.victim.0, e.requester.0, e.at.to_bits(), e.resident_pages))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "kill sequence diverged (seed {seed:#x})");
        assert_eq!(
            a.now().to_bits(),
            b.now().to_bits(),
            "final time diverged (seed {seed:#x})"
        );
        // The storm degraded instead of failing: every fork eventually
        // succeeded (the zygote saw no fork errors), and every launched
        // child was reaped — normally or by the killer.
        let z = a.program::<StormZygote>(pid_a).expect("zygote state");
        assert_eq!(z.retries, 0, "a fork failure leaked through the OOM path");
        assert_eq!(z.launched, children, "not every child was admitted");
        assert_eq!(z.completed, children, "not every child was reaped");
        assert_eq!(a.os.allocated_frames(), 0, "frames leaked after drain");
    }
}

// ---- high-occupancy storm soak ------------------------------------------

/// A churning storm (children exit while later ones are still being
/// born) swept across physical sizes: comfortably Normal, across the
/// high watermark, and pinned near exhaustion. Everything must complete
/// with zero storm-visible fork failures, the daemon and killer must
/// engage where expected, and the counters must agree with the logs.
/// One sweep point: which survival mechanisms the regime must engage.
struct Regime {
    label: &'static str,
    phys_mib: u32,
    /// Forced watermarks (`None` keeps the allocator defaults).
    watermarks: Option<(u32, u32)>,
    /// Service time; short services churn (children exit while later
    /// ones are still arriving), long ones pin occupancy at the peak.
    service_base_ns: f64,
    expect_reclaim: bool,
    /// Pre-zeroed frames must actually serve later forks. Only true in
    /// the churning regime: under kill-driven admission the retry fork
    /// consumes the victim's just-freed (still dirty) frames before the
    /// daemon can get to them, so hits are not guaranteed there.
    expect_hits: bool,
    expect_kills: bool,
}

const REGIMES: [Regime; 3] = [
    // Comfortably Normal: neither mechanism may engage.
    Regime {
        label: "normal",
        phys_mib: 256,
        watermarks: None,
        service_base_ns: 4e9,
        expect_reclaim: false,
        expect_hits: false,
        expect_kills: false,
    },
    // Churning across the high watermark: exits interleave with later
    // arrivals, the daemon scrubs each exit's frames during the arrival
    // gaps, and subsequent forks pop them pre-zeroed.
    Regime {
        label: "elevated-churn",
        phys_mib: 24,
        watermarks: Some((64, 5800)),
        service_base_ns: 2e6,
        expect_reclaim: true,
        expect_hits: true,
        expect_kills: false,
    },
    // Pinned far past capacity: admission only through the killer.
    Regime {
        label: "exhausted",
        phys_mib: 10,
        watermarks: None,
        service_base_ns: 4e9,
        expect_reclaim: true,
        expect_hits: false,
        expect_kills: true,
    },
];

#[test]
fn high_occupancy_storm_soak() {
    for r in &REGIMES {
        soak_run(r);
    }
}

/// One soak regime, with every survival assertion checked.
fn soak_run(r: &Regime) {
    const CHILDREN: u32 = 120;
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: r.phys_mib,
        strategy: CopyStrategy::Full,
        walk: WalkMode::Serial,
        reclaim_daemon: true,
        ..UforkConfig::default()
    });
    if let Some((low, high)) = r.watermarks {
        os.set_pressure_watermarks(low, high);
    }
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores: 2,
            oom_kill: true,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(StormZygote::new(StormConfig {
                service_base_ns: r.service_base_ns,
                service_jitter_mean_ns: r.service_base_ns / 4.0,
                ..StormConfig::standard(CHILDREN, 0x50AC)
            })),
        )
        .expect("spawn zygote");
    m.run();
    let label = format!("soak {}", r.label);
    assert_eq!(m.exit_code(pid), Some(0), "{label}: zygote failed");
    let z = m.program::<StormZygote>(pid).expect("zygote state");
    assert_eq!(z.retries, 0, "{label}: storm-visible fork failure");
    assert_eq!(z.launched, CHILDREN, "{label}: lost admissions");
    assert_eq!(z.completed, CHILDREN, "{label}: lost children");
    assert_eq!(m.os.allocated_frames(), 0, "{label}: leaked frames");
    let c = m.counters();
    if r.expect_reclaim {
        assert!(
            c.reclaim_background > 0 && c.frames_prezeroed > 0,
            "{label}: daemon never ran a background pass \
             (passes {}, prezeroed {})",
            c.reclaim_background,
            c.frames_prezeroed
        );
    } else {
        assert_eq!(
            c.reclaim_background, 0,
            "{label}: daemon engaged without pressure"
        );
    }
    if r.expect_hits {
        assert!(
            c.magazine_hits > 0,
            "{label}: scrubbed frames never reached a fork \
             (prezeroed {}, hits {})",
            c.frames_prezeroed,
            c.magazine_hits
        );
    }
    // Counter/log consistency: every kill is counted once and
    // surfaced as a code-137 exit at the same simulated time.
    assert_eq!(
        c.oom_kills,
        m.oom_log().len() as u64,
        "{label}: oom_kills counter vs oom_log"
    );
    for e in m.oom_log() {
        assert!(
            m.exit_log()
                .iter()
                .any(|x| x.pid == e.victim && x.code == 137 && x.at == e.at),
            "{label}: kill of pid {} not visible as a 137 exit",
            e.victim.0
        );
    }
    let kills = m.oom_log().len() as u32;
    assert_eq!(
        m.exit_log().iter().filter(|x| x.code == 137).count() as u32,
        kills,
        "{label}: stray 137 exits"
    );
    if r.expect_kills {
        assert!(kills > 0, "{label}: exhaustion regime never killed");
    } else {
        assert_eq!(kills, 0, "{label}: killed without memory pressure");
    }
}
