//! A minimal wall-clock bench runner replacing `criterion` offline.
//!
//! The repository's benches already use `harness = false`, so each bench
//! target is a plain `main()` that calls [`bench()`] / [`bench_with_setup`].
//! Output is one line per benchmark: median ns/iter over `BENCH_SAMPLES`
//! samples (default 20) of `BENCH_ITERS` iterations each (default
//! auto-scaled to ~2 ms per sample). No statistics beyond the median —
//! these are smoke/ballpark numbers, not publication material; the
//! simulated-time results from `ufork-bench`'s `repro` binary are the
//! figures that matter.

use std::hint::black_box;
use std::time::Instant;

fn samples() -> u64 {
    crate::env_u64("BENCH_SAMPLES", 20)
}

/// Times `f`, printing `name: <median> ns/iter`.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up and iteration-count calibration (~2 ms per sample).
    let start = Instant::now();
    let mut calib_iters = 0u64;
    while start.elapsed().as_micros() < 500 {
        black_box(f());
        calib_iters += 1;
    }
    let per_iter_ns = (start.elapsed().as_nanos() as u64 / calib_iters.max(1)).max(1);
    let iters = crate::env_u64("BENCH_ITERS", (2_000_000 / per_iter_ns).clamp(1, 100_000));

    let mut medians = Vec::new();
    for _ in 0..samples() {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        medians.push(t.elapsed().as_nanos() as u64 / iters);
    }
    medians.sort_unstable();
    println!(
        "{name}: {} ns/iter ({} samples x {iters} iters)",
        medians[medians.len() / 2],
        medians.len()
    );
}

/// Times `routine` with a fresh untimed `setup()` product per iteration.
///
/// Only the `routine(&mut s)` call sits inside the timed window; both the
/// setup and the teardown (dropping `s`) run with the clock stopped.
pub fn bench_with_setup<S, T>(
    name: &str,
    setup: impl FnMut() -> S,
    routine: impl FnMut(&mut S) -> T,
) {
    bench_with_setup_ns(name, setup, routine);
}

/// Like [`bench_with_setup`], but also returns the best (minimum)
/// per-sample ns/iter so the caller can post-process the result (e.g.
/// compute speedups or emit a machine-readable `BENCH_*.json` baseline).
///
/// Each iteration times the routine call alone (per-call `Instant`, ~20 ns
/// overhead — noise for the multi-microsecond routines benched here). The
/// previous scheme timed a setup-only loop and a setup+routine loop and
/// reported the difference; when setup dwarfs the routine (building a
/// whole OS vs. one fork) that subtraction amplified host noise into
/// ±40% swings, far too unstable to gate regressions on.
///
/// The returned statistic is the *minimum* over samples: for
/// deterministic CPU-bound code, host interference (scheduling,
/// frequency shifts, cache pollution from neighbours) is strictly
/// additive, so the minimum is the most reproducible estimate of the
/// code's own cost and the right number to gate regressions on. The
/// median is still printed alongside for eyeballing spread.
pub fn bench_with_setup_ns<S, T>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S) -> T,
) -> u64 {
    let iters = crate::env_u64("BENCH_ITERS", 0).clamp(1, 1000);
    let iters = if iters == 1 { 50 } else { iters };
    let mut per_sample = Vec::new();
    for _ in 0..samples() {
        let mut total_ns = 0u64;
        for _ in 0..iters {
            let mut s = setup();
            let t = Instant::now();
            black_box(routine(&mut s));
            total_ns += t.elapsed().as_nanos() as u64;
            drop(s);
        }
        per_sample.push(total_ns / iters);
    }
    per_sample.sort_unstable();
    let best = per_sample[0];
    let median = per_sample[per_sample.len() / 2];
    println!(
        "{name}: {best} ns/iter best, {median} median ({} samples x {iters} iters, setup untimed)",
        per_sample.len()
    );
    best
}
