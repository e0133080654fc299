//! Differential fork-semantics oracle for the μFork reproduction.
//!
//! The oracle answers one question from many angles: *do all three μFork
//! copy strategies and the multi-address-space reference kernel agree on
//! the observable semantics of `fork`?* It has five engines:
//!
//! 1. **Kernel-level differential** ([`diff`], [`driver`], [`gen`]) —
//!    seeded random programs of mallocs/frees, raw writes, pointer-graph
//!    stores/loads, nested forks and exits run directly against each
//!    kernel's [`ufork_exec::MemOs`] surface. Post-fork heap images are
//!    compared byte-for-byte for untagged granules and structurally
//!    (bounds, cursor, permissions, seal — all region-relative, i.e.
//!    modulo the documented relocation delta) for tagged ones.
//!    Divergences are minimized by chunk-removal shrinking.
//! 2. **Machine-level differential** ([`machine`]) — fork trees with
//!    pipe traffic, fd inheritance, waits and exit codes run on the full
//!    executive, sequentialized by synchronization so observations are
//!    cost-model-independent.
//! 3. **Deterministic fault injection** ([`fault`]) — every frame
//!    allocation attempt inside the fork walk and inside lazy CoA/CoPA
//!    fault resolution is made to fail, one run per attempt index; the
//!    kernel's reclaim-then-retry must absorb each transient failure
//!    without leaking a frame or a PTE, while μprocess-region exhaustion
//!    mid-fork must fail cleanly.
//! 4. **Journal chaos sweep** ([`chaos`]) — every journal op of a
//!    reference fork (with and without live ring endpoints), of a
//!    pipelined copy window, a snapshot train, a reclaim drain and an
//!    OOM reap is made to abort, one run per op index, and the
//!    transactional rollback must balance frames, refcounts, PTEs and
//!    regions back to zero at each point. Engines 3 and 4 share one
//!    abort-point sweep (`sweep.rs`).
//! 5. **Ring-fabric differential** ([`ring`]) — the multi-tier
//!    frontend/worker/store service run on all four backends, with ring
//!    push/pop counts, order-sensitive digests, and the store's final
//!    KV dump compared bitwise.
//!
//! Everything is replayable from a single seed:
//! `cargo run -p ufork-oracle -- --seed N --cases M` (or the
//! `ORACLE_SEED` / `ORACLE_CASES` environment variables).

pub mod chaos;
pub mod diff;
pub mod driver;
pub mod fault;
pub mod gen;
pub mod machine;
pub mod ring;
mod sweep;

use ufork_testkit::Rng;

/// Derives the per-case RNG from the suite seed (stable across runs and
/// platforms; case `k` can be replayed alone).
pub fn case_rng(seed: u64, case: u64) -> Rng {
    let mut r = Rng::new(seed.wrapping_add(case).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    r.split()
}

/// Outcome of a whole oracle run.
#[derive(Debug, Default)]
pub struct OracleReport {
    /// Kernel-level differential cases that agreed.
    pub kernel_cases: u64,
    /// Machine-level differential cases that agreed.
    pub machine_cases: u64,
    /// Ring-fabric differential runs that agreed bitwise across all
    /// four backends (0 when skipped).
    pub ring_cases: u64,
    /// What the fault campaign exercised (all zero when skipped).
    pub faults: fault::FaultSummary,
    /// What the chaos sweep exercised (all zero when skipped).
    pub chaos: chaos::ChaosSummary,
    /// Human-readable failures (empty = success).
    pub failures: Vec<String>,
}

impl OracleReport {
    /// True when every engine passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the kernel-level differential for `cases` seeded programs.
pub fn run_kernel_diff(seed: u64, cases: u64, report: &mut OracleReport) {
    for case in 0..cases {
        let mut rng = case_rng(seed, case);
        let prog = gen::gen_kernel_program(&mut rng);
        let aslr = rng.next_u64();
        match diff::run_case(&prog, aslr) {
            diff::CaseOutcome::Agree => report.kernel_cases += 1,
            diff::CaseOutcome::Diverged { program, report: r } => {
                report.failures.push(format!(
                    "kernel case {case} (seed {seed}): {r}\n  minimized program \
                     ({} ops): {:?}",
                    program.ops.len(),
                    program.ops
                ));
            }
        }
    }
}

/// Runs the machine-level differential for `cases` seeded fork trees.
pub fn run_machine_diff(seed: u64, cases: u64, report: &mut OracleReport) {
    for case in 0..cases {
        // Distinct stream from the kernel diff.
        let mut rng = case_rng(seed ^ 0x6d61_6368, case);
        let mut budget = gen::MAX_PROCS;
        let tree = gen::gen_tree(&mut rng, &mut budget, 0);
        match machine::run_machine_case(&tree) {
            Ok(()) => report.machine_cases += 1,
            Err((min, r)) => {
                report.failures.push(format!(
                    "machine case {case} (seed {seed}): {r}\n  minimized tree: {min:?}"
                ));
            }
        }
    }
}

/// Runs the fault-injection campaign.
pub fn run_faults(report: &mut OracleReport) {
    match fault::fault_campaign() {
        Ok(s) => report.faults = s,
        Err(e) => report.failures.push(format!("fault campaign: {e}")),
    }
}

/// Runs the journal chaos sweep (every journal op index aborted once,
/// plus mid-storm journal/allocator injections under scheduler load).
pub fn run_chaos(report: &mut OracleReport) {
    match chaos::chaos_sweep() {
        Ok(s) => report.chaos = s,
        Err(e) => report.failures.push(format!("chaos sweep: {e}")),
    }
}

/// Runs the ring-fabric differential: the multi-tier service on all
/// four backends, ring traffic and KV digests compared bitwise.
pub fn run_ring_diff(report: &mut OracleReport) {
    let cfg = ufork_workloads::ringsvc::RingSvcConfig {
        requests: 600,
        ..Default::default()
    };
    match ring::run_ring_case(&cfg) {
        Ok(_) => report.ring_cases += 1,
        Err(e) => report.failures.push(format!("ring differential: {e}")),
    }
}

/// The full oracle: kernel diff, machine diff, ring diff, fault
/// campaign, chaos sweep.
pub fn run_oracle(seed: u64, cases: u64, skip_faults: bool) -> OracleReport {
    let mut report = OracleReport::default();
    run_kernel_diff(seed, cases, &mut report);
    // Machine cases are slower (full executive); run a proportional slice.
    run_machine_diff(seed, cases.div_ceil(5), &mut report);
    run_ring_diff(&mut report);
    if !skip_faults {
        run_faults(&mut report);
        run_chaos(&mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_stable() {
        assert_eq!(case_rng(1, 0).next_u64(), case_rng(1, 0).next_u64());
        assert_ne!(case_rng(1, 0).next_u64(), case_rng(1, 1).next_u64());
        assert_ne!(case_rng(1, 0).next_u64(), case_rng(2, 0).next_u64());
    }
}
