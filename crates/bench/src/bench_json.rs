//! `BENCH_fork.json`: every simulated-time bench family in one
//! machine-readable file, written by `repro bench-json`.
//!
//! Each family comes from the same sweep `repro` prints, at the same full
//! scale, and each sweep asserts its own gates as it runs. Every value is
//! simulated and bit-reproducible, so CI regenerates the file and diffs
//! it against the committed one exactly: any change to a row is either a
//! bug or a rebaseline with a stated reason. A family's columns are its
//! row type's [`crate::report::Row::cells`].

use crate::report::json_family;
use crate::{
    fork_admission_sweep, fork_frontier_sweep, fork_scaling_sweep, pressure_sweep, ring_fork_sweep,
    ring_service_sweep, snapshot_train_sweep, storm_sweep, trace_fork_runs, zygote_fleet_sweep,
    TracedFork, PRESSURE_CHILDREN, PRESSURE_SEED, RING_SERVICE_REQUESTS, STORM_CHILDREN,
    STORM_CORES, STORM_SEED,
};

/// Runs every bench family at full scale and renders `BENCH_fork.json`.
///
/// # Panics
///
/// Panics if any sweep fails its determinism check or its gate.
pub fn bench_fork_json() -> String {
    let traced = trace_fork_runs();
    let phases: Vec<_> = traced.iter().flat_map(TracedFork::phase_rows).collect();
    let families = [
        json_family("fork_scaling", &fork_scaling_sweep()),
        json_family("fork_pipeline", &fork_frontier_sweep()),
        json_family("fork_phases", &phases),
        json_family("fork_admission", &fork_admission_sweep()),
        json_family(
            "fork_storm",
            &storm_sweep(STORM_CHILDREN, STORM_SEED, STORM_CORES),
        ),
        json_family(
            "fork_pressure",
            &pressure_sweep(PRESSURE_CHILDREN, PRESSURE_SEED, STORM_CORES),
        ),
        json_family("fork_snapshot_train", &snapshot_train_sweep()),
        json_family("fork_zygote", &zygote_fleet_sweep()),
        json_family("fork_ring", &ring_fork_sweep()),
        json_family(
            "fork_ring_service",
            &ring_service_sweep(RING_SERVICE_REQUESTS),
        ),
    ];
    format!(
        "{{\n  \"schema\": \"ufork-bench-fork/v11\",\n  \"unit\": \"simulated ns\",\n{}\n}}\n",
        families.join(",\n")
    )
}
