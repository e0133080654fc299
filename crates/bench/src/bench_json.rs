//! `BENCH_fork.json`: every simulated-time bench family in one
//! machine-readable file, written by `repro bench-json`.
//!
//! Each family comes from the same sweep `repro` prints, at the same full
//! scale, and each sweep asserts its own gates as it runs. Every value is
//! simulated and bit-reproducible, so CI regenerates the file and diffs
//! it against the committed one exactly: any change to a row is either a
//! bug or a rebaseline with a stated reason.

use crate::{
    fork_admission_sweep, fork_frontier_sweep, fork_scaling_sweep, pressure_sweep, ring_fork_sweep,
    ring_service_sweep, snapshot_train_sweep, storm_sweep, trace_fork_runs, zygote_fleet_sweep,
    PRESSURE_CHILDREN, PRESSURE_SEED, RING_SERVICE_REQUESTS, STORM_CHILDREN, STORM_CORES,
    STORM_SEED,
};

/// One JSON array family: each row on its own line.
fn family(name: &str, rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|r| format!("    {{{r}}}")).collect();
    format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
}

/// Runs every bench family at full scale and renders `BENCH_fork.json`.
///
/// # Panics
///
/// Panics if any sweep fails its determinism check or its gate.
pub fn bench_fork_json() -> String {
    let scaling = family(
        "fork_scaling",
        fork_scaling_sweep().into_iter().map(|r| {
            format!(
                "\"heap\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"sim_fork_ns\": {:.1}, \"sim_copy_done_ns\": {:.1}, \"chunks\": {}",
                r.heap,
                r.mode_label(),
                r.workers,
                r.sim_fork_ns,
                r.sim_copy_done_ns,
                r.counters.fork_chunks
            )
        }),
    );
    let pipeline = family(
        "fork_pipeline",
        fork_frontier_sweep().into_iter().map(|r| {
            format!(
                "\"heap\": \"{}\", \"mode\": \"{}\", \"sim_commit_ns\": {:.1}, \"sim_copy_done_ns\": {:.1}",
                r.heap, r.mode, r.commit_ns, r.copy_done_ns
            )
        }),
    );
    let traced = trace_fork_runs();
    let phases = family(
        "fork_phases",
        traced.iter().flat_map(|r| {
            r.buf.phases().iter().map(move |p| {
                format!(
                    "\"mode\": \"{}\", \"phase\": \"{}\", \"sim_total_ns\": {:.1}, \"spans\": {}",
                    r.name, p.name, p.total_ns, p.count
                )
            })
        }),
    );
    let admission = family(
        "fork_admission",
        fork_admission_sweep()
            .into_iter()
            .map(|(policy, ns)| format!("\"policy\": \"{policy}\", \"sim_fork_ns\": {ns:.1}")),
    );
    let storm = family(
        "fork_storm",
        storm_sweep(STORM_CHILDREN, STORM_SEED, STORM_CORES)
            .into_iter()
            .map(|(mode, r, p)| {
                format!(
                    "\"mode\": \"{}\", \"children\": {}, \"completed\": {}, \"peak_live\": {}, \"retries\": {}, \"sim_p50_ns\": {:.1}, \"sim_p99_ns\": {:.1}, \"sim_mean_ns\": {:.1}, \"sim_ns_per_fork\": {:.1}, \"forks_per_sim_sec\": {:.3}, \"sim_final_ns\": {:.1}, \"copy_windows\": {}, \"sim_copy_done_p50_ns\": {:.1}, \"sim_copy_done_p99_ns\": {:.1}, \"digest\": \"{:016x}\"",
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
            }),
    );
    let pressure = family(
        "fork_pressure",
        pressure_sweep(PRESSURE_CHILDREN, PRESSURE_SEED, STORM_CORES)
            .into_iter()
            .map(|r| {
                format!(
                    "\"occupancy\": \"{}\", \"daemon\": {}, \"children\": {}, \"sim_p50_ns\": {:.1}, \"sim_p99_ns\": {:.1}, \"sim_final_ns\": {:.1}, \"reclaim_background\": {}, \"frames_prezeroed\": {}, \"magazine_hits\": {}, \"reclaim_inline\": {}, \"oom_kills\": {}, \"digest\": \"{:016x}\"",
                    r.occupancy,
                    r.daemon,
                    r.children,
                    r.sim_p50_ns,
                    r.sim_p99_ns,
                    r.sim_final_ns,
                    r.counters.reclaim_background,
                    r.counters.frames_prezeroed,
                    r.counters.magazine_hits,
                    r.counters.reclaim_inline,
                    r.counters.oom_kills,
                    r.digest
                )
            }),
    );
    let snapshot = family(
        "fork_snapshot_train",
        snapshot_train_sweep().into_iter().map(|r| {
            format!(
                "\"system\": \"{}\", \"scope\": \"{}\", \"walk\": \"{}\", \"snapshot\": {}, \"sim_fork_ns\": {:.1}, \"sim_copy_done_ns\": {:.1}, \"pages_dirty_copied\": {}, \"pages_shared_clean\": {}",
                r.system,
                r.scope,
                r.walk,
                r.snapshot,
                r.sim_fork_ns,
                r.sim_copy_done_ns,
                r.counters.pages_dirty_copied,
                r.counters.pages_shared_clean
            )
        }),
    );
    let zygote = family(
        "fork_zygote",
        zygote_fleet_sweep().into_iter().map(|r| {
            format!(
                "\"variant\": \"{}\", \"children\": {}, \"frames_one_child\": {}, \"frames_fleet\": {}, \"frames_deduped\": {}, \"dedup_hash_probes\": {}, \"pages_shared_clean\": {}",
                r.variant,
                r.children,
                r.frames_one_child,
                r.frames_fleet,
                r.counters.frames_deduped,
                r.counters.dedup_hash_probes,
                r.counters.pages_shared_clean
            )
        }),
    );
    let ring = family(
        "fork_ring",
        ring_fork_sweep().into_iter().map(|r| {
            format!(
                "\"mode\": \"{}\", \"setup\": \"{}\", \"endpoints\": {}, \"sim_fork_ns\": {:.1}, \"ring_caps_relocated\": {}",
                r.mode, r.setup, r.endpoints, r.sim_fork_ns, r.counters.ring_caps_relocated
            )
        }),
    );
    let ring_service = family(
        "fork_ring_service",
        ring_service_sweep(RING_SERVICE_REQUESTS).into_iter().map(|r| {
            format!(
                "\"mode\": \"{}\", \"requests\": {}, \"sim_final_ns\": {:.1}, \"ring_msgs\": {}, \"ring_full_stalls\": {}, \"ring_caps_relocated\": {}, \"kv_digest\": \"{:016x}\"",
                r.mode,
                r.requests,
                r.sim_final_ns,
                r.counters.ring_msgs,
                r.counters.ring_full_stalls,
                r.counters.ring_caps_relocated,
                r.kv_digest
            )
        }),
    );
    let families = [
        scaling,
        pipeline,
        phases,
        admission,
        storm,
        pressure,
        snapshot,
        zygote,
        ring,
        ring_service,
    ];
    format!(
        "{{\n  \"schema\": \"ufork-bench-fork/v11\",\n  \"unit\": \"simulated ns\",\n{}\n}}\n",
        families.join(",\n")
    )
}
