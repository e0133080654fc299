//! The `fork_pressure` family: the event-driven fork storm swept across
//! allocator occupancy × reclaim daemon, certifying the PR's survival
//! gate — fork p99 stays flat (≤ [`PRESSURE_P99_LIMIT`]×) when the storm
//! crosses the high pressure watermark with the background reclaim
//! daemon on. The daemon-off run at the same occupancy is kept as the
//! ablation baseline: there every recycled frame charges its zeroing
//! scrub inline on the fork path.
//!
//! Unlike the peak-overlap storm (`fork_storm`), this storm *churns*:
//! services are short enough that children exit while later ones are
//! still arriving, so freed frames are continuously recycled into new
//! forks — exactly the regime where the pre-zeroed magazine pays off.

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::CopyStrategy;
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_sim::OpCounters;
use ufork_workloads::storm::{summarize, StormConfig, StormZygote};

use crate::report::{repeatable, Cell, Row};
use crate::storm::storm_image;

/// The survival gate: crossing the high watermark with the daemon on may
/// cost fork p99 at most this factor over the low-occupancy storm.
pub const PRESSURE_P99_LIMIT: f64 = 1.25;

/// One row of the `fork_pressure` sweep.
#[derive(Clone, Debug)]
pub struct PressureStormRow {
    /// `low` (comfortably Normal) or `high` (Elevated throughout).
    pub occupancy: &'static str,
    /// Background reclaim daemon armed.
    pub daemon: bool,
    /// Children stormed ([`PRESSURE_CHILDREN`] at full scale).
    pub children: u32,
    /// Median fork latency (ns, simulated).
    pub sim_p50_ns: f64,
    /// 99th-percentile fork latency (ns, simulated).
    pub sim_p99_ns: f64,
    /// Storm makespan (ns, simulated).
    pub sim_final_ns: f64,
    /// The machine's counters at the end of the storm. `oom_kills` is
    /// reported so a sizing regression is visible in the JSON: the storm
    /// is sized so none are needed.
    pub counters: OpCounters,
    /// Order-sensitive digest of the fork/exit event history.
    pub digest: u64,
}

impl Row for PressureStormRow {
    fn cells(&self) -> Vec<(&'static str, Cell)> {
        let c = &self.counters;
        vec![
            ("occupancy", Cell::Str(self.occupancy.into())),
            ("daemon", Cell::Bool(self.daemon)),
            ("children", Cell::Int(self.children.into())),
            ("sim_p50_ns", Cell::Ns(self.sim_p50_ns)),
            ("sim_p99_ns", Cell::Ns(self.sim_p99_ns)),
            ("sim_final_ns", Cell::Ns(self.sim_final_ns)),
            ("reclaim_background", Cell::Int(c.reclaim_background)),
            ("frames_prezeroed", Cell::Int(c.frames_prezeroed)),
            ("magazine_hits", Cell::Int(c.magazine_hits)),
            ("reclaim_inline", Cell::Int(c.reclaim_inline)),
            ("oom_kills", Cell::Int(c.oom_kills)),
            ("digest", Cell::Hex(self.digest)),
        ]
    }
}

/// One occupancy point of the sweep.
struct OccupancyPoint {
    label: &'static str,
    phys_mib: u32,
    /// Forced watermarks (`None` keeps the allocator defaults). The
    /// `high` point pins the hysteretic level at Elevated from the first
    /// few children on, without shrinking physical memory into actual
    /// exhaustion — the gate measures the *zeroing* tax, not OOM.
    watermarks: Option<(u32, u32)>,
}

const POINTS: [OccupancyPoint; 2] = [
    OccupancyPoint {
        label: "low",
        phys_mib: 256,
        watermarks: None,
    },
    OccupancyPoint {
        label: "high",
        phys_mib: 24,
        watermarks: Some((64, 6100)),
    },
];

/// Runs one churning storm and distills the row.
fn run_point(
    point: &OccupancyPoint,
    daemon: bool,
    children: u32,
    seed: u64,
    cores: usize,
) -> PressureStormRow {
    let mut os = UforkOs::new(UforkConfig {
        phys_mib: point.phys_mib,
        strategy: CopyStrategy::Full,
        walk: WalkMode::Serial,
        reclaim_daemon: daemon,
        ..UforkConfig::default()
    });
    if let Some((low, high)) = point.watermarks {
        os.set_pressure_watermarks(low, high);
    }
    let mut m = Machine::new(
        os,
        MachineConfig {
            cores,
            oom_kill: true,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &storm_image(),
            Box::new(StormZygote::new(StormConfig {
                // Churn: ~20 live children in steady state, exits
                // interleaved with arrivals for the whole storm.
                service_base_ns: 2e6,
                service_jitter_mean_ns: 0.5e6,
                ..StormConfig::standard(children, seed)
            })),
        )
        .expect("spawn pressure zygote");
    m.run();
    let label = format!("fork_pressure/{}/daemon={daemon}", point.label);
    assert_eq!(m.exit_code(pid), Some(0), "{label}: zygote failed");
    let z = m.program::<StormZygote>(pid).expect("zygote state");
    let report = summarize(pid, m.fork_log(), m.exit_log(), z, m.now());
    assert_eq!(report.completed, children, "{label}: lost children");
    assert_eq!(report.retries, 0, "{label}: storm-visible fork failure");
    assert_eq!(
        m.os.allocated_frames(),
        0,
        "{label}: leaked frames after all exits"
    );
    PressureStormRow {
        occupancy: point.label,
        daemon,
        children,
        sim_p50_ns: report.p50_fork_ns,
        sim_p99_ns: report.p99_fork_ns,
        sim_final_ns: report.final_ns,
        counters: *m.counters(),
        digest: report.digest,
    }
}

/// Runs the occupancy × daemon sweep, each point twice (asserting the
/// two runs bit-identical), and enforces the family's invariants:
///
/// * at low occupancy the daemon is *invisible* — the daemon-on and
///   daemon-off runs produce bit-identical schedules and latencies;
/// * at high occupancy the daemon engages (background passes, scrubbed
///   frames, and magazine hits on the fork path all nonzero) while the
///   daemon-off ablation runs zero background passes;
/// * the survival gate: high-occupancy daemon-on fork p99 stays within
///   [`PRESSURE_P99_LIMIT`]× the low-occupancy p99.
pub fn pressure_sweep(children: u32, seed: u64, cores: usize) -> Vec<PressureStormRow> {
    let mut rows = Vec::new();
    for point in &POINTS {
        for daemon in [false, true] {
            let what = format!("fork_pressure/{}/daemon={daemon}", point.label);
            rows.push(repeatable(&what, || {
                run_point(point, daemon, children, seed, cores)
            }));
        }
    }
    let pick = |occupancy: &str, daemon: bool| {
        rows.iter()
            .find(|r| r.occupancy == occupancy && r.daemon == daemon)
            .expect("pressure row")
    };
    // Low occupancy: pressure never leaves Normal, so arming the daemon
    // must not change a single bit of the schedule.
    let (lo_off, lo_on) = (pick("low", false), pick("low", true));
    assert_eq!(
        (lo_off.digest, lo_off.sim_final_ns.to_bits()),
        (lo_on.digest, lo_on.sim_final_ns.to_bits()),
        "fork_pressure/low: an idle reclaim daemon perturbed the schedule"
    );
    assert_eq!(
        lo_on.counters.reclaim_background, 0,
        "fork_pressure/low: daemon ran without pressure"
    );
    // High occupancy: the daemon must actually do the work the gate
    // credits it for, and the ablation must not.
    let (hi_off, hi_on) = (pick("high", false), pick("high", true));
    assert!(
        hi_on.counters.reclaim_background > 0
            && hi_on.counters.frames_prezeroed > 0
            && hi_on.counters.magazine_hits > 0,
        "fork_pressure/high/daemon=true: daemon never engaged \
         (passes {}, prezeroed {}, hits {})",
        hi_on.counters.reclaim_background,
        hi_on.counters.frames_prezeroed,
        hi_on.counters.magazine_hits
    );
    assert_eq!(
        (
            hi_off.counters.reclaim_background,
            hi_off.counters.magazine_hits
        ),
        (0, 0),
        "fork_pressure/high/daemon=false: ablation run used the daemon"
    );
    let ratio = hi_on.sim_p99_ns / lo_on.sim_p99_ns;
    assert!(
        ratio <= PRESSURE_P99_LIMIT,
        "fork_pressure: fork p99 across the high watermark ({:.0} ns) is {ratio:.3}x \
         the low-occupancy p99 ({:.0} ns); must stay <= {PRESSURE_P99_LIMIT}x with the daemon on",
        hi_on.sim_p99_ns,
        lo_on.sim_p99_ns
    );
    rows
}

/// The pressure storm's full scale: churning children per point in
/// `repro pressure` and in `BENCH_fork.json`'s `fork_pressure` rows.
pub const PRESSURE_CHILDREN: u32 = 600;

/// The pressure storm's default seed (distinct from the overlap storm's
/// so the two families never share an event history).
pub const PRESSURE_SEED: u64 = 0x9E55_0A21;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pressure_sweep_holds_the_gate() {
        // The sweep asserts everything itself — determinism, daemon
        // invisibility at Normal, engagement at Elevated, and the p99
        // gate; a reduced N keeps `cargo test` fast.
        let rows = pressure_sweep(150, PRESSURE_SEED, 4);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.sim_p50_ns > 0.0 && r.sim_p99_ns >= r.sim_p50_ns);
            assert_eq!(
                r.counters.oom_kills, 0,
                "pressure storm is sized to avoid kills"
            );
        }
    }
}
