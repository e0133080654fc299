//! The four seeded workloads, and what they share.

pub mod faas;
pub mod ringsvc;
pub mod snapshot;
pub mod storm;

use ufork_abi::Pid;
use ufork_exec::{Machine, MemOs};

use crate::scenario::SplitMix;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["storm", "faas", "snapshot", "ringsvc"];

/// Register holding a dict handle.
const DICT_REG: usize = 4;

/// The key of dict entry `k`.
fn key(k: u64) -> String {
    format!("key:{k:08}")
}

/// Entry `k`'s initial value: a seeded first byte, then a ramp.
fn value(seed: u64, k: u64) -> impl Iterator<Item = u8> {
    let first = SplitMix::new(seed ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64() as u8;
    (0..).map(move |j: usize| first.wrapping_add((j % 251) as u8))
}

/// Most forked children alive at once, from the fork and exit logs.
fn peak_live<O: MemOs>(m: &Machine<O>, root: Pid) -> u64 {
    let mut deltas: Vec<(u64, i64)> = m.fork_log().iter().map(|f| (f.at.to_bits(), 1)).collect();
    deltas.extend(
        m.exit_log()
            .iter()
            .filter(|e| e.pid != root)
            .map(|e| (e.at.to_bits(), -1)),
    );
    // Exits sort before births at equal times (-1 < 1).
    deltas.sort_unstable();
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, d) in deltas {
        live += d;
        peak = peak.max(live);
    }
    peak as u64
}

#[cfg(test)]
mod tests {
    use super::faas::{Faas, ARRIVAL_GAP_NS};
    use super::ringsvc::RingService;
    use super::snapshot::Snapshot;
    use super::storm::Storm;
    use crate::scenario::{run_rep, Scenario};
    use crate::timed::{Kind, Timed};

    /// Runs `s` untraced and traced: both must pass their checks and
    /// agree bit for bit, and the traced run must have timed calls.
    fn transparent<S: Scenario>(s: &S) {
        let plain = run_rep(s, |os| os, u64::MAX, |_| {});
        assert!(plain.sim.problems.is_empty(), "{:?}", plain.sim.problems);
        assert_eq!(plain.sim.failed, 0);
        assert!(plain.sim.ops > 0 && !plain.sim.op_lat.is_empty());
        let traced = run_rep(s, Timed::new, u64::MAX, |m| m.os.reset_trace());
        assert_eq!(
            plain.sim.fingerprint(),
            traced.sim.fingerprint(),
            "the timing wrapper changed the simulated run"
        );
        let totals = traced.machine.os.totals();
        assert!(totals.calls[Kind::Fork as usize] > 0);
        assert!(traced.machine.os.trace().charged_total() > 0.0);
    }

    #[test]
    fn storm_is_transparent_and_checked() {
        transparent(&Storm::scaled(300, 5));
    }

    #[test]
    fn faas_is_transparent_and_checked() {
        transparent(&Faas {
            seed: 5,
            requests: 40,
            gap_ns: ARRIVAL_GAP_NS,
            entries: 64,
            val_bytes: 1024,
        });
    }

    #[test]
    fn snapshot_is_transparent_and_checked() {
        transparent(&Snapshot {
            seed: 5,
            intervals: 4,
            entries: 32,
            val_bytes: 4096,
        });
    }

    #[test]
    fn ringsvc_is_transparent_and_checked() {
        transparent(&RingService {
            requests: 300,
            keys: 256,
            parse_ops: 2000,
        });
    }

    #[test]
    fn different_seeds_give_different_runs() {
        let a = run_rep(&Storm::scaled(200, 1), |os| os, u64::MAX, |_| {}).sim;
        let b = run_rep(&Storm::scaled(200, 2), |os| os, u64::MAX, |_| {}).sim;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
