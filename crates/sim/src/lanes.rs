//! Per-worker lane clocks for the deterministic multicore cost model.
//!
//! The simulator executes on the host with real threads, but *simulated*
//! time must not depend on host scheduling. [`LaneClocks`] models an
//! N-core machine the way a critical-path analysis would: every unit of
//! parallel work is charged to a statically chosen lane, and the elapsed
//! simulated time of the parallel section is the **maximum** over lanes —
//! the moment the last core finishes. Total work (the sum over lanes) is
//! still available for utilization accounting.
//!
//! Determinism contract: lane assignment and the order in which costs are
//! folded into each lane are fixed by the caller (e.g. chunk index modulo
//! worker count, folded in chunk-index order), never by host thread
//! completion order. Same inputs + same lane count ⇒ bit-identical `f64`
//! results.

use crate::clock::Ns;

/// Simulated clocks for the lanes (cores) of a parallel section.
///
/// # Examples
///
/// ```
/// use ufork_sim::LaneClocks;
///
/// let mut lanes = LaneClocks::new(2);
/// lanes.charge(0, 100.0);
/// lanes.charge(1, 250.0);
/// lanes.charge(0, 50.0);
/// assert_eq!(lanes.elapsed(), 250.0); // the slowest lane gates the join
/// assert_eq!(lanes.total_work(), 400.0);
/// ```
#[derive(Clone, Debug)]
pub struct LaneClocks {
    lanes: Vec<Ns>,
}

impl LaneClocks {
    /// Clocks for `workers` lanes, all at zero. `workers` is clamped to at
    /// least 1 — a parallel section always has one core to run on.
    pub fn new(workers: usize) -> LaneClocks {
        LaneClocks {
            lanes: vec![0.0; workers.max(1)],
        }
    }

    /// Number of lanes.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// Charges `ns` of simulated work to `lane` (wrapping modulo the lane
    /// count, so callers can pass a raw chunk index). Negative and NaN
    /// charges are ignored (time never goes backwards, and a NaN must not
    /// poison later timestamps); a sum past `f64::MAX` saturates there.
    pub fn charge(&mut self, lane: usize, ns: Ns) {
        if ns.is_nan() || ns < 0.0 {
            return;
        }
        let i = lane % self.lanes.len();
        let next = self.lanes[i] + ns;
        self.lanes[i] = if next.is_finite() { next } else { f64::MAX };
    }

    /// Simulated time of lane `i`.
    pub fn lane(&self, i: usize) -> Ns {
        self.lanes[i % self.lanes.len()]
    }

    /// Advances lane `i` to the absolute time `t` (no-op when the lane is
    /// already past `t`, or when `t` is NaN).
    ///
    /// The discrete-event scheduler sets a core's clock to each step's
    /// *end* time rather than accumulating a delta: `lane + (end - lane)`
    /// is not guaranteed to round back to `end`, and the scheduler's
    /// replay contract needs the core clock bit-identical to the
    /// arithmetic that produced the step end.
    pub fn advance_to(&mut self, lane: usize, t: Ns) {
        if t.is_nan() {
            return;
        }
        let i = lane % self.lanes.len();
        if t > self.lanes[i] {
            self.lanes[i] = t;
        }
    }

    /// Elapsed simulated time of the parallel section: the time at which
    /// the last lane finishes (max over lanes).
    pub fn elapsed(&self) -> Ns {
        self.lanes.iter().copied().fold(0.0, f64::max)
    }

    /// Total simulated work across all lanes (what a single core would
    /// have taken; `total_work / elapsed` is the achieved speedup).
    pub fn total_work(&self) -> Ns {
        self.lanes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_max_over_lanes() {
        let mut l = LaneClocks::new(4);
        for (i, ns) in [10.0, 40.0, 20.0, 30.0].into_iter().enumerate() {
            l.charge(i, ns);
        }
        assert_eq!(l.elapsed(), 40.0);
        assert_eq!(l.total_work(), 100.0);
        assert_eq!(l.workers(), 4);
    }

    #[test]
    fn single_lane_degenerates_to_serial() {
        let mut l = LaneClocks::new(1);
        l.charge(0, 5.0);
        l.charge(7, 10.0); // wraps to lane 0
        assert_eq!(l.elapsed(), 15.0);
        assert_eq!(l.elapsed(), l.total_work());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let l = LaneClocks::new(0);
        assert_eq!(l.workers(), 1);
        assert_eq!(l.elapsed(), 0.0);
    }

    #[test]
    fn lane_assignment_wraps_deterministically() {
        let mut l = LaneClocks::new(3);
        for chunk in 0..9 {
            l.charge(chunk, 1.0);
        }
        // 9 chunks round-robin over 3 lanes: perfectly balanced.
        assert_eq!(l.lane(0), 3.0);
        assert_eq!(l.lane(1), 3.0);
        assert_eq!(l.lane(2), 3.0);
        assert_eq!(l.elapsed(), 3.0);
    }

    #[test]
    fn advance_to_is_monotone_and_exact() {
        let mut l = LaneClocks::new(2);
        l.advance_to(0, 100.5);
        assert_eq!(l.lane(0), 100.5); // exact, not accumulated
        l.advance_to(0, 50.0); // going backwards is a no-op
        assert_eq!(l.lane(0), 100.5);
        l.advance_to(0, f64::NAN);
        assert_eq!(l.lane(0), 100.5);
        l.advance_to(3, 7.0); // wraps to lane 1
        assert_eq!(l.lane(1), 7.0);
        assert_eq!(l.elapsed(), 100.5);
    }

    #[test]
    fn nan_and_negative_charges_ignored() {
        let mut l = LaneClocks::new(2);
        l.charge(0, 10.0);
        l.charge(0, f64::NAN);
        l.charge(1, -3.0);
        assert_eq!(l.elapsed(), 10.0);
        assert_eq!(l.total_work(), 10.0);
    }
}
