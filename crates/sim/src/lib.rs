//! Simulated time and the calibrated hardware cost model.
//!
//! The μFork paper's numbers come from real ARM Morello hardware, which we
//! do not have. The reproduction therefore runs every experiment in
//! *simulated time*: each primitive operation both systems perform (page
//! copy, PTE update, trap, sealed-capability domain switch, …) is charged
//! a cost from a single [`CostModel`].
//!
//! Calibration policy (see `DESIGN.md` §2): a handful of constants are
//! anchored against the paper's published micro-measurements (hello-world
//! fork 54 μs on μFork / 197 μs on CheriBSD / 10.7 ms on Nephele;
//! Unixbench Context1 245 / 419 ms). Everything else — scaling with
//! database size, the CoPA/CoA/full-copy gaps, memory curves, crossover
//! points — must *emerge from the simulated work actually performed*, not
//! from per-figure constants.
//!
//! [`OpCounters`] records how much of each primitive actually ran, so
//! tests and the benchmark harness can assert on mechanism (e.g. "CoPA
//! copied only pointer-bearing pages") rather than only on time.

mod clock;
mod cost;
mod counters;
mod lanes;
mod phases;
mod trace;

pub use clock::Ns;
pub use cost::CostModel;
pub use counters::OpCounters;
pub use lanes::LaneClocks;
pub use phases::{assert_counter_pairs, Instant, Lane, Phase};
pub use trace::{
    chrome_trace_json, summary_table, EventKind, InstantTotal, PhaseTotal, TraceBuf, TraceEvent,
    TraceRun, DEFAULT_TRACE_CAPACITY, TRACE_SCHEMA,
};
