//! Experiment harness regenerating every table and figure of the μFork
//! evaluation (paper §5).
//!
//! Each `figN` function runs the corresponding experiment in simulated
//! time and returns structured rows; the `repro` binary renders them as
//! the paper's tables/series. `EXPERIMENTS.md` records paper-vs-measured.
//! [`bench_fork_json`] renders the simulated bench families as
//! `BENCH_fork.json`.

pub mod ablations;
pub mod bench_json;
pub mod experiments;
pub mod pressure_exp;
pub mod report;
pub mod ring_exp;
pub mod snapshot;
pub mod storm;
pub mod trace_exp;

pub use ablations::*;
pub use bench_json::bench_fork_json;
pub use experiments::*;
pub use pressure_exp::*;
pub use ring_exp::*;
pub use snapshot::*;
pub use storm::*;
pub use trace_exp::*;
