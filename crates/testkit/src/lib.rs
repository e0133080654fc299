//! Offline-capable test support for the μFork reproduction.
//!
//! The container this repository builds in has no network access, so the
//! test suite cannot depend on crates.io (`proptest`, `rand`, `criterion`).
//! This crate replaces the parts of those we actually use with ~300 lines
//! of deterministic, dependency-free code:
//!
//! * [`Rng`] — a SplitMix64 pseudo-random generator. Identical sequences
//!   on every platform for a given seed, which is exactly what a
//!   *replayable* differential oracle needs (`ORACLE_SEED`).
//! * [`forall`] / [`PropConfig`] — a miniature property-test harness: run a
//!   property over `cases` generated inputs, and on failure greedily
//!   *shrink* the failing input before reporting, printing the seed that
//!   reproduces it.
//!
//! Property suites built on this harness are gated behind the crate-local
//! `props` cargo feature, which is **on by default** — `cargo test` runs
//! them offline; `--no-default-features` skips them for a quick edit loop.

pub mod bench;
mod prop;
mod rng;

pub use prop::{forall, no_shrink, shrink_vec, CaseResult, PropConfig};
pub use rng::Rng;

/// Reads an environment variable as `u64`, with a default.
///
/// Used for `ORACLE_SEED` / `PROP_CASES` overrides so CI and humans can
/// replay a failure without recompiling.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}
