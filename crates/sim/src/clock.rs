//! Simulated time.

/// A point in (or span of) simulated time, in nanoseconds.
///
/// Stored as `f64`: per-operation costs are sub-nanosecond (e.g. a PTE
/// copy amortized through a cache-line memcpy), while experiment spans
/// reach tens of simulated seconds. `f64` keeps both exact enough
/// (relative error < 2⁻⁵²) and keeps arithmetic simple and deterministic.
pub type Ns = f64;
