//! Per-step accounting context.

use ufork_sim::{Instant, Lane, OpCounters, Phase, TraceBuf};

/// Accounting context threaded through every backend operation during one
/// program step.
///
/// Time is split into user and kernel nanoseconds so the machine can apply
/// the big-kernel-lock serialization model (paper §4.5: Unikraft "lets
/// application code run concurrently but serializes kernel code
/// execution") to the kernel portion only.
///
/// The context also carries the optional trace sink
/// ([`ufork_sim::TraceBuf`]): every kernel charge is attributed to the
/// currently open phase span, so per-phase totals are built from the same
/// `f64` additions, in the same order, as `kernel_ns` itself. When
/// tracing is disabled (the default) each hook is a single predictable
/// branch and the clock arithmetic is unchanged.
#[derive(Debug, Default)]
pub struct Ctx {
    /// User-mode simulated time accumulated this step.
    pub user_ns: f64,
    /// Kernel-mode simulated time accumulated this step.
    pub kernel_ns: f64,
    /// Operation counters (shared with the machine).
    pub counters: OpCounters,
    /// Trace sink; disabled (and allocation-free) by default.
    pub trace: TraceBuf,
}

impl Ctx {
    /// A fresh context.
    pub fn new() -> Ctx {
        Ctx::default()
    }

    /// A fresh context with tracing enabled (event ring of `cap` slots).
    pub fn traced(cap: usize) -> Ctx {
        let mut c = Ctx::new();
        c.trace = TraceBuf::enabled(cap);
        c
    }

    /// Charges user time. User time is not phase-attributed: the trace
    /// layer models the paper's *kernel* phase breakdown (fork, fault
    /// resolution), and user/kernel ns stay separate clocks.
    pub fn user(&mut self, ns: f64) {
        self.user_ns += ns;
    }

    /// Charges kernel time, feeding the trace sink when enabled.
    #[inline]
    pub fn kernel(&mut self, ns: f64) {
        self.kernel_ns += ns;
        if self.trace.is_enabled() {
            self.trace.on_charge(ns);
        }
    }

    /// Total time this step.
    pub fn total(&self) -> f64 {
        self.user_ns + self.kernel_ns
    }

    /// Opens a trace phase span (closing any open one) at the current
    /// simulated kernel time. No-op when tracing is disabled.
    #[inline]
    pub fn phase(&mut self, phase: Phase) {
        if self.trace.is_enabled() {
            let now = self.kernel_ns;
            self.trace.phase(phase, now);
        }
    }

    /// Closes the open trace phase span, if any.
    #[inline]
    pub fn phase_end(&mut self) {
        if self.trace.is_enabled() {
            let now = self.kernel_ns;
            self.trace.phase_end(now);
        }
    }

    /// Records a zero-duration trace marker at the current kernel time.
    #[inline]
    pub fn instant(&mut self, instant: Instant) {
        if self.trace.is_enabled() {
            let now = self.kernel_ns;
            self.trace.instant(instant, now);
        }
    }

    /// Records a span of per-chunk work on a parallel lane. `start_ns`
    /// and `dur_ns` come from the caller's deterministic lane clocks.
    #[inline]
    pub fn lane_span(&mut self, span: Lane, lane: u32, start_ns: f64, dur_ns: f64) {
        if self.trace.is_enabled() {
            self.trace.lane_span(span, lane, start_ns, dur_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_split_time() {
        let mut c = Ctx::new();
        c.user(10.0);
        c.kernel(5.0);
        c.user(2.5);
        assert_eq!(c.user_ns, 12.5);
        assert_eq!(c.kernel_ns, 5.0);
        assert_eq!(c.total(), 17.5);
    }

    #[test]
    fn disabled_trace_leaves_clocks_identical() {
        let mut plain = Ctx::new();
        let mut traced_off = Ctx::new();
        assert!(!traced_off.trace.is_enabled());
        for ns in [1.5, 0.7, 400.0, 30.0] {
            plain.kernel(ns);
            traced_off.kernel(ns);
            traced_off.phase(Phase::ForkFixed);
            traced_off.instant(Instant::FaultCow);
        }
        traced_off.phase_end();
        assert_eq!(plain.kernel_ns.to_bits(), traced_off.kernel_ns.to_bits());
        assert_eq!(traced_off.trace.charged_total(), 0.0);
    }

    #[test]
    fn charged_total_is_bitwise_kernel_ns_on_fresh_ctx() {
        let mut c = Ctx::traced(64);
        c.phase(Phase::ForkFixed);
        // Non-dyadic charges: order-sensitive f64 sums.
        for ns in [0.7, 0.9, 0.45, 350.0, 5.5, 1.2] {
            c.kernel(ns);
        }
        c.phase(Phase::ForkRegion);
        c.kernel(12.0);
        c.phase_end();
        assert_eq!(c.kernel_ns.to_bits(), c.trace.charged_total().to_bits());
    }

    #[test]
    fn user_time_is_not_phase_attributed() {
        let mut c = Ctx::traced(16);
        c.phase(Phase::ForkFixed);
        c.user(100.0);
        c.kernel(10.0);
        c.phase_end();
        assert_eq!(c.trace.charged_total(), 10.0);
        assert_eq!(c.trace.phases()[0].total_ns, 10.0);
    }
}
