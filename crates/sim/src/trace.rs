//! Structured tracing keyed to simulated nanoseconds.
//!
//! The paper's evaluation (§6) attributes fork latency to individual
//! phases using Morello PMU counters. The reproduction has no PMU, but it
//! has something better: every nanosecond of simulated time enters the
//! clock through an explicit charge. [`TraceBuf`] taps that stream —
//! each charge is attributed to the currently open *phase span*, so
//! per-phase totals are built from **the same `f64` additions, in the
//! same order**, as the kernel clock itself. `charged_total()` over a
//! fresh context is therefore *bitwise* equal to the context's
//! `kernel_ns`, and per-phase sums tile end-to-end time exactly up to
//! floating-point re-association (validated at ~1e-9 relative by the CI
//! trace-smoke job).
//!
//! Determinism contract: events carry simulated timestamps (and lane ids
//! under the parallel walk) that are pure functions of the inputs — same
//! seed + same worker count ⇒ byte-identical Chrome-trace export.
//!
//! Zero overhead when disabled: every entry point is a single branch on
//! [`TraceBuf::is_enabled`]; the disabled buffer owns no allocations.
//! Names are the typed values of the `phases!` table, and totals are
//! found at the name's table index: no trace call compares strings.

use crate::phases::{Instant, Lane, Phase};

/// Schema identifier stamped into the Chrome-trace export.
pub const TRACE_SCHEMA: &str = "ufork-trace-fork/v1";

/// Default event-ring capacity used by [`TraceBuf::enabled`] callers that
/// have no better idea. Aggregated phase/instant totals never drop, so
/// the ring only bounds the *timeline* detail.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// What a [`TraceEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A contiguous span of main-timeline kernel work (`ph:"X"`, tid 0).
    Phase,
    /// A span of per-chunk work on a parallel lane (`ph:"X"`, tid lane+1).
    Lane,
    /// A zero-duration marker (`ph:"i"`).
    Instant,
}

/// One recorded event. Timestamps are simulated nanoseconds on the
/// charging context's kernel timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Static event name, e.g. `fork/walk/copy`.
    pub name: &'static str,
    /// Span/lane/instant discriminator.
    pub kind: EventKind,
    /// Lane id for [`EventKind::Lane`] events; 0 otherwise.
    pub lane: u32,
    /// Simulated start time (ns).
    pub start_ns: f64,
    /// Simulated duration (ns); 0 for instants.
    pub dur_ns: f64,
}

/// Aggregated totals for one phase name. Never dropped, regardless of
/// ring capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTotal {
    /// Phase name.
    pub name: &'static str,
    /// Sum of simulated ns charged while this phase was open, accumulated
    /// span-by-span in close order.
    pub total_ns: f64,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Longest single span (ns).
    pub max_ns: f64,
}

/// Aggregated count for one instant name. Never dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstantTotal {
    /// Instant name.
    pub name: &'static str,
    /// Times it fired.
    pub count: u64,
}

#[derive(Clone, Debug)]
struct OpenPhase {
    phase: Phase,
    start_ns: f64,
    /// Charges accumulated while this span is open, in charge order.
    acc: f64,
}

/// Totals in the order their names first occurred, each found in O(1)
/// at its name's table index.
#[derive(Clone, Debug)]
struct FirstSeen<T, const N: usize> {
    list: Vec<T>,
    /// Each name's position in `list` plus one; 0 (no entry) while unseen.
    slot: [u8; N],
}

impl<T, const N: usize> Default for FirstSeen<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize, "slot index overflows u8") };
        let (list, slot) = (Vec::new(), [0; N]);
        FirstSeen { list, slot }
    }
}

impl<T, const N: usize> FirstSeen<T, N> {
    fn get(&self, index: usize) -> Option<&T> {
        self.list.get(usize::from(self.slot[index]).wrapping_sub(1))
    }

    /// The total at `index`, made by `first` when the name first occurs.
    fn get_or_insert(&mut self, index: usize, first: impl FnOnce() -> T) -> &mut T {
        if self.slot[index] == 0 {
            self.list.push(first());
            self.slot[index] = self.list.len() as u8;
        }
        &mut self.list[usize::from(self.slot[index]) - 1]
    }
}

/// Bounded ring of trace events plus drop-free aggregation, fed by the
/// accounting context's charge stream.
#[derive(Clone, Debug, Default)]
pub struct TraceBuf {
    enabled: bool,
    cap: usize,
    /// Ring storage; once `events.len() == cap`, `head` marks the oldest
    /// slot and new events overwrite it.
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    phases: FirstSeen<PhaseTotal, { Phase::ALL.len() }>,
    instants: FirstSeen<InstantTotal, { Instant::ALL.len() }>,
    open: Option<OpenPhase>,
    charged_total: f64,
}

impl TraceBuf {
    /// A disabled buffer: no allocations, every call a single branch.
    pub fn disabled() -> TraceBuf {
        TraceBuf::default()
    }

    /// An enabled buffer with an event ring of `cap` slots (clamped to at
    /// least 1). Aggregated totals are unbounded either way.
    pub fn enabled(cap: usize) -> TraceBuf {
        TraceBuf {
            enabled: true,
            cap: cap.max(1),
            ..TraceBuf::default()
        }
    }

    /// Whether the buffer records anything. All other entry points are
    /// no-ops when this is false.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Feeds one kernel charge into the attribution stream. Called by the
    /// context on every `kernel()` while enabled; the addition order here
    /// mirrors the kernel clock exactly, which is what makes
    /// [`TraceBuf::charged_total`] bitwise-comparable to `kernel_ns`.
    #[inline]
    pub fn on_charge(&mut self, ns: f64) {
        if !self.enabled || ns.is_nan() || ns < 0.0 {
            return;
        }
        self.charged_total += ns;
        match &mut self.open {
            Some(open) => open.acc += ns,
            None => self.fold_phase(Phase::Unattributed, ns),
        }
    }

    /// Opens a phase span at simulated time `now_ns`, closing any span
    /// already open (phases tile; they never nest).
    pub fn phase(&mut self, phase: Phase, now_ns: f64) {
        if !self.enabled {
            return;
        }
        self.close_open(now_ns);
        self.open = Some(OpenPhase {
            phase,
            start_ns: now_ns,
            acc: 0.0,
        });
    }

    /// Closes the open phase span, if any, at simulated time `now_ns`.
    pub fn phase_end(&mut self, now_ns: f64) {
        if !self.enabled {
            return;
        }
        self.close_open(now_ns);
    }

    fn close_open(&mut self, _now_ns: f64) {
        if let Some(open) = self.open.take() {
            self.push(TraceEvent {
                name: open.phase.name(),
                kind: EventKind::Phase,
                lane: 0,
                start_ns: open.start_ns,
                dur_ns: open.acc,
            });
            self.fold_phase(open.phase, open.acc);
        }
    }

    fn fold_phase(&mut self, phase: Phase, span_ns: f64) {
        // A first span adds to exact zeros: `0.0 + x` is `x` bitwise for
        // every charge sum, which is never NaN or negative.
        let p = self.phases.get_or_insert(phase as usize, || PhaseTotal {
            name: phase.name(),
            total_ns: 0.0,
            count: 0,
            max_ns: 0.0,
        });
        p.total_ns += span_ns;
        p.count += 1;
        p.max_ns = p.max_ns.max(span_ns);
    }

    /// Records a zero-duration marker at simulated time `now_ns`.
    pub fn instant(&mut self, instant: Instant, now_ns: f64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            name: instant.name(),
            kind: EventKind::Instant,
            lane: 0,
            start_ns: now_ns,
            dur_ns: 0.0,
        });
        let name = instant.name();
        let total = self
            .instants
            .get_or_insert(instant as usize, || InstantTotal { name, count: 0 });
        total.count += 1;
    }

    /// Records a span of per-chunk work on a parallel lane. Lane spans
    /// are *not* folded into phase totals — the merged elapsed time of
    /// the parallel section is charged to the main timeline (and thus to
    /// the open phase) by the caller via `LaneClocks::elapsed`.
    pub fn lane_span(&mut self, span: Lane, lane: u32, start_ns: f64, dur_ns: f64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            name: span.name(),
            kind: EventKind::Lane,
            lane,
            start_ns,
            dur_ns,
        });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Recorded events, oldest first. When the ring wrapped, the oldest
    /// `dropped()` events are gone.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.events.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Number of events overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-phase totals, in first-seen order. Includes
    /// [`Phase::Unattributed`] if any charge arrived with no phase open.
    pub fn phases(&self) -> &[PhaseTotal] {
        &self.phases.list
    }

    /// Totals of one phase (`None` if no span of it closed yet).
    pub fn phase_total(&self, phase: Phase) -> Option<&PhaseTotal> {
        self.phases.get(phase as usize)
    }

    /// Per-instant counts, in first-seen order.
    pub fn instants(&self) -> &[InstantTotal] {
        &self.instants.list
    }

    /// Count for one instant (0 if never fired).
    pub fn instant_count(&self, instant: Instant) -> u64 {
        self.instants.get(instant as usize).map_or(0, |i| i.count)
    }

    /// Sum of every kernel charge seen while enabled, in charge order.
    /// Over a fresh context this is bitwise equal to `kernel_ns`.
    pub fn charged_total(&self) -> f64 {
        self.charged_total
    }

    /// Sum of the per-phase totals (the re-associated grouping of
    /// [`TraceBuf::charged_total`]; equal up to f64 re-association).
    pub fn phase_sum(&self) -> f64 {
        self.phases().iter().map(|p| p.total_ns).sum()
    }
}

/// One traced run for export: a named timeline (Chrome `pid`) plus its
/// independently measured end-to-end simulated time.
pub struct TraceRun<'a> {
    /// Human label, e.g. `"serial"` or `"par8"`.
    pub name: &'a str,
    /// Chrome trace `pid` this run's events land under.
    pub pid: u32,
    /// The recorded buffer.
    pub buf: &'a TraceBuf,
    /// End-to-end simulated kernel ns of the traced operation, measured
    /// by the caller on the same fresh context that fed `buf`.
    pub end_to_end_ns: f64,
}

fn escape(s: &str) -> String {
    // Event names are static identifiers; escape defensively anyway.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Formats an `f64` for JSON deterministically (Rust's `Display` for
/// finite doubles is the shortest round-trippable form — stable across
/// runs and platforms).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders one or more traced runs as Chrome trace-event JSON
/// (`chrome://tracing` / Perfetto `displayTimeUnit` format). `ts`/`dur`
/// are microseconds per the format; full-precision nanosecond values ride
/// along in each event's `args` and in the machine-readable `runs`
/// section (schema [`TRACE_SCHEMA`]).
pub fn chrome_trace_json(runs: &[TraceRun]) -> String {
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\n  \"traceEvents\": [\n");
    let mut first = true;
    for run in runs {
        for ev in run.buf.events() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let tid = match ev.kind {
                EventKind::Lane => ev.lane + 1,
                _ => 0,
            };
            let ph = match ev.kind {
                EventKind::Instant => "i",
                _ => "X",
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"ph\": \"{}\", \"ts\": {}, ",
                escape(ev.name),
                ph,
                jnum(ev.start_ns / 1e3),
            ));
            if ev.kind == EventKind::Instant {
                out.push_str("\"s\": \"t\", ");
            } else {
                out.push_str(&format!("\"dur\": {}, ", jnum(ev.dur_ns / 1e3)));
            }
            out.push_str(&format!(
                "\"pid\": {}, \"tid\": {}, \"args\": {{\"start_ns\": {}, \"dur_ns\": {}}}}}",
                run.pid,
                tid,
                jnum(ev.start_ns),
                jnum(ev.dur_ns),
            ));
        }
    }
    out.push_str("\n  ],\n  \"displayTimeUnit\": \"ns\",\n");
    out.push_str(&format!("  \"schema\": \"{TRACE_SCHEMA}\",\n"));
    out.push_str("  \"runs\": [\n");
    for (ri, run) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"pid\": {}, \"end_to_end_ns\": {}, \"charged_total_ns\": {}, \"dropped_events\": {},\n      \"phases\": [\n",
            escape(run.name),
            run.pid,
            jnum(run.end_to_end_ns),
            jnum(run.buf.charged_total()),
            run.buf.dropped(),
        ));
        for (pi, p) in run.buf.phases().iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"total_ns\": {}, \"count\": {}, \"max_ns\": {}}}{}\n",
                escape(p.name),
                jnum(p.total_ns),
                p.count,
                jnum(p.max_ns),
                if pi + 1 < run.buf.phases().len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("      ],\n      \"instants\": [\n");
        for (ii, i) in run.buf.instants().iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"count\": {}}}{}\n",
                escape(i.name),
                i.count,
                if ii + 1 < run.buf.instants().len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str(&format!(
            "      ]}}{}\n",
            if ri + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a per-phase histogram summary table (name, spans, total µs,
/// max ns, share of charged time) for one buffer.
pub fn summary_table(buf: &TraceBuf) -> String {
    let total = buf.charged_total();
    let mut rows: Vec<&PhaseTotal> = buf.phases().iter().collect();
    rows.sort_by(|a, b| {
        b.total_ns
            .partial_cmp(&a.total_ns)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:>14} {:>12} {:>7}\n",
        "phase", "spans", "total (µs)", "max (ns)", "share"
    ));
    for p in rows {
        let share = if total > 0.0 {
            100.0 * p.total_ns / total
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<22} {:>8} {:>14.3} {:>12.1} {:>6.1}%\n",
            p.name,
            p.count,
            p.total_ns / 1e3,
            p.max_ns,
            share
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing_and_owns_nothing() {
        let mut t = TraceBuf::disabled();
        assert!(!t.is_enabled());
        t.on_charge(10.0);
        t.phase(Phase::ForkFixed, 0.0);
        t.instant(Instant::FaultCow, 1.0);
        t.lane_span(Lane::ForkChunk, 0, 0.0, 5.0);
        t.phase_end(2.0);
        assert_eq!(t.events().count(), 0);
        assert!(t.phases().is_empty());
        assert!(t.instants().is_empty());
        assert_eq!(t.charged_total(), 0.0);
        assert_eq!(t.events.capacity(), 0, "disabled buffer must not allocate");
    }

    #[test]
    fn charges_attribute_to_the_open_phase_in_order() {
        let mut t = TraceBuf::enabled(64);
        t.phase(Phase::ForkFixed, 0.0);
        t.on_charge(1.5);
        t.on_charge(2.5);
        t.phase(Phase::ForkRegion, 4.0);
        t.on_charge(10.0);
        t.phase_end(14.0);
        let a = &t.phases()[0];
        let b = &t.phases()[1];
        assert_eq!(
            (a.name, a.total_ns, a.count),
            (Phase::ForkFixed.name(), 4.0, 1)
        );
        assert_eq!(
            (b.name, b.total_ns, b.count),
            (Phase::ForkRegion.name(), 10.0, 1)
        );
        assert_eq!(t.phase_total(Phase::ForkRegion), Some(b));
        assert_eq!(t.phase_total(Phase::ForkCommit), None);
        assert_eq!(t.charged_total(), 14.0);
        assert_eq!(t.phase_sum(), 14.0);
        let evs: Vec<_> = t.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, Phase::ForkFixed.name());
        assert_eq!(evs[0].dur_ns, 4.0);
        assert_eq!(evs[1].start_ns, 4.0);
    }

    #[test]
    fn charge_with_no_open_phase_lands_in_unattributed() {
        let mut t = TraceBuf::enabled(8);
        t.on_charge(3.0);
        t.phase(Phase::ForkFixed, 3.0);
        t.on_charge(1.0);
        t.phase_end(4.0);
        assert_eq!(t.phases()[0].name, Phase::Unattributed.name());
        assert_eq!(t.phases()[0].total_ns, 3.0);
        assert_eq!(t.phase_sum(), t.charged_total());
    }

    #[test]
    fn repeated_spans_aggregate_with_count_and_max() {
        let mut t = TraceBuf::enabled(64);
        for ns in [5.0, 9.0, 2.0] {
            t.phase(Phase::ForkWalkPte, 0.0);
            t.on_charge(ns);
        }
        t.phase_end(0.0);
        let p = &t.phases()[0];
        assert_eq!(p.count, 3);
        assert_eq!(p.total_ns, 16.0);
        assert_eq!(p.max_ns, 9.0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = TraceBuf::enabled(3);
        for i in 0..5 {
            let instant = if i % 2 == 0 {
                Instant::FaultCow
            } else {
                Instant::FaultCoa
            };
            t.instant(instant, i as f64);
        }
        assert_eq!(t.dropped(), 2);
        let starts: Vec<f64> = t.events().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![2.0, 3.0, 4.0]);
        // Aggregation is drop-free.
        assert_eq!(t.instant_count(Instant::FaultCow), 3);
        assert_eq!(t.instant_count(Instant::FaultCoa), 2);
        assert_eq!(t.instant_count(Instant::GateTrap), 0);
    }

    #[test]
    fn lane_spans_do_not_touch_phase_totals() {
        let mut t = TraceBuf::enabled(8);
        t.phase(Phase::ForkWalkPar, 0.0);
        t.lane_span(Lane::ForkChunk, 2, 0.0, 100.0);
        t.on_charge(40.0); // the merged elapsed time
        t.phase_end(40.0);
        assert_eq!(t.phases()[0].total_ns, 40.0);
        let lane = t.events().find(|e| e.kind == EventKind::Lane).unwrap();
        assert_eq!((lane.lane, lane.dur_ns), (2, 100.0));
    }

    #[test]
    fn chrome_export_is_deterministic_and_shaped() {
        let mk = || {
            let mut t = TraceBuf::enabled(16);
            t.phase(Phase::ForkFixed, 0.0);
            t.on_charge(50_000.0);
            t.instant(Instant::AllocRecycle, 50_000.0);
            t.lane_span(Lane::ForkChunk, 1, 50_000.0, 432.7);
            t.phase_end(50_000.0);
            t
        };
        let (a, b) = (mk(), mk());
        let ja = chrome_trace_json(&[TraceRun {
            name: "serial",
            pid: 0,
            buf: &a,
            end_to_end_ns: 50_000.0,
        }]);
        let jb = chrome_trace_json(&[TraceRun {
            name: "serial",
            pid: 0,
            buf: &b,
            end_to_end_ns: 50_000.0,
        }]);
        assert_eq!(ja, jb, "same inputs must export byte-identically");
        assert!(ja.contains("\"traceEvents\""));
        assert!(ja.contains(TRACE_SCHEMA));
        assert!(ja.contains("\"ph\": \"i\""));
        assert!(ja.contains("\"tid\": 2"), "lane 1 renders as tid 2");
        assert!(ja.contains("\"end_to_end_ns\": 50000"));
    }

    #[test]
    fn summary_table_orders_by_total() {
        let mut t = TraceBuf::enabled(8);
        t.phase(Phase::ForkRegion, 0.0);
        t.on_charge(1.0);
        t.phase(Phase::ForkWalkCopy, 1.0);
        t.on_charge(99.0);
        t.phase_end(100.0);
        let s = summary_table(&t);
        let big = s.find(Phase::ForkWalkCopy.name()).unwrap();
        let small = s.find(Phase::ForkRegion.name()).unwrap();
        assert!(big < small, "largest phase first:\n{s}");
    }

    #[test]
    fn nan_and_negative_charges_ignored() {
        let mut t = TraceBuf::enabled(4);
        t.phase(Phase::ForkFixed, 0.0);
        t.on_charge(f64::NAN);
        t.on_charge(-5.0);
        t.on_charge(7.0);
        t.phase_end(7.0);
        assert_eq!(t.charged_total(), 7.0);
        assert_eq!(t.phases()[0].total_ns, 7.0);
    }
}
