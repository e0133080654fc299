//! The trace vocabulary: every span, instant and lane-span name, declared
//! once in the `phases!` table below. Call sites pass the generated typed
//! names, so a misspelt name does not compile and an instant passed where
//! a span belongs is a type error. An entry may name the [`OpCounters`]
//! field it counts one-for-one (`=> counter`), and
//! [`assert_counter_pairs`] checks each such pair.
//!
//! ```compile_fail
//! let mut t = ufork_sim::TraceBuf::enabled(1);
//! t.phase(ufork_sim::Instant::FaultCow, 0.0); // an instant is not a span
//! ```

use std::collections::BTreeMap;

use crate::counters::OpCounters;
use crate::trace::TraceBuf;

/// Declares the three name types from one list of `/// doc` + `Variant =
/// "name"` entries per kind, with an optional `=> counter` on spans and
/// instants.
macro_rules! phases {
    (
        $(#[$phase_meta:meta])*
        pub enum Phase {
            $( $(#[$p_meta:meta])* $phase:ident = $p_name:literal $(=> $p_counter:ident)?, )*
        }
        $(#[$instant_meta:meta])*
        pub enum Instant {
            $( $(#[$i_meta:meta])* $instant:ident = $i_name:literal $(=> $i_counter:ident)?, )*
        }
        $(#[$lane_meta:meta])*
        pub enum Lane {
            $( $(#[$l_meta:meta])* $lane:ident = $l_name:literal, )*
        }
    ) => {
        phases!(@names $(#[$phase_meta])* Phase { $( $(#[$p_meta])* $phase = $p_name, )* });
        phases!(@names $(#[$instant_meta])* Instant { $( $(#[$i_meta])* $instant = $i_name, )* });
        phases!(@names $(#[$lane_meta])* Lane { $( $(#[$l_meta])* $lane = $l_name, )* });

        impl Phase {
            /// The counter this span counts one-for-one, if the table
            /// names one: its field name and its value in `c`.
            fn counted(self, c: &OpCounters) -> Option<(&'static str, u64)> {
                match self { $( Phase::$phase => phases!(@counted c $($p_counter)?), )* }
            }
        }

        impl Instant {
            /// The counter this instant counts one-for-one, if the table
            /// names one: its field name and its value in `c`.
            fn counted(self, c: &OpCounters) -> Option<(&'static str, u64)> {
                match self { $( Instant::$instant => phases!(@counted c $($i_counter)?), )* }
            }
        }
    };
    (@names $(#[$meta:meta])* $kind:ident { $( $(#[$e_meta:meta])* $variant:ident = $name:literal, )* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $kind {
            $( $(#[$e_meta])* $variant, )*
        }

        impl $kind {
            /// Every name of this kind, in table order.
            pub const ALL: [$kind; [$($name),*].len()] = [$($kind::$variant),*];

            /// The name the trace records, exports and prints.
            pub const fn name(self) -> &'static str {
                match self { $( $kind::$variant => $name, )* }
            }
        }
    };
    (@counted $c:ident) => { None };
    (@counted $c:ident $counter:ident) => { Some((stringify!($counter), $c.$counter)) };
}

phases! {
    /// A phase span: named kernel work that tiles the main timeline.
    /// Opening one closes the open one; every kernel charge accrues to
    /// the open span.
    pub enum Phase {
        /// Charges that arrived with no span open.
        Unattributed = "(unattributed)",
        /// Demand folded out of the fork's page plan and reserved against the ledger, once per fork attempt.
        ForkAdmission = "fork/admission",
        /// The fixed fork cost: the paper's trap and bookkeeping.
        ForkFixed = "fork/fixed",
        /// The generation stamp of a dirty-tracked fork: soft-dirty bits cleared, writable pages CoW-armed.
        ForkDirtyScan = "fork/dirty_scan",
        /// Content-hash probes of the cross-child dedup index, and nothing else.
        ForkDedup = "fork/dedup",
        /// Child region allocation in the single-address-space layout.
        ForkRegion = "fork/region",
        /// Page-table walk and PTE copies or writes.
        ForkWalkPte = "fork/walk/pte",
        /// Eager page copies.
        ForkWalkCopy = "fork/walk/copy",
        /// Capability scan and relocation of copied pages.
        ForkWalkReloc = "fork/walk/reloc",
        /// The whole parallel-walk section, the maximum over its lanes.
        ForkWalkPar = "fork/walk/par",
        /// Arming the CoW, CoA or CoPA bits of shared pages.
        ForkWalkCowArm = "fork/walk/cow_arm",
        /// Register-file relocation.
        ForkRegs = "fork/regs",
        /// Child process-table insert.
        ForkCommit = "fork/commit",
        /// Reverse-order journal unwind after a failed fork attempt or transaction.
        ForkRollback = "fork/rollback" => fork_rollbacks,
        /// Inline reclaim pass between fork attempts.
        ForkReclaim = "fork/reclaim" => reclaim_inline,
        /// Fault-handler entry.
        FaultEntry = "fault/entry",
        /// Frame allocation and page copy while resolving a fault.
        FaultCopy = "fault/copy",
        /// Remap with the final segment flags.
        FaultPte = "fault/pte",
        /// Capability relocation scan of the copied page.
        FaultReloc = "fault/reloc",
        /// Inline reclaim pass when a fault's frame allocation hits `NoMem`.
        FaultReclaim = "fault/reclaim" => reclaim_inline,
        /// Pipelined fork: the deferred span mapped CoA-protected onto the shared parent frames.
        ForkPipelineStage = "fork/pipeline/stage",
        /// Pipelined fork: background chunk work, frame allocation or adoption and page copy.
        ForkPipelineCopy = "fork/pipeline/copy",
        /// Pipelined fork: capability relocation of a background-copied chunk.
        ForkPipelineReloc = "fork/pipeline/reloc",
        /// Pipelined fork: PTE rewrite from the staged shared mapping to the private frame.
        ForkPipelinePte = "fork/pipeline/pte",
        /// A fresh ring header written into the shared window.
        IpcRingInit = "ipc/ring/init",
        /// One ring push attempt.
        IpcRingPush = "ipc/ring/push",
        /// One ring pop attempt.
        IpcRingPop = "ipc/ring/pop",
        /// One background reclaim pass that scrubbed at least one frame.
        MemReclaimBg = "mem/reclaim_bg" => reclaim_background,
        /// One OOM kill: the victim's journaled teardown, billed to the forking context.
        ForkOom = "fork/oom" => oom_kills,
    }

    /// A zero-duration marker for a countable event.
    pub enum Instant {
        /// A copy-on-write fault resolved.
        FaultCow = "fault/cow" => cow_faults,
        /// A copy-on-access fault resolved.
        FaultCoa = "fault/coa" => coa_faults,
        /// A capability-load (CoPA) fault resolved.
        FaultCapload = "fault/capload" => cap_load_faults,
        /// Admission downgraded a fork's strategy under memory pressure.
        ForkDegrade = "fork/degrade" => forks_degraded,
        /// A fork-lane frame came from the recycled-frame pool.
        AllocRecycle = "alloc/recycle" => frames_recycled,
        /// A recycled fork-lane frame skipped its zeroing scrub.
        AllocZeroSkip = "alloc/zero_skip" => zeroing_skipped,
        /// A fork-lane frame was stolen from another shard's pool.
        AllocSteal = "alloc/steal" => alloc_steals,
        /// A sealed-capability kernel entry.
        GateEnter = "gate/enter" => sealed_entries,
        /// A syscall-gate entry refused.
        GateReject = "gate/reject",
        /// A trap-based kernel entry (monolithic baseline).
        GateTrap = "gate/trap" => traps,
        /// A pipelined fork committed with its copy outstanding.
        ForkPipelineCommit = "fork/pipeline/commit",
        /// A child fault jumped the copy queue and resolved its chunk inline.
        ForkPipelineJump = "fork/pipeline/jump" => pipeline_chunks_jumped,
        /// A pipelined fork's background-copy window closed.
        ForkPipelineDone = "fork/pipeline/done",
    }

    /// A span of per-chunk work on a parallel lane. Lane spans overlap and
    /// are not folded into the phase totals.
    pub enum Lane {
        /// One parallel-walk chunk.
        ForkChunk = "fork/chunk",
        /// One background-copy chunk of a synchronous pipeline drain.
        ForkPipelineChunk = "fork/pipeline/chunk",
    }
}

/// Checks every counter pair the table declares on one fresh traced
/// context with no span open: each counter named by an entry equals the
/// summed counts of the spans and instants that name it.
///
/// # Panics
///
/// Panics naming the first counter that differs from its trace events.
#[track_caller]
pub fn assert_counter_pairs(trace: &TraceBuf, counters: &OpCounters) {
    let spans = Phase::ALL.into_iter().filter_map(|p| {
        let events = trace.phase_total(p).map_or(0, |t| t.count);
        Some((p.counted(counters)?, p.name(), events))
    });
    let instants = Instant::ALL
        .into_iter()
        .filter_map(|i| Some((i.counted(counters)?, i.name(), trace.instant_count(i))));
    let mut pairs: BTreeMap<&str, (u64, u64, Vec<&str>)> = BTreeMap::new();
    for ((counter, value), name, events) in spans.chain(instants) {
        let (_, sum, names) = pairs.entry(counter).or_insert((value, 0, Vec::new()));
        *sum += events;
        names.push(name);
    }
    for (counter, (value, events, names)) in pairs {
        assert_eq!(
            value, events,
            "counter `{counter}` is {value}, but its trace events {names:?} number {events}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of the doc table under `header`: first and second column,
    /// backticks trimmed.
    fn doc_rows<'a>(doc: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
        doc.lines()
            .skip_while(|l| !l.starts_with(header))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let mut cols = l.split('|').skip(1).map(|c| c.trim().trim_matches('`'));
                (cols.next().unwrap_or(""), cols.next().unwrap_or(""))
            })
            .collect()
    }

    /// The span, instant and lane tables in `docs/OBSERVABILITY.md` list
    /// exactly the declared names, in table order, with their counters.
    #[test]
    fn observability_doc_tables_match_names() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let none = OpCounters::default();
        let counter = |c: Option<(&'static str, u64)>| c.map_or("", |(name, _)| name);
        let spans: Vec<_> = Phase::ALL
            .map(|p| (p.name(), counter(p.counted(&none))))
            .to_vec();
        assert_eq!(doc_rows(doc, "| Span | Counter |"), spans);
        let instants: Vec<_> = Instant::ALL
            .map(|i| (i.name(), counter(i.counted(&none))))
            .to_vec();
        assert_eq!(doc_rows(doc, "| Instant | Counter |"), instants);
        let lanes: Vec<_> = doc_rows(doc, "| Lane span | Work |")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(lanes, Lane::ALL.map(Lane::name));
    }

    /// Every name is unique across the three kinds.
    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Phase::ALL.map(Phase::name).to_vec();
        names.extend(Instant::ALL.map(Instant::name));
        names.extend(Lane::ALL.map(Lane::name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate trace name");
    }

    /// forkbench reads phase totals by name (`PHASES` in its
    /// `src/measure.rs`): each name there must be a declared span, or its
    /// `sim.*_share` would silently read 0.
    #[test]
    fn forkbench_phase_names_are_declared_spans() {
        let src = include_str!("../../../forkbench/src/measure.rs");
        let names: Vec<&str> = src
            .lines()
            .skip_while(|l| !l.starts_with("const PHASES"))
            .skip(1)
            .take_while(|l| !l.starts_with("];"))
            .filter_map(|l| l.trim().strip_prefix("(\"")?.split('"').next())
            .collect();
        assert!(!names.is_empty(), "no PHASES table in forkbench");
        for name in names {
            assert!(
                Phase::ALL.iter().any(|p| p.name() == name),
                "forkbench reads `{name}`, which is not a declared span"
            );
        }
    }

    #[test]
    fn pairs_sum_every_entry_that_names_a_counter() {
        let mut t = TraceBuf::enabled(16);
        let mut c = OpCounters::default();
        for p in [Phase::ForkReclaim, Phase::FaultReclaim, Phase::ForkFixed] {
            t.phase(p, 0.0);
        }
        t.phase_end(0.0);
        t.instant(Instant::FaultCow, 0.0);
        c.reclaim_inline = 2;
        c.cow_faults = 1;
        assert_counter_pairs(&t, &c);
    }

    #[test]
    #[should_panic(expected = "counter `reclaim_inline` is 1")]
    fn a_span_missing_from_a_pair_fails_the_check() {
        let mut t = TraceBuf::enabled(16);
        let c = OpCounters {
            reclaim_inline: 1,
            ..OpCounters::default()
        };
        t.phase(Phase::ForkReclaim, 0.0);
        t.phase(Phase::FaultReclaim, 0.0);
        t.phase_end(0.0);
        assert_counter_pairs(&t, &c);
    }
}
