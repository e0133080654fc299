//! Operation counters for mechanism-level assertions.
//!
//! Every counter is declared exactly once, in the `op_counters!` table
//! below. The table generates the struct, [`OpCounters::merge`],
//! [`OpCounters::since`], [`OpCounters::NAMES`] and `Display`, so adding a
//! counter is one doc comment plus one name.

use std::fmt;

/// Declares the counter struct from one list of `/// doc` + `name`
/// entries. `merge` and `since` are generated as straight-line
/// field-by-field code (`merge` runs on every machine step).
macro_rules! op_counters {
    (
        $(#[$struct_meta:meta])*
        pub struct $ty:ident {
            $( $(#[$field_meta:meta])* $name:ident, )*
        }
    ) => {
        $(#[$struct_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $ty {
            $( $(#[$field_meta])* pub $name: u64, )*
        }

        impl $ty {
            /// Every counter's field name, in declaration order.
            pub const NAMES: [&'static str; [$(stringify!($name)),*].len()] =
                [$(stringify!($name)),*];

            /// Adds `other` into `self` field-wise (merging a step's
            /// counters into the machine totals).
            pub fn merge(&mut self, other: &$ty) {
                $( self.$name += other.$name; )*
            }

            /// Difference `self - earlier`, for measuring a window of
            /// activity.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `earlier` exceeds `self` anywhere
            /// (counters are monotonic).
            pub fn since(&self, earlier: &$ty) -> $ty {
                $ty { $( $name: self.$name - earlier.$name, )* }
            }

            /// Every counter's value, in [`Self::NAMES`] order.
            fn values(&self) -> [u64; Self::NAMES.len()] {
                [$(self.$name),*]
            }

            /// The counters whose values are `values`, in [`Self::NAMES`]
            /// order.
            #[cfg(test)]
            fn from_values(values: [u64; Self::NAMES.len()]) -> $ty {
                let [$($name),*] = values;
                $ty { $($name),* }
            }
        }
    };
}

op_counters! {
    /// Counts of primitive operations performed by a simulated kernel.
    ///
    /// Where the paper argues about *mechanism* ("CoPA copies only pages the
    /// child loads capabilities from"), tests assert on these counters rather
    /// than on simulated time, which makes them robust to cost-model
    /// recalibration.
    pub struct OpCounters {
        /// Pages copied (for any reason).
        pages_copied,
        /// Pages copied eagerly during fork (GOT, allocator metadata, full-copy
        /// strategy).
        pages_copied_eager,
        /// Copy-on-write faults resolved.
        cow_faults,
        /// Copy-on-access faults resolved.
        coa_faults,
        /// Capability-load (CoPA) faults resolved.
        cap_load_faults,
        /// User accesses that exhausted the transparent-fault retry budget
        /// without resolving (a kernel invariant breach; should stay 0).
        fault_retries_exhausted,
        /// Fault resolutions that reclaimed the frame in place (refcount was
        /// already 1, so no copy was needed).
        pages_reclaimed,
        /// Capabilities relocated into a child region.
        caps_relocated,
        /// Granules scanned for tags (inspected individually).
        granules_scanned,
        /// Granules the tag-summary fast path skipped without inspection
        /// (their tag bit was clear in a bulk tag read).
        granules_skipped,
        /// Bulk tag-summary words loaded (`CLoadTags`-style, 64 granules
        /// per word).
        tag_words_loaded,
        /// Source-region lookups while relocating: one per tagged
        /// capability not already confined to the child, memo hits
        /// included.
        region_lookups,
        /// PTEs copied or created.
        ptes_written,
        /// System calls executed.
        syscalls,
        /// Trap-based kernel entries (monolithic baseline).
        traps,
        /// Sealed-capability kernel entries (μFork).
        sealed_entries,
        /// Context switches performed.
        ctx_switches,
        /// forks completed.
        forks,
        /// execs completed.
        execs,
        /// Isolation violations detected (and refused).
        isolation_violations,
        /// Bytes copied for TOCTTOU protection.
        tocttou_bytes,
        /// Fixed-size chunks processed by the parallel fork walk.
        fork_chunks,
        /// Frame allocations satisfied by stealing from another shard's pool.
        alloc_steals,
        /// Frame allocations satisfied from the recycled-frame pool.
        frames_recycled,
        /// Recycled-frame allocations that skipped the zeroing scrub because
        /// the caller overwrites the whole frame (deferred-zeroing win).
        zeroing_skipped,
        /// Forks admitted with a cheaper strategy than requested (admission
        /// control downgraded Full→CoA→CoPA under memory pressure).
        forks_degraded,
        /// Fork transactions rolled back through the journal (failure or
        /// injected fault at some journal op).
        fork_rollbacks,
        /// Side-effect operations recorded in fork journals.
        journal_ops,
        /// Reclaim passes run inline on a hot path by the NoMem retry loop
        /// (recycled pools scrubbed / deferred-zero queues drained while a
        /// fork or fault waits).
        reclaim_inline,
        /// Reclaim batches run by the background reclaim daemon (scheduled
        /// off the hot path, driven by the pressure watermarks).
        reclaim_background,
        /// Frames the background daemon scrubbed into the clean-frame
        /// magazines.
        frames_prezeroed,
        /// `Zeroed`-policy allocations served pre-scrubbed from a clean-frame
        /// magazine (no inline zeroing charged).
        magazine_hits,
        /// μprocesses killed by the OOM last resort so a fork under memory
        /// exhaustion could be admitted, counted by the completed reap.
        oom_kills,
        /// Simulated nanoseconds spent in reclaim backoff between fork
        /// retries (whole ns; the f64 charge is truncated when accumulated).
        fork_backoff_ns,
        /// Background-copy chunks resolved inline by a child fault jumping
        /// the pipelined fork's copy queue (demand priority).
        pipeline_chunks_jumped,
        /// Cumulative bytes a pipelined fork committed with the copy still
        /// outstanding (deferred pages × page size, summed over forks).
        pipeline_bytes_behind,
        /// Pages a dirty-scoped fork classified as dirty and routed through
        /// the full copy/CoW machinery (`CopyScope::DirtySince` only).
        pages_dirty_copied,
        /// Pages a dirty-scoped fork shared as clean: refcount bump plus CoW
        /// protect, no frame allocation, no tag scan.
        pages_shared_clean,
        /// Eagerly-copied pages satisfied from the cross-child frame-dedup
        /// index instead of a fresh private frame.
        frames_deduped,
        /// Dedup index work: content hashes computed plus memcmp
        /// verifications of probe hits.
        dedup_hash_probes,
        /// Messages pushed through shared-memory descriptor rings.
        ring_msgs,
        /// Ring endpoint capabilities carried across a fork (sealed caps
        /// relocated by the register walk, registry ends duplicated).
        ring_caps_relocated,
        /// Push attempts that found the ring full (producer stalled).
        ring_full_stalls,
    }
}

/// One `name: value` line per counter, in declaration order.
impl fmt::Display for OpCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in Self::NAMES.iter().zip(self.values()).enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_counter_round_trips_through_merge_since_and_display() {
        let n = OpCounters::NAMES.len();
        let unique: BTreeSet<_> = OpCounters::NAMES.iter().collect();
        assert_eq!(unique.len(), n, "duplicate counter name");
        // Every u64 field is in the table: nothing declared outside it.
        assert_eq!(n * 8, std::mem::size_of::<OpCounters>());

        // Distinct, nonzero value per counter.
        let values: [u64; OpCounters::NAMES.len()] = std::array::from_fn(|i| 1000 + 7 * i as u64);
        let a = OpCounters::from_values(values);
        let mut total = OpCounters::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.values(), values.map(|v| 2 * v));
        assert_eq!(total.since(&a), a);
        assert_eq!(total.since(&total), OpCounters::default());

        let shown = total.to_string();
        let lines: Vec<&str> = shown.lines().collect();
        assert_eq!(lines.len(), n);
        for (name, value) in OpCounters::NAMES.iter().zip(total.values()) {
            let line = format!("{name}: {value}");
            assert!(lines.contains(&line.as_str()), "Display lacks `{line}`");
        }
    }

    /// The counter table in `docs/OBSERVABILITY.md` lists exactly the
    /// declared counters, in declaration order.
    #[test]
    fn observability_doc_table_matches_names() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let documented: Vec<&str> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| Counter | Meaning |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.split('|').nth(1).unwrap_or("").trim().trim_matches('`'))
            .collect();
        assert_eq!(documented, OpCounters::NAMES);
    }
}
