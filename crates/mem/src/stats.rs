//! Memory accounting helpers.

use crate::frame::{Pfn, PAGE_SIZE};
use crate::phys::{PhysMem, PressureLevel};

/// Aggregated memory statistics for a set of frames (e.g. one μprocess).
///
/// The paper reports *proportional resident set* (PRS): a frame shared by
/// `N` processes contributes `1/N` of a page to each (paper §5.2, "We
/// consider the proportional resident set as the memory consumed by a
/// process").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Frames mapped exclusively (refcount 1).
    pub private_frames: u64,
    /// Frames shared with at least one other mapping.
    pub shared_frames: u64,
    /// Proportional resident set in bytes.
    pub prs_bytes: f64,
    /// Full resident set in bytes (each mapped frame counted once).
    pub rss_bytes: u64,
    /// Tagged (capability-holding) granules across the mapped frames,
    /// read from each frame's tag-summary bitmap. The relocation fast
    /// path's win scales with how small this is relative to
    /// `rss_bytes / GRANULE_SIZE`.
    pub cap_granules: u64,
    /// Frames promised to in-flight admission-controlled operations
    /// (machine-global, sampled from [`PhysMem::reserved_frames`]).
    pub reserved_frames: u64,
    /// Allocator pressure level at sampling time (machine-global,
    /// hysteretic — see [`PressureLevel`]).
    pub pressure: PressureLevel,
    /// Pooled frames still awaiting a scrub at sampling time
    /// (machine-global deferred-zero queue depth).
    pub pending_scrub: u64,
    /// Pre-scrubbed frames parked on the clean-frame magazine at
    /// sampling time (machine-global).
    pub magazine_depth: u64,
    /// Live entries in the cross-child frame-dedup index
    /// (machine-global; 0 when dedup is disabled or unavailable). Filled
    /// in by the kernel after [`MemStats::for_frames`] — the index lives
    /// kernel-side, not in the physical allocator.
    pub dedup_entries: u64,
}

impl MemStats {
    /// Computes stats over the frames mapped by one process.
    ///
    /// `frames` must yield each mapped frame once; frames that are no
    /// longer allocated are skipped (they cannot be resident).
    pub fn for_frames<I: IntoIterator<Item = Pfn>>(pm: &PhysMem, frames: I) -> MemStats {
        let mut s = MemStats {
            reserved_frames: pm.reserved_frames(),
            pressure: pm.pressure(),
            pending_scrub: pm.pending_scrub(),
            magazine_depth: pm.magazine_depth(),
            ..MemStats::default()
        };
        for pfn in frames {
            let Ok(rc) = pm.refcount(pfn) else { continue };
            if rc <= 1 {
                s.private_frames += 1;
            } else {
                s.shared_frames += 1;
            }
            s.prs_bytes += PAGE_SIZE as f64 / f64::from(rc.max(1));
            s.rss_bytes += PAGE_SIZE;
            if let Ok(frame) = pm.frame(pfn) {
                s.cap_granules += frame.cap_count() as u64;
            }
        }
        s
    }

    /// PRS in mebibytes.
    pub fn prs_mib(&self) -> f64 {
        self.prs_bytes / (1024.0 * 1024.0)
    }

    /// RSS in mebibytes.
    pub fn rss_mib(&self) -> f64 {
        self.rss_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prs_splits_shared_frames() {
        let mut pm = PhysMem::new(4);
        let private = pm.alloc_frame().unwrap();
        let shared = pm.alloc_frame().unwrap();
        pm.inc_ref(shared).unwrap(); // now shared by 2
        let s = MemStats::for_frames(&pm, [private, shared]);
        assert_eq!(s.private_frames, 1);
        assert_eq!(s.shared_frames, 1);
        assert_eq!(s.rss_bytes, 2 * PAGE_SIZE);
        assert!((s.prs_bytes - 1.5 * PAGE_SIZE as f64).abs() < 1e-9);
    }

    #[test]
    fn freed_frames_ignored() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        pm.dec_ref(a).unwrap();
        let s = MemStats::for_frames(&pm, [a]);
        // No resident memory; only the machine-global queue depth shows
        // the freed frame on the free stack awaiting a scrub.
        assert_eq!(
            s,
            MemStats {
                pending_scrub: 1,
                ..MemStats::default()
            }
        );
    }

    #[test]
    fn cap_granules_counted_from_tag_bitmaps() {
        use ufork_cheri::{Capability, Perms};
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        let b = pm.alloc_frame().unwrap();
        let cap = Capability::new_root(0x8000, 32, Perms::data());
        pm.store_cap(a, 0, &cap).unwrap();
        pm.store_cap(a, 64, &cap).unwrap();
        let s = MemStats::for_frames(&pm, [a, b]);
        assert_eq!(s.cap_granules, 2);
    }

    #[test]
    fn reservation_and_pressure_sampled_into_stats() {
        let mut pm = PhysMem::new(64);
        pm.set_watermarks(2, 16);
        pm.reserve(50).unwrap();
        let s = MemStats::for_frames(&pm, []);
        assert_eq!(s.reserved_frames, 50);
        assert_eq!(s.pressure, PressureLevel::Elevated);
        pm.release(50);
        let s = MemStats::for_frames(&pm, []);
        assert_eq!(s.pressure, PressureLevel::Normal);
    }

    #[test]
    fn unit_conversions() {
        let s = MemStats {
            private_frames: 256,
            shared_frames: 0,
            prs_bytes: 1024.0 * 1024.0,
            rss_bytes: 2 * 1024 * 1024,
            ..MemStats::default()
        };
        assert!((s.prs_mib() - 1.0).abs() < 1e-9);
        assert!((s.rss_mib() - 2.0).abs() < 1e-9);
    }
}
