//! Tagged physical memory for the μFork simulator.
//!
//! Models the Morello memory system at the granularity μFork cares about:
//!
//! * 4 KiB physical frames ([`Frame`]), allocated from a fixed-size
//!   physical memory ([`PhysMem`]) with a free list;
//! * one **validity tag per 16-byte granule**, stored out of band. Writing
//!   plain data into a granule clears its tag; only a capability store sets
//!   it. This is exactly the property μFork's relocation scan exploits:
//!   "references are identified by the presence of a valid CHERI tag"
//!   (paper §4.2);
//! * per-frame **reference counts**, so kernels can share frames between a
//!   parent and child μprocess (CoW/CoA/CoPA) and account memory as a
//!   *proportional* resident set (paper §5.2).
//!
//! Capabilities are stored out of band next to their granule rather than
//! re-encoded into the 16 data bytes; the data bytes hold the architectural
//! "data view" ([`ufork_cheri::Capability::to_bytes`]) so that untagged
//! reads see plausible pointer bits, as on real hardware.
//!
//! # Examples
//!
//! ```
//! use ufork_cheri::{Capability, Perms};
//! use ufork_mem::PhysMem;
//!
//! let mut pm = PhysMem::new(16);
//! let f = pm.alloc_frame().unwrap();
//! let cap = Capability::new_root(0x4000, 64, Perms::data());
//! pm.store_cap(f, 0, &cap).unwrap();
//! assert_eq!(pm.load_cap(f, 0).unwrap(), Some(cap));
//! // Overwriting any byte of the granule clears the tag.
//! pm.write(f, 3, &[0xff]).unwrap();
//! assert_eq!(pm.load_cap(f, 0).unwrap(), None);
//! ```

mod dedup;
mod frame;
mod phys;
mod stats;

pub use dedup::{content_hash, DedupEntry, FrameDedupIndex};
pub use frame::{
    Frame, Pfn, GRANULES_PER_PAGE, GRANULES_PER_TAG_WORD, GRANULE_SIZE, PAGE_SIZE,
    TAG_WORDS_PER_PAGE,
};
pub use phys::{AllocGrant, MemError, PhysMem, PressureLevel, ZeroPolicy};
pub use stats::MemStats;
