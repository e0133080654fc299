//! Virtual memory for the μFork simulator.
//!
//! Provides the pieces both the μFork SASOS and the monolithic baseline
//! kernel build on:
//!
//! * [`VirtAddr`]/[`Vpn`] address arithmetic;
//! * [`PageTable`] mapping virtual pages to physical frames with
//!   [`PteFlags`] — including the CHERI **fault-on-capability-load** bit
//!   (`LC_FAULT`) that μFork's CoPA is implemented with (paper §4.2,
//!   "We implement CoPA using an additional page-table permission bit
//!   present with CHERI"), and the software `COW`/`COA` bits;
//! * a fault taxonomy ([`Fault`]) distinguishing *transparent* faults the
//!   kernel resolves by copying (CoW, CoA, capability-load) from genuine
//!   protection errors;
//! * a [`RegionAllocator`] carving contiguous μprocess regions out of the
//!   single address space (paper §3.7), with optional ASLR and
//!   fragmentation accounting (paper §6).

mod addr;
mod fault;
mod page_table;
mod region;

pub use addr::{pages_covering, VirtAddr, Vpn};
pub use fault::{AccessKind, Fault};
pub use page_table::{PageTable, Pte, PteFlags};
pub use region::{Region, RegionAllocator, RegionError};
