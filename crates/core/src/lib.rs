//! μFork: a single-address-space OS kernel with POSIX `fork` support.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (SOSP 2025, Kressel/Lefeuvre/Olivier): an emulation of POSIX processes
//! (**μprocesses**) inside one address space, where `fork` copies the
//! parent's memory *to a different location in the same address space* and
//! CHERI-style capabilities solve the two problems that creates:
//!
//! 1. **Relocation** (paper §3.4, §4.2) — absolute memory references in
//!    child memory still point into the parent's region after the copy.
//!    Capability tags identify them reliably; [`reloc`] rebases each into
//!    the child's region with bounds clamped to it.
//! 2. **Isolation** (paper §3.6, §4.3–4.4) — capabilities bound every
//!    μprocess to its own contiguous region; sealed capabilities provide
//!    trap-less kernel entry; user capabilities lack the system permission
//!    so privileged instructions are unavailable; syscall validation and
//!    TOCTTOU buffer copies are individually toggleable (requirement R4).
//!
//! The copy itself is lazy: [`UforkOs`] implements the three strategies of
//! paper §3.8 — synchronous **Full** copy, **CoA** (copy on any child
//! access), and **CoPA** (copy on writes and on *capability loads* by the
//! child, via the CHERI fault-on-capability-load page bit).
//!
//! The kernel plugs into the `ufork-exec` executive through the
//! [`ufork_exec::MemOs`] trait, so identical workload code runs here and on
//! the baselines.
//!
//! # Examples
//!
//! ```
//! use ufork::{UforkConfig, UforkOs};
//! use ufork_abi::{ImageSpec, Pid};
//! use ufork_exec::{Ctx, MemOs};
//!
//! let mut os = UforkOs::new(UforkConfig::default());
//! let mut ctx = Ctx::new();
//! os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world()).unwrap();
//! os.fork(&mut ctx, Pid(1), Pid(2)).unwrap();
//! // The child's registers were relocated into its own region.
//! let parent_root = os.reg(Pid(1), 0).unwrap();
//! let child_root = os.reg(Pid(2), 0).unwrap();
//! assert_ne!(parent_root.base(), child_root.base());
//! ```

mod fault;
mod fork;
pub mod fork_par;
mod gate;
mod journal;
mod kernel;
mod layout;
mod pipeline;
mod reclaim;
pub mod region_index;
pub mod reloc;
pub mod talloc;

pub use fork::CopyScope;
pub use fork_par::{WalkMode, CHUNK_PAGES};
pub use gate::SyscallGate;
pub use journal::FallbackPolicy;
pub use kernel::{UforkConfig, UforkOs};
pub use layout::{ProcLayout, Segment};
pub use reclaim::RECLAIM_BATCH;
pub use region_index::RegionIndex;
pub use reloc::ScanMode;
pub use talloc::{TAlloc, TAllocStats, UserMem};
