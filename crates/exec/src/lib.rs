//! The OS-neutral executive of the μFork reproduction.
//!
//! The evaluation compares three operating systems — μFork, a monolithic
//! CheriBSD-like kernel, and a Nephele-like VM-cloning unikernel — running
//! *identical workload code*. To keep the comparison controlled (as the
//! paper's shared Morello testbed does), everything that is not the point
//! of comparison lives here, shared by all three:
//!
//! * a discrete-event, multi-core **scheduler** driving [`ufork_abi::Program`]
//!   state machines in simulated time — one run queue for threads and
//!   the background copy and reclaim tasks — with optional
//!   big-kernel-lock serialization (Unikraft's SMP model, paper §4.5);
//! * a **VFS** with ram-disk files, pipes, and synthetic network
//!   listeners/connections (the wrk-style traffic the Nginx experiment
//!   needs);
//! * per-process **file-descriptor tables** duplicated across fork;
//! * the [`MemOs`] trait — the seam where the three systems differ:
//!   process memory creation, `fork`, loads/stores, and the cost profile
//!   of kernel entry and context switches.
//!
//! The entry point is [`Machine`], which owns a `MemOs` implementation and
//! runs programs to completion while accounting simulated time and
//! operation counts.

mod ctx;
mod machine;
mod memos;
pub mod ring;
mod sched;
mod syscall;
mod vfs;

pub use ctx::Ctx;
pub use machine::{
    ExitEvent, ForkEvent, Machine, MachineConfig, OomEvent, PipelineEvent, MAIN_TID,
};
pub use memos::MemOs;
pub use sched::{BlockedOn, TimeKey};
pub use vfs::{
    ConnTemplate, FdKind, FdTable, PipeRead, RingMeta, RingSnapshot, Vfs, WakeEvent, PIPE_CAPACITY,
};
