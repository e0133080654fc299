//! The [`Env`] trait: everything a program can do inline.

use ufork_cheri::Capability;

use crate::{Errno, Fd, Pid};

/// Result type for program-visible operations.
pub type SysResult<T> = Result<T, Errno>;

/// The execution environment handed to a [`crate::Program`] on resume.
///
/// Memory operations go through the simulated MMU: capability bounds and
/// permissions are checked, page permissions are enforced, and transparent
/// faults (CoW / CoA / CoPA) are resolved by the kernel *inside* the call,
/// charging simulated time — the program only observes hard failures.
///
/// All operations charge simulated time; [`Env::now`] exposes the clock.
pub trait Env {
    // ---- memory --------------------------------------------------------

    /// Loads `buf.len()` bytes from the capability's cursor.
    fn load(&mut self, cap: &Capability, buf: &mut [u8]) -> SysResult<()>;

    /// Stores `data` at the capability's cursor.
    fn store(&mut self, cap: &Capability, data: &[u8]) -> SysResult<()>;

    /// Loads a capability from the (granule-aligned) cursor.
    ///
    /// Returns `Ok(None)` when the location's tag is clear — the bytes are
    /// plain data. May trigger a CoPA copy when the page has the
    /// load-capability fault bit set.
    fn load_cap(&mut self, cap: &Capability) -> SysResult<Option<Capability>>;

    /// Stores a capability at the (granule-aligned) cursor, setting its
    /// tag.
    fn store_cap(&mut self, cap: &Capability, value: &Capability) -> SysResult<()>;

    // ---- register file ---------------------------------------------------

    /// Reads capability register `idx`.
    ///
    /// Registers are relocated at fork; this is where programs must keep
    /// long-lived pointers (see the crate-level contract).
    fn reg(&self, idx: usize) -> SysResult<Capability>;

    /// Writes capability register `idx`.
    fn set_reg(&mut self, idx: usize, cap: Capability) -> SysResult<()>;

    // ---- user-level allocator --------------------------------------------

    /// Allocates `len` bytes from the μprocess heap.
    ///
    /// The allocator's metadata lives in simulated μprocess memory (block
    /// headers with capability links), so fork genuinely has to copy and
    /// relocate it.
    fn malloc(&mut self, len: u64) -> SysResult<Capability>;

    /// Frees an allocation returned by [`Env::malloc`].
    fn mfree(&mut self, cap: &Capability) -> SysResult<()>;

    // ---- compute ---------------------------------------------------------

    /// Charges `n` generic ALU/memory operations of simulated CPU time.
    fn cpu_ops(&mut self, n: u64);

    /// Charges `n` floating-point loop iterations.
    fn cpu_flops(&mut self, n: u64);

    // ---- non-blocking system calls ----------------------------------------
    //
    // Reads have no call here: a program reads a pipe, file or connection
    // through [`crate::BlockingCall::Read`].

    /// Writes `len` bytes from `buf`'s cursor to `fd`. Never blocks:
    /// files are ram-disk backed, and a pipe whose bounded buffer cannot
    /// take the whole write returns [`Errno::Again`] (use
    /// [`crate::BlockingCall::Write`] to block until space drains).
    fn sys_write(&mut self, fd: Fd, buf: &Capability, len: u64) -> SysResult<u64>;

    /// Opens (optionally creating) a ram-disk file.
    fn sys_open(&mut self, path: &str, create: bool) -> SysResult<Fd>;

    /// Closes a descriptor.
    fn sys_close(&mut self, fd: Fd) -> SysResult<()>;

    /// Atomically renames a ram-disk file (Redis' tempfile → dump.rdb).
    fn sys_rename(&mut self, from: &str, to: &str) -> SysResult<()>;

    /// Creates a pipe; returns `(read_end, write_end)`.
    fn sys_pipe(&mut self) -> SysResult<(Fd, Fd)>;

    /// Opens (optionally creating) a named shared-memory object of `len`
    /// bytes and maps it, returning a capability to the mapping
    /// (paper §3.7: shared memory across μprocesses).
    fn sys_shm_open(&mut self, name: &str, len: u64) -> SysResult<Capability>;

    /// Maps `len` bytes of fresh anonymous memory into the μprocess'
    /// mmap window, returning a capability to it. The kernel serves the
    /// request from the calling μprocess' own region (paper §4.2: "the
    /// kernel ensures anonymous mmap requests are served by returning
    /// capabilities pointing to the calling μprocess virtual memory
    /// area").
    fn sys_mmap_anon(&mut self, len: u64) -> SysResult<Capability>;

    /// Sends a termination signal to another process (SIGKILL-style:
    /// takes effect before the target's next step).
    fn sys_kill(&mut self, pid: Pid) -> SysResult<()>;

    // ---- shared-memory descriptor rings ------------------------------------

    /// Opens (creating on first open) one end of the named SPSC
    /// descriptor ring with `slots` messages of `msg_bytes` each, backed
    /// by shared-memory frames. Returns the end's descriptor plus a
    /// **sealed** endpoint capability covering the ring window; the
    /// program cannot dereference it (the seal forbids load/store) but
    /// must present it to push/pop, and fork relocates it like any other
    /// register capability — seal intact (paper §3.6: sealed caps are
    /// relocated, not laundered).
    fn sys_ring_open(
        &mut self,
        name: &str,
        slots: u64,
        msg_bytes: u64,
        producer: bool,
    ) -> SysResult<(Fd, Capability)>;

    /// Attempts to push one `msg_bytes`-sized message from `buf` onto the
    /// ring behind `fd` without blocking. `ring` is the sealed endpoint
    /// capability from [`Env::sys_ring_open`]. Returns the bytes
    /// enqueued, [`Errno::Again`] when the ring is full, or
    /// [`Errno::BadFd`] when no consumer end remains (EPIPE).
    fn sys_ring_try_push(
        &mut self,
        fd: Fd,
        ring: &Capability,
        buf: &Capability,
        len: u64,
    ) -> SysResult<u64>;

    /// Attempts to pop one message into `buf` without blocking. Returns
    /// the message size, `Ok(0)` when the ring is empty but producers
    /// remain, or [`crate::RING_EOF`] when it is drained and every
    /// producer end has closed.
    fn sys_ring_try_pop(&mut self, fd: Fd, ring: &Capability, buf: &Capability) -> SysResult<u64>;

    // ---- identity & time ---------------------------------------------------

    /// This μprocess' PID (a real syscall; charged as one).
    fn sys_getpid(&mut self) -> Pid;

    /// Current simulated time in nanoseconds (free: vDSO-style).
    fn now(&self) -> f64;

    // ---- convenience (provided) --------------------------------------------

    /// Loads a little-endian `u64` from the cursor.
    fn load_u64(&mut self, cap: &Capability) -> SysResult<u64> {
        let mut b = [0u8; 8];
        self.load(cap, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Stores a little-endian `u64` at the cursor.
    fn store_u64(&mut self, cap: &Capability, v: u64) -> SysResult<()> {
        self.store(cap, &v.to_le_bytes())
    }

    /// Loads a capability from `base + off`.
    fn load_cap_at(&mut self, base: &Capability, off: u64) -> SysResult<Option<Capability>> {
        let c = base
            .with_addr(base.base() + off)
            .map_err(|_| Errno::Fault)?;
        self.load_cap(&c)
    }

    /// Stores a capability at `base + off`.
    fn store_cap_at(&mut self, base: &Capability, off: u64, value: &Capability) -> SysResult<()> {
        let c = base
            .with_addr(base.base() + off)
            .map_err(|_| Errno::Fault)?;
        self.store_cap(&c, value)
    }
}
