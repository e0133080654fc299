//! System calls: the [`Env`] a program steps in, and the per-fd I/O
//! operations its try-calls and the machine's blocking calls share.
//!
//! Each I/O operation has one implementation here, a [`StepEnv`] method
//! that returns an [`Io`] outcome: done, would block on a named channel,
//! or not before a later simulated time. A try-call (`sys_write`,
//! `sys_ring_try_push`, `sys_ring_try_pop`) and the machine's servicing
//! of the matching [`BlockingCall`] are thin mappings of that outcome.
//! Charges that differ between the two entry points stay with the
//! callers: the syscall charge's byte count, and a try-write paying the
//! pipe copy even when the pipe refuses it.

use ufork_abi::{BlockingCall, Capability, Env, Errno, Fd, Pid, SysResult, RING_EOF};
use ufork_cheri::OType;

use crate::ctx::Ctx;
use crate::memos::{charge_syscall, MemOs};
use crate::ring::{self, RingPop as RawPop, RingPush as RawPush, RING_SLOT_HDR};
use crate::sched::BlockedOn;
use crate::vfs::{ConnRead, FdKind, FdTable, PipeRead, RingMeta, Vfs, WakeEvent};

/// What one attempt of an I/O operation came to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Io {
    /// Done: the bytes moved, a new descriptor, or 0 for end of file
    /// ([`RING_EOF`] from a ring pop).
    Done(u64),
    /// Cannot proceed until an event on this channel.
    Block(BlockedOn),
    /// Cannot proceed before this simulated time.
    NotUntil(f64),
}

/// Refuses an outgoing transfer of `len` bytes that `buf` cannot hold.
/// Writes and pushes call it before the syscall charge, so a failed call
/// is charged nothing and a program-chosen length never reaches the
/// charged byte counts.
fn check_len(buf: &Capability, len: u64) -> SysResult<()> {
    (len <= buf.len()).then_some(()).ok_or(Errno::Fault)
}

/// Bytes of a ring slot image's stamp word; the payload follows it.
const STAMP: usize = RING_SLOT_HDR as usize;

/// Sizes the reused slot `image` for `msg_bytes`-byte messages.
fn slot_image(image: &mut Vec<u8>, msg_bytes: u64) -> &mut [u8] {
    image.resize(STAMP + msg_bytes as usize, 0);
    image
}

/// The clock a try-call acts at: the step's running clock, read when the
/// operation reaches its channel.
fn running(start: f64) -> impl FnOnce(&mut Ctx) -> f64 {
    move |ctx| start + ctx.total()
}

/// A thread's view of the machine while it steps or while a blocking
/// call of it is serviced: the backend, the namespace, its process's
/// descriptors, and the step's accounting.
pub(crate) struct StepEnv<'a, O: MemOs> {
    pub(crate) os: &'a mut O,
    pub(crate) vfs: &'a mut Vfs,
    pub(crate) fds: &'a mut FdTable,
    pub(crate) pid: Pid,
    /// When the step started; the program's clock is `start` plus the
    /// step's charges so far.
    pub(crate) start: f64,
    pub(crate) ctx: &'a mut Ctx,
    /// Side effects that may wake other threads, delivered by the
    /// machine after the step.
    pub(crate) events: &'a mut Vec<WakeEvent>,
    /// The machine's ring slot image, `[stamp | payload]`, reused by
    /// every push and pop.
    pub(crate) slot: &'a mut Vec<u8>,
}

impl<O: MemOs> StepEnv<'_, O> {
    /// Kernel time of moving `n` bytes through a pipe.
    fn pipe_copy(&self, n: u64) -> f64 {
        self.os.cost().pipe_per_byte * n as f64 + self.os.copyio_cost_per_byte() * n as f64
    }

    /// Writes `len` bytes from `buf` to pipe `id`, whole or not at all,
    /// and wakes its readers. `at` reads the caller's clock when the
    /// write reaches the pipe. A write longer than the whole buffer can
    /// never succeed: it fails before it reads user memory.
    fn pipe_write(
        &mut self,
        id: usize,
        buf: &Capability,
        len: u64,
        at: impl FnOnce(&mut Ctx) -> f64,
    ) -> SysResult<Io> {
        if self.vfs.pipe_capacity(id).is_ok_and(|cap| len > cap) {
            return Err(Errno::Inval);
        }
        let mut data = vec![0u8; len as usize];
        self.os.load(self.ctx, self.pid, buf, &mut data)?;
        let now = at(self.ctx);
        match self.vfs.pipe_write(id, data, now) {
            Ok(n) => {
                self.events.push(WakeEvent::PipeWritten(id));
                Ok(Io::Done(n))
            }
            // Full: a read that drains space wakes the writer.
            Err(Errno::Again) => Ok(Io::Block(BlockedOn::Pipe(id))),
            Err(e) => Err(e),
        }
    }

    /// Pushes one `len`-byte message from `buf` onto the ring behind
    /// `fd`, presenting the sealed endpoint `ring_cap`, and wakes its
    /// consumers. A full ring counts a stall. `at` reads the caller's
    /// clock when the push reaches the ring. A `len` other than the
    /// ring's message size fails before it reads user memory.
    fn ring_push(
        &mut self,
        fd: Fd,
        ring_cap: &Capability,
        buf: &Capability,
        len: u64,
        at: impl FnOnce(&mut Ctx) -> f64,
    ) -> SysResult<Io> {
        let FdKind::RingProd(id) = *self.fds.get(fd)? else {
            return Err(Errno::BadFd);
        };
        // The sealed endpoint capability *is* the authority: the kernel
        // unseals it with the machine-held authority and drives the
        // shared window through the unsealed view. After fork this is
        // the child's relocated register cap.
        let window = ring_cap
            .unseal(&ring::seal_authority())
            .map_err(|_| Errno::Perm)?;
        let meta = self.vfs.ring_meta(id)?;
        // EPIPE only once a consumer has come *and* gone; before the
        // first attach the ring buffers like a FIFO.
        if meta.cons_ends == 0 && meta.ever_cons {
            return Err(Errno::BadFd);
        }
        if len != meta.msg_bytes {
            return Err(Errno::Inval);
        }
        let slots = meta.slots;
        let slot = slot_image(self.slot, len);
        self.os.load(self.ctx, self.pid, buf, &mut slot[STAMP..])?;
        let now = at(self.ctx);
        let pushed = ring::ring_push_raw(self.os, self.ctx, self.pid, &window, slots, slot, now)?;
        Ok(match pushed {
            RawPush::Pushed(seq) => {
                let m = self.vfs.ring_meta_mut(id).expect("ring exists");
                m.pushed += 1;
                RingMeta::mix(&mut m.push_digest, seq, &slot[STAMP..]);
                self.ctx.counters.ring_msgs += 1;
                self.events.push(WakeEvent::RingPushed(id));
                Io::Done(len)
            }
            RawPush::Full => {
                self.ctx.counters.ring_full_stalls += 1;
                Io::Block(BlockedOn::Ring(id))
            }
            RawPush::NotUntil(t) => Io::NotUntil(t),
        })
    }

    /// A pop needs room in `buf` for a whole message, checked before any
    /// charge: the payload is stored only after the head has advanced,
    /// so a short buffer must fail before the message leaves the ring.
    /// Other descriptors are left for `ring_pop` to refuse.
    fn check_pop_len(&self, fd: Fd, buf: &Capability) -> SysResult<()> {
        match self.fds.get(fd) {
            Ok(&FdKind::RingCons(id)) => self
                .vfs
                .ring_meta(id)
                .map_or(Ok(()), |m| check_len(buf, m.msg_bytes)),
            _ => Ok(()),
        }
    }

    /// Pops one message from the ring behind `fd` into `buf`,
    /// presenting the sealed endpoint `ring_cap`, and wakes its
    /// producers. A drained ring whose producers have all closed is done
    /// with [`RING_EOF`]. `at` reads the caller's clock when the pop
    /// reaches the ring.
    fn ring_pop(
        &mut self,
        fd: Fd,
        ring_cap: &Capability,
        buf: &Capability,
        at: impl FnOnce(&mut Ctx) -> f64,
    ) -> SysResult<Io> {
        let FdKind::RingCons(id) = *self.fds.get(fd)? else {
            return Err(Errno::BadFd);
        };
        let window = ring_cap
            .unseal(&ring::seal_authority())
            .map_err(|_| Errno::Perm)?;
        let meta = self.vfs.ring_meta(id)?;
        let (slots, drained_is_eof) = (meta.slots, meta.prod_ends == 0 && meta.ever_prod);
        let slot = slot_image(self.slot, meta.msg_bytes);
        let now = at(self.ctx);
        let popped = ring::ring_pop_raw(self.os, self.ctx, self.pid, &window, slots, slot, now)?;
        Ok(match popped {
            RawPop::Popped(seq) => {
                let payload = &slot[STAMP..];
                self.os.store(self.ctx, self.pid, buf, payload)?;
                let m = self.vfs.ring_meta_mut(id).expect("ring exists");
                m.popped += 1;
                RingMeta::mix(&mut m.pop_digest, seq, payload);
                self.events.push(WakeEvent::RingPopped(id));
                Io::Done(payload.len() as u64)
            }
            RawPop::Empty if drained_is_eof => Io::Done(RING_EOF),
            RawPop::Empty => Io::Block(BlockedOn::Ring(id)),
            RawPop::NotUntil(t) => Io::NotUntil(t),
        })
    }

    /// Reads up to `len` bytes from `fd` into `buf` at simulated time
    /// `now`. The syscall is charged once the read completes, for the
    /// bytes it moved.
    fn read(&mut self, fd: Fd, buf: &Capability, len: u64, now: f64) -> SysResult<Io> {
        match *self.fds.get(fd)? {
            FdKind::PipeRead(id) => match self.vfs.pipe_read(id, len, now)? {
                PipeRead::Data(data) => {
                    let n = data.len() as u64;
                    charge_syscall(self.os, self.ctx, n);
                    self.ctx.kernel(self.pipe_copy(n));
                    if n > 0 {
                        self.os.store(self.ctx, self.pid, buf, &data)?;
                        // Space drained: writers blocked on the full
                        // pipe can retry.
                        self.events.push(WakeEvent::PipeDrained(id));
                    }
                    Ok(Io::Done(n))
                }
                PipeRead::Eof => {
                    charge_syscall(self.os, self.ctx, 0);
                    Ok(Io::Done(0))
                }
                PipeRead::NotUntil(t) => Ok(Io::NotUntil(t)),
                PipeRead::Empty => Ok(Io::Block(BlockedOn::Pipe(id))),
            },
            FdKind::Conn(id) => match self.vfs.conn_read(id, now)? {
                ConnRead::Ready(req_bytes) => {
                    let n = req_bytes.min(len);
                    charge_syscall(self.os, self.ctx, n);
                    self.ctx.kernel(self.os.copyio_cost_per_byte() * n as f64);
                    let data = vec![0x47u8; n as usize]; // 'G' for GET
                    self.os.store(self.ctx, self.pid, buf, &data)?;
                    Ok(Io::Done(n))
                }
                ConnRead::Eof => {
                    charge_syscall(self.os, self.ctx, 0);
                    Ok(Io::Done(0))
                }
                ConnRead::NotUntil(t) => Ok(Io::NotUntil(t)),
            },
            FdKind::File { ref path, offset } => {
                // Stored straight from the file's bytes.
                let n = self.vfs.read_file(path, offset, len, |span| {
                    let n = span.len() as u64;
                    charge_syscall(self.os, self.ctx, n);
                    let cost = self.os.cost();
                    self.ctx.kernel(
                        cost.fs_op
                            + cost.ramdisk_per_byte * n as f64
                            + self.os.copyio_cost_per_byte() * n as f64,
                    );
                    if n > 0 {
                        self.os.store(self.ctx, self.pid, buf, span)?;
                    }
                    Ok(())
                })?;
                if let Ok(FdKind::File { offset, .. }) = self.fds.get_mut(fd) {
                    *offset += n;
                }
                Ok(Io::Done(n))
            }
            _ => Err(Errno::BadFd),
        }
    }

    /// Services an I/O blocking call at the fixed simulated time `now`.
    pub(crate) fn blocking_io(&mut self, call: &BlockingCall, now: f64) -> SysResult<Io> {
        let at = |_: &mut Ctx| now;
        match *call {
            BlockingCall::Read { fd, buf, len } => self.read(fd, &buf, len, now),
            BlockingCall::Write { fd, buf, len } => {
                check_len(&buf, len)?;
                charge_syscall(self.os, self.ctx, len);
                // Only pipes can block on write; files and connections
                // use the non-blocking `sys_write`.
                let FdKind::PipeWrite(id) = *self.fds.get(fd)? else {
                    return Err(Errno::Inval);
                };
                let io = self.pipe_write(id, &buf, len, at)?;
                if let Io::Done(n) = io {
                    self.ctx.kernel(self.pipe_copy(n));
                }
                Ok(io)
            }
            BlockingCall::RingPush { fd, ring, buf, len } => {
                check_len(&buf, len)?;
                charge_syscall(self.os, self.ctx, len);
                self.ring_push(fd, &ring, &buf, len, at)
            }
            BlockingCall::RingPop { fd, ring, buf } => {
                self.check_pop_len(fd, &buf)?;
                charge_syscall(self.os, self.ctx, 0);
                // End of file reads 0 bytes, as from a pipe.
                Ok(match self.ring_pop(fd, &ring, &buf, at)? {
                    Io::Done(RING_EOF) => Io::Done(0),
                    io => io,
                })
            }
            BlockingCall::Accept { fd } => {
                charge_syscall(self.os, self.ctx, 0);
                let FdKind::Listener(id) = *self.fds.get(fd)? else {
                    return Err(Errno::BadFd);
                };
                let conn = self.vfs.accept(id, now)?.ok_or(Errno::Again)?;
                Ok(Io::Done(self.fds.insert(FdKind::Conn(conn)).0 as u64))
            }
            _ => unreachable!("not an I/O call: {call:?}"),
        }
    }
}

impl<O: MemOs> Env for StepEnv<'_, O> {
    fn load(&mut self, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.os.load(self.ctx, self.pid, cap, buf)
    }

    fn store(&mut self, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.os.store(self.ctx, self.pid, cap, data)
    }

    fn load_cap(&mut self, cap: &Capability) -> SysResult<Option<Capability>> {
        self.os.load_cap(self.ctx, self.pid, cap)
    }

    fn store_cap(&mut self, cap: &Capability, value: &Capability) -> SysResult<()> {
        self.os.store_cap(self.ctx, self.pid, cap, value)
    }

    fn reg(&self, idx: usize) -> SysResult<Capability> {
        self.os.reg(self.pid, idx)
    }

    fn set_reg(&mut self, idx: usize, cap: Capability) -> SysResult<()> {
        self.os.set_reg(self.pid, idx, cap)
    }

    fn malloc(&mut self, len: u64) -> SysResult<Capability> {
        self.os.malloc(self.ctx, self.pid, len)
    }

    fn mfree(&mut self, cap: &Capability) -> SysResult<()> {
        self.os.mfree(self.ctx, self.pid, cap)
    }

    fn cpu_ops(&mut self, n: u64) {
        self.ctx.user(self.os.cost().cpu_op * n as f64);
    }

    fn cpu_flops(&mut self, n: u64) {
        self.ctx.user(self.os.cost().flop * n as f64);
    }

    fn sys_write(&mut self, fd: Fd, buf: &Capability, len: u64) -> SysResult<u64> {
        check_len(buf, len)?;
        charge_syscall(self.os, self.ctx, len);
        match *self.fds.get(fd)? {
            FdKind::File { ref path, offset } => {
                let n = self.vfs.write_file(path, offset, len, |span| {
                    self.os.load(self.ctx, self.pid, buf, span)?;
                    let cost = self.os.cost();
                    self.ctx.kernel(
                        cost.fs_op
                            + cost.ramdisk_per_byte * len as f64
                            + self.os.copyio_cost_per_byte() * len as f64,
                    );
                    Ok(())
                })?;
                if let Ok(FdKind::File { offset, .. }) = self.fds.get_mut(fd) {
                    *offset += n;
                }
                Ok(n)
            }
            FdKind::PipeWrite(id) => {
                // The pipe copy is paid before the write reaches the
                // pipe, so a refused write pays it too.
                let copy = self.pipe_copy(len);
                let start = self.start;
                let at = |ctx: &mut Ctx| {
                    ctx.kernel(copy);
                    start + ctx.total()
                };
                match self.pipe_write(id, buf, len, at)? {
                    Io::Done(n) => Ok(n),
                    _ => Err(Errno::Again),
                }
            }
            FdKind::Conn(id) => {
                // Response bytes: charge copy but content is synthetic.
                let cost = self.os.cost();
                self.ctx.kernel(
                    self.os.copyio_cost_per_byte() * len as f64 + cost.pipe_per_byte * len as f64,
                );
                let now = self.now();
                self.vfs.conn_write(id, now)?;
                Ok(len)
            }
            _ => Err(Errno::BadFd),
        }
    }

    fn sys_open(&mut self, path: &str, create: bool) -> SysResult<Fd> {
        charge_syscall(self.os, self.ctx, 0);
        self.ctx.kernel(self.os.cost().fs_op);
        self.vfs.open_file(path, create)?;
        Ok(self.fds.insert(FdKind::File {
            path: path.to_string(),
            offset: 0,
        }))
    }

    fn sys_close(&mut self, fd: Fd) -> SysResult<()> {
        charge_syscall(self.os, self.ctx, 0);
        let kind = self.fds.remove(fd)?;
        self.events.extend(self.vfs.close(&kind));
        Ok(())
    }

    fn sys_rename(&mut self, from: &str, to: &str) -> SysResult<()> {
        charge_syscall(self.os, self.ctx, 0);
        self.ctx.kernel(self.os.cost().fs_op);
        self.vfs.rename(from, to)
    }

    fn sys_pipe(&mut self) -> SysResult<(Fd, Fd)> {
        charge_syscall(self.os, self.ctx, 0);
        let id = self.vfs.create_pipe();
        let r = self.fds.insert(FdKind::PipeRead(id));
        let w = self.fds.insert(FdKind::PipeWrite(id));
        Ok((r, w))
    }

    fn sys_shm_open(&mut self, name: &str, len: u64) -> SysResult<Capability> {
        charge_syscall(self.os, self.ctx, 0);
        self.os.shm_open(self.ctx, self.pid, name, len)
    }

    fn sys_mmap_anon(&mut self, len: u64) -> SysResult<Capability> {
        charge_syscall(self.os, self.ctx, 0);
        self.os.mmap_anon(self.ctx, self.pid, len)
    }

    fn sys_kill(&mut self, pid: Pid) -> SysResult<()> {
        charge_syscall(self.os, self.ctx, 0);
        if pid == self.pid {
            return Err(Errno::Inval);
        }
        // Delivered by the machine after this step completes.
        self.events.push(WakeEvent::Kill(pid));
        Ok(())
    }

    fn sys_ring_open(
        &mut self,
        name: &str,
        slots: u64,
        msg_bytes: u64,
        producer: bool,
    ) -> SysResult<(Fd, Capability)> {
        charge_syscall(self.os, self.ctx, 0);
        let bytes = ring::ring_bytes(slots, msg_bytes).ok_or(Errno::Inval)?;
        let (id, created) = self.vfs.ring_register(name, slots, msg_bytes)?;
        // The ring lives in a named shared-memory object: the fork walk
        // refcount-shares these frames instead of copying them.
        let shm_name = format!("ring:{name}");
        let window = match self.os.shm_open(self.ctx, self.pid, &shm_name, bytes) {
            Ok(window) => window,
            Err(e) => {
                if created {
                    self.vfs.ring_abandon(id);
                }
                return Err(e);
            }
        };
        if created {
            ring::ring_init(self.os, self.ctx, self.pid, &window, slots, msg_bytes)?;
        } else {
            ring::ring_verify(self.os, self.ctx, self.pid, &window, slots, msg_bytes)?;
        }
        self.vfs.ring_add_end(id, producer);
        let fd = self.fds.insert(if producer {
            FdKind::RingProd(id)
        } else {
            FdKind::RingCons(id)
        });
        // Hand the program a *sealed* view: it cannot dereference the
        // window, only present the capability back to push/pop.
        let sealed = window
            .seal(OType::RING_ENDPOINT, &ring::seal_authority())
            .map_err(|_| Errno::Perm)?;
        Ok((fd, sealed))
    }

    fn sys_ring_try_push(
        &mut self,
        fd: Fd,
        ring_cap: &Capability,
        buf: &Capability,
        len: u64,
    ) -> SysResult<u64> {
        check_len(buf, len)?;
        charge_syscall(self.os, self.ctx, len);
        match self.ring_push(fd, ring_cap, buf, len, running(self.start))? {
            Io::Done(n) => Ok(n),
            Io::Block(_) => Err(Errno::Again),
            // The next slot frees in this step's future: a stall too.
            Io::NotUntil(_) => {
                self.ctx.counters.ring_full_stalls += 1;
                Err(Errno::Again)
            }
        }
    }

    fn sys_ring_try_pop(
        &mut self,
        fd: Fd,
        ring_cap: &Capability,
        buf: &Capability,
    ) -> SysResult<u64> {
        self.check_pop_len(fd, buf)?;
        charge_syscall(self.os, self.ctx, 0);
        match self.ring_pop(fd, ring_cap, buf, running(self.start))? {
            Io::Done(n) => Ok(n),
            // Empty, or the head message lands in this step's future.
            Io::Block(_) | Io::NotUntil(_) => Ok(0),
        }
    }

    fn sys_getpid(&mut self) -> Pid {
        charge_syscall(self.os, self.ctx, 0);
        self.pid
    }

    fn now(&self) -> f64 {
        self.start + self.ctx.total()
    }
}
