//! Ram-disk files, pipes, synthetic network connections, fd tables, and
//! the named-channel registry of the shared-memory ring fabric.

use std::collections::BTreeMap;

use ufork_abi::{Errno, Fd, SysResult};

use crate::sched::TimeKey;

/// Per-ring traffic summary, as `(ring id, name, pushed, popped,
/// push digest, pop digest)` in id order.
pub type RingSnapshot = Vec<(usize, String, u64, u64, u64, u64)>;

/// Default pipe capacity in bytes (POSIX pipes buffer 64 KiB).
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// What a file descriptor refers to.
#[derive(Clone, Debug)]
pub enum FdKind {
    /// A ram-disk file with a private offset.
    File {
        /// Path in the ram-disk namespace.
        path: String,
        /// Current read/write offset.
        offset: u64,
    },
    /// Read end of a pipe.
    PipeRead(usize),
    /// Write end of a pipe.
    PipeWrite(usize),
    /// A listening socket fed by a synthetic traffic source.
    Listener(usize),
    /// An accepted connection.
    Conn(usize),
    /// Producer end of a shared-memory descriptor ring.
    RingProd(usize),
    /// Consumer end of a shared-memory descriptor ring.
    RingCons(usize),
}

/// A per-process file-descriptor table.
///
/// Duplicated on fork, as POSIX requires ("relevant system resources are
/// also duplicated ... e.g., open file and message queue descriptors",
/// paper §3.5).
#[derive(Clone, Debug, Default)]
pub struct FdTable {
    entries: BTreeMap<i32, FdKind>,
    next: i32,
}

impl FdTable {
    /// An empty table (fd numbering starts at 3, as 0–2 are std streams).
    pub fn new() -> FdTable {
        FdTable {
            entries: BTreeMap::new(),
            next: 3,
        }
    }

    /// Inserts a new descriptor.
    pub fn insert(&mut self, kind: FdKind) -> Fd {
        let fd = self.next;
        self.next += 1;
        self.entries.insert(fd, kind);
        Fd(fd)
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: Fd) -> SysResult<&FdKind> {
        self.entries.get(&fd.0).ok_or(Errno::BadFd)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, fd: Fd) -> SysResult<&mut FdKind> {
        self.entries.get_mut(&fd.0).ok_or(Errno::BadFd)
    }

    /// Removes a descriptor, returning its kind.
    pub fn remove(&mut self, fd: Fd) -> SysResult<FdKind> {
        self.entries.remove(&fd.0).ok_or(Errno::BadFd)
    }

    /// Iterates all entries.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &FdKind)> {
        self.entries.iter().map(|(k, v)| (Fd(*k), v))
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A side effect of an I/O operation that may wake blocked threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WakeEvent {
    /// Data written to pipe `id` at the given simulated time.
    PipeWritten(usize),
    /// All write ends of pipe `id` closed (readers see EOF).
    PipeHangup(usize),
    /// Buffer space freed on pipe `id` (a read drained bytes, or the
    /// last read end closed and blocked writers must fail with EPIPE).
    PipeDrained(usize),
    /// A message was pushed onto ring `id`, or its last producer end
    /// closed (blocked consumers must re-poll: data or EOF).
    RingPushed(usize),
    /// A slot was freed on ring `id`, or its last consumer end closed
    /// (blocked producers must re-poll: space or EPIPE).
    RingPopped(usize),
    /// A SIGKILL-style signal was sent to the process.
    Kill(ufork_abi::Pid),
}

#[derive(Debug, Default)]
struct FileNode {
    data: Vec<u8>,
}

#[derive(Debug)]
struct Pipe {
    /// Buffered chunks with the simulated time they became available.
    chunks: std::collections::VecDeque<(Vec<u8>, f64)>,
    /// Bytes currently buffered across all chunks.
    buffered: usize,
    /// Buffer capacity: a write that does not fit whole is refused with
    /// `EAGAIN` (all-or-nothing; the machine turns that into a blocked
    /// writer).
    capacity: usize,
    read_ends: u32,
    write_ends: u32,
}

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a mix of one u64 into a running digest.
fn fnv_mix(digest: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// Registry entry of one named SPSC descriptor ring. The ring's head,
/// tail and slots live in `Shm`-backed *simulated* memory (see
/// [`crate::ring`]); this entry holds the name binding, endpoint
/// refcounts, and the order-sensitive traffic digests the differential
/// oracle compares across backends.
#[derive(Clone, Debug)]
pub struct RingMeta {
    /// Registry name.
    pub name: String,
    /// Message slots in the ring.
    pub slots: u64,
    /// Payload bytes per message.
    pub msg_bytes: u64,
    /// Open producer-end descriptors (across all processes).
    pub prod_ends: u32,
    /// Open consumer-end descriptors.
    pub cons_ends: u32,
    /// A producer end has attached at some point. Until then a drained
    /// ring is *pending*, not EOF — named rings attach like FIFOs, and
    /// a consumer may open (and poll) before the first producer exists.
    pub ever_prod: bool,
    /// A consumer end has attached at some point; until then a push is
    /// buffered rather than failed with EPIPE.
    pub ever_cons: bool,
    /// Messages pushed over the ring's lifetime.
    pub pushed: u64,
    /// Messages popped.
    pub popped: u64,
    /// FNV-1a digest over `(seq, payload)` of every push, in order.
    pub push_digest: u64,
    /// FNV-1a digest over `(seq, payload)` of every pop, in order.
    pub pop_digest: u64,
}

impl RingMeta {
    /// Folds one message into a traffic digest: `seq`, the length, then
    /// each payload byte as the FNV-1a mix of that byte widened to a
    /// u64. The widening's seven zero bytes xor nothing, so a byte folds
    /// as one xor and one multiply by the prime to the 8th.
    pub fn mix(digest: &mut u64, seq: u64, payload: &[u8]) {
        const PRIME_8: u64 = FNV_PRIME.wrapping_pow(8);
        fnv_mix(digest, seq);
        fnv_mix(digest, payload.len() as u64);
        for &b in payload {
            *digest = (*digest ^ u64::from(b)).wrapping_mul(PRIME_8);
        }
    }
}

/// Parameters of the synthetic connections a [`Vfs`] listener produces —
/// the wrk-style closed-loop traffic of the Nginx experiment.
#[derive(Clone, Copy, Debug)]
pub struct ConnTemplate {
    /// Requests sent per connection before it closes.
    pub requests_per_conn: u32,
    /// Request size in bytes.
    pub req_bytes: u32,
    /// Think/network gap between a response and the next request (ns).
    pub think_ns: f64,
}

#[derive(Debug)]
struct Listener {
    template: ConnTemplate,
    /// Connections still to be offered (effectively infinite for
    /// saturation benchmarks).
    remaining_conns: u64,
}

#[derive(Debug)]
struct Conn {
    template: ConnTemplate,
    /// Requests left to serve on this connection.
    remaining: u32,
    /// When the next request is available to read.
    next_req_at: f64,
    /// A request has been read and awaits its response.
    in_flight: bool,
    /// Requests fully served on this connection.
    pub served: u64,
}

/// True when simulated time `t` is strictly after `now` under the
/// scheduler's [`TimeKey`] ordering. The integer key is exact: a chunk
/// stamped at `now` is readable, one stamped one ulp later is not. An
/// epsilon comparison would defer some chunks stamped exactly at `now`
/// and admit sub-epsilon-future ones.
fn after(t: f64, now: f64) -> bool {
    TimeKey::from_ns(t) > TimeKey::from_ns(now)
}

/// The shared file system / network namespace.
#[derive(Debug, Default)]
pub struct Vfs {
    files: BTreeMap<String, FileNode>,
    pipes: Vec<Option<Pipe>>,
    listeners: Vec<Listener>,
    conns: Vec<Conn>,
    rings: Vec<RingMeta>,
    /// Total requests served across all connections (throughput metric).
    pub total_served: u64,
}

impl Vfs {
    /// An empty namespace.
    pub fn new() -> Vfs {
        Vfs::default()
    }

    // ---- files ---------------------------------------------------------

    /// Opens a file, creating it when `create` is set.
    pub fn open_file(&mut self, path: &str, create: bool) -> SysResult<()> {
        if !self.files.contains_key(path) {
            if !create {
                return Err(Errno::NoEnt);
            }
            self.files.insert(path.to_string(), FileNode::default());
        }
        Ok(())
    }

    /// Writes `len` bytes at `offset`, extending the file as needed.
    /// Returns bytes written.
    ///
    /// `fill` produces the bytes straight into the file's span
    /// `[offset, offset + len)` (a gap before `offset` reads as zeros).
    /// The write is all or nothing: when `fill` fails, the file gets its
    /// old bytes and length back and `fill`'s error is returned. A
    /// missing file still runs `fill`, into a scratch buffer, before
    /// failing with `NoEnt`, so the caller's side effects (a user-memory
    /// load with its faults and charges) do not depend on the namespace.
    /// A span whose end overflows, or lies past what a host buffer can
    /// hold (`isize::MAX`), fails with `Inval` before anything runs.
    pub fn write_file(
        &mut self,
        path: &str,
        offset: u64,
        len: u64,
        fill: impl FnOnce(&mut [u8]) -> SysResult<()>,
    ) -> SysResult<u64> {
        let end = offset
            .checked_add(len)
            .and_then(|end| isize::try_from(end).ok());
        let (start, end) = (offset as usize, end.ok_or(Errno::Inval)? as usize);
        let Some(node) = self.files.get_mut(path) else {
            fill(&mut vec![0; len as usize])?;
            return Err(Errno::NoEnt);
        };
        let old_len = node.data.len();
        // The bytes the write replaces, to undo a failed fill.
        let replaced = node
            .data
            .get(start..end.min(old_len))
            .unwrap_or(&[])
            .to_vec();
        if old_len < end {
            node.data.resize(end, 0);
        }
        if let Err(e) = fill(&mut node.data[start..end]) {
            node.data.truncate(old_len);
            if !replaced.is_empty() {
                node.data[start..start + replaced.len()].copy_from_slice(&replaced);
            }
            return Err(e);
        }
        Ok(len)
    }

    /// Reads up to `len` bytes at `offset` (fewer at end of file, none
    /// past it). Returns the bytes read.
    ///
    /// `sink` takes the bytes straight from the file's span; its error
    /// fails the read. A missing file fails with `NoEnt` without running
    /// `sink`.
    pub fn read_file(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        sink: impl FnOnce(&[u8]) -> SysResult<()>,
    ) -> SysResult<u64> {
        let node = self.files.get(path).ok_or(Errno::NoEnt)?;
        let start = (offset as usize).min(node.data.len());
        let end = start.saturating_add(len as usize).min(node.data.len());
        sink(&node.data[start..end])?;
        Ok((end - start) as u64)
    }

    /// Atomically renames a file.
    pub fn rename(&mut self, from: &str, to: &str) -> SysResult<()> {
        let node = self.files.remove(from).ok_or(Errno::NoEnt)?;
        self.files.insert(to.to_string(), node);
        Ok(())
    }

    /// Full contents of a file (harness-side verification).
    pub fn file_contents(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|n| n.data.as_slice())
    }

    /// File size in bytes.
    pub fn file_len(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|n| n.data.len() as u64)
    }

    // ---- pipes -----------------------------------------------------------

    /// Creates a pipe with the default [`PIPE_CAPACITY`], returning its
    /// id (one read end + one write end outstanding).
    pub fn create_pipe(&mut self) -> usize {
        self.create_pipe_with_capacity(PIPE_CAPACITY)
    }

    /// Creates a pipe with an explicit buffer capacity (tests shrink it
    /// to exercise the writer-blocking path without megabyte writes).
    pub fn create_pipe_with_capacity(&mut self, capacity: usize) -> usize {
        let pipe = Pipe {
            chunks: std::collections::VecDeque::new(),
            buffered: 0,
            capacity,
            read_ends: 1,
            write_ends: 1,
        };
        if let Some(idx) = self.pipes.iter().position(Option::is_none) {
            self.pipes[idx] = Some(pipe);
            idx
        } else {
            self.pipes.push(Some(pipe));
            self.pipes.len() - 1
        }
    }

    fn pipe_mut(&mut self, id: usize) -> SysResult<&mut Pipe> {
        self.pipes
            .get_mut(id)
            .and_then(Option::as_mut)
            .ok_or(Errno::BadFd)
    }

    /// Adds a sharer to one end (fd duplication on fork).
    pub fn pipe_add_end(&mut self, id: usize, write_end: bool) {
        if let Ok(p) = self.pipe_mut(id) {
            if write_end {
                p.write_ends += 1;
            } else {
                p.read_ends += 1;
            }
        }
    }

    /// Drops one end, returning every wake event the close implies: the
    /// last write end hangs up *all* blocked readers (EOF), and the last
    /// read end must wake all blocked writers so they fail with EPIPE.
    /// The pipe is freed when all ends are gone.
    pub fn pipe_drop_end(&mut self, id: usize, write_end: bool) -> Vec<WakeEvent> {
        let Ok(p) = self.pipe_mut(id) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        if write_end {
            p.write_ends -= 1;
            if p.write_ends == 0 {
                events.push(WakeEvent::PipeHangup(id));
            }
        } else {
            p.read_ends -= 1;
            if p.read_ends == 0 {
                events.push(WakeEvent::PipeDrained(id));
            }
        }
        if p.read_ends == 0 && p.write_ends == 0 {
            self.pipes[id] = None;
        }
        events
    }

    /// Closes the pipe or ring end `kind` refers to, returning the wake
    /// events the close implies. Other descriptors close without effect.
    pub fn close(&mut self, kind: &FdKind) -> Vec<WakeEvent> {
        match *kind {
            FdKind::PipeRead(id) => self.pipe_drop_end(id, false),
            FdKind::PipeWrite(id) => self.pipe_drop_end(id, true),
            FdKind::RingProd(id) => self.ring_drop_end(id, true),
            FdKind::RingCons(id) => self.ring_drop_end(id, false),
            _ => Vec::new(),
        }
    }

    /// Pipe `id`'s buffer capacity in bytes: the longest write that can
    /// ever succeed.
    pub(crate) fn pipe_capacity(&self, id: usize) -> SysResult<u64> {
        let p = self.pipes.get(id).and_then(Option::as_ref);
        p.map(|p| p.capacity as u64).ok_or(Errno::BadFd)
    }

    /// Appends to a pipe at simulated time `now`.
    ///
    /// Writes are all-or-nothing against the buffer capacity: a write
    /// that does not fit returns `EAGAIN` (the machine blocks the writer
    /// until a read drains space), and one larger than the whole buffer
    /// can never succeed and returns `EINVAL`.
    pub fn pipe_write(&mut self, id: usize, data: Vec<u8>, now: f64) -> SysResult<u64> {
        let p = self.pipe_mut(id)?;
        if p.read_ends == 0 {
            return Err(Errno::BadFd); // EPIPE, near enough
        }
        if data.len() > p.capacity {
            return Err(Errno::Inval);
        }
        if p.buffered + data.len() > p.capacity {
            return Err(Errno::Again);
        }
        p.buffered += data.len();
        let n = data.len() as u64;
        p.chunks.push_back((data, now));
        Ok(n)
    }

    /// Attempts to read at simulated time `now`.
    ///
    /// Data written at a later simulated time (by a step that executed
    /// earlier in host order) is not yet visible; the comparison uses the
    /// scheduler's exact [`TimeKey`] ordering, so a chunk stamped at
    /// precisely `now` is readable in the same slice.
    pub fn pipe_read(&mut self, id: usize, len: u64, now: f64) -> SysResult<PipeRead> {
        let p = self.pipe_mut(id)?;
        match p.chunks.front() {
            None => {
                if p.write_ends == 0 {
                    Ok(PipeRead::Eof)
                } else {
                    Ok(PipeRead::Empty)
                }
            }
            Some((_, t)) if after(*t, now) => Ok(PipeRead::NotUntil(*t)),
            Some(_) => {
                let mut out = Vec::new();
                while out.len() < len as usize {
                    let Some((chunk, t)) = p.chunks.front_mut() else {
                        break;
                    };
                    if after(*t, now) {
                        break;
                    }
                    let take = (len as usize - out.len()).min(chunk.len());
                    out.extend(chunk.drain(..take));
                    if chunk.is_empty() {
                        p.chunks.pop_front();
                    }
                }
                p.buffered -= out.len();
                Ok(PipeRead::Data(out))
            }
        }
    }

    /// Bytes currently buffered in a pipe.
    pub fn pipe_buffered(&self, id: usize) -> usize {
        self.pipes
            .get(id)
            .and_then(Option::as_ref)
            .map_or(0, |p| p.buffered)
    }

    // ---- rings -----------------------------------------------------------

    /// Registers (or looks up) the named ring, returning `(id, created)`.
    /// Geometry must match on reopen.
    pub fn ring_register(
        &mut self,
        name: &str,
        slots: u64,
        msg_bytes: u64,
    ) -> SysResult<(usize, bool)> {
        if let Some(id) = self.rings.iter().position(|r| r.name == name) {
            let r = &self.rings[id];
            if r.slots != slots || r.msg_bytes != msg_bytes {
                return Err(Errno::Inval);
            }
            return Ok((id, false));
        }
        if slots == 0 || msg_bytes == 0 {
            return Err(Errno::Inval);
        }
        self.rings.push(RingMeta {
            name: name.to_string(),
            slots,
            msg_bytes,
            prod_ends: 0,
            cons_ends: 0,
            ever_prod: false,
            ever_cons: false,
            pushed: 0,
            popped: 0,
            push_digest: 0xcbf2_9ce4_8422_2325,
            pop_digest: 0xcbf2_9ce4_8422_2325,
        });
        Ok((self.rings.len() - 1, true))
    }

    /// Looks up a registered ring by name.
    pub fn ring_lookup(&self, name: &str) -> Option<usize> {
        self.rings.iter().position(|r| r.name == name)
    }

    /// Registry entry of ring `id`.
    pub fn ring_meta(&self, id: usize) -> SysResult<&RingMeta> {
        self.rings.get(id).ok_or(Errno::BadFd)
    }

    /// Mutable registry entry of ring `id`.
    pub fn ring_meta_mut(&mut self, id: usize) -> SysResult<&mut RingMeta> {
        self.rings.get_mut(id).ok_or(Errno::BadFd)
    }

    /// Adds a sharer to one ring end (open, or fd duplication on fork).
    pub fn ring_add_end(&mut self, id: usize, producer: bool) {
        if let Some(r) = self.rings.get_mut(id) {
            if producer {
                r.prod_ends += 1;
                r.ever_prod = true;
            } else {
                r.cons_ends += 1;
                r.ever_cons = true;
            }
        }
    }

    /// Drops one ring end, returning the wake events the close implies:
    /// the last producer end wakes all blocked consumers (they re-poll
    /// and see EOF once drained), the last consumer end wakes all
    /// blocked producers (they fail with EPIPE). The registry entry
    /// persists — rings are named and can be reopened.
    pub fn ring_drop_end(&mut self, id: usize, producer: bool) -> Vec<WakeEvent> {
        let Some(r) = self.rings.get_mut(id) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        if producer {
            r.prod_ends -= 1;
            if r.prod_ends == 0 {
                events.push(WakeEvent::RingPushed(id));
            }
        } else {
            r.cons_ends -= 1;
            if r.cons_ends == 0 {
                events.push(WakeEvent::RingPopped(id));
            }
        }
        events
    }

    /// Per-ring traffic summary in id order (the differential oracle
    /// compares these across backends: same messages, same order).
    pub fn ring_snapshot(&self) -> RingSnapshot {
        self.rings
            .iter()
            .enumerate()
            .map(|(id, r)| {
                (
                    id,
                    r.name.clone(),
                    r.pushed,
                    r.popped,
                    r.push_digest,
                    r.pop_digest,
                )
            })
            .collect()
    }

    // ---- listeners & connections -------------------------------------------

    /// Installs a listener producing `conns` connections from `template`.
    /// Returns the listener id.
    pub fn create_listener(&mut self, template: ConnTemplate, conns: u64) -> usize {
        self.listeners.push(Listener {
            template,
            remaining_conns: conns,
        });
        self.listeners.len() - 1
    }

    /// Accepts a connection from listener `id` at time `now`.
    ///
    /// Returns the new connection id, or `None` when the source is
    /// exhausted.
    pub fn accept(&mut self, id: usize, now: f64) -> SysResult<Option<usize>> {
        let l = self.listeners.get_mut(id).ok_or(Errno::BadFd)?;
        if l.remaining_conns == 0 {
            return Ok(None);
        }
        l.remaining_conns -= 1;
        let template = l.template;
        self.conns.push(Conn {
            template,
            remaining: template.requests_per_conn,
            next_req_at: now,
            in_flight: false,
            served: 0,
        });
        Ok(Some(self.conns.len() - 1))
    }

    /// Attempts to read the next request from connection `id` at `now`.
    ///
    /// * `Ok(Ready(bytes))` — a request is available;
    /// * `Ok(Eof)` — the connection is done;
    /// * `Ok(NotUntil(t))` — block until simulated time `t`.
    pub fn conn_read(&mut self, id: usize, now: f64) -> SysResult<ConnRead> {
        let c = self.conns.get_mut(id).ok_or(Errno::BadFd)?;
        if c.remaining == 0 {
            return Ok(ConnRead::Eof);
        }
        if c.in_flight {
            // Protocol misuse: a second read before responding.
            return Err(Errno::Inval);
        }
        if after(c.next_req_at, now) {
            return Ok(ConnRead::NotUntil(c.next_req_at));
        }
        c.in_flight = true;
        Ok(ConnRead::Ready(c.template.req_bytes as u64))
    }

    /// Writes the response for the in-flight request at `now`.
    pub fn conn_write(&mut self, id: usize, now: f64) -> SysResult<u64> {
        let c = self.conns.get_mut(id).ok_or(Errno::BadFd)?;
        if !c.in_flight {
            return Err(Errno::Inval);
        }
        c.in_flight = false;
        c.remaining -= 1;
        c.served += 1;
        self.total_served += 1;
        c.next_req_at = now + c.template.think_ns;
        Ok(0)
    }

    /// Requests served on one connection.
    pub fn conn_served(&self, id: usize) -> u64 {
        self.conns.get(id).map_or(0, |c| c.served)
    }
}

/// Result of [`Vfs::pipe_read`].
#[derive(Clone, Debug, PartialEq)]
pub enum PipeRead {
    /// Bytes available now.
    Data(Vec<u8>),
    /// Writers remain but nothing is readable yet.
    Empty,
    /// Data exists but only from simulated time `t` onwards.
    NotUntil(f64),
    /// All writers closed and the buffer is drained.
    Eof,
}

/// Result of [`Vfs::conn_read`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConnRead {
    /// A request of this many bytes is ready.
    Ready(u64),
    /// No more requests on this connection.
    Eof,
    /// Block until the given simulated time.
    NotUntil(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(v: &mut Vfs, path: &str, offset: u64, data: &[u8]) -> SysResult<u64> {
        v.write_file(path, offset, data.len() as u64, |span| {
            span.copy_from_slice(data);
            Ok(())
        })
    }

    fn read(v: &Vfs, path: &str, offset: u64, len: u64) -> SysResult<Vec<u8>> {
        let mut out = Vec::new();
        let n = v.read_file(path, offset, len, |span| {
            out.extend_from_slice(span);
            Ok(())
        })?;
        assert_eq!(n, out.len() as u64);
        Ok(out)
    }

    #[test]
    fn fd_table_insert_get_remove() {
        let mut t = FdTable::new();
        let fd = t.insert(FdKind::PipeRead(0));
        assert_eq!(fd, Fd(3));
        assert!(matches!(t.get(fd), Ok(FdKind::PipeRead(0))));
        assert!(matches!(t.remove(fd), Ok(FdKind::PipeRead(0))));
        assert_eq!(t.get(fd).unwrap_err(), Errno::BadFd);
    }

    #[test]
    fn file_write_read_rename() {
        let mut v = Vfs::new();
        assert_eq!(v.open_file("a", false).unwrap_err(), Errno::NoEnt);
        v.open_file("a", true).unwrap();
        write(&mut v, "a", 0, b"hello").unwrap();
        write(&mut v, "a", 5, b" world").unwrap();
        assert_eq!(read(&v, "a", 0, 100).unwrap(), b"hello world");
        v.rename("a", "b").unwrap();
        assert!(v.file_contents("a").is_none());
        assert_eq!(v.file_len("b"), Some(11));
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut v = Vfs::new();
        v.open_file("f", true).unwrap();
        write(&mut v, "f", 4, b"x").unwrap();
        assert_eq!(read(&v, "f", 0, 5).unwrap(), vec![0, 0, 0, 0, b'x']);
    }

    #[test]
    fn read_hands_the_span_to_the_sink() {
        let mut v = Vfs::new();
        v.open_file("f", true).unwrap();
        write(&mut v, "f", 0, b"abcdef").unwrap();
        assert_eq!(read(&v, "f", 1, 3).unwrap(), b"bcd");
        // Short at end of file, empty at and past it: the sink still
        // runs, on an empty span.
        assert_eq!(read(&v, "f", 4, 10).unwrap(), b"ef");
        assert_eq!(read(&v, "f", 6, 4).unwrap(), b"");
        assert_eq!(read(&v, "f", 100, 4).unwrap(), b"");
        // A length the program chose cannot overflow the span's end.
        assert_eq!(read(&v, "f", 2, u64::MAX).unwrap(), b"cdef");
        // The sink's error fails the read.
        assert_eq!(
            v.read_file("f", 0, 2, |_| Err(Errno::Fault)),
            Err(Errno::Fault)
        );
        // A missing file fails before the sink runs.
        let mut ran = false;
        let r = v.read_file("gone", 0, 2, |_| {
            ran = true;
            Ok(())
        });
        assert_eq!((r, ran), (Err(Errno::NoEnt), false));
    }

    #[test]
    fn failed_fill_leaves_the_file_as_it_was() {
        let mut v = Vfs::new();
        v.open_file("f", true).unwrap();
        write(&mut v, "f", 0, b"abcdef").unwrap();
        // Overwrite inside, overwrite past the end, sparse append: each
        // fill writes some bytes and then fails.
        for (offset, len) in [(1, 3), (4, 6), (9, 2)] {
            let r = v.write_file("f", offset, len, |span| {
                span[0] = b'!';
                Err(Errno::Fault)
            });
            assert_eq!(r, Err(Errno::Fault));
            assert_eq!(v.file_contents("f"), Some(&b"abcdef"[..]));
        }
        // A missing file runs the fill before failing; its error wins.
        let mut ran = false;
        let r = v.write_file("gone", 0, 3, |span| {
            ran = span.len() == 3;
            Ok(())
        });
        assert_eq!((r, ran), (Err(Errno::NoEnt), true));
        assert_eq!(
            v.write_file("gone", 0, 3, |_| Err(Errno::Fault)),
            Err(Errno::Fault)
        );
        // A span whose end overflows, or lies past `isize::MAX`, fails
        // before the fill runs, on an existing file and on a missing one.
        for path in ["f", "gone"] {
            for offset in [0, 1] {
                let r = v.write_file(path, offset, u64::MAX, |_| unreachable!("fill ran"));
                assert_eq!(r, Err(Errno::Inval), "{path} at {offset}");
            }
        }
        assert_eq!(v.file_contents("f"), Some(&b"abcdef"[..]));
    }

    #[test]
    fn pipe_basic_flow() {
        let mut v = Vfs::new();
        let p = v.create_pipe();
        assert_eq!(v.pipe_read(p, 10, 0.0).unwrap(), PipeRead::Empty);
        v.pipe_write(p, b"abc".to_vec(), 5.0).unwrap();
        // Reading "before" the write sees nothing yet.
        assert_eq!(v.pipe_read(p, 2, 1.0).unwrap(), PipeRead::NotUntil(5.0));
        assert_eq!(
            v.pipe_read(p, 2, 5.0).unwrap(),
            PipeRead::Data(b"ab".to_vec())
        );
        assert_eq!(
            v.pipe_read(p, 2, 5.0).unwrap(),
            PipeRead::Data(b"c".to_vec())
        );
        assert_eq!(v.pipe_read(p, 2, 5.0).unwrap(), PipeRead::Empty);
    }

    #[test]
    fn pipe_read_stops_at_future_chunk() {
        let mut v = Vfs::new();
        let p = v.create_pipe();
        v.pipe_write(p, b"ab".to_vec(), 1.0).unwrap();
        v.pipe_write(p, b"cd".to_vec(), 9.0).unwrap();
        // At t=2 only the first chunk is visible.
        assert_eq!(
            v.pipe_read(p, 10, 2.0).unwrap(),
            PipeRead::Data(b"ab".to_vec())
        );
        assert_eq!(v.pipe_read(p, 10, 2.0).unwrap(), PipeRead::NotUntil(9.0));
        assert_eq!(
            v.pipe_read(p, 10, 9.0).unwrap(),
            PipeRead::Data(b"cd".to_vec())
        );
    }

    #[test]
    fn pipe_chunk_stamped_exactly_at_now_is_readable() {
        // A chunk stamped at precisely `now` belongs to this slice, and
        // only a strictly later stamp — even one ulp later — defers it.
        let mut v = Vfs::new();
        let p = v.create_pipe();
        let now = 123_456.789_f64;
        v.pipe_write(p, b"at".to_vec(), now).unwrap();
        assert_eq!(
            v.pipe_read(p, 10, now).unwrap(),
            PipeRead::Data(b"at".to_vec())
        );
        // One-ulp-later stamp: the adjacent representable instant (the
        // idiom the scheduler's TimeKey tests use).
        let next = f64::from_bits(now.to_bits() + 1);
        v.pipe_write(p, b"later".to_vec(), next).unwrap();
        assert_eq!(v.pipe_read(p, 10, now).unwrap(), PipeRead::NotUntil(next));
        assert_eq!(
            v.pipe_read(p, 10, next).unwrap(),
            PipeRead::Data(b"later".to_vec())
        );
    }

    #[test]
    fn pipe_eof_and_free() {
        let mut v = Vfs::new();
        let p = v.create_pipe();
        v.pipe_write(p, b"z".to_vec(), 1.0).unwrap();
        let ev = v.pipe_drop_end(p, true);
        assert_eq!(ev, vec![WakeEvent::PipeHangup(p)]);
        // Buffered data still readable, then EOF.
        assert_eq!(
            v.pipe_read(p, 4, 2.0).unwrap(),
            PipeRead::Data(b"z".to_vec())
        );
        assert_eq!(v.pipe_read(p, 4, 2.0).unwrap(), PipeRead::Eof);
        // Dropping the read end frees the slot for reuse.
        assert_eq!(v.pipe_drop_end(p, false), vec![WakeEvent::PipeDrained(p)]);
        let q = v.create_pipe();
        assert_eq!(q, p);
    }

    #[test]
    fn write_to_readerless_pipe_fails() {
        let mut v = Vfs::new();
        let p = v.create_pipe();
        v.pipe_drop_end(p, false);
        assert_eq!(
            v.pipe_write(p, b"x".to_vec(), 0.0).unwrap_err(),
            Errno::BadFd
        );
    }

    #[test]
    fn pipe_write_backpressure() {
        let mut v = Vfs::new();
        let p = v.create_pipe_with_capacity(8);
        assert_eq!(v.pipe_write(p, b"abcde".to_vec(), 1.0).unwrap(), 5);
        assert_eq!(v.pipe_buffered(p), 5);
        // All-or-nothing: 4 more bytes do not fit in the 3 remaining.
        assert_eq!(
            v.pipe_write(p, b"wxyz".to_vec(), 1.0).unwrap_err(),
            Errno::Again
        );
        assert_eq!(v.pipe_write(p, b"fgh".to_vec(), 1.0).unwrap(), 3);
        assert_eq!(
            v.pipe_write(p, b"!".to_vec(), 1.0).unwrap_err(),
            Errno::Again
        );
        // A read drains space and the refused write fits on retry.
        assert_eq!(
            v.pipe_read(p, 4, 2.0).unwrap(),
            PipeRead::Data(b"abcd".to_vec())
        );
        assert_eq!(v.pipe_buffered(p), 4);
        assert_eq!(v.pipe_write(p, b"wxyz".to_vec(), 2.0).unwrap(), 4);
        // A write larger than the whole buffer can never succeed.
        assert_eq!(
            v.pipe_write(p, b"123456789".to_vec(), 2.0).unwrap_err(),
            Errno::Inval
        );
    }

    #[test]
    fn default_capacity_is_posix_sized() {
        let mut v = Vfs::new();
        let p = v.create_pipe();
        let big = vec![7u8; PIPE_CAPACITY];
        assert_eq!(v.pipe_write(p, big, 0.0).unwrap(), PIPE_CAPACITY as u64);
        assert_eq!(
            v.pipe_write(p, b"x".to_vec(), 0.0).unwrap_err(),
            Errno::Again
        );
    }

    #[test]
    fn ring_registry_round_trip() {
        let mut v = Vfs::new();
        let (id, created) = v.ring_register("req0", 8, 32).unwrap();
        assert!(created);
        assert_eq!(v.ring_lookup("req0"), Some(id));
        let (again, created) = v.ring_register("req0", 8, 32).unwrap();
        assert_eq!(again, id);
        assert!(!created);
        // Geometry mismatch on reopen is refused.
        assert_eq!(v.ring_register("req0", 16, 32).unwrap_err(), Errno::Inval);
        assert_eq!(v.ring_register("z", 0, 32).unwrap_err(), Errno::Inval);

        v.ring_add_end(id, true);
        v.ring_add_end(id, true);
        v.ring_add_end(id, false);
        assert_eq!(v.ring_meta(id).unwrap().prod_ends, 2);
        assert_eq!(v.ring_drop_end(id, true), vec![]);
        assert_eq!(v.ring_drop_end(id, true), vec![WakeEvent::RingPushed(id)]);
        assert_eq!(v.ring_drop_end(id, false), vec![WakeEvent::RingPopped(id)]);
        // The named entry persists for reopening.
        assert_eq!(v.ring_lookup("req0"), Some(id));
    }

    #[test]
    fn ring_digests_are_order_sensitive() {
        let mut a = 0xcbf2_9ce4_8422_2325u64;
        let mut b = 0xcbf2_9ce4_8422_2325u64;
        RingMeta::mix(&mut a, 0, b"one");
        RingMeta::mix(&mut a, 1, b"two");
        RingMeta::mix(&mut b, 0, b"two");
        RingMeta::mix(&mut b, 1, b"one");
        assert_ne!(a, b);
    }

    #[test]
    fn conn_request_cycle() {
        let mut v = Vfs::new();
        let t = ConnTemplate {
            requests_per_conn: 2,
            req_bytes: 100,
            think_ns: 50.0,
        };
        let l = v.create_listener(t, 1);
        let c = v.accept(l, 10.0).unwrap().unwrap();
        assert_eq!(v.accept(l, 10.0).unwrap(), None); // exhausted
        assert_eq!(v.conn_read(c, 10.0).unwrap(), ConnRead::Ready(100));
        // Double read before response is a protocol error.
        assert_eq!(v.conn_read(c, 10.0).unwrap_err(), Errno::Inval);
        v.conn_write(c, 20.0).unwrap();
        // Next request arrives after the think gap.
        assert_eq!(v.conn_read(c, 21.0).unwrap(), ConnRead::NotUntil(70.0));
        assert_eq!(v.conn_read(c, 70.0).unwrap(), ConnRead::Ready(100));
        v.conn_write(c, 75.0).unwrap();
        assert_eq!(v.conn_read(c, 200.0).unwrap(), ConnRead::Eof);
        assert_eq!(v.conn_served(c), 2);
        assert_eq!(v.total_served, 2);
    }
}
