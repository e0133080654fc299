//! The discrete-event machine: scheduler, processes, threads, and the
//! servicing of blocking calls.
//!
//! A program's system calls live in `syscall.rs`: the `Env` a thread
//! steps in and the I/O operations it shares with the blocking calls
//! serviced here (pipe, file and connection reads, pipe writes, ring
//! push and pop, accept).
//!
//! Processes contain one or more **threads** (paper §3.4: "each μprocess
//! may have many threads"); threads share the process's memory, file
//! descriptors, and register file, and are scheduled independently.
//! `fork` duplicates only the calling thread, as POSIX specifies.
//!
//! One step loop ([`Machine::step`]) runs everything: threads, the
//! background copy engines of pipelined forks and the background reclaim
//! daemon are all picked by one `(time, class, order)` key, popped from a
//! run queue that scales to thousands of live μprocesses. Parked threads
//! are indexed by the pipe or ring they wait on, so a wakeup touches only
//! that channel's waiters.
//!
//! Debug builds check both against the linear reference: every pick must
//! equal the minimum key over every task, and no delivered event may
//! leave a thread parked that it should have woken. A divergence panics
//! at the step where it happens.

use std::collections::{BTreeMap, BTreeSet};

use ufork_abi::{
    BlockingCall, Errno, Fd, ForkResult, ImageSpec, Pid, Program, Resume, StepOutcome, SysResult,
};
use ufork_sim::OpCounters;

use crate::ctx::Ctx;
use crate::memos::{charge_syscall, MemOs};
use crate::sched::{BlockedOn, Cores, QEntry, RunQueue, Task, TimeKey};
use crate::syscall::{Io, StepEnv};
use crate::vfs::{ConnTemplate, FdKind, FdTable, Vfs, WakeEvent};

/// Machine-wide configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of simulated cores.
    pub cores: usize,
    /// Cores newly forked children may run on (`None` = inherit the
    /// parent's affinity). The FaaS experiment pins the coordinator to
    /// core 0 and fans children out to the remaining cores (paper §5.1).
    pub child_affinity: Option<Vec<usize>>,
    /// Stop scheduling steps that would start at or after this simulated
    /// time (ns).
    pub time_limit: Option<f64>,
    /// Enable the OOM last resort: when a fork still fails with `NoMem`
    /// after the backend's own degrade ladder and reclaim retries, the
    /// machine deterministically kills victim μprocesses (largest
    /// resident set, then deepest fork ancestry, then youngest pid) and
    /// retries the fork — a storm degrades to fewer children instead of
    /// failing forks. Off by default: existing schedules stay
    /// bit-identical, and workloads that want `ENOMEM` surfaced keep it.
    pub oom_kill: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cores: 1,
            child_affinity: None,
            time_limit: None,
            oom_kill: false,
        }
    }
}

/// A completed fork, with its measured latency.
#[derive(Clone, Copy, Debug)]
pub struct ForkEvent {
    /// Forking process.
    pub parent: Pid,
    /// New process.
    pub child: Pid,
    /// Simulated time at which the fork call completed.
    pub at: f64,
    /// Latency of the fork call itself (ns).
    pub latency_ns: f64,
}

/// A pipelined fork's background-copy window, closed.
#[derive(Clone, Copy, Debug)]
pub struct PipelineEvent {
    /// The child whose memory was streamed in behind the fork.
    pub child: Pid,
    /// When the fork committed (the child was already runnable).
    pub committed_at: f64,
    /// When the last background page landed: `done_at - committed_at`
    /// is the fork's time-to-copy-complete.
    pub done_at: f64,
    /// Pages the window covered at commit time.
    pub pages: u64,
}

/// Consecutive failed firings after which a background task retires: a
/// copy engine leaves its window to demand faults, and the reclaim
/// daemon waits for the next memory-state change to re-arm.
const MAX_BG_FAILS: u32 = 8;

/// Scheduling state of a background task (a copy engine or the reclaim
/// daemon): when it fires next, and how many firings in a row failed.
#[derive(Clone, Copy, Debug)]
struct BgClock {
    next_at: f64,
    fails: u32,
}

impl BgClock {
    fn new(next_at: f64) -> BgClock {
        BgClock { next_at, fails: 0 }
    }
}

/// The background copy engine of one committed pipelined fork: a
/// machine-level μtask that streams the child's deferred pages in, one
/// chunk per firing. Its next firing is an ordinary run-queue entry, so
/// copy progress interleaves deterministically with thread execution —
/// and a child fault can still jump the queue in between firings (the
/// engine just finds fewer chunks left).
#[derive(Clone, Copy, Debug)]
struct CopyEngine {
    clock: BgClock,
    /// When the fork committed (for time-to-copy-complete).
    committed_at: f64,
    /// Window size at commit, in pages.
    pages: u64,
}

/// One OOM kill performed by the fork path's last resort
/// (`MachineConfig::oom_kill`).
#[derive(Clone, Copy, Debug)]
pub struct OomEvent {
    /// The process killed.
    pub victim: Pid,
    /// The process whose failing fork triggered the kill.
    pub requester: Pid,
    /// Simulated kill time.
    pub at: f64,
    /// Resident pages the victim held when selected (the dominant
    /// badness input).
    pub resident_pages: u64,
}

/// A process exit.
#[derive(Clone, Copy, Debug)]
pub struct ExitEvent {
    /// Exiting process.
    pub pid: Pid,
    /// Simulated exit time.
    pub at: f64,
    /// Exit code.
    pub code: i32,
}

/// The main thread's id in every process.
pub const MAIN_TID: u32 = 0;

#[derive(Debug, PartialEq)]
enum ThreadState {
    /// Runnable no earlier than `at`.
    Ready { at: f64 },
    /// Blocked with no known wake time, on this channel; woken by
    /// events.
    Blocked(BlockedOn),
    /// Finished.
    Dead,
}

struct Thread {
    program: Option<Box<dyn Program>>,
    state: ThreadState,
    resume_with: Resume,
    /// A blocking call to (re)try when next scheduled.
    pending: Option<BlockingCall>,
    /// Ready-generation: bumped on every transition into (or re-keying
    /// of) the ready state. A run-queue entry is live iff its `gen`
    /// matches — the lazy-deletion validity check.
    gen: u64,
    /// Exit code + time, for `JoinThread`.
    exited: Option<(i32, f64)>,
}

impl Thread {
    fn new(program: Box<dyn Program>, resume_with: Resume, at: f64) -> Thread {
        Thread {
            program: Some(program),
            state: ThreadState::Ready { at },
            resume_with,
            pending: None,
            gen: 0,
            exited: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcLife {
    Alive,
    /// Exited; retained for `wait`.
    Zombie,
    /// Fully reaped.
    Dead,
}

struct Proc {
    parent: Option<Pid>,
    life: ProcLife,
    threads: BTreeMap<u32, Thread>,
    next_tid: u32,
    fds: FdTable,
    children: BTreeSet<Pid>,
    /// Exited children awaiting `wait`, keyed by (exit time, arrival
    /// order): the first entry is always the earliest-exiting zombie, so
    /// reaping is O(log z) instead of a scan — a 10k-storm parent reaps
    /// 10k times.
    zombies: BTreeMap<(TimeKey, u64), (Pid, i32, f64)>,
    zombie_seq: u64,
    affinity: Option<Vec<usize>>,
    exit_code: Option<i32>,
}

impl Proc {
    fn main_thread(
        program: Box<dyn Program>,
        parent: Option<Pid>,
        fds: FdTable,
        at: f64,
        resume_with: Resume,
        affinity: Option<Vec<usize>>,
    ) -> Proc {
        let mut threads = BTreeMap::new();
        threads.insert(MAIN_TID, Thread::new(program, resume_with, at));
        Proc {
            parent,
            life: ProcLife::Alive,
            threads,
            next_tid: MAIN_TID + 1,
            fds,
            children: BTreeSet::new(),
            zombies: BTreeMap::new(),
            zombie_seq: 0,
            affinity,
            exit_code: None,
        }
    }
}

/// The simulated machine: one [`MemOs`] backend plus the shared executive.
pub struct Machine<O: MemOs> {
    /// The OS memory/process backend under test.
    pub os: O,
    vfs: Vfs,
    procs: BTreeMap<Pid, Proc>,
    cores: Cores,
    /// Busy intervals of the big kernel lock (start, end), kept pruned.
    lock_busy: Vec<(f64, f64)>,
    next_pid: u32,
    counters: OpCounters,
    config: MachineConfig,
    fork_log: Vec<ForkEvent>,
    exit_log: Vec<ExitEvent>,
    pipeline_log: Vec<PipelineEvent>,
    /// Live background copy engines, one per pipelined-fork child with
    /// an open window.
    copy_engines: BTreeMap<Pid, CopyEngine>,
    /// The background reclaim daemon: a machine-level kernel μtask,
    /// armed while the backend has pending reclaim work
    /// ([`MemOs::reclaim_pending`]) and fired like the copy engines. Each
    /// firing scrubs one bounded batch of recycled frames into the
    /// clean-frame magazine on background simulated time, keeping the
    /// zeroing cost off the fork/fault hot path.
    reclaim_engine: Option<BgClock>,
    oom_log: Vec<OomEvent>,
    runq: RunQueue,
    /// Threads parked on each pipe or ring: readers on an empty pipe and
    /// writers on a full one, consumers on an empty ring and producers on
    /// a full one. A wakeup touches only the affected channel's waiters,
    /// not every thread.
    waiters: BTreeMap<BlockedOn, Vec<(Pid, u32)>>,
    /// The ring slot image every push and pop moves its message through,
    /// lent to each step's environment so no message allocates.
    ring_slot: Vec<u8>,
}

impl<O: MemOs> Machine<O> {
    /// Creates a machine over the given backend.
    pub fn new(os: O, config: MachineConfig) -> Machine<O> {
        Machine {
            os,
            vfs: Vfs::new(),
            procs: BTreeMap::new(),
            cores: Cores::new(config.cores),
            lock_busy: Vec::new(),
            next_pid: 1,
            counters: OpCounters::default(),
            config,
            fork_log: Vec::new(),
            exit_log: Vec::new(),
            pipeline_log: Vec::new(),
            copy_engines: BTreeMap::new(),
            reclaim_engine: None,
            oom_log: Vec::new(),
            runq: RunQueue::default(),
            waiters: BTreeMap::new(),
            ring_slot: Vec::new(),
        }
    }

    // ---- setup -----------------------------------------------------------

    /// Spawns an initial process from an image and program.
    pub fn spawn(&mut self, image: &ImageSpec, program: Box<dyn Program>) -> SysResult<Pid> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut ctx = Ctx::new();
        self.os.spawn(&mut ctx, pid, image)?;
        self.counters.merge(&ctx.counters);
        self.procs.insert(
            pid,
            Proc::main_thread(program, None, FdTable::new(), 0.0, Resume::Start, None),
        );
        self.make_ready(pid, MAIN_TID, 0.0);
        self.maybe_arm_reclaim(0.0);
        Ok(pid)
    }

    /// Pins a process (all its threads) to a set of cores.
    pub fn set_affinity(&mut self, pid: Pid, cores: Vec<usize>) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.affinity = Some(cores);
        }
    }

    /// Installs a listening descriptor fed by a synthetic traffic source.
    pub fn install_listener(
        &mut self,
        pid: Pid,
        template: ConnTemplate,
        conns: u64,
    ) -> SysResult<Fd> {
        let id = self.vfs.create_listener(template, conns);
        let p = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        Ok(p.fds.insert(FdKind::Listener(id)))
    }

    // ---- inspection --------------------------------------------------------

    /// The VFS (harness-side verification of files, served counts, …).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Completed forks.
    pub fn fork_log(&self) -> &[ForkEvent] {
        &self.fork_log
    }

    /// Process exits.
    pub fn exit_log(&self) -> &[ExitEvent] {
        &self.exit_log
    }

    /// Closed background-copy windows of pipelined forks, in close
    /// order: each records commit time, copy-complete time, and size.
    pub fn pipeline_log(&self) -> &[PipelineEvent] {
        &self.pipeline_log
    }

    /// OOM kills performed by the fork path's last resort, in kill order.
    pub fn oom_log(&self) -> &[OomEvent] {
        &self.oom_log
    }

    /// Merged operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Latest simulated time across cores.
    pub fn now(&self) -> f64 {
        self.cores.max_now()
    }

    /// Exit code of a finished process.
    pub fn exit_code(&self, pid: Pid) -> Option<i32> {
        self.procs.get(&pid).and_then(|p| p.exit_code)
    }

    /// Downcasts the main thread's program state for result extraction.
    pub fn program<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.thread_program(pid, MAIN_TID)
    }

    /// Downcasts a specific thread's program state.
    pub fn thread_program<T: 'static>(&self, pid: Pid, tid: u32) -> Option<&T> {
        self.procs
            .get(&pid)
            .and_then(|p| p.threads.get(&tid))
            .and_then(|t| t.program.as_ref())
            .and_then(|b| b.as_any().downcast_ref::<T>())
    }

    /// True if the process has fully exited.
    pub fn is_finished(&self, pid: Pid) -> bool {
        self.procs
            .get(&pid)
            .is_none_or(|p| p.life != ProcLife::Alive)
    }

    /// What a thread is blocked on, if it is indefinitely parked. A
    /// ready, timed-out or dead thread reports `None`, whatever it last
    /// waited on.
    pub fn blocked_on(&self, pid: Pid, tid: u32) -> Option<BlockedOn> {
        match self.procs.get(&pid)?.threads.get(&tid)?.state {
            ThreadState::Blocked(on) => Some(on),
            _ => None,
        }
    }

    // ---- the scheduler loop ---------------------------------------------

    /// Runs until nothing is runnable or the time limit is reached.
    pub fn run(&mut self) {
        loop {
            if !self.step() {
                break;
            }
        }
    }

    /// Executes one scheduling step. Returns false when idle/finished.
    ///
    /// Threads, copy engines and the reclaim daemon compete under one
    /// `(time, class, order)` key: the step takes the minimum and runs
    /// it, and that ordering is all the arbitration there is. A pick at
    /// or past the time limit is not consumed, so a later step still
    /// finds it.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.pick() else {
            return false;
        };
        let at = entry.time.as_ns();
        if self.config.time_limit.is_some_and(|limit| at >= limit) {
            self.runq.push(entry);
            return false;
        }
        match entry.task {
            Task::Copy(pid) => self.pump_copy_engine(pid, at),
            Task::Reclaim => self.pump_reclaim(at),
            Task::Thread { pid, tid, .. } => {
                if !self.dispatch(pid, tid, at) {
                    self.runq.push(entry);
                    return false;
                }
            }
        }
        true
    }

    /// The live task with the minimum key: the run queue's first entry
    /// that is not stale. Debug builds check it against the reference
    /// scan, also when the queue runs dry, where a lost entry would
    /// otherwise end the run early without an error.
    fn pick(&mut self) -> Option<QEntry> {
        let picked = loop {
            let Some(entry) = self.runq.pop() else {
                break None;
            };
            if self.current_entry(entry.task) == Some(entry) {
                break Some(entry);
            }
            // Stale: superseded since it was pushed.
        };
        debug_assert_eq!(
            picked,
            self.reference_pick(),
            "the run queue lost or misordered a task"
        );
        picked
    }

    /// The minimum current entry over every thread, copy engine and the
    /// reclaim daemon, by linear scan: what the run queue must pop.
    fn reference_pick(&self) -> Option<QEntry> {
        let threads = self
            .procs
            .iter()
            .filter(|(_, p)| p.life == ProcLife::Alive)
            .flat_map(|(pid, p)| {
                p.threads.iter().map(|(tid, t)| Task::Thread {
                    pid: *pid,
                    tid: *tid,
                    gen: t.gen,
                })
            });
        let copies = self.copy_engines.keys().map(|pid| Task::Copy(*pid));
        let reclaim = self.reclaim_engine.map(|_| Task::Reclaim);
        threads
            .chain(copies)
            .chain(reclaim)
            .filter_map(|task| self.current_entry(task))
            .min()
    }

    /// `task`'s entry as of now, or `None` when it cannot run: a queued
    /// entry is live iff it still equals this.
    fn current_entry(&self, task: Task) -> Option<QEntry> {
        let at = match task {
            Task::Copy(pid) => self.copy_engines.get(&pid)?.clock.next_at,
            Task::Reclaim => self.reclaim_engine?.next_at,
            Task::Thread { pid, tid, gen } => {
                let p = self.procs.get(&pid)?;
                let t = p.threads.get(&tid)?;
                match t.state {
                    ThreadState::Ready { at } if p.life == ProcLife::Alive && t.gen == gen => at,
                    _ => return None,
                }
            }
        };
        Some(QEntry::new(at, task))
    }

    /// The scheduling clock of background task `task` (`None` for
    /// threads and retired tasks).
    fn bg_clock(&mut self, task: Task) -> Option<&mut BgClock> {
        match task {
            Task::Copy(pid) => self.copy_engines.get_mut(&pid).map(|e| &mut e.clock),
            Task::Reclaim => self.reclaim_engine.as_mut(),
            Task::Thread { .. } => None,
        }
    }

    /// Re-queues background task `task` after a successful firing: it
    /// fires next at `next_at`, with its failure streak reset.
    fn refire(&mut self, task: Task, next_at: f64) {
        if let Some(clock) = self.bg_clock(task) {
            *clock = BgClock::new(next_at);
            self.runq.push(QEntry::new(next_at, task));
        }
    }

    /// A failed firing of background task `task` at `at`, its work
    /// rolled back after charging `ctx`: the task backs off and re-fires,
    /// and retires after more than [`MAX_BG_FAILS`] failures in a row.
    fn back_off(&mut self, task: Task, at: f64, ctx: &Ctx) {
        self.counters.merge(&ctx.counters);
        let retry_at = at + ctx.total() + self.os.cost().reclaim_backoff;
        let Some(clock) = self.bg_clock(task) else {
            return;
        };
        clock.fails += 1;
        clock.next_at = retry_at;
        if clock.fails <= MAX_BG_FAILS {
            self.runq.push(QEntry::new(retry_at, task));
        } else if let Task::Copy(pid) = task {
            self.copy_engines.remove(&pid);
        } else {
            self.reclaim_engine = None;
        }
    }

    /// Fires `pid`'s copy engine once at simulated time `at`: one chunk
    /// streams in, and the next firing lands after the chunk's cost. The
    /// engine advances its own stream clock rather than occupying a core
    /// — it models the asynchronous kernel copy stream behind a
    /// committed fork, whose pages a child fault can also claim
    /// on-demand between firings.
    fn pump_copy_engine(&mut self, pid: Pid, at: f64) {
        let mut ctx = Ctx::new();
        match self.os.pipeline_step(&mut ctx, pid) {
            Ok(true) => {
                let dur = ctx.total();
                self.counters.merge(&ctx.counters);
                if self.os.pipeline_pending(pid) == 0 {
                    let e = self
                        .copy_engines
                        .remove(&pid)
                        .expect("pumped engine exists");
                    self.pipeline_log.push(PipelineEvent {
                        child: pid,
                        committed_at: e.committed_at,
                        done_at: at + dur,
                        pages: e.pages,
                    });
                } else {
                    self.refire(Task::Copy(pid), at + dur);
                }
            }
            Ok(false) => {
                // Drained out of band. If the child is alive, demand
                // jumps finished the window — the last chunk landed on
                // the faulting child's own step, so the engine's next
                // firing is the first instant completion is observable.
                // A dead child's window just closes unlogged.
                let e = self
                    .copy_engines
                    .remove(&pid)
                    .expect("pumped engine exists");
                let alive = self
                    .procs
                    .get(&pid)
                    .is_some_and(|p| p.life == ProcLife::Alive);
                if alive {
                    self.pipeline_log.push(PipelineEvent {
                        child: pid,
                        committed_at: e.committed_at,
                        done_at: at,
                        pages: e.pages,
                    });
                }
            }
            // Chunk retries exhausted (sustained memory pressure): back
            // off and re-fire — exits may free frames, and demand faults
            // keep latency-critical pages covered meanwhile. A retired
            // engine leaves the window to the demand path entirely.
            Err(_) => self.back_off(Task::Copy(pid), at, &ctx),
        }
        // A streamed chunk allocates frames, which can push the
        // allocator over a pressure watermark: give the daemon a chance
        // to engage at this deterministic instant.
        let t = at + ctx.total();
        self.maybe_arm_reclaim(t);
    }

    /// Arms the background reclaim daemon at simulated time `at` if the
    /// backend reports pending work and the daemon is not already armed.
    /// Called at every point the memory state can change (end of a
    /// dispatched step, after a background-copy chunk, after spawn), so
    /// it arms at a deterministic instant.
    fn maybe_arm_reclaim(&mut self, at: f64) {
        if self.reclaim_engine.is_none() && self.os.reclaim_pending() {
            self.reclaim_engine = Some(BgClock::new(at));
            self.runq.push(QEntry::new(at, Task::Reclaim));
        }
    }

    /// Fires the background reclaim daemon once at simulated time `at`:
    /// one bounded batch of frames is scrubbed into the clean-frame
    /// magazines, and the next pass lands after the batch's cost. Like
    /// the copy engines the daemon advances its own clock rather than
    /// occupying a core — it models an asynchronous kernel scrubber
    /// thread running in scheduler slack.
    fn pump_reclaim(&mut self, at: f64) {
        let mut ctx = Ctx::new();
        match self.os.reclaim_step(&mut ctx) {
            Ok(n) => {
                let dur = ctx.total();
                self.counters.merge(&ctx.counters);
                if n == 0 || !self.os.reclaim_pending() {
                    // Queues drained or pressure back to normal: disarm.
                    // The next memory-state change re-arms the daemon.
                    self.reclaim_engine = None;
                } else {
                    self.refire(Task::Reclaim, at + dur);
                }
            }
            // An aborted pass rolled itself back (nothing scrubbed,
            // nothing leaked): back off and re-fire. A retired daemon
            // leaves correctness to inline reclaim on the fork/fault
            // paths.
            Err(_) => self.back_off(Task::Reclaim, at, &ctx),
        }
    }

    /// Runs the selected thread: core choice, pending-call retry, program
    /// resume, outcome handling. Returns false, having run nothing, when
    /// no allowed core can start the thread before the time limit.
    fn dispatch(&mut self, pid: Pid, tid: u32, ready_at: f64) -> bool {
        // Pick the allowed core with the earliest time.
        let affinity = self.procs[&pid].affinity.clone();
        let core_idx = (0..self.cores.len())
            .filter(|i| affinity.as_ref().is_none_or(|a| a.contains(i)))
            .min_by(|a, b| self.cores.now(*a).total_cmp(&self.cores.now(*b)))
            .expect("affinity excludes every core");
        let start = self.cores.now(core_idx).max(ready_at);
        if self.config.time_limit.is_some_and(|limit| start >= limit) {
            return false;
        }

        let mut ctx = Ctx::new();
        // Context switch when the core last ran a different thread.
        if let Some(last) = self.cores.last(core_idx) {
            if last != (pid, tid) {
                ctx.kernel(self.os.ctx_switch_cost(last.0, pid));
                ctx.counters.ctx_switches += 1;
            }
        }

        // Retry any pending blocking call first. A retried call can
        // complete I/O (a woken writer fills a pipe, a woken consumer
        // frees ring slots), so its wake events must be delivered even
        // on the early returns, or the threads they satisfy stay parked.
        let mut events = Vec::new();
        let thread = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.threads.get_mut(&tid))
            .expect("picked thread exists");
        let mut resume_with = thread.resume_with;
        if let Some(call) = thread.pending.take() {
            let outcome = self.service_blocking(pid, tid, call, start, &mut ctx, &mut events);
            let Some(r) = self.settle(pid, tid, outcome) else {
                let end = self.finish_step(core_idx, pid, tid, start, ctx);
                self.deliver_events(events, end);
                self.maybe_arm_reclaim(end);
                return true;
            };
            resume_with = Resume::Ret(r);
        }

        // Run the program.
        let mut program = self
            .thread_mut(pid, tid)
            .program
            .take()
            .expect("ready thread has a program");
        let outcome = program.resume(
            &mut self.env(pid, start, &mut ctx, &mut events),
            resume_with,
        );
        self.thread_mut(pid, tid).program = Some(program);

        // Handle the outcome.
        match outcome {
            StepOutcome::Exit(code) => {
                let end_hint = start + ctx.total();
                if tid == MAIN_TID {
                    self.handle_exit(pid, code, end_hint, &mut ctx);
                } else {
                    self.handle_thread_exit(pid, tid, code, end_hint);
                }
            }
            StepOutcome::Fork => {
                self.handle_fork(pid, tid, start, &mut ctx);
            }
            StepOutcome::Exec { image, program } => {
                // execve: tear down the old image, load the new one. File
                // descriptors and parent/children links are preserved; all
                // other threads die (POSIX execve semantics).
                ctx.kernel(self.os.cost().exec_fixed);
                ctx.counters.syscalls += 1;
                ctx.counters.execs += 1;
                self.os.destroy(&mut ctx, pid);
                match self.os.spawn(&mut ctx, pid, &image) {
                    Ok(()) => {
                        let end = start + ctx.total();
                        let p = self.procs.get_mut(&pid).unwrap();
                        p.threads.clear();
                        p.threads
                            .insert(MAIN_TID, Thread::new(program.0, Resume::Start, end));
                        p.next_tid = MAIN_TID + 1;
                        if tid != MAIN_TID {
                            // exec from a secondary thread: the fresh main
                            // thread is not the thread finish_step
                            // re-enqueues, so enqueue it here.
                            self.make_ready(pid, MAIN_TID, end);
                        }
                    }
                    Err(_) => {
                        // Past the point of no return: the process dies.
                        let end = start + ctx.total();
                        self.handle_exit(pid, 127, end, &mut ctx);
                    }
                }
            }
            StepOutcome::Block(call) => {
                let now = start + ctx.total();
                let outcome = self.service_blocking(pid, tid, call, now, &mut ctx, &mut events);
                if let Some(r) = self.settle(pid, tid, outcome) {
                    let t = self.thread_mut(pid, tid);
                    t.resume_with = Resume::Ret(r);
                    t.state = ThreadState::Ready { at: now };
                }
            }
        }

        let end = self.finish_step(core_idx, pid, tid, start, ctx);
        self.deliver_events(events, end);
        self.maybe_arm_reclaim(end);
        true
    }

    /// The environment thread `pid` steps in, starting at `start`.
    fn env<'a>(
        &'a mut self,
        pid: Pid,
        start: f64,
        ctx: &'a mut Ctx,
        events: &'a mut Vec<WakeEvent>,
    ) -> StepEnv<'a, O> {
        StepEnv {
            os: &mut self.os,
            vfs: &mut self.vfs,
            fds: &mut self.procs.get_mut(&pid).expect("caller exists").fds,
            pid,
            start,
            ctx,
            events,
            slot: &mut self.ring_slot,
        }
    }

    fn thread_mut(&mut self, pid: Pid, tid: u32) -> &mut Thread {
        self.procs
            .get_mut(&pid)
            .and_then(|p| p.threads.get_mut(&tid))
            .expect("thread exists")
    }

    /// Transitions a thread into `Ready { at }` and enqueues it.
    ///
    /// Every transition into the ready state MUST go through here or
    /// through [`Machine::finish_step`] (which re-enqueues the thread
    /// that just ran): the run queue uses lazy deletion, so a ready
    /// thread without a live queue entry would never be scheduled. Debug
    /// builds catch such a thread at the next pick.
    fn make_ready(&mut self, pid: Pid, tid: u32, at: f64) {
        let Some(t) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.threads.get_mut(&tid))
        else {
            return;
        };
        t.state = ThreadState::Ready { at };
        t.gen += 1;
        let gen = t.gen;
        self.runq
            .push(QEntry::new(at, Task::Thread { pid, tid, gen }));
    }

    /// Settles a serviced blocking call of the running thread: returns a
    /// completed call's result, or parks the thread — until an event on
    /// the channel the call waits for (pipe and ring waiters are indexed
    /// by channel, so wakeup delivery is O(woken), not O(threads)), or
    /// until a timed retry.
    fn settle(&mut self, pid: Pid, tid: u32, outcome: ServiceOutcome) -> Option<SysResult<u64>> {
        let (call, state) = match outcome {
            ServiceOutcome::Done(r) => return Some(r),
            ServiceOutcome::BlockIndefinite(call, on) => {
                if matches!(on, BlockedOn::Pipe(_) | BlockedOn::Ring(_)) {
                    self.waiters.entry(on).or_default().push((pid, tid));
                }
                (call, ThreadState::Blocked(on))
            }
            ServiceOutcome::RetryAt(call, at) => (call, ThreadState::Ready { at }),
        };
        let t = self.thread_mut(pid, tid);
        t.pending = Some(call);
        t.state = state;
        None
    }

    /// Reserves the big kernel lock for `dur` ns no earlier than
    /// `want_start`, returning the actual acquisition time (first gap in
    /// the busy schedule — kernel windows of concurrent steps must not
    /// overlap, but a window entirely in the past or future of another
    /// does not conflict with it).
    fn lock_acquire(&mut self, want_start: f64, dur: f64) -> f64 {
        let min_now = self.cores.min_now();
        self.lock_busy.retain(|&(_, e)| e > min_now - 1.0);
        self.lock_busy.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut t = want_start;
        for &(s, e) in &self.lock_busy {
            if t + dur <= s {
                break; // fits in the gap before this interval
            }
            if t < e {
                t = e; // overlaps: start after it
            }
        }
        self.lock_busy.push((t, t + dur));
        t
    }

    /// Applies step time to the core (with big-kernel-lock serialization)
    /// and merges counters; re-enqueues the thread that just ran if it is
    /// still runnable. Returns the step's end time.
    fn finish_step(&mut self, core_idx: usize, pid: Pid, tid: u32, start: f64, ctx: Ctx) -> f64 {
        let end = if self.os.big_kernel_lock() && self.cores.len() > 1 && ctx.kernel_ns > 0.0 {
            let kstart = self.lock_acquire(start + ctx.user_ns, ctx.kernel_ns);
            kstart + ctx.kernel_ns
        } else {
            start + ctx.total()
        };
        self.cores.advance_to(core_idx, end);
        self.cores.note_ran(core_idx, pid, tid);
        self.counters.merge(&ctx.counters);
        // The thread that just ran can never resume before this step
        // ends. Its queue entry (if any) predates outcome handling, so
        // push a superseding one.
        if let Some(t) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.threads.get_mut(&tid))
        {
            if let ThreadState::Ready { at } = &mut t.state {
                if *at < end {
                    *at = end;
                }
                t.gen += 1;
                let gen = t.gen;
                self.runq
                    .push(QEntry::new(*at, Task::Thread { pid, tid, gen }));
            }
        }
        end
    }

    /// Services a blocking call by thread (`pid`, `tid`) at simulated time
    /// `now`. Side effects that may unblock *other* threads (draining a
    /// pipe, pushing to a ring) are appended to `events`; the caller
    /// delivers them after the step completes.
    fn service_blocking(
        &mut self,
        pid: Pid,
        tid: u32,
        call: BlockingCall,
        now: f64,
        ctx: &mut Ctx,
        events: &mut Vec<WakeEvent>,
    ) -> ServiceOutcome {
        match call {
            BlockingCall::Yield => {
                charge_syscall(&self.os, ctx, 0);
                ServiceOutcome::Done(Ok(0))
            }
            BlockingCall::Sleep { ns } => ServiceOutcome::RetryAt(BlockingCall::Yield, now + ns),
            BlockingCall::SpawnThread { program } => {
                charge_syscall(&self.os, ctx, 0);
                ctx.kernel(self.os.cost().proc_exit); // thread-create ≈ teardown cost class
                let new_tid = {
                    let p = self.procs.get_mut(&pid).expect("caller exists");
                    let new_tid = p.next_tid;
                    p.next_tid += 1;
                    p.threads
                        .insert(new_tid, Thread::new(program.0, Resume::Start, now));
                    new_tid
                };
                self.make_ready(pid, new_tid, now);
                ServiceOutcome::Done(Ok(u64::from(new_tid)))
            }
            BlockingCall::JoinThread { tid: target } => {
                charge_syscall(&self.os, ctx, 0);
                #[allow(clippy::cast_possible_truncation)]
                let target = target as u32;
                if target == tid {
                    return ServiceOutcome::Done(Err(Errno::Inval));
                }
                let Some(t) = self.procs.get(&pid).and_then(|p| p.threads.get(&target)) else {
                    return ServiceOutcome::Done(Err(Errno::Inval));
                };
                match t.exited {
                    Some((code, at)) if at <= now + 1e-9 => {
                        ServiceOutcome::Done(Ok(code as u32 as u64))
                    }
                    Some((_, at)) => ServiceOutcome::RetryAt(
                        BlockingCall::JoinThread {
                            tid: u64::from(target),
                        },
                        at,
                    ),
                    None => ServiceOutcome::BlockIndefinite(
                        BlockingCall::JoinThread {
                            tid: u64::from(target),
                        },
                        BlockedOn::Join(target),
                    ),
                }
            }
            BlockingCall::Wait => {
                charge_syscall(&self.os, ctx, 0);
                // Reap only children that have exited by simulated `now`:
                // a zombie created later in simulated time (by a step that
                // happened to execute earlier in host order) is not yet
                // visible. The zombie table is ordered by (exit time,
                // arrival order), so the first entry is the earliest
                // exit, ties going to the first to arrive.
                let p = self.procs.get_mut(&pid).expect("caller exists");
                let first = p.zombies.iter().next().map(|(k, v)| (*k, *v));
                if let Some((key, (child, code, z_at))) = first {
                    if z_at <= now + 1e-9 {
                        p.zombies.remove(&key);
                        p.children.remove(&child);
                        ctx.kernel(self.os.cost().proc_wait);
                        if let Some(cp) = self.procs.get_mut(&child) {
                            cp.life = ProcLife::Dead;
                        }
                        // POSIX-style status: low 32 bits the PID, high 32
                        // the child's exit code.
                        ServiceOutcome::Done(
                            Ok(u64::from(child.0) | (u64::from(code as u32) << 32)),
                        )
                    } else {
                        // A child has exited, but only at a later simulated
                        // time: wait until then.
                        ServiceOutcome::RetryAt(BlockingCall::Wait, z_at)
                    }
                } else if p.children.is_empty() {
                    ServiceOutcome::Done(Err(Errno::Child))
                } else {
                    ServiceOutcome::BlockIndefinite(BlockingCall::Wait, BlockedOn::Wait)
                }
            }
            // The rest is I/O on one of the caller's descriptors.
            call => match self.env(pid, now, ctx, events).blocking_io(&call, now) {
                Ok(Io::Done(n)) => ServiceOutcome::Done(Ok(n)),
                Ok(Io::Block(on)) => ServiceOutcome::BlockIndefinite(call, on),
                Ok(Io::NotUntil(t)) => ServiceOutcome::RetryAt(call, t),
                Err(e) => ServiceOutcome::Done(Err(e)),
            },
        }
    }

    fn handle_fork(&mut self, parent: Pid, tid: u32, start: f64, ctx: &mut Ctx) {
        charge_syscall(&self.os, ctx, 0);
        let k_before = ctx.kernel_ns;
        let child = Pid(self.next_pid);
        self.next_pid += 1;
        let mut r = self.os.fork(ctx, parent, child);
        if self.config.oom_kill {
            // The last resort: admission failed even after the backend's
            // degrade ladder and inline reclaim retries. Kill victims
            // (deterministic badness order) and retry until the fork
            // admits or no victim remains. Each iteration removes one
            // live process, so the loop is bounded by the process count.
            while matches!(r, Err(Errno::NoMem)) {
                let Some((victim, resident)) = self.select_oom_victim(parent) else {
                    break;
                };
                // The journaled memory teardown is charged to the forking
                // thread — the fork call is what stalls for the kill.
                if self.os.oom_reap(ctx, victim).is_err() {
                    break;
                }
                let kill_at = start + ctx.total();
                self.oom_log.push(OomEvent {
                    victim,
                    requester: parent,
                    at: kill_at,
                    resident_pages: resident,
                });
                // The executive half of the exit (threads, fds, zombie,
                // parent wakeup) reuses the ordinary exit machinery; its
                // `destroy` is a no-op since the reap already ran. Like a
                // delivered kill it runs on its own ctx, counters merged.
                let mut kill_ctx = Ctx::new();
                self.handle_exit(victim, 137, kill_at, &mut kill_ctx);
                self.counters.merge(&kill_ctx.counters);
                r = self.os.fork(ctx, parent, child);
            }
        }
        match r {
            Ok(()) => {}
            Err(e) => {
                let t = self.thread_mut(parent, tid);
                t.resume_with = Resume::Ret(Err(e));
                t.state = ThreadState::Ready {
                    at: start + ctx.total(),
                };
                // finish_step re-enqueues the running thread.
                return;
            }
        }
        ctx.counters.forks += 1;
        let latency = ctx.kernel_ns - k_before + self.os.syscall_entry_cost();

        // Duplicate the fd table, adding sharers on pipe and ring ends.
        // The child's ring *endpoint capabilities* ride in its registers
        // and were relocated (seal intact) by the fork walk above; here
        // the registry only gains the duplicated descriptors.
        let fds = self.procs[&parent].fds.clone();
        for (_, kind) in fds.iter() {
            match kind {
                FdKind::PipeRead(id) => self.vfs.pipe_add_end(*id, false),
                FdKind::PipeWrite(id) => self.vfs.pipe_add_end(*id, true),
                FdKind::RingProd(id) => {
                    self.vfs.ring_add_end(*id, true);
                    ctx.counters.ring_caps_relocated += 1;
                }
                FdKind::RingCons(id) => {
                    self.vfs.ring_add_end(*id, false);
                    ctx.counters.ring_caps_relocated += 1;
                }
                _ => {}
            }
        }

        // fork copies ONLY the calling thread (paper §3.4).
        let program = self.procs[&parent]
            .threads
            .get(&tid)
            .and_then(|t| t.program.as_ref())
            .expect("forking thread has a program")
            .clone_box();
        let affinity = match &self.config.child_affinity {
            Some(a) => Some(a.clone()),
            None => self.procs[&parent].affinity.clone(),
        };
        let end = start + ctx.total();
        self.procs.insert(
            child,
            Proc::main_thread(
                program,
                Some(parent),
                fds,
                end,
                Resume::Forked(ForkResult::Child),
                affinity,
            ),
        );
        self.make_ready(child, MAIN_TID, end);
        let p = self.procs.get_mut(&parent).unwrap();
        p.children.insert(child);
        let t = p.threads.get_mut(&tid).expect("forking thread");
        t.resume_with = Resume::Forked(ForkResult::Parent(child));
        t.state = ThreadState::Ready { at: end };
        self.fork_log.push(ForkEvent {
            parent,
            child,
            at: end,
            latency_ns: latency,
        });
        // A pipelined fork commits with pages still to copy: arm the
        // child's background copy engine at the commit instant.
        let pending = self.os.pipeline_pending(child);
        if pending > 0 {
            self.copy_engines.insert(
                child,
                CopyEngine {
                    clock: BgClock::new(end),
                    committed_at: end,
                    pages: pending,
                },
            );
            self.runq.push(QEntry::new(end, Task::Copy(child)));
        }
    }

    /// Picks the OOM victim: the live forked process (never a root
    /// process, never the requester) with the largest resident set,
    /// breaking ties by deepest fork ancestry, then youngest pid. Every
    /// input is deterministic — resident pages from the backend's page
    /// table, ancestry from the process tree, iteration in pid order —
    /// so a given seed always kills the same victims in the same order.
    /// Returns the victim and its resident-page count, or `None` when no
    /// process is eligible (the fork then fails with `NoMem` as before).
    fn select_oom_victim(&self, requester: Pid) -> Option<(Pid, u64)> {
        self.procs
            .iter()
            .filter(|(pid, p)| {
                **pid != requester && p.life == ProcLife::Alive && p.parent.is_some()
            })
            .map(|(pid, _)| {
                let resident = self.os.resident_pages(*pid);
                (resident, self.fork_depth(*pid), pid.0, *pid)
            })
            .max_by_key(|&(resident, depth, raw, _)| (resident, depth, raw))
            .map(|(resident, _, _, pid)| (pid, resident))
    }

    /// Fork-tree depth of `pid` (root processes are depth 0).
    fn fork_depth(&self, pid: Pid) -> u32 {
        let mut depth = 0u32;
        let mut cur = self.procs.get(&pid).and_then(|p| p.parent);
        while let Some(p) = cur {
            depth += 1;
            cur = self.procs.get(&p).and_then(|q| q.parent);
        }
        depth
    }

    /// A non-main thread exited: record it and wake joiners.
    fn handle_thread_exit(&mut self, pid: Pid, tid: u32, code: i32, at: f64) {
        let p = self.procs.get_mut(&pid).expect("process exists");
        if let Some(t) = p.threads.get_mut(&tid) {
            t.state = ThreadState::Dead;
            t.exited = Some((code, at));
        }
        // Wake siblings joined on this thread.
        let joined = ThreadState::Blocked(BlockedOn::Join(tid));
        let woken: Vec<u32> = p
            .threads
            .iter()
            .filter(|(_, t)| t.state == joined)
            .map(|(jtid, _)| *jtid)
            .collect();
        for jtid in woken {
            self.make_ready(pid, jtid, at);
        }
    }

    fn handle_exit(&mut self, pid: Pid, code: i32, at: f64, ctx: &mut Ctx) {
        ctx.kernel(self.os.cost().proc_exit);
        // All threads die with the process.
        for t in self.procs.get_mut(&pid).unwrap().threads.values_mut() {
            t.state = ThreadState::Dead;
            if t.exited.is_none() {
                t.exited = Some((code, at));
            }
        }
        // Close all fds, collecting every wake event: an exit that closes
        // several pipe or ring ends at once must wake the waiters of each.
        let fds = std::mem::take(&mut self.procs.get_mut(&pid).unwrap().fds);
        let mut events = Vec::new();
        for (_, kind) in fds.iter() {
            events.extend(self.vfs.close(kind));
        }
        self.os.destroy(ctx, pid);

        // Orphan children.
        let children = std::mem::take(&mut self.procs.get_mut(&pid).unwrap().children);
        for c in children {
            if let Some(cp) = self.procs.get_mut(&c) {
                cp.parent = None;
                if cp.life == ProcLife::Zombie {
                    cp.life = ProcLife::Dead;
                }
            }
        }

        let parent = self.procs[&pid].parent;
        {
            let p = self.procs.get_mut(&pid).unwrap();
            p.exit_code = Some(code);
            p.life = if parent.is_some() {
                ProcLife::Zombie
            } else {
                ProcLife::Dead
            };
        }
        self.exit_log.push(ExitEvent { pid, at, code });

        // Notify the parent (any thread blocked in wait()).
        if let Some(pp) = parent {
            let mut waiter = None;
            if let Some(par) = self.procs.get_mut(&pp) {
                let key = (TimeKey::from_ns(at), par.zombie_seq);
                par.zombie_seq += 1;
                par.zombies.insert(key, (pid, code, at));
                // One waiter reaps one child.
                let waiting = ThreadState::Blocked(BlockedOn::Wait);
                let mut threads = par.threads.iter();
                waiter = threads.find(|(_, t)| t.state == waiting).map(|(w, _)| *w);
            }
            if let Some(wtid) = waiter {
                self.make_ready(pp, wtid, at);
            }
        }
        self.deliver_events(events, at);
    }

    /// Wakes threads blocked on the given events, and delivers kills.
    fn deliver_events(&mut self, events: Vec<WakeEvent>, at: f64) {
        if events.is_empty() {
            return;
        }
        for ev in &events {
            if let WakeEvent::Kill(target) = ev {
                let killable = self
                    .procs
                    .get(target)
                    .is_some_and(|p| p.life == ProcLife::Alive);
                if killable {
                    let mut ctx = Ctx::new();
                    self.handle_exit(*target, 137, at, &mut ctx);
                    self.counters.merge(&ctx.counters);
                }
            }
        }
        self.wake_waiters(&events, at);
        debug_assert_eq!(
            self.missed_wakeup(&events),
            None,
            "a delivered event left a thread parked that it satisfies"
        );
    }

    /// Does one event wake a thread parked on `pending`? The fd's
    /// *current* kind is re-checked on every event (a sibling may have
    /// closed and remapped the fd).
    fn wake_match(ev: &WakeEvent, pending: &BlockingCall, fds: &FdTable) -> bool {
        match (ev, pending) {
            // Readers wake on data or hangup of their pipe.
            (
                WakeEvent::PipeWritten(id) | WakeEvent::PipeHangup(id),
                BlockingCall::Read { fd, .. },
            ) => matches!(fds.get(*fd), Ok(FdKind::PipeRead(p)) if p == id),
            // Writers wake when space drains — including the last read
            // end closing, so they can fail with EPIPE.
            (WakeEvent::PipeDrained(id), BlockingCall::Write { fd, .. }) => {
                matches!(fds.get(*fd), Ok(FdKind::PipeWrite(p)) if p == id)
            }
            // Consumers wake on a push or producer hangup of their ring.
            (WakeEvent::RingPushed(id), BlockingCall::RingPop { fd, .. }) => {
                matches!(fds.get(*fd), Ok(FdKind::RingCons(r)) if r == id)
            }
            // Producers wake on a freed slot or consumer hangup.
            (WakeEvent::RingPopped(id), BlockingCall::RingPush { fd, .. }) => {
                matches!(fds.get(*fd), Ok(FdKind::RingProd(r)) if r == id)
            }
            _ => false,
        }
    }

    /// Wakes every thread an event batch satisfies (one hangup releases
    /// all readers of a pipe), consulting only the affected pipe or
    /// ring's waiter list. Entries whose thread died or moved on are
    /// dropped; entries whose thread is still parked but does not match
    /// this event stay registered.
    fn wake_waiters(&mut self, events: &[WakeEvent], at: f64) {
        for ev in events {
            let chan = match *ev {
                WakeEvent::PipeWritten(id)
                | WakeEvent::PipeHangup(id)
                | WakeEvent::PipeDrained(id) => BlockedOn::Pipe(id),
                WakeEvent::RingPushed(id) | WakeEvent::RingPopped(id) => BlockedOn::Ring(id),
                WakeEvent::Kill(_) => continue,
            };
            let Some(list) = self.waiters.remove(&chan) else {
                continue;
            };
            let mut wake = Vec::new();
            let mut keep = Vec::new();
            for (wpid, wtid) in list {
                match self.parked_call(wpid, wtid) {
                    Some((call, fds)) if Self::wake_match(ev, call, fds) => wake.push((wpid, wtid)),
                    Some(_) => keep.push((wpid, wtid)),
                    None => {}
                }
            }
            for (wpid, wtid) in wake {
                self.make_ready(wpid, wtid, at);
            }
            if !keep.is_empty() {
                self.waiters.entry(chan).or_default().extend(keep);
            }
        }
    }

    /// The call a live, parked thread waits to retry, with its process's
    /// descriptors: what a wake event is matched against.
    fn parked_call(&self, pid: Pid, tid: u32) -> Option<(&BlockingCall, &FdTable)> {
        let p = self.procs.get(&pid).filter(|p| p.life == ProcLife::Alive)?;
        let t = p.threads.get(&tid)?;
        match (&t.state, &t.pending) {
            (ThreadState::Blocked(_), Some(call)) => Some((call, &p.fds)),
            _ => None,
        }
    }

    /// A live thread still parked on a call that an event of `events`
    /// satisfies, found by scanning every thread: after delivery there
    /// must be none.
    fn missed_wakeup(&self, events: &[WakeEvent]) -> Option<(Pid, u32)> {
        let satisfied = |(call, fds): (&BlockingCall, &FdTable)| {
            events.iter().any(|ev| Self::wake_match(ev, call, fds))
        };
        for (pid, p) in &self.procs {
            for tid in p.threads.keys() {
                if self.parked_call(*pid, *tid).is_some_and(satisfied) {
                    return Some((*pid, *tid));
                }
            }
        }
        None
    }
}

enum ServiceOutcome {
    /// The call completed with this result.
    Done(Result<u64, Errno>),
    /// Block until an event on the named channel wakes the thread.
    BlockIndefinite(BlockingCall, BlockedOn),
    /// Re-try the call at the given simulated time.
    RetryAt(BlockingCall, f64),
}
