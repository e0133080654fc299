//! Scheduler primitives: the run queue and its ordering key, integer
//! time keys, per-core lane clocks, and explicit blocked states.
//!
//! The [`crate::Machine`] runs three kinds of task — threads, the
//! background copy engines of pipelined forks, and the background reclaim
//! daemon — and picks every step by one key, `(time, class, order)`
//! ([`QEntry`]), popped from a lazy-deletion heap in O(log runnable).
//! Debug builds check every pick against a linear scan of every task for
//! the minimum key. The pieces:
//!
//! * [`TimeKey`] — an **integer** ordering key over simulated
//!   nanoseconds, so heap ordering can never be perturbed by
//!   floating-point comparison subtleties over 10k-event timelines;
//! * [`Task`] / [`QEntry`] — what runs next and when, ordered so that at
//!   equal times a copy engine beats the reclaim daemon, which beats
//!   threads (ascending pid, then tid);
//! * [`RunQueue`] — the lazy-deletion binary min-heap of entries;
//! * [`Cores`] — per-core simulated clocks backed by
//!   [`ufork_sim::LaneClocks`], the same machinery the parallel fork
//!   walkers use, so whole-machine time remains exactly replayable;
//! * [`BlockedOn`] — why a parked thread is parked, which both documents
//!   the wait graph and lets the machine index pipe and ring waiters for
//!   O(woken) wakeups instead of rescanning every thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ufork_abi::Pid;
use ufork_sim::LaneClocks;

/// An integer ordering key over a simulated-time nanosecond value.
///
/// IEEE-754 doubles have the property that for non-negative finite
/// values, `a <= b  ⟺  a.to_bits() <= b.to_bits()`: the raw bit pattern
/// is monotone. `TimeKey` exploits this to give the run queue (and the
/// zombie table) a plain `u64` ordering key — integer comparisons, no
/// NaN/total_cmp corner cases inside the heap — **without** quantizing
/// the timestamp. Quantizing (e.g. rounding to whole ns) would collapse
/// sub-ns-distinct events into new ties and reorder the schedule; the
/// bit encoding keys every distinct `f64` instant distinctly.
///
/// Negative inputs clamp to 0 (simulated time starts at 0; a negative
/// ready time is a cost-model bug, not a schedulable instant) and NaN
/// maps to `u64::MAX` (sorts last, never first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeKey(pub u64);

impl TimeKey {
    /// Encodes a simulated-time value.
    pub fn from_ns(ns: f64) -> TimeKey {
        if ns.is_nan() {
            return TimeKey(u64::MAX);
        }
        if ns <= 0.0 {
            return TimeKey(0); // also normalizes -0.0
        }
        TimeKey(ns.to_bits())
    }

    /// Decodes back to nanoseconds.
    pub fn as_ns(self) -> f64 {
        if self.0 == u64::MAX {
            return f64::NAN;
        }
        f64::from_bits(self.0)
    }
}

/// What an indefinitely blocked thread is waiting for.
///
/// A blocking call that cannot complete names the channel it waits on,
/// so the machine indexes waiters by pipe or ring and wakes exactly the
/// affected threads instead of rescanning every thread against every
/// event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockedOn {
    /// Reading an empty pipe with writers still open, or writing a full
    /// one with readers still open.
    Pipe(usize),
    /// Pushing onto a full ring, or popping an empty one with producer
    /// ends still open.
    Ring(usize),
    /// `wait()` with live, un-exited children.
    Wait,
    /// Joining a running thread (the target tid).
    Join(u32),
}

/// A task the machine can run next.
///
/// The derived ordering is the `(class, order)` part of the scheduling
/// key. The variant order is the class: a copy engine beats the reclaim
/// daemon (copied pages are latency-critical, scrubbing is slack work),
/// which beats threads (so the magazine refills before the next fork
/// allocates). The fields are the order within a class: ascending child
/// pid for copy engines, ascending `(pid, tid)` for threads. A thread's
/// `gen` never decides between two live entries: only one generation of
/// a thread is live.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Task {
    /// The background copy engine of a pipelined fork's child.
    Copy(Pid),
    /// The background reclaim daemon.
    Reclaim,
    /// A thread, tagged with its ready-generation when the entry was
    /// built: a queued entry is live iff `gen` still matches — the
    /// lazy-deletion validity check.
    Thread { pid: Pid, tid: u32, gen: u64 },
}

/// One run-queue entry: the scheduling key `(time, class, order)`.
///
/// Entries are never removed eagerly. A stale entry (its thread ran,
/// blocked, moved, or died since the push) is detected on pop by
/// comparing it against the task's current entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct QEntry {
    /// Integer-encoded ready time (primary key).
    pub time: TimeKey,
    /// What runs; also breaks ties at equal times.
    pub task: Task,
}

impl QEntry {
    /// `task`, ready at `at`.
    pub fn new(at: f64, task: Task) -> QEntry {
        QEntry {
            time: TimeKey::from_ns(at),
            task,
        }
    }
}

/// The lazy-deletion run queue.
///
/// Every task that can run must have its current entry queued: a task
/// without one is never picked. Debug builds of the machine check each
/// pick against a scan of every task, so a lost entry fails at the step
/// that should have run it.
#[derive(Default)]
pub(crate) struct RunQueue {
    heap: BinaryHeap<Reverse<QEntry>>,
}

impl RunQueue {
    /// Pushes an entry.
    pub fn push(&mut self, entry: QEntry) {
        self.heap.push(Reverse(entry));
    }

    /// Pops the minimum entry (which may be stale — the caller validates
    /// against the task's current state).
    pub fn pop(&mut self) -> Option<QEntry> {
        self.heap.pop().map(|r| r.0)
    }
}

/// Per-core simulated clocks plus last-scheduled bookkeeping, backed by
/// the same [`LaneClocks`] the parallel fork walkers charge — one
/// time-accounting mechanism for the whole machine, so a multi-core run
/// replays exactly.
pub(crate) struct Cores {
    clocks: LaneClocks,
    last: Vec<Option<(Pid, u32)>>,
}

impl Cores {
    /// `n` cores (clamped to at least 1), all at time zero.
    pub fn new(n: usize) -> Cores {
        let n = n.max(1);
        Cores {
            clocks: LaneClocks::new(n),
            last: vec![None; n],
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.clocks.workers()
    }

    /// Core `i`'s current simulated time.
    pub fn now(&self, i: usize) -> f64 {
        self.clocks.lane(i)
    }

    /// Advances core `i` to a step's end time.
    pub fn advance_to(&mut self, i: usize, t: f64) {
        self.clocks.advance_to(i, t);
    }

    /// The thread core `i` last ran (context-switch accounting).
    pub fn last(&self, i: usize) -> Option<(Pid, u32)> {
        self.last[i]
    }

    /// Records that core `i` just ran `(pid, tid)`.
    pub fn note_ran(&mut self, i: usize, pid: Pid, tid: u32) {
        self.last[i] = Some((pid, tid));
    }

    /// Latest time across cores (machine "now").
    pub fn max_now(&self) -> f64 {
        self.clocks.elapsed()
    }

    /// Earliest time across cores (big-kernel-lock pruning horizon).
    pub fn min_now(&self) -> f64 {
        (0..self.clocks.workers())
            .map(|i| self.clocks.lane(i))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(pid: u32, tid: u32) -> Task {
        Task::Thread {
            pid: Pid(pid),
            tid,
            gen: 1,
        }
    }

    #[test]
    fn time_key_is_monotone_over_nonnegative_ns() {
        let samples = [
            0.0,
            1e-300,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            54_321.75,
            1e9,
            1e15,
            f64::MAX,
        ];
        for w in samples.windows(2) {
            assert!(
                TimeKey::from_ns(w[0]) < TimeKey::from_ns(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        // Adjacent representable doubles stay distinct (no quantization).
        let t = 1e9_f64;
        let next = f64::from_bits(t.to_bits() + 1);
        assert!(TimeKey::from_ns(t) < TimeKey::from_ns(next));
        assert_eq!(TimeKey::from_ns(t).as_ns(), t);
    }

    #[test]
    fn time_key_clamps_negative_and_nan() {
        assert_eq!(TimeKey::from_ns(-5.0), TimeKey(0));
        assert_eq!(TimeKey::from_ns(-0.0), TimeKey(0));
        assert_eq!(TimeKey::from_ns(0.0), TimeKey(0));
        assert_eq!(TimeKey::from_ns(f64::NAN), TimeKey(u64::MAX));
        // NaN sorts after every real instant.
        assert!(TimeKey::from_ns(f64::MAX) < TimeKey::from_ns(f64::NAN));
    }

    #[test]
    fn entries_order_by_time_then_class_then_pid_tid() {
        let early = QEntry::new(10.0, thread(9, 0));
        let late = QEntry::new(20.0, Task::Copy(Pid(1)));
        assert!(early < late, "time dominates class");

        let copy = QEntry::new(10.0, Task::Copy(Pid(9)));
        let reclaim = QEntry::new(10.0, Task::Reclaim);
        let t0 = QEntry::new(10.0, thread(1, 0));
        assert!(copy < reclaim, "at equal time, copy beats reclaim");
        assert!(reclaim < t0, "at equal time, reclaim beats threads");
        assert!(
            QEntry::new(10.0, Task::Copy(Pid(2))) < copy,
            "copy engines by ascending child pid"
        );

        let p1 = QEntry::new(10.0, thread(1, 3));
        let p2 = QEntry::new(10.0, thread(2, 0));
        assert!(p1 < p2, "at equal time, ascending pid");
        assert!(t0 < p1, "then ascending tid");
    }

    #[test]
    fn run_queue_pops_in_key_order() {
        let mut q = RunQueue::default();
        q.push(QEntry::new(30.0, thread(1, 0)));
        q.push(QEntry::new(10.0, thread(2, 0)));
        q.push(QEntry::new(10.0, Task::Reclaim));
        q.push(QEntry::new(10.0, thread(1, 1)));
        q.push(QEntry::new(10.0, Task::Copy(Pid(7))));
        let order: Vec<Task> = std::iter::from_fn(|| q.pop()).map(|e| e.task).collect();
        assert_eq!(
            order,
            [
                Task::Copy(Pid(7)),
                Task::Reclaim,
                thread(1, 1),
                thread(2, 0),
                thread(1, 0),
            ]
        );
    }

    #[test]
    fn cores_track_lanes_and_last_ran() {
        let mut c = Cores::new(2);
        assert_eq!(c.len(), 2);
        c.advance_to(1, 500.25);
        c.note_ran(1, Pid(3), 0);
        assert_eq!(c.now(1), 500.25);
        assert_eq!(c.now(0), 0.0);
        assert_eq!(c.max_now(), 500.25);
        assert_eq!(c.min_now(), 0.0);
        assert_eq!(c.last(1), Some((Pid(3), 0)));
        assert_eq!(c.last(0), None);
        // Zero clamps to one core.
        assert_eq!(Cores::new(0).len(), 1);
    }
}
