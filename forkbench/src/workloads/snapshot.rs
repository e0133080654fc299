//! `snapshot`: a closed-loop train of Redis-style background saves.
//!
//! A parent holds a 1024 × 4 KiB dict. Each interval it applies a seeded
//! burst of in-place writes (50 to 150, mean 100), forks, and waits while
//! the child serializes the dict with `rdb_save` and exits. The kernel
//! copies eagerly (`Full`) with dirty tracking on, so every fork after the
//! first is a `DirtySince` fork: it copies the pages the burst dirtied
//! and shares the clean ones, and the child's serializer then faults the
//! shared pages that hold capabilities. Only two processes are ever
//! alive, so the run queue does almost no work: this is the workload
//! where writes sit beside reads.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ufork::{UforkConfig, WalkMode};
use ufork_abi::{
    BlockingCall, CopyStrategy, Env, ForkResult, ImageSpec, Pid, Program, Resume, StepOutcome,
    SysResult,
};
use ufork_exec::{Machine, MachineConfig, MemOs};
use ufork_workloads::redis::{rdb_parse, rdb_save, Dict, RedisConfig};

use super::{key, peak_live, value, DICT_REG};
use crate::scenario::{log_digest, ReadyPoint, Scenario, SimResult, SplitMix};
use crate::stats::sorted;

/// The dump every save replaces.
const DUMP: &str = "dump.rdb";
/// The file a save writes before renaming it over [`DUMP`].
const DUMP_TMP: &str = "dump.rdb.tmp";
/// Bytes each burst write overwrites at the start of a value.
const WRITE_BYTES: usize = 16;

/// The snapshot workload.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    /// Seed of the value bytes and the write bursts.
    pub seed: u64,
    /// Snapshots taken.
    pub intervals: u64,
    /// Dict entries.
    pub entries: u64,
    /// Value bytes per entry.
    pub val_bytes: u64,
}

impl Snapshot {
    /// The benchmark's snapshot train for `seed`.
    pub fn new(seed: u64) -> Snapshot {
        Snapshot {
            seed,
            intervals: 1000,
            entries: 1024,
            val_bytes: 4096,
        }
    }

    /// The writes applied before snapshot `i`: `(entry, bytes)`.
    fn burst(&self, i: u64) -> Vec<(u64, [u8; WRITE_BYTES])> {
        let mut r = SplitMix::new(self.seed ^ (i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let n = r.range(50, 151);
        (0..n)
            .map(|_| {
                let k = r.range(0, self.entries);
                let mut b = [0u8; WRITE_BYTES];
                b[..8].copy_from_slice(&r.next_u64().to_le_bytes());
                b[8..].copy_from_slice(&r.next_u64().to_le_bytes());
                (k, b)
            })
            .collect()
    }

    /// The dict's contents after every burst, computed on the host.
    fn model(&self) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut vals: Vec<Vec<u8>> = (0..self.entries)
            .map(|k| value(self.seed, k).take(self.val_bytes as usize).collect())
            .collect();
        for i in 0..self.intervals {
            for (k, b) in self.burst(i) {
                vals[k as usize][..WRITE_BYTES].copy_from_slice(&b);
            }
        }
        vals.into_iter()
            .enumerate()
            .map(|(k, v)| (key(k as u64).into_bytes(), v))
            .collect()
    }
}

#[derive(Debug, Default)]
struct SnapLog {
    ready: bool,
    /// `(fork issued, save reaped)` of every successful snapshot.
    done: Vec<(f64, f64)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Boot,
    Forking,
    Waiting,
    Child,
}

#[derive(Clone)]
struct SnapshotParent {
    w: Snapshot,
    state: State,
    interval: u64,
    issued: f64,
    log: Rc<RefCell<SnapLog>>,
}

impl SnapshotParent {
    fn populate(&self, env: &mut dyn Env) -> SysResult<()> {
        let cfg = RedisConfig::sized(self.w.entries, self.w.val_bytes);
        let dict = Dict::create(env, cfg.buckets)?;
        env.set_reg(DICT_REG, dict.handle())?;
        for k in 0..self.w.entries {
            let val: Vec<u8> = value(self.w.seed, k)
                .take(self.w.val_bytes as usize)
                .collect();
            dict.insert(env, key(k).as_bytes(), &val)?;
        }
        Ok(())
    }

    /// Applies the next burst and forks its snapshot, or exits after the
    /// last one.
    fn next_interval(&mut self, env: &mut dyn Env) -> StepOutcome {
        if self.interval == self.w.intervals {
            return StepOutcome::Exit(0);
        }
        let dict = match env.reg(DICT_REG) {
            Ok(h) => Dict::from_handle(h),
            Err(_) => return StepOutcome::Exit(1),
        };
        for (k, b) in self.w.burst(self.interval) {
            if dict.update_in_place(env, key(k).as_bytes(), &b).is_err() {
                return StepOutcome::Exit(1);
            }
        }
        self.issued = env.now();
        self.state = State::Forking;
        StepOutcome::Fork
    }

    fn save(env: &mut dyn Env) -> SysResult<()> {
        let dict = Dict::from_handle(env.reg(DICT_REG)?);
        rdb_save(env, &dict, DUMP_TMP)?;
        env.sys_rename(DUMP_TMP, DUMP)
    }

    fn completed(&mut self, env: &mut dyn Env, ok: bool) -> StepOutcome {
        if ok {
            self.log.borrow_mut().done.push((self.issued, env.now()));
        }
        self.interval += 1;
        self.next_interval(env)
    }
}

impl Program for SnapshotParent {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match (self.state, input) {
            (State::Boot, Resume::Start) => {
                if self.populate(env).is_err() {
                    return StepOutcome::Exit(1);
                }
                self.log.borrow_mut().ready = true;
                self.next_interval(env)
            }
            (State::Forking, Resume::Forked(ForkResult::Child)) => {
                self.state = State::Child;
                match Self::save(env) {
                    Ok(()) => StepOutcome::Exit(0),
                    Err(_) => StepOutcome::Exit(1),
                }
            }
            (State::Forking, Resume::Forked(ForkResult::Parent(_))) => {
                self.state = State::Waiting;
                StepOutcome::Block(BlockingCall::Wait)
            }
            (State::Forking, Resume::Ret(Err(_))) => self.completed(env, false),
            (State::Waiting, Resume::Ret(r)) => {
                let ok = matches!(r, Ok(status) if status >> 32 == 0);
                self.completed(env, ok)
            }
            _ => StepOutcome::Exit(3),
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The parent's pid and its snapshot log.
pub struct SnapshotHandle {
    pid: Pid,
    log: Rc<RefCell<SnapLog>>,
}

impl Scenario for Snapshot {
    type Handle = SnapshotHandle;
    const OP: &'static str = "snapshot";

    fn kernel_config(&self) -> UforkConfig {
        UforkConfig {
            phys_mib: 512,
            strategy: CopyStrategy::Full,
            walk: WalkMode::Serial,
            track_dirty: true,
            ..UforkConfig::default()
        }
    }

    fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        }
    }

    fn start<O: MemOs>(&self, m: &mut Machine<O>) -> SnapshotHandle {
        let log = Rc::new(RefCell::new(SnapLog::default()));
        let parent = SnapshotParent {
            w: *self,
            state: State::Boot,
            interval: 0,
            issued: 0.0,
            log: Rc::clone(&log),
        };
        let heap = RedisConfig::sized(self.entries, self.val_bytes).heap_bytes();
        let pid = m
            .spawn(&ImageSpec::with_heap("snapshot", heap), Box::new(parent))
            .expect("spawn snapshot parent");
        SnapshotHandle { pid, log }
    }

    fn ready<O: MemOs>(&self, _m: &Machine<O>, h: &SnapshotHandle) -> bool {
        h.log.borrow().ready
    }

    fn finish<O: MemOs>(&self, m: &Machine<O>, h: SnapshotHandle, at: &ReadyPoint) -> SimResult {
        let log = h.log.borrow();
        let counters = m.counters().since(&at.counters);
        let mut problems = Vec::new();
        if m.exit_code(h.pid) != Some(0) {
            problems.push(format!("parent exited with {:?}", m.exit_code(h.pid)));
        }
        let dump = m.vfs().file_contents(DUMP).unwrap_or_default();
        match rdb_parse(dump) {
            None => problems.push("final dump does not parse".into()),
            Some((_, false)) => problems.push("final dump checksum mismatch".into()),
            Some((entries, true)) => {
                let got: BTreeMap<Vec<u8>, Vec<u8>> = entries.into_iter().collect();
                if got != self.model() {
                    problems.push("final dump differs from the host model of the writes".into());
                }
            }
        }
        if counters.pages_dirty_copied == 0 {
            problems.push("no dirty pages copied: forks stopped using the dirty scope".into());
        }
        if counters.pages_shared_clean == 0 {
            problems.push("no clean pages shared: forks stopped sharing".into());
        }
        if m.os.allocated_frames() != 0 {
            problems.push(format!(
                "{} frames leaked after every exit",
                m.os.allocated_frames()
            ));
        }
        let mut digest = log_digest(m);
        digest.bytes(dump);
        SimResult {
            ops: self.intervals,
            failed: self.intervals - log.done.len() as u64,
            op_lat: sorted(log.done.iter().map(|(s, e)| e - s).collect()),
            fork_lat: sorted(m.fork_log().iter().map(|f| f.latency_ns).collect()),
            lateness: Vec::new(),
            arrival_gap: 0.0,
            span: log.done.last().map_or(0.0, |(_, e)| e - at.now),
            peak_live: peak_live(m, h.pid),
            counters,
            total: *m.counters(),
            digest: digest.finish(),
            problems,
        }
    }
}
