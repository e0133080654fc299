//! Machine-level IPC semantics against the flat mock backend
//! (`common::FlatOs`), whose shm objects are genuinely shared between
//! processes: pipe wake/EOF/EPIPE paths, bounded-pipe backpressure, and
//! the shared-memory ring fabric across fork. Debug builds check every
//! pick and wakeup against the linear reference.

mod common;

use common::{FlatOs, MEM_LEN};
use ufork_abi::{
    BlockingCall, Env, Errno, Fd, ForkResult, ImageSpec, IsolationLevel, Program, ProgramBox,
    Resume, StepOutcome, SysResult, RING_EOF,
};
use ufork_exec::{BlockedOn, Machine, MachineConfig, MAIN_TID, PIPE_CAPACITY};
use ufork_sim::CostModel;

// ---------------------------------------------------------------------------
// Pipe wake semantics.
// ---------------------------------------------------------------------------

/// Parks on an empty pipe; records whether the read returned EOF.
#[derive(Clone)]
struct EofReader {
    rfd: Fd,
    got_eof: bool,
}
impl Program for EofReader {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => StepOutcome::Block(BlockingCall::Read {
                fd: self.rfd,
                buf: env.reg(0).unwrap(),
                len: 4,
            }),
            Resume::Ret(Ok(0)) => {
                self.got_eof = true;
                StepOutcome::Exit(0)
            }
            _ => StepOutcome::Exit(1),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Spawns two readers on one pipe, lets them park, closes the write end,
/// and joins both. Completing at all proves BOTH readers were woken by
/// the single hangup — the regression this pins is `pipe_drop_end`
/// waking at most one.
#[derive(Clone)]
struct TwoReaderMain {
    phase: u8,
    wfd: Option<Fd>,
    tids: Vec<u64>,
}
impl Program for TwoReaderMain {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                let (r, w) = env.sys_pipe().expect("pipe");
                self.wfd = Some(w);
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(EofReader {
                        rfd: r,
                        got_eof: false,
                    })),
                })
            }
            1 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tids.push(tid);
                let rfd = Fd(self.wfd.unwrap().0 - 1);
                self.phase = 2;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(EofReader {
                        rfd,
                        got_eof: false,
                    })),
                })
            }
            2 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tids.push(tid);
                self.phase = 3;
                // Let both readers run and park on the empty pipe.
                StepOutcome::Block(BlockingCall::Sleep { ns: 1e6 })
            }
            3 => {
                env.sys_close(self.wfd.unwrap()).expect("close write end");
                self.phase = 4;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tids[0] })
            }
            4 => {
                self.phase = 5;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tids[1] })
            }
            _ => match input {
                Resume::Ret(Ok(0)) => StepOutcome::Exit(0),
                _ => StepOutcome::Exit(1),
            },
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn closing_last_write_end_wakes_every_blocked_reader() {
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(TwoReaderMain {
                phase: 0,
                wfd: None,
                tids: Vec::new(),
            }),
        )
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0), "join of both readers");
    for tid in [1u32, 2] {
        let r = m.thread_program::<EofReader>(pid, tid).unwrap();
        assert!(r.got_eof, "reader {tid} saw EOF");
    }
}

/// Sleeps, then drains a large chunk so a blocked writer can proceed.
#[derive(Clone)]
struct DrainReader {
    rfd: Fd,
    phase: u8,
    read_at: Option<f64>,
}
impl Program for DrainReader {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                self.phase = 1;
                StepOutcome::Block(BlockingCall::Sleep { ns: 2e6 })
            }
            1 => {
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Read {
                    fd: self.rfd,
                    buf: env.reg(0).unwrap(),
                    len: 48_000,
                })
            }
            _ => match input {
                Resume::Ret(Ok(n)) if n > 0 => {
                    self.read_at = Some(env.now());
                    StepOutcome::Exit(0)
                }
                _ => StepOutcome::Exit(1),
            },
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Fills the pipe past capacity: the second write must block until the
/// reader drains, then complete in full (all-or-nothing semantics).
#[derive(Clone)]
struct BackpressureWriter {
    phase: u8,
    wfd: Option<Fd>,
    tid: u64,
    wrote_at: Option<f64>,
}
impl Program for BackpressureWriter {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                let (r, w) = env.sys_pipe().expect("pipe");
                self.wfd = Some(w);
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(DrainReader {
                        rfd: r,
                        phase: 0,
                        read_at: None,
                    })),
                })
            }
            1 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tid = tid;
                let buf = env.reg(0).unwrap();
                // First 48 KB fit the 64 KB pipe synchronously...
                assert_eq!(env.sys_write(self.wfd.unwrap(), &buf, 48_000), Ok(48_000));
                // ...and the same write again must report EAGAIN.
                assert_eq!(
                    env.sys_write(self.wfd.unwrap(), &buf, 48_000),
                    Err(Errno::Again)
                );
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Write {
                    fd: self.wfd.unwrap(),
                    buf,
                    len: 48_000,
                })
            }
            2 => {
                let Resume::Ret(Ok(48_000)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.wrote_at = Some(env.now());
                env.sys_close(self.wfd.unwrap()).unwrap();
                self.phase = 3;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tid })
            }
            _ => StepOutcome::Exit(0),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn blocked_writer_wakes_when_reader_drains() {
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(BackpressureWriter {
                phase: 0,
                wfd: None,
                tid: 0,
                wrote_at: None,
            }),
        )
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    let w = m.program::<BackpressureWriter>(pid).unwrap();
    let r = m.thread_program::<DrainReader>(pid, 1).unwrap();
    let (wrote, read) = (w.wrote_at.unwrap(), r.read_at.unwrap());
    assert!(
        wrote >= 2e6 && wrote >= read,
        "write completed at {wrote}, after the drain at {read}"
    );
}

/// Closes the read end out from under a blocked writer.
#[derive(Clone)]
struct ReadEndCloser {
    rfd: Fd,
    phase: u8,
}
impl Program for ReadEndCloser {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        if self.phase == 0 {
            self.phase = 1;
            return StepOutcome::Block(BlockingCall::Sleep { ns: 1e6 });
        }
        env.sys_close(self.rfd).expect("close read end");
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A writer blocked on a full pipe must fail with EPIPE (`BadFd`), not
/// hang, when the last read end closes.
#[derive(Clone)]
struct EpipeWriter {
    phase: u8,
    wfd: Option<Fd>,
    tid: u64,
}
impl Program for EpipeWriter {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                let (r, w) = env.sys_pipe().expect("pipe");
                self.wfd = Some(w);
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(ReadEndCloser { rfd: r, phase: 0 })),
                })
            }
            1 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tid = tid;
                let buf = env.reg(0).unwrap();
                // Fill the pipe to capacity so the next write parks.
                assert_eq!(
                    env.sys_write(self.wfd.unwrap(), &buf, 64 * 1024),
                    Ok(65_536)
                );
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Write {
                    fd: self.wfd.unwrap(),
                    buf,
                    len: 8,
                })
            }
            2 => {
                let Resume::Ret(Err(Errno::BadFd)) = input else {
                    return StepOutcome::Exit(1);
                };
                env.sys_close(self.wfd.unwrap()).unwrap();
                self.phase = 3;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tid })
            }
            _ => StepOutcome::Exit(0),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn blocked_writer_gets_epipe_when_last_reader_closes() {
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(EpipeWriter {
                phase: 0,
                wfd: None,
                tid: 0,
            }),
        )
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
}

// ---------------------------------------------------------------------------
// Shared-memory rings across fork.
// ---------------------------------------------------------------------------

const MSGS: u32 = 5;

/// Opens both ends of a tiny ring, parks the sealed endpoints in high
/// registers, forks; the parent pushes [`MSGS`] messages (stalling on
/// the 2-slot ring while the child dawdles), the child pops until EOF
/// and exits with the count.
#[derive(Clone)]
struct RingPair {
    phase: u8,
    pf: Option<Fd>,
    cf: Option<Fd>,
    is_child: bool,
    pushed: u32,
    popped: u32,
}
impl RingPair {
    fn push(&self, env: &mut dyn Env) -> StepOutcome {
        StepOutcome::Block(BlockingCall::RingPush {
            fd: self.pf.unwrap(),
            ring: env.reg(12).unwrap(),
            buf: env.reg(0).unwrap(),
            len: 8,
        })
    }
    fn pop(&self, env: &mut dyn Env) -> StepOutcome {
        StepOutcome::Block(BlockingCall::RingPop {
            fd: self.cf.unwrap(),
            ring: env.reg(13).unwrap(),
            buf: env.reg(0).unwrap(),
        })
    }
}
impl Program for RingPair {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                let (pf, pcap) = env.sys_ring_open("pair", 2, 8, true).expect("prod end");
                let (cf, ccap) = env.sys_ring_open("pair", 2, 8, false).expect("cons end");
                assert!(pcap.is_sealed() && ccap.is_sealed());
                env.set_reg(12, pcap).unwrap();
                env.set_reg(13, ccap).unwrap();
                self.pf = Some(pf);
                self.cf = Some(cf);
                StepOutcome::Fork
            }
            Resume::Forked(ForkResult::Child) => {
                self.is_child = true;
                env.sys_close(self.pf.unwrap()).unwrap();
                self.phase = 10;
                // Dawdle so the parent hits the 2-slot ring's Full path.
                StepOutcome::Block(BlockingCall::Sleep { ns: 5e6 })
            }
            Resume::Forked(ForkResult::Parent(_)) => {
                env.sys_close(self.cf.unwrap()).unwrap();
                self.phase = 2;
                self.push(env)
            }
            Resume::Ret(r) => {
                if self.is_child {
                    match (self.phase, r) {
                        (10, _) => {
                            self.phase = 11;
                            self.pop(env)
                        }
                        (11, Ok(8)) => {
                            self.popped += 1;
                            self.pop(env)
                        }
                        (11, Ok(0)) => {
                            env.sys_close(self.cf.unwrap()).unwrap();
                            StepOutcome::Exit(self.popped as i32)
                        }
                        _ => StepOutcome::Exit(-1),
                    }
                } else {
                    match (self.phase, r) {
                        (2, Ok(8)) => {
                            self.pushed += 1;
                            if self.pushed < MSGS {
                                self.push(env)
                            } else {
                                env.sys_close(self.pf.unwrap()).unwrap();
                                self.phase = 3;
                                StepOutcome::Block(BlockingCall::Wait)
                            }
                        }
                        (3, Ok(_)) => StepOutcome::Exit(0),
                        _ => StepOutcome::Exit(-1),
                    }
                }
            }
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn ring_endpoints_survive_fork_and_deliver_eof() {
    let mut m = Machine::new(
        FlatOs::default(),
        MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        },
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(RingPair {
                phase: 0,
                pf: None,
                cf: None,
                is_child: false,
                pushed: 0,
                popped: 0,
            }),
        )
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0), "parent");
    let child = m.fork_log()[0].child;
    assert_eq!(
        m.exit_code(child),
        Some(MSGS as i32),
        "child popped all messages then saw EOF"
    );
    let c = m.counters();
    assert_eq!(c.ring_msgs, u64::from(MSGS));
    // Both ring fds were duplicated across the fork.
    assert_eq!(c.ring_caps_relocated, 2);
    assert!(
        c.ring_full_stalls >= 1,
        "the sleeping child must have forced a Full stall"
    );
}

/// Non-blocking ring ops in a single process: empty → 0, full → EAGAIN,
/// drained-with-producers → 0, drained-without-producers → EOF sentinel.
#[derive(Clone)]
struct TryOps;
impl Program for TryOps {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        let (pf, pcap) = env.sys_ring_open("try", 2, 4, true).unwrap();
        let (cf, ccap) = env.sys_ring_open("try", 2, 4, false).unwrap();
        let buf = env.reg(0).unwrap();
        // Empty, producers alive: no data, no EOF.
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(0));
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 4), Ok(4));
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 4), Ok(4));
        // Two slots occupied: the ring is full.
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 4), Err(Errno::Again));
        // Geometry is enforced per message.
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 3), Err(Errno::Inval));
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(4));
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(4));
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(0));
        // Last producer end gone: drained ring now reports EOF.
        env.sys_close(pf).unwrap();
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(RING_EOF));
        env.sys_close(cf).unwrap();
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn try_ops_report_full_empty_and_eof() {
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(TryOps))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    assert_eq!(m.counters().ring_full_stalls, 1);
}

// ---------------------------------------------------------------------------
// One operation, two entry points: each shared I/O operation charges,
// counts and wakes the same through its try-call and its blocking call,
// apart from the charges that differ between the two on purpose.
// ---------------------------------------------------------------------------

/// Payload bytes of every pinned ring message and pipe write.
const MSG: u64 = 24;

/// Per-byte cost of the backend's user copies in the pinned cases.
const COPYIO: f64 = 0.5;

/// A shared I/O operation in one state of its channel.
#[derive(Clone, Copy, Debug)]
enum Case {
    PushPushed,
    PushFull,
    PopMessage,
    PopEmpty,
    PopEof,
    WriteWritten,
    WriteFull,
}

/// Parks on one blocking call; a wake event on its channel lets it run.
#[derive(Clone)]
struct Witness(BlockingCall);
impl Program for Witness {
    fn resume(&mut self, _env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => StepOutcome::Block(self.0.clone()),
            _ => StepOutcome::Exit(0),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Puts one channel into `case`'s state, parks a [`Witness`] thread on
/// it, then performs the operation once, through the try-call or the
/// blocking call. `op_at` is the simulated time the operation starts and
/// `result` what it returned (`None` while a blocking call is parked).
#[derive(Clone)]
struct Pinned {
    case: Case,
    blocking: bool,
    call: Option<BlockingCall>,
    op_at: Option<f64>,
    result: Option<SysResult<u64>>,
}

impl Pinned {
    fn new(case: Case, blocking: bool) -> Pinned {
        Pinned {
            case,
            blocking,
            call: None,
            op_at: None,
            result: None,
        }
    }

    /// Sets the channel up; returns the operation, as a blocking call,
    /// and the call that parks the witness.
    fn setup(&self, env: &mut dyn Env) -> (BlockingCall, BlockingCall) {
        let buf = env.reg(0).unwrap();
        if let Case::WriteWritten | Case::WriteFull = self.case {
            let (r, w) = env.sys_pipe().unwrap();
            let write = BlockingCall::Write {
                fd: w,
                buf,
                len: MSG,
            };
            if let Case::WriteFull = self.case {
                let cap = PIPE_CAPACITY as u64;
                assert_eq!(env.sys_write(w, &buf, cap), Ok(cap));
                // A second writer parks on the full pipe.
                return (write.clone(), write);
            }
            // A reader parks on the empty pipe.
            return (
                write,
                BlockingCall::Read {
                    fd: r,
                    buf,
                    len: MSG,
                },
            );
        }
        let (pf, ring) = env.sys_ring_open("pin", 1, MSG, true).unwrap();
        let push = BlockingCall::RingPush {
            fd: pf,
            ring,
            buf,
            len: MSG,
        };
        let (fd, ring) = env.sys_ring_open("pin", 1, MSG, false).unwrap();
        let pop = BlockingCall::RingPop { fd, ring, buf };
        match self.case {
            // Empty ring: a consumer parks.
            Case::PushPushed => (push, pop),
            Case::PopEmpty => (pop.clone(), pop),
            // Full one-slot ring: a producer parks.
            Case::PushFull | Case::PopMessage => {
                assert_eq!(Self::try_call(env, &push), Ok(MSG));
                match self.case {
                    Case::PushFull => (push.clone(), push),
                    _ => (pop, push),
                }
            }
            // Drained with its producer gone: nothing can park on the
            // ring, so the witness joins the main thread instead.
            _ => {
                env.sys_close(pf).unwrap();
                let join = BlockingCall::JoinThread {
                    tid: u64::from(MAIN_TID),
                };
                (pop, join)
            }
        }
    }

    /// The operation through its try-call.
    fn try_call(env: &mut dyn Env, call: &BlockingCall) -> SysResult<u64> {
        match *call {
            BlockingCall::Write { fd, buf, len } => env.sys_write(fd, &buf, len),
            BlockingCall::RingPush { fd, ring, buf, len } => {
                env.sys_ring_try_push(fd, &ring, &buf, len)
            }
            BlockingCall::RingPop { fd, ring, buf } => env.sys_ring_try_pop(fd, &ring, &buf),
            _ => unreachable!("not a shared operation"),
        }
    }
}

impl Program for Pinned {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        let Resume::Ret(r) = input else {
            let (op, witness) = self.setup(env);
            self.call = Some(op);
            return StepOutcome::Block(BlockingCall::SpawnThread {
                program: ProgramBox(Box::new(Witness(witness))),
            });
        };
        let Some(call) = self.call.take() else {
            if self.blocking {
                self.result = Some(r);
            }
            return StepOutcome::Exit(0);
        };
        // The witness (thread 1) has parked: the operation is the first
        // thing this step does after the context switch.
        assert_eq!(r, Ok(1));
        self.op_at = Some(env.now());
        if self.blocking {
            return StepOutcome::Block(call);
        }
        self.result = Some(Self::try_call(env, &call));
        StepOutcome::Block(BlockingCall::Sleep { ns: 1e9 })
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// What a [`Pinned`] run showed at the end of the step that performed
/// the operation, plus the operation's result.
#[derive(Debug, PartialEq)]
struct Seen {
    syscalls: u64,
    tocttou_bytes: u64,
    ring_msgs: u64,
    ring_full_stalls: u64,
    /// Where the caller is parked.
    caller: Option<BlockedOn>,
    /// Where the witness is still parked (`None`: a wake event freed it).
    witness: Option<BlockedOn>,
    result: Option<SysResult<u64>>,
}

/// Runs one case; returns the operation's simulated kernel time and what
/// the run showed.
fn observe(case: Case, blocking: bool, iso: IsolationLevel) -> (f64, Seen) {
    let mut m = Machine::new(
        FlatOs {
            isolation: iso,
            copyio: COPYIO,
            ..FlatOs::default()
        },
        MachineConfig::default(),
    );
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(Pinned::new(case, blocking)),
        )
        .unwrap();
    loop {
        let before = *m.counters();
        assert!(m.step(), "{case:?}: idle before the operation ran");
        let Some(op_at) = m.program::<Pinned>(pid).unwrap().op_at else {
            continue;
        };
        // One core: the machine's clock stands where the operation's
        // step ended.
        let kernel_ns = m.now() - op_at;
        let c = m.counters().since(&before);
        let caller = m.blocked_on(pid, MAIN_TID);
        let witness = m.blocked_on(pid, 1);
        m.run();
        let result = m.program::<Pinned>(pid).unwrap().result;
        let seen = Seen {
            syscalls: c.syscalls,
            tocttou_bytes: c.tocttou_bytes,
            ring_msgs: c.ring_msgs,
            ring_full_stalls: c.ring_full_stalls,
            caller,
            witness,
            result,
        };
        return (kernel_ns, seen);
    }
}

#[test]
fn try_call_and_blocking_call_share_each_operation() {
    use BlockedOn::{Join, Pipe, Ring};
    use Case::*;
    let cost = CostModel::morello();
    let msg = MSG as f64;
    for iso in [IsolationLevel::Fault, IsolationLevel::Full] {
        let full = iso == IsolationLevel::Full;
        // The syscall charge for `n` buffer bytes: the mock's 100 ns
        // entry, then validation and the TOCTTOU copy at full isolation.
        let sys = |n: f64| {
            let copy = if n > 0.0 {
                cost.tocttou_fixed + cost.copyio_per_byte * n
            } else {
                0.0
            };
            100.0
                + if full {
                    cost.syscall_validate + copy
                } else {
                    0.0
                }
        };
        let pipe = cost.pipe_per_byte * msg + COPYIO * msg;
        let tocttou = |n: u64| if full { n } else { 0 };
        let seen = |n: u64, msgs, stalls, caller, witness, result| Seen {
            syscalls: 1,
            tocttou_bytes: tocttou(n),
            ring_msgs: msgs,
            ring_full_stalls: stalls,
            caller,
            witness,
            result,
        };
        let check = |case: Case, blocking: bool, kernel_ns: f64, want: Seen| {
            let at = format!("{case:?} blocking={blocking} {iso:?}");
            let (ns, got) = observe(case, blocking, iso);
            assert_eq!(got, want, "{at}");
            assert!(
                (ns - kernel_ns).abs() < 1e-6,
                "{at}: {ns} ns, want {kernel_ns}"
            );
        };
        let (ok, again) = (|n| Some(Ok(n)), Some(Err(Errno::Again)));
        for blocking in [false, true] {
            check(
                PushPushed,
                blocking,
                sys(msg),
                seen(MSG, 1, 0, None, None, ok(MSG)),
            );
            check(
                PopMessage,
                blocking,
                sys(0.0),
                seen(0, 0, 0, None, None, ok(MSG)),
            );
            let written = seen(MSG, 0, 0, None, None, ok(MSG));
            check(WriteWritten, blocking, sys(msg) + pipe, written);
        }
        check(
            PushFull,
            false,
            sys(msg),
            seen(MSG, 0, 1, None, Some(Ring(0)), again),
        );
        let parked = Some(Ring(0));
        check(
            PushFull,
            true,
            sys(msg),
            seen(MSG, 0, 1, parked, parked, None),
        );
        check(
            PopEmpty,
            false,
            sys(0.0),
            seen(0, 0, 0, None, parked, ok(0)),
        );
        check(
            PopEmpty,
            true,
            sys(0.0),
            seen(0, 0, 0, parked, parked, None),
        );
        let joined = Some(Join(0));
        check(
            PopEof,
            false,
            sys(0.0),
            seen(0, 0, 0, None, joined, ok(RING_EOF)),
        );
        check(PopEof, true, sys(0.0), seen(0, 0, 0, None, joined, ok(0)));
        // A refused try-write still pays the pipe copy; the blocking
        // write parks before it.
        let parked = Some(Pipe(0));
        check(
            WriteFull,
            false,
            sys(msg) + pipe,
            seen(MSG, 0, 0, None, parked, again),
        );
        check(
            WriteFull,
            true,
            sys(msg),
            seen(MSG, 0, 0, parked, parked, None),
        );
    }
}

// ---------------------------------------------------------------------------
// Program-chosen lengths that can never succeed.
// ---------------------------------------------------------------------------

/// Writes and pushes whose length can never succeed, each through its
/// try-call and (pipe and ring) its blocking call. Each result's name
/// ends in the length asked for.
#[derive(Clone, Default)]
struct OverLong {
    /// Blocking calls still to make, by name.
    calls: Vec<(String, BlockingCall)>,
    /// What each call returned, by name.
    results: Vec<(String, SysResult<u64>)>,
}

impl Program for OverLong {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        if let Resume::Ret(r) = input {
            let (name, _) = self.calls.remove(0);
            self.results.push((name, r));
        } else {
            let buf = env.reg(0).unwrap();
            let (_, wfd) = env.sys_pipe().unwrap();
            let cap = PIPE_CAPACITY as u64;
            for len in [cap + 1, u64::MAX] {
                let r = env.sys_write(wfd, &buf, len);
                self.results.push((format!("try-write pipe {len}"), r));
                let call = BlockingCall::Write { fd: wfd, buf, len };
                self.calls.push((format!("write pipe {len}"), call));
            }
            let (fd, ring) = env.sys_ring_open("over", 2, MSG, true).unwrap();
            for len in [MSG - 1, MSG + 1, u64::MAX] {
                let r = env.sys_ring_try_push(fd, &ring, &buf, len);
                self.results.push((format!("try-push ring {len}"), r));
                let call = BlockingCall::RingPush { fd, ring, buf, len };
                self.calls.push((format!("push ring {len}"), call));
            }
            // File writes whose end lies past what a host buffer can
            // hold, the second one's past `u64::MAX`.
            let file = env.sys_open("over.txt", true).unwrap();
            let r = env.sys_write(file, &buf, u64::MAX);
            self.results
                .push((format!("try-write file at 0 {}", u64::MAX), r));
            assert_eq!(env.sys_write(file, &buf, 8), Ok(8));
            let r = env.sys_write(file, &buf, u64::MAX);
            self.results
                .push((format!("try-write file at 8 {}", u64::MAX), r));
        }
        match self.calls.first() {
            Some((_, call)) => StepOutcome::Block(call.clone()),
            None => StepOutcome::Exit(0),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Runs [`OverLong`] on `os` and checks each refusal: a length past the
/// buffer capability fails with `Fault` at entry, one that fits the
/// buffer but not the pipe or ring with `Inval`.
fn run_over_long(os: FlatOs) -> Machine<FlatOs> {
    let mut m = Machine::new(os, MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(OverLong::default()))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    let results = &m.program::<OverLong>(pid).unwrap().results;
    assert_eq!(results.len(), 12, "{results:?}");
    for (name, r) in results {
        let len: u64 = name.rsplit(' ').next().unwrap().parse().unwrap();
        let errno = if len > MEM_LEN {
            Errno::Fault
        } else {
            Errno::Inval
        };
        assert_eq!(*r, Err(errno), "{name}");
    }
    // The refused file writes left the file as it was.
    assert_eq!(m.vfs().file_contents("over.txt").map(<[u8]>::len), Some(8));
    m
}

#[test]
fn lengths_that_can_never_succeed_are_refused() {
    run_over_long(FlatOs::default());
}

/// At `Full` isolation every syscall charges its byte count as TOCTTOU
/// copy-in. A length past the buffer is refused before that charge, so
/// two `u64::MAX`-byte writes neither overflow nor wrap the counter:
/// only the calls that passed the entry check are charged.
#[test]
fn over_long_lengths_are_refused_before_the_tocttou_charge() {
    let m = run_over_long(FlatOs {
        isolation: IsolationLevel::Full,
        ..FlatOs::default()
    });
    let cap = PIPE_CAPACITY as u64;
    assert_eq!(
        m.counters().tocttou_bytes,
        2 * (cap + 1) + 2 * (MSG - 1) + 2 * (MSG + 1) + 8
    );
}

// ---------------------------------------------------------------------------
// Ring geometry a program chose or wrote: the kernel's registry decides.
// ---------------------------------------------------------------------------

/// Opens a ring whose window size overflows a u64.
#[derive(Clone, Default)]
struct OverflowingRing {
    opened: Option<SysResult<()>>,
}
impl Program for OverflowingRing {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        self.opened = Some(env.sys_ring_open("y", 2, u64::MAX, true).map(|_| ()));
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn ring_geometry_that_overflows_is_refused_before_registration() {
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let pid = m
        .spawn(
            &ImageSpec::hello_world(),
            Box::new(OverflowingRing::default()),
        )
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    let opened = m.program::<OverflowingRing>(pid).unwrap().opened;
    assert_eq!(opened, Some(Err(Errno::Inval)));
    assert_eq!(m.vfs().ring_lookup("y"), None, "no registry entry is left");
}

/// Pushes one `MSG`-byte message, then maps the ring's own shm object
/// (an unsealed data capability to the header), writes `msg_bytes` into
/// the header's `msg_bytes` word, pops the message and reopens the ring.
#[derive(Clone)]
struct TamperedRing {
    msg_bytes: u64,
    popped: Option<SysResult<u64>>,
    payload: Vec<u8>,
    reopened: Option<SysResult<()>>,
}
impl Program for TamperedRing {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        let buf = env.reg(0).unwrap();
        let (pf, pcap) = env.sys_ring_open("t", 2, MSG, true).unwrap();
        let (cf, ccap) = env.sys_ring_open("t", 2, MSG, false).unwrap();
        env.store(&buf, &[0xab; MSG as usize]).unwrap();
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, MSG), Ok(MSG));
        let window = env.sys_shm_open("ring:t", 64).unwrap();
        let word4 = window.with_addr(window.base() + 32).unwrap();
        env.store(&word4, &self.msg_bytes.to_le_bytes()).unwrap();
        let out = buf.with_addr(buf.base() + 256).unwrap();
        self.popped = Some(env.sys_ring_try_pop(cf, &ccap, &out));
        self.payload = vec![0; MSG as usize];
        env.load(&out, &mut self.payload).unwrap();
        self.reopened = Some(env.sys_ring_open("t", 2, MSG, true).map(|_| ()));
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Runs [`TamperedRing`] for one forged `msg_bytes` word: the pop still
/// delivers the registered `MSG` bytes, and the reopen, which checks the
/// header, sees the forgery and fails with `Inval`.
fn check_tampered_ring(msg_bytes: u64) {
    let mut m = Machine::new(FlatOs::default(), MachineConfig::default());
    let program = TamperedRing {
        msg_bytes,
        popped: None,
        payload: Vec::new(),
        reopened: None,
    };
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(program))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    let p = m.program::<TamperedRing>(pid).unwrap();
    assert_eq!(p.popped, Some(Ok(MSG)), "msg_bytes word {msg_bytes}");
    assert_eq!(p.payload, vec![0xab; MSG as usize]);
    assert_eq!(p.reopened, Some(Err(Errno::Inval)));
}

#[test]
fn forged_huge_message_size_in_the_header_is_ignored_by_pop() {
    check_tampered_ring(u64::MAX);
}

#[test]
fn forged_short_message_size_in_the_header_is_ignored_by_pop() {
    check_tampered_ring(4);
}
