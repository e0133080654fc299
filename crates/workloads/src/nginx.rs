//! Nginx-style multi-worker web server (paper §5.1, Figure 7).
//!
//! A master process forks `workers` request-serving workers (U5) that
//! accept connections from a wrk-style closed-loop generator and serve
//! keep-alive requests: blocking read, parse + build response (CPU),
//! write. Workers yield while waiting for the next request on a
//! connection, which is what lets additional workers raise single-core
//! throughput (paper: +15.6% from 1→3 workers on one core).

use std::any::Any;

use ufork_abi::{BlockingCall, Env, Fd, ForkResult, Program, Resume, StepOutcome};

/// Nginx workload configuration.
#[derive(Clone, Debug)]
pub struct NginxConfig {
    /// Worker processes to fork.
    pub workers: u32,
    /// CPU ops to parse a request and build the response (user-space
    /// request handling).
    pub parse_ops: u64,
    /// Response size in bytes. The response is written from the
    /// worker's 8 KiB request buffer, so a longer one fails with
    /// `Errno::Fault`.
    pub resp_bytes: u64,
}

impl Default for NginxConfig {
    fn default() -> NginxConfig {
        NginxConfig {
            workers: 1,
            parse_ops: 18_000,
            resp_bytes: 1024,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Master,
    Worker,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WState {
    Accepting,
    Serving(Fd),
}

/// Register slot holding the worker's request buffer.
const BUF_REG: usize = 7;

/// The Nginx program: master in the initial process, workers after fork.
#[derive(Clone, Debug)]
pub struct Nginx {
    /// Configuration.
    pub cfg: NginxConfig,
    /// Listener fd (installed by the harness before the run).
    pub listen_fd: Fd,
    role: Role,
    forked: u32,
    wstate: WState,
    /// Requests served by this worker.
    pub served: u64,
}

impl Nginx {
    /// Creates the master program; `listen_fd` must be installed on the
    /// spawned process by the harness.
    pub fn new(cfg: NginxConfig, listen_fd: Fd) -> Nginx {
        Nginx {
            cfg,
            listen_fd,
            role: Role::Master,
            forked: 0,
            wstate: WState::Accepting,
            served: 0,
        }
    }

    fn accept(&mut self) -> StepOutcome {
        self.wstate = WState::Accepting;
        StepOutcome::Block(BlockingCall::Accept { fd: self.listen_fd })
    }

    fn read_next(&mut self, env: &mut dyn Env, conn: Fd) -> StepOutcome {
        self.wstate = WState::Serving(conn);
        let buf = env.reg(BUF_REG).expect("request buffer");
        StepOutcome::Block(BlockingCall::Read {
            fd: conn,
            buf,
            len: 4096,
        })
    }
}

impl Program for Nginx {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match (self.role, input) {
            (Role::Master, Resume::Start) => {
                // Master setup: config parse, socket setup.
                env.cpu_ops(500_000);
                self.forked += 1;
                StepOutcome::Fork
            }
            (Role::Master, Resume::Forked(ForkResult::Parent(_))) => {
                if self.forked < self.cfg.workers {
                    self.forked += 1;
                    StepOutcome::Fork
                } else {
                    // Master parks, reaping if workers ever die.
                    StepOutcome::Block(BlockingCall::Wait)
                }
            }
            (Role::Master, Resume::Ret(_)) => StepOutcome::Block(BlockingCall::Wait),
            (Role::Master, Resume::Forked(ForkResult::Child)) => {
                // Become a worker.
                self.role = Role::Worker;
                let buf = env.malloc(8192).expect("request buffer");
                env.set_reg(BUF_REG, buf).expect("register");
                self.accept()
            }
            (Role::Worker, Resume::Ret(res)) => match (self.wstate, res) {
                (WState::Accepting, Ok(fd)) => {
                    #[allow(clippy::cast_possible_truncation)]
                    let conn = Fd(fd as i32);
                    self.read_next(env, conn)
                }
                (WState::Accepting, Err(_)) => StepOutcome::Exit(0), // source exhausted
                (WState::Serving(conn), Ok(0)) => {
                    // Connection done (keep-alive exhausted).
                    let _ = env.sys_close(conn);
                    self.accept()
                }
                (WState::Serving(conn), Ok(_n)) => {
                    // Parse + handle + respond.
                    env.cpu_ops(self.cfg.parse_ops);
                    let buf = env.reg(BUF_REG).expect("request buffer");
                    if env.sys_write(conn, &buf, self.cfg.resp_bytes).is_err() {
                        let _ = env.sys_close(conn);
                        return self.accept();
                    }
                    self.served += 1;
                    self.read_next(env, conn)
                }
                (WState::Serving(conn), Err(_)) => {
                    let _ = env.sys_close(conn);
                    self.accept()
                }
            },
            (r, i) => unreachable!("bad nginx transition: {r:?} / {i:?}"),
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
