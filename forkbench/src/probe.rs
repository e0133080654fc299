//! [`RootProbe`]: times operations of an unmodified workload program on
//! the simulated clock, from outside.
//!
//! The probe wraps the root process's program and reads `env.now()`
//! around each resume. Reading the clock charges nothing, so the wrapped
//! program's schedule is unchanged. Forked children inherit a clone of
//! the probe (sharing its log) and record nothing.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use ufork_abi::{BlockingCall, Env, ForkResult, Program, Resume, StepOutcome};

/// What the probe times on the root process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// From the wake time of an arrival sleep to the parent's return from
    /// the fork it then issues (queueing for a core and the kernel lock
    /// included). Retries of a failed fork stay charged to the original
    /// arrival.
    ArrivalToFork,
    /// From issuing a ring push to its completion (backpressure waits on
    /// a full ring included).
    PushWait,
}

/// `(start, end)` pairs of every timed operation, in simulated ns.
pub type ProbeLog = Rc<RefCell<Vec<(f64, f64)>>>;

/// The probing wrapper.
#[derive(Clone)]
pub struct RootProbe<P> {
    inner: P,
    probe: Probe,
    child: bool,
    wake: Option<f64>,
    pending: Option<f64>,
    log: ProbeLog,
}

impl<P: Program + Clone + 'static> RootProbe<P> {
    /// Wraps `inner`; the returned log fills as the program runs.
    pub fn new(inner: P, probe: Probe) -> (RootProbe<P>, ProbeLog) {
        let log = ProbeLog::default();
        let wrapper = RootProbe {
            inner,
            probe,
            child: false,
            wake: None,
            pending: None,
            log: Rc::clone(&log),
        };
        (wrapper, log)
    }

    /// The wrapped program.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Program + Clone + 'static> Program for RootProbe<P> {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        if input == Resume::Forked(ForkResult::Child) {
            self.child = true;
        }
        if self.child {
            return self.inner.resume(env, input);
        }
        let completes = match self.probe {
            Probe::ArrivalToFork => matches!(input, Resume::Forked(ForkResult::Parent(_))),
            Probe::PushWait => matches!(input, Resume::Ret(_)),
        };
        if completes {
            if let Some(start) = self.pending.take() {
                self.log.borrow_mut().push((start, env.now()));
            }
        }
        let out = self.inner.resume(env, input);
        match (self.probe, &out) {
            (Probe::ArrivalToFork, StepOutcome::Block(BlockingCall::Sleep { ns })) => {
                self.wake = Some(env.now() + ns);
            }
            (Probe::ArrivalToFork, StepOutcome::Fork) => {
                let wake = self.wake.take();
                if self.pending.is_none() {
                    self.pending = wake;
                }
            }
            (Probe::PushWait, StepOutcome::Block(BlockingCall::RingPush { .. })) => {
                self.pending = Some(env.now());
            }
            _ => {}
        }
        out
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
