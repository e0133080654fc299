//! The fork storm: a FaaS zygote spawning thousands of *concurrent*
//! children under a deterministic Poisson arrival process.
//!
//! [`faas::Zygote`](crate::faas::Zygote) models steady-state serving —
//! at most `max_outstanding` workers live at once. The storm models the
//! opposite regime the event-driven scheduler exists for: a burst in
//! which every child is still running when the last one is born, so the
//! machine holds N+1 live μprocesses simultaneously. Arrivals are drawn
//! from a seeded exponential distribution (a Poisson process), service
//! times from a fixed base plus exponential jitter chosen so that no
//! child can exit before the arrival phase ends — which makes "all N
//! concurrent" an *assertable* property ([`StormReport::peak_live`]),
//! not a hope.
//!
//! Determinism: all randomness is drawn from an inline SplitMix64 stream
//! in the parent's sequential program order, and each child's service
//! time is pre-drawn by the parent *before* the fork (the child reads it
//! from its cloned program state). Scheduling order therefore cannot
//! perturb the draw sequence: same seed ⇒ same arrivals and services,
//! and on the same core count the whole event log is bit-identical
//! (`tests/storm_props.rs` holds the machine to this).

use std::any::Any;

use ufork_abi::{BlockingCall, Env, ForkResult, Pid, Program, Resume, StepOutcome};
use ufork_exec::{ExitEvent, ForkEvent};

/// Fork-storm configuration.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// Children to spawn (the paper-scale run uses 10
    /// 000).
    pub children: u32,
    /// Seed of the arrival/service random stream.
    pub seed: u64,
    /// Mean inter-arrival gap (ns) of the Poisson arrival process.
    pub arrival_mean_ns: f64,
    /// Fixed part of every child's service time (ns). Must exceed the
    /// storm's total arrival span for full concurrency.
    pub service_base_ns: f64,
    /// Mean of the exponential jitter added to the service time (ns).
    pub service_jitter_mean_ns: f64,
    /// Fork-failure retries (with linear backoff) before giving up —
    /// the chaos sweep injects journal aborts and allocation failures
    /// mid-storm and expects the zygote to absorb them.
    pub max_fork_retries: u32,
}

impl StormConfig {
    /// The standard storm shape for `children` concurrent μprocesses.
    ///
    /// Arrivals average 100 µs apart (10k arrivals ≈ 1 sim-second, plus
    /// fork service time on the zygote's core); every child then runs
    /// for at least 4 sim-seconds, so the first exit happens long after
    /// the last birth: peak concurrency is exactly `children`.
    pub fn standard(children: u32, seed: u64) -> StormConfig {
        StormConfig {
            children,
            seed,
            arrival_mean_ns: 100_000.0,
            service_base_ns: 4e9,
            service_jitter_mean_ns: 0.5e9,
            max_fork_retries: 16,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Parent,
    Child,
}

/// What the last issued blocking call / fork was for, so `Resume::Ret`
/// values can be routed without ambiguity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Issued {
    None,
    /// Sleeping out an arrival gap; fork on wake.
    Arrival,
    /// Backing off after a failed fork; re-fork on wake (same pre-drawn
    /// service time — a retry is the *same* arrival, delivered late).
    Backoff,
    /// A fork was issued (`Ret(Err)` here means the fork itself failed).
    Fork,
    /// Waiting to reap children.
    Wait,
}

/// The storm zygote (children become one-shot workers).
#[derive(Clone, Debug)]
pub struct StormZygote {
    /// Configuration.
    pub cfg: StormConfig,
    role: Role,
    issued: Issued,
    /// SplitMix64 state.
    rng: u64,
    /// Successful forks so far.
    pub launched: u32,
    /// Children reaped.
    pub completed: u32,
    /// Fork failures absorbed by retrying.
    pub retries: u32,
    retry_streak: u32,
    outstanding: u32,
    /// Service time pre-drawn for the next child; the forked clone reads
    /// this field, so the draw happens exactly once per arrival and
    /// never depends on scheduling order.
    next_service_ns: f64,
}

impl StormZygote {
    /// Creates the zygote.
    pub fn new(cfg: StormConfig) -> StormZygote {
        let rng = cfg.seed;
        StormZygote {
            cfg,
            role: Role::Parent,
            issued: Issued::None,
            rng,
            launched: 0,
            completed: 0,
            retries: 0,
            retry_streak: 0,
            outstanding: 0,
            next_service_ns: 0.0,
        }
    }

    /// Next SplitMix64 output.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An exponential draw with the given mean (inverse-CDF over a
    /// 53-bit uniform in (0, 1]).
    fn exp_draw(&mut self, mean_ns: f64) -> f64 {
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -mean_ns * u.ln()
    }

    /// Issues the next arrival sleep, the reap phase, or the final exit.
    fn next_arrival_or_drain(&mut self) -> StepOutcome {
        if self.launched < self.cfg.children {
            let gap = self.exp_draw(self.cfg.arrival_mean_ns);
            self.issued = Issued::Arrival;
            return StepOutcome::Block(BlockingCall::Sleep { ns: gap });
        }
        if self.outstanding > 0 {
            self.issued = Issued::Wait;
            return StepOutcome::Block(BlockingCall::Wait);
        }
        StepOutcome::Exit(0)
    }

    /// Pre-draws the next child's service time and issues the fork.
    fn issue_fork(&mut self) -> StepOutcome {
        self.next_service_ns =
            self.cfg.service_base_ns + self.exp_draw(self.cfg.service_jitter_mean_ns);
        self.issued = Issued::Fork;
        StepOutcome::Fork
    }

    /// Re-issues a failed fork (service time already drawn).
    fn refork(&mut self) -> StepOutcome {
        self.issued = Issued::Fork;
        StepOutcome::Fork
    }
}

impl Program for StormZygote {
    fn resume(&mut self, _env: &mut dyn Env, input: Resume) -> StepOutcome {
        if self.role == Role::Child {
            // A worker: its whole life is one pre-drawn service sleep.
            return match input {
                Resume::Ret(Ok(_)) => StepOutcome::Exit(0),
                _ => StepOutcome::Exit(1),
            };
        }
        match input {
            Resume::Start => self.next_arrival_or_drain(),
            Resume::Forked(ForkResult::Child) => {
                self.role = Role::Child;
                StepOutcome::Block(BlockingCall::Sleep {
                    ns: self.next_service_ns,
                })
            }
            Resume::Forked(ForkResult::Parent(_)) => {
                self.launched += 1;
                self.outstanding += 1;
                self.retry_streak = 0;
                self.next_arrival_or_drain()
            }
            Resume::Ret(Ok(_)) => match self.issued {
                Issued::Arrival => self.issue_fork(),
                Issued::Backoff => self.refork(),
                Issued::Wait => {
                    self.outstanding -= 1;
                    self.completed += 1;
                    if self.outstanding > 0 {
                        StepOutcome::Block(BlockingCall::Wait)
                    } else {
                        StepOutcome::Exit(0)
                    }
                }
                _ => StepOutcome::Exit(3),
            },
            Resume::Ret(Err(_)) => {
                if self.issued != Issued::Fork {
                    return StepOutcome::Exit(4);
                }
                // Fork failed (memory pressure, journal abort, injected
                // fault): back off linearly and retry the same arrival.
                self.retries += 1;
                self.retry_streak += 1;
                if self.retry_streak > self.cfg.max_fork_retries {
                    return StepOutcome::Exit(2);
                }
                self.issued = Issued::Backoff;
                StepOutcome::Block(BlockingCall::Sleep {
                    ns: 50_000.0 * f64::from(self.retry_streak),
                })
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Storm metrics distilled from a finished run.
#[derive(Clone, Copy, Debug)]
pub struct StormReport {
    /// Configured children.
    pub children: u32,
    /// Children reaped by the zygote.
    pub completed: u32,
    /// Fork failures absorbed by retrying.
    pub retries: u32,
    /// Simulated end time of the run (ns).
    pub final_ns: f64,
    /// Median fork latency (ns).
    pub p50_fork_ns: f64,
    /// 99th-percentile fork latency (ns).
    pub p99_fork_ns: f64,
    /// Mean fork latency (ns).
    pub mean_fork_ns: f64,
    /// Fork throughput over the whole run.
    pub forks_per_sim_sec: f64,
    /// Inverse throughput (ns of simulated time per completed fork) —
    /// the gate-friendly bigger-is-worse form.
    pub sim_ns_per_fork: f64,
    /// Maximum simultaneously-live children (birth/death sweep over the
    /// event logs). Equals `children` when the storm truly overlapped.
    pub peak_live: u32,
    /// FNV-1a digest over the complete fork + exit event logs; two runs
    /// are bit-identical iff their digests (and `final_ns`) match.
    pub digest: u64,
}

/// Nearest-rank percentile of a sample sorted in ascending order (0 for
/// an empty one).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distills a finished storm run into a [`StormReport`].
pub fn summarize(
    zygote_pid: Pid,
    fork_log: &[ForkEvent],
    exit_log: &[ExitEvent],
    zygote: &StormZygote,
    final_ns: f64,
) -> StormReport {
    let mut lats: Vec<f64> = fork_log.iter().map(|f| f.latency_ns).collect();
    lats.sort_unstable_by(f64::total_cmp);
    let mean = if lats.is_empty() {
        0.0
    } else {
        lats.iter().sum::<f64>() / lats.len() as f64
    };

    // Concurrency sweep: +1 at each child's birth, -1 at its exit. At
    // equal timestamps deaths are applied first, so the peak is the
    // conservative count.
    let mut deltas: Vec<(u64, i32)> = Vec::with_capacity(fork_log.len() + exit_log.len());
    for f in fork_log {
        deltas.push((f.at.to_bits(), 1));
    }
    for e in exit_log {
        if e.pid != zygote_pid {
            deltas.push((e.at.to_bits(), -1));
        }
    }
    deltas.sort_unstable();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, d) in deltas {
        live += i64::from(d);
        peak = peak.max(live);
    }

    // FNV-1a over the full event history.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in fork_log {
        mix(u64::from(f.parent.0));
        mix(u64::from(f.child.0));
        mix(f.at.to_bits());
        mix(f.latency_ns.to_bits());
    }
    for e in exit_log {
        mix(u64::from(e.pid.0));
        mix(e.at.to_bits());
        mix(e.code as u32 as u64);
    }

    let forks = fork_log.len() as f64;
    StormReport {
        children: zygote.cfg.children,
        completed: zygote.completed,
        retries: zygote.retries,
        final_ns,
        p50_fork_ns: percentile(&lats, 0.50),
        p99_fork_ns: percentile(&lats, 0.99),
        mean_fork_ns: mean,
        forks_per_sim_sec: if final_ns > 0.0 {
            forks / (final_ns / 1e9)
        } else {
            0.0
        },
        sim_ns_per_fork: if forks > 0.0 { final_ns / forks } else { 0.0 },
        peak_live: peak.try_into().unwrap_or(u32::MAX),
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_draws_are_seed_deterministic_and_positive() {
        let mut a = StormZygote::new(StormConfig::standard(10, 42));
        let mut b = StormZygote::new(StormConfig::standard(10, 42));
        for _ in 0..1000 {
            let x = a.exp_draw(100_000.0);
            let y = b.exp_draw(100_000.0);
            assert_eq!(x.to_bits(), y.to_bits());
            assert!(x > 0.0 && x.is_finite());
        }
        let mut c = StormZygote::new(StormConfig::standard(10, 43));
        assert_ne!(
            a.exp_draw(100_000.0).to_bits(),
            c.exp_draw(100_000.0).to_bits(),
            "different seeds diverge"
        );
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut z = StormZygote::new(StormConfig::standard(10, 7));
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| z.exp_draw(100_000.0)).sum();
        let mean = sum / f64::from(n);
        assert!(
            (80_000.0..120_000.0).contains(&mean),
            "sample mean {mean} too far from 100000"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn standard_config_guarantees_full_overlap() {
        // The service base must exceed any plausible arrival span:
        // children × mean gap, with 3x headroom for fork service time.
        let cfg = StormConfig::standard(10_000, 1);
        assert!(cfg.service_base_ns > 3.0 * f64::from(cfg.children) * cfg.arrival_mean_ns);
    }
}
