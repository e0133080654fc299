//! The two kinds of invocation: an untraced run for the end-to-end
//! metrics, and a traced run for the per-layer split.

use std::time::{Duration, Instant};

use ufork::{UforkConfig, UforkOs};

use crate::ladder::{self, Rung};
use crate::report::{peak_rss_mib, Metric, Outcome};
use crate::scenario::{run_rep, setup_cpu, Rep, Scenario, SimResult};
use crate::stats::{median, percentile, ratio};
use crate::timed::{calibrate, Kind, KindTotals, Timed, TimerCost};

/// Measured repetitions made even when the window is shorter, so that
/// every slice has a quiet repetition to take its time from.
const MIN_REPS: usize = 3;
/// Slices the operation phase of a repetition is timed in.
const SLICES: u64 = 32;
/// Host time spent on set-up samples after each repetition, so the
/// samples spread over the whole window rather than one stretch of it.
const SETUP_BUDGET: Duration = Duration::from_millis(80);
/// CPU time a set-up sample should take at least; shorter set-ups are
/// made in batches.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);

/// Kernel trace phases reported as shares, with their metric names.
const PHASES: [(&str, &str); 12] = [
    ("fork/fixed", "sim.fork.fixed_share"),
    ("fork/admission", "sim.fork.admission_share"),
    ("fork/dirty_scan", "sim.fork.dirty_scan_share"),
    ("fork/walk/pte", "sim.fork.walk.pte_share"),
    ("fork/walk/copy", "sim.fork.walk.copy_share"),
    ("fork/walk/reloc", "sim.fork.walk.reloc_share"),
    ("fork/regs", "sim.fork.regs_share"),
    ("fault/entry", "sim.fault.entry_share"),
    ("fault/copy", "sim.fault.copy_share"),
    ("fault/pte", "sim.fault.pte_share"),
    ("fault/reloc", "sim.fault.reloc_share"),
    ("(unattributed)", "sim.unattributed_share"),
];

/// Measures `s` for about `seconds`, traced or not.
pub fn measure<S: Scenario>(s: &S, seconds: f64, trace: bool) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = if trace {
        traced(s, deadline, ladder::run)
    } else {
        plain(s, deadline)
    };
    out.problems.extend(s.cross_checks());
    out.correct = out.problems.is_empty();
    out
}

/// Every run's simulated result, checked against the first.
#[derive(Default)]
struct Runs {
    first: Option<(SimResult, u64)>,
    count: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Runs {
    fn add(&mut self, sim: SimResult, what: &str) {
        self.count += 1;
        self.attempted += sim.ops;
        self.failed += sim.failed;
        let fp = sim.fingerprint();
        match &self.first {
            None => {
                self.problems.extend(sim.problems.iter().cloned());
                self.first = Some((sim, fp));
            }
            Some((_, first)) if *first != fp => self.problems.push(format!(
                "{what} (run {}) is not bit-identical to the first run",
                self.count
            )),
            Some(_) => {}
        }
    }

    fn sim(&self) -> &SimResult {
        &self.first.as_ref().expect("at least one run").0
    }

    fn outcome(self, metrics: Vec<Metric>, info: Vec<String>) -> Outcome {
        Outcome {
            correct: false,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
            info,
        }
    }
}

/// A simulated-latency percentile in µs, or 0 with a problem when too
/// few samples lie beyond it.
fn latency_us(name: &str, sorted: &[f64], q: f64, problems: &mut Vec<String>) -> Metric {
    match percentile(sorted, q) {
        Some(p) => Metric::new(name, p.value / 1e3, "us").note(format!(
            "nearest rank of {} samples, {} beyond",
            p.samples, p.beyond
        )),
        None => {
            problems.push(format!("{name}: too few samples ({})", sorted.len()));
            Metric::new(name, 0.0, "us")
        }
    }
}

/// The untraced run: one warm-up, then repetitions until the deadline,
/// each followed by set-up samples.
///
/// Every repetition does the same work step for step, so slice `i` of
/// one repetition is slice `i` of every other. Host throughput takes
/// each slice's least CPU time over the repetitions: on a shared host,
/// neighbours slow stretches of a run (the thread's CPU time grows while
/// it waits on a contended cache or core) and the quiet repetition of
/// each stretch shows what the code itself costs.
fn plain<S: Scenario>(s: &S, deadline: Instant) -> Outcome {
    let mut runs = Runs::default();
    let warm = run_rep(s, |os| os, u64::MAX, |_| {});
    let slice_steps = warm.steps.div_ceil(SLICES).max(1);
    let batch = (SETUP_SAMPLE.as_secs_f64() / warm.setup.cpu.as_secs_f64().max(1e-9))
        .ceil()
        .clamp(1.0, 1000.0) as u32;
    runs.add(warm.sim, "warm-up");
    drop(warm.machine);
    let (mut rates, mut best, mut setups) = (Vec::new(), Vec::<Duration>::new(), Vec::new());
    loop {
        let r = run_rep(s, |os| os, slice_steps, |_| {});
        rates.push(r.sim.ops as f64 / r.run.cpu.as_secs_f64());
        if best.is_empty() {
            best = r.slices;
        } else {
            best.iter_mut()
                .zip(r.slices)
                .for_each(|(b, x)| *b = (*b).min(x));
        }
        let took = r.setup.wall + r.run.wall + SETUP_BUDGET;
        runs.add(r.sim, "repetition");
        drop(r.machine);
        let started = Instant::now();
        loop {
            setups.push(setup_cpu(s, batch).as_secs_f64());
            if started.elapsed() >= SETUP_BUDGET {
                break;
            }
        }
        if rates.len() >= MIN_REPS && Instant::now() + took > deadline {
            break;
        }
    }
    let reps = rates.len();

    let sim = runs.sim();
    let mut problems = Vec::new();
    let t = &sim.total;
    let best_cpu: f64 = best.iter().map(Duration::as_secs_f64).sum();
    let metrics = vec![
        Metric::new("host_ops_per_cpu_s", sim.ops as f64 / best_cpu, "1/s").note(format!(
            "op = {}; least CPU time of each of {} slices over {reps} runs",
            S::OP,
            best.len()
        )),
        Metric::new("host_peak_rss_mib", peak_rss_mib(), "MiB"),
        Metric::new("setup_s", median(&setups), "s").note(format!(
            "median of {} samples of {batch} set-ups, {:.6} to {:.6}",
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        )),
        Metric::new("sim_ops_per_s", sim.ops as f64 / (sim.span / 1e9), "1/s"),
        latency_us("sim_op_p50_us", &sim.op_lat, 0.5, &mut problems),
        latency_us("sim_op_p99_us", &sim.op_lat, 0.99, &mut problems),
        Metric::new(
            "sim_child_kib",
            ratio(t.pages_copied as f64 * 4.0, t.forks as f64),
            "KiB",
        ),
    ];
    let per_run: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    let mut info = vec![
        format!("{reps} measured runs after one warm-up, every run checked"),
        format!("host ops per CPU second, per run: {}", per_run.join(" ")),
    ];
    info.extend(fork_call_lines(sim));
    let mut out = runs.outcome(metrics, info);
    out.problems.extend(problems);
    out
}

/// Fork-call latency percentiles, for the table.
fn fork_call_lines(sim: &SimResult) -> Vec<String> {
    [0.5, 0.99]
        .iter()
        .map(|&q| match percentile(&sim.fork_lat, q) {
            Some(p) => format!(
                "sim fork call p{:.0}: {:.3} us ({} samples, {} beyond)",
                q * 100.0,
                p.value / 1e3,
                p.samples,
                p.beyond
            ),
            None => format!(
                "sim fork call p{:.0}: not reported ({} forks)",
                q * 100.0,
                sim.fork_lat.len()
            ),
        })
        .collect()
}

/// The traced run: after one warm-up, untraced and traced repetitions
/// alternate until the deadline; every traced result must equal the
/// untraced one bit for bit.
fn traced<S: Scenario>(s: &S, deadline: Instant, ladder: impl FnOnce() -> Vec<Rung>) -> Outcome {
    let cost = calibrate(
        &mut Timed::new(UforkOs::new(UforkConfig {
            phys_mib: 1,
            ..UforkConfig::default()
        })),
        100_000,
    );
    let mut runs = Runs::default();
    let warm = run_rep(s, |os| os, u64::MAX, |_| {});
    runs.add(warm.sim, "warm-up");
    drop(warm.machine);
    let (mut plain_walls, mut traced_walls, mut layer_runs) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let p = run_rep(s, |os| os, u64::MAX, |_| {});
        plain_walls.push(p.run.wall.as_secs_f64());
        let p_took = p.setup.wall + p.run.wall;
        runs.add(p.sim, "untraced run");
        drop(p.machine);

        let mut at_ready = KindTotals::default();
        let t = run_rep(s, Timed::new, u64::MAX, |m| {
            at_ready = m.os.totals();
            m.os.reset_trace();
        });
        traced_walls.push(t.run.wall.as_secs_f64());
        layer_runs.push(host_layers(&t, &at_ready, cost));
        let took = p_took + t.setup.wall + t.run.wall;
        runs.add(t.sim, "traced run");
        if Instant::now() + took > deadline {
            break;
        }
    }

    let mut metrics: Vec<Metric> = (0..layer_runs[0].len())
        .map(|i| {
            let first = &layer_runs[0][i];
            let values: Vec<f64> = layer_runs.iter().map(|l| l[i].value).collect();
            Metric::new(first.name.clone(), median(&values), first.unit)
        })
        .collect();
    metrics.extend(sim_layers(runs.sim()));
    metrics.push(
        Metric::new(
            "bench.trace_overhead",
            median(&traced_walls) / median(&plain_walls),
            "ratio",
        )
        .note("traced / untraced operation-phase wall time"),
    );
    for rung in ladder() {
        metrics.push(
            Metric::new(rung.name, rung.ns, "ns").note(format!("explains {}", rung.explains)),
        );
    }
    let info = vec![
        format!(
            "{} untraced + {} traced runs after one warm-up; timer cost {:.1} ns per call ({:.1} ns inside)",
            plain_walls.len(),
            traced_walls.len(),
            cost.total_ns,
            cost.inside_ns
        ),
        "host shares are of operation-phase wall time, timer cost subtracted".into(),
    ];
    runs.outcome(metrics, info)
}

/// Host-clock layer metrics of one traced run.
fn host_layers(t: &Rep<Timed<UforkOs>>, at_ready: &KindTotals, cost: TimerCost) -> Vec<Metric> {
    let ops = t.sim.ops as f64;
    let run = t.machine.os.totals().since(at_ready);
    let kind_ns = |tot: &KindTotals, k: Kind| {
        (tot.ns[k as usize] as f64 - tot.calls[k as usize] as f64 * cost.inside_ns).max(0.0)
    };
    let wall = (t.run.wall.as_nanos() as f64 - run.total_calls() as f64 * cost.total_ns).max(1.0);
    let inside: f64 = Kind::ALL.iter().map(|&k| kind_ns(&run, k)).sum();
    let exec = (wall - inside).max(0.0);

    let mut m = vec![
        Metric::new("exec.host_share", exec / wall, "ratio"),
        Metric::new("exec.host_ns_per_step", ratio(exec, t.steps as f64), "ns"),
        Metric::new("exec.steps_per_op", ratio(t.steps as f64, ops), "count"),
    ];
    for k in [Kind::Fork, Kind::Destroy] {
        let per_call = ratio(kind_ns(&run, k), run.calls[k as usize] as f64) / 1e3;
        m.push(Metric::new(
            format!("core.{}.host_us_per_call", k.name()),
            per_call,
            "us",
        ));
    }
    for k in Kind::ALL {
        m.push(Metric::new(
            format!("core.{}.host_share", k.name()),
            kind_ns(&run, k) / wall,
            "ratio",
        ));
    }
    for k in [Kind::Access, Kind::Heap] {
        let per_op = ratio(run.calls[k as usize] as f64, ops);
        m.push(Metric::new(
            format!("core.{}.calls_per_op", k.name()),
            per_op,
            "count",
        ));
    }
    let setup_wall =
        (t.setup.wall.as_nanos() as f64 - at_ready.total_calls() as f64 * cost.total_ns).max(1.0);
    for k in [Kind::Access, Kind::Heap] {
        let share = kind_ns(at_ready, k) / setup_wall;
        m.push(Metric::new(
            format!("setup.{}_share", k.name()),
            share,
            "ratio",
        ));
    }
    let trace = t.machine.os.trace();
    let charged = trace.charged_total();
    let phase_total = |name: &str| {
        trace
            .phases()
            .iter()
            .filter(|p| p.name == name)
            .fold(0.0, |acc, p| acc + p.total_ns)
    };
    let mut named = 0.0;
    for (phase, metric) in PHASES {
        let ns = phase_total(phase);
        named += ns;
        m.push(Metric::new(metric, ratio(ns, charged), "ratio"));
    }
    m.push(Metric::new(
        "sim.other_phases_share",
        ratio(charged - named, charged).max(0.0),
        "ratio",
    ));
    m
}

/// Per-layer metrics read off the simulated result (identical in every
/// run).
fn sim_layers(sim: &SimResult) -> Vec<Metric> {
    let ops = sim.ops as f64;
    let c = &sim.counters;
    let per_op = |name: &str, v: u64| Metric::new(name, v as f64 / ops, "count");
    let lateness = percentile(&sim.lateness, 0.99).map_or(0.0, |p| ratio(p.value, sim.arrival_gap));
    vec![
        per_op("exec.syscalls_per_op", c.syscalls),
        per_op("exec.ctx_switches_per_op", c.ctx_switches),
        Metric::new(
            "exec.ring_stall_ratio",
            ratio(
                c.ring_full_stalls as f64,
                (c.ring_msgs + c.ring_full_stalls) as f64,
            ),
            "ratio",
        ),
        per_op("vmem.ptes_written_per_op", c.ptes_written),
        per_op("core.pages_copied_per_op", c.pages_copied),
        per_op("core.caps_relocated_per_op", c.caps_relocated),
        per_op("core.cap_load_faults_per_op", c.cap_load_faults),
        per_op("core.cow_faults_per_op", c.cow_faults),
        per_op("core.pages_dirty_copied_per_op", c.pages_dirty_copied),
        per_op("core.pages_shared_clean_per_op", c.pages_shared_clean),
        Metric::new(
            "core.reloc.granule_skip_ratio",
            ratio(
                c.granules_skipped as f64,
                (c.granules_skipped + c.granules_scanned) as f64,
            ),
            "ratio",
        ),
        Metric::new("load.lateness_p99_per_gap", lateness, "ratio")
            .note("generator lateness p99 / mean arrival gap; 0 for closed loops"),
        Metric::new("load.peak_live", sim.peak_live as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::ladder::RUNGS;
    use crate::workloads::storm::Storm;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `list`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid BENCHMARK.json");
        doc.get(list)
            .and_then(Json::arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn runs_report_exactly_the_declared_metrics() {
        let storm = Storm::scaled(200, 3);
        let plain = plain(&storm, Instant::now());
        assert_eq!(reported(&plain), declared("end_to_end"));
        let fake_ladder = || {
            RUNGS
                .iter()
                .map(|&(name, explains)| Rung {
                    name,
                    explains,
                    ns: 1.0,
                })
                .collect()
        };
        let traced = traced(&storm, Instant::now(), fake_ladder);
        assert_eq!(reported(&traced), declared("per_layer"));
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
    }
}
