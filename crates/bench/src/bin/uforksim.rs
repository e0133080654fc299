//! `uforksim` — run any workload on any of the three simulated OSes.
//!
//! ```text
//! uforksim <workload> [options]
//!
//! workloads:
//!   hello                       fork once, exit
//!   spawn [N]                   Unixbench Spawn (default 1000)
//!   context1 [N]                Unixbench Context1 round trips (default 100000)
//!   redis [ENTRIES] [VAL_KB]    snapshot benchmark (default 100 x 100KB)
//!   faas [CORES]                Zygote FaaS window (default 2 worker cores)
//!   nginx [WORKERS]             web workers, 1 core (default 3)
//!   shell                       fork+exec demo
//!   forkserver [N]              fuzzing fork server (default 100 execs)
//!   privsep [N]                 privilege-separated broker (default 20 msgs)
//!
//! options:
//!   --os ufork|cheribsd|nephele   (default ufork)
//!   --strategy copa|coa|full      (default copa)
//!   --isolation none|fault|full   (default full)
//!   --cores N                     (default 1)
//! ```

use std::env;
use std::process::exit;

use ufork_abi::{CopyStrategy, Fd, ImageSpec, IsolationLevel};
use ufork_bench::{AnyMachine, Sys};
use ufork_exec::{ConnTemplate, MachineConfig};
use ufork_workloads::faas::{FaasConfig, Zygote};
use ufork_workloads::forkserver::{ForkServer, ForkServerConfig};
use ufork_workloads::hello::HelloWorld;
use ufork_workloads::nginx::{Nginx, NginxConfig};
use ufork_workloads::privsep::{Privsep, PrivsepConfig};
use ufork_workloads::redis::{RedisConfig, RedisServer};
use ufork_workloads::shell::{Command, Shell};
use ufork_workloads::ubench::{Context1, SpawnBench};

fn usage() -> ! {
    eprintln!(
        "usage: uforksim <hello|spawn|context1|redis|faas|nginx|shell|forkserver|privsep> \
         [args] [--os ufork|cheribsd|nephele] [--strategy copa|coa|full] \
         [--isolation none|fault|full] [--cores N]"
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut workload = String::new();
    let mut positional: Vec<u64> = Vec::new();
    let mut os_name = "ufork".to_string();
    let mut strategy = CopyStrategy::CoPA;
    let mut isolation = IsolationLevel::Full;
    let mut cores = 1usize;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--os" => os_name = it.next().unwrap_or_else(|| usage()),
            "--strategy" => {
                strategy = match it.next().as_deref() {
                    Some("copa") => CopyStrategy::CoPA,
                    Some("coa") => CopyStrategy::CoA,
                    Some("full") => CopyStrategy::Full,
                    _ => usage(),
                }
            }
            "--isolation" => {
                isolation = match it.next().as_deref() {
                    Some("none") => IsolationLevel::None,
                    Some("fault") => IsolationLevel::Fault,
                    Some("full") => IsolationLevel::Full,
                    _ => usage(),
                }
            }
            "--cores" => {
                cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ if workload.is_empty() => workload = a,
            _ => match a.parse() {
                Ok(v) => positional.push(v),
                Err(_) => usage(),
            },
        }
    }

    let sys = match os_name.as_str() {
        "ufork" => Sys::Ufork(strategy, isolation),
        "cheribsd" | "mono" => Sys::Mono,
        "nephele" => Sys::Nephele,
        _ => usage(),
    };

    let mut mcfg = MachineConfig {
        cores,
        ..MachineConfig::default()
    };

    let p = |i: usize, d: u64| positional.get(i).copied().unwrap_or(d);

    // Build machine + workload.
    let (mut m, pid, window) = match workload.as_str() {
        "hello" => {
            let mut m = AnyMachine::build(sys, 256, mcfg);
            let pid = m
                .spawn(&ImageSpec::hello_world(), Box::new(HelloWorld::forking()))
                .expect("spawn");
            (m, pid, None)
        }
        "spawn" => {
            let mut m = AnyMachine::build(sys, 256, mcfg);
            #[allow(clippy::cast_possible_truncation)]
            let n = p(0, 1000) as u32;
            let pid = m
                .spawn(&ImageSpec::hello_world(), Box::new(SpawnBench::new(n)))
                .expect("spawn");
            (m, pid, None)
        }
        "context1" => {
            let mut m = AnyMachine::build(sys, 256, mcfg);
            let pid = m
                .spawn(
                    &ImageSpec::hello_world(),
                    Box::new(Context1::new(p(0, 100_000) * 2)),
                )
                .expect("spawn");
            (m, pid, None)
        }
        "redis" => {
            let rcfg = RedisConfig::sized(p(0, 100), p(1, 100) * 1000);
            let phys = ((3 * rcfg.heap_bytes()) / (1 << 20) + 128) as u32;
            let img = ImageSpec::with_heap("redis", rcfg.heap_bytes());
            let mut m = AnyMachine::build(sys, phys, mcfg);
            let pid = m
                .spawn(&img, Box::new(RedisServer::new(rcfg)))
                .expect("spawn");
            (m, pid, None)
        }
        "faas" => {
            #[allow(clippy::cast_possible_truncation)]
            let w = p(0, 2) as u32;
            mcfg.cores = w as usize + 1;
            mcfg.child_affinity = Some((1..=w as usize).collect());
            let mut m = AnyMachine::build(sys, 512, mcfg);
            let mut fcfg = FaasConfig::for_cores(w);
            fcfg.window_ns = 1e9;
            let img = ImageSpec::with_heap("micropython", 2 << 20);
            let pid = m.spawn(&img, Box::new(Zygote::new(fcfg))).expect("spawn");
            m.set_affinity(pid, vec![0]);
            (m, pid, Some(1e9))
        }
        "nginx" => {
            #[allow(clippy::cast_possible_truncation)]
            let w = p(0, 3) as u32;
            mcfg.time_limit = Some(0.5e9);
            let mut m = AnyMachine::build(sys, 512, mcfg);
            let img = ImageSpec::with_heap("nginx", 4 << 20);
            let ncfg = NginxConfig {
                workers: w,
                ..NginxConfig::default()
            };
            let pid = m
                .spawn(&img, Box::new(Nginx::new(ncfg, Fd(3))))
                .expect("spawn");
            m.install_listener(
                pid,
                ConnTemplate {
                    requests_per_conn: 64,
                    req_bytes: 128,
                    think_ns: 4_500.0,
                },
                u64::MAX / 2,
            )
            .expect("listener");
            (m, pid, Some(0.5e9))
        }
        "shell" => {
            let mut m = AnyMachine::build(sys, 256, mcfg);
            let cmds = (0..p(0, 3))
                .map(|i| Command {
                    output: format!("out/cmd{i}.txt"),
                    ops: 10_000,
                    code: 0,
                })
                .collect();
            let pid = m
                .spawn(&ImageSpec::hello_world(), Box::new(Shell::new(cmds)))
                .expect("spawn");
            (m, pid, None)
        }
        "forkserver" => {
            let mut m = AnyMachine::build(sys, 256, mcfg);
            #[allow(clippy::cast_possible_truncation)]
            let n = p(0, 100) as u32;
            let cfg = ForkServerConfig {
                executions: n,
                ..ForkServerConfig::default()
            };
            let pid = m
                .spawn(&ImageSpec::hello_world(), Box::new(ForkServer::new(cfg)))
                .expect("spawn");
            (m, pid, None)
        }
        "privsep" => {
            let mut m = AnyMachine::build(sys, 256, mcfg);
            #[allow(clippy::cast_possible_truncation)]
            let n = p(0, 20) as u32;
            let cfg = PrivsepConfig {
                messages: n,
                ..PrivsepConfig::default()
            };
            let pid = m
                .spawn(&ImageSpec::hello_world(), Box::new(Privsep::new(cfg)))
                .expect("spawn");
            (m, pid, None)
        }
        _ => usage(),
    };

    m.run();

    println!(
        "workload:   {workload} on {} ({cores} core(s))",
        sys.label()
    );
    println!("init exit:  {:?}", m.exit_code(pid));
    println!("sim time:   {:.3} ms", m.now() / 1e6);
    if let Some(w) = window {
        println!("window:     {:.1} s simulated", w / 1e9);
    }
    if !m.fork_log().is_empty() {
        let mean =
            m.fork_log().iter().map(|f| f.latency_ns).sum::<f64>() / m.fork_log().len() as f64;
        println!(
            "forks:      {} (mean latency {:.1} µs)",
            m.fork_log().len(),
            mean / 1e3
        );
    }
    if m.total_served() > 0 {
        println!("served:     {} requests", m.total_served());
    }
    println!("processes:  {} exited", m.exit_log().len());
    println!(
        "frames:     {} allocated (peak {})",
        m.allocated_frames(),
        m.peak_frames()
    );
    println!("\ncounters:\n{}", {
        // Indent the display.
        let s = format!("{}", {
            let c = m.counters();
            *c
        });
        s.lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    });
}
