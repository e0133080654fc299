//! `repro` — regenerates every table and figure of the μFork evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [table1|fig3|...|fig9|ablations|scaling|snapshot|pressure|storm|ring|trace|bench-json|all] [--quick]
//! ```
//!
//! `--quick` shrinks iteration counts / windows (CI-friendly); the default
//! runs the paper's parameters. All times are *simulated* (see DESIGN.md).
//! An unknown subcommand or flag prints the usage and exits with status 2.
//!
//! `trace` and `bench-json` are not part of `all`. `trace` prints the
//! per-phase fork breakdown, writes `TRACE_fork.json` at the repo root and
//! rewrites the marker-delimited trace section of `EXPERIMENTS.md`.
//! `bench-json` runs every bench family at full scale, with its gates,
//! and writes `BENCH_fork.json` at the repo root.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process;

use ufork_bench::report::{num, render_table, size_label};
use ufork_bench::{
    ablation_aslr, ablation_eager_vs_lazy, ablation_fork_vs_exec, ablation_isolation_sweep,
    ablation_naive_scan, bench_fork_json, fig6, fig7, fig8, fig9, fork_frontier_sweep,
    fork_scaling_sweep, pressure_storm, pressure_sweep, redis_sweep, ring_fork_sweep,
    ring_service_sweep, snapshot_train_sweep, storm_sweep, table1, trace_chrome_json,
    trace_fork_runs, trace_summary_text, zygote_fleet_sweep, AblationRow, RedisRow,
    PRESSURE_CHILDREN, PRESSURE_P99_LIMIT, PRESSURE_SEED, STORM_CHILDREN, STORM_CORES, STORM_SEED,
};

/// Every subcommand `repro` accepts, as the usage line spells them.
const SUBCOMMANDS: &str = "table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablations|scaling|snapshot|\
                           pressure|storm|ring|trace|bench-json|all";

/// Prints `msg` and the usage line to stderr, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\nusage: repro [{SUBCOMMANDS}] [--quick]");
    process::exit(2)
}

/// The repository root, where the generated artifacts live.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn print_ablation(title: &str, rows: &[AblationRow]) {
    println!("== Ablation: {title} ==");
    for r in rows {
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v, u)| format!("{n}: {}{u}", num(*v)))
            .collect();
        println!("  {:<42} {}", r.label, metrics.join("  |  "));
    }
    println!();
}

fn print_table1() {
    println!("== Table 1: SASOS fork systems comparison ==");
    let rows = table1();
    let headers: Vec<&str> = rows[0].to_vec();
    let body: Vec<Vec<String>> = rows[1..]
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    println!("{}", render_table(&headers, &body));
}

fn redis_rows(quick: bool) -> Vec<RedisRow> {
    if quick {
        ufork_bench::redis_sizes()
            .into_iter()
            .take(2)
            .flat_map(|(e, v)| {
                ufork_bench::redis_systems()
                    .into_iter()
                    .map(move |s| ufork_bench::redis_run(s, e, v))
            })
            .collect()
    } else {
        redis_sweep()
    }
}

fn print_redis(rows: &[RedisRow], metric: &str) {
    let mut sizes: Vec<u64> = rows.iter().map(|r| r.db_bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut systems: Vec<String> = Vec::new();
    for r in rows {
        if !systems.contains(&r.system) {
            systems.push(r.system.clone());
        }
    }
    let mut headers = vec!["DB size".to_string()];
    headers.extend(systems.iter().cloned());
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let body: Vec<Vec<String>> = sizes
        .iter()
        .map(|sz| {
            let mut cells = vec![size_label(*sz)];
            for sysname in &systems {
                let cell = rows
                    .iter()
                    .find(|r| r.db_bytes == *sz && &r.system == sysname)
                    .map(|r| match metric {
                        "save_ms" => num(r.save_ms),
                        "fork_us" => num(r.fork_us),
                        _ => num(r.mem_mb),
                    })
                    .unwrap_or_else(|| "-".to_string());
                cells.push(cell);
            }
            cells
        })
        .collect();
    println!("{}", render_table(&headers_ref, &body));
}

/// Rewrites the `<!-- trace:begin -->` … `<!-- trace:end -->` block of
/// `EXPERIMENTS.md` with the freshly measured per-phase summary.
fn update_experiments(path: &Path, summary: &str) {
    const BEGIN: &str = "<!-- trace:begin -->";
    const END: &str = "<!-- trace:end -->";
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            eprintln!(
                "warning: {} not found, skipping doc refresh",
                path.display()
            );
            return;
        }
    };
    let (Some(b), Some(e)) = (text.find(BEGIN), text.find(END)) else {
        eprintln!(
            "warning: trace markers missing in {}, skipping doc refresh",
            path.display()
        );
        return;
    };
    if e < b {
        eprintln!("warning: malformed trace markers in {}", path.display());
        return;
    }
    let new = format!("{}{BEGIN}\n\n{}{}", &text[..b], summary, &text[e..]);
    fs::write(path, new).expect("rewrite EXPERIMENTS.md");
    println!("updated {} (trace section)", path.display());
}

/// `repro trace`: per-phase fork-latency breakdown from the
/// simulated-time trace layer (paper-style, in place of PMU counters).
fn run_trace() {
    println!("== Per-phase fork-latency breakdown (simulated-time trace) ==");
    let runs = trace_fork_runs();
    let summary = trace_summary_text(&runs);
    print!("{summary}");

    let root = repo_root();
    let json_path = root.join("TRACE_fork.json");
    fs::write(&json_path, trace_chrome_json(&runs)).expect("write TRACE_fork.json");
    println!("wrote {}", json_path.display());
    update_experiments(&root.join("EXPERIMENTS.md"), &summary);
}

/// `repro bench-json`: regenerates `BENCH_fork.json` at the repo root.
fn run_bench_json() {
    let path = repo_root().join("BENCH_fork.json");
    fs::write(&path, bench_fork_json()).expect("write BENCH_fork.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut quick = false;
    let mut what: Option<String> = None;
    for arg in env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if what.is_none() && SUBCOMMANDS.split('|').any(|s| s == arg) {
            what = Some(arg);
        } else {
            usage_error(&format!("unexpected argument `{arg}`"));
        }
    }
    let what = what.unwrap_or_else(|| "all".to_string());
    if what == "bench-json" {
        if quick {
            usage_error("bench-json always runs at full scale; drop --quick");
        }
        run_bench_json();
        return;
    }

    let mut redis_cache: Option<Vec<RedisRow>> = None;
    let mut redis = |quick: bool| -> Vec<RedisRow> {
        if redis_cache.is_none() {
            redis_cache = Some(redis_rows(quick));
        }
        redis_cache.clone().unwrap()
    };

    let all = what == "all";
    if all || what == "table1" {
        print_table1();
    }
    if all || what == "fig3" || what == "fig4" || what == "fig5" {
        let rows = redis(quick);
        if all || what == "fig3" {
            println!("== Figure 3: Redis DB overall save times (ms) ==");
            print_redis(&rows, "save_ms");
        }
        if all || what == "fig4" {
            println!("== Figure 4: Redis fork latency (µs) ==");
            print_redis(&rows, "fork_us");
        }
        if all || what == "fig5" {
            println!("== Figure 5: Redis forked-process memory consumption (MB) ==");
            print_redis(&rows, "mem_mb");
        }
    }
    if all || what == "fig6" {
        println!("== Figure 6: FaaS function throughput (functions/s) ==");
        let window = if quick { 0.2e9 } else { 1.0e9 };
        let rows = fig6(window);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.system.clone(), r.cores.to_string(), num(r.throughput)])
            .collect();
        println!(
            "{}",
            render_table(&["System", "Worker cores", "Functions/s"], &body)
        );
    }
    if all || what == "fig7" {
        println!("== Figure 7: Nginx throughput (requests/s) ==");
        let window = if quick { 0.1e9 } else { 0.5e9 };
        let rows = fig7(window);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.system.clone(),
                    r.cores.to_string(),
                    r.workers.to_string(),
                    num(r.throughput),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["System", "Cores", "Workers", "Requests/s"], &body)
        );
    }
    if all || what == "fig8" {
        println!("== Figure 8: hello-world fork latency and memory ==");
        let rows = fig8();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.system.clone(), num(r.fork_us), format!("{:.2}", r.mem_mb)])
            .collect();
        println!(
            "{}",
            render_table(&["System", "fork latency (µs)", "child memory (MB)"], &body)
        );
    }
    if all || what == "ablations" {
        print_ablation("fork vs fork+exec (U1)", &ablation_fork_vs_exec());
        print_ablation("isolation levels (R4)", &ablation_isolation_sweep());
        print_ablation(
            "eager vs lazy GOT/metadata copy (paper §3.5)",
            &ablation_eager_vs_lazy(),
        );
        print_ablation("region ASLR (paper §3.7)", &ablation_aslr());
        print_ablation(
            "naive granule sweep vs tag-summary scan (CLoadTags)",
            &ablation_naive_scan(),
        );
    }
    if all || what == "scaling" {
        println!("== Fork scaling: parallel walk, simulated time ==");
        let rows = fork_scaling_sweep();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.heap.to_string(),
                    r.mode_label(),
                    num(r.sim_fork_ns / 1e3),
                    num(r.sim_copy_done_ns / 1e3),
                    r.counters.fork_chunks.to_string(),
                    r.counters.frames_recycled.to_string(),
                    r.counters.zeroing_skipped.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Heap",
                    "Walk",
                    "fork (µs, sim)",
                    "copy done (µs, sim)",
                    "Chunks",
                    "Recycled",
                    "Zero-skipped",
                ],
                &body
            )
        );
        println!("== Fork latency frontier: child-runnable vs copy-complete ==");
        let frontier = fork_frontier_sweep();
        let body: Vec<Vec<String>> = frontier
            .iter()
            .map(|r| {
                vec![
                    r.heap.to_string(),
                    r.mode.to_string(),
                    num(r.commit_ns / 1e3),
                    num(r.copy_done_ns / 1e3),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["Heap", "Mode", "commit (µs, sim)", "copy done (µs, sim)"],
                &body
            )
        );
    }
    if all || what == "snapshot" {
        println!("== Snapshot train: per-snapshot fork cost, 5% writes between snapshots ==");
        let rows = snapshot_train_sweep();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.system.clone(),
                    r.scope.to_string(),
                    r.walk.to_string(),
                    r.snapshot.to_string(),
                    num(r.sim_fork_ns / 1e3),
                    num(r.sim_copy_done_ns / 1e3),
                    r.counters.pages_dirty_copied.to_string(),
                    r.counters.pages_shared_clean.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "System",
                    "Scope",
                    "Walk",
                    "Snap",
                    "fork (µs, sim)",
                    "copy done (µs, sim)",
                    "Dirty copied",
                    "Shared clean",
                ],
                &body
            )
        );
        println!("== Zygote fleet: resident frames vs warm children ==");
        let fleet = zygote_fleet_sweep();
        let body: Vec<Vec<String>> = fleet
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    r.children.to_string(),
                    r.frames_one_child.to_string(),
                    r.frames_fleet.to_string(),
                    r.counters.frames_deduped.to_string(),
                    r.counters.dedup_hash_probes.to_string(),
                    r.counters.pages_shared_clean.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Variant",
                    "Children",
                    "Frames @1",
                    "Frames @M",
                    "Deduped",
                    "Probes",
                    "Shared clean",
                ],
                &body
            )
        );
    }
    if all || what == "pressure" {
        println!("== Fork storm under memory pressure (4 MiB, Full requested) ==");
        let rows = pressure_storm();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    r.forks_ok.to_string(),
                    r.counters.forks_degraded.to_string(),
                    r.counters.fork_rollbacks.to_string(),
                    format!(
                        "{}/{}",
                        r.counters.reclaim_inline, r.counters.reclaim_background
                    ),
                    r.counters.magazine_hits.to_string(),
                    r.counters.oom_kills.to_string(),
                    r.counters.journal_ops.to_string(),
                    num(r.counters.fork_backoff_ns as f64 / 1e3),
                    r.pressure.clone(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Policy",
                    "Forks",
                    "Degraded",
                    "Rollbacks",
                    "Reclaim in/bg",
                    "Mag hits",
                    "OOM",
                    "Journal ops",
                    "Backoff (µs, sim)",
                    "Pressure",
                ],
                &body
            )
        );
        let children = if quick { 150 } else { PRESSURE_CHILDREN };
        println!(
            "== Fork p99 across the high watermark: {children} churning children, daemon ablation =="
        );
        let rows = pressure_sweep(children, PRESSURE_SEED, STORM_CORES);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.occupancy.to_string(),
                    if r.daemon { "on" } else { "off" }.to_string(),
                    num(r.sim_p50_ns / 1e3),
                    num(r.sim_p99_ns / 1e3),
                    r.counters.reclaim_background.to_string(),
                    r.counters.frames_prezeroed.to_string(),
                    r.counters.magazine_hits.to_string(),
                    r.counters.oom_kills.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Occupancy",
                    "Daemon",
                    "fork p50 (µs, sim)",
                    "fork p99 (µs, sim)",
                    "Bg passes",
                    "Prezeroed",
                    "Mag hits",
                    "OOM",
                ],
                &body
            )
        );
        let p99 = |occupancy: &str, daemon: bool| {
            rows.iter()
                .find(|r| r.occupancy == occupancy && r.daemon == daemon)
                .expect("pressure row")
                .sim_p99_ns
        };
        println!(
            "high-watermark p99 over low: {:.3}x with the daemon (limit {PRESSURE_P99_LIMIT}x), {:.3}x without\n",
            p99("high", true) / p99("low", true),
            p99("high", false) / p99("low", false),
        );
    }
    if all || what == "storm" {
        let children = if quick { 800 } else { STORM_CHILDREN };
        println!("== Fork storm: {children} concurrent children, {STORM_CORES} cores (event-driven scheduler) ==");
        let rows = storm_sweep(children, STORM_SEED, STORM_CORES);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|(mode, r, p)| {
                vec![
                    mode.label.to_string(),
                    r.completed.to_string(),
                    r.peak_live.to_string(),
                    num(r.p50_fork_ns / 1e3),
                    num(r.p99_fork_ns / 1e3),
                    num(r.forks_per_sim_sec),
                    if p.windows > 0 {
                        num(p.p99_copy_done_ns / 1e3)
                    } else {
                        "-".to_string()
                    },
                    num(r.final_ns / 1e9),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Mode",
                    "Completed",
                    "Peak live",
                    "fork p50 (µs, sim)",
                    "fork p99 (µs, sim)",
                    "forks/sim-s",
                    "copy-done p99 (µs)",
                    "storm time (s, sim)",
                ],
                &body
            )
        );
    }
    if all || what == "ring" {
        println!("== Ring fork tax: fork latency with live sealed ring endpoints vs pipes ==");
        let rows = ring_fork_sweep();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    r.setup.to_string(),
                    r.endpoints.to_string(),
                    num(r.sim_fork_ns / 1e3),
                    r.counters.ring_caps_relocated.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Mode",
                    "Setup",
                    "Endpoints",
                    "fork (µs, sim)",
                    "Caps relocated"
                ],
                &body
            )
        );
        // The acceptance-scale differential: every hop of the
        // frontend -> workers -> store fabric bitwise-identical across
        // all four backends (ring_service_sweep asserts it internally).
        let requests = if quick { 20_000 } else { 1_000_000 };
        println!(
            "== Multi-tier ring fabric: {requests} requests per backend, traffic compared bitwise =="
        );
        let svc = ring_service_sweep(requests);
        let body: Vec<Vec<String>> = svc
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    r.requests.to_string(),
                    num(r.sim_final_ns / 1e9),
                    r.counters.ring_msgs.to_string(),
                    r.counters.ring_full_stalls.to_string(),
                    r.counters.ring_caps_relocated.to_string(),
                    format!("{:016x}", r.kv_digest),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Backend",
                    "Requests",
                    "time (s, sim)",
                    "Ring msgs",
                    "Full stalls",
                    "Caps relocated",
                    "KV digest",
                ],
                &body
            )
        );
        println!(
            "ring fabric: {} backends agreed bitwise on {} rings (traffic, digests, store dump)\n",
            svc.len(),
            svc[0].rings.len()
        );
    }
    if what == "trace" {
        run_trace();
    }
    if all || what == "fig9" {
        println!("== Figure 9: Unixbench Spawn and Context1 ==");
        let (iters, limit) = if quick { (100, 5_000) } else { (1000, 100_000) };
        let rows = fig9(iters, limit);
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.system.clone(), num(r.spawn_ms), num(r.context1_ms)])
            .collect();
        let spawn_hdr = format!("Spawn x{iters} (ms)");
        let ctx_hdr = format!("Context1 to {limit} (ms)");
        println!("{}", render_table(&["System", &spawn_hdr, &ctx_hdr], &body));
    }
}
