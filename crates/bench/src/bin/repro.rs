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
//! The figures print as the paper's tables. The bench families (`scaling`,
//! `snapshot`, `pressure`, `storm`, `ring`) print the table their row type
//! declares in `Row::cells`: the same column names and value text as their
//! `BENCH_fork.json` sections, with times in simulated ns.
//!
//! `trace` and `bench-json` are not part of `all`. `trace` prints the
//! per-phase fork breakdown, writes `TRACE_fork.json` at the repo root and
//! rewrites the marker-delimited trace section of `EXPERIMENTS.md`; if the
//! file or its markers are missing or out of order it exits with status 1.
//! `bench-json` runs every bench family at full scale, with its gates,
//! and writes `BENCH_fork.json` at the repo root.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process;

use ufork_bench::report::{family_table, num, render_table, size_label, Row};
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

/// Prints one bench family under its title, as the table its row type
/// declares.
fn print_family<R: Row>(title: &str, rows: &[R]) {
    println!("== {title} ==");
    println!("{}", family_table(rows));
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

fn print_redis(rows: &[RedisRow], metric: fn(&RedisRow) -> f64) {
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
                    .map(|r| num(metric(r)))
                    .unwrap_or_else(|| "-".to_string());
                cells.push(cell);
            }
            cells
        })
        .collect();
    println!("{}", render_table(&headers_ref, &body));
}

/// `text` (`EXPERIMENTS.md`) with its `<!-- trace:begin -->` …
/// `<!-- trace:end -->` block replaced by the freshly measured per-phase
/// summary.
///
/// # Errors
///
/// Names the marker that is missing, or says that they are out of order.
fn splice_trace(text: &str, summary: &str) -> Result<String, String> {
    const BEGIN: &str = "<!-- trace:begin -->";
    const END: &str = "<!-- trace:end -->";
    let marker = |m: &str| text.find(m).ok_or(format!("no `{m}` marker"));
    let (b, e) = (marker(BEGIN)?, marker(END)?);
    if e < b {
        return Err(format!("`{END}` comes before `{BEGIN}`"));
    }
    Ok(format!("{}{BEGIN}\n\n{summary}{}", &text[..b], &text[e..]))
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
    let doc = root.join("EXPERIMENTS.md");
    let spliced = fs::read_to_string(&doc)
        .map_err(|e| e.to_string())
        .and_then(|text| splice_trace(&text, &summary));
    match spliced {
        Ok(text) => fs::write(&doc, text).expect("rewrite EXPERIMENTS.md"),
        Err(e) => {
            eprintln!("repro trace: cannot refresh {}: {e}", doc.display());
            process::exit(1);
        }
    }
    println!("updated {} (trace section)", doc.display());
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

    let all = what == "all";
    if all || what == "table1" {
        print_table1();
    }
    if all || what == "fig3" || what == "fig4" || what == "fig5" {
        let rows = redis_sweep(if quick { 2 } else { 4 });
        if all || what == "fig3" {
            println!("== Figure 3: Redis DB overall save times (ms) ==");
            print_redis(&rows, |r| r.save_ms);
        }
        if all || what == "fig4" {
            println!("== Figure 4: Redis fork latency (µs) ==");
            print_redis(&rows, |r| r.fork_us);
        }
        if all || what == "fig5" {
            println!("== Figure 5: Redis forked-process memory consumption (MB) ==");
            print_redis(&rows, |r| r.mem_mb);
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
        print_family(
            "Fork scaling: parallel walk, simulated time",
            &fork_scaling_sweep(),
        );
        print_family(
            "Fork latency frontier: child-runnable vs copy-complete",
            &fork_frontier_sweep(),
        );
    }
    if all || what == "snapshot" {
        print_family(
            "Snapshot train: per-snapshot fork cost, 5% writes between snapshots",
            &snapshot_train_sweep(),
        );
        print_family(
            "Zygote fleet: resident frames vs warm children",
            &zygote_fleet_sweep(),
        );
    }
    if all || what == "pressure" {
        print_family(
            "Fork storm under memory pressure (4 MiB, Full requested)",
            &pressure_storm(),
        );
        let children = if quick { 150 } else { PRESSURE_CHILDREN };
        let rows = pressure_sweep(children, PRESSURE_SEED, STORM_CORES);
        print_family(
            &format!(
                "Fork p99 across the high watermark: {children} churning children, daemon ablation"
            ),
            &rows,
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
        print_family(
            &format!(
                "Fork storm: {children} concurrent children, {STORM_CORES} cores (event-driven scheduler)"
            ),
            &storm_sweep(children, STORM_SEED, STORM_CORES),
        );
    }
    if all || what == "ring" {
        print_family(
            "Ring fork tax: fork latency with live sealed ring endpoints vs pipes",
            &ring_fork_sweep(),
        );
        // The acceptance-scale differential: every hop of the
        // frontend -> workers -> store fabric bitwise-identical across
        // all four backends (ring_service_sweep asserts it internally).
        let requests = if quick { 20_000 } else { 1_000_000 };
        let svc = ring_service_sweep(requests);
        print_family(
            &format!(
                "Multi-tier ring fabric: {requests} requests per backend, traffic compared bitwise"
            ),
            &svc,
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

#[cfg(test)]
mod tests {
    use super::splice_trace;

    #[test]
    fn splice_replaces_the_marked_block() {
        let doc = "intro\n<!-- trace:begin -->\n\nold\n<!-- trace:end -->\noutro\n";
        assert_eq!(
            splice_trace(doc, "new\n").unwrap(),
            "intro\n<!-- trace:begin -->\n\nnew\n<!-- trace:end -->\noutro\n"
        );
    }

    #[test]
    fn splice_refuses_a_missing_marker() {
        let err = splice_trace("intro\n<!-- trace:begin -->\nold\n", "new\n").unwrap_err();
        assert!(err.contains("<!-- trace:end -->"), "{err}");
        let err = splice_trace("intro\nold\n<!-- trace:end -->\n", "new\n").unwrap_err();
        assert!(err.contains("<!-- trace:begin -->"), "{err}");
    }

    #[test]
    fn splice_refuses_reversed_markers() {
        let doc = "<!-- trace:end -->\nold\n<!-- trace:begin -->\n";
        let err = splice_trace(doc, "new\n").unwrap_err();
        assert!(err.contains("comes before"), "{err}");
    }
}
