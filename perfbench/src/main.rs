//! `perfbench` — run one workload for a fixed time and print its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--threads N] [--spans-out FILE]
//! ```
//!
//! Prints host facts, the plan digest, a run summary and every metric
//! with its unit, then, last, one JSON object with every metric the run
//! measured. `run.py` keeps the metrics `BENCHMARK.json` names.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tpi_perfbench::job;
use tpi_perfbench::pass::{best_total, layers, median, quality, ratio, run_pass, Pass};
use tpi_perfbench::trace::Recorder;
use tpi_perfbench::workload::{self, Workload};

/// Passes an untraced run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Passes of each kind a traced run makes at least.
const MIN_TRACED_PASSES: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == key)?;
        argv.get(i + 1).cloned()
    };
    let num = |key: &str| -> Result<Option<u64>, String> {
        get(key)
            .map(|s| s.parse().map_err(|_| format!("bad {key} `{s}`")))
            .transpose()
    };
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            names.join(", ")
        )
    })?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1 (got {other})")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?.ok_or("--seed is required")?,
        seconds: num("--seconds")?.ok_or("--seconds is required")? as f64,
        trace,
        threads: num("--threads")?.map(|t| t as usize),
        spans_out: get("--spans-out"),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The unit of a metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_ratio") || name.ends_with("_share") {
        "ratio"
    } else if name.ends_with("cost") {
        "cost"
    } else {
        "count"
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(hardware);
    if threads == 0 || threads > hardware {
        return Err(format!(
            "refusing --threads {threads}: this host has {hardware} hardware threads"
        ));
    }
    let w = args.workload;
    let host = format!(
        "{{\"available_parallelism\":{hardware},\"threads\":{threads},\"score_threads\":1,\
         \"cpu\":{},\"sim_backend\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(&cpu_model()),
        json_str(&job::resolved_backend()),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
    );
    println!("host {host}");

    let inputs = workload::inputs(w, args.seed).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new(Instant::now());
    let mut next_job = 0u32;
    let mut passes: Vec<Pass> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace {
        2 * MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    let start = Instant::now();
    loop {
        // Traced runs alternate untraced and traced passes, so the
        // overhead compares passes made under the same conditions.
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(run_pass(&inputs, threads, &mut rec, traced, &mut next_job));
        let per_pass = start.elapsed() / passes.len() as u32;
        if passes.len() >= min_passes && start.elapsed() + per_pass > budget {
            break;
        }
    }

    let attempted = inputs.len() * passes.len();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    // Every pass runs the same inputs, so every pass must commit the
    // same plans.
    let reference = passes[0].digest;
    let digest_stable = passes.iter().all(|p| p.digest == reference);
    if !digest_stable {
        eprintln!("perfbench: plan digest differs between passes of one run");
    }
    let correct = failed == 0 && digest_stable;

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let wall = best_total(&untraced, |p| &p.walls);
    let mut metrics: BTreeMap<String, f64> = BTreeMap::from([
        ("wall_s".into(), wall),
        ("setup_s".into(), best_total(&untraced, |p| &p.setups)),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ]);
    metrics.extend(quality(&passes[0].outputs));

    let traced: Vec<BTreeMap<String, f64>> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| layers(p, &rec))
        .collect();
    if let Some(first) = traced.first() {
        for name in first.keys() {
            metrics.insert(
                name.clone(),
                median(traced.iter().map(|m| m[name]).collect()),
            );
        }
        let traced_passes: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let traced_wall = best_total(&traced_passes, |p| &p.walls);
        // The topology probe is measurement-only work, not overhead.
        let overhead = traced_wall - wall - metrics["netlist.topology_s"];
        metrics.insert("trace.overhead_s".into(), overhead);
        let share = median(
            traced
                .iter()
                .map(|m| {
                    ratio(
                        w.dominant.iter().map(|d| m[*d]).sum(),
                        m["trace.traced_wall_s"],
                    )
                })
                .collect(),
        );
        metrics.insert("trace.dominant_share".into(), share);
        println!(
            "dominant {}: {} hold {:.1}% of traced wall, predicted most: {}",
            w.name,
            w.dominant.join(" + "),
            share * 100.0,
            if share > 0.5 {
                "holds"
            } else {
                "does not hold"
            }
        );
    }
    if let Some(path) = &args.spans_out {
        std::fs::write(path, rec.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }

    println!(
        "digest {} seed {}: {reference:016x} ({} points, cost {})",
        w.name, args.seed, metrics["plan.points"], metrics["plan.cost"]
    );
    println!(
        "run {} seed {}: {} passes ({} untraced), {attempted} jobs, {failed} failed, \
         error_rate {:.2}%",
        w.name,
        args.seed,
        passes.len(),
        untraced.len(),
        100.0 * ratio(failed as f64, attempted as f64)
    );
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.walls.iter().sum::<f64>()))
        .collect();
    println!("untraced pass walls (s): {}", walls.join(" "));
    for (name, value) in &metrics {
        println!("  {name:<32} {value:>16.6} {}", unit_of(name));
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| {
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(k),
                json_str(unit_of(k))
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"host\":{host},\
         \"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}
