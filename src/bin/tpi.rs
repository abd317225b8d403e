//! `tpi` — command-line front end for the krishnamurthy-tpi toolkit.
//!
//! ```text
//! tpi analyze  <file.bench>                      structural + testability report
//! tpi simulate <file.bench> [--patterns N] [--seed S] [--lfsr] [--threads N]
//!              [--block-words auto|W] [--detection cpt|explicit]
//!              [--simd-backend auto|scalar|avx2|avx512] [--metrics-out FILE]
//! tpi insert   <file.bench> [--objective coverage|patterns]
//!              [--log2-threshold E | --test-length L --confidence C]
//!              [--method dp|greedy|constructive|constructive-baseline]
//!              [--candidate-eval batched|legacy] [--score-threads N]
//!              [--threads N] [--block-words auto|W] [--detection cpt|explicit]
//!              [--simd-backend auto|scalar|avx2|avx512] [--deadline-ms MS]
//!              [--max-points N] [--probe-width N] [--max-backtracks N]
//!              [--out FILE] [--verilog FILE] [--metrics-out FILE]
//! tpi atpg     <file.bench> [--patterns N] [--metrics-out FILE]
//! tpi export   <file.bench> (--verilog FILE | --dot FILE)
//! tpi batch    <manifest.json> [--out FILE] [--retries N] [--shard I/N]
//!              [--resume | --resume-from FILE] [--no-fail-on-error]
//!              [--metrics-out FILE]
//! tpi merge    <ckpt...> [--out FILE] [--metrics FILE]... [--metrics-out FILE]
//! tpi serve    [--stdio | --listen ADDR] [--max-gates N] [--max-patterns N]
//!              [--max-sessions N] [--accept-queue N] [--max-inflight N]
//!              [--shared-memo-capacity N] [--isolated-memo] [--metrics-out FILE]
//! tpi stats    <metrics.json>                    pretty-print a metrics snapshot
//! ```
//!
//! Netlists are ISCAS-85 `.bench` files; `DFF`s are treated as full-scan
//! pseudo-ports. `insert --method constructive` runs on the incremental
//! [`TpiEngine`] session; `constructive-baseline` is the from-scratch
//! loop it is benchmarked against.

use std::process::ExitCode;

use krishnamurthy_tpi::atpg::{redundancy, topoff, PodemConfig};
use krishnamurthy_tpi::compaction::{PatternsConfig, PatternsOptimizer, SearchTier};
use krishnamurthy_tpi::core::general::{ConstructiveConfig, ConstructiveOptimizer};
use krishnamurthy_tpi::core::report::InsertionReport;
use krishnamurthy_tpi::core::{
    CandidateEval, DpOptimizer, GreedyConfig, GreedyOptimizer, Threshold, TpiProblem,
};
use krishnamurthy_tpi::engine::{
    batch, json::Json, schema, serve, EngineConfig, OptimizeConfig, RunControl, SharedMemoConfig,
    TpiEngine,
};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::{analysis, bench_format, dot, ffr, verilog, Circuit, Topology};
use krishnamurthy_tpi::obs::{Registry, Snapshot};
use krishnamurthy_tpi::server::{self, ListenAddr, Server, ServerConfig};
use krishnamurthy_tpi::sim::parallel::run_parallel_controlled;
use krishnamurthy_tpi::sim::{
    block_words_supported, BackendChoice, DetectionMode, FaultUniverse, LfsrPatterns,
    RandomPatterns, SimOptions, SimdBackend,
};
use krishnamurthy_tpi::testability::profile::TestabilityReport;

/// Exit code of a `tpi batch` run in which some jobs failed (the batch
/// itself completed; `--no-fail-on-error` suppresses it). Distinct from
/// [`ExitCode::FAILURE`] (1), which signals a CLI/tool error.
const EXIT_JOBS_FAILED: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tpi: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::SUCCESS);
    };
    let rest = &args[1..];
    let plain = match command.as_str() {
        "analyze" => analyze(rest),
        "simulate" => simulate(rest),
        "insert" => insert(rest),
        "atpg" => atpg(rest),
        "export" => export(rest),
        // `batch` and `merge` report job-level failure through their
        // exit code, not just their output.
        "batch" => return batch_cmd(rest),
        "merge" => return merge_cmd(rest),
        "stats" => stats_cmd(rest),
        "serve" => serve_cmd(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `tpi help`)")),
    };
    plain.map(|()| ExitCode::SUCCESS)
}

fn print_usage() {
    eprintln!(
        "tpi — dynamic-programming test point insertion toolkit\n\n\
         usage:\n  \
         tpi analyze  <file.bench>\n  \
         tpi simulate <file.bench> [--patterns N] [--seed S] [--lfsr] [--threads N]\n           \
         [--block-words auto|W] [--detection cpt|explicit]\n           \
         [--simd-backend auto|scalar|avx2|avx512] [--metrics-out FILE]\n  \
         tpi insert   <file.bench> [--objective coverage|patterns]\n           \
         [--log2-threshold E | --test-length L --confidence C]\n           \
         [--method dp|greedy|constructive|constructive-baseline] [--threads N]\n           \
         [--candidate-eval batched|legacy] [--score-threads N]\n           \
         [--block-words auto|W] [--detection cpt|explicit]\n           \
         [--simd-backend auto|scalar|avx2|avx512] [--deadline-ms MS]\n           \
         [--max-points N] [--probe-width N] [--max-backtracks N]\n           \
         [--out FILE] [--verilog FILE] [--metrics-out FILE]\n  \
         tpi atpg     <file.bench> [--patterns N] [--metrics-out FILE]\n  \
         tpi export   <file.bench> (--verilog FILE | --dot FILE)\n  \
         tpi batch    <manifest.json> [--out FILE] [--retries N] [--shard I/N]\n           \
         [--resume | --resume-from FILE] [--no-fail-on-error]\n           \
         [--metrics-out FILE]\n  \
         tpi merge    <ckpt...> [--out FILE] [--metrics FILE]... [--metrics-out FILE]\n  \
         tpi serve    [--stdio | --listen unix:PATH|HOST:PORT] [--max-gates N]\n           \
         [--max-patterns N] [--max-sessions N] [--accept-queue N] [--max-inflight N]\n           \
         [--shared-memo-capacity N] [--isolated-memo] [--metrics-out FILE]\n  \
         tpi stats    <metrics.json>"
    );
}

/// Tiny flag parser: positional file(s) + `--key value` / boolean
/// `--key`. Most commands take exactly one positional ([`parse`]);
/// `merge` takes many ([`parse_multi`]).
///
/// [`parse`]: Flags::parse
/// [`parse_multi`]: Flags::parse_multi
struct Flags<'a> {
    files: Vec<&'a str>,
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], booleans: &[&str]) -> Result<Flags<'a>, String> {
        let flags = Self::parse_multi(args, booleans)?;
        if let Some(extra) = flags.files.get(1) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        Ok(flags)
    }

    fn parse_multi(args: &'a [String], booleans: &[&str]) -> Result<Flags<'a>, String> {
        let mut files = Vec::new();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(key) = a.strip_prefix("--") {
                if booleans.contains(&key) {
                    pairs.push((key, None));
                    i += 1;
                } else {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    pairs.push((key, Some(value.as_str())));
                    i += 2;
                }
            } else {
                files.push(a);
                i += 1;
            }
        }
        Ok(Flags { files, pairs })
    }

    fn file(&self) -> Result<&'a str, String> {
        self.files
            .first()
            .copied()
            .ok_or_else(|| "missing input file".to_string())
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| *v)
    }

    /// Every value of a repeatable flag, in order.
    fn get_all(&self, key: &str) -> Vec<&'a str> {
        self.pairs
            .iter()
            .filter(|(k, _)| *k == key)
            .filter_map(|(_, v)| *v)
            .collect()
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| *k == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value `{v}`")),
        }
    }

    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key} value `{v}`")))
            .transpose()
    }
}

fn load(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    bench_format::parse_bench_with(&text, name, bench_format::ScanMode::FullScan)
        .map_err(|e| format!("{path}: {e}"))
}

fn analyze(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let circuit = load(flags.file()?)?;
    let topo = Topology::of(&circuit).map_err(|e| e.to_string())?;
    let stats = analysis::stats(&circuit, &topo);
    println!("{circuit}");
    println!(
        "depth {} | stems {} | max fanout {} | avg fanin {:.2}",
        stats.depth, stats.stems, stats.max_fanout, stats.avg_fanin
    );
    println!(
        "fanout-free: {} | reconvergent stems: {}",
        ffr::is_fanout_free(&circuit, &topo),
        ffr::reconvergent_stems(&circuit, &topo).len()
    );
    let report = TestabilityReport::analyse(&circuit, 1e-4).map_err(|e| e.to_string())?;
    println!(
        "collapsed faults {} (of {}) | min p_det {:.2e} | resistant(<1e-4) {}",
        report.faults,
        report.faults_uncollapsed,
        report.min_detection_probability,
        report.resistant_faults
    );
    println!(
        "COP-predicted coverage: {:.2}% @1k, {:.2}% @32k",
        report.expected_coverage_1k * 100.0,
        report.expected_coverage_32k * 100.0
    );
    Ok(())
}

/// `--threads` default: every available hardware thread.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `--block-words`: words per simulation block (W×64 patterns per
/// pass); `auto` (or 0, the default) selects by circuit size.
fn block_words_flag(flags: &Flags) -> Result<usize, String> {
    match flags.get("block-words") {
        None | Some("auto") => Ok(0),
        Some(s) => {
            let w: usize = s
                .parse()
                .map_err(|_| format!("bad --block-words (got {s})"))?;
            if w != 0 && !block_words_supported(w) {
                return Err(format!(
                    "--block-words must be auto, 1, 2, 4 or 8 (got {w})"
                ));
            }
            Ok(w)
        }
    }
}

/// `--simd-backend`: instruction selection for the simulation kernels
/// (results are bit-identical across backends; `auto` picks the best
/// the CPU supports). Resolved eagerly so a bad request fails with a
/// CLI error instead of a worker panic.
fn backend_flag(flags: &Flags) -> Result<BackendChoice, String> {
    let choice = match flags.get("simd-backend") {
        None => BackendChoice::Auto,
        Some(s) => BackendChoice::parse(s).map_err(|e| format!("--simd-backend: {e}"))?,
    };
    SimdBackend::resolve(choice).map_err(|e| format!("--simd-backend: {e}"))?;
    Ok(choice)
}

/// The resolved backend for a validated choice (for the `sim.backend`
/// gauge and status lines).
fn resolved_backend(choice: BackendChoice) -> SimdBackend {
    SimdBackend::resolve(choice).expect("choice validated by backend_flag")
}

/// `--metrics-out FILE`: dump a registry snapshot as one JSON object
/// (render back with `tpi stats FILE`).
fn write_metrics(path: &str, registry: &Registry) -> Result<(), String> {
    std::fs::write(path, registry.snapshot().to_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// `--detection`: detection-word algorithm (results are bit-identical;
/// `cpt` is the fast default).
fn detection_flag(flags: &Flags) -> Result<DetectionMode, String> {
    match flags.get("detection") {
        None | Some("cpt") => Ok(DetectionMode::CriticalPathTracing),
        Some("explicit") => Ok(DetectionMode::Explicit),
        Some(other) => Err(format!("--detection must be cpt or explicit (got {other})")),
    }
}

fn sim_options_flags(flags: &Flags) -> Result<SimOptions, String> {
    Ok(SimOptions {
        block_words: block_words_flag(flags)?,
        detection: detection_flag(flags)?,
        backend: backend_flag(flags)?,
    })
}

fn simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["lfsr"])?;
    let circuit = load(flags.file()?)?;
    let patterns: u64 = flags.num("patterns", 32_000)?;
    let seed: u64 = flags.num("seed", 1)?;
    let threads: usize = flags.num("threads", default_threads())?;
    let options = sim_options_flags(&flags)?;
    let universe = FaultUniverse::collapsed(&circuit).map_err(|e| e.to_string())?;
    let n_inputs = circuit.inputs().len();
    let control = RunControl::unlimited();
    let run = if flags.has("lfsr") {
        // Validate the LFSR width once up front, then fan out.
        LfsrPatterns::new(n_inputs, seed).map_err(|e| e.to_string())?;
        run_parallel_controlled(
            &circuit,
            || LfsrPatterns::new(n_inputs, seed).expect("width checked above"),
            patterns,
            universe.faults(),
            threads,
            options,
            &control,
        )
    } else {
        run_parallel_controlled(
            &circuit,
            || RandomPatterns::new(n_inputs, seed),
            patterns,
            universe.faults(),
            threads,
            options,
            &control,
        )
    }
    .map_err(|e| e.to_string())?;
    if let Some(path) = flags.get("metrics-out") {
        let registry = Registry::new();
        run.counters.publish_to(&registry);
        resolved_backend(options.backend).publish_to(&registry);
        write_metrics(path, &registry)?;
    }
    let result = run.result;
    println!(
        "{}: {}/{} faults detected ({:.2}%) with {} patterns",
        circuit.name(),
        result.detected_count(),
        universe.len(),
        result.coverage() * 100.0,
        result.patterns_applied()
    );
    for point in result.coverage_curve((patterns / 8).max(1)) {
        println!("  @{:>8}: {:.2}%", point.patterns, point.coverage * 100.0);
    }
    Ok(())
}

fn insert(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    // `--objective`: what the inserted points optimise. `coverage` (the
    // default) raises every fault's random-pattern detection probability
    // past a threshold; `patterns` minimises the compacted deterministic
    // pattern count by resolving test-cube conflicts.
    match flags.get("objective").unwrap_or("coverage") {
        "coverage" => insert_coverage(&flags),
        "patterns" => insert_patterns(&flags),
        other => Err(format!(
            "bad --objective `{other}` (expected coverage|patterns)"
        )),
    }
}

fn insert_coverage(flags: &Flags) -> Result<(), String> {
    let circuit = load(flags.file()?)?;
    let threshold = if let Some(e) = flags.get("log2-threshold") {
        let exp: f64 = e.parse().map_err(|_| "bad --log2-threshold")?;
        Threshold::try_from_log2(exp).map_err(|e| format!("bad --log2-threshold: {e}"))?
    } else {
        let length: u64 = flags.num("test-length", 32_000)?;
        let confidence: f64 = flags.num("confidence", 0.98)?;
        Threshold::from_test_length(length, confidence).map_err(|e| e.to_string())?
    };
    let method = flags.get("method").unwrap_or("dp");
    let threads: usize = flags.num("threads", default_threads())?;
    // `--candidate-eval`: batched compile-once scoring (default) vs the
    // legacy per-candidate full re-evaluation, kept as the A/B oracle.
    // Both paths select bit-identical plans.
    let candidate_eval = match flags.get("candidate-eval").unwrap_or("batched") {
        "batched" => CandidateEval::Batched,
        "legacy" => CandidateEval::Legacy,
        other => {
            return Err(format!(
                "bad --candidate-eval `{other}` (expected batched|legacy)"
            ))
        }
    };
    let score_threads: usize = flags.num("score-threads", 1)?;
    if score_threads == 0 {
        return Err("--score-threads must be ≥ 1".into());
    }
    let options = sim_options_flags(flags)?;
    // `--deadline-ms`: run the optimizer under a RunControl deadline; an
    // interrupted run still commits its best-so-far prefix plan
    // (reported with `"partial": true`).
    let deadline = flags
        .opt_num::<u64>("deadline-ms")?
        .map(std::time::Duration::from_millis);
    let control = RunControl::with_limits(deadline, None);
    // Collects the engine's session metrics (constructive method) and
    // the closing verification's kernel counters for `--metrics-out`.
    let registry = std::sync::Arc::new(Registry::new());
    let problem = TpiProblem::min_cost(&circuit, threshold).map_err(|e| e.to_string())?;

    let mut interrupted = None;
    let plan = match method {
        "dp" => {
            let (plan, stats) = DpOptimizer::default()
                // Bottom-up DP has no useful half-finished table: a
                // deadline here is a hard error, not an anytime result.
                .solve_region_controlled(&problem, 1.0, &control)
                .map_err(|e| {
                    format!("{e}\nhint: for reconvergent circuits use --method constructive")
                })?;
            // The DP's work: nodes, candidate states, largest frontier
            // (a gauge, since shards merge it by maximum).
            registry.counter("core.dp.nodes").add(stats.nodes as u64);
            registry
                .counter("core.dp.states_created")
                .add(stats.states_created as u64);
            registry
                .gauge("core.dp.max_frontier")
                .set(stats.max_frontier as i64);
            plan
        }
        "greedy" => {
            let (plan, stopped, stats) = GreedyOptimizer::new(GreedyConfig {
                candidate_eval,
                ..GreedyConfig::default()
            })
            .solve_with_stats(&problem, &control)
            .map_err(|e| e.to_string())?;
            // Greedy's work: scoring rounds, candidates probed, and the
            // cone nodes those probes visited.
            registry
                .counter("core.greedy.rounds")
                .add(stats.rounds as u64);
            registry
                .counter("core.greedy.probes")
                .add(stats.probes as u64);
            registry
                .counter("core.greedy.probe_nodes")
                .add(stats.probe_nodes as u64);
            interrupted = stopped;
            plan
        }
        "constructive" => {
            // The incremental engine session: cached analyses, dirty-cone
            // re-measurement, memoized region DP.
            let mut engine = TpiEngine::with_registry(
                circuit.clone(),
                EngineConfig {
                    verify_incremental: false,
                    block_words: options.block_words,
                    detection: options.detection,
                    simd_backend: options.backend,
                    candidate_eval,
                    score_threads,
                    ..EngineConfig::default()
                },
                registry.clone(),
            )
            .map_err(|e| e.to_string())?;
            engine.set_control(control.clone());
            let outcome = engine
                .optimize(threshold, &OptimizeConfig::default())
                .map_err(|e| e.to_string())?;
            let stats = engine.stats();
            eprintln!(
                "engine: {} incremental re-sims ({} faults re-simulated, {} reused), \
                 {} DP memo hits",
                stats.incremental_sims,
                stats.faults_resimulated,
                stats.faults_skipped,
                stats.memo_hits
            );
            interrupted = outcome.interrupted;
            outcome.plan
        }
        "constructive-baseline" => {
            let outcome = ConstructiveOptimizer::new(ConstructiveConfig {
                candidate_eval,
                score_threads,
                ..ConstructiveConfig::default()
            })
            .solve_controlled(&circuit, threshold, &control)
            .map_err(|e| e.to_string())?;
            interrupted = outcome.interrupted;
            outcome.plan
        }
        other => return Err(format!("unknown method `{other}`")),
    };

    if let Some(reason) = interrupted {
        // Anytime result: the prefix plan committed before the deadline,
        // as one machine-readable JSON line.
        let points: Vec<Json> = plan
            .test_points()
            .iter()
            .map(|tp| {
                Json::obj([
                    ("node", Json::from(circuit.node_name(tp.node))),
                    ("kind", Json::from(tp.kind.mnemonic())),
                ])
            })
            .collect();
        let line = Json::obj([
            ("partial", Json::from(true)),
            ("stopped", Json::from(reason.to_string())),
            ("cost", Json::from(plan.cost())),
            ("points", Json::Arr(points)),
        ]);
        println!("{line}");
    }

    let report = InsertionReport::build(&problem, &plan).map_err(|e| e.to_string())?;
    print!("{}", report.to_text());

    let (modified, _) = apply_plan(&circuit, plan.test_points()).map_err(|e| e.to_string())?;
    // Measured closing check of the committed plan, fanned out over the
    // worker pool.
    let universe = FaultUniverse::collapsed(&circuit).map_err(|e| e.to_string())?;
    let n_inputs = modified.inputs().len();
    let verify_run = run_parallel_controlled(
        &modified,
        || RandomPatterns::new(n_inputs, 1),
        32_000,
        universe.faults(),
        threads,
        options,
        &RunControl::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    verify_run.counters.publish_to(&registry);
    resolved_backend(options.backend).publish_to(&registry);
    let verified = verify_run.result;
    println!(
        "measured coverage after insertion: {:.2}% ({} patterns, {} threads)",
        verified.coverage() * 100.0,
        verified.patterns_applied(),
        threads
    );
    if let Some(out) = flags.get("out") {
        std::fs::write(out, bench_format::to_bench(&modified))
            .map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(v) = flags.get("verilog") {
        std::fs::write(v, verilog::to_verilog(&modified)).map_err(|e| format!("{v}: {e}"))?;
        println!("wrote {v}");
    }
    if let Some(path) = flags.get("metrics-out") {
        write_metrics(path, &registry)?;
    }
    Ok(())
}

/// `tpi insert --objective patterns`: minimise the compacted
/// deterministic pattern count. `--method greedy` runs the standalone
/// [`PatternsOptimizer`]; `--method constructive` (the default) drives
/// the same search through a [`TpiEngine`] session so the cube set is
/// version-cached and every commit re-measures coverage incrementally.
fn insert_patterns(flags: &Flags) -> Result<(), String> {
    let circuit = load(flags.file()?)?;
    let method = flags.get("method").unwrap_or("constructive");
    let tier = match method {
        "greedy" => SearchTier::Greedy,
        "constructive" => SearchTier::Constructive,
        other => {
            return Err(format!(
                "--objective patterns supports --method greedy|constructive, not `{other}`"
            ))
        }
    };
    let max_points: usize = flags.num("max-points", 8)?;
    let probe_width: usize = flags.num("probe-width", 4)?;
    if probe_width == 0 {
        return Err("--probe-width must be ≥ 1".into());
    }
    let deadline = flags
        .opt_num::<u64>("deadline-ms")?
        .map(std::time::Duration::from_millis);
    let control = RunControl::with_limits(deadline, None);
    let registry = std::sync::Arc::new(Registry::new());
    let mut config = PatternsConfig {
        max_points,
        probe_width,
        tier,
        ..PatternsConfig::default()
    };
    // PODEM search budget per fault: large circuits with deep
    // reconvergence burn the default 50k limit on every aborted fault,
    // and the probes re-pay it per candidate. Faults aborted under a
    // tighter budget count as uncovered, and the commit rule refuses
    // uncovered growth, so the reduction guarantee is unaffected.
    if let Some(max_backtracks) = flags.opt_num::<u64>("max-backtracks")? {
        config.cubes.podem.max_backtracks = max_backtracks;
    }

    let outcome = match tier {
        SearchTier::Greedy => {
            let universe = FaultUniverse::collapsed(&circuit).map_err(|e| e.to_string())?;
            PatternsOptimizer::new(config)
                .solve_controlled(&circuit, universe.faults(), &control, Some(&registry))
                .map_err(|e| e.to_string())?
        }
        SearchTier::Constructive => {
            let mut engine = TpiEngine::with_registry(
                circuit.clone(),
                EngineConfig {
                    verify_incremental: false,
                    ..EngineConfig::default()
                },
                registry.clone(),
            )
            .map_err(|e| e.to_string())?;
            engine.set_control(control.clone());
            engine
                .optimize_patterns(&config)
                .map_err(|e| e.to_string())?
        }
    };

    println!(
        "{}: {} cubes, {} conflicting pairs, {} compacted patterns before insertion",
        circuit.name(),
        outcome.cubes_before,
        outcome.conflicts_before,
        outcome.patterns_before
    );
    for round in &outcome.rounds {
        if let Some(tp) = round.committed {
            println!(
                "  round {}: {} at {} → {} patterns ({} probes, {} conflicting pairs)",
                round.round,
                tp.kind.mnemonic(),
                outcome.modified.node_name(tp.node),
                round.patterns,
                round.probes,
                round.conflicts
            );
        }
    }
    println!(
        "compacted patterns after insertion: {} ({} points, cost {})",
        outcome.patterns_after,
        outcome.plan.len(),
        outcome.plan.cost()
    );
    if let Some(reason) = outcome.interrupted {
        eprintln!("stopped early ({reason}): the plan is the committed prefix");
    }

    // One machine-readable line in the same plan schema as the coverage
    // path's partial output (smoke scripts parse this).
    let points: Vec<Json> = outcome
        .plan
        .test_points()
        .iter()
        .map(|tp| {
            Json::obj([
                ("node", Json::from(outcome.modified.node_name(tp.node))),
                ("kind", Json::from(tp.kind.mnemonic())),
            ])
        })
        .collect();
    let line = Json::obj([
        ("objective", Json::from("patterns")),
        ("partial", Json::from(outcome.interrupted.is_some())),
        ("patterns_before", Json::from(outcome.patterns_before)),
        ("patterns_after", Json::from(outcome.patterns_after)),
        ("cubes", Json::from(outcome.cubes_before)),
        ("conflicts", Json::from(outcome.conflicts_before)),
        ("cost", Json::from(outcome.plan.cost())),
        ("points", Json::Arr(points)),
    ]);
    println!("{line}");

    if let Some(out) = flags.get("out") {
        std::fs::write(out, bench_format::to_bench(&outcome.modified))
            .map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(v) = flags.get("verilog") {
        std::fs::write(v, verilog::to_verilog(&outcome.modified))
            .map_err(|e| format!("{v}: {e}"))?;
        println!("wrote {v}");
    }
    if let Some(path) = flags.get("metrics-out") {
        write_metrics(path, &registry)?;
    }
    Ok(())
}

fn atpg(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let circuit = load(flags.file()?)?;
    let patterns: u64 = flags.num("patterns", 32_000)?;
    let universe = FaultUniverse::collapsed(&circuit).map_err(|e| e.to_string())?;
    let sweep = redundancy::sweep(&circuit, universe.faults(), PodemConfig::default())
        .map_err(|e| e.to_string())?;
    println!(
        "{}: {} faults — {} testable, {} redundant, {} undecided",
        circuit.name(),
        universe.len(),
        sweep.testable.len(),
        sweep.redundant.len(),
        sweep.undecided.len()
    );
    for f in &sweep.redundant {
        println!("  redundant: {}", f.describe(&circuit));
    }
    let targets = sweep.targets();
    let mut src = RandomPatterns::new(circuit.inputs().len(), 1);
    let leftovers = topoff::undetected_after(&circuit, &targets, &mut src, patterns)
        .map_err(|e| e.to_string())?;
    let top = topoff::generate(&circuit, &leftovers, PodemConfig::default(), 7)
        .map_err(|e| e.to_string())?;
    println!(
        "after {patterns} random patterns: {} faults left → {} cubes ({} merged seeds)",
        leftovers.len(),
        top.cubes.len(),
        top.seed_count()
    );
    // The redundancy sweep and the top-off run are both PODEM work.
    let mut work = sweep.counters;
    work.merge(&top.counters);
    println!(
        "atpg work: {} cubes generated, {} backtracks, {} decisions, {} implications, \
         {} aborted faults",
        work.cubes_generated,
        work.backtracks,
        work.decisions,
        work.implications,
        work.aborted_faults
    );
    for cube in &top.merged {
        println!("  seed: {}", cube.to_pattern_string());
    }
    if let Some(path) = flags.get("metrics-out") {
        let registry = Registry::new();
        work.publish_to(&registry);
        write_metrics(path, &registry)?;
    }
    Ok(())
}

/// `tpi batch` — run a manifest (or one `--shard I/N` slice of it)
/// across a worker pool, writing a crash-safe versioned checkpoint.
///
/// Exit status: `0` when every executed job completed, [`EXIT_JOBS_FAILED`]
/// when some failed (`--no-fail-on-error` restores the old always-zero
/// behaviour for soak scripts), `1` on tool errors.
fn batch_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["resume", "no-fail-on-error"])?;
    let path = std::path::Path::new(flags.file()?);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let base_dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let (workers, specs) = batch::parse_manifest(&manifest, base_dir)?;
    let total_jobs = specs.len();
    // `--shard I/N`: run only this process's deterministic slice of the
    // manifest (job i belongs to shard (i mod N) + 1). The checkpoint
    // header records the slice so `tpi merge` can validate the set.
    let shard = flags
        .get("shard")
        .map(schema::ShardSpec::parse)
        .transpose()
        .map_err(|e| format!("--shard: {e}"))?
        .unwrap_or(schema::ShardSpec::WHOLE);
    let header = schema::CheckpointHeader::new(&manifest, total_jobs, shard);
    let specs: Vec<batch::JobSpec> = specs.into_iter().filter(|s| shard.owns(s.index)).collect();

    let retries: usize = flags.num("retries", 0)?;
    let resume = flags.has("resume");
    let resume_from = flags.get("resume-from");
    let out = flags.get("out");
    if resume && resume_from.is_some() {
        return Err("--resume and --resume-from are mutually exclusive".into());
    }
    if resume && out.is_none() {
        return Err(
            "--resume needs --out FILE (the checkpoint to resume in place); \
             to resume from one checkpoint while writing a fresh one, use --resume-from FILE"
                .into(),
        );
    }
    let registry = flags
        .get("metrics-out")
        .map(|_| std::sync::Arc::new(Registry::new()));
    let mut opts = batch::BatchOptions {
        workers,
        retries,
        registry: registry.clone(),
        ..batch::BatchOptions::default()
    };

    // Resume source: `--resume` reads the checkpoint it will append to;
    // `--resume-from` reads a different file and writes a fresh one.
    let resume_path = if resume { out } else { resume_from };
    if let Some(src) = resume_path {
        match std::fs::read_to_string(src) {
            Ok(existing) => {
                let ckpt =
                    schema::parse_checkpoint(&existing).map_err(|e| format!("{src}: {e}"))?;
                if let Some(h) = &ckpt.header {
                    // The checkpoint must belong to this manifest and
                    // this exact slice of it.
                    if h.manifest_hash != header.manifest_hash {
                        return Err(format!(
                            "{src}: checkpoint belongs to a different manifest \
                             ({} vs {})",
                            h.manifest_hash, header.manifest_hash
                        ));
                    }
                    if h.jobs != total_jobs {
                        return Err(format!(
                            "{src}: checkpoint declares {} jobs, manifest has {total_jobs}",
                            h.jobs
                        ));
                    }
                    if h.shard != shard {
                        return Err(format!(
                            "{src}: checkpoint covers shard {}, this run is shard {shard}",
                            h.shard
                        ));
                    }
                }
                if ckpt.torn_tail {
                    eprintln!(
                        "tpi batch: {src}: recovered from a torn trailing line \
                         (crash mid-append); the valid prefix is kept"
                    );
                    if let Some(reg) = &registry {
                        reg.counter("batch.checkpoint_truncated").inc();
                    }
                }
                if ckpt.skipped_lines > 0 {
                    eprintln!(
                        "tpi batch: {src}: skipped {} unparsable line(s)",
                        ckpt.skipped_lines
                    );
                    if let Some(reg) = &registry {
                        reg.counter("batch.checkpoint_skipped_lines")
                            .add(ckpt.skipped_lines as u64);
                    }
                }
                let scan = batch::completed_scan(&ckpt.lines, total_jobs);
                if scan.duplicates > 0 {
                    eprintln!(
                        "tpi batch: {src}: deduplicated {} repeated completion line(s)",
                        scan.duplicates
                    );
                    if let Some(reg) = &registry {
                        reg.counter("batch.checkpoint_duplicate_lines")
                            .add(scan.duplicates as u64);
                    }
                }
                if scan.out_of_range > 0 {
                    eprintln!(
                        "tpi batch: {src}: dropped {} out-of-range job index(es)",
                        scan.out_of_range
                    );
                    if let Some(reg) = &registry {
                        reg.counter("batch.checkpoint_out_of_range")
                            .add(scan.out_of_range as u64);
                    }
                }
                opts.skip = scan.indices;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && resume => {
                // `--resume` against a not-yet-existing --out starts fresh.
            }
            Err(e) => return Err(format!("{src}: {e}")),
        }
    }

    let summary = if let Some(out) = out {
        let out_path = std::path::Path::new(out);
        // `--resume` appends to the surviving checkpoint; everything
        // else (fresh runs, `--resume-from`) creates the file anew with
        // its header via write-to-temp + atomic rename.
        let mut writer = if resume && out_path.exists() {
            schema::CheckpointWriter::append(out_path)
        } else {
            schema::CheckpointWriter::create(out_path, &header)
        }
        .map_err(|e| format!("{out}: {e}"))?;
        let summary =
            batch::run_jobs_with(&opts, &specs, &mut writer).map_err(|e| e.to_string())?;
        eprintln!("wrote {out}");
        summary
    } else {
        let mut buffer = Vec::new();
        let summary =
            batch::run_jobs_with(&opts, &specs, &mut buffer).map_err(|e| e.to_string())?;
        let mut stdout = std::io::stdout().lock();
        use std::io::Write as _;
        stdout.write_all(&buffer).map_err(|e| e.to_string())?;
        summary
    };
    // Machine-readable final summary line (per-status counts and batch
    // wall clock); goes to stdout even when the JSONL went to a file.
    println!("{}", summary.to_json());
    eprintln!(
        "batch: {} ok, {} error, {} panic, {} timeout, {} cancelled, {} skipped \
         of {} jobs (shard {shard}) in {} ms",
        summary.ok,
        summary.error,
        summary.panic,
        summary.timeout,
        summary.cancelled,
        summary.skipped,
        specs.len(),
        summary.elapsed_ms
    );
    if let (Some(path), Some(registry)) = (flags.get("metrics-out"), &registry) {
        write_metrics(path, registry)?;
    }
    if summary.failed() > 0 && !flags.has("no-fail-on-error") {
        return Ok(ExitCode::from(EXIT_JOBS_FAILED));
    }
    Ok(ExitCode::SUCCESS)
}

/// `tpi merge <ckpt...>` — validate a set of shard checkpoints (same
/// manifest, same format version, disjoint and complete shards, every
/// owned job finished) and recombine them into one byte-deterministic
/// JSONL + summary stream in manifest order. Shard `--metrics-out`
/// snapshots are merged with `--metrics FILE... --metrics-out FILE`.
///
/// A refused set produces a structured JSON error line on stderr naming
/// the offending shard/file/indices, plus a human-readable message.
fn merge_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse_multi(args, &[])?;
    if flags.files.is_empty() {
        return Err("merge needs at least one checkpoint file".into());
    }
    let mut inputs = Vec::new();
    for &file in &flags.files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let ckpt = schema::parse_checkpoint(&text).map_err(|e| format!("{file}: {e}"))?;
        if ckpt.torn_tail {
            eprintln!("tpi merge: {file}: ignoring torn trailing line");
        }
        if ckpt.skipped_lines > 0 {
            eprintln!(
                "tpi merge: {file}: skipped {} unparsable line(s)",
                ckpt.skipped_lines
            );
        }
        inputs.push(schema::ShardCheckpoint {
            file: file.to_string(),
            ckpt,
        });
    }
    let merged = match schema::merge_checkpoints(&inputs) {
        Ok(merged) => merged,
        Err(e) => {
            // Structured refusal: machine-readable line first, human
            // message via the normal error path.
            eprintln!("{}", e.to_json());
            return Err(format!("merge: {e}"));
        }
    };

    let mut doc = String::new();
    for line in &merged.lines {
        doc.push_str(&line.to_string());
        doc.push('\n');
    }
    doc.push_str(&merged.summary_json().to_string());
    doc.push('\n');
    if let Some(out) = flags.get("out") {
        std::fs::write(out, &doc).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out}");
    } else {
        print!("{doc}");
    }
    eprintln!(
        "merge: {} shard(s), {} jobs — {} ok, {} error, {} panic, {} timeout, {} cancelled",
        merged.shards,
        merged.jobs,
        merged.summary.ok,
        merged.summary.error,
        merged.summary.panic,
        merged.summary.timeout,
        merged.summary.cancelled,
    );

    let metrics_files = flags.get_all("metrics");
    match (flags.get("metrics-out"), metrics_files.is_empty()) {
        (Some(out), false) => {
            let mut combined = Snapshot::new();
            for file in metrics_files {
                let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
                let snap = schema::snapshot_from_json(&doc).map_err(|e| format!("{file}: {e}"))?;
                combined = combined.merge(&snap);
            }
            std::fs::write(out, combined.to_json()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        (Some(_), true) => {
            return Err("--metrics-out needs at least one --metrics FILE to merge".into())
        }
        (None, false) => return Err("--metrics needs --metrics-out FILE for the result".into()),
        (None, true) => {}
    }
    Ok(ExitCode::SUCCESS)
}

/// `tpi serve` — the line-JSON session front end, in two modes:
///
/// * `--stdio` (default): one session over stdin/stdout, exactly the
///   protocol existing driver scripts speak, plus SIGINT drain and
///   `--metrics-out`.
/// * `--listen ADDR`: the concurrent multi-session server (`unix:PATH`
///   or `HOST:PORT`) with admission control (`--max-sessions`,
///   `--accept-queue`, `--max-inflight`) and a cross-session shared DP
///   memo (`--shared-memo-capacity N` entries; `--isolated-memo` gives
///   every session a private memo — the A/B baseline the soak harness
///   measures against).
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["stdio", "isolated-memo"])?;
    let limits = serve::ServeLimits {
        max_gates: flags.opt_num("max-gates")?,
        max_patterns: flags.opt_num("max-patterns")?,
    };
    let metrics_out = flags.get("metrics-out").map(std::path::PathBuf::from);
    server::signal::install();
    let Some(listen) = flags.get("listen") else {
        // Single-session stdio mode (`--stdio` is accepted for
        // explicitness but is the default).
        return server::run_stdio(limits, metrics_out.as_deref())
            .map_err(|e| format!("serve: {e}"));
    };
    if flags.has("stdio") {
        return Err("--stdio and --listen are mutually exclusive".into());
    }
    let shared_memo = if flags.has("isolated-memo") {
        None
    } else {
        Some(SharedMemoConfig {
            capacity: flags.num("shared-memo-capacity", 65_536usize)?,
            ..SharedMemoConfig::default()
        })
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        limits,
        max_sessions: flags.num("max-sessions", defaults.max_sessions)?,
        accept_queue: flags.num("accept-queue", defaults.accept_queue)?,
        max_inflight: flags.num("max-inflight", defaults.max_inflight)?,
        shared_memo,
        metrics_out,
    };
    let addr = ListenAddr::parse(listen);
    let server = Server::bind(&addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("tpi serve: listening on {}", server.local_addr());
    let report = server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "tpi serve: drained — {} sessions served, {} rejected, {} overloaded, \
         {} shared-memo hits",
        report.sessions_served,
        report.sessions_rejected,
        report.overloaded,
        report.shared_memo_hits
    );
    Ok(())
}

/// `tpi stats FILE` — render a `--metrics-out` snapshot (or a serve
/// `metrics` reply) as an aligned table with histogram summaries.
fn stats_cmd(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let path = flags.file()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    // Accept both a bare snapshot document and a serve `metrics` reply
    // that wraps one under {"ok":true,"metrics":{...}}.
    let doc = doc.get("metrics").unwrap_or(&doc);
    let snapshot = schema::snapshot_from_json(doc).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", snapshot.to_table());
    Ok(())
}

fn export(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let circuit = load(flags.file()?)?;
    let mut wrote = false;
    if let Some(v) = flags.get("verilog") {
        std::fs::write(v, verilog::to_verilog(&circuit)).map_err(|e| format!("{v}: {e}"))?;
        println!("wrote {v}");
        wrote = true;
    }
    if let Some(d) = flags.get("dot") {
        std::fs::write(d, dot::to_dot(&circuit)).map_err(|e| format!("{d}: {e}"))?;
        println!("wrote {d}");
        wrote = true;
    }
    if !wrote {
        return Err("export needs --verilog FILE and/or --dot FILE".into());
    }
    Ok(())
}
