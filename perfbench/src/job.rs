//! One benchmark job: the public calls `tpi insert` makes for one
//! `.bench` input, in the same order and with the same defaults as
//! `src/bin/tpi.rs` (`insert_coverage` / `insert_patterns`).
//!
//! Every call runs inside [`Recorder::stage`], so a traced pass sees one
//! span per call and an untraced pass runs the calls bare. Two calls are
//! traced-only measurements: a standalone `Topology::of` (the program
//! builds topology inside `TpiProblem::min_cost` and the engine), and
//! `TpiEngine::cube_set` ahead of `optimize_patterns` — the engine caches
//! the base set by netlist version, so that split moves its time into a
//! span of its own without changing the plan or the total work.

use std::sync::Arc;

use krishnamurthy_tpi::compaction::{PatternsConfig, SearchTier};
use krishnamurthy_tpi::core::report::InsertionReport;
use krishnamurthy_tpi::core::{
    CandidateEval, DpOptimizer, DpStats, GreedyConfig, GreedyOptimizer, Threshold, TpiProblem,
};
use krishnamurthy_tpi::engine::{EngineConfig, OptimizeConfig, RunControl, TpiEngine};
use krishnamurthy_tpi::netlist::bench_format::{self, ScanMode};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::{Circuit, TestPoint, Topology};
use krishnamurthy_tpi::obs::{Registry, Snapshot};
use krishnamurthy_tpi::sim::parallel::run_parallel_controlled;
use krishnamurthy_tpi::sim::{
    BackendChoice, DetectionMode, FaultUniverse, RandomPatterns, SimOptions, SimdBackend,
};

use crate::trace::Recorder;

/// `--log2-threshold` of every coverage job (δ = 2⁻¹⁰).
const LOG2_THRESHOLD: f64 = -10.0;

/// Patterns of the closing verification (`tpi insert`'s fixed 32 000).
const VERIFY_PATTERNS: u64 = 32_000;

/// The `tpi insert` mode a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `--method dp` (the paper's tree DP).
    Dp,
    /// `--method greedy`.
    Greedy,
    /// `--method constructive` (the engine session).
    Constructive,
    /// `--objective patterns --max-points N` (engine tier).
    Patterns {
        /// `--max-points`.
        max_points: usize,
    },
}

impl Method {
    /// The `tpi insert` arguments (after the file) selecting this job.
    pub fn cli_args(self) -> Vec<String> {
        let args = match self {
            Method::Dp => vec!["--method", "dp"],
            Method::Greedy => vec!["--method", "greedy"],
            Method::Constructive => vec!["--method", "constructive"],
            Method::Patterns { max_points } => {
                return vec![
                    "--objective".into(),
                    "patterns".into(),
                    "--max-points".into(),
                    max_points.to_string(),
                ]
            }
        };
        let mut out = vec!["--log2-threshold".to_string(), LOG2_THRESHOLD.to_string()];
        out.extend(args.into_iter().map(String::from));
        out
    }
}

/// What one job produced, for checks, digests and metrics.
#[derive(Clone, Debug, Default)]
pub struct JobOutput {
    /// Committed points as `<mnemonic>@<node name>`, in plan order.
    pub points: Vec<String>,
    /// Plan cost.
    pub cost: f64,
    /// Closing-verification fault coverage, percent (coverage jobs).
    pub coverage_pct: Option<f64>,
    /// COP targets meeting δ after insertion, and all targets
    /// (coverage jobs, from `InsertionReport`).
    pub targets: Option<(usize, usize)>,
    /// Whether the evaluator finds the plan feasible (coverage jobs).
    pub feasible: Option<bool>,
    /// Compacted patterns before and after insertion (patterns jobs).
    pub patterns: Option<(usize, usize)>,
    /// Faults the cube set leaves uncovered, before and after
    /// insertion (patterns jobs).
    pub uncovered: Option<(usize, usize)>,
    /// Work statistics of the tree DP (`--method dp`).
    pub dp_stats: Option<DpStats>,
    /// The job's metrics registry, read out after the job (traced
    /// passes only).
    pub snapshot: Option<Snapshot>,
}

impl JobOutput {
    /// The plan summary two runs must agree on byte for byte.
    pub fn digest_line(&self) -> String {
        let mut line = format!("{} cost {}", self.points.join(","), self.cost);
        if let Some((_, after)) = self.patterns {
            line.push_str(&format!(" patterns_after {after}"));
        }
        line
    }
}

/// The simulation options `tpi insert` uses with no `--block-words`,
/// `--detection` or `--simd-backend` flag, validated as the CLI does.
fn sim_options() -> Result<SimOptions, String> {
    let backend = BackendChoice::Auto;
    SimdBackend::resolve(backend).map_err(|e| format!("--simd-backend: {e}"))?;
    Ok(SimOptions {
        block_words: 0,
        detection: DetectionMode::CriticalPathTracing,
        backend,
    })
}

/// The backend `auto` resolves to on this host (the `sim.backend`
/// gauge's value).
pub fn resolved_backend() -> String {
    SimdBackend::resolve(BackendChoice::Auto)
        .map_or_else(|e| format!("unresolved ({e})"), |b| b.name().to_string())
}

fn load(name: &str, text: &str) -> Result<Circuit, String> {
    bench_format::parse_bench_with(text, name, ScanMode::FullScan)
        .map_err(|e| format!("{name}: {e}"))
}

fn point_names(circuit: &Circuit, points: &[TestPoint]) -> Vec<String> {
    points
        .iter()
        .map(|tp| format!("{}@{}", tp.kind.mnemonic(), circuit.node_name(tp.node)))
        .collect()
}

/// Run one job on the `.bench` text `text` (circuit name `name`), with
/// `threads` verification workers.
///
/// # Errors
///
/// Whatever the program reports, as `tpi insert` would print it, plus an
/// interrupted run (no job sets a deadline, so one is a failure).
pub fn run_job(
    method: Method,
    name: &str,
    text: &str,
    threads: usize,
    rec: &mut Recorder,
) -> Result<JobOutput, String> {
    match method {
        Method::Patterns { max_points } => run_patterns(max_points, name, text, rec),
        _ => run_coverage(method, name, text, threads, rec),
    }
}

fn run_coverage(
    method: Method,
    name: &str,
    text: &str,
    threads: usize,
    rec: &mut Recorder,
) -> Result<JobOutput, String> {
    let circuit = rec.stage("netlist.parse", true, || load(name, text))?;
    if rec.traced() {
        rec.stage("netlist.topology", false, || Topology::of(&circuit))
            .map_err(|e| e.to_string())?;
    }
    let threshold = Threshold::from_log2(LOG2_THRESHOLD);
    let candidate_eval = CandidateEval::Batched;
    let score_threads = 1;
    let options = sim_options()?;
    let control = RunControl::with_limits(None, None);
    let registry = Arc::new(Registry::new());
    let problem = rec
        .stage("testability.problem", true, || {
            TpiProblem::min_cost(&circuit, threshold)
        })
        .map_err(|e| e.to_string())?;

    let mut out = JobOutput::default();
    let plan = match method {
        Method::Dp => {
            let (plan, stats) = rec
                .stage("core.dp", false, || {
                    DpOptimizer::default().solve_region_controlled(&problem, 1.0, &control)
                })
                .map_err(|e| e.to_string())?;
            out.dp_stats = Some(stats);
            plan
        }
        Method::Greedy => {
            let (plan, stopped) = rec
                .stage("core.greedy", false, || {
                    GreedyOptimizer::new(GreedyConfig {
                        candidate_eval,
                        ..GreedyConfig::default()
                    })
                    .solve_controlled(&problem, &control)
                })
                .map_err(|e| e.to_string())?;
            if let Some(reason) = stopped {
                return Err(format!("greedy stopped early: {reason}"));
            }
            plan
        }
        Method::Constructive => {
            let mut engine = rec
                .stage("engine.open", true, || {
                    TpiEngine::with_registry(
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
                })
                .map_err(|e| e.to_string())?;
            engine.set_control(control.clone());
            let outcome = rec
                .stage("engine.optimize", false, || {
                    engine.optimize(threshold, &OptimizeConfig::default())
                })
                .map_err(|e| e.to_string())?;
            std::hint::black_box(engine.stats());
            if let Some(reason) = outcome.interrupted {
                return Err(format!("constructive stopped early: {reason}"));
            }
            outcome.plan
        }
        Method::Patterns { .. } => unreachable!("patterns jobs take run_patterns"),
    };

    let report = rec
        .stage("core.report", false, || {
            // `tpi insert` prints the report text; render it too.
            InsertionReport::build(&problem, &plan).inspect(|r| {
                std::hint::black_box(r.to_text());
            })
        })
        .map_err(|e| e.to_string())?;
    let (modified, _) = rec
        .stage("netlist.apply_plan", false, || {
            apply_plan(&circuit, plan.test_points())
        })
        .map_err(|e| e.to_string())?;
    let universe = rec
        .stage("sim.universe", true, || FaultUniverse::collapsed(&circuit))
        .map_err(|e| e.to_string())?;
    let n_inputs = modified.inputs().len();
    let verify_run = rec
        .stage("sim.verify", false, || {
            run_parallel_controlled(
                &modified,
                || RandomPatterns::new(n_inputs, 1),
                VERIFY_PATTERNS,
                universe.faults(),
                threads,
                options,
                &RunControl::unlimited(),
            )
        })
        .map_err(|e| e.to_string())?;
    verify_run.counters.publish_to(&registry);
    SimdBackend::resolve(options.backend)
        .expect("backend validated by sim_options")
        .publish_to(&registry);

    out.points = point_names(&modified, plan.test_points());
    out.cost = plan.cost();
    out.coverage_pct = Some(verify_run.result.coverage() * 100.0);
    out.targets = Some((report.after.meeting, report.after.probabilities.len()));
    out.feasible = Some(report.after.feasible);
    out.snapshot = rec.traced().then(|| registry.snapshot());
    Ok(out)
}

fn run_patterns(
    max_points: usize,
    name: &str,
    text: &str,
    rec: &mut Recorder,
) -> Result<JobOutput, String> {
    let circuit = rec.stage("netlist.parse", true, || load(name, text))?;
    if rec.traced() {
        rec.stage("netlist.topology", false, || Topology::of(&circuit))
            .map_err(|e| e.to_string())?;
    }
    let control = RunControl::with_limits(None, None);
    let registry = Arc::new(Registry::new());
    let config = PatternsConfig {
        max_points,
        probe_width: 4,
        tier: SearchTier::Constructive,
        ..PatternsConfig::default()
    };
    let mut engine = rec
        .stage("engine.open", true, || {
            TpiEngine::with_registry(
                circuit.clone(),
                EngineConfig {
                    verify_incremental: false,
                    ..EngineConfig::default()
                },
                registry.clone(),
            )
        })
        .map_err(|e| e.to_string())?;
    engine.set_control(control.clone());
    if rec.traced() {
        rec.stage("atpg.cube_set", false, || engine.cube_set(&config.cubes))
            .map_err(|e| e.to_string())?;
    }
    let outcome = rec
        .stage("compaction.optimize_patterns", false, || {
            engine.optimize_patterns(&config)
        })
        .map_err(|e| e.to_string())?;
    if let Some(reason) = outcome.interrupted {
        return Err(format!("patterns search stopped early: {reason}"));
    }
    // The session caches the committed version's cube set, so this reads
    // the final set's uncovered count without regenerating it.
    let after = engine.cube_set(&config.cubes).map_err(|e| e.to_string())?;

    Ok(JobOutput {
        points: point_names(&outcome.modified, outcome.plan.test_points()),
        cost: outcome.plan.cost(),
        patterns: Some((outcome.patterns_before, outcome.patterns_after)),
        uncovered: Some((outcome.uncovered_before, after.uncovered)),
        snapshot: rec.traced().then(|| registry.snapshot()),
        ..JobOutput::default()
    })
}

/// Per-job output checks.
///
/// # Errors
///
/// A description of the first violated check.
pub fn check(method: Method, out: &JobOutput) -> Result<(), String> {
    if !out.cost.is_finite() || out.cost < 0.0 {
        return Err(format!(
            "plan cost {} is not finite and non-negative",
            out.cost
        ));
    }
    match method {
        Method::Patterns { max_points } => {
            let (before, after) = out.patterns.ok_or("no pattern counts")?;
            if after > before {
                return Err(format!("patterns_after {after} > patterns_before {before}"));
            }
            let (unc_before, unc_after) = out.uncovered.ok_or("no uncovered counts")?;
            if unc_after > unc_before {
                return Err(format!("uncovered faults grew {unc_before} -> {unc_after}"));
            }
            if out.points.len() > max_points {
                return Err(format!(
                    "{} points exceed --max-points {max_points}",
                    out.points.len()
                ));
            }
        }
        _ => {
            let coverage = out.coverage_pct.ok_or("no closing coverage")?;
            if !(0.0..=100.0).contains(&coverage) {
                return Err(format!("coverage {coverage}% out of range"));
            }
            let (met, all) = out.targets.ok_or("no target counts")?;
            if met > all {
                return Err(format!("{met} of {all} targets met"));
            }
            if method == Method::Dp && out.feasible != Some(true) {
                return Err("PlanEvaluator finds the DP plan infeasible".into());
            }
        }
    }
    Ok(())
}
