//! Fault-simulator throughput harness: PPSFP patterns × faults per
//! second on reconvergent circuits of growing size, measured at block
//! widths W ∈ {1, 4, 8} on the compiled wide-block kernels, in both
//! detection modes (explicit event-driven and critical path tracing).
//!
//! Unlike the Criterion micro-benchmarks, this harness emits a
//! machine-readable **`BENCH_fsim.json`** at the repository root so the
//! before/after comparison is scriptable. Historical per-PR snapshots
//! live under `results/fsim_*.json` and are embedded — once each —
//! under the report's versioned `snapshots` map:
//!
//! * `pre_pr` — before the compiled-kernel rewrite (whole-trajectory
//!   baseline for the `dropped`/`no_dropping` speedups);
//! * `pr2` — explicit mode with block-granular dropping (pre-CPT);
//! * `pr3` — pre-cancellation (bounds the polling cost, <1% at W=4);
//! * `pr4` — pre-instrumentation (bounds the always-on kernel-counter
//!   cost, <1% at W=4).
//!
//! While measuring, the harness cross-checks that every width and every
//! detection mode produces bit-identical first-detection indices and
//! counts, and that the work-stealing scheduler agrees with the
//! sequential run — a wrong but fast kernel must fail the bench, not
//! win it.
//!
//! `cargo bench -p tpi-bench --bench fsim_throughput -- --test` runs a
//! small smoke check (identity only, one iteration, no JSON) — this is
//! what CI executes.

use std::path::Path;
use std::time::{Duration, Instant};

use tpi_core::{CandidateEval, Threshold};
use tpi_engine::json::Json;
use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
use tpi_gen::dags::{random_dag, RandomDagConfig};
use tpi_netlist::transform::apply_test_point;
use tpi_netlist::{TestPoint, TestPointKind};
use tpi_obs::Registry;
use tpi_sim::parallel::run_parallel_controlled;
use tpi_sim::{
    score_candidate_groups, DetectionMode, FaultSimResult, FaultSimulator, FaultUniverse,
    IndependentPatterns, RandomPatterns, RunControl, SimOptions,
};

/// Matches the Criterion groups this harness replaced: mean over 10
/// timed iterations after warm-up.
const SAMPLES: u32 = 10;
const WARMUP: u32 = 2;
const PATTERNS: u64 = 1_000;
const SEED: u64 = 9;
const WIDTHS: [usize; 3] = [1, 4, 8];

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = load_baseline(&root, "results/fsim_pre_pr.json");
    let pr2 = load_baseline(&root, "results/fsim_pr2.json");
    let pr3 = load_baseline(&root, "results/fsim_pr3.json");
    let pr4 = load_baseline(&root, "results/fsim_pr4.json");

    let mut dropped = Vec::new();
    let mut cpt_dropped = Vec::new();
    for gates in [100usize, 400, 1600] {
        let (explicit, cpt) = bench_dropped(gates, baseline.as_ref(), pr2.as_ref());
        dropped.push(explicit);
        cpt_dropped.push(cpt);
    }
    let (no_dropping, cpt_no_dropping) = bench_no_dropping(baseline.as_ref(), pr2.as_ref());
    let candidate_eval = bench_candidate_eval();
    let threads_section = bench_threads();
    let polling = bench_polling_overhead(pr3.as_ref());
    let metrics_section = bench_metrics_overhead(pr4.as_ref());

    // Every historical snapshot appears exactly once, keyed by the PR
    // that captured it (the old schema cloned the pre-PR document under
    // both `baseline` and `baseline_pr2`).
    let snapshots = Json::obj([
        ("pre_pr", baseline.map_or(Json::Null, |(_, raw)| raw)),
        ("pr2", pr2.map_or(Json::Null, |(_, raw)| raw)),
        ("pr3", pr3.map_or(Json::Null, |(_, raw)| raw)),
        ("pr4", pr4.map_or(Json::Null, |(_, raw)| raw)),
    ]);

    let report = Json::obj([
        ("bench", Json::from("fsim_throughput")),
        ("threads", Json::from(1u64)),
        ("samples", Json::from(u64::from(SAMPLES))),
        ("snapshots", snapshots),
        ("dropped", Json::Arr(dropped)),
        ("no_dropping", no_dropping),
        (
            "cpt",
            Json::obj([
                ("dropped", Json::Arr(cpt_dropped)),
                ("no_dropping", cpt_no_dropping),
            ]),
        ),
        ("candidate_eval", candidate_eval),
        ("thread_scaling", threads_section),
        ("polling", polling),
        ("metrics", metrics_section),
    ]);
    let out = root.join("BENCH_fsim.json");
    std::fs::write(&out, format!("{report}\n")).expect("write BENCH_fsim.json");
    println!("wrote {}", out.display());
}

/// A historical `ns_per_iter` table keyed `(group, gates, block_words)`,
/// plus the raw JSON document for embedding in the report. `block_words`
/// is 0 for documents predating per-width metrics (the pre-PR baseline,
/// measured at the then-only width).
type Baseline = (Vec<(String, u64, u64, f64)>, Json);

fn load_baseline(root: &Path, rel: &str) -> Option<Baseline> {
    let path = root.join(rel);
    let text = std::fs::read_to_string(&path).ok()?;
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{rel} parses: {e}"));
    let mut table = Vec::new();
    // Snapshots from PR 6 on nest the CPT groups under a `cpt` object;
    // expose them under dotted group names so `baseline_ns` can address
    // either detection mode uniformly.
    for group in ["dropped", "no_dropping", "cpt.dropped", "cpt.no_dropping"] {
        let node = match group.strip_prefix("cpt.") {
            Some(sub) => doc.get("cpt").and_then(|cpt| cpt.get(sub)),
            None => doc.get(group),
        };
        let entries = match node {
            Some(Json::Arr(entries)) => entries.clone(),
            Some(entry @ Json::Obj(_)) => vec![entry.clone()],
            _ => Vec::new(),
        };
        for entry in entries {
            let gates = entry.get("gates").and_then(Json::as_u64).expect("gates");
            if let Some(widths) = entry.get("widths").and_then(Json::as_arr) {
                for m in widths {
                    table.push((
                        group.to_string(),
                        gates,
                        m.get("block_words").and_then(Json::as_u64).expect("width"),
                        m.get("ns_per_iter").and_then(Json::as_f64).expect("ns"),
                    ));
                }
            } else {
                table.push((
                    group.to_string(),
                    gates,
                    0,
                    entry
                        .get("ns_per_iter")
                        .and_then(Json::as_f64)
                        .expect("ns_per_iter"),
                ));
            }
        }
    }
    Some((table, doc))
}

fn baseline_ns(baseline: Option<&Baseline>, group: &str, gates: usize, w: u64) -> Option<f64> {
    baseline?
        .0
        .iter()
        .find(|(g, n, bw, _)| g == group && *n as usize == gates && *bw == w)
        .map(|&(_, _, _, ns)| ns)
}

fn ladder_circuit(gates: usize, seed: u64) -> tpi_netlist::Circuit {
    random_dag(&RandomDagConfig::new(24, gates, seed)).expect("builds")
}

fn simulator(circuit: &tpi_netlist::Circuit, w: usize, detection: DetectionMode) -> FaultSimulator {
    let opts = SimOptions {
        block_words: w,
        detection,
        ..SimOptions::default()
    };
    FaultSimulator::with_options(circuit, opts).expect("acyclic")
}

fn time_ns(mut iter: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        iter();
    }
    let start = Instant::now();
    for _ in 0..SAMPLES {
        iter();
    }
    start.elapsed().as_nanos() as f64 / f64::from(SAMPLES)
}

/// Per-width metrics for one measured configuration.
fn metrics(w: usize, ns: f64, patterns: u64, faults: usize, gates: usize) -> Json {
    let secs = ns * 1e-9;
    Json::obj([
        ("block_words", Json::from(w)),
        ("ns_per_iter", Json::from(ns)),
        (
            "fault_patterns_per_sec",
            Json::from((patterns * faults as u64) as f64 / secs),
        ),
        ("patterns_per_sec", Json::from(patterns as f64 / secs)),
        (
            "mgate_evals_per_sec",
            Json::from((patterns * gates as u64) as f64 / secs / 1e6),
        ),
    ])
}

fn bench_dropped(
    gates: usize,
    baseline: Option<&Baseline>,
    pr2: Option<&Baseline>,
) -> (Json, Json) {
    let circuit = ladder_circuit(gates, 5);
    let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
    let n_inputs = circuit.inputs().len();
    let mut widths = Vec::new();
    let mut cpt_widths = Vec::new();
    let mut reference: Option<FaultSimResult> = None;
    let mut ns_by_width = Vec::new();
    let mut cpt_ns_by_width = Vec::new();
    for mode in [DetectionMode::Explicit, DetectionMode::CriticalPathTracing] {
        for w in WIDTHS {
            let mut sim = simulator(&circuit, w, mode);
            let mut result = None;
            let ns = time_ns(|| {
                let mut src = RandomPatterns::new(n_inputs, SEED);
                result = Some(
                    sim.run(&mut src, PATTERNS, universe.faults())
                        .expect("runs"),
                );
            });
            let result = result.expect("measured at least once");
            match &reference {
                None => reference = Some(result),
                Some(narrow) => {
                    assert_eq!(
                        narrow.patterns_applied(),
                        result.patterns_applied(),
                        "{mode:?} W={w} patterns diverge ({gates} gates)"
                    );
                    for i in 0..universe.len() {
                        assert_eq!(
                            narrow.first_detection(i),
                            result.first_detection(i),
                            "{mode:?} W={w} diverges from explicit W=1 on fault {i} \
                             ({gates} gates)"
                        );
                    }
                }
            }
            let tag = match mode {
                DetectionMode::Explicit => "explicit",
                DetectionMode::CriticalPathTracing => "cpt",
            };
            println!(
                "fault_sim_1k_patterns/{gates} ({tag}, W={w}): {ns:.1} ns/iter \
                 ({:.3e} fault-patterns/s)",
                (PATTERNS * universe.len() as u64) as f64 / (ns * 1e-9)
            );
            match mode {
                DetectionMode::Explicit => {
                    ns_by_width.push(ns);
                    widths.push(metrics(w, ns, PATTERNS, universe.len(), gates));
                }
                DetectionMode::CriticalPathTracing => {
                    cpt_ns_by_width.push(ns);
                    cpt_widths.push(metrics(w, ns, PATTERNS, universe.len(), gates));
                }
            }
        }
    }
    let explicit = group_entry(
        gates,
        n_inputs,
        universe.len(),
        PATTERNS,
        widths,
        &ns_by_width,
        baseline_ns(baseline, "dropped", gates, 0),
    );
    let cpt = cpt_entry(
        gates,
        universe.len(),
        PATTERNS,
        cpt_widths,
        &cpt_ns_by_width,
        &ns_by_width,
        pr2_pair(pr2, "dropped", gates),
    );
    (explicit, cpt)
}

fn bench_no_dropping(baseline: Option<&Baseline>, pr2: Option<&Baseline>) -> (Json, Json) {
    let gates = 400usize;
    let patterns = 512u64;
    let circuit = ladder_circuit(gates, 6);
    let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
    let n_inputs = circuit.inputs().len();
    let mut widths = Vec::new();
    let mut cpt_widths = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let mut ns_by_width = Vec::new();
    let mut cpt_ns_by_width = Vec::new();
    for mode in [DetectionMode::Explicit, DetectionMode::CriticalPathTracing] {
        for w in WIDTHS {
            let mut sim = simulator(&circuit, w, mode);
            let mut counts = None;
            let ns = time_ns(|| {
                let mut src = RandomPatterns::new(n_inputs, SEED);
                counts = Some(
                    sim.run_counting(&mut src, patterns, universe.faults())
                        .expect("runs")
                        .0,
                );
            });
            let counts = counts.expect("measured at least once");
            match &reference {
                None => reference = Some(counts),
                Some(narrow) => assert_eq!(
                    narrow, &counts,
                    "{mode:?} W={w} counts diverge from explicit W=1"
                ),
            }
            let tag = match mode {
                DetectionMode::Explicit => "explicit",
                DetectionMode::CriticalPathTracing => "cpt",
            };
            println!(
                "fault_sim_no_dropping/{gates}_gates_{patterns}_patterns ({tag}, W={w}): \
                 {ns:.1} ns/iter"
            );
            match mode {
                DetectionMode::Explicit => {
                    ns_by_width.push(ns);
                    widths.push(metrics(w, ns, patterns, universe.len(), gates));
                }
                DetectionMode::CriticalPathTracing => {
                    cpt_ns_by_width.push(ns);
                    cpt_widths.push(metrics(w, ns, patterns, universe.len(), gates));
                }
            }
        }
    }
    let explicit = group_entry(
        gates,
        n_inputs,
        universe.len(),
        patterns,
        widths,
        &ns_by_width,
        baseline_ns(baseline, "no_dropping", gates, 0),
    );
    let cpt = cpt_entry(
        gates,
        universe.len(),
        patterns,
        cpt_widths,
        &cpt_ns_by_width,
        &ns_by_width,
        pr2_pair(pr2, "no_dropping", gates),
    );
    (explicit, cpt)
}

/// PR-2 `(W=1, W=4)` ns for a group, if the snapshot is present.
fn pr2_pair(pr2: Option<&Baseline>, group: &str, gates: usize) -> (Option<f64>, Option<f64>) {
    (
        baseline_ns(pr2, group, gates, 1),
        baseline_ns(pr2, group, gates, 4),
    )
}

/// The explicit-mode entry, shaped exactly like the PR-2 report so the
/// trajectory tooling keeps parsing.
fn group_entry(
    gates: usize,
    inputs: usize,
    faults: usize,
    patterns: u64,
    widths: Vec<Json>,
    ns_by_width: &[f64],
    baseline: Option<f64>,
) -> Json {
    let mut entry = vec![
        ("gates", Json::from(gates)),
        ("inputs", Json::from(inputs)),
        ("faults", Json::from(faults)),
        ("patterns", Json::from(patterns)),
        ("widths", Json::Arr(widths)),
        (
            "speedup_w4_over_w1",
            Json::from(ns_by_width[0] / ns_by_width[1]),
        ),
        (
            "speedup_w8_over_w1",
            Json::from(ns_by_width[0] / ns_by_width[2]),
        ),
        (
            "speedup_w8_over_w4",
            Json::from(ns_by_width[1] / ns_by_width[2]),
        ),
    ];
    if let Some(before) = baseline {
        entry.push(("baseline_ns_per_iter", Json::from(before)));
        entry.push((
            "speedup_vs_baseline_w1",
            Json::from(before / ns_by_width[0]),
        ));
        entry.push((
            "speedup_vs_baseline_w4",
            Json::from(before / ns_by_width[1]),
        ));
    }
    Json::obj(entry)
}

/// The CPT entry: same metrics plus speedups against this run's explicit
/// mode and against the PR-2 snapshot (the pre-CPT trajectory point).
fn cpt_entry(
    gates: usize,
    faults: usize,
    patterns: u64,
    widths: Vec<Json>,
    cpt_ns: &[f64],
    explicit_ns: &[f64],
    pr2: (Option<f64>, Option<f64>),
) -> Json {
    let mut entry = vec![
        ("gates", Json::from(gates)),
        ("faults", Json::from(faults)),
        ("patterns", Json::from(patterns)),
        ("widths", Json::Arr(widths)),
        ("speedup_w4_over_w1", Json::from(cpt_ns[0] / cpt_ns[1])),
        ("speedup_w8_over_w1", Json::from(cpt_ns[0] / cpt_ns[2])),
        ("speedup_w8_over_w4", Json::from(cpt_ns[1] / cpt_ns[2])),
        (
            "speedup_vs_explicit_w1",
            Json::from(explicit_ns[0] / cpt_ns[0]),
        ),
        (
            "speedup_vs_explicit_w4",
            Json::from(explicit_ns[1] / cpt_ns[1]),
        ),
    ];
    if let Some(before) = pr2.0 {
        entry.push(("pr2_ns_per_iter_w1", Json::from(before)));
        entry.push(("speedup_vs_pr2_w1", Json::from(before / cpt_ns[0])));
        entry.push(("speedup_vs_pr2_w1_at_w4", Json::from(before / cpt_ns[1])));
    }
    if let Some(before) = pr2.1 {
        entry.push(("pr2_ns_per_iter_w4", Json::from(before)));
        entry.push(("speedup_vs_pr2_w4", Json::from(before / cpt_ns[1])));
    }
    Json::obj(entry)
}

/// Candidate-scoring A/B on the 1600-gate suite circuit: the legacy
/// clone-and-resimulate-everything referee loop against the batched
/// scorer (`score_candidate_groups`), which validates groups before
/// cloning and simulates only each candidate's dirty faults. Every
/// group's detected count is asserted identical between the two paths
/// before any throughput is reported — a wrong but fast scorer must
/// fail the bench, not win it. Min-of-N (the acceptance ratio is about
/// unpreempted scoring cost, not shared-host noise). Scoring threads
/// above the host's hardware threads are not timed (as in
/// `thread_scaling`).
///
/// The section also times the end-to-end engine constructive loop
/// (`TpiEngine::optimize`, the core of `tpi insert --method
/// constructive`) under both `candidate_eval` settings and asserts the
/// committed plans are identical.
fn bench_candidate_eval() -> Json {
    const MIN_SAMPLES: u32 = 10;
    let time_ns_min = |warmup: u32, samples: u32, iter: &mut dyn FnMut()| -> f64 {
        for _ in 0..warmup {
            iter();
        }
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let start = Instant::now();
            iter();
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    };

    let gates = 1600usize;
    let patterns = 1024u64;
    let seed = SEED;
    let circuit = ladder_circuit(gates, 5);
    let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
    let n_inputs = circuit.inputs().len();
    let opts = SimOptions::default();

    // Classify the undetected faults under the scoring stream — the
    // same state the optimizers referee from.
    let mut sim = FaultSimulator::with_options(&circuit, opts).expect("acyclic");
    let mut src = IndependentPatterns::new(n_inputs, seed);
    let base = sim
        .run(&mut src, patterns, universe.faults())
        .expect("runs");
    let undetected: Vec<tpi_sim::Fault> = (0..universe.len())
        .filter(|&i| base.first_detection(i).is_none())
        .map(|i| universe.faults()[i])
        .collect();

    // Single-point candidate groups over a deterministic node sample,
    // all four kinds each — the shape the search loops referee.
    let groups: Vec<Vec<TestPoint>> = circuit
        .node_ids()
        .step_by(97)
        .flat_map(|n| {
            TestPointKind::ALL
                .iter()
                .map(move |&k| vec![TestPoint::new(n, k)])
        })
        .collect();

    // Legacy referee: clone, apply, compile a fresh simulator and
    // re-simulate every undetected fault per group.
    let legacy_score = |group: &[TestPoint]| -> Option<u64> {
        let mut scratch = circuit.clone();
        for &tp in group {
            if apply_test_point(&mut scratch, tp).is_err() {
                return None;
            }
        }
        let mut sim = FaultSimulator::with_options(&scratch, opts).expect("acyclic");
        let mut src = IndependentPatterns::new(scratch.inputs().len(), seed);
        let run = sim.run(&mut src, patterns, &undetected).expect("runs");
        Some(run.detected_count() as u64)
    };
    let mut legacy_counts: Vec<Option<u64>> = Vec::new();
    let legacy_ns = time_ns_min(1, MIN_SAMPLES, &mut || {
        legacy_counts = groups.iter().map(|g| legacy_score(g)).collect();
    });

    let control = RunControl::unlimited();
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut batched_by_threads = Vec::new();
    let mut batched_t1_ns = f64::NAN;
    for threads in [1usize, 2, 4] {
        if threads > hardware_threads {
            continue;
        }
        let mut scores = Vec::new();
        let ns = time_ns_min(1, MIN_SAMPLES, &mut || {
            let batch = score_candidate_groups(
                &circuit,
                &undetected,
                &groups,
                patterns,
                seed,
                opts,
                threads,
                &control,
            )
            .expect("scores");
            assert!(batch.stopped.is_none());
            scores = batch.scores;
        });
        for (gi, (legacy, score)) in legacy_counts.iter().zip(&scores).enumerate() {
            assert_eq!(
                *legacy, score.detected,
                "batched scorer (threads={threads}) diverges from legacy on group {gi}"
            );
        }
        if threads == 1 {
            batched_t1_ns = ns;
        }
        println!(
            "candidate_eval/{gates} (batched, threads={threads}): {ns:.0} ns/batch \
             ({:.1} candidates/s)",
            groups.len() as f64 / (ns * 1e-9)
        );
        batched_by_threads.push(Json::obj([
            ("threads", Json::from(threads)),
            ("ns_per_batch", Json::from(ns)),
            (
                "candidates_per_sec",
                Json::from(groups.len() as f64 / (ns * 1e-9)),
            ),
        ]));
    }
    let speedup = legacy_ns / batched_t1_ns;
    println!(
        "candidate_eval/{gates} (legacy): {legacy_ns:.0} ns/batch \
         ({:.1} candidates/s) → batched speedup {speedup:.2}x",
        groups.len() as f64 / (legacy_ns * 1e-9)
    );
    assert!(
        speedup >= 3.0,
        "batched candidate scoring must be ≥3x legacy on the {gates}-gate suite \
         (got {speedup:.2}x)"
    );

    // End-to-end constructive session under both scoring paths.
    let threshold = Threshold::from_log2(-10.0);
    let optimize = |candidate_eval: CandidateEval| {
        let mut engine = TpiEngine::new(
            circuit.clone(),
            EngineConfig {
                candidate_eval,
                ..EngineConfig::default()
            },
        )
        .expect("engine");
        engine
            .optimize(threshold, &OptimizeConfig::default())
            .expect("optimize")
            .plan
    };
    let mut legacy_plan = None;
    let legacy_e2e_ns = time_ns_min(1, 3, &mut || {
        legacy_plan = Some(optimize(CandidateEval::Legacy));
    });
    let mut batched_plan = None;
    let batched_e2e_ns = time_ns_min(1, 3, &mut || {
        batched_plan = Some(optimize(CandidateEval::Batched));
    });
    assert_eq!(
        legacy_plan, batched_plan,
        "constructive plans must be identical under both scoring paths"
    );
    println!(
        "candidate_eval/{gates} engine optimize: legacy {:.1} ms → batched {:.1} ms \
         ({:.2}x)",
        legacy_e2e_ns * 1e-6,
        batched_e2e_ns * 1e-6,
        legacy_e2e_ns / batched_e2e_ns
    );

    Json::obj([
        ("gates", Json::from(gates)),
        ("patterns", Json::from(patterns)),
        ("undetected_faults", Json::from(undetected.len())),
        ("candidate_groups", Json::from(groups.len())),
        ("hardware_threads", Json::from(hardware_threads)),
        ("legacy_ns_per_batch", Json::from(legacy_ns)),
        (
            "legacy_candidates_per_sec",
            Json::from(groups.len() as f64 / (legacy_ns * 1e-9)),
        ),
        ("batched", Json::Arr(batched_by_threads)),
        ("speedup_batched_over_legacy", Json::from(speedup)),
        (
            "engine_optimize",
            Json::obj([
                ("legacy_ns", Json::from(legacy_e2e_ns)),
                ("batched_ns", Json::from(batched_e2e_ns)),
                (
                    "speedup_batched_over_legacy",
                    Json::from(legacy_e2e_ns / batched_e2e_ns),
                ),
            ]),
        ),
    ])
}

/// Work-stealing scheduler timings at 1, 2 and 4 threads (400 gates,
/// dropped, W=4), omitting thread counts above the host's hardware
/// threads (a speedup measured there only shows time slicing). Every
/// configuration's first detections are asserted bit-identical to the
/// sequential run before timings are reported — partitioning and
/// stealing must never change results, only wall-clock. Min-of-15 per
/// configuration (thread scheduling makes the mean even noisier than
/// the sequential sections).
fn bench_threads() -> Json {
    const MIN_SAMPLES: u32 = 15;
    let time_ns_min = |iter: &mut dyn FnMut()| -> f64 {
        for _ in 0..2 {
            iter();
        }
        let mut best = f64::INFINITY;
        for _ in 0..MIN_SAMPLES {
            let start = Instant::now();
            iter();
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    };
    let gates = 400usize;
    let circuit = ladder_circuit(gates, 5);
    let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
    let n_inputs = circuit.inputs().len();
    let opts = || SimOptions {
        block_words: 4,
        ..SimOptions::default()
    };
    let mut sequential = simulator(&circuit, 4, DetectionMode::Explicit);
    let mut src = RandomPatterns::new(n_inputs, SEED);
    let reference = sequential
        .run(&mut src, PATTERNS, universe.faults())
        .expect("runs");
    let check = |threads: usize, result: &FaultSimResult| {
        assert_eq!(
            reference.patterns_applied(),
            result.patterns_applied(),
            "threads={threads} patterns diverge from sequential"
        );
        for i in 0..universe.len() {
            assert_eq!(
                reference.first_detection(i),
                result.first_detection(i),
                "threads={threads} diverges from sequential on fault {i}"
            );
        }
    };
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows = Vec::new();
    let mut one_thread_ns = f64::NAN;
    for threads in [1usize, 2, 4] {
        if threads > hardware_threads {
            continue;
        }
        let mut result = None;
        let stealing_ns = time_ns_min(&mut || {
            result = Some(
                run_parallel_controlled(
                    &circuit,
                    || RandomPatterns::new(n_inputs, SEED),
                    PATTERNS,
                    universe.faults(),
                    threads,
                    opts(),
                    &RunControl::unlimited(),
                )
                .expect("runs")
                .result,
            );
        });
        check(threads, &result.expect("measured"));
        if threads == 1 {
            one_thread_ns = stealing_ns;
        }
        println!(
            "thread_scaling/{gates} (W=4, threads={threads}): {stealing_ns:.1} ns ({:.3}x \
             over one thread)",
            one_thread_ns / stealing_ns
        );
        rows.push(Json::obj([
            ("threads", Json::from(threads)),
            ("stealing_ns_per_iter", Json::from(stealing_ns)),
            (
                "speedup_over_one_thread",
                Json::from(one_thread_ns / stealing_ns),
            ),
        ]));
    }
    Json::obj([
        ("gates", Json::from(gates)),
        ("faults", Json::from(universe.len())),
        ("patterns", Json::from(PATTERNS)),
        ("block_words", Json::from(4u64)),
        ("hardware_threads", Json::from(hardware_threads)),
        ("by_threads", Json::Arr(rows)),
    ])
}

/// Cancellation-polling overhead at W=4 (acceptance bound: <1% of
/// fault-sim throughput).
///
/// Two independent checks, both asserted:
///
/// 1. **Direct A/B** — the production `run` path (unlimited token: one
///    `Option` branch per block) against `run_controlled` under a
///    far-future deadline token (the most expensive poll: `Arc` deref,
///    atomic load, `Instant::now` per block). Both are min-of-N
///    back-to-back on the same circuit, so machine noise is largely
///    common-mode; bounding the expensive variant bounds every
///    cancellation configuration.
/// 2. **PR-3 snapshot** — a fresh min-of-30 timing of the production
///    explicit W=4 path at each circuit size against
///    `results/fsim_pr3.json`, captured immediately before the polling
///    loop landed with the same min-of-30 estimator. The *minimum*
///    overhead across circuit sizes must stay under 1%: a real per-block
///    polling cost would show at every size, while a single-size wobble
///    is scheduler noise. (Min-of-N, not the mean-of-10 `dropped`
///    numbers above: on a shared host the mean swings tens of percent
///    run-to-run, while the minimum tracks the unpreempted kernel cost
///    this bound is about.)
fn bench_polling_overhead(pr3: Option<&Baseline>) -> Json {
    const POLL_SAMPLES: u32 = 30;
    let time_ns_min = |iter: &mut dyn FnMut()| -> f64 {
        for _ in 0..3 {
            iter();
        }
        let mut best = f64::INFINITY;
        for _ in 0..POLL_SAMPLES {
            let start = Instant::now();
            iter();
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    };

    let gates = 1600usize;
    let circuit = ladder_circuit(gates, 5);
    let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
    let n_inputs = circuit.inputs().len();
    let mut sim = simulator(&circuit, 4, DetectionMode::Explicit);
    let unlimited_ns = time_ns_min(&mut || {
        let mut src = RandomPatterns::new(n_inputs, SEED);
        sim.run(&mut src, PATTERNS, universe.faults())
            .expect("runs");
    });
    let control = RunControl::with_deadline(Duration::from_secs(3600));
    let deadline_ns = time_ns_min(&mut || {
        let mut src = RandomPatterns::new(n_inputs, SEED);
        let run = sim
            .run_controlled(&mut src, PATTERNS, universe.faults(), &control)
            .expect("runs");
        assert!(run.stopped.is_none(), "a 1h deadline must not trip");
    });
    let direct_overhead = deadline_ns / unlimited_ns - 1.0;
    println!(
        "polling overhead (direct, {gates} gates, W=4): unlimited {unlimited_ns:.0} ns, \
         deadline-token {deadline_ns:.0} ns → {:.3}%",
        direct_overhead * 100.0
    );
    assert!(
        direct_overhead < 0.01,
        "deadline-token polling costs {:.3}% at W=4 (must stay under 1%)",
        direct_overhead * 100.0
    );

    let mut vs_pr3 = Vec::new();
    let mut min_pr3_overhead: Option<f64> = None;
    for gates in [100usize, 400, 1600] {
        let Some(before) = baseline_ns(pr3, "dropped", gates, 4) else {
            continue;
        };
        let circuit = ladder_circuit(gates, 5);
        let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
        let n_inputs = circuit.inputs().len();
        let mut sim = simulator(&circuit, 4, DetectionMode::Explicit);
        let now = time_ns_min(&mut || {
            let mut src = RandomPatterns::new(n_inputs, SEED);
            sim.run(&mut src, PATTERNS, universe.faults())
                .expect("runs");
        });
        let overhead = now / before - 1.0;
        println!(
            "polling overhead vs PR-3 ({gates} gates, W=4): {before:.0} → {now:.0} ns \
             ({:+.3}%)",
            overhead * 100.0
        );
        min_pr3_overhead = Some(min_pr3_overhead.map_or(overhead, |m: f64| m.min(overhead)));
        vs_pr3.push(Json::obj([
            ("gates", Json::from(gates)),
            ("pr3_ns_per_iter", Json::from(before)),
            ("ns_per_iter", Json::from(now)),
            ("overhead", Json::from(overhead)),
        ]));
    }
    if let Some(min_overhead) = min_pr3_overhead {
        assert!(
            min_overhead < 0.01,
            "W=4 throughput regressed {:.3}% vs the PR-3 snapshot at every size \
             (polling must cost under 1%)",
            min_overhead * 100.0
        );
    }

    Json::obj([
        ("gates", Json::from(gates)),
        ("block_words", Json::from(4u64)),
        ("unlimited_ns_per_iter", Json::from(unlimited_ns)),
        ("deadline_token_ns_per_iter", Json::from(deadline_ns)),
        ("direct_overhead", Json::from(direct_overhead)),
        ("vs_pr3_w4", Json::Arr(vs_pr3)),
    ])
}

/// Always-on instrumentation overhead at W=4 (acceptance bound: <1% of
/// dropped fault-sim throughput).
///
/// The kernel counters (`SimCounters`) increment unconditionally inside
/// `run`, so timing the production path here measures the instrumented
/// kernel. Comparing against `results/fsim_pr4.json` — captured at the
/// commit immediately before the counters landed, on the same machine,
/// with the same min-of-30 estimator used here — isolates the
/// instrumentation cost. As with the polling check, the *minimum*
/// overhead across circuit sizes must stay under 1%: a real per-event
/// counter cost would show at every size, while a single-size wobble is
/// scheduler noise. (Min-of-N, not mean: on a shared host the mean of
/// 10 iterations swings tens of percent run-to-run, while the minimum
/// tracks the unpreempted kernel cost this bound is about.)
///
/// The section also publishes each size's counter totals through a
/// `tpi_obs::Registry` into the report, and cross-checks that two
/// identical runs produce bit-identical counters (the registry path must
/// be deterministic, not just cheap).
fn bench_metrics_overhead(pr4: Option<&Baseline>) -> Json {
    const MIN_SAMPLES: u32 = 30;
    let registry = Registry::new();
    let mut per_size = Vec::new();
    let mut vs_pr4 = Vec::new();
    let mut min_overhead: Option<f64> = None;
    for gates in [100usize, 400, 1600] {
        let circuit = ladder_circuit(gates, 5);
        let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
        let n_inputs = circuit.inputs().len();
        let mut sim = simulator(&circuit, 4, DetectionMode::Explicit);
        let control = RunControl::unlimited();
        let mut src = RandomPatterns::new(n_inputs, SEED);
        let first = sim
            .run_controlled(&mut src, PATTERNS, universe.faults(), &control)
            .expect("runs");
        let mut src = RandomPatterns::new(n_inputs, SEED);
        let second = sim
            .run_controlled(&mut src, PATTERNS, universe.faults(), &control)
            .expect("runs");
        assert_eq!(
            first.counters, second.counters,
            "kernel counters must be deterministic across identical runs ({gates} gates)"
        );
        first.counters.publish_to(&registry);
        let c = first.counters;
        per_size.push(Json::obj([
            ("gates", Json::from(gates)),
            ("blocks", Json::from(c.blocks)),
            ("pattern_lanes", Json::from(c.pattern_lanes)),
            ("events", Json::from(c.events)),
            ("faults_dropped", Json::from(c.faults_dropped)),
            ("polls", Json::from(c.polls)),
        ]));
        println!(
            "instrumentation counters ({gates} gates, W=4): {} blocks, {} lanes, \
             {} events, {} dropped",
            c.blocks, c.pattern_lanes, c.events, c.faults_dropped
        );

        let mut best = f64::INFINITY;
        for _ in 0..MIN_SAMPLES {
            let mut src = RandomPatterns::new(n_inputs, SEED);
            let start = Instant::now();
            sim.run(&mut src, PATTERNS, universe.faults())
                .expect("runs");
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        let Some(before) = baseline_ns(pr4, "dropped", gates, 4) else {
            continue;
        };
        let overhead = best / before - 1.0;
        println!(
            "instrumentation overhead vs PR-4 ({gates} gates, W=4): {before:.0} → {best:.0} ns \
             ({:+.3}%)",
            overhead * 100.0
        );
        min_overhead = Some(min_overhead.map_or(overhead, |m: f64| m.min(overhead)));
        vs_pr4.push(Json::obj([
            ("gates", Json::from(gates)),
            ("pr4_ns_per_iter", Json::from(before)),
            ("ns_per_iter", Json::from(best)),
            ("overhead", Json::from(overhead)),
        ]));
    }
    if let Some(min) = min_overhead {
        assert!(
            min < 0.01,
            "W=4 throughput regressed {:.3}% vs the PR-4 snapshot at every size \
             (always-on instrumentation must cost under 1%)",
            min * 100.0
        );
    }

    let snapshot = Json::parse(&registry.snapshot().to_json()).expect("snapshot JSON parses");
    Json::obj([
        ("block_words", Json::from(4u64)),
        ("min_samples", Json::from(u64::from(MIN_SAMPLES))),
        ("counters", Json::Arr(per_size)),
        ("registry", snapshot),
        ("vs_pr4_w4", Json::Arr(vs_pr4)),
    ])
}

/// CI smoke: one small circuit, one iteration per width and mode; every
/// (width, mode) combination's first detections and counts must be
/// bit-identical to explicit W=1, and the work-stealing scheduler must
/// agree with the sequential run. No JSON output.
fn smoke() {
    let circuit = ladder_circuit(100, 5);
    let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
    let n_inputs = circuit.inputs().len();
    let mut narrow = simulator(&circuit, 1, DetectionMode::Explicit);
    let mut src = RandomPatterns::new(n_inputs, SEED);
    let reference = narrow.run(&mut src, 256, universe.faults()).expect("runs");
    let mut src = RandomPatterns::new(n_inputs, SEED);
    let (counts_ref, _) = narrow
        .run_counting(&mut src, 256, universe.faults())
        .expect("runs");
    for mode in [DetectionMode::Explicit, DetectionMode::CriticalPathTracing] {
        for w in [1usize, 2, 4, 8] {
            let mut sim = simulator(&circuit, w, mode);
            let mut src = RandomPatterns::new(n_inputs, SEED);
            let result = sim.run(&mut src, 256, universe.faults()).expect("runs");
            assert_eq!(
                reference.patterns_applied(),
                result.patterns_applied(),
                "{mode:?} W={w} patterns diverge"
            );
            for i in 0..universe.len() {
                assert_eq!(
                    reference.first_detection(i),
                    result.first_detection(i),
                    "{mode:?} W={w} diverges on fault {i}"
                );
            }
            let mut src = RandomPatterns::new(n_inputs, SEED);
            let (counts, _) = sim
                .run_counting(&mut src, 256, universe.faults())
                .expect("runs");
            assert_eq!(counts_ref, counts, "{mode:?} W={w} counts diverge");
        }
    }
    for threads in [2usize, 4] {
        let result = run_parallel_controlled(
            &circuit,
            || RandomPatterns::new(n_inputs, SEED),
            256,
            universe.faults(),
            threads,
            SimOptions::default(),
            &RunControl::unlimited(),
        )
        .expect("runs")
        .result;
        assert_eq!(
            reference.patterns_applied(),
            result.patterns_applied(),
            "threads={threads} patterns diverge"
        );
        for i in 0..universe.len() {
            assert_eq!(
                reference.first_detection(i),
                result.first_detection(i),
                "threads={threads} diverges on fault {i}"
            );
        }
    }
    // Batched candidate scoring agrees with the legacy referee loop.
    // Classify the undetected faults under the *scoring* stream: the
    // scorer only scores faults undetected under the same source, seed
    // and budget.
    let mut src = IndependentPatterns::new(n_inputs, SEED);
    let base = narrow.run(&mut src, 256, universe.faults()).expect("runs");
    let undetected: Vec<tpi_sim::Fault> = (0..universe.len())
        .filter(|&i| base.first_detection(i).is_none())
        .map(|i| universe.faults()[i])
        .collect();
    let groups: Vec<Vec<TestPoint>> = circuit
        .node_ids()
        .step_by(17)
        .flat_map(|n| {
            TestPointKind::ALL
                .iter()
                .map(move |&k| vec![TestPoint::new(n, k)])
        })
        .collect();
    let batch = score_candidate_groups(
        &circuit,
        &undetected,
        &groups,
        256,
        SEED,
        SimOptions::default(),
        2,
        &RunControl::unlimited(),
    )
    .expect("scores");
    assert!(batch.stopped.is_none());
    for (group, score) in groups.iter().zip(&batch.scores) {
        let mut scratch = circuit.clone();
        let legacy = if group
            .iter()
            .any(|&tp| apply_test_point(&mut scratch, tp).is_err())
        {
            None
        } else {
            let mut sim = FaultSimulator::new(&scratch).expect("acyclic");
            let mut src = IndependentPatterns::new(scratch.inputs().len(), SEED);
            Some(
                sim.run(&mut src, 256, &undetected)
                    .expect("runs")
                    .detected_count() as u64,
            )
        };
        assert_eq!(
            legacy, score.detected,
            "batched scorer diverges from legacy on group {group:?}"
        );
    }
    println!(
        "fsim_throughput smoke: ok (modes, scheduler and candidate scoring \
         bit-identical across W ∈ {{1,2,4,8}})"
    );
}
