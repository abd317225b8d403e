//! ATPG / compaction throughput harness: deterministic cube generation,
//! pairwise conflict analysis and the end-to-end `--objective patterns`
//! search on the generated random-pattern-resistant suite.
//!
//! Like `fsim_throughput`, this harness emits a machine-readable
//! **`BENCH_atpg.json`** at the repository root so before/after
//! comparisons are scriptable. All timings use the **min-of-30**
//! estimator (see the polling section of `fsim_throughput` for why: on
//! a shared host the mean swings tens of percent run-to-run, while the
//! minimum tracks the unpreempted cost a regression bound is about).
//!
//! While measuring, the harness cross-checks the subsystem's core
//! guarantees — cube generation is deterministic across repetitions,
//! and the patterns objective never reports more compacted patterns
//! than the no-TPI baseline — so a wrong but fast path fails the bench
//! instead of winning it.
//!
//! `cargo bench -p tpi-bench --bench atpg_throughput -- --test` runs a
//! one-iteration smoke (assertions only, no JSON) — this is what CI
//! executes.

use std::path::Path;
use std::time::Instant;

use tpi_compaction::{ConflictAnalysis, CubeConfig, CubeSet, PatternsConfig, PatternsOptimizer};
use tpi_engine::json::Json;
use tpi_gen::dags::{random_dag, RandomDagConfig};
use tpi_gen::rpr;
use tpi_netlist::Circuit;
use tpi_sim::{FaultUniverse, RunControl};

const SAMPLES: u32 = 30;
const WARMUP: u32 = 2;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    let mut cube_generation = Vec::new();
    let mut conflict_analysis = Vec::new();
    let mut patterns_e2e = Vec::new();
    for (name, circuit) in suite() {
        let (gen_entry, set) = bench_cube_generation(name, &circuit);
        cube_generation.push(gen_entry);
        conflict_analysis.push(bench_conflict_analysis(name, &circuit, &set));
        patterns_e2e.push(bench_patterns_e2e(name, &circuit));
    }

    let report = Json::obj([
        ("bench", Json::from("atpg_throughput")),
        ("threads", Json::from(1u64)),
        ("samples", Json::from(u64::from(SAMPLES))),
        ("estimator", Json::from("min")),
        (
            "compaction",
            Json::obj([
                ("cube_generation", Json::Arr(cube_generation)),
                ("conflict_analysis", Json::Arr(conflict_analysis)),
                ("patterns_e2e", Json::Arr(patterns_e2e)),
            ]),
        ),
    ]);
    let out = root.join("BENCH_atpg.json");
    std::fs::write(&out, format!("{report}\n")).expect("write BENCH_atpg.json");
    println!("wrote {}", out.display());
}

/// The measurement suite: the shapes the patterns objective is accepted
/// on, plus a reconvergent random DAG for a non-suite data point. Sized
/// so a min-of-30 pass stays interactive (each e2e iteration re-runs
/// ATPG per probe).
fn suite() -> Vec<(&'static str, Circuit)> {
    vec![
        ("and_tree_16", rpr::and_tree(16, 1).expect("suite circuit")),
        ("comparator_6", rpr::comparator(6).expect("suite circuit")),
        ("bus_match_8", rpr::bus_match(8).expect("suite circuit")),
        (
            "dag_100",
            random_dag(&RandomDagConfig::new(10, 100, 9)).expect("valid dag config"),
        ),
    ]
}

/// Min-of-N wall time of `iter` in nanoseconds, after warm-up.
fn time_ns_min(iter: &mut dyn FnMut()) -> f64 {
    for _ in 0..WARMUP {
        iter();
    }
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        iter();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn generate(circuit: &Circuit, faults: &[tpi_sim::Fault]) -> CubeSet {
    CubeSet::generate(
        circuit,
        faults,
        &CubeConfig::default(),
        &RunControl::unlimited(),
    )
    .expect("suite circuits are acyclic")
}

/// PODEM cubes per second over the collapsed fault set (generation +
/// fortuitous-drop simulation + packing — the full `CubeSet` path the
/// search probes pay).
fn bench_cube_generation(name: &str, circuit: &Circuit) -> (Json, CubeSet) {
    let universe = FaultUniverse::collapsed(circuit).expect("collapsible");
    let reference = generate(circuit, universe.faults());
    let min_ns = time_ns_min(&mut || {
        let set = generate(circuit, universe.faults());
        assert_eq!(
            set.cubes, reference.cubes,
            "{name}: cube generation must be deterministic"
        );
    });
    let cubes_per_sec = reference.cubes.len() as f64 / (min_ns / 1e9);
    println!(
        "cube_generation {name}: {} faults -> {} cubes, {} patterns, \
         {min_ns:.0} ns min -> {cubes_per_sec:.0} cubes/s",
        universe.len(),
        reference.cubes.len(),
        reference.patterns(),
    );
    let entry = Json::obj([
        ("circuit", Json::from(name)),
        ("gates", Json::from(circuit.node_count() as u64)),
        ("faults", Json::from(universe.len() as u64)),
        ("cubes", Json::from(reference.cubes.len() as u64)),
        ("patterns", Json::from(reference.patterns() as u64)),
        ("ns_per_iter", Json::from(min_ns)),
        ("cubes_per_sec", Json::from(cubes_per_sec)),
    ]);
    (entry, reference)
}

/// Pairwise conflict-analysis wall time over a generated cube set.
fn bench_conflict_analysis(name: &str, circuit: &Circuit, set: &CubeSet) -> Json {
    let n_inputs = circuit.inputs().len();
    let reference = ConflictAnalysis::analyse(n_inputs, set, 0);
    let min_ns = time_ns_min(&mut || {
        let analysis = ConflictAnalysis::analyse(n_inputs, set, 0);
        assert_eq!(analysis.conflicts, reference.conflicts);
    });
    let pairs_per_sec = reference.pairs_examined as f64 / (min_ns / 1e9);
    println!(
        "conflict_analysis {name}: {} cubes, {} pairs, {} conflicts, \
         {min_ns:.0} ns min -> {pairs_per_sec:.0} pairs/s",
        reference.cube_count, reference.pairs_examined, reference.conflicts,
    );
    Json::obj([
        ("circuit", Json::from(name)),
        ("cubes", Json::from(reference.cube_count as u64)),
        ("pairs", Json::from(reference.pairs_examined as u64)),
        ("conflicts", Json::from(reference.conflicts as u64)),
        ("ns_per_iter", Json::from(min_ns)),
        ("pairs_per_sec", Json::from(pairs_per_sec)),
    ])
}

/// End-to-end `--objective patterns` wall time (base cube set, conflict
/// analysis, ranking, probes and commits until convergence).
fn bench_patterns_e2e(name: &str, circuit: &Circuit) -> Json {
    let universe = FaultUniverse::collapsed(circuit).expect("collapsible");
    let optimizer = PatternsOptimizer::new(PatternsConfig::default());
    let reference = optimizer
        .solve(circuit, universe.faults())
        .expect("suite circuits are acyclic");
    assert!(
        reference.patterns_after <= reference.patterns_before,
        "{name}: the patterns objective may never regress"
    );
    let min_ns = time_ns_min(&mut || {
        let outcome = optimizer
            .solve(circuit, universe.faults())
            .expect("suite circuits are acyclic");
        assert_eq!(outcome.patterns_after, reference.patterns_after);
    });
    println!(
        "patterns_e2e {name}: {} -> {} patterns with {} point(s), {min_ns:.0} ns min",
        reference.patterns_before,
        reference.patterns_after,
        reference.plan.test_points().len(),
    );
    Json::obj([
        ("circuit", Json::from(name)),
        (
            "patterns_before",
            Json::from(reference.patterns_before as u64),
        ),
        (
            "patterns_after",
            Json::from(reference.patterns_after as u64),
        ),
        (
            "points",
            Json::from(reference.plan.test_points().len() as u64),
        ),
        ("ns_per_iter", Json::from(min_ns)),
    ])
}

/// One-iteration CI smoke: guarantees only, no timing, no JSON.
fn smoke() {
    for (name, circuit) in suite() {
        let universe = FaultUniverse::collapsed(&circuit).expect("collapsible");
        let a = generate(&circuit, universe.faults());
        let b = generate(&circuit, universe.faults());
        assert_eq!(a.cubes, b.cubes, "{name}: generation must be deterministic");
        assert_eq!(a.merged, b.merged, "{name}: packing must be deterministic");
        let analysis = ConflictAnalysis::analyse(circuit.inputs().len(), &a, 0);
        assert_eq!(analysis.cube_count, a.cubes.len());
        let outcome = PatternsOptimizer::new(PatternsConfig::default())
            .solve(&circuit, universe.faults())
            .expect("suite circuits are acyclic");
        assert!(
            outcome.patterns_after <= outcome.patterns_before,
            "{name}: the patterns objective may never regress"
        );
    }
    println!("atpg_throughput smoke: ok");
}
