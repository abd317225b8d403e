//! End-to-end pipelines across every crate: generate → analyse → optimise
//! → transform → fault-simulate → verify.

use krishnamurthy_tpi::core::evaluate::PlanEvaluator;
use krishnamurthy_tpi::core::{DpConfig, DpOptimizer, GreedyOptimizer, Threshold, TpiProblem};
use krishnamurthy_tpi::engine::{EngineConfig, OptimizeConfig, TpiEngine};
use krishnamurthy_tpi::gen::{benchmarks, rpr, suite};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::{ffr, Topology};
use krishnamurthy_tpi::sim::{
    montecarlo, FaultSimulator, FaultUniverse, LfsrPatterns, RandomPatterns,
};
use krishnamurthy_tpi::testability::profile::TestabilityReport;

/// The motivating story in one test: a random-pattern-resistant circuit
/// has poor coverage; the DP inserts a handful of points; coverage
/// measured by an *independent* fault simulation jumps.
#[test]
fn dp_rescues_random_pattern_resistant_cone() {
    let circuit = rpr::and_tree(16, 2).unwrap();
    let universe = FaultUniverse::collapsed(&circuit).unwrap();

    let patterns = 2_000u64;
    let mut sim = FaultSimulator::new(&circuit).unwrap();
    let mut src = RandomPatterns::new(circuit.inputs().len(), 11);
    let before = sim.run(&mut src, patterns, universe.faults()).unwrap();
    assert!(
        before.coverage() < 0.95,
        "baseline should be resistant, got {}",
        before.coverage()
    );

    let threshold = Threshold::from_test_length(patterns, 0.99).unwrap();
    let problem = TpiProblem::min_cost(&circuit, threshold).unwrap();
    let plan = DpOptimizer::default().solve(&problem).unwrap();
    assert!(plan.len() <= 12, "plan unexpectedly large: {plan}");

    let (modified, _) = apply_plan(&circuit, plan.test_points()).unwrap();
    let mut sim2 = FaultSimulator::new(&modified).unwrap();
    let mut src2 = RandomPatterns::new(modified.inputs().len(), 11);
    let after = sim2.run(&mut src2, patterns, universe.faults()).unwrap();
    assert!(
        after.coverage() > 0.99,
        "after TPI coverage {}",
        after.coverage()
    );
}

/// The DP's analytic feasibility claim holds under exhaustive simulation.
#[test]
fn dp_plan_detection_probabilities_verified_exhaustively() {
    let circuit = rpr::and_tree(10, 1).unwrap();
    let threshold = Threshold::from_log2(-6.0);
    let problem = TpiProblem::min_cost(&circuit, threshold).unwrap();
    let plan = DpOptimizer::new(DpConfig::default())
        .solve(&problem)
        .unwrap();
    let (modified, _) = apply_plan(&circuit, plan.test_points()).unwrap();

    let faults: Vec<_> = problem.targets().iter().map(|t| t.to_fault()).collect();
    let probs = montecarlo::exact_detection_probabilities(&modified, &faults).unwrap();
    for (i, &p) in probs.iter().enumerate() {
        assert!(
            p >= threshold.value() - 1e-12,
            "target {i} has exact detection probability {p} < δ"
        );
    }
}

/// Greedy and DP agree on feasibility; DP never costs more on trees.
#[test]
fn dp_at_most_greedy_cost_on_trees() {
    for (leaves, seed) in [(12usize, 1u64), (16, 2), (24, 3)] {
        let cfg = krishnamurthy_tpi::gen::trees::RandomTreeConfig::with_leaves(leaves, seed)
            .and_or_only();
        let circuit = krishnamurthy_tpi::gen::trees::random_tree(&cfg).unwrap();
        let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-8.0)).unwrap();
        let dp = DpOptimizer::default().solve(&problem).unwrap();
        let greedy = GreedyOptimizer::default().solve(&problem).unwrap();
        if greedy.is_feasible() {
            assert!(
                dp.cost() <= greedy.cost() + 1e-9,
                "leaves {leaves} seed {seed}: dp {} > greedy {}",
                dp.cost(),
                greedy.cost()
            );
        }
        // Both must be verifiable.
        let eval = PlanEvaluator::new(&problem).unwrap();
        assert!(eval.evaluate(dp.test_points()).unwrap().feasible);
    }
}

/// The constructive loop lifts coverage on the embedded c17 and on a
/// reconvergent DAG (the NP-hard class).
#[test]
fn constructive_loop_on_general_circuits() {
    let dag = krishnamurthy_tpi::gen::dags::random_dag(
        &krishnamurthy_tpi::gen::dags::RandomDagConfig::new(16, 80, 5),
    )
    .unwrap();
    for circuit in [benchmarks::c17().unwrap(), dag] {
        let config = EngineConfig {
            patterns: 1024,
            ..EngineConfig::default()
        };
        let mut engine = TpiEngine::new(circuit.clone(), config).unwrap();
        let cfg = OptimizeConfig {
            max_rounds: 6,
            target_coverage: 0.999,
            ..OptimizeConfig::default()
        };
        let outcome = engine
            .optimize(Threshold::from_test_length(1024, 0.9).unwrap(), &cfg)
            .unwrap();
        assert!(
            outcome.final_coverage >= outcome.rounds[0].coverage,
            "{}: coverage regressed",
            circuit.name()
        );
        // Replay invariant: the plan reproduces the modified circuit.
        let (replayed, _) = apply_plan(&circuit, outcome.plan.test_points()).unwrap();
        assert_eq!(replayed.node_count(), outcome.modified.node_count());
    }
}

/// The whole standard suite is analysable end-to-end (the Table 1 path).
#[test]
fn suite_testability_reports() {
    for entry in suite::standard_suite().unwrap() {
        let report = TestabilityReport::analyse(&entry.circuit, 1e-4).unwrap();
        assert!(report.faults > 0, "{}", entry.name);
        assert!(
            report.expected_coverage_32k >= report.expected_coverage_1k - 1e-12,
            "{}",
            entry.name
        );
        // Tree flags agree with structure.
        let topo = Topology::of(&entry.circuit).unwrap();
        assert_eq!(entry.is_tree, ffr::is_fanout_free(&entry.circuit, &topo));
    }
}

/// LFSR-driven BIST session: pattern source and software PRNG agree on
/// coverage to within statistical noise.
#[test]
fn lfsr_and_prng_coverage_agree() {
    let circuit = rpr::comparator(8).unwrap();
    let universe = FaultUniverse::collapsed(&circuit).unwrap();
    let n = 8_000u64;

    let mut sim = FaultSimulator::new(&circuit).unwrap();
    let mut lfsr = LfsrPatterns::new(circuit.inputs().len(), 0xace1).unwrap();
    let with_lfsr = sim.run(&mut lfsr, n, universe.faults()).unwrap();

    let mut prng = RandomPatterns::new(circuit.inputs().len(), 17);
    let with_prng = sim.run(&mut prng, n, universe.faults()).unwrap();

    assert!(
        (with_lfsr.coverage() - with_prng.coverage()).abs() < 0.05,
        "lfsr {} vs prng {}",
        with_lfsr.coverage(),
        with_prng.coverage()
    );
}
