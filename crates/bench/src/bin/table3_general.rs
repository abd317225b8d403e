//! **Table 3 — general (reconvergent) circuits.**
//!
//! The NP-hard case: the constructive FFR+DP loop (`TpiEngine::optimize`,
//! the loop `tpi insert --method constructive` runs) vs the greedy and
//! random baselines on the suite's non-tree circuits, all measured by the
//! same independent fault simulation at 32k patterns. Points are capped so
//! the comparison is at (approximately) equal hardware budget.

use tpi_atpg::{redundancy, PodemConfig};
use tpi_bench::{header, measure_coverage, pct, STANDARD_PATTERNS};
use tpi_core::{GreedyConfig, GreedyOptimizer, RandomOptimizer, Threshold, TpiProblem};
use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
use tpi_netlist::transform::apply_plan;
use tpi_sim::FaultUniverse;

fn main() {
    let threshold = Threshold::from_test_length(STANDARD_PATTERNS, tpi_bench::STANDARD_CONFIDENCE)
        .expect("valid threshold");
    let budget = 16.0f64; // shared hardware budget, in cost units
    println!("# Table 3: fault coverage @32k after insertion (cost budget {budget} per method)");
    println!("# coverage over PODEM-certified testable faults (redundant faults removed)\n");
    header(&[
        "circuit",
        "faults",
        "FC_base",
        "FC_constr",
        "cost_c",
        "FC_greedy",
        "cost_g",
        "FC_random",
        "cost_r",
    ]);

    for entry in tpi_gen::suite::standard_suite().expect("suite builds") {
        if entry.is_tree {
            continue; // Table 2 territory
        }
        let c = &entry.circuit;
        let collapsed = FaultUniverse::collapsed(c).expect("collapsible");
        let sweep =
            redundancy::sweep(c, collapsed.faults(), PodemConfig::default()).expect("atpg runs");
        let universe = FaultUniverse::from_faults(sweep.targets());
        let base = measure_coverage(c, &universe, STANDARD_PATTERNS, 1).coverage();

        // Constructive (FFR + DP, fault-sim guided).
        let mut engine = TpiEngine::new(
            c.clone(),
            EngineConfig {
                patterns: 8_192,
                ..EngineConfig::default()
            },
        )
        .expect("engine builds");
        let outcome = engine
            .optimize(
                threshold,
                &OptimizeConfig {
                    max_rounds: 30,
                    target_coverage: 1.0,
                    max_cost: budget,
                    ..OptimizeConfig::default()
                },
            )
            .expect("constructive runs");
        let fc_constructive =
            measure_coverage(&outcome.modified, &universe, STANDARD_PATTERNS, 1).coverage();

        // Greedy (analytic scoring).
        let greedy = GreedyOptimizer::new(GreedyConfig {
            max_points: 64,
            max_cost: budget,
            ..GreedyConfig::default()
        })
        .solve(&TpiProblem::min_cost(c, threshold).expect("acyclic"))
        .expect("greedy runs");
        let (greedy_circuit, _) = apply_plan(c, greedy.test_points()).expect("applies");
        let fc_greedy =
            measure_coverage(&greedy_circuit, &universe, STANDARD_PATTERNS, 1).coverage();

        // Random placement.
        // Random kinds average ~1 cost unit per point.
        let random = RandomOptimizer::new(11, budget as usize)
            .solve(&TpiProblem::min_cost(c, threshold).expect("acyclic"))
            .expect("random runs");
        let (random_circuit, _) = apply_plan(c, random.test_points()).expect("applies");
        let fc_random =
            measure_coverage(&random_circuit, &universe, STANDARD_PATTERNS, 1).coverage();

        println!(
            "{}\t{}\t{}\t{}\t{:.1}\t{}\t{:.1}\t{}\t{:.1}",
            entry.name,
            universe.len(),
            pct(base),
            pct(fc_constructive),
            outcome.plan.cost(),
            pct(fc_greedy),
            greedy.cost(),
            pct(fc_random),
            random.cost(),
        );
    }
}
