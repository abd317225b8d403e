//! **Table 2 — the DP is optimal on fanout-free circuits.**
//!
//! Part A (certified): on random small trees the exact-mode DP's cost is
//! certified optimal by exhaustive branch-and-bound seeded with the DP
//! plan as incumbent. Part B (scaled): on larger trees the bucketed DP is
//! compared against the greedy baseline — the DP never costs more, and
//! the table shows by how much greedy overpays. The DP and greedy run on
//! one worker each (`threads: 1`), so `dp_ms` and `greedy_ms` time the
//! algorithms, not the host's thread count.

use tpi_bench::{header, ms, timed};
use tpi_core::evaluate::PlanEvaluator;
use tpi_core::{
    DpConfig, DpOptimizer, ExactOptimizer, GreedyConfig, GreedyOptimizer, Threshold, TpiProblem,
};
use tpi_gen::trees::{random_tree, RandomTreeConfig};

fn main() {
    println!("# Table 2a: DP vs certified exhaustive optimum (small random trees, δ = 2^-4)\n");
    header(&[
        "leaves",
        "seed",
        "nodes",
        "dp_cost",
        "optimal_cost",
        "certified",
        "b&b_visits",
    ]);
    let mut certified = 0;
    let mut total = 0;
    for leaves in [3usize, 4, 5] {
        for seed in 0..4u64 {
            let circuit = random_tree(&RandomTreeConfig::with_leaves(leaves, seed).and_or_only())
                .expect("tree builds");
            if circuit.node_count() > 9 {
                continue;
            }
            let problem =
                TpiProblem::min_cost(&circuit, Threshold::from_log2(-4.0)).expect("acyclic");
            let Ok(dp) = DpOptimizer::new(DpConfig::exact()).solve(&problem) else {
                continue;
            };
            let (optimal, stats) = ExactOptimizer::with_max_nodes(10)
                .solve_with_incumbent(&problem, Some(&dp))
                .expect("bounded search succeeds");
            let ok = (dp.cost() - optimal.cost()).abs() < 1e-9;
            total += 1;
            certified += usize::from(ok);
            println!(
                "{leaves}\t{seed}\t{}\t{:.1}\t{:.1}\t{}\t{}",
                circuit.node_count(),
                dp.cost(),
                optimal.cost(),
                if ok { "yes" } else { "NO" },
                stats.nodes_visited,
            );
        }
    }
    println!("\ncertified optimal: {certified}/{total}\n");

    println!("# Table 2b: DP vs greedy on larger trees (δ = 2^-8)\n");
    header(&[
        "leaves",
        "seed",
        "nodes",
        "dp_cost",
        "dp_ms",
        "greedy_cost",
        "greedy_ms",
        "overpay%",
    ]);
    for leaves in [32usize, 64, 128] {
        for seed in 0..3u64 {
            let circuit =
                random_tree(&RandomTreeConfig::with_leaves(leaves, 100 + seed).and_or_only())
                    .expect("tree builds");
            let problem =
                TpiProblem::min_cost(&circuit, Threshold::from_log2(-8.0)).expect("acyclic");
            let dp = DpOptimizer::new(DpConfig {
                threads: 1,
                ..DpConfig::default()
            });
            let (dp, dp_time) = timed(|| dp.solve(&problem));
            let Ok(dp) = dp else { continue };
            let greedy = GreedyOptimizer::new(GreedyConfig {
                threads: 1,
                ..GreedyConfig::default()
            });
            let (greedy, greedy_time) = timed(|| greedy.solve(&problem));
            let greedy = greedy.expect("greedy runs");
            let evaluator = PlanEvaluator::new(&problem).expect("evaluator");
            assert!(evaluator.evaluate(dp.test_points()).expect("eval").feasible);
            let overpay = if greedy.is_feasible() && dp.cost() > 0.0 {
                format!("{:.0}", (greedy.cost() / dp.cost() - 1.0) * 100.0)
            } else if greedy.is_feasible() {
                "0".to_string()
            } else {
                "stuck".to_string()
            };
            println!(
                "{leaves}\t{seed}\t{}\t{:.1}\t{}\t{:.1}\t{}\t{}",
                circuit.node_count(),
                dp.cost(),
                ms(dp_time),
                greedy.cost(),
                ms(greedy_time),
                overpay,
            );
        }
    }
}
