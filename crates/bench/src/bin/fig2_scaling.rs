//! **Figure 2 — the complexity separation.**
//!
//! Series A: DP wall-time and state counts on growing random trees —
//! polynomial (near-linear at fixed resolutions). Series B: exhaustive
//! branch-and-bound visits on the same instances — exponential. This is
//! the empirical face of "NP-hard in general, polynomial DP on trees".
//! The DP runs on one worker (`threads: 1`), so `dp_ms` times the
//! algorithm, not the host's thread count.

use tpi_bench::{ms, timed};
use tpi_core::{DpConfig, DpOptimizer, ExactOptimizer, Threshold, TpiProblem};
use tpi_gen::trees::{random_tree, RandomTreeConfig};

fn main() {
    println!("# Figure 2a: DP scaling on trees (bucketed, δ = 2^-8, mean of 3 seeds)");
    println!("leaves\tnodes\tdp_ms\tstates_created\tmax_frontier");
    for &leaves in &[16usize, 32, 64, 128, 256, 512, 1024] {
        let mut time_sum = 0.0;
        let mut states = 0usize;
        let mut frontier = 0usize;
        let mut nodes = 0usize;
        for seed in 0..3u64 {
            let circuit = random_tree(
                &RandomTreeConfig::with_leaves(leaves, 7 * leaves as u64 + seed).and_or_only(),
            )
            .expect("tree builds");
            nodes = circuit.node_count();
            let problem =
                TpiProblem::min_cost(&circuit, Threshold::from_log2(-8.0)).expect("acyclic");
            let dp = DpOptimizer::new(DpConfig {
                threads: 1,
                ..DpConfig::default()
            });
            let (result, t) = timed(|| dp.solve_with_stats(&problem));
            let (_, stats) = result.expect("solvable at 2^-8");
            time_sum += t.as_secs_f64() * 1e3;
            states += stats.states_created;
            frontier = frontier.max(stats.max_frontier);
        }
        println!(
            "{leaves}\t{nodes}\t{:.3}\t{}\t{frontier}",
            time_sum / 3.0,
            states / 3
        );
    }

    println!("\n# Figure 2b: exhaustive search wall (AND cones, δ = 2^-2 — optimum cost");
    println!("# grows with size, so the search space below it explodes exponentially)");
    println!("width\tnodes\toptimal_cost\tb&b_visits\tb&b_ms\tdp_exact_ms");
    for &width in &[2usize, 3, 4, 5, 6] {
        let circuit = and_cone(width);
        let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-2.0)).expect("acyclic");
        let exact = DpOptimizer::new(DpConfig {
            threads: 1,
            ..DpConfig::exact()
        });
        let (dp, dp_t) = timed(|| exact.solve(&problem));
        let Ok(dp) = dp else { continue };
        let (res, bb_t) = timed(|| ExactOptimizer::with_max_nodes(20).solve(&problem));
        let (plan, stats) = res.expect("search completes");
        assert!(
            (plan.cost() - dp.cost()).abs() < 1e-9,
            "DP must stay optimal"
        );
        println!(
            "{width}\t{}\t{:.1}\t{}\t{}\t{}",
            circuit.node_count(),
            plan.cost(),
            stats.nodes_visited,
            ms(bb_t),
            ms(dp_t),
        );
    }
}

fn and_cone(width: usize) -> tpi_netlist::Circuit {
    let mut b = tpi_netlist::CircuitBuilder::new(format!("and{width}"));
    let xs = b.inputs(width, "x");
    let root = b
        .balanced_tree(tpi_netlist::GateKind::And, &xs, "g")
        .expect("builds");
    b.output(root);
    b.finish().expect("valid")
}
