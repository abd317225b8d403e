//! **Figure 4 — discretisation ablation.**
//!
//! The DP buckets `c1` and `demand` for pruning; this sweep shows solution
//! cost and runtime as both resolutions grow. Expected shape: cost
//! saturates at the optimum well before the resolutions get expensive —
//! the knob trades nothing once past the knee. The DP runs on one worker
//! (`threads: 1`), so the timing column times the algorithm, not the
//! host's thread count.

use tpi_bench::timed;
use tpi_core::{DpConfig, DpOptimizer, Threshold, TpiProblem};
use tpi_gen::trees::{random_tree, RandomTreeConfig};

fn main() {
    println!("# Figure 4: DP cost/time vs bucket resolutions (δ = 2^-8, 3 tree instances)");
    println!("c1_buckets\tdemand_res\tmean_cost\tmean_ms\tmean_states");
    let circuits: Vec<_> = (0..3u64)
        .map(|seed| {
            random_tree(&RandomTreeConfig::with_leaves(96, 400 + seed).and_or_only())
                .expect("tree builds")
        })
        .collect();
    let problems: Vec<_> = circuits
        .iter()
        .map(|c| TpiProblem::min_cost(c, Threshold::from_log2(-8.0)).expect("acyclic"))
        .collect();

    for &(c1_res, d_res) in &[
        (4u32, 1u32),
        (8, 1),
        (16, 2),
        (32, 2),
        (64, 4),
        (128, 4),
        (256, 8),
        (1024, 8),
        (4096, 16),
        (16384, 32),
    ] {
        let mut cost_sum = 0.0;
        let mut time_sum = 0.0;
        let mut state_sum = 0usize;
        for problem in &problems {
            let dp = DpOptimizer::new(DpConfig {
                threads: 1,
                ..DpConfig::with_resolution(c1_res, d_res)
            });
            let (result, t) = timed(|| dp.solve_with_stats(problem));
            let (plan, stats) = result.expect("feasible at 2^-8");
            cost_sum += plan.cost();
            time_sum += t.as_secs_f64() * 1e3;
            state_sum += stats.states_created;
        }
        println!(
            "{c1_res}\t{d_res}\t{:.2}\t{:.3}\t{}",
            cost_sum / problems.len() as f64,
            time_sum / problems.len() as f64,
            state_sum / problems.len(),
        );
    }
}
