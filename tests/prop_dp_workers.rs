//! The tree DP's worker count changes its speed and nothing else. On
//! trees big enough that the DP starts helper threads, the plan, the
//! bits of its cost, `missed` and `DpStats` are the same at 1, 2 and 3
//! workers, in both optimization forms; an infeasible tree fails with
//! the same error at every count; and a cancelled token stops a
//! multi-worker run.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krishnamurthy_tpi::core::{DpConfig, DpOptimizer, DpStats, Threshold, TpiError, TpiProblem};
use krishnamurthy_tpi::gen::trees::{random_tree, RandomTreeConfig};
use krishnamurthy_tpi::netlist::{Circuit, CircuitBuilder, GateKind, NodeId, TestPoint};
use krishnamurthy_tpi::sim::{RunControl, StopReason};

/// The DP gives a tree one worker per 128 nodes, so a tree of this many
/// nodes runs all three.
const THREE_WORKERS: usize = 3 * 128;

fn and_or_tree(leaves: usize, seed: u64) -> Circuit {
    random_tree(&RandomTreeConfig::with_leaves(leaves, seed).and_or_only()).unwrap()
}

/// A seeded tree over every gate kind the DP handles: BUF/NOT chains and
/// XOR/XNOR among the AND/OR family.
fn mixed_tree(leaves: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(format!("mixed_l{leaves}_s{seed}"));
    let mut open: Vec<NodeId> = b.inputs(leaves, "x");
    let binary = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut counter = 0usize;
    while open.len() > 1 {
        let arity = rng.gen_range(1..=3usize.min(open.len()));
        let kind = if arity == 1 {
            [GateKind::Buf, GateKind::Not][rng.gen_range(0..2usize)]
        } else {
            binary[rng.gen_range(0..binary.len())]
        };
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| open.swap_remove(rng.gen_range(0..open.len())))
            .collect();
        open.push(b.gate(kind, fanins, format!("g{counter}")).unwrap());
        counter += 1;
    }
    b.output(open[0]);
    b.finish().unwrap()
}

/// Two AND/OR cones of `leaves` inputs each: one drives a primary output,
/// the other dangles, so its faults must be observed inside it.
fn forest(leaves: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(format!("forest_l{leaves}_s{seed}"));
    let mut roots = Vec::new();
    for tree in 0..2 {
        let mut open: Vec<NodeId> = b.inputs(leaves, &format!("t{tree}x"));
        let mut counter = 0usize;
        while open.len() > 1 {
            let kind = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor]
                [rng.gen_range(0..4usize)];
            let fanins = vec![
                open.swap_remove(rng.gen_range(0..open.len())),
                open.swap_remove(rng.gen_range(0..open.len())),
            ];
            open.push(b.gate(kind, fanins, format!("t{tree}g{counter}")).unwrap());
            counter += 1;
        }
        roots.push(open[0]);
    }
    b.output(roots[0]);
    b.finish().unwrap()
}

/// What one run returned, compared bit for bit across worker counts.
#[derive(Debug, PartialEq)]
enum Outcome {
    Solved {
        points: Vec<TestPoint>,
        cost_bits: u64,
        missed: usize,
        stats: Option<DpStats>,
    },
    Failed(String),
}

fn dp(config: &DpConfig, threads: usize) -> DpOptimizer {
    DpOptimizer::new(DpConfig {
        threads,
        ..config.clone()
    })
}

fn min_cost(problem: &TpiProblem, config: &DpConfig, rho: f64, threads: usize) -> Outcome {
    match dp(config, threads).solve_region(problem, rho) {
        Ok((plan, stats)) => Outcome::Solved {
            points: plan.test_points().to_vec(),
            cost_bits: plan.cost().to_bits(),
            missed: 0,
            stats: Some(stats),
        },
        Err(e) => Outcome::Failed(format!("{e:?}")),
    }
}

fn max_coverage(problem: &TpiProblem, budget: f64, threads: usize) -> Outcome {
    // A coarse resolution: MaxCoverage keeps a Pareto set over misses in
    // every bucket, which makes it far slower than MinCost at the default.
    match dp(&DpConfig::with_resolution(4, 1), threads).solve_max_coverage(problem, budget) {
        Ok((plan, missed)) => Outcome::Solved {
            points: plan.test_points().to_vec(),
            cost_bits: plan.cost().to_bits(),
            missed,
            stats: None,
        },
        Err(e) => Outcome::Failed(format!("{e:?}")),
    }
}

/// Every entry point at 1, 2 and 3 workers: MinCost at the default and a
/// coarse resolution and at boundary observability 0.3, and MaxCoverage
/// under a budget of six observation points.
fn check_worker_counts(circuit: &Circuit, log2_threshold: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        circuit.node_count() >= THREE_WORKERS,
        "{} has {} nodes, too few for three workers",
        circuit.name(),
        circuit.node_count()
    );
    let problem = TpiProblem::min_cost(circuit, Threshold::from_log2(log2_threshold)).unwrap();
    let runs = [
        (DpConfig::default(), 1.0),
        (DpConfig::with_resolution(16, 2), 1.0),
        (DpConfig::default(), 0.3),
    ];
    for (config, rho) in &runs {
        let one = min_cost(&problem, config, *rho, 1);
        for threads in [2, 3] {
            prop_assert_eq!(
                &min_cost(&problem, config, *rho, threads),
                &one,
                "{}: MinCost at {} workers, ρ = {}",
                circuit.name(),
                threads,
                rho
            );
        }
    }
    let budget = 6.0;
    let one = max_coverage(&problem, budget, 1);
    for threads in [2, 3] {
        prop_assert_eq!(
            &max_coverage(&problem, budget, threads),
            &one,
            "{}: MaxCoverage({}) at {} workers",
            circuit.name(),
            budget,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn and_or_trees_are_identical_at_every_worker_count(
        leaves in 240usize..272,
        seed in 0u64..1_000_000,
    ) {
        check_worker_counts(&and_or_tree(leaves, seed), -5.0)?;
    }

    #[test]
    fn mixed_trees_are_identical_at_every_worker_count(
        leaves in 260usize..300,
        seed in 0u64..1_000_000,
    ) {
        check_worker_counts(&mixed_tree(leaves, seed), -5.0)?;
    }

    #[test]
    fn forests_with_a_dangling_root_are_identical_at_every_worker_count(
        leaves in 100usize..120,
        seed in 0u64..1_000_000,
    ) {
        check_worker_counts(&forest(leaves, seed), -5.0)?;
    }
}

#[test]
fn an_infeasible_tree_fails_alike_at_every_worker_count() {
    // Observation points alone cannot raise a deep AND's excitation, so a
    // gate well inside the order is the first that no state survives.
    let circuit = and_or_tree(256, 7);
    assert!(circuit.node_count() >= THREE_WORKERS);
    let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-8.0)).unwrap();
    let observe_only = DpConfig {
        enable_control: false,
        enable_full: false,
        ..DpConfig::default()
    };
    let one = min_cost(&problem, &observe_only, 1.0, 1);
    let Outcome::Failed(error) = &one else {
        panic!("expected an infeasible tree, got {one:?}");
    };
    assert!(error.contains("Infeasible"), "{error}");
    assert!(
        !error.contains("`x"),
        "the failing node is an input: {error}"
    );
    for threads in [2, 3, 4] {
        assert_eq!(min_cost(&problem, &observe_only, 1.0, threads), one);
    }
}

#[test]
fn a_cancelled_token_stops_a_multi_worker_run() {
    let circuit = and_or_tree(512, 3);
    let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-10.0)).unwrap();
    let control = RunControl::cancellable();
    control.cancel();
    let result = dp(&DpConfig::default(), 2).solve_region_controlled(&problem, 1.0, &control);
    assert!(
        matches!(
            result,
            Err(TpiError::Interrupted {
                reason: StopReason::Cancelled
            })
        ),
        "{result:?}"
    );
}
