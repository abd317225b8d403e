//! Golden plans for the greedy baseline.
//!
//! Greedy commits, each round, the candidate with the best score; when
//! several candidates score alike, the scan order and the score's last
//! bits decide which one wins. The feasibility and cost properties
//! elsewhere hold for any such choice, so none of them notices a
//! different tie-break. This file pins the exact output instead: on
//! seeded DAGs and trees, under restricted candidate kinds, point
//! budgets and biased inputs, the plan's points (kind and node name, in
//! order), the bits of its cost and its feasibility must equal the
//! recorded values in `GOLDEN`.
//!
//! A deliberate change to greedy's output means re-recording the table;
//! a failing run prints every case's actual line in the table's syntax.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krishnamurthy_tpi::core::{GreedyConfig, GreedyOptimizer, Plan, Threshold, TpiProblem};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::gen::trees::{random_tree, RandomTreeConfig};
use krishnamurthy_tpi::netlist::{Circuit, CircuitBuilder, GateKind, NodeId, TestPointKind};

fn dag(inputs: usize, gates: usize, seed: u64) -> Circuit {
    random_dag(&RandomDagConfig::new(inputs, gates, seed)).unwrap()
}

/// A seeded tree over every gate kind, unary BUF/NOT included
/// (`random_tree` only builds gates of fan-in ≥ 2 plus NOTs).
fn mixed_tree(leaves: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(format!("mixed_l{leaves}_s{seed}"));
    let mut open: Vec<NodeId> = b.inputs(leaves, "x");
    let mut counter = 0usize;
    let binary = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    while open.len() > 1 || counter == 0 {
        let arity = if open.len() == 1 {
            1
        } else {
            rng.gen_range(1..=3usize.min(open.len()))
        };
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

/// Every primary input of `circuit` gets a seeded 1-probability in
/// `{0.1, 0.25, 0.75, 0.9}`.
fn biased_inputs(circuit: &Circuit, seed: u64) -> HashMap<NodeId, f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    circuit
        .inputs()
        .iter()
        .map(|&x| (x, [0.1, 0.25, 0.75, 0.9][rng.gen_range(0..4usize)]))
        .collect()
}

fn describe(circuit: &Circuit, plan: &Plan) -> String {
    let points: Vec<String> = plan
        .test_points()
        .iter()
        .map(|tp| format!("{}:{}", tp.kind.mnemonic(), circuit.node_name(tp.node)))
        .collect();
    format!(
        "[{}] cost={:#018x} feasible={}",
        points.join(" "),
        plan.cost().to_bits(),
        plan.is_feasible()
    )
}

fn line(circuit: &Circuit, problem: &TpiProblem, config: GreedyConfig) -> String {
    match GreedyOptimizer::new(config).solve(problem) {
        Ok(plan) => describe(circuit, &plan),
        Err(e) => format!("error: {e}"),
    }
}

fn actual_lines() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let observe_only = GreedyConfig {
        kinds: vec![TestPointKind::Observe],
        ..GreedyConfig::default()
    };
    let control_only = GreedyConfig {
        kinds: vec![TestPointKind::ControlAnd, TestPointKind::ControlOr],
        ..GreedyConfig::default()
    };
    let points = |max_points: usize| GreedyConfig {
        max_points,
        ..GreedyConfig::default()
    };

    // Seeded DAGs under the default configuration: reconvergent fanout,
    // so many candidates score alike and the tie-break rule shows.
    let dags: [(usize, usize, u64, f64); 5] = [
        (12, 60, 1, -6.0),
        (12, 60, 15, -10.0),
        (16, 90, 3, -8.0),
        (20, 160, 14, -10.0),
        (24, 200, 10, -10.0),
    ];
    for (inputs, gates, seed, exp) in dags {
        let circuit = dag(inputs, gates, seed);
        let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(exp)).unwrap();
        out.push((
            format!("dag_i{inputs}_g{gates}_s{seed}_d{exp}/default"),
            line(&circuit, &problem, GreedyConfig::default()),
        ));
    }

    // Restricted kinds and point budgets on one DAG per setting.
    for (inputs, gates, seed, exp) in [(14, 80, 11, -8.0), (18, 110, 12, -10.0)] {
        let circuit = dag(inputs, gates, seed);
        let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(exp)).unwrap();
        let name = format!("dag_i{inputs}_g{gates}_s{seed}_d{exp}");
        let mut push = |run: &str, l: String| out.push((format!("{name}/{run}"), l));
        push(
            "observe_only",
            line(&circuit, &problem, observe_only.clone()),
        );
        push(
            "control_only",
            line(&circuit, &problem, control_only.clone()),
        );
        push("max_points1", line(&circuit, &problem, points(1)));
        push("max_points3", line(&circuit, &problem, points(3)));
    }

    // Biased primary inputs: the probe must carry the problem's input
    // probabilities through every round.
    let biased: [(&str, Circuit, u64, f64); 2] = [
        ("dag_i12_g70_s21", dag(12, 70, 21), 21, -8.0),
        ("mixed48_s22", mixed_tree(48, 22), 22, -6.0),
    ];
    for (name, circuit, seed, exp) in &biased {
        let problem = TpiProblem::min_cost(circuit, Threshold::from_log2(*exp))
            .unwrap()
            .with_input_probs(biased_inputs(circuit, *seed));
        out.push((
            format!("{name}_d{exp}/biased_inputs"),
            line(circuit, &problem, GreedyConfig::default()),
        ));
    }

    // Trees: mixed kinds with unary BUF/NOT, and the default generator.
    let trees: [(&str, Circuit, f64); 4] = [
        ("mixed24_s31", mixed_tree(24, 31), -4.0),
        ("mixed48_s32", mixed_tree(48, 32), -6.0),
        (
            "tree64_s33",
            random_tree(&RandomTreeConfig::with_leaves(64, 33)).unwrap(),
            -8.0,
        ),
        (
            "tree96_s34",
            random_tree(&RandomTreeConfig::with_leaves(96, 34)).unwrap(),
            -10.0,
        ),
    ];
    for (name, circuit, exp) in &trees {
        let problem = TpiProblem::min_cost(circuit, Threshold::from_log2(*exp)).unwrap();
        out.push((
            format!("{name}_d{exp}/default"),
            line(circuit, &problem, GreedyConfig::default()),
        ));
    }
    out
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("dag_i12_g60_s1_d-6/default", "[op:g54 cp-or:g22 op:g18 op:g31 cp-or:g18 op:g14 cp-and:g12 op:g36 cp-and:x10] cost=0x401a000000000000 feasible=true"),
    ("dag_i12_g60_s15_d-10/default", "[cp-or:g29 op:g54 op:g29 cp-and:x10] cost=0x4008000000000000 feasible=true"),
    ("dag_i16_g90_s3_d-8/default", "[cp-or:g21 cp-and:g26 cp-or:g3 op:g21] cost=0x400c000000000000 feasible=true"),
    ("dag_i20_g160_s14_d-10/default", "[cp-and:x10 cp-and:g64 cp-or:g31 op:g41 op:g115 cp-and:g61 op:g14 cp-and:x14] cost=0x401a000000000000 feasible=true"),
    ("dag_i24_g200_s10_d-10/default", "[cp-or:g30 op:g166 op:g192 cp-or:g34 op:g173 cp-and:g4 op:g181 cp-or:g186 cp-and:g136 cp-and:g21 tp:g181 tp:g103] cost=0x4026000000000000 feasible=true"),
    ("dag_i14_g80_s11_d-8/observe_only", "[op:g8 op:g18 op:g45 op:g22 op:g65 op:g27 op:g11 op:g63 op:g53 op:g29] cost=0x4014000000000000 feasible=false"),
    ("dag_i14_g80_s11_d-8/control_only", "[cp-or:g3 cp-or:g13 cp-and:g14 cp-and:g61 cp-and:g21 cp-and:x3] cost=0x4018000000000000 feasible=true"),
    ("dag_i14_g80_s11_d-8/max_points1", "[op:g8] cost=0x3fe0000000000000 feasible=false"),
    ("dag_i14_g80_s11_d-8/max_points3", "[op:g8 op:g18 cp-or:g26] cost=0x4000000000000000 feasible=false"),
    ("dag_i18_g110_s12_d-10/observe_only", "[op:g24 op:g52 op:g58 op:g98 op:g66 op:x5 op:g80 op:g11 op:g62 op:g83 op:g87 op:g91 op:g93 op:g97 op:g28 op:g86] cost=0x4020000000000000 feasible=false"),
    ("dag_i18_g110_s12_d-10/control_only", "[cp-and:g84 cp-and:g28 cp-or:g89 cp-and:g63 cp-or:g1 cp-or:g11 cp-or:g21 cp-and:g10 cp-and:g8] cost=0x4022000000000000 feasible=true"),
    ("dag_i18_g110_s12_d-10/max_points1", "[cp-and:g84] cost=0x3ff0000000000000 feasible=false"),
    ("dag_i18_g110_s12_d-10/max_points3", "[cp-and:g84 op:g24 op:g98] cost=0x4000000000000000 feasible=false"),
    ("dag_i12_g70_s21_d-8/biased_inputs", "[cp-or:g4 op:g45 cp-and:g0 op:g3 cp-and:g16 op:g39 op:g4 op:g14 cp-and:g1 cp-and:g62 cp-or:x3] cost=0x4021000000000000 feasible=true"),
    ("mixed48_s22_d-6/biased_inputs", "[op:g23 op:g22 op:g25 op:g30 op:g33 op:g4 op:g7 op:g0 op:g1 op:g11 op:g10 op:g27 cp-or:g19 op:g29 op:x19 op:x12 op:x9 op:x39 cp-or:x21 cp-and:x0 cp-or:x24 op:x47 cp-and:x44 cp-or:g29 op:x30 cp-and:g3 op:g3 tp:g0 op:g19 cp-or:x9] cost=0x4034000000000000 feasible=true"),
    ("mixed24_s31_d-4/default", "[op:g19 op:g8 op:g9 op:g16 op:g1 cp-and:g0] cost=0x400c000000000000 feasible=true"),
    ("mixed48_s32_d-6/default", "[op:g41 op:g43 op:g13 op:g1] cost=0x4000000000000000 feasible=true"),
    ("tree64_s33_d-8/default", "[op:g30 op:g41 op:g44 op:g4 op:g16 op:x0 tp:g19] cost=0x4012000000000000 feasible=true"),
    ("tree96_s34_d-10/default", "[op:g66 op:g64 op:g49 op:g46 op:g42 cp-and:g31] cost=0x400c000000000000 feasible=true"),
];

#[test]
fn greedy_plans_match_the_recorded_golden_table() {
    let actual = actual_lines();
    let expected: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if actual != expected {
        let table: Vec<String> = actual
            .iter()
            .map(|(k, v)| format!("    ({k:?}, {v:?}),"))
            .collect();
        let differing: Vec<&str> = actual
            .iter()
            .filter(|(k, v)| !expected.iter().any(|(ek, ev)| ek == k && ev == v))
            .map(|(k, _)| k.as_str())
            .collect();
        panic!(
            "greedy output differs from the golden table in {} case(s): {differing:?}\n\
             actual table:\n{}",
            differing.len(),
            table.join("\n")
        );
    }
}
