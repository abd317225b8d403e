//! Golden plans for the tree DP.
//!
//! The optimality and feasibility properties elsewhere hold for any
//! minimum-cost plan, so none of them notices when the DP returns a
//! different plan of the same cost (an equal-cost tie broken the other
//! way) or does a different amount of work to find it. This file pins
//! the exact output instead: on seeded trees, for every solver entry
//! point, the plan's points (kind and node name, in order), the bits of
//! its cost and the `DpStats` work counters must equal the recorded
//! values in `GOLDEN`.
//!
//! A deliberate change to the DP's output means re-recording the table;
//! a failing run prints every case's actual line in the table's syntax.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krishnamurthy_tpi::core::{DpConfig, DpOptimizer, DpStats, Plan, Threshold, TpiProblem};
use krishnamurthy_tpi::gen::trees::{random_tree, RandomTreeConfig};
use krishnamurthy_tpi::netlist::{Circuit, CircuitBuilder, GateKind, NodeId};

/// A seeded tree over every gate kind the DP handles, unary BUF/NOT
/// included (`random_tree` only builds gates of fan-in ≥ 2 plus NOTs).
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

fn and_or_tree(leaves: usize, seed: u64) -> Circuit {
    random_tree(&RandomTreeConfig::with_leaves(leaves, seed).and_or_only()).unwrap()
}

fn default_tree(leaves: usize, seed: u64) -> Circuit {
    random_tree(&RandomTreeConfig::with_leaves(leaves, seed)).unwrap()
}

/// Two AND/OR cones, one driving a primary output and one dangling (no
/// output at all, so its faults must be observed internally).
fn forest(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new("forest");
    let mut roots = Vec::new();
    for tree in 0..2 {
        let mut open: Vec<NodeId> = b.inputs(8, &format!("t{tree}x"));
        let mut counter = 0usize;
        while open.len() > 1 {
            let kind = [GateKind::And, GateKind::Or, GateKind::Nand][rng.gen_range(0..3usize)];
            let fanins = vec![open.remove(0), open.remove(0)];
            open.push(b.gate(kind, fanins, format!("t{tree}g{counter}")).unwrap());
            counter += 1;
        }
        roots.push(open[0]);
    }
    b.output(roots[0]);
    b.finish().unwrap()
}

fn describe(circuit: &Circuit, plan: &Plan) -> String {
    let points: Vec<String> = plan
        .test_points()
        .iter()
        .map(|tp| format!("{}:{}", tp.kind.mnemonic(), circuit.node_name(tp.node)))
        .collect();
    format!(
        "[{}] cost={:#018x}",
        points.join(" "),
        plan.cost().to_bits()
    )
}

fn describe_stats(stats: &DpStats) -> String {
    format!(
        "nodes={} states={} frontier={}",
        stats.nodes, stats.states_created, stats.max_frontier
    )
}

/// One line per run: plan and work, or the error the DP reported.
fn min_cost_line(circuit: &Circuit, problem: &TpiProblem, config: DpConfig, rho: f64) -> String {
    match DpOptimizer::new(config).solve_region(problem, rho) {
        Ok((plan, stats)) => format!("{} {}", describe(circuit, &plan), describe_stats(&stats)),
        Err(e) => format!("error: {e}"),
    }
}

fn max_coverage_line(circuit: &Circuit, problem: &TpiProblem, budget: f64) -> String {
    match DpOptimizer::default().solve_max_coverage(problem, budget) {
        Ok((plan, missed)) => format!("{} missed={missed}", describe(circuit, &plan)),
        Err(e) => format!("error: {e}"),
    }
}

fn actual_lines() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let no_control = DpConfig {
        enable_control: false,
        enable_full: false,
        ..DpConfig::default()
    };
    let no_full = DpConfig {
        enable_full: false,
        ..DpConfig::default()
    };
    // (name, tree, log2 δ, whole run list): the larger trees run only
    // the cheaper configurations, to keep a debug build's run short.
    let trees: Vec<(&str, Circuit, f64, bool)> = vec![
        ("and16_s1", and_or_tree(16, 1), -6.0, true),
        ("and64_s2", and_or_tree(64, 2), -8.0, true),
        ("and256_s3", and_or_tree(256, 3), -8.0, false),
        ("default32_s4", default_tree(32, 4), -6.0, true),
        ("default128_s5", default_tree(128, 5), -8.0, false),
        ("mixed24_s6", mixed_tree(24, 6), -3.0, true),
        ("mixed96_s7", mixed_tree(96, 7), -7.0, false),
    ];
    for (name, circuit, exp, all_runs) in &trees {
        let problem = TpiProblem::min_cost(circuit, Threshold::from_log2(*exp)).unwrap();
        let mut push = |run: &str, line: String| out.push((format!("{name}/{run}"), line));
        push(
            "default",
            min_cost_line(circuit, &problem, DpConfig::default(), 1.0),
        );
        push(
            "res16x2",
            min_cost_line(circuit, &problem, DpConfig::with_resolution(16, 2), 1.0),
        );
        push(
            "no_control",
            min_cost_line(circuit, &problem, no_control.clone(), 1.0),
        );
        if !all_runs {
            continue;
        }
        push(
            "no_full",
            min_cost_line(circuit, &problem, no_full.clone(), 1.0),
        );
        push(
            "rho0",
            min_cost_line(circuit, &problem, DpConfig::default(), 0.0),
        );
        push(
            "rho0.3",
            min_cost_line(circuit, &problem, DpConfig::default(), 0.3),
        );
        // MaxCoverage keeps a (cost, misses) Pareto set per bucket, so
        // its frontier grows with the budget: small trees only.
        if circuit.node_count() > 64 {
            continue;
        }
        for budget in [0.5, 1.5, 3.0] {
            push(
                &format!("maxcov{budget}"),
                max_coverage_line(circuit, &problem, budget),
            );
        }
    }
    // Exact mode stays on trees of at most 9 nodes: its frontier is
    // worst-case exponential.
    for seed in 0..8u64 {
        let leaves = 3 + (seed as usize % 3);
        let circuit = mixed_tree(leaves, 100 + seed);
        if circuit.node_count() > 9 {
            continue;
        }
        let exp = -1.5 - 0.5 * (seed % 3) as f64;
        let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(exp)).unwrap();
        out.push((
            format!("exact_mixed{leaves}_s{}/exact", 100 + seed),
            min_cost_line(&circuit, &problem, DpConfig::exact(), 1.0),
        ));
    }
    let circuit = forest(11);
    let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-4.0)).unwrap();
    out.push((
        "forest_s11/default".into(),
        min_cost_line(&circuit, &problem, DpConfig::default(), 1.0),
    ));
    out.push((
        "forest_s11/maxcov2".into(),
        max_coverage_line(&circuit, &problem, 2.0),
    ));
    out
}

/// Recorded from the DP before its frontier loop was rewritten around
/// flat bucket tables; the rewrite reproduces every line.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("and16_s1/default", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 nodes=25 states=20385 frontier=94"),
    ("and16_s1/res16x2", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 nodes=25 states=4595 frontier=24"),
    ("and16_s1/no_control", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 nodes=25 states=126 frontier=2"),
    ("and16_s1/no_full", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 nodes=25 states=18815 frontier=93"),
    ("and16_s1/rho0", "[op:g3 op:g5 op:g7 op:g8] cost=0x4000000000000000 nodes=25 states=20385 frontier=94"),
    ("and16_s1/rho0.3", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 nodes=25 states=20385 frontier=94"),
    ("and16_s1/maxcov0.5", "[op:g3] cost=0x3fe0000000000000 missed=18"),
    ("and16_s1/maxcov1.5", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 missed=0"),
    ("and16_s1/maxcov3", "[op:g3 op:g5 op:g7] cost=0x3ff8000000000000 missed=0"),
    ("and64_s2/default", "[op:g32 op:g18 op:g35 cp-or:g36 op:g36 op:g43 cp-and:g21 op:g34 op:g38 op:g44] cost=0x4018000000000000 nodes=111 states=212680 frontier=119"),
    ("and64_s2/res16x2", "[op:g32 op:g18 op:g35 cp-or:g36 op:g36 op:g43 cp-and:g21 op:g34 op:g38 op:g44] cost=0x4018000000000000 nodes=111 states=31539 frontier=28"),
    ("and64_s2/no_control", "error: threshold unreachable for fault stem fault at `g45` (threshold 2^-8.00 exceeds reachable excitation)"),
    ("and64_s2/no_full", "[op:g32 op:g18 op:g35 cp-or:g36 op:g36 op:g43 cp-and:g21 op:g34 op:g38 op:g44] cost=0x4018000000000000 nodes=111 states=195541 frontier=118"),
    ("and64_s2/rho0", "[op:g32 op:g18 op:g35 cp-or:g36 op:g36 op:g43 cp-and:g21 op:g34 op:g38 op:g44 op:g46] cost=0x401a000000000000 nodes=111 states=212680 frontier=119"),
    ("and64_s2/rho0.3", "[op:g32 op:g18 op:g35 cp-or:g36 op:g36 op:g43 cp-and:g21 op:g34 op:g38 op:g44 op:g46] cost=0x401a000000000000 nodes=111 states=212680 frontier=119"),
    ("and256_s3/default", "[op:g162 op:g95 op:g158 op:g129 op:g41 op:g154 op:g163 op:g121 op:g119 op:g172 cp-and:g181 op:g181 op:g146 op:g187 op:g92 op:g123 op:g173 op:g81 op:g106 op:g168 op:g196 op:g51 op:g136 op:g197 cp-or:g94 op:g94 op:g176 op:g128 op:g175 op:g177 op:g140 op:g164 op:g188 op:g200] cost=0x4032000000000000 nodes=462 states=1092609 frontier=121"),
    ("and256_s3/res16x2", "[op:g162 op:g95 op:g158 op:g129 op:g41 op:g154 op:g163 op:g121 op:g119 op:g172 cp-and:g181 op:g181 op:g146 op:g187 op:g92 op:g123 op:g173 cp-and:g81 op:g81 op:g106 op:g51 op:g136 op:g197 cp-or:g94 op:g94 op:g176 op:g128 op:g175 op:g177 op:g140 op:g164 op:g188 op:g200] cost=0x4032000000000000 nodes=462 states=136189 frontier=32"),
    ("and256_s3/no_control", "error: threshold unreachable for fault stem fault at `g193` (threshold 2^-8.00 exceeds reachable excitation)"),
    ("default32_s4/default", "[op:g10 op:g23 op:g11 cp-and:g20 op:g20 cp-and:g24 op:g24] cost=0x4012000000000000 nodes=58 states=76770 frontier=111"),
    ("default32_s4/res16x2", "[cp-or:x9 op:g16 cp-and:g11 op:g11 cp-and:g20 op:g20 op:g24] cost=0x4014000000000000 nodes=58 states=12079 frontier=28"),
    ("default32_s4/no_control", "error: threshold unreachable for fault stem fault at `g24` (threshold 2^-6.00 exceeds reachable excitation)"),
    ("default32_s4/no_full", "[op:g10 op:g23 op:g11 cp-and:g20 op:g20 cp-and:g24 op:g24] cost=0x4012000000000000 nodes=58 states=71803 frontier=113"),
    ("default32_s4/rho0", "[op:g10 op:g23 op:g11 cp-and:g20 op:g20 cp-and:g24 op:g24 op:g25] cost=0x4014000000000000 nodes=58 states=76770 frontier=111"),
    ("default32_s4/rho0.3", "[op:g10 op:g23 op:g11 cp-and:g20 op:g20 cp-and:g24 op:g24 op:g25] cost=0x4014000000000000 nodes=58 states=76770 frontier=111"),
    ("default32_s4/maxcov0.5", "[op:g23] cost=0x3fe0000000000000 missed=73"),
    ("default32_s4/maxcov1.5", "[op:g23 op:g21 op:g20] cost=0x3ff8000000000000 missed=35"),
    ("default32_s4/maxcov3", "[op:g10 op:g23 op:g11 op:x7 op:g21 op:g20] cost=0x4008000000000000 missed=2"),
    ("default128_s5/default", "[op:g49 op:g51 op:g75 op:g85 op:g94 op:g78 op:g25 op:g86 op:g77] cost=0x4012000000000000 nodes=226 states=512545 frontier=119"),
    ("default128_s5/res16x2", "[op:g49 op:g51 op:g75 op:g85 op:g94 op:g78 op:g25 op:g86 op:g77] cost=0x4012000000000000 nodes=226 states=63110 frontier=30"),
    ("default128_s5/no_control", "[op:g49 op:g51 op:g75 op:g85 op:g94 op:g78 op:g25 op:g86 op:g77] cost=0x4012000000000000 nodes=226 states=1267 frontier=2"),
    ("mixed24_s6/default", "[op:g14 op:g21 cp-and:g23 op:g23] cost=0x4004000000000000 nodes=53 states=34354 frontier=92"),
    ("mixed24_s6/res16x2", "[op:g14 op:g21 cp-and:g23 op:g23] cost=0x4004000000000000 nodes=53 states=6177 frontier=24"),
    ("mixed24_s6/no_control", "error: threshold unreachable for fault stem fault at `g24` (threshold 2^-3.00 exceeds reachable excitation)"),
    ("mixed24_s6/no_full", "[op:g14 op:g21 cp-and:g23 op:g23] cost=0x4004000000000000 nodes=53 states=33006 frontier=93"),
    ("mixed24_s6/rho0", "[op:g14 op:g21 cp-and:g23 op:g23 op:g28] cost=0x4008000000000000 nodes=53 states=34354 frontier=92"),
    ("mixed24_s6/rho0.3", "[op:g14 op:g21 cp-and:g23 op:g23 op:g28] cost=0x4008000000000000 nodes=53 states=34354 frontier=92"),
    ("mixed24_s6/maxcov0.5", "[op:g21] cost=0x3fe0000000000000 missed=36"),
    ("mixed24_s6/maxcov1.5", "[op:g14 op:g21 op:g23] cost=0x3ff8000000000000 missed=7"),
    ("mixed24_s6/maxcov3", "[op:g14 op:g21 tp:g23] cost=0x4004000000000000 missed=0"),
    ("mixed96_s7/default", "[op:g57 op:g66 op:g71 op:g89 op:g49 op:g64 op:g92 cp-or:g28 op:g93 op:g98] cost=0x4016000000000000 nodes=198 states=371427 frontier=120"),
    ("mixed96_s7/res16x2", "[op:g57 op:g66 op:g71 op:g89 op:g49 op:g64 cp-or:g92 op:g92 op:g69 op:g76 op:g100] cost=0x4018000000000000 nodes=198 states=51592 frontier=32"),
    ("mixed96_s7/no_control", "error: threshold unreachable for fault stem fault at `g98` (threshold 2^-7.00 exceeds reachable excitation)"),
    ("exact_mixed3_s100/exact", "[cp-or:x0 op:x0 cp-or:x1 op:x1 cp-or:x2 op:x2] cost=0x4012000000000000 nodes=4 states=49 frontier=5"),
    ("exact_mixed4_s101/exact", "[cp-or:g1 op:g1 cp-or:x2 op:x2] cost=0x4008000000000000 nodes=9 states=1304 frontier=223"),
    ("exact_mixed3_s103/exact", "[cp-and:x0 op:x0 cp-and:g0 op:g0 cp-and:x2 op:x2] cost=0x4012000000000000 nodes=5 states=59 frontier=5"),
    ("exact_mixed5_s105/exact", "[op:g2 cp-and:x2 op:x2 cp-or:g0 op:g0] cost=0x400c000000000000 nodes=9 states=1615 frontier=505"),
    ("exact_mixed3_s106/exact", "[cp-or:x1 op:x1 cp-or:g1 op:g1] cost=0x4008000000000000 nodes=6 states=146 frontier=29"),
    ("exact_mixed4_s107/exact", "[] cost=0x0000000000000000 nodes=9 states=1572 frontier=301"),
    ("forest_s11/default", "[op:t0g4 op:t1g4 op:t1g5 op:t1g6] cost=0x4000000000000000 nodes=30 states=19213 frontier=104"),
    ("forest_s11/maxcov2", "[op:t0g1 op:t1g4 op:t1g5 op:t1g6] cost=0x4000000000000000 missed=0"),
];

#[test]
fn dp_plans_match_the_recorded_golden_table() {
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
            "DP output differs from the golden table in {} case(s): {differing:?}\n\
             actual table:\n{}",
            differing.len(),
            table.join("\n")
        );
    }
}
