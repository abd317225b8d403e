//! Golden output for deterministic ATPG.
//!
//! The ATPG properties elsewhere check that a returned cube detects its
//! fault and that a redundancy proof agrees with exhaustive simulation.
//! Neither notices when PODEM returns a *different* valid cube, spends a
//! different number of backtracks, or aborts elsewhere — and every one
//! of those changes the cube sets, the packed pattern counts and the
//! pattern-objective plans built on them. This file pins the exact
//! output instead. Per case:
//!
//! * `topoff::generate` with fill seed 7 over the collapsed universe:
//!   the cubes in order, their targets, the merged set, the redundant
//!   and uncovered lists and every `AtpgCounters` field;
//! * for cases of at most 60 gates, one `Podem::generate` per fault of
//!   the full universe: the outcome (the cube itself for a test) and
//!   `last_backtracks`;
//! * for one 60-gate DAG, a constructive `PatternsOptimizer` run with
//!   `max_points: 2`: its plan and `patterns_before`/`patterns_after`.
//!
//! Each case stores summary counts and one FNV-1a digest of the full
//! rendering. A deliberate change to PODEM's output means re-recording
//! the table; a failing run prints every case's actual line in the
//! table's syntax.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krishnamurthy_tpi::atpg::topoff;
use krishnamurthy_tpi::atpg::{Podem, PodemConfig, PodemResult};
use krishnamurthy_tpi::compaction::{PatternsConfig, PatternsOptimizer, SearchTier};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::{
    Circuit, CircuitBuilder, GateKind, NodeId, TestPoint, TestPointKind, Topology,
};
use krishnamurthy_tpi::sim::{Fault, FaultUniverse};

/// Cases up to this many gates also get a full-universe PODEM sweep.
const SWEEP_MAX_GATES: usize = 60;

fn dag(inputs: usize, gates: usize, seed: u64) -> Circuit {
    random_dag(&RandomDagConfig::new(inputs, gates, seed)).unwrap()
}

/// `circuit` with one CP-AND, CP-OR, OP and full point applied at gates
/// spread over the netlist. The control and full points append new
/// inputs and gates, so node ids stop being topological.
fn with_points(circuit: &Circuit) -> Circuit {
    let topo = Topology::of(circuit).unwrap();
    let driving: Vec<NodeId> = circuit
        .node_ids()
        .filter(|&id| !circuit.kind(id).is_source() && topo.fanout_count(id) > 0)
        .collect();
    let at = |num: usize| driving[driving.len() * num / 5];
    let plan = [
        TestPoint::new(at(1), TestPointKind::ControlAnd),
        TestPoint::new(at(2), TestPointKind::ControlOr),
        TestPoint::new(at(3), TestPointKind::Observe),
        TestPoint::new(at(4), TestPointKind::Full),
    ];
    apply_plan(circuit, &plan).unwrap().0
}

/// A seeded tree over every gate kind, unary BUF/NOT and XNOR included.
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

/// Structure the generators never make: one net read two and three
/// times by the same gate, constants feeding gates (and fanning out), an
/// XOR/XNOR chain, 1-input BUF/NOT, an 8-input NAND, and a stem that
/// feeds both a primary output and gates. The full universe it is swept
/// over holds stem faults on every primary input and branch faults on
/// every duplicated pin.
fn awkward() -> Circuit {
    let mut b = CircuitBuilder::new("awkward");
    let x = b.inputs(8, "x");
    let k0 = b.constant(false, "k0").unwrap();
    let k1 = b.constant(true, "k1").unwrap();
    let twice = b.gate(GateKind::And, vec![x[0], x[0]], "twice").unwrap();
    let thrice = b
        .gate(GateKind::Or, vec![x[1], x[2], x[1], x[1]], "thrice")
        .unwrap();
    let p1 = b.gate(GateKind::Xor, vec![x[0], x[1], x[2]], "p1").unwrap();
    let p2 = b.gate(GateKind::Xnor, vec![p1, x[3]], "p2").unwrap();
    let p3 = b.gate(GateKind::Xor, vec![p2, x[4], k1], "p3").unwrap();
    let buf = b.gate(GateKind::Buf, vec![p3], "buf").unwrap();
    let inv = b.gate(GateKind::Not, vec![x[5]], "inv").unwrap();
    let wide = b.gate(GateKind::Nand, x.clone(), "wide").unwrap();
    let m1 = b.gate(GateKind::And, vec![twice, k1, inv], "m1").unwrap();
    let m2 = b.gate(GateKind::Or, vec![thrice, k0, x[6]], "m2").unwrap();
    let m3 = b.gate(GateKind::Nor, vec![m1, m2, buf], "m3").unwrap();
    let eq = b
        .gate(GateKind::Xnor, vec![wide, wide, x[7]], "eq")
        .unwrap();
    let dead = b.gate(GateKind::And, vec![k0, x[3]], "dead").unwrap();
    let top = b.gate(GateKind::Nand, vec![m3, eq, dead], "top").unwrap();
    b.output(buf);
    b.output(top);
    b.output(wide);
    b.finish().unwrap()
}

struct Case {
    name: String,
    circuit: Circuit,
    config: PodemConfig,
    patterns: bool,
}

fn case(name: impl Into<String>, circuit: Circuit) -> Case {
    Case {
        name: name.into(),
        circuit,
        config: PodemConfig::default(),
        patterns: false,
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(case: &Case) -> String {
    let c = &case.circuit;
    let mut full = String::new();
    let faults_text = |faults: &[Fault]| -> String {
        faults
            .iter()
            .map(|f| f.describe(c))
            .collect::<Vec<_>>()
            .join(",")
    };

    // Top-off over the collapsed universe.
    let collapsed = FaultUniverse::collapsed(c).unwrap();
    let top = topoff::generate(c, collapsed.faults(), case.config, 7).unwrap();
    for (cube, target) in top.cubes.iter().zip(&top.targets) {
        full.push_str(&format!(
            "cube {} {}\n",
            target.describe(c),
            cube.to_pattern_string()
        ));
    }
    for seed in &top.merged {
        full.push_str(&format!("seed {}\n", seed.to_pattern_string()));
    }
    full.push_str(&format!("redundant {}\n", faults_text(&top.redundant)));
    full.push_str(&format!("uncovered {}\n", faults_text(&top.uncovered)));
    let k = &top.counters;
    let counters = format!(
        "{}/{}/{}/{}/{}",
        k.cubes_generated, k.backtracks, k.aborted_faults, k.redundant_faults, k.fortuitous_drops
    );
    full.push_str(&format!("counters {counters}\n"));
    let mut summary = format!(
        "cubes={} seeds={} redundant={} uncovered={} counters={counters}",
        top.cubes.len(),
        top.merged.len(),
        top.redundant.len(),
        top.uncovered.len()
    );

    // One PODEM call per fault of the full universe.
    if c.gate_count() <= SWEEP_MAX_GATES {
        let universe = FaultUniverse::full(c).unwrap();
        let mut podem = Podem::with_config(c, case.config).unwrap();
        let (mut tests, mut untestable, mut aborted, mut backtracks) = (0, 0, 0, 0u64);
        for &fault in universe.faults() {
            let outcome = match podem.generate(fault).unwrap() {
                PodemResult::Test(cube) => {
                    tests += 1;
                    format!("T{}", cube.to_pattern_string())
                }
                PodemResult::Untestable => {
                    untestable += 1;
                    "U".to_string()
                }
                PodemResult::Aborted => {
                    aborted += 1;
                    "A".to_string()
                }
            };
            backtracks += podem.last_backtracks();
            full.push_str(&format!(
                "fault {} {outcome} {}\n",
                fault.describe(c),
                podem.last_backtracks()
            ));
        }
        summary.push_str(&format!(
            " full={tests}/{untestable}/{aborted} full_bt={backtracks}"
        ));
    }

    // The pattern-count objective on top of the cube sets.
    if case.patterns {
        let config = PatternsConfig {
            max_points: 2,
            tier: SearchTier::Constructive,
            cubes: krishnamurthy_tpi::compaction::CubeConfig {
                podem: case.config,
                ..Default::default()
            },
            ..PatternsConfig::default()
        };
        let outcome = PatternsOptimizer::new(config)
            .solve(c, collapsed.faults())
            .unwrap();
        let points: Vec<String> = outcome
            .plan
            .test_points()
            .iter()
            .map(|tp| format!("{}:{}", tp.kind.mnemonic(), c.node_name(tp.node)))
            .collect();
        let plan = format!(
            "[{}] patterns={}->{}",
            points.join(" "),
            outcome.patterns_before,
            outcome.patterns_after
        );
        full.push_str(&format!("plan {plan}\n"));
        summary.push_str(&format!(" plan={plan}"));
    }

    format!("{summary} digest={:#018x}", fnv1a(&full))
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let dags: [(usize, usize, u64); 5] = [
        (8, 30, 4),
        (12, 45, 2),
        (12, 60, 1),
        (16, 100, 2),
        (24, 150, 3),
    ];
    for (inputs, gates, seed) in dags {
        let circuit = dag(inputs, gates, seed);
        let name = circuit.name().to_string();
        out.push(case(&name, circuit.clone()));
        if gates <= 100 {
            out.push(case(format!("{name}+points"), with_points(&circuit)));
        }
    }
    out.push(case("mixed_l40_s5", mixed_tree(40, 5)));
    out.push(case("awkward", awkward()));
    for (inputs, gates, seed) in [(12, 60, 1), (16, 100, 2)] {
        let mut limited = case(
            format!("dag_i{inputs}_g{gates}_s{seed}/bt5"),
            dag(inputs, gates, seed),
        );
        limited.config = PodemConfig { max_backtracks: 5 };
        out.push(limited);
    }
    let mut patterns = case("dag_i12_g60_s3/patterns", dag(12, 60, 3));
    patterns.patterns = true;
    out.push(patterns);
    out
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("dag_i8_g30_s4", "cubes=10 seeds=8 redundant=56 uncovered=0 counters=10/1411/0/56/59 full=97/87/0 full_bt=2243 digest=0xf7dffd0867673ba7"),
    ("dag_i8_g30_s4+points", "cubes=14 seeds=9 redundant=29 uncovered=0 counters=14/997/0/29/88 full=144/50/0 full_bt=2099 digest=0x3e72d0d02e49b314"),
    ("dag_i12_g45_s2", "cubes=12 seeds=9 redundant=52 uncovered=0 counters=12/1429/0/52/112 full=179/85/0 full_bt=3168 digest=0x9a30aca761e1d886"),
    ("dag_i12_g45_s2+points", "cubes=19 seeds=15 redundant=28 uncovered=0 counters=19/532/0/28/135 full=227/47/0 full_bt=1038 digest=0xf3a7006716158f01"),
    ("dag_i12_g60_s1", "cubes=14 seeds=11 redundant=94 uncovered=0 counters=14/1156/0/94/158 full=213/155/0 full_bt=2034 digest=0x426e0d9e67d285b7"),
    ("dag_i12_g60_s1+points", "cubes=13 seeds=12 redundant=84 uncovered=0 counters=13/1631/0/84/175 digest=0xb4351aebe6bbb21a"),
    ("dag_i16_g100_s2", "cubes=29 seeds=23 redundant=150 uncovered=0 counters=29/21437/0/150/232 digest=0x01fcb6a71284c2d5"),
    ("dag_i16_g100_s2+points", "cubes=28 seeds=21 redundant=111 uncovered=0 counters=28/21445/0/111/278 digest=0x146dc34bdf236b17"),
    ("dag_i24_g150_s3", "cubes=29 seeds=20 redundant=145 uncovered=0 counters=29/8517/0/145/489 digest=0x9a3607557b2939e3"),
    ("mixed_l40_s5", "cubes=44 seeds=41 redundant=0 uncovered=0 counters=44/0/0/0/37 full=156/0/0 full_bt=0 digest=0x871292d97ba95ac7"),
    ("awkward", "cubes=12 seeds=11 redundant=29 uncovered=0 counters=12/276/0/29/35 full=57/51/0 full_bt=486 digest=0xddbef28115f8ba7b"),
    ("dag_i12_g60_s1/bt5", "cubes=13 seeds=10 redundant=28 uncovered=67 counters=13/476/67/28/158 full=199/51/118 full_bt=866 digest=0x795c96fb2be0289c"),
    ("dag_i16_g100_s2/bt5", "cubes=23 seeds=16 redundant=12 uncovered=148 counters=23/945/148/12/228 digest=0x1b1786d94cf5ad66"),
    ("dag_i12_g60_s3/patterns", "cubes=17 seeds=15 redundant=65 uncovered=0 counters=17/1276/0/65/177 full=254/112/0 full_bt=3171 plan=[cp-and:g55 cp-or:g44] patterns=15->12 digest=0x7f2974a3fc6ea658"),
];

#[test]
fn atpg_output_matches_the_recorded_golden_table() {
    let actual: Vec<(String, String)> = cases()
        .iter()
        .map(|case| (case.name.clone(), line(case)))
        .collect();
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
            "ATPG output differs from the golden table in {} case(s): {differing:?}\n\
             actual table:\n{}",
            differing.len(),
            table.join("\n")
        );
    }
}
