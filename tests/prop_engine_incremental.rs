//! Property test: after any sequence of test-point edits, a session's
//! measurement equals a from-scratch fault simulation of the edited
//! circuit over the session universe, in every field.

use proptest::prelude::*;

use krishnamurthy_tpi::engine::{EngineConfig, TpiEngine};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::{Circuit, NodeId, TestPoint, TestPointKind};
use krishnamurthy_tpi::sim::{FaultSimResult, FaultSimulator, IndependentPatterns};

fn dag(seed: u64) -> Circuit {
    let mut cfg = RandomDagConfig::new(6, 14, seed);
    cfg.locality = 0.5; // encourage fanout/reconvergence
    random_dag(&cfg).unwrap()
}

fn session(circuit: Circuit, patterns: u64, seed: u64) -> TpiEngine {
    TpiEngine::new(
        circuit,
        EngineConfig {
            patterns,
            seed,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

/// A fresh simulator's run over the session universe on the session's
/// current circuit.
fn fresh(engine: &TpiEngine, patterns: u64, seed: u64) -> FaultSimResult {
    let circuit = engine.circuit();
    let mut sim = FaultSimulator::new(circuit).unwrap();
    let mut src = IndependentPatterns::new(circuit.inputs().len(), seed);
    sim.run(&mut src, patterns, engine.universe().faults())
        .unwrap()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config { cases: 24 })]

    /// Each edit is `(node, kind, measure after it)`; a measurement
    /// between edits must not leak into the next one.
    #[test]
    fn incremental_resimulation_is_bit_identical(
        seed in 0u64..1_000,
        edits in prop::collection::vec((0usize..64, 0usize..4, any::<bool>()), 1..4),
        patterns in 128u64..1024,
    ) {
        let run_seed = seed ^ 0xABCD;
        let mut engine = session(dag(seed), patterns, run_seed);
        engine.simulate().unwrap();
        let mut applied = Vec::new();
        for &(node_pick, kind_pick, measure) in &edits {
            let node = NodeId::from_index(node_pick % engine.circuit().node_count());
            let tp = TestPoint::new(node, TestPointKind::ALL[kind_pick]);
            // Some points are structurally inapplicable (e.g. a control
            // point on a constant); such an edit is skipped.
            if engine.apply(tp).is_err() {
                continue;
            }
            applied.push(tp);
            if measure {
                let measured = engine.simulate().unwrap().clone();
                prop_assert_eq!(measured, fresh(&engine, patterns, run_seed), "after {:?}", applied);
            }
        }
        prop_assume!(!applied.is_empty());
        let measured = engine.simulate().unwrap().clone();
        prop_assert_eq!(measured, fresh(&engine, patterns, run_seed), "after {:?}", applied);
    }
}

/// A full point at `g4` lets every fault of this DAG be detected within
/// the first block, so a fresh run stops after 64 patterns. The session's
/// measurement must report the same, not the 749 patterns of the run
/// before the edit.
#[test]
fn patterns_applied_after_an_edit_match_a_fresh_run() {
    let (patterns, seed) = (749, 41 ^ 0xABCD);
    let mut engine = session(dag(41), patterns, seed);
    let before = engine.simulate().unwrap().clone();
    assert_eq!(before.patterns_applied(), 749);
    assert!(before.coverage() < 1.0, "{}", before.coverage());

    let g4 = engine.circuit().find_node("g4").unwrap();
    engine.apply(TestPoint::full(g4)).unwrap();
    let after = engine.simulate().unwrap().clone();
    assert_eq!(after.coverage(), 1.0);
    assert_eq!(after.patterns_applied(), 64);
    assert_eq!(after, fresh(&engine, patterns, seed));
}
