//! Acceptance tests for `--objective patterns`: on the generated suite's
//! random-pattern-resistant circuits the search must *strictly* reduce
//! the compacted deterministic pattern count versus the no-TPI baseline,
//! and the coverage objective must be untouched by the new code paths.

use krishnamurthy_tpi::compaction::{PatternsConfig, PatternsOptimizer, SearchTier};
use krishnamurthy_tpi::engine::{EngineConfig, TpiEngine};
use krishnamurthy_tpi::gen::rpr;
use krishnamurthy_tpi::netlist::Circuit;
use krishnamurthy_tpi::sim::FaultUniverse;

fn suite() -> Vec<(&'static str, Circuit)> {
    vec![
        ("and_tree_16", rpr::and_tree(16, 1).unwrap()),
        ("comparator_6", rpr::comparator(6).unwrap()),
        ("decoder_4", rpr::decoder(4).unwrap()),
        ("bus_match_8", rpr::bus_match(8).unwrap()),
    ]
}

#[test]
fn patterns_objective_strictly_reduces_on_three_suite_circuits() {
    for (name, circuit) in suite() {
        let universe = FaultUniverse::collapsed(&circuit).unwrap();
        let outcome = PatternsOptimizer::new(PatternsConfig::default())
            .solve(&circuit, universe.faults())
            .unwrap();
        assert!(
            outcome.patterns_after < outcome.patterns_before,
            "{name}: expected a strict reduction, got {} -> {}",
            outcome.patterns_before,
            outcome.patterns_after
        );
        // The committed plan replays on the base circuit to the reported
        // structure.
        let (replayed, _) =
            krishnamurthy_tpi::netlist::transform::apply_plan(&circuit, outcome.plan.test_points())
                .unwrap();
        assert_eq!(replayed.node_count(), outcome.modified.node_count());
    }
}

#[test]
fn engine_constructive_tier_matches_the_reduction_guarantee() {
    for (name, circuit) in suite() {
        let mut engine = TpiEngine::new(
            circuit,
            EngineConfig {
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let outcome = engine
            .optimize_patterns(&PatternsConfig {
                tier: SearchTier::Constructive,
                ..PatternsConfig::default()
            })
            .unwrap();
        assert!(
            outcome.patterns_after < outcome.patterns_before,
            "{name}: expected a strict reduction, got {} -> {}",
            outcome.patterns_before,
            outcome.patterns_after
        );
    }
}
