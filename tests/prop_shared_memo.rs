//! Property test: the cross-session [`SharedDpMemo`] is
//! semantics-preserving — a session optimizing over the shared memo
//! produces a plan **bit-identical** to an isolated session with a
//! private memo, for any random DAG, any threshold, and any thread
//! interleaving of concurrent sessions hammering the same memo.
//!
//! This is the coherence argument of DESIGN §6.2g made executable:
//! memo keys are content-addressed region fingerprints, the DP is
//! deterministic, so a hit can only ever replay the exact value the
//! session would have computed itself.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use krishnamurthy_tpi::core::Threshold;
use krishnamurthy_tpi::engine::{
    EngineConfig, OptimizeConfig, SharedDpMemo, SharedMemoConfig, TpiEngine,
};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::{Circuit, TestPoint};
use krishnamurthy_tpi::obs::Registry;

fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        patterns: 256,
        seed,
        ..EngineConfig::default()
    }
}

fn optimize_config() -> OptimizeConfig {
    OptimizeConfig {
        max_rounds: 3,
        ..OptimizeConfig::default()
    }
}

/// Run one full optimize on a private-memo engine and return the plan.
fn isolated_plan(circuit: &Circuit, seed: u64, threshold: Threshold) -> Vec<TestPoint> {
    let mut engine = TpiEngine::new(circuit.clone(), engine_config(seed)).unwrap();
    let outcome = engine.optimize(threshold, &optimize_config()).unwrap();
    outcome.plan.test_points().to_vec()
}

/// Run one full optimize on an engine backed by `memo` and return the plan.
fn shared_plan(
    circuit: &Circuit,
    seed: u64,
    threshold: Threshold,
    memo: &Arc<SharedDpMemo>,
) -> Vec<TestPoint> {
    let registry = Arc::new(Registry::new());
    let mut engine = TpiEngine::with_shared_memo(
        circuit.clone(),
        engine_config(seed),
        registry,
        Arc::clone(memo),
    )
    .unwrap();
    let outcome = engine.optimize(threshold, &optimize_config()).unwrap();
    outcome.plan.test_points().to_vec()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config { cases: 12 })]

    /// Concurrent sessions over one shared memo — two per circuit, two
    /// circuits, all four threads racing on lookups/inserts — each
    /// produce exactly the plan an isolated session produces.
    #[test]
    fn shared_memo_plans_are_bit_identical_across_interleavings(
        seed_a in 0u64..500,
        seed_b in 500u64..1_000,
        log2 in -12.0f64..-4.0,
    ) {
        let threshold = Threshold::from_log2(log2);
        let circuit_a = random_dag(&RandomDagConfig::new(6, 16, seed_a)).unwrap();
        let circuit_b = random_dag(&RandomDagConfig::new(6, 16, seed_b)).unwrap();

        let expect_a = isolated_plan(&circuit_a, seed_a, threshold);
        let expect_b = isolated_plan(&circuit_b, seed_b, threshold);

        let memo = Arc::new(SharedDpMemo::new(SharedMemoConfig::default()));
        let mut handles = Vec::new();
        for _ in 0..2 {
            for (circuit, seed) in [(&circuit_a, seed_a), (&circuit_b, seed_b)] {
                let circuit = circuit.clone();
                let memo = Arc::clone(&memo);
                handles.push(thread::spawn(move || {
                    (seed, shared_plan(&circuit, seed, threshold, &memo))
                }));
            }
        }
        for handle in handles {
            let (seed, plan) = handle.join().unwrap();
            let expected = if seed == seed_a { &expect_a } else { &expect_b };
            prop_assert_eq!(
                &plan, expected,
                "shared-memo plan diverged from isolated plan for seed {}", seed
            );
        }
    }

    /// Deterministic reuse: a second session loading the same circuit
    /// replays region solutions out of the shared memo (hits strictly
    /// increase) and still lands on the identical plan.
    #[test]
    fn second_session_replays_and_matches(
        seed in 0u64..1_000,
        log2 in -12.0f64..-4.0,
    ) {
        let threshold = Threshold::from_log2(log2);
        let circuit = random_dag(&RandomDagConfig::new(6, 16, seed)).unwrap();
        let expected = isolated_plan(&circuit, seed, threshold);

        let memo = Arc::new(SharedDpMemo::new(SharedMemoConfig::default()));
        let first = shared_plan(&circuit, seed, threshold, &memo);
        prop_assert_eq!(&first, &expected);

        // Only meaningful when the optimize actually reached the DP
        // (tiny thresholds can be satisfied by round-0 coverage alone).
        prop_assume!(!memo.is_empty());

        let hits_before = memo.hits();
        let second = shared_plan(&circuit, seed, threshold, &memo);
        prop_assert_eq!(&second, &expected);
        prop_assert!(
            memo.hits() > hits_before,
            "identical circuit re-optimized without a single shared-memo hit"
        );
    }
}
