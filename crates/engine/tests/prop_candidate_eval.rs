//! Property: the batched candidate evaluator and the legacy
//! clone-and-resimulate path select **bit-identical plans**, across
//! fault-sim block widths, scoring thread counts, and both detection
//! modes — for the engine's constructive loop and the greedy analytic
//! search (at one to three scoring workers).
//!
//! This is the contract that lets `--candidate-eval batched` be the
//! default: legacy survives only as the A/B oracle this test consults.

use proptest::prelude::*;
use tpi_core::{CandidateEval, GreedyConfig, GreedyOptimizer, Threshold, TpiProblem};
use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
use tpi_gen::dags::{random_dag, RandomDagConfig};
use tpi_netlist::Circuit;
use tpi_sim::{DetectionMode, RunControl};

fn dag(inputs: usize, gates: usize, seed: u64) -> Circuit {
    random_dag(&RandomDagConfig::new(inputs, gates, seed)).expect("valid dag config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Engine sessions pick the same plan regardless of scoring path,
    /// block width, or scoring thread count.
    #[test]
    fn engine_batched_matches_legacy(
        seed in 0u64..1_000,
        gates in 40usize..100,
        width_sel in 0usize..3,
        explicit in any::<bool>(),
    ) {
        let block_words = [1usize, 4, 8][width_sel];
        let detection = if explicit {
            DetectionMode::Explicit
        } else {
            DetectionMode::CriticalPathTracing
        };
        let circuit = dag(10, gates, seed);
        let threshold = Threshold::from_log2(-7.0);
        let run = |candidate_eval: CandidateEval, score_threads: usize| {
            let mut engine = TpiEngine::new(
                circuit.clone(),
                EngineConfig {
                    patterns: 1024,
                    block_words,
                    detection,
                    candidate_eval,
                    score_threads,
                    ..EngineConfig::default()
                },
            )
            .expect("engine construction");
            engine
                .optimize(threshold, &OptimizeConfig::default())
                .expect("optimize")
                .plan
        };
        let legacy = run(CandidateEval::Legacy, 1);
        for threads in [1usize, 4, 8] {
            let batched = run(CandidateEval::Batched, threads);
            prop_assert_eq!(
                &legacy, &batched,
                "engine diverged: seed {} gates {} W {} threads {}",
                seed, gates, block_words, threads
            );
        }
    }

    /// Greedy's incremental COP probe reproduces the full-reanalysis
    /// scores bit-for-bit, so the committed plans match exactly, at every
    /// number of scoring workers. A round of `n` candidates runs at most
    /// `n / 128` workers, so three need 384 candidates: 72+ gates over 24
    /// inputs offer that many in every round (asserted below).
    #[test]
    fn greedy_batched_matches_legacy(
        seed in 0u64..1_000,
        gates in 72usize..100,
    ) {
        let circuit = dag(24, gates, seed);
        let problem =
            TpiProblem::min_cost(&circuit, Threshold::from_log2(-6.0))
                .expect("problem");
        let run = |candidate_eval: CandidateEval, threads: usize| {
            GreedyOptimizer::new(GreedyConfig {
                candidate_eval,
                threads,
                ..GreedyConfig::default()
            })
            .solve_with_stats(&problem, &RunControl::unlimited())
            .expect("solve")
        };
        let (legacy, _, legacy_stats) = run(CandidateEval::Legacy, 1);
        prop_assert!(
            legacy_stats.probes >= 3 * 128 * legacy_stats.rounds,
            "too few candidates for three workers: {:?}",
            legacy_stats
        );
        for threads in [1usize, 2, 3] {
            let (batched, _, stats) = run(CandidateEval::Batched, threads);
            prop_assert_eq!(
                &legacy, &batched,
                "greedy diverged: seed {} gates {} threads {}",
                seed, gates, threads
            );
            prop_assert_eq!(stats.probes, legacy_stats.probes);
        }
    }
}
