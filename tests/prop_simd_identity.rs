//! Property tests pinning the word-parallel fault-simulation kernels to
//! their one-word form and the parallel scheduler to the sequential
//! simulator, bit for bit.
//!
//! Every pattern is one bit lane of a 64-bit word, and a block carries
//! W words per node. The W=1 kernel is the oracle: at W=2, 4 and 8 the
//! first-detection indices, applied-pattern counts and per-fault
//! detection counts must match it exactly, in both detection modes.
//! The work-stealing scheduler must match the sequential run at every
//! thread count.

use proptest::prelude::*;

use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::Circuit;
use krishnamurthy_tpi::sim::parallel::run_parallel_controlled;
use krishnamurthy_tpi::sim::{
    DetectionMode, FaultSimulator, FaultUniverse, RandomPatterns, RunControl, SimOptions,
};

fn small_dag(seed: u64, inputs: usize, gates: usize) -> Circuit {
    let mut cfg = RandomDagConfig::new(inputs, gates, seed);
    cfg.locality = 0.5; // encourage fanout/reconvergence
    random_dag(&cfg).unwrap()
}

fn opts(detection: DetectionMode, block_words: usize) -> SimOptions {
    SimOptions {
        block_words,
        detection,
        ..SimOptions::default()
    }
}

const MODES: [DetectionMode; 2] = [DetectionMode::Explicit, DetectionMode::CriticalPathTracing];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dropping runs: W=2, 4 and 8 match W=1 on first detections,
    /// applied patterns and coverage, in both detection modes. 320
    /// patterns end every width on a partly masked block.
    #[test]
    fn width_runs_are_bit_identical(seed in 0u64..5000, gates in 5usize..40) {
        let c = small_dag(seed, 6, gates);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let n_inputs = c.inputs().len();
        for mode in MODES {
            let run = |w: usize| {
                let mut sim = FaultSimulator::with_options(&c, opts(mode, w)).unwrap();
                let mut src = RandomPatterns::new(n_inputs, seed ^ 0x51D);
                sim.run(&mut src, 320, universe.faults()).unwrap()
            };
            let reference = run(1);
            for w in [2usize, 4, 8] {
                let wide = run(w);
                prop_assert_eq!(
                    reference.patterns_applied(), wide.patterns_applied(),
                    "patterns {:?} w={}", mode, w
                );
                prop_assert_eq!(
                    reference.coverage(), wide.coverage(),
                    "coverage {:?} w={}", mode, w
                );
                for i in 0..universe.len() {
                    prop_assert_eq!(
                        reference.first_detection(i), wide.first_detection(i),
                        "fault {} {:?} w={}", universe.faults()[i].describe(&c), mode, w
                    );
                }
            }
        }
    }

    /// Counting runs (no dropping) on the uncollapsed universe: W=2, 4
    /// and 8 match W=1 on per-fault detection counts and applied
    /// patterns, in both detection modes.
    #[test]
    fn width_counts_are_bit_identical(seed in 0u64..5000, gates in 5usize..30) {
        let c = small_dag(seed, 5, gates);
        let universe = FaultUniverse::full(&c).unwrap();
        let n_inputs = c.inputs().len();
        for mode in MODES {
            let count = |w: usize| {
                let mut sim = FaultSimulator::with_options(&c, opts(mode, w)).unwrap();
                let mut src = RandomPatterns::new(n_inputs, seed ^ 0xABCD);
                sim.run_counting(&mut src, 256, universe.faults()).unwrap()
            };
            let (counts_ref, n_ref) = count(1);
            for w in [2usize, 4, 8] {
                let (counts, n) = count(w);
                prop_assert_eq!(n, n_ref, "{:?} w={}", mode, w);
                prop_assert_eq!(&counts, &counts_ref, "{:?} w={}", mode, w);
            }
        }
    }

    /// Scheduler invariance: the work-stealing scheduler, run twice,
    /// produces results bit-identical to the sequential simulator —
    /// fault partitioning, stealing order and thread count must never
    /// leak into detections.
    #[test]
    fn schedulers_are_bit_identical(seed in 0u64..5000, gates in 5usize..40) {
        let c = small_dag(seed, 6, gates);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let n_inputs = c.inputs().len();
        let options = || opts(DetectionMode::CriticalPathTracing, 0);
        let mut sim = FaultSimulator::with_options(&c, options()).unwrap();
        let mut src = RandomPatterns::new(n_inputs, seed ^ 0xBEEF);
        let reference = sim.run(&mut src, 320, universe.faults()).unwrap();
        for threads in [2usize, 3, 8] {
            let stealing = run_parallel_controlled(
                &c,
                || RandomPatterns::new(n_inputs, seed ^ 0xBEEF),
                320,
                universe.faults(),
                threads,
                options(),
                &RunControl::unlimited(),
            ).unwrap().result;
            let again = run_parallel_controlled(
                &c,
                || RandomPatterns::new(n_inputs, seed ^ 0xBEEF),
                320,
                universe.faults(),
                threads,
                options(),
                &RunControl::unlimited(),
            ).unwrap().result;
            for parallel in [&stealing, &again] {
                prop_assert_eq!(
                    reference.patterns_applied(), parallel.patterns_applied(),
                    "patterns threads={}", threads
                );
                for i in 0..universe.len() {
                    prop_assert_eq!(
                        reference.first_detection(i), parallel.first_detection(i),
                        "fault {} threads={}",
                        universe.faults()[i].describe(&c), threads
                    );
                }
            }
        }
    }
}
