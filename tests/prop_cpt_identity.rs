//! Property tests pinning critical-path-tracing detection to the
//! explicit event-driven mode, bit for bit, across widths and threads.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dropping runs: first-detection indices, applied-pattern counts and
    /// coverage are identical between CPT and explicit mode on random
    /// reconvergent DAGs, for every (width, threads) combination.
    #[test]
    fn cpt_run_is_bit_identical(seed in 0u64..5000, gates in 5usize..40) {
        let c = small_dag(seed, 6, gates);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let n_inputs = c.inputs().len();
        for w in [1usize, 4] {
            for threads in [1usize, 3] {
                let explicit = run_parallel_controlled(
                    &c,
                    || RandomPatterns::new(n_inputs, seed ^ 0xc0de),
                    400,
                    universe.faults(),
                    threads,
                    opts(DetectionMode::Explicit, w),
                    &RunControl::unlimited(),
                ).unwrap().result;
                let cpt = run_parallel_controlled(
                    &c,
                    || RandomPatterns::new(n_inputs, seed ^ 0xc0de),
                    400,
                    universe.faults(),
                    threads,
                    opts(DetectionMode::CriticalPathTracing, w),
                    &RunControl::unlimited(),
                ).unwrap().result;
                prop_assert_eq!(
                    cpt.patterns_applied(), explicit.patterns_applied(),
                    "patterns w={} threads={}", w, threads
                );
                prop_assert_eq!(
                    cpt.coverage(), explicit.coverage(),
                    "coverage w={} threads={}", w, threads
                );
                for i in 0..universe.len() {
                    prop_assert_eq!(
                        cpt.first_detection(i),
                        explicit.first_detection(i),
                        "fault {} w={} threads={}",
                        universe.faults()[i].describe(&c), w, threads
                    );
                }
            }
        }
    }

    /// Counting runs (no dropping): per-fault detection counts are
    /// identical between the modes, on the *uncollapsed* universe so
    /// every branch fault is exercised too.
    #[test]
    fn cpt_counts_are_bit_identical(seed in 0u64..5000, gates in 5usize..30) {
        let c = small_dag(seed, 5, gates);
        let universe = FaultUniverse::full(&c).unwrap();
        let n_inputs = c.inputs().len();
        for w in [1usize, 4] {
            let mut sim = FaultSimulator::with_options(&c, opts(DetectionMode::Explicit, w)).unwrap();
            let mut src = RandomPatterns::new(n_inputs, seed ^ 0xfeed);
            let (counts_ref, n_ref) = sim.run_counting(&mut src, 320, universe.faults()).unwrap();
            let mut sim = FaultSimulator::with_options(
                &c, opts(DetectionMode::CriticalPathTracing, w),
            ).unwrap();
            let mut src = RandomPatterns::new(n_inputs, seed ^ 0xfeed);
            let (counts, n) = sim.run_counting(&mut src, 320, universe.faults()).unwrap();
            prop_assert_eq!(n, n_ref, "w={}", w);
            prop_assert_eq!(counts, counts_ref, "w={}", w);
        }
    }
}
