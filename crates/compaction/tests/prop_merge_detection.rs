//! Property: merging two *compatible* test cubes never loses detection.
//!
//! This is the soundness premise of the whole pattern-count objective —
//! the packer may fold any pair of compatible cubes into one stored
//! pattern precisely because the merged cube (union of care bits) still
//! detects **both** target faults under *any* don't-care fill. We check
//! it the hard way: fill the merged cube pseudo-randomly, push the
//! single resulting pattern through the fault simulator, and assert both
//! targets report detected — across random DAGs and the generated
//! random-pattern-resistant suite, fault-sim block widths W ∈ {1, 4},
//! and both detection modes.

use proptest::prelude::*;
use tpi_atpg::TestCube;
use tpi_compaction::{CubeConfig, CubeSet};
use tpi_gen::dags::{random_dag, RandomDagConfig};
use tpi_gen::rpr;
use tpi_netlist::Circuit;
use tpi_sim::{DetectionMode, Fault, FaultSimulator, PatternSource, RunControl, SimOptions};

/// A [`PatternSource`] replaying one fixed pattern (mirror of the
/// private helper `topoff` verifies cubes with).
struct OnePattern {
    words: Vec<u64>,
    done: bool,
}

impl OnePattern {
    fn new(pattern: &[bool]) -> OnePattern {
        OnePattern {
            words: pattern.iter().map(|&b| u64::from(b)).collect(),
            done: false,
        }
    }
}

impl PatternSource for OnePattern {
    fn fill(&mut self, words: &mut [u64]) -> usize {
        if self.done {
            return 0;
        }
        words.copy_from_slice(&self.words);
        self.done = true;
        1
    }

    fn reset(&mut self) {
        self.done = false;
    }
}

/// xorshift64* — deterministic don't-care fill stream.
fn fill_stream(mut state: u64) -> impl FnMut() -> bool {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 1
    }
}

/// Every compatible cube pair in `set`, merged and simulated as one
/// filled pattern: both target faults must be detected.
fn check_all_compatible_pairs(
    circuit: &Circuit,
    set: &CubeSet,
    block_words: usize,
    detection: DetectionMode,
    fill_seed: u64,
) {
    let options = SimOptions {
        block_words,
        detection,
        ..SimOptions::default()
    };
    let mut checked = 0usize;
    for i in 0..set.cubes.len() {
        for j in (i + 1)..set.cubes.len() {
            if !set.cubes[i].compatible(&set.cubes[j]) {
                continue;
            }
            let merged: TestCube = set.cubes[i].merged(&set.cubes[j]);
            let pattern = merged.filled_with(fill_stream(fill_seed | 1));
            let targets: [Fault; 2] = [set.targets[i], set.targets[j]];
            let mut sim = FaultSimulator::with_options(circuit, options).expect("acyclic circuit");
            let mut source = OnePattern::new(&pattern);
            let result = sim
                .run(&mut source, 1, &targets)
                .expect("single-pattern fault sim");
            for (k, fault) in targets.iter().enumerate() {
                assert!(
                    result.first_detection(k).is_some(),
                    "merged cube lost detection of {fault:?} \
                     (cubes {i} [{}] + {j} [{}] -> [{}], W={block_words}, {detection:?})",
                    set.cubes[i].to_pattern_string(),
                    set.cubes[j].to_pattern_string(),
                    merged.to_pattern_string(),
                );
            }
            checked += 1;
        }
    }
    // The premise must actually be exercised: the suite circuits all
    // pack at least one pair.
    assert!(checked > 0 || set.cubes.len() < 2 || set.patterns() == set.len());
}

fn cube_set(circuit: &Circuit) -> CubeSet {
    let universe = tpi_sim::FaultUniverse::collapsed(circuit).expect("acyclic circuit");
    CubeSet::generate(
        circuit,
        universe.faults(),
        &CubeConfig::default(),
        &RunControl::unlimited(),
    )
    .expect("cube generation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random DAGs: every compatible pair's merge detects both targets,
    /// for W ∈ {1, 4} × both detection modes.
    #[test]
    fn merging_compatible_cubes_never_loses_detection(
        seed in 0u64..500,
        gates in 12usize..40,
        wide in any::<bool>(),
        explicit in any::<bool>(),
        fill_seed in 1u64..1_000,
    ) {
        let block_words = if wide { 4 } else { 1 };
        let detection = if explicit {
            DetectionMode::Explicit
        } else {
            DetectionMode::CriticalPathTracing
        };
        let circuit = random_dag(&RandomDagConfig::new(6, gates, seed))
            .expect("valid dag config");
        let set = cube_set(&circuit);
        check_all_compatible_pairs(&circuit, &set, block_words, detection, fill_seed);
    }
}

/// The generated RPR suite — the circuits the patterns objective is
/// accepted on — under all four (W, mode) combinations.
#[test]
fn rpr_suite_merges_preserve_detection_in_every_sim_configuration() {
    let suite = [
        rpr::and_tree(8, 1).unwrap(),
        rpr::comparator(4).unwrap(),
        rpr::bus_match(4).unwrap(),
    ];
    for circuit in &suite {
        let set = cube_set(circuit);
        for block_words in [1usize, 4] {
            for detection in [DetectionMode::Explicit, DetectionMode::CriticalPathTracing] {
                check_all_compatible_pairs(circuit, &set, block_words, detection, 7);
            }
        }
    }
}
