//! Cross-crate integration of the ATPG with the generator suite and the
//! fault simulator.

use krishnamurthy_tpi::atpg::{redundancy, topoff, Podem, PodemConfig, PodemResult};
use krishnamurthy_tpi::gen::{benchmarks, rpr};
use krishnamurthy_tpi::sim::{montecarlo, FaultUniverse, RandomPatterns};

/// Every collapsed `c17` fault gets a cube, and the cube set verified by
/// fault simulation reaches 100%.
#[test]
fn c17_full_deterministic_test_set() {
    let c = benchmarks::c17().unwrap();
    let universe = FaultUniverse::collapsed(&c).unwrap();
    let result = topoff::generate(&c, universe.faults(), PodemConfig::default(), 1).unwrap();
    assert!(result.redundant.is_empty(), "c17 has no redundant faults");
    assert!(result.uncovered.is_empty());
    let detected = topoff::verify_cubes(&c, universe.faults(), &result.cubes, 1).unwrap();
    assert_eq!(detected, universe.len());
    // The classic result: c17 needs only a handful of deterministic
    // patterns.
    assert!(result.cubes.len() <= 10, "{} cubes", result.cubes.len());
}

/// PODEM verdicts agree with exhaustive detectability on every suite
/// circuit small enough to enumerate.
#[test]
fn podem_agrees_with_exhaustive_on_small_suite_circuits() {
    for entry in krishnamurthy_tpi::gen::suite::standard_suite().unwrap() {
        let c = &entry.circuit;
        if c.inputs().len() > 14 {
            continue;
        }
        let universe = FaultUniverse::collapsed(c).unwrap();
        let probs = montecarlo::exact_detection_probabilities(c, universe.faults()).unwrap();
        let mut podem = Podem::new(c).unwrap();
        for (i, &fault) in universe.faults().iter().enumerate() {
            match podem.generate(fault).unwrap() {
                PodemResult::Test(_) => {
                    assert!(probs[i] > 0.0, "{}: {}", entry.name, fault.describe(c))
                }
                PodemResult::Untestable => {
                    assert_eq!(probs[i], 0.0, "{}: {}", entry.name, fault.describe(c))
                }
                PodemResult::Aborted => {} // allowed, just unproven
            }
        }
    }
}

/// The redundancy sweep plus a long random session plus top-off covers
/// every testable fault of a resistant circuit.
#[test]
fn flow_reaches_complete_coverage_of_testable_faults() {
    let c = rpr::and_tree(18, 3).unwrap();
    let universe = FaultUniverse::collapsed(&c).unwrap();
    let sweep = redundancy::sweep(&c, universe.faults(), PodemConfig::default()).unwrap();
    assert!(sweep.redundant.is_empty());
    let targets = sweep.targets();

    let mut src = RandomPatterns::new(c.inputs().len(), 3);
    let leftovers = topoff::undetected_after(&c, &targets, &mut src, 4_000).unwrap();
    assert!(
        !leftovers.is_empty(),
        "an 18-wide cone must resist 4k patterns"
    );

    let top = topoff::generate(&c, &leftovers, PodemConfig::default(), 3).unwrap();
    assert!(top.uncovered.is_empty());
    let detected = topoff::verify_cubes(&c, &leftovers, &top.cubes, 3).unwrap();
    assert_eq!(detected, leftovers.len());
    // AND-cone SA1 cubes each pin a different input to 0, so they cannot
    // merge — the seed count tracks the cube count here. (This is exactly
    // the case where a single OR-type control point beats reseeding.)
    assert!(top.seed_count() <= top.cubes.len());
    assert!(top.cubes.len() <= leftovers.len());
}

/// Cube care-bit economy: on mux-style circuits PODEM cubes leave many
/// inputs as don't-cares (what makes seed compression work). Comparators
/// are the opposite extreme — every input participates — so the test uses
/// a mux tree.
#[test]
fn cubes_are_mostly_dont_cares() {
    let c = rpr::mux_tree(3).unwrap();
    let universe = FaultUniverse::collapsed(&c).unwrap();
    let mut podem = Podem::new(&c).unwrap();
    let mut total_bits = 0usize;
    let mut care_bits = 0usize;
    for &fault in universe.faults().iter().take(40) {
        if let PodemResult::Test(cube) = podem.generate(fault).unwrap() {
            total_bits += cube.values().len();
            care_bits += cube.care_bits();
        }
    }
    assert!(total_bits > 0);
    let density = care_bits as f64 / total_bits as f64;
    assert!(density < 0.75, "care-bit density {density}");
}

/// Byte-identity across `--threads`: the top-off flow — leftover faults
/// from a *parallel* dropping fault simulation, fed to PODEM and the
/// greedy packer — produces the exact same cubes and stored seeds at
/// every worker count. The parallel simulator is bit-identical to the
/// sequential one, leftovers come back in fault-universe order, and
/// `pack_cubes` sorts by fault index, so no stage can leak scheduling
/// order into the pattern set.
#[test]
fn topoff_output_is_byte_identical_across_thread_counts() {
    use krishnamurthy_tpi::sim::parallel::run_parallel_controlled;
    use krishnamurthy_tpi::sim::{RunControl, SimOptions};

    for circuit in [rpr::and_tree(12, 2).unwrap(), rpr::bus_match(6).unwrap()] {
        let universe = FaultUniverse::collapsed(&circuit).unwrap();
        let n_inputs = circuit.inputs().len();
        let mut reference: Option<(Vec<String>, Vec<String>)> = None;
        for threads in [1usize, 2, 4] {
            let sim = run_parallel_controlled(
                &circuit,
                || RandomPatterns::new(n_inputs, 11),
                256,
                universe.faults(),
                threads,
                SimOptions::default(),
                &RunControl::unlimited(),
            )
            .unwrap()
            .result;
            let leftovers: Vec<_> = sim
                .undetected_indices()
                .into_iter()
                .map(|i| universe.faults()[i])
                .collect();
            assert!(
                !leftovers.is_empty(),
                "suite circuits must resist 256 patterns"
            );
            let top = topoff::generate(&circuit, &leftovers, PodemConfig::default(), 7).unwrap();
            let cubes: Vec<String> = top.cubes.iter().map(|c| c.to_pattern_string()).collect();
            let seeds: Vec<String> = top.merged.iter().map(|c| c.to_pattern_string()).collect();
            match &reference {
                None => reference = Some((cubes, seeds)),
                Some((ref_cubes, ref_seeds)) => {
                    assert_eq!(ref_cubes, &cubes, "{threads} threads: cube set diverged");
                    assert_eq!(
                        ref_seeds, &seeds,
                        "{threads} threads: packed seeds diverged"
                    );
                }
            }
        }
    }
}
