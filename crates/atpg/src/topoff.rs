//! Top-off cube generation: deterministic coverage of the faults a
//! random-pattern (plus TPI) session leaves behind.
//!
//! When a handful of hard faults would each need their own test point,
//! the economical alternative is *reseeding*: generate one deterministic
//! cube per remaining fault, merge compatible cubes, and store them as
//! LFSR seeds. This module answers the flow's final question — **how many
//! cubes/seeds does 100% need?** — with fault-simulation-based dropping so
//! cubes that fortuitously catch several faults are counted once.
//!
//! The same generator builds the pattern-count objective's cube sets
//! (`tpi-compaction`), whose probes regenerate a set after one test
//! point. A probe hands [`generate_controlled`] the faults the circuit
//! before the point proved redundant ([`PriorRedundancy`]): those whose
//! verdict carries over unchanged are recorded as redundant at their
//! turn without a PODEM search, and the others are searched with the
//! X-path check aimed at the outputs the point can newly affect. The
//! result equals a plain run, except that a search the plain run aborts
//! may end in a verdict.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpi_netlist::{Circuit, NetlistError};
use tpi_sim::{Fault, FaultSimulator, PatternSource, RunControl, StopReason};

use crate::{Aim, AtpgCounters, Podem, PodemConfig, PodemResult, TestCube};

/// The faults the circuit before one test point proved redundant, as a
/// probe hands them to [`generate_controlled`], split by whether the
/// point can overturn their verdict.
#[derive(Clone, Debug, Default)]
pub struct PriorRedundancy {
    /// Faults whose verdict carries: each is recorded as redundant at
    /// its turn without a PODEM search.
    pub carried: Vec<Fault>,
    /// Faults whose verdict the point may overturn: each is searched
    /// with [`Podem::generate_aimed`] at [`aim`](PriorRedundancy::aim).
    pub rechecked: Vec<Fault>,
    /// Where the point can newly expose a fault of
    /// [`rechecked`](PriorRedundancy::rechecked).
    pub aim: Aim,
}

/// Result of a top-off run.
#[derive(Clone, Debug)]
pub struct TopoffResult {
    /// The generated cube set, in generation order.
    pub cubes: Vec<TestCube>,
    /// The fault each cube was generated for, aligned with
    /// [`cubes`](TopoffResult::cubes). The canonical packing key: the
    /// merged set is first-fit over cubes sorted by this fault, so the
    /// stored-seed set is independent of the caller's fault order.
    pub targets: Vec<Fault>,
    /// The cube set after greedy compatibility merging (the stored-seed
    /// count), packed by [`pack_cubes`].
    pub merged: Vec<TestCube>,
    /// Faults proven redundant along the way.
    pub redundant: Vec<Fault>,
    /// Faults left uncovered (ATPG aborts, plus every fault not yet
    /// processed when a [`RunControl`] token stopped the run).
    pub uncovered: Vec<Fault>,
    /// `Some` when a [`RunControl`] token stopped the run early; the
    /// cubes generated so far are still valid (an anytime result).
    pub interrupted: Option<StopReason>,
    /// What the run did (`atpg.*` observability family).
    pub counters: AtpgCounters,
}

impl TopoffResult {
    /// Number of seeds a reseeding scheme would store.
    pub fn seed_count(&self) -> usize {
        self.merged.len()
    }
}

/// Generate a top-off cube set for `faults` on `circuit`.
///
/// The next target is always the first fault of the remaining list,
/// which starts as `faults`. After each generated cube, the remaining
/// faults are fault-simulated against the cube (don't-cares filled
/// pseudo-randomly from `seed`) and fortuitous detections are dropped.
/// Every drop — a detection, a redundancy proof or an abort — is a
/// `swap_remove`: the list's last fault takes the dropped fault's slot.
/// So after the first target the processing order is not the given
/// order (the next target is usually the last fault still remaining),
/// but it is a deterministic function of it.
///
/// # Errors
///
/// [`NetlistError::Cycle`] for cyclic circuits.
pub fn generate(
    circuit: &Circuit,
    faults: &[Fault],
    config: PodemConfig,
    seed: u64,
) -> Result<TopoffResult, NetlistError> {
    generate_controlled(
        circuit,
        faults,
        config,
        seed,
        &RunControl::unlimited(),
        &PriorRedundancy::default(),
    )
}

/// [`generate`] under a [`RunControl`] token, polled once per target
/// fault (one PODEM search plus one drop simulation per poll). On
/// interruption the cubes generated so far are returned as an anytime
/// result, the remaining faults are reported in
/// [`TopoffResult::uncovered`], and
/// [`TopoffResult::interrupted`] records the reason.
///
/// A target listed in `prior.carried` is recorded as redundant at its
/// turn without a PODEM search and counted in
/// [`AtpgCounters::redundant_carried`]; one listed in `prior.rechecked`
/// is searched with [`Podem::generate_aimed`] at `prior.aim` and counted
/// in [`AtpgCounters::redundant_rechecked`]. The caller vouches that
/// PODEM under `config` would prove each carried fault untestable on
/// `circuit`, and that every test of a rechecked fault has an X-path to
/// an aim output that avoids the aim's blocked line. Then the result
/// equals that of an empty `prior`, counters aside, except that a
/// rechecked fault the plain search aborts may get a verdict.
///
/// # Errors
///
/// [`NetlistError::Cycle`] for cyclic circuits.
pub fn generate_controlled(
    circuit: &Circuit,
    faults: &[Fault],
    config: PodemConfig,
    seed: u64,
    control: &RunControl,
    prior: &PriorRedundancy,
) -> Result<TopoffResult, NetlistError> {
    let mut carried = prior.carried.clone();
    carried.sort_unstable();
    let mut rechecked = prior.rechecked.clone();
    rechecked.sort_unstable();
    let mut podem = Podem::with_config(circuit, config)?;
    let mut sim = FaultSimulator::new(circuit)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<Fault> = faults.to_vec();
    let mut cubes = Vec::new();
    let mut targets = Vec::new();
    let mut redundant = Vec::new();
    let mut uncovered = Vec::new();
    let mut interrupted = None;
    let mut counters = AtpgCounters::default();

    while let Some(&fault) = remaining.first() {
        interrupted = control.poll();
        if interrupted.is_some() {
            uncovered.extend(remaining.iter().copied());
            break;
        }
        let outcome = if carried.binary_search(&fault).is_ok() {
            counters.redundant_carried += 1;
            PodemResult::Untestable
        } else {
            let outcome = if rechecked.binary_search(&fault).is_ok() {
                counters.redundant_rechecked += 1;
                podem.generate_aimed(fault, &prior.aim)?
            } else {
                podem.generate(fault)?
            };
            counters.record_search(&podem);
            outcome
        };
        match outcome {
            PodemResult::Test(cube) => {
                let pattern = cube.filled_with(|| rng.gen());
                let mut source = OnePattern::new(&pattern);
                let result = sim.run(&mut source, 1, &remaining)?;
                let detected: Vec<usize> = (0..remaining.len())
                    .filter(|&i| result.first_detection(i).is_some())
                    .collect();
                debug_assert!(
                    detected.contains(&0),
                    "generated cube must detect its own fault"
                );
                counters.fortuitous_drops += detected.len().saturating_sub(1) as u64;
                // Drop detected faults (descending index keeps positions
                // valid).
                for &i in detected.iter().rev() {
                    remaining.swap_remove(i);
                }
                cubes.push(cube);
                targets.push(fault);
                counters.cubes_generated += 1;
            }
            PodemResult::Untestable => {
                redundant.push(fault);
                remaining.swap_remove(0);
                counters.redundant_faults += 1;
            }
            PodemResult::Aborted => {
                uncovered.push(fault);
                remaining.swap_remove(0);
                counters.aborted_faults += 1;
            }
        }
    }

    let pairs: Vec<(Fault, TestCube)> =
        targets.iter().copied().zip(cubes.iter().cloned()).collect();
    let merged = pack_cubes(&pairs);
    Ok(TopoffResult {
        cubes,
        targets,
        merged,
        redundant,
        uncovered,
        interrupted,
        counters,
    })
}

/// Greedy first-fit packing of compatible cubes into stored seeds — the
/// repo's canonical cube-compaction step, shared with the pattern-count
/// TPI objective (`tpi-compaction`).
///
/// The cubes are first sorted by their target fault ([`Fault`]'s total
/// order: site, then stuck value), so the packed set depends only on
/// *which* (fault, cube) pairs exist — never on the caller's iteration
/// order, hash order or thread count.
pub fn pack_cubes(pairs: &[(Fault, TestCube)]) -> Vec<TestCube> {
    let mut sorted: Vec<&(Fault, TestCube)> = pairs.iter().collect();
    sorted.sort_by_key(|pair| pair.0);
    let mut merged: Vec<TestCube> = Vec::new();
    for (_, cube) in sorted {
        match merged.iter_mut().find(|m| m.compatible(cube)) {
            Some(slot) => *slot = slot.merged(cube),
            None => merged.push(cube.clone()),
        }
    }
    merged
}

/// A [`PatternSource`] replaying one fixed pattern (for cube
/// verification).
struct OnePattern {
    words: Vec<u64>,
    done: bool,
}

impl OnePattern {
    fn new(pattern: &[bool]) -> OnePattern {
        OnePattern {
            words: pattern.iter().map(|&b| if b { 1 } else { 0 }).collect(),
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

/// Convenience: the faults of `faults` still undetected after `n_random`
/// exhaustive-or-random patterns — the usual input to [`generate`].
///
/// # Errors
///
/// [`NetlistError::Cycle`] for cyclic circuits.
pub fn undetected_after(
    circuit: &Circuit,
    faults: &[Fault],
    source: &mut dyn PatternSource,
    n_patterns: u64,
) -> Result<Vec<Fault>, NetlistError> {
    let mut sim = FaultSimulator::new(circuit)?;
    let result = sim.run(source, n_patterns, faults)?;
    Ok(result
        .undetected_indices()
        .into_iter()
        .map(|i| faults[i])
        .collect())
}

/// Sanity helper for tests: do the cubes, replayed verbatim, detect every
/// covered fault?
///
/// # Errors
///
/// [`NetlistError::Cycle`] for cyclic circuits.
pub fn verify_cubes(
    circuit: &Circuit,
    faults: &[Fault],
    cubes: &[TestCube],
    fill_seed: u64,
) -> Result<usize, NetlistError> {
    let mut sim = FaultSimulator::new(circuit)?;
    let mut rng = StdRng::seed_from_u64(fill_seed);
    let mut detected = vec![false; faults.len()];
    for cube in cubes {
        let pattern = cube.filled_with(|| rng.gen());
        let mut source = OnePattern::new(&pattern);
        let result = sim.run(&mut source, 1, faults)?;
        for (i, slot) in detected.iter_mut().enumerate() {
            if result.first_detection(i).is_some() {
                *slot = true;
            }
        }
    }
    Ok(detected.iter().filter(|&&d| d).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind};
    use tpi_sim::{FaultUniverse, RandomPatterns};

    fn resistant_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("hard");
        let xs = b.inputs(16, "x");
        let cone = b.balanced_tree(GateKind::And, &xs[..12], "c").unwrap();
        let tail = b.balanced_tree(GateKind::Or, &xs[12..], "t").unwrap();
        let y = b.gate(GateKind::Or, vec![cone, tail], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn topoff_covers_the_random_resistant_remainder() {
        let c = resistant_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let mut src = RandomPatterns::new(16, 5);
        let leftovers = undetected_after(&c, universe.faults(), &mut src, 2_000).unwrap();
        assert!(
            !leftovers.is_empty(),
            "the cone must resist 2k random patterns"
        );
        let result = generate(&c, &leftovers, PodemConfig::default(), 9).unwrap();
        assert!(result.uncovered.is_empty());
        assert!(result.redundant.is_empty());
        assert!(!result.cubes.is_empty());
        // Merged seeds never exceed raw cubes.
        assert!(result.seed_count() <= result.cubes.len());
        // And a replay detects every leftover fault.
        let detected = verify_cubes(&c, &leftovers, &result.cubes, 9).unwrap();
        assert_eq!(detected, leftovers.len());
    }

    #[test]
    fn fortuitous_detection_reduces_cube_count() {
        // All faults of an AND cone share the "all ones" test: one cube
        // should cover many.
        let mut b = CircuitBuilder::new("cone");
        let xs = b.inputs(8, "x");
        let y = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let result = generate(&c, universe.faults(), PodemConfig::default(), 3).unwrap();
        assert!(
            result.cubes.len() < universe.len(),
            "{} cubes for {} faults",
            result.cubes.len(),
            universe.len()
        );
    }

    #[test]
    fn redundant_faults_are_reported_not_covered() {
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let y = b.gate(GateKind::Or, vec![x, nx], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let result = generate(
            &c,
            &[Fault::stem_sa1(y), Fault::stem_sa0(y)],
            PodemConfig::default(),
            1,
        )
        .unwrap();
        assert_eq!(result.redundant, vec![Fault::stem_sa1(y)]);
        assert_eq!(result.cubes.len(), 1);
    }

    #[test]
    fn carried_verdicts_skip_the_search_and_keep_the_result() {
        // y = OR(x, NOT(x)) ≡ 1 beside an AND cone: y masks every fault
        // of x, NOT(x) and y/SA1.
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let y = b.gate(GateKind::Or, vec![x, nx], "y").unwrap();
        let xs = b.inputs(4, "a");
        let z = b.balanced_tree(GateKind::And, &xs, "z").unwrap();
        b.output(y);
        b.output(z);
        let c = b.finish().unwrap();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let control = RunControl::unlimited();
        let config = PodemConfig::default();
        let none = PriorRedundancy::default();
        let fresh = generate_controlled(&c, universe.faults(), config, 4, &control, &none).unwrap();
        assert_eq!(fresh.redundant.len(), 3);
        let prior = PriorRedundancy {
            carried: fresh.redundant.clone(),
            ..PriorRedundancy::default()
        };
        let carried =
            generate_controlled(&c, universe.faults(), config, 4, &control, &prior).unwrap();
        assert_eq!(carried.cubes, fresh.cubes);
        assert_eq!(carried.targets, fresh.targets);
        assert_eq!(carried.merged, fresh.merged);
        assert_eq!(carried.redundant, fresh.redundant);
        assert_eq!(carried.uncovered, fresh.uncovered);
        assert_eq!(fresh.counters.redundant_carried, 0);
        assert_eq!(fresh.counters.redundant_rechecked, 0);
        assert_eq!(carried.counters.redundant_carried, 3);
        assert_eq!(carried.counters.redundant_faults, 3);
        assert!(carried.counters.decisions < fresh.counters.decisions);
    }

    #[test]
    fn cancelled_topoff_returns_generated_cubes_and_remaining_faults() {
        let c = resistant_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let result = generate_controlled(
            &c,
            universe.faults(),
            PodemConfig::default(),
            9,
            &control,
            &PriorRedundancy::default(),
        )
        .unwrap();
        assert_eq!(result.interrupted, Some(StopReason::Cancelled));
        assert!(result.cubes.is_empty());
        assert_eq!(result.uncovered.len(), universe.len());
    }

    #[test]
    fn merging_is_sound() {
        use tpi_netlist::NodeId;
        let fault = |i: usize| Fault::stem_sa0(NodeId::from_index(i));
        let a = TestCube::new(vec![
            crate::Ternary::One,
            crate::Ternary::X,
            crate::Ternary::X,
        ]);
        let b = TestCube::new(vec![
            crate::Ternary::X,
            crate::Ternary::Zero,
            crate::Ternary::X,
        ]);
        let c = TestCube::new(vec![
            crate::Ternary::Zero,
            crate::Ternary::X,
            crate::Ternary::X,
        ]);
        let merged = pack_cubes(&[(fault(0), a), (fault(1), b), (fault(2), c)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].to_pattern_string(), "10X");
    }

    #[test]
    fn packing_is_independent_of_pair_order() {
        use tpi_netlist::NodeId;
        // A deliberately awkward set: packing in different input orders
        // first-fits differently, so only the canonical sort keeps the
        // output stable.
        let t = |s: &str| {
            TestCube::new(
                s.chars()
                    .map(|c| match c {
                        '0' => crate::Ternary::Zero,
                        '1' => crate::Ternary::One,
                        _ => crate::Ternary::X,
                    })
                    .collect(),
            )
        };
        let pairs: Vec<(Fault, TestCube)> = [
            ("1XX0", false),
            ("X1X1", false),
            ("0XXX", true),
            ("XX1X", true),
            ("X0XX", false),
        ]
        .iter()
        .enumerate()
        .map(|(i, (s, stuck))| {
            let node = NodeId::from_index(i);
            let fault = if *stuck {
                Fault::stem_sa1(node)
            } else {
                Fault::stem_sa0(node)
            };
            (fault, t(s))
        })
        .collect();
        let reference = pack_cubes(&pairs);
        let mut reversed = pairs.clone();
        reversed.reverse();
        let mut rotated = pairs.clone();
        rotated.rotate_left(2);
        for shuffled in [&reversed, &rotated] {
            let packed = pack_cubes(shuffled);
            let a: Vec<String> = reference.iter().map(TestCube::to_pattern_string).collect();
            let b: Vec<String> = packed.iter().map(TestCube::to_pattern_string).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn counters_record_generation_work() {
        let c = resistant_circuit();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let result = generate(&c, universe.faults(), PodemConfig::default(), 9).unwrap();
        assert_eq!(result.counters.cubes_generated as usize, result.cubes.len());
        assert_eq!(result.targets.len(), result.cubes.len());
        assert_eq!(
            result.counters.redundant_faults as usize,
            result.redundant.len()
        );
        // Without constant nets every cube needs at least one decision,
        // and every search starts with a sweep of the whole circuit.
        assert!(result.counters.decisions >= result.cubes.len() as u64);
        assert!(result.counters.implications > result.counters.decisions);
        // Every fault not covered by its own cube was a fortuitous drop.
        assert_eq!(
            result.counters.fortuitous_drops as usize,
            universe.len() - result.cubes.len() - result.redundant.len() - result.uncovered.len()
        );
    }
}
