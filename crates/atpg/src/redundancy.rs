//! Redundancy identification: partition a fault list into testable /
//! redundant / undecided classes.
//!
//! The TPI flow runs this *first*: redundant faults can never be detected
//! — by any pattern, with any test points — so they are removed from the
//! coverage denominator and from every optimizer's target list (exactly
//! as the period papers describe: "redundant faults are first eliminated
//! using an efficient ATPG tool").

use tpi_netlist::{Circuit, NetlistError};
use tpi_sim::Fault;

use crate::{AtpgCounters, Podem, PodemConfig, PodemResult, TestCube};

/// Result of a redundancy sweep.
#[derive(Clone, Debug)]
pub struct RedundancySweep {
    /// Faults proven testable, with one witness cube each.
    pub testable: Vec<(Fault, TestCube)>,
    /// Faults proven untestable (safe to drop from all targets).
    pub redundant: Vec<Fault>,
    /// Faults on which the search aborted (keep in the target list; they
    /// may still be testable).
    pub undecided: Vec<Fault>,
    /// What the sweep's searches did (`atpg.*` observability family):
    /// one witness cube per testable fault, the redundant and aborted
    /// counts, and the summed backtracks, decisions and implications.
    pub counters: AtpgCounters,
}

impl RedundancySweep {
    /// The faults that remain legitimate TPI targets (testable +
    /// undecided).
    pub fn targets(&self) -> Vec<Fault> {
        self.testable
            .iter()
            .map(|(f, _)| *f)
            .chain(self.undecided.iter().copied())
            .collect()
    }

    /// Fraction of faults proven redundant.
    pub fn redundancy_ratio(&self) -> f64 {
        let total = self.testable.len() + self.redundant.len() + self.undecided.len();
        if total == 0 {
            0.0
        } else {
            self.redundant.len() as f64 / total as f64
        }
    }
}

/// Classify every fault in `faults` with PODEM.
///
/// # Errors
///
/// [`NetlistError::Cycle`] for cyclic circuits.
pub fn sweep(
    circuit: &Circuit,
    faults: &[Fault],
    config: PodemConfig,
) -> Result<RedundancySweep, NetlistError> {
    let mut podem = Podem::with_config(circuit, config)?;
    let mut result = RedundancySweep {
        testable: Vec::new(),
        redundant: Vec::new(),
        undecided: Vec::new(),
        counters: AtpgCounters::default(),
    };
    for &fault in faults {
        let outcome = podem.generate(fault)?;
        result.counters.record_search(&podem);
        match outcome {
            PodemResult::Test(cube) => {
                result.testable.push((fault, cube));
                result.counters.cubes_generated += 1;
            }
            PodemResult::Untestable => {
                result.redundant.push(fault);
                result.counters.redundant_faults += 1;
            }
            PodemResult::Aborted => {
                result.undecided.push(fault);
                result.counters.aborted_faults += 1;
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind};
    use tpi_sim::FaultUniverse;

    #[test]
    fn sweep_partitions_and_counts() {
        // Circuit with a known redundancy: y = AND(OR(x, nx), z) where
        // OR(x, nx) ≡ 1 — its SA1 (and the OR inputs' SA1s through
        // dominance) are untestable.
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let z = b.input("z");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let t = b.gate(GateKind::Or, vec![x, nx], "t").unwrap();
        let y = b.gate(GateKind::And, vec![t, z], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let universe = FaultUniverse::full(&c).unwrap();
        let sweep = sweep(&c, universe.faults(), PodemConfig::default()).unwrap();
        assert!(sweep.redundant.contains(&tpi_sim::Fault::stem_sa1(t)));
        assert!(sweep.undecided.is_empty());
        assert!(!sweep.testable.is_empty());
        assert!(sweep.redundancy_ratio() > 0.0 && sweep.redundancy_ratio() < 1.0);
        assert_eq!(
            sweep.targets().len(),
            universe.len() - sweep.redundant.len()
        );
        let k = sweep.counters;
        assert_eq!(k.cubes_generated as usize, sweep.testable.len());
        assert_eq!(k.redundant_faults as usize, sweep.redundant.len());
        assert_eq!(k.aborted_faults, 0);
        // Proving redundancy exhausts a decision tree.
        assert!(k.backtracks > 0 && k.decisions > k.backtracks);
        assert!(k.implications > 0);
    }

    #[test]
    fn redundancy_matches_exhaustive_ground_truth() {
        let c = {
            let mut b = CircuitBuilder::new("c");
            let xs = b.inputs(3, "x");
            let g1 = b.gate(GateKind::And, vec![xs[0], xs[1]], "g1").unwrap();
            let ng1 = b.gate(GateKind::Not, vec![g1], "ng1").unwrap();
            let g2 = b.gate(GateKind::Or, vec![g1, ng1], "g2").unwrap(); // ≡ 1
            let y = b.gate(GateKind::And, vec![g2, xs[2]], "y").unwrap();
            b.output(y);
            b.finish().unwrap()
        };
        let universe = FaultUniverse::full(&c).unwrap();
        let probs =
            tpi_sim::montecarlo::exact_detection_probabilities(&c, universe.faults()).unwrap();
        let sweep = sweep(&c, universe.faults(), PodemConfig::default()).unwrap();
        for &f in &sweep.redundant {
            let i = universe.faults().iter().position(|&g| g == f).unwrap();
            assert_eq!(probs[i], 0.0, "{} declared redundant", f.describe(&c));
        }
        for (f, _) in &sweep.testable {
            let i = universe.faults().iter().position(|&g| g == *f).unwrap();
            assert!(probs[i] > 0.0, "{} declared testable", f.describe(&c));
        }
    }
}
