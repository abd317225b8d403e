//! The deterministic test set of a circuit, as the compaction subsystem
//! sees it: one PODEM cube per surviving collapsed fault, packed into
//! stored patterns by the canonical top-off packer.

use tpi_atpg::topoff::{self, TopoffResult};
use tpi_atpg::{AtpgCounters, PodemConfig, TestCube};
use tpi_netlist::{Circuit, NetlistError};
use tpi_sim::{Fault, RunControl, StopReason};

/// Tuning for cube-set generation.
#[derive(Clone, Debug)]
pub struct CubeConfig {
    /// PODEM search limits.
    pub podem: PodemConfig,
    /// Seed for the pseudo-random don't-care fill of the per-cube drop
    /// simulation (the same role as [`tpi_atpg::topoff::generate`]'s
    /// `seed`; fixed ⇒ the cube set is a pure function of the circuit
    /// and fault list).
    pub fill_seed: u64,
}

impl Default for CubeConfig {
    fn default() -> CubeConfig {
        CubeConfig {
            podem: PodemConfig::default(),
            fill_seed: 7,
        }
    }
}

/// A circuit's deterministic test set: cubes, their target faults, and
/// the packed (merged) pattern count.
///
/// "Pattern count" throughout the compaction subsystem means
/// [`CubeSet::patterns`]: the number of stored seeds after greedy
/// first-fit packing by [`tpi_atpg::topoff::pack_cubes`] — byte-for-byte
/// the same packer the top-off reseeding flow counts with.
#[derive(Clone, Debug)]
pub struct CubeSet {
    /// Generated cubes, in generation order.
    pub cubes: Vec<TestCube>,
    /// The fault each cube targets, aligned with
    /// [`cubes`](CubeSet::cubes).
    pub targets: Vec<Fault>,
    /// The packed pattern set.
    pub merged: Vec<TestCube>,
    /// Faults the generator could not cover (PODEM aborts; plus
    /// everything unprocessed if interrupted).
    pub uncovered: usize,
    /// Faults proven redundant (excluded from the pattern-count metric —
    /// no test set covers them).
    pub redundant: usize,
    /// Generation work counters (`atpg.*` family).
    pub counters: AtpgCounters,
    /// `Some` when a [`RunControl`] token stopped generation early; the
    /// set is then partial and its pattern count not comparable.
    pub interrupted: Option<StopReason>,
}

impl CubeSet {
    /// Generate the deterministic test set of `circuit` over `faults`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn generate(
        circuit: &Circuit,
        faults: &[Fault],
        config: &CubeConfig,
        control: &RunControl,
    ) -> Result<CubeSet, NetlistError> {
        let TopoffResult {
            cubes,
            targets,
            merged,
            redundant,
            uncovered,
            interrupted,
            counters,
        } = topoff::generate_controlled(circuit, faults, config.podem, config.fill_seed, control)?;
        Ok(CubeSet {
            cubes,
            targets,
            merged,
            uncovered: uncovered.len(),
            redundant: redundant.len(),
            counters,
            interrupted,
        })
    }

    /// The compacted pattern count (stored seeds).
    pub fn patterns(&self) -> usize {
        self.merged.len()
    }

    /// Number of raw cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the set holds no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind};
    use tpi_sim::FaultUniverse;

    fn cone(width: usize) -> Circuit {
        let mut b = CircuitBuilder::new("cone");
        let xs = b.inputs(width, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        b.finish().unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let c = cone(8);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let cfg = CubeConfig::default();
        let a = CubeSet::generate(&c, universe.faults(), &cfg, &RunControl::unlimited()).unwrap();
        let b = CubeSet::generate(&c, universe.faults(), &cfg, &RunControl::unlimited()).unwrap();
        assert_eq!(a.cubes, b.cubes);
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.targets, b.targets);
        assert!(a.patterns() <= a.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn cancelled_generation_reports_interruption() {
        let c = cone(8);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let set =
            CubeSet::generate(&c, universe.faults(), &CubeConfig::default(), &control).unwrap();
        assert!(set.interrupted.is_some());
        assert_eq!(set.uncovered, universe.len());
    }
}
