//! The deterministic test set of a circuit, as the compaction subsystem
//! sees it: one PODEM cube per surviving collapsed fault, packed into
//! stored patterns by the canonical top-off packer.
//!
//! A probe ([`CubeSet::probe`]) builds the set of the circuit with one
//! more test point. It runs the same generator, except that a fault this
//! set proved redundant keeps its verdict without a new PODEM search
//! when the point changes nothing PODEM reads while it searches for
//! that fault.

use tpi_atpg::topoff::{self, TopoffResult};
use tpi_atpg::{AtpgCounters, PodemConfig, TestCube};
use tpi_netlist::analysis::dirty_line_mask;
use tpi_netlist::transform::apply_test_point;
use tpi_netlist::{Circuit, NetlistError, TestPoint, Topology};
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
    /// Faults proven redundant, in the order they were reached
    /// (excluded from the pattern-count metric — no test set covers
    /// them).
    pub redundant: Vec<Fault>,
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
        CubeSet::generate_carrying(circuit, faults, config, control, &[])
    }

    /// The cube set of `circuit` with `point` applied, over the `faults`
    /// and under the `config` that made `self` from `circuit`. `None`
    /// when the point does not apply at its line (a control or full
    /// point on a dangling line).
    ///
    /// Equal to [`CubeSet::generate`] on the probed circuit, counters
    /// aside: a fault of [`redundant`](CubeSet::redundant) whose origin
    /// (the stem, or a branch's gate) is clean in
    /// [`dirty_line_mask`] keeps its verdict without a PODEM search. For
    /// a control or full point at `v` that means FO*(origin) and
    /// FO*(`v`) are disjoint; for an observe point, that `v` is not in
    /// FO*(origin). Such a fault sees no change anywhere in
    /// FI*(FO*(origin)) — no value, SCOAP measure, fanin order or output
    /// flag — so PODEM would repeat the same untestable search there
    /// (DESIGN §6.2k).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn probe(
        &self,
        circuit: &Circuit,
        point: TestPoint,
        faults: &[Fault],
        config: &CubeConfig,
        control: &RunControl,
    ) -> Result<Option<CubeSet>, NetlistError> {
        let mut probed = circuit.clone();
        let applied = match apply_test_point(&mut probed, point) {
            Ok(applied) => applied,
            Err(NetlistError::InvalidTransform { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let dirty = dirty_line_mask(
            &probed,
            &Topology::of(&probed)?,
            circuit.node_count(),
            applied.observed.as_slice(),
        );
        let carried: Vec<Fault> = self
            .redundant
            .iter()
            .copied()
            .filter(|f| !dirty[f.origin().index()])
            .collect();
        CubeSet::generate_carrying(&probed, faults, config, control, &carried).map(Some)
    }

    fn generate_carrying(
        circuit: &Circuit,
        faults: &[Fault],
        config: &CubeConfig,
        control: &RunControl,
        carried: &[Fault],
    ) -> Result<CubeSet, NetlistError> {
        let TopoffResult {
            cubes,
            targets,
            merged,
            redundant,
            uncovered,
            interrupted,
            counters,
        } = topoff::generate_controlled(
            circuit,
            faults,
            config.podem,
            config.fill_seed,
            control,
            carried,
        )?;
        Ok(CubeSet {
            cubes,
            targets,
            merged,
            uncovered: uncovered.len(),
            redundant,
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
