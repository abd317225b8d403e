use tpi_netlist::{Circuit, NetlistError, NodeId, Topology};

use crate::compile::{block_words_supported, fill_slot, Program};

/// Bit-parallel (64 patterns per word) logic simulator.
///
/// At construction the levelised circuit is *compiled* into a flat
/// structure-of-arrays program (see the [`crate::compile`] module docs):
/// a contiguous opcode array with CSR-packed fanins, executed over dense
/// value slots with specialised two-input fast paths. The same program
/// runs at any supported block width `w` (1, 2, 4 or 8 words = 64–512
/// patterns per pass) via [`simulate_block_into`]
/// (LogicSim::simulate_block_into); the scalar [`simulate`]
/// (LogicSim::simulate)/[`simulate_into`](LogicSim::simulate_into) API
/// is the `w = 1` special case. Lane values are bit-identical across
/// widths.
///
/// The simulator snapshots the order at construction; rebuild it after
/// transforming the circuit.
///
/// # Example
///
/// ```
/// use tpi_netlist::bench_format::parse_bench;
/// use tpi_sim::LogicSim;
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\ny = XOR(a, b)\nOUTPUT(y)\n")?;
/// let sim = LogicSim::new(&c)?;
/// // lane 0: a=0,b=0  lane 1: a=1,b=0  lane 2: a=0,b=1  lane 3: a=1,b=1
/// let values = sim.simulate(&[0b0110, 0b1100]);
/// let y = c.outputs()[0];
/// assert_eq!(values[y.index()] & 0xF, 0b1010);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LogicSim {
    circuit: Circuit,
    program: Program,
    order: Vec<NodeId>,
    level_of: Vec<u32>,
    max_level: u32,
}

impl LogicSim {
    /// Build a simulator for `circuit` (the circuit is cloned; the
    /// simulator is self-contained).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<LogicSim, NetlistError> {
        let topo = Topology::of(circuit)?;
        let order = topo
            .order()
            .iter()
            .copied()
            .filter(|&id| !circuit.kind(id).is_source())
            .collect();
        let level_of = circuit.node_ids().map(|id| topo.level(id)).collect();
        let program = Program::compile(circuit, &topo);
        Ok(LogicSim {
            circuit: circuit.clone(),
            program,
            order,
            level_of,
            max_level: topo.max_level(),
        })
    }

    /// The compiled program backing this simulator.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The circuit this simulator was built for.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Gate evaluation order (levelised, sources excluded).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Logic level of a node (snapshot from construction time).
    pub fn level(&self, id: NodeId) -> u32 {
        self.level_of[id.index()]
    }

    /// Maximum logic level.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Simulate one block: `input_words[i]` carries 64 pattern bits for
    /// primary input `i` (order of [`Circuit::inputs`]). Returns a word per
    /// node, indexed by [`NodeId::index`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `input_words` has the wrong length.
    pub fn simulate(&self, input_words: &[u64]) -> Vec<u64> {
        let mut values = vec![0u64; self.circuit.node_count()];
        self.simulate_into(input_words, &mut values);
        values
    }

    /// Like [`LogicSim::simulate`] but reusing a caller-provided buffer
    /// (`values.len()` must equal the node count).
    pub fn simulate_into(&self, input_words: &[u64], values: &mut [u64]) {
        self.simulate_block_into(input_words, values, 1);
    }

    /// Simulate one *wide* block of `w × 64` patterns through the
    /// compiled kernel.
    ///
    /// `input_words[i * w + j]` carries word `j` (patterns
    /// `j * 64 .. j * 64 + 64` of the block) for primary input `i`;
    /// `values` receives `w` words per node at
    /// `values[id.index() * w ..][..w]` with the same word-major layout.
    /// At `w = 1` this is exactly [`LogicSim::simulate_into`]; wider
    /// blocks produce bit-identical lanes, one kernel pass per block.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 1, 2, 4 or 8, and in debug builds on buffer
    /// length mismatches.
    pub fn simulate_block_into(&self, input_words: &[u64], values: &mut [u64], w: usize) {
        assert!(
            block_words_supported(w),
            "unsupported block width {w} words (supported: 1, 2, 4, 8)"
        );
        debug_assert_eq!(input_words.len(), self.circuit.inputs().len() * w);
        debug_assert_eq!(values.len(), self.circuit.node_count() * w);
        for (i, &input) in self.circuit.inputs().iter().enumerate() {
            values[input.index() * w..input.index() * w + w]
                .copy_from_slice(&input_words[i * w..i * w + w]);
        }
        for &(idx, word) in self.program.constants() {
            fill_slot(values, NodeId::from_index(idx as usize), w, word);
        }
        self.program.execute_block(values, w);
    }

    /// Extract the primary-output words from a value vector produced by
    /// [`LogicSim::simulate`].
    pub fn output_words(&self, values: &[u64]) -> Vec<u64> {
        self.circuit
            .outputs()
            .iter()
            .map(|o| values[o.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExhaustivePatterns, PatternSource};
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn build_sample() -> Circuit {
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let g1 = b.gate(GateKind::Nand, vec![a, c], "g1").unwrap();
        let g2 = b.gate(GateKind::Xor, vec![g1, d], "g2").unwrap();
        let g3 = b.gate(GateKind::Nor, vec![g1, g2], "g3").unwrap();
        b.output(g2);
        b.output(g3);
        b.finish().unwrap()
    }

    #[test]
    fn matches_reference_evaluator_exhaustively() {
        let c = build_sample();
        let sim = LogicSim::new(&c).unwrap();
        let mut src = ExhaustivePatterns::new(3);
        let mut words = vec![0u64; 3];
        let n = src.fill(&mut words);
        let values = sim.simulate(&words);
        for p in 0..n {
            let assignment: Vec<bool> = words.iter().map(|w| (w >> p) & 1 == 1).collect();
            let reference = c.evaluate(&assignment).unwrap();
            for id in c.node_ids() {
                assert_eq!(
                    (values[id.index()] >> p) & 1 == 1,
                    reference[id.index()],
                    "node {} pattern {p}",
                    c.node_name(id)
                );
            }
        }
    }

    #[test]
    fn constants_simulate_correctly() {
        let mut b = CircuitBuilder::new("c");
        let one = b.constant(true, "one").unwrap();
        let zero = b.constant(false, "zero").unwrap();
        let x = b.input("x");
        let g = b.gate(GateKind::And, vec![one, x], "g").unwrap();
        let h = b.gate(GateKind::Or, vec![zero, g], "h").unwrap();
        b.output(h);
        let c = b.finish().unwrap();
        let sim = LogicSim::new(&c).unwrap();
        let v = sim.simulate(&[0b10]);
        assert_eq!(v[one.index()], u64::MAX);
        assert_eq!(v[zero.index()], 0);
        assert_eq!(v[c.outputs()[0].index()] & 0b11, 0b10);
    }

    #[test]
    fn output_word_extraction() {
        let c = build_sample();
        let sim = LogicSim::new(&c).unwrap();
        let values = sim.simulate(&[u64::MAX, u64::MAX, 0]);
        let outs = sim.output_words(&values);
        // g1 = NAND(1,1) = 0; g2 = XOR(0,0) = 0; g3 = NOR(0,0) = 1.
        assert_eq!(outs, vec![0, u64::MAX]);
    }

    #[test]
    fn simulate_into_reuses_buffer() {
        let c = build_sample();
        let sim = LogicSim::new(&c).unwrap();
        let mut buf = vec![0u64; c.node_count()];
        sim.simulate_into(&[1, 1, 0], &mut buf);
        let fresh = sim.simulate(&[1, 1, 0]);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn wide_blocks_are_bit_identical_to_narrow() {
        let c = build_sample();
        let sim = LogicSim::new(&c).unwrap();
        for w in [1usize, 2, 4, 8] {
            // Word j of input i gets a distinct deterministic pattern.
            let inputs: Vec<u64> = (0..3 * w)
                .map(|k| (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let mut wide = vec![0u64; c.node_count() * w];
            sim.simulate_block_into(&inputs, &mut wide, w);
            for j in 0..w {
                let narrow_inputs: Vec<u64> = (0..3).map(|i| inputs[i * w + j]).collect();
                let narrow = sim.simulate(&narrow_inputs);
                for id in c.node_ids() {
                    assert_eq!(
                        wide[id.index() * w + j],
                        narrow[id.index()],
                        "node {} word {j} at w={w}",
                        c.node_name(id)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported block width")]
    fn rejects_unsupported_block_width() {
        let c = build_sample();
        let sim = LogicSim::new(&c).unwrap();
        let mut values = vec![0u64; c.node_count() * 3];
        sim.simulate_block_into(&[0; 9], &mut values, 3);
    }

    #[test]
    fn order_excludes_sources_and_respects_levels() {
        let c = build_sample();
        let sim = LogicSim::new(&c).unwrap();
        assert_eq!(sim.order().len(), 3);
        let mut prev = 0;
        for &id in sim.order() {
            assert!(sim.level(id) >= prev);
            prev = sim.level(id);
        }
        assert_eq!(sim.max_level(), 3);
    }
}
