//! Pairwise merge-compatibility analysis of a cube set: which cube
//! pairs fail to merge, and which primary-input assignments block each
//! merge.
//!
//! Two cubes merge into one stored pattern iff no input carries
//! opposing care bits. For every incompatible pair the analysis records
//! the *blocking set* — the inputs with opposing requirements — as a
//! bitmask over primary-input positions. A control point at line `v`
//! can only dissolve a conflict whose blocking inputs all feed `v`
//! (they lie in `v`'s input support): the added controllability lets
//! PODEM justify `v` directly, releasing the care bits those inputs
//! carried for `v`'s sake. Counting, per candidate line, the conflicts
//! whose blocking set is contained in the line's support therefore
//! over-approximates the conflicts the control point can resolve — the
//! admissible proxy the search ranks with (DESIGN §6.2k).

use tpi_atpg::TestCube;
use tpi_netlist::{Circuit, NodeId, Topology};

use crate::CubeSet;

/// A fixed-width bitmask over primary-input positions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// The empty mask over `n` bits.
    pub fn new(n: usize) -> Bitset {
        Bitset {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Set bit `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Union `other` into `self`.
    pub fn union_with(&mut self, other: &Bitset) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether every bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &Bitset) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
            && self.words[other.words.len().min(self.words.len())..]
                .iter()
                .all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

/// Per-node transitive fanin cones: for every node, the mask of *node
/// indices* (itself included) whose value can influence the node's
/// output line. The observation-side proxy tests fault membership
/// against these.
pub fn fanin_cones(circuit: &Circuit, topo: &Topology) -> Vec<Bitset> {
    let n = circuit.node_count();
    let mut cones = vec![Bitset::new(n); n];
    for &id in topo.order() {
        let mut mask = Bitset::new(n);
        mask.insert(id.index());
        for &f in circuit.fanins(id) {
            mask.union_with(&cones[f.index()]);
        }
        cones[id.index()] = mask;
    }
    cones
}

/// Per-node input supports: for every node, the mask of primary-input
/// positions (indices into [`Circuit::inputs`]) that can influence the
/// node's output line.
pub fn input_supports(circuit: &Circuit, topo: &Topology) -> Vec<Bitset> {
    let n_inputs = circuit.inputs().len();
    let mut position = vec![usize::MAX; circuit.node_count()];
    for (pos, &id) in circuit.inputs().iter().enumerate() {
        position[id.index()] = pos;
    }
    let mut supports = vec![Bitset::new(n_inputs); circuit.node_count()];
    for &id in topo.order() {
        if position[id.index()] != usize::MAX {
            let pos = position[id.index()];
            supports[id.index()].insert(pos);
            continue;
        }
        let mut mask = Bitset::new(n_inputs);
        for &f in circuit.fanins(id) {
            mask.union_with(&supports[f.index()]);
        }
        supports[id.index()] = mask;
    }
    supports
}

/// The pairwise merge-compatibility structure of a cube set.
#[derive(Clone, Debug)]
pub struct ConflictAnalysis {
    /// Number of cubes analysed.
    pub cube_count: usize,
    /// The packed pattern count of the analysed set.
    pub patterns: usize,
    /// Unordered cube pairs examined.
    pub pairs_examined: usize,
    /// Pairs that cannot merge (at least one opposing care bit).
    pub conflicts: usize,
    /// Per primary-input position: how many conflicting pairs this
    /// input blocks (the "hot input" profile).
    pub blocking_by_input: Vec<u32>,
    /// One blocking mask per recorded conflicting pair, capped at
    /// construction (`conflicts_capped` reports truncation).
    conflict_masks: Vec<Bitset>,
    /// The propagation anchors of each recorded conflicting pair: the
    /// stem (or branch gate) of the two cubes' target faults, aligned
    /// with `conflict_masks`. The observation-side proxy tests these
    /// against candidate fanin cones.
    conflict_anchors: Vec<(NodeId, NodeId)>,
    /// Whether the recorded masks were capped (`conflicts` still counts
    /// every conflict; only the per-candidate proxy loses the tail).
    pub conflicts_capped: bool,
}

impl ConflictAnalysis {
    /// Analyse `set` over a circuit with `n_inputs` primary inputs,
    /// recording at most `cap` blocking masks (0 = unlimited).
    pub fn analyse(n_inputs: usize, set: &CubeSet, cap: usize) -> ConflictAnalysis {
        let cubes = &set.cubes;
        let mut masks = Vec::new();
        let mut anchors = Vec::new();
        let mut blocking_by_input = vec![0u32; n_inputs];
        let mut conflicts = 0usize;
        let mut pairs = 0usize;
        let mut capped = false;
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                pairs += 1;
                if let Some(mask) = blocking_mask(&cubes[i], &cubes[j], n_inputs) {
                    conflicts += 1;
                    for (pos, slot) in blocking_by_input.iter_mut().enumerate() {
                        if mask.contains(pos) {
                            *slot += 1;
                        }
                    }
                    if cap == 0 || masks.len() < cap {
                        masks.push(mask);
                        anchors.push((set.targets[i].origin(), set.targets[j].origin()));
                    } else {
                        capped = true;
                    }
                }
            }
        }
        ConflictAnalysis {
            cube_count: cubes.len(),
            patterns: set.patterns(),
            pairs_examined: pairs,
            conflicts,
            blocking_by_input,
            conflict_masks: masks,
            conflict_anchors: anchors,
            conflicts_capped: capped,
        }
    }

    /// The admissible proxy: how many recorded conflicts have their
    /// whole blocking set inside `support` — an upper bound on the
    /// merges a control point with that support can unblock.
    pub fn resolvable_by(&self, support: &Bitset) -> u32 {
        self.conflict_masks
            .iter()
            .filter(|m| m.is_subset_of(support))
            .count() as u32
    }

    /// The observation-side proxy: how many recorded conflicts involve a
    /// cube whose target fault propagates through `cone` (a node-index
    /// mask from [`fanin_cones`]). Observing such a line can release the
    /// propagation care bits that cube carried for the logic *above* the
    /// new output, which is how observation points dissolve conflicts
    /// the justification proxy cannot see.
    pub fn resolvable_by_observation(&self, cone: &Bitset) -> u32 {
        self.conflict_anchors
            .iter()
            .filter(|(a, b)| cone.contains(a.index()) || cone.contains(b.index()))
            .count() as u32
    }

    /// The recorded blocking masks (for tests and diagnostics).
    pub fn conflict_masks(&self) -> &[Bitset] {
        &self.conflict_masks
    }
}

/// The blocking set of a cube pair: `Some(mask)` of opposing care
/// positions when the cubes cannot merge, `None` when they merge.
fn blocking_mask(a: &TestCube, b: &TestCube, n_inputs: usize) -> Option<Bitset> {
    let mut mask = Bitset::new(n_inputs);
    let mut any = false;
    for (pos, (va, vb)) in a.values().iter().zip(b.values()).enumerate() {
        if let (Some(x), Some(y)) = (va.to_bool(), vb.to_bool()) {
            if x != y {
                mask.insert(pos);
                any = true;
            }
        }
    }
    any.then_some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_atpg::Ternary;
    use tpi_netlist::{CircuitBuilder, GateKind};
    use tpi_sim::{Fault, RunControl};

    fn cube(s: &str) -> TestCube {
        TestCube::new(
            s.chars()
                .map(|c| match c {
                    '0' => Ternary::Zero,
                    '1' => Ternary::One,
                    _ => Ternary::X,
                })
                .collect(),
        )
    }

    fn set_of(cubes: Vec<TestCube>) -> CubeSet {
        let targets = (0..cubes.len())
            .map(|i| Fault::stem_sa0(NodeId::from_index(i)))
            .collect();
        let pairs: Vec<(Fault, TestCube)> = (0..cubes.len())
            .map(|i| (Fault::stem_sa0(NodeId::from_index(i)), cubes[i].clone()))
            .collect();
        let merged = tpi_atpg::topoff::pack_cubes(&pairs);
        CubeSet {
            cubes,
            targets,
            merged,
            uncovered: 0,
            redundant: Vec::new(),
            counters: Default::default(),
            interrupted: None,
        }
    }

    #[test]
    fn bitset_basics() {
        let mut a = Bitset::new(70);
        a.insert(0);
        a.insert(69);
        assert!(a.contains(0) && a.contains(69) && !a.contains(1));
        assert_eq!(a.count(), 2);
        let mut b = Bitset::new(70);
        b.insert(69);
        assert!(b.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        b.union_with(&a);
        assert!(a.is_subset_of(&b));
    }

    #[test]
    fn blocking_masks_name_the_opposing_inputs() {
        let set = set_of(vec![cube("10X"), cube("0XX"), cube("1X1")]);
        let a = ConflictAnalysis::analyse(3, &set, 0);
        assert_eq!(a.pairs_examined, 3);
        // (0,1) conflict on input 0; (1,2) conflict on input 0; (0,2) merge.
        assert_eq!(a.conflicts, 2);
        assert_eq!(a.blocking_by_input, vec![2, 0, 0]);
        assert!(!a.conflicts_capped);
        for m in a.conflict_masks() {
            assert!(m.contains(0));
            assert_eq!(m.count(), 1);
        }
    }

    #[test]
    fn cap_truncates_masks_not_counts() {
        let set = set_of(vec![cube("1X"), cube("0X"), cube("X1"), cube("X0")]);
        let a = ConflictAnalysis::analyse(2, &set, 1);
        assert_eq!(a.conflicts, 2);
        assert_eq!(a.conflict_masks().len(), 1);
        assert!(a.conflicts_capped);
    }

    #[test]
    fn supports_follow_the_structure() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(3, "x");
        let g = b.gate(GateKind::And, vec![xs[0], xs[1]], "g").unwrap();
        let y = b.gate(GateKind::Or, vec![g, xs[2]], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let topo = Topology::of(&c).unwrap();
        let s = input_supports(&c, &topo);
        assert_eq!(s[g.index()].count(), 2);
        assert_eq!(s[y.index()].count(), 3);
        assert!(s[g.index()].is_subset_of(&s[y.index()]));
        assert!(s[xs[2].index()].contains(2));
    }

    #[test]
    fn resolvable_counts_contained_conflicts() {
        let set = set_of(vec![cube("10X"), cube("01X"), cube("XX0"), cube("XX1")]);
        // (0,1): blocked on inputs {0,1}; (2,3): blocked on {2}.
        let a = ConflictAnalysis::analyse(3, &set, 0);
        assert_eq!(a.conflicts, 2);
        let mut s01 = Bitset::new(3);
        s01.insert(0);
        s01.insert(1);
        assert_eq!(a.resolvable_by(&s01), 1);
        let mut all = s01.clone();
        all.insert(2);
        assert_eq!(a.resolvable_by(&all), 2);
        assert_eq!(a.resolvable_by(&Bitset::new(3)), 0);
    }

    #[test]
    fn real_cube_set_round_trips() {
        let mut b = CircuitBuilder::new("cone");
        let xs = b.inputs(8, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        let c = b.finish().unwrap();
        let universe = tpi_sim::FaultUniverse::collapsed(&c).unwrap();
        let set = crate::CubeSet::generate(
            &c,
            universe.faults(),
            &crate::CubeConfig::default(),
            &RunControl::unlimited(),
        )
        .unwrap();
        let a = ConflictAnalysis::analyse(c.inputs().len(), &set, 0);
        assert_eq!(a.cube_count, set.len());
        assert_eq!(a.patterns, set.patterns());
        // An AND cone's SA0 tests (all-ones) conflict with input SA1
        // tests (a lone zero): conflicts must exist.
        assert!(a.conflicts > 0, "cone cube set should conflict");
    }

    use tpi_netlist::NodeId;
}
