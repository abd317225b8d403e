//! Incremental COP recompute for test-point candidate probing.
//!
//! The greedy optimizer asks, for every `(node, kind)` candidate each
//! round, "what would the COP detection probabilities be if this one test
//! point were added?". Answering by `apply_plan` + full
//! [`CopAnalysis`] costs O(n) per candidate. A test point, however, only
//! perturbs its *cone*:
//!
//! * controllabilities (`c1`) change only strictly downstream of the
//!   candidate line (forward through its output cone), because every
//!   other node's fanin values are untouched;
//! * observabilities (`obs` / `pin_obs`) change only on nodes whose
//!   factor inputs changed or that lie upstream of a changed branch —
//!   backward through the fanin support of the changed region.
//!
//! [`CopProbe`] exploits this: it keeps scratch copies of the base
//! analysis and, per candidate, runs a bitwise-pruned forward worklist
//! (stop as soon as a recomputed `c1` is bit-identical to the stored one)
//! followed by a backward worklist, both in level order, then rolls every
//! touched entry back. The inserted auxiliary nodes (`tp_r*`, `tp_cp*`)
//! are evaluated *virtually* — the modified circuit is never
//! materialised. A probe reports only the targets on nodes whose `c1` or
//! `obs` changed, and once its buffers have grown to the largest cone
//! seen it allocates nothing.
//!
//! The recomputation calls the same [`gate_c1`]/[`pin_factors`] kernels as
//! the full analysis on operand lists that are element-for-element
//! identical to what the full pass would see, and `obs` is a max over the
//! same contribution multiset (max over non-negative floats is
//! order-insensitive), so every probed probability is **bit-identical** to
//! `CopAnalysis::with_input_probs(apply_test_point(circuit, tp), …)` —
//! the property the `--candidate-eval` A/B oracle tests.

use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, TestPoint, TestPointKind, Topology};

use crate::cop::{gate_c1, pin_factors};
use crate::CopAnalysis;

/// Incremental per-candidate COP evaluation over a fixed base circuit.
///
/// Construct once per committed-plan state (the analysis snapshot), then
/// call [`probe`](CopProbe::probe) for each candidate test point. Between
/// calls the scratch state always equals the base analysis.
#[derive(Clone, Debug)]
pub struct CopProbe<'a> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    /// `(stem node, stuck-at value)` per target, in problem target order.
    targets: Vec<(NodeId, bool)>,
    /// Indices of the targets on node `v`:
    /// `node_targets[node_target_start[v]..node_target_start[v + 1]]`.
    node_target_start: Vec<usize>,
    node_targets: Vec<usize>,
    /// Primary-output membership per node.
    is_output: Vec<bool>,
    // Scratch state, equal to the base analysis between probes.
    c1: Vec<f64>,
    obs: Vec<f64>,
    /// Gate `g`'s branch observabilities are
    /// `pin_obs[pin_start[g]..pin_start[g + 1]]`, as in [`CopAnalysis`].
    pin_start: Vec<usize>,
    pin_obs: Vec<f64>,
    // Per-probe buffers, all empty (or false) between probes.
    /// Per-node flag: worklist membership during the two passes, then
    /// "targets already reported" while the delta is collected.
    mark: Vec<bool>,
    /// Worklist entries by level, shared by the two passes, plus one
    /// always-empty level above the top for the virtual control gate's
    /// pseudo-level.
    buckets: Vec<Vec<usize>>,
    factors: Vec<f64>,
    undo_c1: Vec<(usize, f64)>,
    undo_obs: Vec<(usize, f64)>,
    /// `(pin_obs slot, old value)`.
    undo_pin: Vec<(usize, f64)>,
    /// The last probe's `(target index, probability)` pairs.
    delta: Vec<(usize, f64)>,
    /// Worklist nodes processed over every probe so far.
    visited: usize,
}

impl<'a> CopProbe<'a> {
    /// Build a probe over `circuit` with its `topo` and base `cop`
    /// analysis. `targets` are the stem-fault sites whose detection
    /// probabilities each probe reports, in order.
    pub fn new(
        circuit: &'a Circuit,
        topo: &'a Topology,
        cop: &CopAnalysis,
        targets: &[(NodeId, bool)],
    ) -> CopProbe<'a> {
        let n = circuit.node_count();
        let mut node_target_start = vec![0usize; n + 1];
        for &(node, _) in targets {
            node_target_start[node.index() + 1] += 1;
        }
        for i in 0..n {
            node_target_start[i + 1] += node_target_start[i];
        }
        let mut fill = node_target_start.clone();
        let mut node_targets = vec![0usize; targets.len()];
        for (t, &(node, _)) in targets.iter().enumerate() {
            node_targets[fill[node.index()]] = t;
            fill[node.index()] += 1;
        }
        let mut is_output = vec![false; n];
        for &o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        let (pin_start, pin_obs) = cop.pin_obs_raw();
        CopProbe {
            circuit,
            topo,
            targets: targets.to_vec(),
            node_target_start,
            node_targets,
            is_output,
            c1: cop.c1_raw().to_vec(),
            obs: cop.obs_raw().to_vec(),
            pin_start: pin_start.to_vec(),
            pin_obs: pin_obs.to_vec(),
            mark: vec![false; n],
            buckets: vec![Vec::new(); topo.max_level() as usize + 2],
            factors: Vec::new(),
            undo_c1: Vec::new(),
            undo_obs: Vec::new(),
            undo_pin: Vec::new(),
            delta: Vec::new(),
            visited: 0,
        }
    }

    /// Detection probabilities of the targets on the *unmodified* base
    /// circuit (bit-identical to the base analysis).
    pub fn base_probabilities(&self) -> Vec<f64> {
        (0..self.targets.len())
            .map(|t| self.target_probability(t))
            .collect()
    }

    /// Forward plus backward worklist nodes processed by every
    /// [`probe`](CopProbe::probe) so far, the inserted control gate
    /// included — the probes' work, independent of the host.
    pub fn nodes_visited(&self) -> usize {
        self.visited
    }

    /// The targets whose detection probability `tp` can move, as
    /// `(target index, probability)` pairs for the base circuit with `tp`
    /// applied: every target on a node whose `c1` or observability
    /// changes, each once, in no particular order. Every other target
    /// keeps its [base probability](CopProbe::base_probabilities). The
    /// probabilities are bit-identical to a full re-analysis of the
    /// modified circuit, at O(cone) instead of O(n) cost.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchNode`] for an out-of-range node and
    /// [`NetlistError::InvalidTransform`] for a control/full point on a
    /// dangling line — the same failures `apply_test_point` reports.
    pub fn probe(&mut self, tp: TestPoint) -> Result<&[(usize, f64)], NetlistError> {
        let (circuit, topo) = (self.circuit, self.topo);
        let v = tp.node;
        let vi = v.index();
        if vi >= circuit.node_count() {
            return Err(NetlistError::NoSuchNode { index: vi });
        }
        self.delta.clear();
        let is_out = self.is_output[vi];
        match tp.kind {
            TestPointKind::Observe => {
                if is_out {
                    // `add_output` is idempotent: the modified circuit is
                    // the base circuit, bit for bit.
                    return Ok(&self.delta);
                }
            }
            _ => {
                if topo.fanouts(v).is_empty() && !is_out {
                    return Err(NetlistError::InvalidTransform {
                        message: format!(
                            "control point at dangling line `{}`",
                            circuit.node_name(v)
                        ),
                    });
                }
            }
        }

        let orig_c1_v = self.c1[vi];
        // The inserted control gate (`tp_cp*`) for CP-AND/CP-OR, and the
        // value the candidate line's old readers see in the modified
        // circuit: the control gate's output, the fresh cut input (0.5),
        // or — for observation points — the line itself, unchanged.
        let (cp_kind, reader_val) = match tp.kind {
            TestPointKind::Observe => (None, None),
            TestPointKind::Full => (None, Some(0.5)),
            TestPointKind::ControlAnd => {
                let k = GateKind::And;
                (Some(k), Some(gate_c1(k, [orig_c1_v, 0.5].into_iter())))
            }
            TestPointKind::ControlOr => {
                let k = GateKind::Or;
                (Some(k), Some(gate_c1(k, [orig_c1_v, 0.5].into_iter())))
            }
        };
        let v_level = topo.level(v) as usize;

        // ---- forward: controllabilities through the output cone ----
        //
        // Substituting the reader value at v's own slot makes every
        // downstream recompute read the modified-circuit operand without
        // per-pin special cases; v's own (unchanged) c1 is restored before
        // the targets are read. Levels ascend: every fanin of a node sits
        // on a lower level, so its c1 is final when the node is read, and
        // nothing is queued on the level being drained.
        let mut top = v_level;
        if let Some(val) = reader_val {
            self.c1[vi] = val;
            let mut pending = 0;
            for fo in topo.fanouts(v) {
                pending += self.enqueue(fo.gate);
            }
            let mut level = v_level + 1;
            while pending > 0 {
                let mut bucket = std::mem::take(&mut self.buckets[level]);
                for &ui in &bucket {
                    self.mark[ui] = false;
                    let u = NodeId::from_index(ui);
                    let val = gate_c1(
                        circuit.kind(u),
                        circuit.fanins(u).iter().map(|f| self.c1[f.index()]),
                    );
                    if val.to_bits() != self.c1[ui].to_bits() {
                        self.undo_c1.push((ui, self.c1[ui]));
                        self.c1[ui] = val;
                        for fo in topo.fanouts(u) {
                            pending += self.enqueue(fo.gate);
                        }
                    }
                }
                pending -= bucket.len();
                self.visited += bucket.len();
                bucket.clear();
                self.buckets[level] = bucket;
                top = level;
                level += 1;
            }
        }

        // ---- backward: observabilities through the fanin support ----
        //
        // Levels descend: every consumer of a node sits on a higher level,
        // so its branch observability is final when the node is read.
        // The virtual control gate has pseudo-level level(v)+1 and runs
        // after the real nodes of that level (its consumers among them)
        // and before v, its only fanin on a real node.
        let mut pending = 0;
        if reader_val.is_some() {
            for fo in topo.fanouts(v) {
                pending += self.enqueue(fo.gate);
            }
        }
        for k in 0..self.undo_c1.len() {
            let changed = NodeId::from_index(self.undo_c1[k].0);
            for fo in topo.fanouts(changed) {
                pending += self.enqueue(fo.gate);
            }
        }
        pending += self.enqueue(v);
        let mut cp_pending = cp_kind.is_some();
        let mut level = if cp_pending {
            top.max(v_level + 1)
        } else {
            top
        };
        // Branch observabilities of the virtual control gate's two pins
        // (the tapped line, the fresh control input), once computed.
        let mut cp_row: [f64; 2] = [0.0, 0.0];
        loop {
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            for &ui in &bucket {
                self.mark[ui] = false;
                let u = NodeId::from_index(ui);
                let is_out_m = if u == v {
                    // Observe/Full add a PO tap; a control point moves any
                    // existing tap onto the inserted gate.
                    cp_kind.is_none()
                } else {
                    self.is_output[ui]
                };
                let mut o = if is_out_m { 1.0 } else { 0.0 };
                if u == v && cp_kind.is_some() {
                    // Sole reader in the modified circuit: the control gate.
                    if cp_row[0] > o {
                        o = cp_row[0];
                    }
                } else if u == v && tp.kind == TestPointKind::Full {
                    // Cut: old readers now read the fresh input; v only feeds
                    // its new PO tap.
                } else {
                    o = self.max_branch(u, o);
                }
                if o.to_bits() != self.obs[ui].to_bits() {
                    self.undo_obs.push((ui, self.obs[ui]));
                    self.obs[ui] = o;
                }
                let kind = circuit.kind(u);
                if kind.is_source() {
                    continue;
                }
                let fanins = circuit.fanins(u);
                pin_factors(
                    kind,
                    fanins.iter().map(|f| self.c1[f.index()]),
                    &mut self.factors,
                );
                let row = self.pin_start[ui];
                for (p, &fanin) in fanins.iter().enumerate() {
                    let branch = o * self.factors[p];
                    let slot = row + p;
                    if branch.to_bits() != self.pin_obs[slot].to_bits() {
                        self.undo_pin.push((slot, self.pin_obs[slot]));
                        self.pin_obs[slot] = branch;
                        // Pins that read v read the inserted node in the
                        // modified circuit; their branch change feeds the
                        // virtual gate (run before v), not v.
                        if !(reader_val.is_some() && fanin == v) {
                            pending += self.enqueue(fanin);
                        }
                    }
                }
            }
            pending -= bucket.len();
            self.visited += bucket.len();
            bucket.clear();
            self.buckets[level] = bucket;
            if cp_pending && level == v_level + 1 {
                // Virtual control gate: observed iff the tapped line's PO
                // tap moved onto it; consumers are the line's old readers.
                let kind = cp_kind.expect("virtual gate only pending for control points");
                let o = self.max_branch(v, if is_out { 1.0 } else { 0.0 });
                pin_factors(kind, [orig_c1_v, 0.5].into_iter(), &mut self.factors);
                cp_row = [o * self.factors[0], o * self.factors[1]];
                cp_pending = false;
                self.visited += 1;
            }
            if pending == 0 && !cp_pending {
                break;
            }
            level -= 1;
        }

        // v's own controllability is unchanged in the modified circuit —
        // only its readers were re-pointed. Restore before reading targets.
        self.c1[vi] = orig_c1_v;

        // ---- report the targets on every changed node, once each ----
        let changed = self.undo_c1.iter().chain(&self.undo_obs).map(|&(i, _)| i);
        for i in changed.clone() {
            if !self.mark[i] {
                self.mark[i] = true;
                for k in self.node_target_start[i]..self.node_target_start[i + 1] {
                    let t = self.node_targets[k];
                    self.delta.push((t, self.target_probability(t)));
                }
            }
        }
        for i in changed {
            self.mark[i] = false;
        }

        // ---- roll back to the base analysis ----
        for (i, val) in self.undo_c1.drain(..) {
            self.c1[i] = val;
        }
        for (i, val) in self.undo_obs.drain(..) {
            self.obs[i] = val;
        }
        for (slot, val) in self.undo_pin.drain(..) {
            self.pin_obs[slot] = val;
        }
        Ok(&self.delta)
    }

    /// Queue `u` on its level's worklist unless it is already queued;
    /// returns the number of entries added (0 or 1).
    fn enqueue(&mut self, u: NodeId) -> usize {
        let ui = u.index();
        if self.mark[ui] {
            return 0;
        }
        self.mark[ui] = true;
        self.buckets[self.topo.level(u) as usize].push(ui);
        1
    }

    /// `floor` raised to the largest branch observability among `u`'s
    /// consumers.
    fn max_branch(&self, u: NodeId, floor: f64) -> f64 {
        let mut o = floor;
        for fo in self.topo.fanouts(u) {
            let c = self.pin_obs[self.pin_start[fo.gate.index()] + fo.pin as usize];
            if c > o {
                o = c;
            }
        }
        o
    }

    /// Detection probability of target `t` in the current scratch state.
    fn target_probability(&self, t: usize) -> f64 {
        let (node, stuck) = self.targets[t];
        let exc = if stuck {
            1.0 - self.c1[node.index()]
        } else {
            self.c1[node.index()]
        };
        exc * self.obs[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tpi_gen::dags::{random_dag, RandomDagConfig};
    use tpi_netlist::transform::{apply_plan, apply_test_point};
    use tpi_netlist::CircuitBuilder;
    use tpi_sim::{Fault, FaultSite};

    /// A mixed-kind reconvergent circuit exercising every gate family.
    fn recon() -> Circuit {
        let mut b = CircuitBuilder::new("recon");
        let xs = b.inputs(6, "x");
        let s = b.gate(GateKind::And, vec![xs[0], xs[1]], "s").unwrap();
        let g1 = b.gate(GateKind::Nand, vec![s, xs[2]], "g1").unwrap();
        let g2 = b.gate(GateKind::Nor, vec![s, xs[3]], "g2").unwrap();
        let g3 = b.gate(GateKind::Xor, vec![g1, g2], "g3").unwrap();
        let g4 = b.gate(GateKind::Or, vec![g2, xs[4]], "g4").unwrap();
        let g5 = b.gate(GateKind::Not, vec![g3], "g5").unwrap();
        let g6 = b.gate(GateKind::And, vec![g5, g4, xs[5]], "g6").unwrap();
        b.output(g6);
        b.output(g1);
        b.finish().unwrap()
    }

    fn all_targets(c: &Circuit) -> Vec<(NodeId, bool)> {
        c.node_ids()
            .flat_map(|id| [(id, false), (id, true)])
            .collect()
    }

    fn full_reference(c: &Circuit, tp: TestPoint, targets: &[(NodeId, bool)]) -> Vec<f64> {
        let mut m = c.clone();
        apply_test_point(&mut m, tp).unwrap();
        let cop = CopAnalysis::with_input_probs(&m, &HashMap::new()).unwrap();
        targets
            .iter()
            .map(|&(node, stuck)| {
                cop.detection_probability(
                    &m,
                    Fault {
                        site: FaultSite::Stem(node),
                        stuck,
                    },
                )
            })
            .collect()
    }

    /// One circuit holding every structure the probe treats specially: a
    /// gate reading one net twice and one reading it three times,
    /// constant nets, an XOR/XNOR chain, unary BUF/NOT gates, an 8-input
    /// NAND, and stems that feed both a primary output and gates.
    fn awkward() -> Circuit {
        let mut b = CircuitBuilder::new("awkward");
        let xs = b.inputs(8, "x");
        let zero = b.constant(false, "zero").unwrap();
        let one = b.constant(true, "one").unwrap();
        let twice = b.gate(GateKind::And, vec![xs[0], xs[0]], "twice").unwrap();
        let thrice = b
            .gate(GateKind::Or, vec![xs[1], twice, xs[1], xs[1]], "thrice")
            .unwrap();
        let z_and = b.gate(GateKind::And, vec![zero, xs[2]], "z_and").unwrap();
        let o_nor = b.gate(GateKind::Nor, vec![one, xs[3]], "o_nor").unwrap();
        let xa = b.gate(GateKind::Xor, vec![xs[4], thrice], "xa").unwrap();
        let xb = b.gate(GateKind::Xnor, vec![xa, xs[5]], "xb").unwrap();
        let xc = b.gate(GateKind::Xor, vec![xb, z_and, o_nor], "xc").unwrap();
        let buf = b.gate(GateKind::Buf, vec![xc], "buf").unwrap();
        let not = b.gate(GateKind::Not, vec![buf], "not").unwrap();
        let wide_fanins = vec![xs[0], xs[1], xs[2], xs[3], xs[6], xs[7], not, twice];
        let wide = b.gate(GateKind::Nand, wide_fanins, "wide").unwrap();
        let tail = b.gate(GateKind::Nor, vec![wide, xb, not], "tail").unwrap();
        // Stems tapped as outputs that also drive gates.
        b.output(twice);
        b.output(xb);
        b.output(not);
        b.output(tail);
        b.finish().unwrap()
    }

    /// Probed probabilities of every target under `tp`, as a dense
    /// vector in target order: the base probabilities with the probe's
    /// delta written over them. Also checks that the delta names each
    /// target at most once.
    fn probed(probe: &mut CopProbe<'_>, tp: TestPoint) -> Result<Vec<f64>, NetlistError> {
        let mut dense = probe.base_probabilities();
        let mut seen = vec![false; dense.len()];
        for &(t, p) in probe.probe(tp)? {
            assert!(!seen[t], "{tp}: target {t} reported twice");
            seen[t] = true;
            dense[t] = p;
        }
        Ok(dense)
    }

    fn assert_probe_matches(c: &Circuit) {
        let topo = Topology::of(c).unwrap();
        let cop = CopAnalysis::new(c).unwrap();
        let targets = all_targets(c);
        let mut probe = CopProbe::new(c, &topo, &cop, &targets);
        for id in c.node_ids() {
            for kind in [
                TestPointKind::Observe,
                TestPointKind::ControlAnd,
                TestPointKind::ControlOr,
                TestPointKind::Full,
            ] {
                let tp = TestPoint::new(id, kind);
                let applies =
                    kind == TestPointKind::Observe || topo.fanout_count(id) > 0 || c.is_output(id);
                let got = probed(&mut probe, tp);
                if !applies {
                    assert!(got.is_err(), "{tp} should be rejected");
                    continue;
                }
                let got = got.unwrap();
                let want = full_reference(c, tp, &targets);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{tp}, target {i}: probe {g} vs full {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_bit_identical_to_full_recompute() {
        assert_probe_matches(&recon());
    }

    #[test]
    fn probe_bit_identical_on_modified_circuit() {
        // Probe on a circuit that already carries committed test points —
        // the state after a few greedy rounds, including stacked points.
        let base = recon();
        let s = base.find_node("s").unwrap();
        let g2 = base.find_node("g2").unwrap();
        let (cur, _) =
            apply_plan(&base, &[TestPoint::control_or(s), TestPoint::observe(g2)]).unwrap();
        assert_probe_matches(&cur);
    }

    #[test]
    fn probe_bit_identical_on_seeded_dags() {
        for seed in 0..24 {
            let mut config = RandomDagConfig::new(6 + (seed as usize % 7), 60, seed);
            // Uniform fanin choice every other seed: the most fanout and
            // reconvergence the generator makes.
            if seed % 2 == 1 {
                config.locality = 0.0;
            }
            assert_probe_matches(&random_dag(&config).unwrap());
        }
    }

    #[test]
    fn probe_bit_identical_on_awkward_structure() {
        let c = awkward();
        assert_probe_matches(&c);
        // The same circuit after committing a CP-OR, an OP and a full
        // point, so the probe also runs over inserted gates and taps.
        let xa = c.find_node("xa").unwrap();
        let twice = c.find_node("twice").unwrap();
        let buf = c.find_node("buf").unwrap();
        let plan = [
            TestPoint::control_or(xa),
            TestPoint::observe(twice),
            TestPoint::full(buf),
        ];
        let (committed, _) = apply_plan(&c, &plan).unwrap();
        assert_probe_matches(&committed);
    }

    #[test]
    fn scratch_state_rolls_back_between_probes() {
        let c = recon();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let targets = all_targets(&c);
        let mut probe = CopProbe::new(&c, &topo, &cop, &targets);
        let s = c.find_node("s").unwrap();
        let first = probe.probe(TestPoint::full(s)).unwrap().to_vec();
        assert!(!first.is_empty());
        // An unrelated probe in between must not perturb the next answer.
        let g4 = c.find_node("g4").unwrap();
        probe.probe(TestPoint::control_and(g4)).unwrap();
        let again = probe.probe(TestPoint::full(s)).unwrap();
        assert_eq!(first, again);
        let base = probe.base_probabilities();
        let fresh = CopProbe::new(&c, &topo, &cop, &targets).base_probabilities();
        assert_eq!(base, fresh);
    }

    #[test]
    fn warm_probe_buffers_stop_growing() {
        let c = awkward();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let targets = all_targets(&c);
        let mut probe = CopProbe::new(&c, &topo, &cop, &targets);
        let sweep = |probe: &mut CopProbe<'_>| {
            for id in c.node_ids() {
                for tp in [TestPoint::observe(id), TestPoint::control_or(id)] {
                    let _ = probe.probe(tp);
                }
            }
        };
        let capacities = |probe: &CopProbe<'_>| {
            let mut caps: Vec<usize> = probe.buckets.iter().map(Vec::capacity).collect();
            caps.extend([
                probe.factors.capacity(),
                probe.undo_c1.capacity(),
                probe.undo_obs.capacity(),
                probe.undo_pin.capacity(),
                probe.delta.capacity(),
            ]);
            caps
        };
        sweep(&mut probe);
        let warm = capacities(&probe);
        let visited = probe.nodes_visited();
        assert!(visited > 0);
        sweep(&mut probe);
        assert_eq!(capacities(&probe), warm, "a warm probe grew a buffer");
        assert_eq!(probe.nodes_visited(), 2 * visited);
    }

    #[test]
    fn observe_at_existing_output_is_identity() {
        let c = recon();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let targets = all_targets(&c);
        let mut probe = CopProbe::new(&c, &topo, &cop, &targets);
        let g6 = c.find_node("g6").unwrap();
        assert!(probe.probe(TestPoint::observe(g6)).unwrap().is_empty());
    }
}
