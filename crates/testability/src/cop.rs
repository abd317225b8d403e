use std::collections::HashMap;

use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};
use tpi_sim::{Fault, FaultSite};

/// COP-style probabilistic testability analysis.
///
/// Forward pass: the 1-probability (`c1`) of every signal under independent
/// random inputs. Backward pass: the probability (`observability`) that a
/// value change on the signal propagates to some primary output, taking the
/// best (maximum) fanout path.
///
/// On fanout-free circuits both quantities — and hence
/// [`detection_probability`](CopAnalysis::detection_probability) — are
/// **exact**, because the signals entering any gate come from disjoint
/// subtrees and are therefore independent. With reconvergent fanout COP is
/// the classical first-order approximation.
///
/// # Example
///
/// ```
/// use tpi_netlist::bench_format::parse_bench;
/// use tpi_testability::CopAnalysis;
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\ny = OR(a, b)\nOUTPUT(y)\n")?;
/// let cop = CopAnalysis::new(&c)?;
/// let y = c.outputs()[0];
/// assert!((cop.c1(y) - 0.75).abs() < 1e-12);
/// let a = c.inputs()[0];
/// // a is observable when b = 0.
/// assert!((cop.observability(a) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CopAnalysis {
    c1: Vec<f64>,
    obs: Vec<f64>,
    /// Gate `g`'s pins occupy `pin_obs[pin_start[g]..pin_start[g + 1]]`.
    pin_start: Vec<usize>,
    /// `pin_obs[pin_start[g] + p]`: observability of the *branch line*
    /// entering gate `g` at pin `p` (i.e. `obs(g) ×` the propagation
    /// factor through `g`).
    pin_obs: Vec<f64>,
}

impl CopAnalysis {
    /// Analyse with every primary input at probability 1/2 (the standard
    /// equiprobable random-pattern model).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<CopAnalysis, NetlistError> {
        CopAnalysis::with_input_probs(circuit, &HashMap::new())
    }

    /// Analyse with explicit 1-probabilities for selected primary inputs
    /// (others default to 1/2). Useful for weighted-random studies and for
    /// modelling control points driven by biased sources.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits;
    /// [`NetlistError::InvalidTransform`] if a probability is outside
    /// `[0, 1]` or assigned to a non-input node.
    pub fn with_input_probs(
        circuit: &Circuit,
        input_probs: &HashMap<NodeId, f64>,
    ) -> Result<CopAnalysis, NetlistError> {
        for (&id, &p) in input_probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetlistError::InvalidTransform {
                    message: format!("input probability {p} outside [0, 1]"),
                });
            }
            if circuit.kind(id) != GateKind::Input {
                return Err(NetlistError::InvalidTransform {
                    message: format!("node {id} is not a primary input"),
                });
            }
        }
        let topo = Topology::of(circuit)?;
        let n = circuit.node_count();
        let mut c1 = vec![0.0f64; n];

        for &id in topo.order() {
            let node = circuit.node(id);
            c1[id.index()] = match node.kind() {
                GateKind::Input => input_probs.get(&id).copied().unwrap_or(0.5),
                GateKind::Const0 => 0.0,
                GateKind::Const1 => 1.0,
                kind => {
                    let probs = node.fanins().iter().map(|f| c1[f.index()]);
                    gate_c1(kind, probs)
                }
            };
        }

        let mut obs = vec![0.0f64; n];
        let mut pin_start = Vec::with_capacity(n + 1);
        pin_start.push(0);
        for id in circuit.node_ids() {
            pin_start.push(pin_start[id.index()] + circuit.fanins(id).len());
        }
        let mut pin_obs = vec![0.0f64; pin_start[n]];
        for &o in circuit.outputs() {
            obs[o.index()] = 1.0;
        }
        let mut factors = Vec::new();
        for &id in topo.order().iter().rev() {
            let node = circuit.node(id);
            if node.kind().is_source() {
                continue;
            }
            let fanins = node.fanins();
            pin_factors(
                node.kind(),
                fanins.iter().map(|f| c1[f.index()]),
                &mut factors,
            );
            let row = &mut pin_obs[pin_start[id.index()]..pin_start[id.index() + 1]];
            for ((slot, &fanin), factor) in row.iter_mut().zip(fanins).zip(&factors) {
                let branch = obs[id.index()] * factor;
                *slot = branch;
                if branch > obs[fanin.index()] {
                    obs[fanin.index()] = branch;
                }
            }
        }
        Ok(CopAnalysis {
            c1,
            obs,
            pin_start,
            pin_obs,
        })
    }

    /// Probability the signal is 1 under one random pattern.
    pub fn c1(&self, id: NodeId) -> f64 {
        self.c1[id.index()]
    }

    /// Probability the signal is 0 under one random pattern.
    pub fn c0(&self, id: NodeId) -> f64 {
        1.0 - self.c1[id.index()]
    }

    /// Probability a value change on the signal reaches an output (best
    /// single fanout path; exact on trees).
    pub fn observability(&self, id: NodeId) -> f64 {
        self.obs[id.index()]
    }

    /// Observability of the branch line entering `gate` at `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for `gate`.
    pub fn branch_observability(&self, gate: NodeId, pin: u32) -> f64 {
        self.pin_row(gate)[pin as usize]
    }

    /// Branch observabilities of `gate`'s pins, in pin order.
    fn pin_row(&self, gate: NodeId) -> &[f64] {
        &self.pin_obs[self.pin_start[gate.index()]..self.pin_start[gate.index() + 1]]
    }

    /// Raw per-node 1-probabilities, indexed by node id (for the
    /// incremental probe in [`crate::cop_delta`]).
    pub(crate) fn c1_raw(&self) -> &[f64] {
        &self.c1
    }

    /// Raw per-node observabilities, indexed by node id.
    pub(crate) fn obs_raw(&self) -> &[f64] {
        &self.obs
    }

    /// Raw branch observabilities in their flat layout: per-gate row
    /// offsets (`node_count + 1` of them) and the rows themselves.
    pub(crate) fn pin_obs_raw(&self) -> (&[usize], &[f64]) {
        (&self.pin_start, &self.pin_obs)
    }

    /// Estimated probability that one random pattern detects `fault`:
    /// excitation × observability. Exact on trees.
    ///
    /// `circuit` must be the circuit this analysis was computed for (needed
    /// to resolve branch drivers).
    pub fn detection_probability(&self, circuit: &Circuit, fault: Fault) -> f64 {
        let line = fault.line(circuit);
        let exc = if fault.stuck {
            self.c0(line)
        } else {
            self.c1(line)
        };
        exc * match fault.site {
            FaultSite::Stem(v) => self.obs[v.index()],
            FaultSite::Branch { gate, pin } => self.pin_row(gate)[pin as usize],
        }
    }
}

/// The 1-probability of a gate output given independent fanin
/// 1-probabilities.
pub(crate) fn gate_c1<I: Iterator<Item = f64>>(kind: GateKind, probs: I) -> f64 {
    match kind {
        GateKind::And => probs.product(),
        GateKind::Nand => 1.0 - probs.product::<f64>(),
        GateKind::Or => 1.0 - probs.map(|p| 1.0 - p).product::<f64>(),
        GateKind::Nor => probs.map(|p| 1.0 - p).product(),
        GateKind::Buf => probs.last().unwrap_or(0.0),
        GateKind::Not => 1.0 - probs.last().unwrap_or(0.0),
        GateKind::Xor => probs.fold(0.0, |acc, p| acc * (1.0 - p) + p * (1.0 - acc)),
        GateKind::Xnor => 1.0 - probs.fold(0.0, |acc, p| acc * (1.0 - p) + p * (1.0 - acc)),
        GateKind::Const0 | GateKind::Input => 0.0,
        GateKind::Const1 => 1.0,
    }
}

/// Per-pin propagation factors through a gate, written to `out`: the
/// probability that the remaining fanins hold non-controlling values.
/// `pin_c1` yields the fanin 1-probabilities in pin order. Computed with
/// a prefix product (forward) times a suffix product (backward) to stay
/// `O(arity)` without dividing by zero. The full analysis and the
/// incremental probe both call this one kernel, so equal operands give
/// bit-identical factors.
pub(crate) fn pin_factors<I>(kind: GateKind, pin_c1: I, out: &mut Vec<f64>)
where
    I: DoubleEndedIterator<Item = f64> + ExactSizeIterator + Clone,
{
    out.clear();
    let invert = match kind {
        GateKind::And | GateKind::Nand => false,
        GateKind::Or | GateKind::Nor => true,
        GateKind::Buf | GateKind::Not | GateKind::Xor | GateKind::Xnor => {
            out.resize(pin_c1.len(), 1.0);
            return;
        }
        _ => {
            out.resize(pin_c1.len(), 0.0);
            return;
        }
    };
    // Side value of a pin: the probability it is non-controlling.
    let side = |p: f64| if invert { 1.0 - p } else { p };
    let mut prefix = 1.0;
    for p in pin_c1.clone() {
        out.push(prefix);
        prefix *= side(p);
    }
    let mut suffix = 1.0;
    for (factor, p) in out.iter_mut().rev().zip(pin_c1.rev()) {
        *factor *= suffix;
        suffix *= side(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::CircuitBuilder;
    use tpi_sim::{montecarlo, FaultUniverse};

    #[test]
    fn signal_probabilities_basic_gates() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(2, "x");
        let and = b.gate(GateKind::And, vec![xs[0], xs[1]], "and").unwrap();
        let nor = b.gate(GateKind::Nor, vec![xs[0], xs[1]], "nor").unwrap();
        let xor = b.gate(GateKind::Xor, vec![xs[0], xs[1]], "xor").unwrap();
        b.output(and);
        b.output(nor);
        b.output(xor);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        assert!((cop.c1(and) - 0.25).abs() < 1e-12);
        assert!((cop.c1(nor) - 0.25).abs() < 1e-12);
        assert!((cop.c1(xor) - 0.5).abs() < 1e-12);
        assert!((cop.c0(and) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn exact_on_trees_vs_exhaustive_fault_sim() {
        // A mixed-kind tree; COP detection probabilities must equal the
        // exhaustive fault-simulation ground truth.
        let mut b = CircuitBuilder::new("tree");
        let xs = b.inputs(6, "x");
        let g1 = b.gate(GateKind::And, vec![xs[0], xs[1]], "g1").unwrap();
        let g2 = b.gate(GateKind::Nor, vec![xs[2], xs[3]], "g2").unwrap();
        let g3 = b.gate(GateKind::Xor, vec![xs[4], xs[5]], "g3").unwrap();
        let g4 = b.gate(GateKind::Nand, vec![g1, g2], "g4").unwrap();
        let g5 = b.gate(GateKind::Or, vec![g4, g3], "g5").unwrap();
        b.output(g5);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let universe = FaultUniverse::full(&c).unwrap();
        let exact = montecarlo::exact_detection_probabilities(&c, universe.faults()).unwrap();
        for (i, &fault) in universe.faults().iter().enumerate() {
            let est = cop.detection_probability(&c, fault);
            assert!(
                (est - exact[i]).abs() < 1e-9,
                "fault {}: cop {est} vs exact {}",
                fault.describe(&c),
                exact[i]
            );
        }
    }

    #[test]
    fn observability_through_and_chain_decays() {
        let mut b = CircuitBuilder::new("chain");
        let mut prev = b.input("x0");
        for i in 1..=4 {
            let xi = b.input(format!("x{i}"));
            prev = b
                .gate(GateKind::And, vec![prev, xi], format!("g{i}"))
                .unwrap();
        }
        b.output(prev);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let x0 = c.inputs()[0];
        // x0 must pass 4 AND gates whose side inputs have c1 = 1/2, 1/2,
        // 1/2, 1/2 — but the side inputs of later gates are gate outputs:
        // side c1s are x1..x4? No: side of g1 is x1 (0.5); side of g2 is x2
        // (0.5)… all sides are fresh inputs.  obs(x0) = 0.5^4.
        assert!((cop.observability(x0) - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn branch_observability_differs_per_pin() {
        // stem a feeds AND(a, x) and OR(a, y): branch through the AND needs
        // x=1 (0.5), through the OR needs y=0 (0.5), both outputs observed.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate(GateKind::And, vec![a, x], "g1").unwrap();
        let g2 = b.gate(GateKind::Or, vec![a, y], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        assert!((cop.branch_observability(g1, 0) - 0.5).abs() < 1e-12);
        assert!((cop.branch_observability(g1, 1) - 0.5).abs() < 1e-12);
        assert!((cop.observability(a) - 0.5).abs() < 1e-12);
        // Branch fault SA1 on a→g1: excitation c0(a)=0.5, obs 0.5.
        let f = Fault {
            site: FaultSite::Branch { gate: g1, pin: 0 },
            stuck: true,
        };
        assert!((cop.detection_probability(&c, f) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn custom_input_probabilities() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate(GateKind::And, vec![a, x], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let mut probs = HashMap::new();
        probs.insert(a, 1.0);
        let cop = CopAnalysis::with_input_probs(&c, &probs).unwrap();
        assert!((cop.c1(g) - 0.5).abs() < 1e-12);
        // x's observability is now 1 (a always non-controlling).
        assert!((cop.observability(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, vec![a], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let mut probs = HashMap::new();
        probs.insert(a, 1.5);
        assert!(CopAnalysis::with_input_probs(&c, &probs).is_err());
        let mut probs2 = HashMap::new();
        probs2.insert(g, 0.5);
        assert!(CopAnalysis::with_input_probs(&c, &probs2).is_err());
    }

    #[test]
    fn xor_propagates_transparently() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(3, "x");
        let root = b.balanced_tree(GateKind::Xor, &xs, "p").unwrap();
        b.output(root);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        for &x in c.inputs() {
            assert!((cop.observability(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unobserved_logic_has_zero_observability() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let dead = b.gate(GateKind::Not, vec![a], "dead").unwrap();
        let g = b.gate(GateKind::Buf, vec![a], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        assert_eq!(cop.observability(dead), 0.0);
        assert_eq!(cop.detection_probability(&c, Fault::stem_sa0(dead)), 0.0);
    }

    #[test]
    fn wide_gate_pin_factors_with_zero_side() {
        // One side input is constant 0: other pins of the AND have factor 0
        // but the constant's own pin keeps a nonzero factor.
        let mut b = CircuitBuilder::new("c");
        let zero = b.constant(false, "zero").unwrap();
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate(GateKind::And, vec![zero, x, y], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        assert_eq!(cop.observability(x), 0.0);
        assert!((cop.branch_observability(g, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diamond_approximation_is_bounded() {
        // Reconvergence: y = AND(a, NOT(a)) ≡ 0. COP is approximate but
        // must stay within [0, 1].
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let na = b.gate(GateKind::Not, vec![a], "na").unwrap();
        let y = b.gate(GateKind::And, vec![a, na], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        assert!((cop.c1(y) - 0.25).abs() < 1e-12); // approximation, truly 0
        for id in c.node_ids() {
            assert!(cop.observability(id) >= 0.0 && cop.observability(id) <= 1.0);
            assert!(cop.c1(id) >= 0.0 && cop.c1(id) <= 1.0);
        }
    }
}
