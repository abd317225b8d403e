//! STAFAN-style statistical testability analysis.
//!
//! Where COP *computes* probabilities assuming signal independence, STAFAN
//! (Jain & Agrawal, 1985) *measures* them: signal probabilities come from
//! logic-simulating a sample of random patterns, and per-pin sensitisation
//! frequencies — the probability that a gate's side inputs hold
//! non-controlling values — are counted rather than derived. The backward
//! observability pass then chains measured frequencies, so first-order
//! input correlations (the thing COP gets wrong under reconvergent fanout)
//! are captured for free.
//!
//! On fanout-free circuits STAFAN converges to COP as the sample grows;
//! on reconvergent circuits it is usually the better estimate — the
//! property tests quantify both statements.

use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};
use tpi_sim::{Fault, FaultSite, LogicSim, PatternSource};

/// Statistical (simulation-measured) testability measures.
///
/// # Example
///
/// ```
/// use tpi_netlist::bench_format::parse_bench;
/// use tpi_sim::RandomPatterns;
/// use tpi_testability::StafanAnalysis;
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nOUTPUT(y)\n")?;
/// let mut src = RandomPatterns::new(2, 7);
/// let stafan = StafanAnalysis::estimate(&c, &mut src, 64_000)?;
/// let y = c.outputs()[0];
/// assert!((stafan.c1(y) - 0.25).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct StafanAnalysis {
    c1: Vec<f64>,
    obs: Vec<f64>,
    pin_obs: Vec<Vec<f64>>,
    patterns: u64,
}

impl StafanAnalysis {
    /// Measure over `n_patterns` patterns from `source`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn estimate(
        circuit: &Circuit,
        source: &mut dyn PatternSource,
        n_patterns: u64,
    ) -> Result<StafanAnalysis, NetlistError> {
        let sim = LogicSim::new(circuit)?;
        let topo = Topology::of(circuit)?;
        let n = circuit.node_count();
        let mut one_counts = vec![0u64; n];
        // Per gate, per pin: patterns where all *other* pins hold
        // non-controlling values.
        let mut sens_counts: Vec<Vec<u64>> = circuit
            .node_ids()
            .map(|id| vec![0u64; circuit.fanins(id).len()])
            .collect();

        let mut words = vec![0u64; circuit.inputs().len()];
        let mut values = vec![0u64; n];
        let mut applied = 0u64;
        while applied < n_patterns {
            let filled = source.fill(&mut words) as u64;
            if filled == 0 {
                break;
            }
            let lanes = filled.min(n_patterns - applied);
            let mask = if lanes >= 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            sim.simulate_into(&words, &mut values);
            for id in circuit.node_ids() {
                one_counts[id.index()] += u64::from((values[id.index()] & mask).count_ones());
                let node = circuit.node(id);
                let sens = &mut sens_counts[id.index()];
                match node.kind() {
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                        // For pin p: all other pins at non-controlling
                        // value. Compute via prefix/suffix masks.
                        let noncontrolling: Vec<u64> = node
                            .fanins()
                            .iter()
                            .map(|f| {
                                let v = values[f.index()];
                                if node.kind().controlling_value() == Some(false) {
                                    v // AND-like: non-controlling = 1
                                } else {
                                    !v
                                }
                            })
                            .collect();
                        let k = noncontrolling.len();
                        let mut prefix = vec![u64::MAX; k + 1];
                        for i in 0..k {
                            prefix[i + 1] = prefix[i] & noncontrolling[i];
                        }
                        let mut suffix = vec![u64::MAX; k + 1];
                        for i in (0..k).rev() {
                            suffix[i] = suffix[i + 1] & noncontrolling[i];
                        }
                        for p in 0..k {
                            let m = prefix[p] & suffix[p + 1] & mask;
                            sens[p] += u64::from(m.count_ones());
                        }
                    }
                    GateKind::Buf | GateKind::Not | GateKind::Xor | GateKind::Xnor => {
                        // Always sensitised.
                        for s in sens.iter_mut() {
                            *s += lanes;
                        }
                    }
                    _ => {}
                }
            }
            applied += lanes;
        }
        let denom = applied.max(1) as f64;
        let c1: Vec<f64> = one_counts.iter().map(|&c| c as f64 / denom).collect();

        // Backward observability pass with measured sensitisation ratios.
        let mut obs = vec![0.0f64; n];
        let mut pin_obs: Vec<Vec<f64>> = circuit
            .node_ids()
            .map(|id| vec![0.0; circuit.fanins(id).len()])
            .collect();
        for &o in circuit.outputs() {
            obs[o.index()] = 1.0;
        }
        for &id in topo.order().iter().rev() {
            let node = circuit.node(id);
            if node.kind().is_source() {
                continue;
            }
            for (p, &fanin) in node.fanins().iter().enumerate() {
                let sens_ratio = sens_counts[id.index()][p] as f64 / denom;
                let branch = obs[id.index()] * sens_ratio;
                pin_obs[id.index()][p] = branch;
                if branch > obs[fanin.index()] {
                    obs[fanin.index()] = branch;
                }
            }
        }
        Ok(StafanAnalysis {
            c1,
            obs,
            pin_obs,
            patterns: applied,
        })
    }

    /// Measured 1-probability of the signal.
    pub fn c1(&self, id: NodeId) -> f64 {
        self.c1[id.index()]
    }

    /// Measured 0-probability of the signal.
    pub fn c0(&self, id: NodeId) -> f64 {
        1.0 - self.c1[id.index()]
    }

    /// Estimated observability (measured sensitisation frequencies chained
    /// along the best path).
    pub fn observability(&self, id: NodeId) -> f64 {
        self.obs[id.index()]
    }

    /// Observability of the branch line entering `gate` at `pin`.
    pub fn branch_observability(&self, gate: NodeId, pin: u32) -> f64 {
        self.pin_obs[gate.index()][pin as usize]
    }

    /// Patterns the estimate was measured over.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Estimated detection probability: excitation × observability.
    pub fn detection_probability(&self, circuit: &Circuit, fault: Fault) -> f64 {
        let line = fault.line(circuit);
        let exc = if fault.stuck {
            self.c0(line)
        } else {
            self.c1(line)
        };
        exc * match fault.site {
            FaultSite::Stem(v) => self.obs[v.index()],
            FaultSite::Branch { gate, pin } => self.pin_obs[gate.index()][pin as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CopAnalysis;
    use tpi_netlist::CircuitBuilder;
    use tpi_sim::RandomPatterns;

    #[test]
    fn converges_to_cop_on_trees() {
        let mut b = CircuitBuilder::new("t");
        let xs = b.inputs(6, "x");
        let a = b.balanced_tree(GateKind::And, &xs[..3], "a").unwrap();
        let o = b.balanced_tree(GateKind::Nor, &xs[3..], "o").unwrap();
        let y = b.gate(GateKind::Xor, vec![a, o], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let mut src = RandomPatterns::new(6, 11);
        let stafan = StafanAnalysis::estimate(&c, &mut src, 120_000).unwrap();
        for id in c.node_ids() {
            assert!(
                (cop.c1(id) - stafan.c1(id)).abs() < 0.01,
                "c1({}): cop {} stafan {}",
                c.node_name(id),
                cop.c1(id),
                stafan.c1(id)
            );
            assert!(
                (cop.observability(id) - stafan.observability(id)).abs() < 0.01,
                "obs({}): cop {} stafan {}",
                c.node_name(id),
                cop.observability(id),
                stafan.observability(id)
            );
        }
    }

    #[test]
    fn captures_correlation_cop_misses() {
        // y = AND(x, NOT(x)) is constant 0. COP says c1 = 0.25; STAFAN
        // measures 0.
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let y = b.gate(GateKind::And, vec![x, nx], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let mut src = RandomPatterns::new(1, 3);
        let stafan = StafanAnalysis::estimate(&c, &mut src, 10_000).unwrap();
        assert!((cop.c1(y) - 0.25).abs() < 1e-12, "COP's known blind spot");
        assert_eq!(stafan.c1(y), 0.0, "STAFAN measures the truth");
    }

    #[test]
    fn detection_probability_close_to_ground_truth_on_dag() {
        use tpi_sim::{montecarlo, FaultUniverse};
        let c = tpi_gen_free_dag();
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let exact = montecarlo::exact_detection_probabilities(&c, universe.faults()).unwrap();
        let mut src = RandomPatterns::new(c.inputs().len(), 13);
        let stafan = StafanAnalysis::estimate(&c, &mut src, 60_000).unwrap();
        let mut total_err = 0.0;
        for (i, &fault) in universe.faults().iter().enumerate() {
            total_err += (stafan.detection_probability(&c, fault) - exact[i]).abs();
        }
        let mean_err = total_err / universe.len() as f64;
        assert!(mean_err < 0.08, "mean error {mean_err}");
    }

    /// A small reconvergent circuit (built inline — `tpi-gen` would be a
    /// dependency cycle).
    fn tpi_gen_free_dag() -> Circuit {
        let mut b = CircuitBuilder::new("dag");
        let xs = b.inputs(4, "x");
        let g1 = b.gate(GateKind::And, vec![xs[0], xs[1]], "g1").unwrap();
        let g2 = b.gate(GateKind::Or, vec![g1, xs[2]], "g2").unwrap();
        let g3 = b.gate(GateKind::Nand, vec![g1, xs[3]], "g3").unwrap();
        let y = b.gate(GateKind::Xor, vec![g2, g3], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn patterns_reported() {
        let c = tpi_gen_free_dag();
        let mut src = RandomPatterns::new(4, 1);
        let s = StafanAnalysis::estimate(&c, &mut src, 130).unwrap();
        assert_eq!(s.patterns(), 130);
    }
}
