use std::fmt;

use tpi_netlist::{Circuit, NodeId};
use tpi_sim::Fault;
use tpi_testability::CopAnalysis;

use crate::{CostModel, TpiError};

/// A per-pattern detection-probability threshold `δ ∈ (0, 1]`.
///
/// Every targeted fault must be detectable by one random pattern with
/// probability at least `δ`. Construct from a raw probability, from a
/// log₂ exponent, or from a BIST test-length budget.
///
/// # Example
///
/// ```
/// use tpi_core::Threshold;
/// let a = Threshold::new(0.0625).unwrap();
/// let b = Threshold::from_log2(-4.0);
/// assert!((a.value() - b.value()).abs() < 1e-12);
/// // δ implied by "98% per-fault confidence within 32k patterns":
/// let c = Threshold::from_test_length(32_000, 0.98).unwrap();
/// assert!(c.value() < 1e-3);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, PartialOrd)]
pub struct Threshold(f64);

impl Threshold {
    /// A threshold from a raw probability in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// [`TpiError::InvalidParameter`] outside `(0, 1]`.
    pub fn new(delta: f64) -> Result<Threshold, TpiError> {
        if delta > 0.0 && delta <= 1.0 && delta.is_finite() {
            Ok(Threshold(delta))
        } else {
            Err(TpiError::InvalidParameter {
                message: format!("threshold {delta} outside (0, 1]"),
            })
        }
    }

    /// `δ = 2^exponent` for `exponent ≤ 0` (use
    /// [`try_from_log2`](Threshold::try_from_log2) for untrusted input).
    ///
    /// # Panics
    ///
    /// Panics if `exponent > 0`.
    pub fn from_log2(exponent: f64) -> Threshold {
        assert!(exponent <= 0.0, "threshold exponent must be ≤ 0");
        Threshold(2f64.powf(exponent))
    }

    /// `δ = 2^exponent`, refusing every exponent whose δ falls outside
    /// [`new`](Threshold::new)'s `(0, 1]`: NaN, `exponent > 0`, and
    /// exponents so negative that δ underflows to 0.
    ///
    /// # Errors
    ///
    /// [`TpiError::InvalidParameter`] naming the exponent.
    pub fn try_from_log2(exponent: f64) -> Result<Threshold, TpiError> {
        Threshold::new(2f64.powf(exponent)).map_err(|_| TpiError::InvalidParameter {
            message: format!("threshold exponent {exponent}: δ = 2^{exponent} is outside (0, 1]"),
        })
    }

    /// The threshold implied by an `l`-pattern test with per-fault
    /// confidence `confidence` (see
    /// [`tpi_testability::testlen::threshold_for_length`]).
    ///
    /// # Errors
    ///
    /// [`TpiError::InvalidParameter`] for `l == 0` or confidence outside
    /// `(0, 1)`.
    pub fn from_test_length(l: u64, confidence: f64) -> Result<Threshold, TpiError> {
        if l == 0 || confidence <= 0.0 || confidence >= 1.0 {
            return Err(TpiError::InvalidParameter {
                message: format!("bad test length {l} / confidence {confidence}"),
            });
        }
        Threshold::new(tpi_testability::testlen::threshold_for_length(
            l, confidence,
        ))
    }

    /// The raw probability.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{:.2}", self.0.log2())
    }
}

/// One targeted stuck-at fault: the stem fault of `node` stuck at
/// `stuck`.
///
/// The optimizers target *stem* faults of the original circuit. On
/// fanout-free circuits these are all the faults there are; on general
/// circuits branch faults are handled by the simulation-driven outer loop.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TargetFault {
    /// The node whose output line is faulted.
    pub node: NodeId,
    /// The stuck value.
    pub stuck: bool,
}

impl TargetFault {
    /// View as a simulator fault.
    pub fn to_fault(self) -> Fault {
        Fault {
            site: tpi_sim::FaultSite::Stem(self.node),
            stuck: self.stuck,
        }
    }
}

/// A test-point-insertion problem instance: circuit, threshold, cost model
/// and the set of targeted faults.
#[derive(Clone, Debug)]
pub struct TpiProblem {
    circuit: Circuit,
    threshold: Threshold,
    costs: CostModel,
    targets: Vec<TargetFault>,
    input_probs: std::collections::HashMap<NodeId, f64>,
}

impl TpiProblem {
    /// The `MinCost(δ)` instance over **all excitable stem faults** of the
    /// circuit: minimise test-point cost such that every stem fault with
    /// nonzero excitation probability reaches detection probability `δ`.
    ///
    /// Faults with zero excitation probability (lines tied by constants)
    /// are excluded: no insertion at or above the line can excite them.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] for cyclic circuits.
    pub fn min_cost(circuit: &Circuit, threshold: Threshold) -> Result<TpiProblem, TpiError> {
        let cop = CopAnalysis::new(circuit)?;
        let mut targets = Vec::with_capacity(circuit.node_count() * 2);
        for id in circuit.node_ids() {
            if cop.c1(id) > 0.0 {
                targets.push(TargetFault {
                    node: id,
                    stuck: false,
                });
            }
            if cop.c0(id) > 0.0 {
                targets.push(TargetFault {
                    node: id,
                    stuck: true,
                });
            }
        }
        Ok(TpiProblem {
            circuit: circuit.clone(),
            threshold,
            costs: CostModel::default(),
            targets,
            input_probs: std::collections::HashMap::new(),
        })
    }

    /// A `MinCost(δ)` instance over an explicit target set (e.g. the
    /// undetected remainder of a fault-simulation pass).
    pub fn with_targets(
        circuit: &Circuit,
        threshold: Threshold,
        targets: Vec<TargetFault>,
    ) -> TpiProblem {
        TpiProblem {
            circuit: circuit.clone(),
            threshold,
            costs: CostModel::default(),
            targets,
            input_probs: std::collections::HashMap::new(),
        }
    }

    /// Replace the cost model (builder style).
    pub fn with_costs(mut self, costs: CostModel) -> TpiProblem {
        self.costs = costs;
        self
    }

    /// Set explicit 1-probabilities for selected primary inputs (builder
    /// style). Used when a sub-circuit's boundary nets carry biased
    /// probabilities from the enclosing circuit; unlisted inputs stay at
    /// 1/2.
    pub fn with_input_probs(mut self, probs: std::collections::HashMap<NodeId, f64>) -> TpiProblem {
        self.input_probs = probs;
        self
    }

    /// The 1-probability of a primary input under this problem's pattern
    /// model (1/2 unless overridden).
    pub fn input_probability(&self, id: NodeId) -> f64 {
        self.input_probs.get(&id).copied().unwrap_or(0.5)
    }

    /// The explicit input-probability overrides.
    pub fn input_probs(&self) -> &std::collections::HashMap<NodeId, f64> {
        &self.input_probs
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The detection-probability threshold.
    pub fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// The cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The targeted faults.
    pub fn targets(&self) -> &[TargetFault] {
        &self.targets
    }

    /// Targeted stuck values for one node: `(sa0_targeted, sa1_targeted)`.
    pub fn targets_at(&self, node: NodeId) -> (bool, bool) {
        let mut t = (false, false);
        for target in &self.targets {
            if target.node == node {
                if target.stuck {
                    t.1 = true;
                } else {
                    t.0 = true;
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind};

    #[test]
    fn threshold_constructors() {
        assert!(Threshold::new(0.0).is_err());
        assert!(Threshold::new(1.5).is_err());
        assert!(Threshold::new(f64::NAN).is_err());
        assert!(Threshold::new(1.0).is_ok());
        assert!((Threshold::from_log2(-10.0).value() - 2f64.powi(-10)).abs() < 1e-15);
        assert!(Threshold::from_test_length(0, 0.5).is_err());
        assert!(Threshold::from_test_length(100, 1.0).is_err());
        let t = Threshold::from_log2(-3.0);
        assert_eq!(t.to_string(), "2^-3.00");
    }

    #[test]
    #[should_panic(expected = "threshold exponent")]
    fn positive_exponent_panics() {
        Threshold::from_log2(1.0);
    }

    #[test]
    fn try_from_log2_refuses_exponents_outside_the_unit_interval() {
        assert_eq!(
            Threshold::try_from_log2(-10.0),
            Ok(Threshold::from_log2(-10.0))
        );
        assert_eq!(Threshold::try_from_log2(0.0).map(Threshold::value), Ok(1.0));
        // The smallest subnormal δ is still a probability in (0, 1].
        assert!(Threshold::try_from_log2(-1074.0).is_ok());
        for bad in [
            f64::NAN,
            0.5,
            3.0,
            f64::INFINITY,
            -5000.0,
            f64::NEG_INFINITY,
        ] {
            let err = Threshold::try_from_log2(bad).unwrap_err();
            assert!(
                matches!(err, TpiError::InvalidParameter { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn min_cost_targets_all_excitable_faults() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(2, "x");
        let g = b.gate(GateKind::And, vec![xs[0], xs[1]], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-4.0)).unwrap();
        // 3 nodes × 2 polarities, all excitable.
        assert_eq!(p.targets().len(), 6);
        assert_eq!(p.targets_at(g), (true, true));
    }

    #[test]
    fn constant_lines_excluded() {
        let mut b = CircuitBuilder::new("c");
        let one = b.constant(true, "one").unwrap();
        let x = b.input("x");
        let g = b.gate(GateKind::And, vec![one, x], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-2.0)).unwrap();
        // `one` SA1 is unexcitable (c0 = 0): excluded. SA0 targeted.
        assert_eq!(p.targets_at(one), (true, false));
    }

    #[test]
    fn target_to_fault_round_trip() {
        let t = TargetFault {
            node: NodeId::from_index(3),
            stuck: true,
        };
        let f = t.to_fault();
        assert_eq!(f.site, tpi_sim::FaultSite::Stem(NodeId::from_index(3)));
        assert!(f.stuck);
    }
}
