//! Dynamic-programming test point insertion — the primary contribution of
//! *B. Krishnamurthy, "A Dynamic Programming Approach to the Test Point
//! Insertion Problem", DAC 1987* — together with the baselines it is
//! evaluated against.
//!
//! # The problem
//!
//! Given a combinational circuit under pseudo-random test, insert
//! observation points, AND/OR control points and full (cut) test points
//! ([`tpi_netlist::TestPointKind`]) of minimum total cost such that every
//! targeted stuck-at fault reaches a per-pattern detection probability of
//! at least a threshold `δ` ([`Threshold`]). The threshold encodes a BIST
//! test-length budget via
//! [`tpi_testability::testlen::threshold_for_length`].
//!
//! # What this crate provides
//!
//! * [`TpiProblem`] / [`Threshold`] / [`CostModel`] / [`Plan`] — the
//!   problem and solution vocabulary;
//! * [`DpOptimizer`] — the bottom-up dynamic program, **optimal on
//!   fanout-free circuits** (exactly in [`DpConfig::exact`] mode, within
//!   the discretisation otherwise);
//! * [`GreedyOptimizer`] / [`RandomOptimizer`] — the baselines;
//! * [`ExactOptimizer`] — branch-and-bound exhaustive search, used both to
//!   certify DP optimality on small instances and to exhibit the
//!   exponential cost of the general problem;
//! * [`general`] — region extraction and candidate gathering for the
//!   fanout-free-region loop that deploys the DP inside general (NP-hard)
//!   circuits (the loop itself is `tpi_engine::TpiEngine::optimize`);
//! * [`cover`] — covering-style observation-point selection from
//!   simulated propagation profiles;
//! * [`reduction`] — the verified Set-Cover ⟶ observation-TPI reduction
//!   behind the NP-hardness result;
//! * [`evaluate::PlanEvaluator`] — the shared analytic/simulation plan
//!   assessor that all optimizers are scored against.
//!
//! # Example
//!
//! ```
//! use tpi_core::{DpConfig, DpOptimizer, Threshold, TpiProblem};
//! use tpi_core::evaluate::PlanEvaluator;
//! use tpi_netlist::{CircuitBuilder, GateKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8-wide AND cone: the root SA0 has detection probability 2^-8.
//! let mut b = CircuitBuilder::new("and8");
//! let xs = b.inputs(8, "x");
//! let root = b.balanced_tree(GateKind::And, &xs, "g")?;
//! b.output(root);
//! let circuit = b.finish()?;
//!
//! let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-4.0))?;
//! let plan = DpOptimizer::new(DpConfig::default()).solve(&problem)?;
//! assert!(!plan.test_points().is_empty());
//!
//! // The plan, re-checked analytically, meets the threshold.
//! let eval = PlanEvaluator::new(&problem)?.evaluate(plan.test_points())?;
//! assert!(eval.feasible);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod cover;
mod dp;
mod error;
pub mod evaluate;
mod exact;
pub mod general;
mod greedy;
mod plan;
mod problem;
mod random;
pub mod reduction;
pub mod report;

pub use cost::CostModel;
pub use dp::{DpConfig, DpOptimizer, DpStats};
pub use error::TpiError;
pub use exact::{ExactOptimizer, ExactStats};
pub use general::CandidateEval;
pub use greedy::{GreedyConfig, GreedyOptimizer, GreedyStats};
pub use plan::Plan;
pub use problem::{TargetFault, Threshold, TpiProblem};
pub use random::RandomOptimizer;
pub use tpi_sim::{RunControl, StopReason};
