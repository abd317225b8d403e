//! # krishnamurthy-tpi
//!
//! A workspace-level facade for the reproduction of
//! *B. Krishnamurthy, "A Dynamic Programming Approach to the Test Point
//! Insertion Problem", DAC 1987*.
//!
//! This crate re-exports the workspace members so examples, integration
//! tests and downstream users can depend on a single package:
//!
//! * [`netlist`] — circuits, `.bench` I/O, structural analysis, test-point
//!   transforms ([`tpi_netlist`]);
//! * [`sim`] — bit-parallel logic & fault simulation, LFSR/MISR
//!   ([`tpi_sim`]);
//! * [`testability`] — COP/SCOAP measures, detection probabilities
//!   ([`tpi_testability`]);
//! * [`core`] — the dynamic-programming test point inserter and its
//!   baselines ([`tpi_core`]);
//! * [`engine`] — the long-lived session engine with analysis and
//!   measurement caching, a DP memo and batch/serve front ends
//!   ([`tpi_engine`]);
//! * [`server`] — the concurrent multi-session front end: unix/TCP
//!   line-JSON listener, admission control, graceful drain and the
//!   shared cross-session DP memo ([`tpi_server`]);
//! * [`obs`] — the zero-dependency observability layer (counters,
//!   histograms, scoped timers, snapshots) every other layer reports
//!   into ([`tpi_obs`]);
//! * [`compaction`] — the pattern-count objective: test-cube conflict
//!   analysis and control-point placement minimising the compacted
//!   deterministic test set ([`tpi_compaction`]);
//! * [`gen`] — circuit generators and embedded benchmarks ([`tpi_gen`]).
//!
//! # Quickstart
//!
//! ```
//! use krishnamurthy_tpi::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A random-pattern-resistant circuit: a wide AND cone.
//! let circuit = krishnamurthy_tpi::gen::rpr::and_tree(8, 2)?;
//!
//! // Ask the DP for a minimum-cost plan reaching detection probability
//! // 2^-10 for every stuck-at fault.
//! let problem = TpiProblem::min_cost(&circuit, Threshold::from_log2(-10.0))?;
//! let plan = DpOptimizer::new(DpConfig::default()).solve(&problem)?;
//!
//! // Apply and verify by fault simulation.
//! let (modified, _) = apply_plan(&circuit, plan.test_points())?;
//! # let _ = modified;
//! # Ok(())
//! # }
//! ```

pub use tpi_atpg as atpg;
pub use tpi_compaction as compaction;
pub use tpi_core as core;
pub use tpi_engine as engine;
pub use tpi_gen as gen;
pub use tpi_netlist as netlist;
pub use tpi_obs as obs;
pub use tpi_server as server;
pub use tpi_sim as sim;
pub use tpi_testability as testability;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use tpi_atpg::{Podem, PodemConfig, PodemResult, TestCube};
    pub use tpi_compaction::{PatternsConfig, PatternsOptimizer};
    pub use tpi_core::{
        evaluate::PlanEvaluator, DpConfig, DpOptimizer, ExactOptimizer, GreedyConfig,
        GreedyOptimizer, Plan, RandomOptimizer, Threshold, TpiProblem,
    };
    pub use tpi_engine::{EngineConfig, OptimizeConfig, TpiEngine};
    pub use tpi_netlist::transform::apply_plan;
    pub use tpi_netlist::{
        Circuit, CircuitBuilder, GateKind, NodeId, TestPoint, TestPointKind, Topology,
    };
    pub use tpi_sim::{
        FaultSimulator, FaultUniverse, LfsrPatterns, PatternSource, RandomPatterns,
        WeightedPatterns,
    };
    pub use tpi_testability::{CopAnalysis, ScoapAnalysis};
}
