//! Bit-parallel logic and stuck-at fault simulation for BIST research.
//!
//! `tpi-sim` is the measurement substrate of the `krishnamurthy-tpi`
//! workspace: every test-point-insertion result is ultimately verified by
//! the fault simulator in this crate ("must write fault simulator").
//!
//! * [`LogicSim`] — bit-parallel logic simulation over
//!   [`tpi_netlist::Circuit`]s through a compiled structure-of-arrays
//!   kernel processing configurable wide blocks of
//!   `block_words × 64` patterns per pass (see [`DEFAULT_BLOCK_WORDS`]);
//! * [`PatternSource`] — pattern generation abstraction, with
//!   [`RandomPatterns`] (seeded PRNG), [`LfsrPatterns`] (hardware-faithful
//!   maximal-length LFSR), [`ExhaustivePatterns`] and
//!   [`IndependentPatterns`] (per-input counter streams, stable under
//!   input insertion — the session engine's source) implementations;
//! * [`Misr`] — multiple-input signature register for response compaction;
//! * [`Fault`], [`FaultUniverse`], [`collapse`] — single-stuck-at fault
//!   model with structural equivalence collapsing;
//! * [`FaultSimulator`] — parallel-pattern fault simulation with fault
//!   dropping, either event-driven per fault (PPSFP) or via critical
//!   path tracing over fanout-free regions (see [`DetectionMode`]);
//! * [`montecarlo`] — detection-probability estimation (sampled and
//!   exhaustive) and node-level propagation profiles;
//! * [`RunControl`] — cooperative cancellation/deadline/budget token
//!   polled per pattern block, yielding anytime
//!   [`ControlledRun`] results (see
//!   [`FaultSimulator::run_controlled`]).
//!
//! # Example: fault coverage of `c17` under 1 000 LFSR patterns
//!
//! ```
//! use tpi_netlist::bench_format::parse_bench;
//! use tpi_sim::{FaultSimulator, FaultUniverse, LfsrPatterns};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c17 = parse_bench(
//!     "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
//!      OUTPUT(22)\nOUTPUT(23)\n\
//!      10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
//!      19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
//! )?;
//! let universe = FaultUniverse::collapsed(&c17)?;
//! let mut sim = FaultSimulator::new(&c17)?;
//! let mut patterns = LfsrPatterns::new(c17.inputs().len(), 0xace1)?;
//! let result = sim.run(&mut patterns, 1000, universe.faults())?;
//! assert!(result.coverage() > 0.99); // c17 is easy
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod collapse;
mod compile;
mod control;
mod coverage;
mod fault;
mod fsim;
mod lfsr;
mod logic;
mod metrics;
mod misr;
pub mod montecarlo;
pub mod parallel;
mod patterns;
mod weighted;

pub use candidate::{score_candidate_groups, BatchScores, GroupScore};
pub use compile::{block_words_supported, DEFAULT_BLOCK_WORDS, MAX_BLOCK_WORDS};
pub use control::{ControlledRun, RunControl, StopReason};
pub use coverage::{CoveragePoint, FaultSimResult};
pub use fault::{Fault, FaultSite, FaultUniverse};
pub use fsim::{BackendChoice, DetectionMode, FaultSimulator, SimOptions, SimdBackend};
pub use lfsr::{Lfsr, LfsrPatterns};
pub use logic::LogicSim;
pub use metrics::SimCounters;
pub use misr::Misr;
pub use patterns::{ExhaustivePatterns, IndependentPatterns, PatternSource, RandomPatterns};
pub use weighted::WeightedPatterns;
