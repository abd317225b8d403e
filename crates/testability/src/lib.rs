//! Testability measures for random-pattern test: COP, SCOAP, detection
//! probabilities and test-length arithmetic.
//!
//! The dynamic-programming test point inserter in `tpi-core` reasons about
//! *detection probabilities*: the chance that one random pattern both
//! excites a stuck-at fault and propagates its effect to an observed
//! output. This crate provides:
//!
//! * [`CopAnalysis`] — COP-style signal probabilities and observabilities.
//!   **Exact on fanout-free (tree) circuits** (signals in disjoint subtrees
//!   are independent); the usual first-order approximation elsewhere;
//! * [`ScoapAnalysis`] — classic SCOAP integer controllability /
//!   observability, for period-appropriate comparisons;
//! * [`detect`] — per-fault detection probabilities and random-pattern-
//!   resistance screens built on COP;
//! * [`testlen`] — escape probability ↔ test length ↔ detection-threshold
//!   conversions;
//! * [`profile`] — whole-circuit testability reports for benchmark tables.
//!
//! # Example
//!
//! ```
//! use tpi_netlist::{CircuitBuilder, GateKind};
//! use tpi_testability::CopAnalysis;
//!
//! # fn main() -> Result<(), tpi_netlist::NetlistError> {
//! let mut b = CircuitBuilder::new("and4");
//! let xs = b.inputs(4, "x");
//! let root = b.balanced_tree(GateKind::And, &xs, "g")?;
//! b.output(root);
//! let c = b.finish()?;
//!
//! let cop = CopAnalysis::new(&c)?;
//! assert!((cop.c1(root) - 0.0625).abs() < 1e-12); // 2^-4
//! assert_eq!(cop.observability(root), 1.0);       // it is the output
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cop;
pub mod cop_delta;
pub mod detect;
pub mod profile;
mod scoap;
pub mod testlen;

pub use cop::CopAnalysis;
pub use cop_delta::CopProbe;
pub use scoap::ScoapAnalysis;
