//! Deterministic test pattern generation (PODEM) for single stuck-at
//! faults.
//!
//! The DAC'87-era TPI flow brackets random-pattern analysis with
//! deterministic ATPG twice: **before** insertion, redundant
//! (untestable) faults are removed from the target list — no test point
//! can help them — and **after** insertion, the few remaining hard faults
//! can be topped off with stored deterministic cubes (the reseeding
//! strategy). This crate supplies both:
//!
//! * [`Podem`] — a classic PODEM implementation over the dual-ternary
//!   (good, faulty) value encoding, with SCOAP-guided backtrace and a
//!   configurable backtrack limit. Implication is event-driven: each
//!   decision propagates forward from its primary input over a flat,
//!   topologically numbered netlist holding both machines' values in
//!   one byte per line, and backtracking restores values from an undo
//!   trail. Returns a [`TestCube`], a proof of untestability, or an
//!   abort;
//! * [`redundancy`] — sweep a fault list into testable / redundant /
//!   aborted classes;
//! * [`topoff`] — generate a compact cube set covering a fault list, with
//!   fault-simulation-based dropping (the "how many seeds" question).
//!
//! # Example
//!
//! ```
//! use tpi_netlist::bench_format::parse_bench;
//! use tpi_sim::Fault;
//! use tpi_atpg::{Podem, PodemResult};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = parse_bench("INPUT(a)\nINPUT(b)\ny = AND(a, b)\nOUTPUT(y)\n")?;
//! let y = c.outputs()[0];
//! let mut podem = Podem::new(&c)?;
//! match podem.generate(Fault::stem_sa0(y))? {
//!     PodemResult::Test(cube) => {
//!         // SA0 at the AND output needs both inputs at 1.
//!         assert_eq!(cube.assignment(&c), vec![Some(true), Some(true)]);
//!     }
//!     other => panic!("expected a test, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod cube;
mod podem;
pub mod redundancy;
pub mod topoff;
mod value;

pub use counters::AtpgCounters;
pub use cube::TestCube;
pub use podem::{Podem, PodemConfig, PodemResult};
pub use value::Ternary;
