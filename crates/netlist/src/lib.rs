//! Gate-level combinational netlists for design-for-test research.
//!
//! `tpi-netlist` is the structural substrate of the `krishnamurthy-tpi`
//! workspace. It provides:
//!
//! * a compact gate-level [`Circuit`] representation with named nets,
//!   primary inputs and primary outputs;
//! * a [`CircuitBuilder`] for programmatic construction;
//! * an ISCAS-85 **`.bench`** reader/writer ([`bench_format`]), including
//!   full-scan handling of `DFF` elements;
//! * structural analyses: levelisation and fanout tables ([`Topology`]),
//!   cones and statistics ([`analysis`]), fanout-free-region decomposition
//!   and reconvergence detection ([`ffr`]);
//! * **test-point transforms** ([`transform`]): observation points, AND/OR
//!   control points and full (cut) test points, applied as rewrites that
//!   keep the circuit well formed;
//! * Graphviz export ([`dot`]).
//!
//! # Example
//!
//! ```
//! use tpi_netlist::{CircuitBuilder, GateKind, bench_format};
//!
//! # fn main() -> Result<(), tpi_netlist::NetlistError> {
//! let mut b = CircuitBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.gate(GateKind::Xor, vec![a, c], "sum")?;
//! let carry = b.gate(GateKind::And, vec![a, c], "carry")?;
//! b.output(sum);
//! b.output(carry);
//! let circuit = b.finish()?;
//!
//! assert_eq!(circuit.evaluate(&[true, true])?[sum.index()], false);
//! let text = bench_format::to_bench(&circuit);
//! let back = bench_format::parse_bench(&text)?;
//! assert_eq!(back.node_count(), circuit.node_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bench_format;
mod builder;
mod circuit;
pub mod dot;
mod error;
pub mod ffr;
mod gate;
mod level;
pub mod transform;
pub mod verilog;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Node, NodeId};
pub use error::NetlistError;
pub use gate::GateKind;
pub use level::{dangling_gates, Fanout, Topology};
pub use transform::{AppliedTestPoint, TestPoint, TestPointKind};
