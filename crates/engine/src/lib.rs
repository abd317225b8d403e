//! Incremental test-point-insertion engine.
//!
//! `tpi-engine` wraps the workspace's analyses and optimizers in a
//! **long-lived session** ([`TpiEngine`]): open a circuit once, then
//! query, edit and optimize it repeatedly while the engine keeps every
//! derived artifact cached and consistent.
//!
//! * **Analysis caching** — topology, COP profile and FFR decomposition
//!   are rebuilt at most once per netlist version
//!   ([`Circuit::version`](tpi_netlist::Circuit::version) keys the
//!   invalidation);
//! * **Measurement caching** — the coverage measurement is computed at
//!   most once per netlist version; a test-point insertion invalidates
//!   it, and the next measurement simulates the edited circuit from
//!   scratch;
//! * **DP memoization** — region subproblems are fingerprinted and their
//!   solutions replayed across rounds and edits;
//! * **Batch/serve front ends** — [`batch`] runs N×M job manifests across
//!   a worker pool with per-job timeout and panic isolation, emitting
//!   JSONL; [`serve`] answers line-delimited JSON requests for
//!   long-running driver processes. Both rest on the dependency-free
//!   [`json`] module.
//! * **Crash-safe sharded execution** — [`schema`] owns the versioned
//!   checkpoint/summary/metrics formats: atomic header creation, fsynced
//!   round boundaries, torn-tail recovery, a deterministic `--shard i/n`
//!   manifest partition and the no-coordinator `tpi merge` that
//!   recombines shard checkpoints byte-deterministically.
//!
//! # Example
//!
//! ```
//! use tpi_engine::{EngineConfig, TpiEngine};
//! use tpi_netlist::{CircuitBuilder, GateKind, TestPoint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new("cone");
//! let xs = b.inputs(8, "x");
//! let root = b.balanced_tree(GateKind::And, &xs, "g")?;
//! b.output(root);
//! let mut engine = TpiEngine::new(b.finish()?, EngineConfig::default())?;
//!
//! let before = engine.coverage()?;
//! assert_eq!(engine.coverage()?, before); // cached: no second run
//! engine.apply(TestPoint::control_or(root))?; // invalidates the measurement
//! assert!(engine.coverage()? >= before); // measured from scratch
//! assert_eq!(engine.stats().full_sims, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod engine;
pub mod json;
mod memo;
pub mod schema;
pub mod serve;

pub use engine::{Analyses, EngineConfig, EngineStats, OptimizeConfig, TpiEngine};
pub use memo::{SharedDpMemo, SharedMemoConfig};
pub use tpi_sim::{RunControl, StopReason};
