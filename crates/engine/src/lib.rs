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
//! * **Dirty-cone incremental re-simulation** — after a test-point
//!   insertion, only faults structurally entangled with the edit are
//!   re-simulated ([`dirty_line_mask`](tpi_netlist::analysis::dirty_line_mask)
//!   documents the rule); the merged result is bit-identical to a
//!   from-scratch run, provable at runtime via
//!   [`EngineConfig::verify_incremental`];
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
//! engine.apply(TestPoint::control_or(root))?; // incremental re-measure
//! assert!(engine.coverage()? >= before);
//! assert_eq!(engine.stats().incremental_sims, 1);
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
