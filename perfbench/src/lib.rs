//! End-to-end benchmark driver for the test point insertion toolkit.
//!
//! A run generates one workload's inputs from a seed, then runs passes
//! over them back to back (closed loop, one job at a time) for a fixed
//! time. Each job makes the public calls `tpi insert` makes ([`job`]);
//! traced passes wrap a span around each call ([`trace`]) and read the
//! program's own `Registry` counters ([`pass`]). See `README.md` beside
//! this crate.

pub mod job;
pub mod pass;
pub mod trace;
pub mod workload;
