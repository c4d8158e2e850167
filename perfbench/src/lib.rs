//! The serving benchmark: three workloads driven through
//! `autoscale::serve::serve()`, and a stage-traced replay of the same
//! sessions that must reproduce `serve()`'s reports bit for bit.
//!
//! See `NOTES.md` beside this crate for the workloads, the metric →
//! layer → workload map and where the time goes.

pub mod replay;
pub mod run;
pub mod spans;
pub mod workloads;
