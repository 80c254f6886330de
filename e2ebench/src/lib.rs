//! End-to-end and per-stage benchmark of the why-not explanation service.
//!
//! See `README.md` beside this crate for the workloads, the metrics and the
//! layer each metric belongs to.

pub mod openloop;
pub mod replay;
pub mod run;
pub mod server;
pub mod stats;
pub mod workload;
