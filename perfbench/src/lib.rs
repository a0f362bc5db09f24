//! # automode-perfbench
//!
//! The repository's end-to-end benchmark. One command starts the sweep
//! service in-process, drives it over loopback with a fixed, seeded
//! request list, checks every response, and prints every metric by name
//! and unit. A separate traced run replays requests through the same
//! public layer functions the service calls and reports where the time
//! went. `BENCHMARK.json` at the repository root lists the workloads and
//! metrics and says why each was chosen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod host;
mod replay;
pub mod run;
mod stats;
mod workload;
