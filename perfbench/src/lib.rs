//! Host-time benchmark of the ISP border-handling reproduction.
//!
//! Four workloads run against the public API of the default configuration
//! and report host wall time and memory end to end; a separate traced run
//! re-drives the same ops layer by layer. See `perfbench/README.md`.

pub mod layers;
pub mod redrive;
pub mod run;
pub mod stats;
pub mod workloads;
