//! # isp-sim
//!
//! A deterministic SIMT GPU simulator — the substitute for the paper's
//! GTX680/RTX2080 testbed. It executes [`isp_ir`] kernels with the execution
//! model that makes iteration space partitioning interesting:
//!
//! - threads grouped into 32-lane **warps** executing in lockstep, with
//!   divergence serialised and reconverged at immediate post-dominators;
//! - threadblocks dispatched onto **streaming multiprocessors** whose
//!   concurrency is bounded by **theoretical occupancy** (registers, warps,
//!   block slots) — the cost side of the paper's analytic model;
//! - global memory accesses **coalesced** into 128-byte transactions;
//! - a wave/tail-aware block scheduler producing cycle counts, plus
//!   second-order effects (launch overhead, instruction-fetch penalty when
//!   an SM alternates between fat-kernel regions) that the paper's analytic
//!   model deliberately does not capture — these produce the paper's
//!   "misprediction near the crossover" behaviour.
//!
//! Two modes:
//! - `SimMode::Exhaustive` interprets every warp of every block:
//!   produces pixels + exact counters (correctness tests, small images);
//! - `SimMode::RegionSampled` interprets one representative block per block
//!   class and extrapolates: same counters for uniform classes at a tiny
//!   fraction of the cost (benches, large images).

pub mod artifact;
pub mod counters;
pub mod decode;
pub mod device;
pub mod error;
pub mod interp;
pub mod launch;
pub mod memory;
pub mod occupancy;
pub mod profile;
pub mod rows;
pub mod scheduler;
pub mod trace;

pub use artifact::{DiskCache, DiskCacheStats, CACHE_FORMAT_VERSION};
pub use counters::PerfCounters;
pub use decode::{
    decode, decode_with_fusion, kernel_fingerprint, run_block_decoded, run_decoded,
    DecodedBlockCtx, DecodedKernel, DecodedScratch, FlatCounters, FusionStats,
};
pub use device::{DeviceSpec, GpuArch};
pub use error::SimError;
pub use interp::WARP;
pub use launch::{
    DecodeStats, ExecEngine, ExecStrategy, Gpu, LaunchConfig, LaunchReport, ParamValue, SimMode,
    TraceStats,
};
pub use memory::{DeviceBuffer, TexAddressMode, TexDesc};
pub use occupancy::{occupancy, Limiter, LimiterSet, OccupancyResult};
pub use rows::{set_simd_enabled, simd_enabled};
pub use scheduler::Timing;
pub use trace::DeoptReason;
