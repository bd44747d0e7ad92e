//! # spc-cachesim — cache-hierarchy simulator
//!
//! Deterministic model of the x86 memory subsystems the paper evaluates on
//! (Nehalem, Sandy Bridge, Broadwell): set-associative LRU caches, the
//! demand-miss path, the hardware prefetchers the paper's analysis hinges on
//! (L1 next-line; L2 adjacent-line pair + ascending streamer), and a
//! *simulated hot-caching heater* that periodically refreshes registered
//! regions into the shared last-level cache.
//!
//! The simulator consumes the access traces produced by `spc-core`'s
//! [`spc_core::sink::AccessSink`] instrumentation, so the same match-list
//! code that runs natively is what gets measured here.
//!
//! Why a simulator: the paper's cross-architecture findings (the
//! 8-entries-per-array prefetch knee, Sandy Bridge's unified-clock L3
//! making hot caching profitable while Broadwell's decoupled higher-latency
//! L3 makes it a loss) are properties of specific multi-core cache
//! hierarchies that the reproduction host does not have. The model makes
//! them reproducible arithmetic. The repo benchmark (`benchmark/`)
//! complements it with real-machine numbers for the structures themselves.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod costmodel;
pub mod hierarchy;
mod linemap;
pub mod prefetch;

pub use cache::CacheLevel;
pub use config::{ArchProfile, CacheConfig};
pub use costmodel::{CostModel, LocalityConfig, Structure};
pub use hierarchy::{HeatLevel, HotCacheConfig, MemSim, MemStats, NetPlacement};
