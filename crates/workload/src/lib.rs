//! # spc-workload — service-shaped traffic for the matching engine
//!
//! Everything the repo drove before this crate was an HPC motif: fixed
//! neighbour exchanges, uniform partners, lockstep phases. The paper's
//! claims, though, are about *network processing* — and the north star
//! ("millions of users") means skewed popularity, not barriers. This crate
//! supplies that load shape: [`zipf`] — Zipf-skewed source popularity with
//! optional hot-key *churn* (the hot set rotates mid-run, the way front-end
//! traffic shifts), degenerating to uniform at exponent 0. `benchmark/`'s
//! `shallow_churn` workload is built on its [`RequestGen`].
//!
//! Determinism is inherited from `spc-rng`: a request stream is
//! reproducible from its config alone.

#![warn(missing_docs)]

pub mod zipf;

pub use zipf::{Churn, Popularity, RequestGen, TrafficCfg, ZipfSampler};

/// One service request: a message flow from `source` with `tag`.
///
/// `unexpected` selects the arrival ordering the engine sees: `false` is
/// the expected path (receive posted before the message arrives), `true`
/// the unexpected path (message first, receive chases it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Sending rank, drawn from the scenario's popularity distribution.
    pub source: i32,
    /// Message tag (cycled through the configured tag space).
    pub tag: i32,
    /// `true` ⇒ arrival-first (unexpected-message path).
    pub unexpected: bool,
}
