//! # spc-core — MPI message matching engine
//!
//! Core library for the reproduction of *"The Case for Semi-Permanent Cache
//! Occupancy: Understanding the Impact of Data Locality on Network Processing"*
//! (Dosanjh et al., ICPP 2018).
//!
//! The paper studies how data locality governs the performance of MPI message
//! matching. This crate implements the matching engine itself, faithful to the
//! paper's data layouts, together with every list structure the paper measures
//! or compares against:
//!
//! * [`list::BaselineList`] — the traditional one-entry-per-heap-node linked
//!   list used by MPICH-derived implementations (the paper's baseline);
//! * [`list::Lla`] — the paper's **linked list of arrays**, packing a
//!   configurable number of match entries into each contiguous node
//!   (§3.1, Figure 2), allocated from an element pool;
//! * [`list::Partitioned`] — one list of seq-stamped channels plus a wildcard
//!   channel, routed three ways:
//!   [`list::SourceBins`], the Open MPI-style hierarchical structure with one
//!   short list per source rank (§2.2);
//!   [`list::HashBins`], the Flajslik-style hash-map structure keyed on the
//!   full set of matching criteria (§5); and
//!   [`list::RankTrie`], a Zounmevo-style multi-dimensional rank decomposition
//!   that skips regions of the match list where no match can occur (§5).
//!
//! Temporal locality is exercised by the **hot caching** implementation in
//! [`heater`]: a thread that periodically touches registered memory regions so
//! that cache-eviction metrics keep them resident (§3.2, Figure 3).
//!
//! Every engine — the single-threaded [`MatchEngine`], the runtime-selected
//! [`dynengine::DynEngine`], and the thread-safe [`concurrent::SharedEngine`],
//! [`ShardedEngine`] and [`ingest::BatchedEngine`] — takes the same four
//! [`Op`]s through [`Engine::apply`] and answers with the same [`Outcome`];
//! the plain verbs used below are views of that one call (see [`engine`]).
//!
//! Every structure reports its memory accesses through an [`sink::AccessSink`],
//! so the same code path can run natively (with the zero-cost
//! [`sink::NullSink`]) or feed the cache-hierarchy simulator in `spc-cachesim`
//! to reproduce the paper's cross-architecture results.
//!
//! ## Quick start
//!
//! ```
//! use spc_core::engine::{MatchEngine, RecvOutcome, ArrivalOutcome};
//! use spc_core::entry::{Envelope, RecvSpec};
//! use spc_core::list::lla;
//!
//! // A matching engine whose posted-receive queue and unexpected-message
//! // queue are linked lists of arrays in the paper's 64-byte configuration
//! // (2 posted entries per node, 3 unexpected entries per node).
//! let mut eng = MatchEngine::new(lla::posted_cacheline(), lla::unexpected_cacheline());
//!
//! // Post a receive for (source 3, tag 7) on communicator context 0.
//! let out = eng.post_recv(RecvSpec::new(3, 7, 0), /*request handle*/ 100);
//! assert!(matches!(out, RecvOutcome::Posted));
//!
//! // A matching message arrives and finds the posted receive.
//! let out = eng.arrival(Envelope::new(3, 7, 0), /*payload handle*/ 900);
//! match out {
//!     ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 100),
//!     _ => panic!("expected a match"),
//! }
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod concurrent;
pub mod dynengine;
pub mod engine;
pub mod entry;
pub mod heater;
pub mod ingest;
pub mod list;
pub mod pool;
pub mod replay;
pub mod seqsnap;
pub mod shard;
pub mod simd;
pub mod sink;
pub mod stats;

pub use engine::{ArrivalOutcome, Engine, MatchEngine, Op, Outcome, RecvOutcome};
pub use entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
pub use shard::ShardedEngine;
pub use sink::{AccessSink, CountingSink, NullSink};

/// Size of a cache line, in bytes, on every x86 architecture the paper
/// studies. The linked-list-of-arrays node layout is derived from this.
pub const CACHE_LINE: usize = 64;
