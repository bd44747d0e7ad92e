//! # spc-conformance — differential conformance harness
//!
//! Every match-list structure in `spc-core` must be *behaviourally
//! interchangeable*: same probes, same matches, same MPI non-overtaking
//! order. This crate checks that claim the blunt way — by differential
//! testing against a model so simple it is obviously correct:
//!
//! * [`oracle::OracleList`] — a `Vec`-backed [`spc_core::list::MatchList`]
//!   whose every operation is a linear scan in append order. No holes, no
//!   bins, no sequence arithmetic; if this is wrong, the semantics in
//!   `spc-core/src/entry.rs` are wrong.
//! * [`ops`] — deterministic, seeded generators of randomized operation
//!   streams (appends/searches/cancels/clears at the list level;
//!   post/arrival/iprobe/cancel/reset at the engine level), with burst
//!   phases that build deep queues and configurable wildcard rates.
//! * [`driver`] — replays a stream through the oracle and a subject
//!   simultaneously, comparing outcomes, lengths, depths and snapshots
//!   after every step, and reporting the first divergence.
//! * [`shrink`] — a delta-debugging minimizer that reduces a failing
//!   stream to a locally-minimal one and renders it as a paste-able unit
//!   test body.
//! * [`adversary`] — deliberately broken structures (e.g.
//!   [`adversary::FifoViolator`]) used to prove the harness actually
//!   catches bugs, not just agreements.
//! * [`concurrent`] — the concurrent differential driver: N real threads
//!   race seeded streams through a thread-safe engine, every operation is
//!   seq-stamped at its linearization point, and the seq-sorted log is
//!   replayed through the oracle to verify linearizable, exactly-once,
//!   non-overtaking matching.
//! * [`sched`] — deterministic interleaving testing: channel-gated
//!   threads driven one op at a time through exhaustive (or seeded
//!   sampled) interleavings of short race scenarios.
//! * [`gate`] — a [`spc_core::list::MatchList`] wrapper, injected through
//!   an engine's list factories, that pauses or panics inside a chosen
//!   search, so a test can stop a ring drain in the middle of its batch.
//!
//! ## Depth comparison
//!
//! Search depth is *the* quantity the paper measures, so the harness
//! checks it — but exact equality with the oracle is only contractual for
//! linear structures (`BaselineList`, `Lla`), where a hit's depth is the
//! 1-based FIFO position of the match among live entries. Partitioned
//! structures (`SourceBins`, `HashBins`, `RankTrie`) legitimately inspect
//! fewer entries — that is their entire point — so for them the harness
//! checks the bounds every implementation must satisfy: a hit inspects at
//! least one entry, and no search inspects more entries than are live.
//! See the contract on [`spc_core::list::MatchList::search_remove`]. The
//! sharded engine partitions by source in the same way: its searches,
//! probes included, report the entries of the lanes they walked, so it is
//! checked under the same bounds.

#![warn(missing_docs)]

pub mod adversary;
pub mod concurrent;
pub mod driver;
pub mod gate;
pub mod ops;
pub mod oracle;
pub mod sched;
pub mod shrink;

pub use adversary::FifoViolator;
pub use concurrent::{conc_ops, run_and_verify, run_concurrent, verify_log, ConcOp, LogRecord};
pub use driver::{diff_dyn_engine, diff_engine, diff_posted, diff_umq, DepthMode, Divergence};
pub use gate::{Gate, GateHandle, Gated};
pub use ops::{engine_ops, engine_ops_wild_bursts, posted_ops, umq_ops, EngineOp, PostedOp, UmqOp};
pub use oracle::OracleList;
pub use sched::{interleavings, run_stepped, sampled_schedules};
pub use shrink::{render_ops, shrink_ops};
