//! The matching engine: the protocol glue around the two queues (§2.1).
//! spc-scope: hot-path
//!
//! Every MPI process keeps a **posted receive queue** (PRQ) of receives
//! waiting for messages and an **unexpected message queue** (UMQ) of
//! messages that arrived before their receive. `MPI_Recv` first searches the
//! UMQ; on a miss it appends to the PRQ. An arriving message first searches
//! the PRQ; on a miss it appends to the UMQ. Those two search-else-append
//! operations are the performance-critical path this whole study is about.

use crate::entry::{
    Envelope, PayloadHandle, PostedEntry, RecvSpec, RequestHandle, UnexpectedEntry,
};
use crate::list::{MatchList, Search};
use crate::sink::{AccessSink, NullSink};
use crate::stats::EngineStats;

/// Result of posting a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// An unexpected message satisfied the receive immediately.
    MatchedUnexpected {
        /// The buffered message's payload handle.
        payload: PayloadHandle,
        /// Entries inspected in the UMQ.
        depth: u32,
    },
    /// No unexpected message matched; the receive now waits on the PRQ.
    Posted,
}

/// Result of a message arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// A posted receive matched; the message is delivered.
    MatchedPosted {
        /// The satisfied receive request.
        request: RequestHandle,
        /// Entries inspected in the PRQ.
        depth: u32,
    },
    /// No posted receive matched; the message is now on the UMQ.
    Queued,
}

/// Admission caps for the two queues — the engine-visible backpressure
/// policy behind the service-shaped traffic suite.
///
/// A cap bounds only the *append* side of search-else-append: an operation
/// whose search hits is always admitted (it shrinks the queue), while one
/// that would grow a queue past its cap is rejected instead of appended.
/// Real transports surface this as receiver-not-ready / RNR backpressure;
/// here the rejection is returned to the caller and counted in
/// [`EngineStats::prq_rejections`] / [`EngineStats::umq_rejections`].
///
/// Only the `try_*` operations ([`MatchEngine::try_post_recv`],
/// [`MatchEngine::try_arrival`]) consult the caps; the unbounded legacy
/// paths are untouched and pay nothing for this feature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueBounds {
    /// Largest admitted PRQ length; a receive post that would grow the PRQ
    /// past this is rejected.
    pub max_prq: usize,
    /// Largest admitted UMQ length; an arrival that would grow the UMQ past
    /// this is rejected (the message is dropped at admission).
    pub max_umq: usize,
}

impl QueueBounds {
    /// No admission limits: `try_*` behaves exactly like the unbounded ops.
    pub const UNBOUNDED: Self = Self {
        max_prq: usize::MAX,
        max_umq: usize::MAX,
    };

    /// The same cap on both queues.
    pub fn both(cap: usize) -> Self {
        Self {
            max_prq: cap,
            max_umq: cap,
        }
    }
}

impl Default for QueueBounds {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

/// Result of a bounded receive post ([`MatchEngine::try_post_recv`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvOutcome {
    /// An unexpected message satisfied the receive immediately (matches are
    /// never rejected — they shrink the queue).
    MatchedUnexpected {
        /// The buffered message's payload handle.
        payload: PayloadHandle,
        /// Entries inspected in the UMQ.
        depth: u32,
    },
    /// No unexpected message matched; the receive now waits on the PRQ.
    Posted,
    /// The UMQ search missed and the PRQ is at its admission cap: the
    /// receive was **not** posted. The caller sees backpressure.
    RejectedPrqFull {
        /// Entries inspected in the (missed) UMQ search.
        depth: u32,
    },
}

/// Result of a bounded message arrival ([`MatchEngine::try_arrival`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryArrivalOutcome {
    /// A posted receive matched; the message is delivered.
    MatchedPosted {
        /// The satisfied receive request.
        request: RequestHandle,
        /// Entries inspected in the PRQ.
        depth: u32,
    },
    /// No posted receive matched; the message is now on the UMQ.
    Queued,
    /// The PRQ search missed and the UMQ is at its admission cap: the
    /// message was dropped at admission (a real transport would NACK it).
    RejectedUmqFull {
        /// Entries inspected in the (missed) PRQ search.
        depth: u32,
    },
}

/// A per-process matching engine parameterized over the PRQ and UMQ
/// structures.
pub struct MatchEngine<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    prq: P,
    umq: U,
    bounds: QueueBounds,
    stats: EngineStats,
}

impl<P, U> MatchEngine<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    /// Creates an engine from its two queues (unbounded admission).
    pub fn new(prq: P, umq: U) -> Self {
        Self::with_bounds(prq, umq, QueueBounds::UNBOUNDED)
    }

    /// Creates an engine with admission caps for the `try_*` operations.
    pub fn with_bounds(prq: P, umq: U, bounds: QueueBounds) -> Self {
        Self {
            prq,
            umq,
            bounds,
            stats: EngineStats::new(),
        }
    }

    /// Current admission caps.
    pub fn bounds(&self) -> QueueBounds {
        self.bounds
    }

    /// Replaces the admission caps (takes effect on the next `try_*` op;
    /// entries already queued above a lowered cap stay queued).
    pub fn set_bounds(&mut self, bounds: QueueBounds) {
        self.bounds = bounds;
    }

    /// Posts a receive (the `MPI_Recv`/`MPI_Irecv` entry path), reporting
    /// memory accesses to `sink`.
    pub fn post_recv_sink<S: AccessSink>(
        &mut self,
        spec: RecvSpec,
        request: RequestHandle,
        sink: &mut S,
    ) -> RecvOutcome {
        let Search { found, depth } = self.umq.search_remove(&spec, sink);
        self.stats.umq_search.record(depth as u64);
        match found {
            Some(msg) => {
                self.stats.umq_hits += 1;
                RecvOutcome::MatchedUnexpected {
                    payload: msg.payload,
                    depth,
                }
            }
            None => {
                self.stats.prq_appends += 1;
                self.prq.append(PostedEntry::from_spec(spec, request), sink);
                RecvOutcome::Posted
            }
        }
    }

    /// Posts a receive without instrumentation.
    pub fn post_recv(&mut self, spec: RecvSpec, request: RequestHandle) -> RecvOutcome {
        self.post_recv_sink(spec, request, &mut NullSink)
    }

    /// Handles a message arrival (the network-progress path), reporting
    /// memory accesses to `sink`.
    pub fn arrival_sink<S: AccessSink>(
        &mut self,
        env: Envelope,
        payload: PayloadHandle,
        sink: &mut S,
    ) -> ArrivalOutcome {
        let Search { found, depth } = self.prq.search_remove(&env, sink);
        self.stats.prq_search.record(depth as u64);
        match found {
            Some(recv) => {
                self.stats.prq_hits += 1;
                ArrivalOutcome::MatchedPosted {
                    request: recv.request,
                    depth,
                }
            }
            None => {
                self.stats.umq_appends += 1;
                self.umq
                    .append(UnexpectedEntry::from_envelope(env, payload), sink);
                ArrivalOutcome::Queued
            }
        }
    }

    /// Handles a message arrival without instrumentation.
    pub fn arrival(&mut self, env: Envelope, payload: PayloadHandle) -> ArrivalOutcome {
        self.arrival_sink(env, payload, &mut NullSink)
    }

    /// Posts a receive under the admission caps: the UMQ search runs
    /// unconditionally (and its depth is recorded — the work was done), but
    /// on a miss the receive is only appended while `prq_len() <
    /// bounds.max_prq`; otherwise it is rejected and
    /// [`EngineStats::prq_rejections`] is bumped.
    pub fn try_post_recv_sink<S: AccessSink>(
        &mut self,
        spec: RecvSpec,
        request: RequestHandle,
        sink: &mut S,
    ) -> TryRecvOutcome {
        let Search { found, depth } = self.umq.search_remove(&spec, sink);
        self.stats.umq_search.record(depth as u64);
        match found {
            Some(msg) => {
                self.stats.umq_hits += 1;
                TryRecvOutcome::MatchedUnexpected {
                    payload: msg.payload,
                    depth,
                }
            }
            None if self.prq.len() < self.bounds.max_prq => {
                self.stats.prq_appends += 1;
                self.prq.append(PostedEntry::from_spec(spec, request), sink);
                TryRecvOutcome::Posted
            }
            None => {
                self.stats.prq_rejections += 1;
                TryRecvOutcome::RejectedPrqFull { depth }
            }
        }
    }

    /// [`Self::try_post_recv_sink`] without instrumentation.
    pub fn try_post_recv(&mut self, spec: RecvSpec, request: RequestHandle) -> TryRecvOutcome {
        self.try_post_recv_sink(spec, request, &mut NullSink)
    }

    /// Handles a message arrival under the admission caps: the PRQ search
    /// runs unconditionally, but on a miss the message is only queued while
    /// `umq_len() < bounds.max_umq`; otherwise it is dropped and
    /// [`EngineStats::umq_rejections`] is bumped.
    pub fn try_arrival_sink<S: AccessSink>(
        &mut self,
        env: Envelope,
        payload: PayloadHandle,
        sink: &mut S,
    ) -> TryArrivalOutcome {
        let Search { found, depth } = self.prq.search_remove(&env, sink);
        self.stats.prq_search.record(depth as u64);
        match found {
            Some(recv) => {
                self.stats.prq_hits += 1;
                TryArrivalOutcome::MatchedPosted {
                    request: recv.request,
                    depth,
                }
            }
            None if self.umq.len() < self.bounds.max_umq => {
                self.stats.umq_appends += 1;
                self.umq
                    .append(UnexpectedEntry::from_envelope(env, payload), sink);
                TryArrivalOutcome::Queued
            }
            None => {
                self.stats.umq_rejections += 1;
                TryArrivalOutcome::RejectedUmqFull { depth }
            }
        }
    }

    /// [`Self::try_arrival_sink`] without instrumentation.
    pub fn try_arrival(&mut self, env: Envelope, payload: PayloadHandle) -> TryArrivalOutcome {
        self.try_arrival_sink(env, payload, &mut NullSink)
    }

    /// Non-destructively checks whether an unexpected message would satisfy
    /// `spec` (`MPI_Iprobe`), returning its payload handle and search depth.
    pub fn iprobe(&self, spec: RecvSpec) -> Option<(PayloadHandle, u32)> {
        let (e, depth) = self.umq.find_first(&spec)?;
        Some((e.payload, depth))
    }

    /// Cancels a posted receive by request handle (`MPI_Cancel`). Returns
    /// true if the receive was still pending.
    pub fn cancel_recv(&mut self, request: RequestHandle) -> bool {
        self.prq.remove_by_id(request, &mut NullSink).is_some()
    }

    /// Current PRQ length.
    pub fn prq_len(&self) -> usize {
        self.prq.len()
    }

    /// Current UMQ length.
    pub fn umq_len(&self) -> usize {
        self.umq.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::new();
    }

    /// Borrow of the PRQ (for tracing and heat-region registration).
    pub fn prq(&self) -> &P {
        &self.prq
    }

    /// Borrow of the UMQ.
    pub fn umq(&self) -> &U {
        &self.umq
    }

    /// Mutable borrow of the PRQ (for padding experiments that pre-load
    /// unmatched entries, as the paper's modified benchmarks do).
    pub fn prq_mut(&mut self) -> &mut P {
        &mut self.prq
    }

    /// Mutable borrow of the UMQ.
    pub fn umq_mut(&mut self) -> &mut U {
        &mut self.umq
    }

    /// Empties both queues and clears statistics.
    pub fn reset(&mut self) {
        self.prq.clear();
        self.umq.clear();
        self.stats = EngineStats::new();
    }

    /// Simulated heat regions of both queues, for hot-cache registration.
    pub fn heat_regions(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.prq.heat_regions(&mut out);
        self.umq.heat_regions(&mut out);
        out
    }

    /// Checks both queues' structural invariants (see
    /// [`MatchList::validate`]). O(len); the conformance drivers call this
    /// after every op under `--features debug_invariants`.
    pub fn validate(&self) -> Result<(), String> {
        self.prq.validate().map_err(|e| format!("prq: {e}"))?;
        self.umq.validate().map_err(|e| format!("umq: {e}"))
    }
}

/// Convenience constructors for the configurations the paper measures.
pub mod configs {
    use super::MatchEngine;
    use crate::entry::{PostedEntry, UnexpectedEntry};
    use crate::list::{BaselineList, Lla};

    /// Engine type with baseline (one entry per heap node) queues.
    pub type BaselineEngine = MatchEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>>;
    /// Engine type with linked-list-of-arrays queues of PRQ arity `N`.
    /// The UMQ arity is chosen to fill the same number of cache lines.
    pub type LlaEngine<const N: usize, const M: usize> =
        MatchEngine<Lla<PostedEntry, N>, Lla<UnexpectedEntry, M>>;

    /// The unmodified baseline.
    pub fn baseline() -> BaselineEngine {
        MatchEngine::new(BaselineList::new(), BaselineList::new())
    }

    /// The paper's first LLA configuration: one cache line per node
    /// (2 posted / 3 unexpected entries).
    pub fn lla_cacheline() -> LlaEngine<2, 3> {
        MatchEngine::new(Lla::new(), Lla::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{ANY_SOURCE, ANY_TAG};
    use crate::list::{BaselineList, Lla};

    fn engine() -> MatchEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>> {
        MatchEngine::new(Lla::new(), Lla::new())
    }

    #[test]
    fn expected_message_flow() {
        let mut e = engine();
        assert_eq!(e.post_recv(RecvSpec::new(1, 5, 0), 10), RecvOutcome::Posted);
        assert_eq!(e.prq_len(), 1);
        match e.arrival(Envelope::new(1, 5, 0), 99) {
            ArrivalOutcome::MatchedPosted { request, depth } => {
                assert_eq!(request, 10);
                assert_eq!(depth, 1);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(e.prq_len(), 0);
        assert_eq!(e.umq_len(), 0);
        assert_eq!(e.stats().prq_hits, 1);
    }

    #[test]
    fn unexpected_message_flow() {
        let mut e = engine();
        assert_eq!(
            e.arrival(Envelope::new(2, 3, 0), 55),
            ArrivalOutcome::Queued
        );
        assert_eq!(e.umq_len(), 1);
        match e.post_recv(RecvSpec::new(2, 3, 0), 20) {
            RecvOutcome::MatchedUnexpected { payload, depth } => {
                assert_eq!(payload, 55);
                assert_eq!(depth, 1);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(e.umq_len(), 0);
        assert_eq!(e.prq_len(), 0);
        assert_eq!(e.stats().umq_hits, 1);
    }

    #[test]
    fn wildcard_recv_drains_unexpected_in_arrival_order() {
        let mut e = engine();
        for i in 0..3 {
            e.arrival(Envelope::new(i, 7, 0), i as u64);
        }
        for expect in 0..3u64 {
            match e.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 0) {
                RecvOutcome::MatchedUnexpected { payload, .. } => assert_eq!(payload, expect),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn iprobe_is_non_destructive() {
        let mut e = engine();
        e.arrival(Envelope::new(4, 4, 0), 77);
        assert_eq!(e.iprobe(RecvSpec::new(4, 4, 0)), Some((77, 1)));
        assert_eq!(e.umq_len(), 1, "probe must not consume");
        assert_eq!(e.iprobe(RecvSpec::new(4, 5, 0)), None);
    }

    #[test]
    fn cancel_removes_pending_receive() {
        let mut e = engine();
        e.post_recv(RecvSpec::new(1, 1, 0), 42);
        assert!(e.cancel_recv(42));
        assert!(!e.cancel_recv(42));
        // The message now goes unexpected.
        assert_eq!(e.arrival(Envelope::new(1, 1, 0), 5), ArrivalOutcome::Queued);
    }

    #[test]
    fn stats_track_both_paths() {
        let mut e = engine();
        e.post_recv(RecvSpec::new(0, 0, 0), 1); // prq append
        e.arrival(Envelope::new(0, 0, 0), 2); // prq hit
        e.arrival(Envelope::new(9, 9, 0), 3); // umq append
        e.post_recv(RecvSpec::new(9, 9, 0), 4); // umq hit
        let s = e.stats();
        assert_eq!(s.prq_appends, 1);
        assert_eq!(s.prq_hits, 1);
        assert_eq!(s.umq_appends, 1);
        assert_eq!(s.umq_hits, 1);
        assert_eq!(s.prq_search.count, 2);
        assert_eq!(s.umq_search.count, 2);
        e.reset_stats();
        assert_eq!(e.stats().prq_search.count, 0);
    }

    #[test]
    fn mixed_structure_engine_works() {
        // PRQ and UMQ structures are independent type parameters.
        let mut e = MatchEngine::new(
            BaselineList::<PostedEntry>::new(),
            Lla::<UnexpectedEntry, 3>::new(),
        );
        e.post_recv(RecvSpec::new(1, 1, 0), 1);
        match e.arrival(Envelope::new(1, 1, 0), 2) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_ops_reject_appends_but_never_matches() {
        let mut e = MatchEngine::new(
            Lla::<PostedEntry, 2>::new(),
            Lla::<UnexpectedEntry, 3>::new(),
        );
        e.set_bounds(QueueBounds {
            max_prq: 2,
            max_umq: 1,
        });
        // PRQ admits up to the cap, then rejects.
        assert_eq!(
            e.try_post_recv(RecvSpec::new(1, 1, 0), 1),
            TryRecvOutcome::Posted
        );
        assert_eq!(
            e.try_post_recv(RecvSpec::new(2, 2, 0), 2),
            TryRecvOutcome::Posted
        );
        assert_eq!(
            e.try_post_recv(RecvSpec::new(3, 3, 0), 3),
            TryRecvOutcome::RejectedPrqFull { depth: 0 }
        );
        assert_eq!(e.prq_len(), 2);
        assert_eq!(e.stats().prq_rejections, 1);
        // A matching arrival is admitted even though the UMQ cap is tiny —
        // it hits the PRQ and shrinks it.
        assert!(matches!(
            e.try_arrival(Envelope::new(1, 1, 0), 10),
            TryArrivalOutcome::MatchedPosted { request: 1, .. }
        ));
        // With the PRQ down to one entry, the post is admitted again.
        assert_eq!(
            e.try_post_recv(RecvSpec::new(3, 3, 0), 3),
            TryRecvOutcome::Posted
        );
        // UMQ: one unmatched arrival fills the cap; the next is dropped.
        assert_eq!(
            e.try_arrival(Envelope::new(8, 8, 0), 20),
            TryArrivalOutcome::Queued
        );
        assert_eq!(
            e.try_arrival(Envelope::new(9, 9, 0), 21),
            TryArrivalOutcome::RejectedUmqFull { depth: 2 }
        );
        assert_eq!(e.umq_len(), 1);
        assert_eq!(e.stats().umq_rejections, 1);
        // A receive matching the queued unexpected is admitted (UMQ hit),
        // even at a full PRQ.
        e.set_bounds(QueueBounds {
            max_prq: 0,
            max_umq: 1,
        });
        assert!(matches!(
            e.try_post_recv(RecvSpec::new(8, 8, 0), 4),
            TryRecvOutcome::MatchedUnexpected { payload: 20, .. }
        ));
    }

    #[test]
    fn unbounded_try_ops_mirror_legacy_ops() {
        let mut a = engine();
        let mut b = engine();
        assert_eq!(b.bounds(), QueueBounds::UNBOUNDED);
        for i in 0..32 {
            let spec = RecvSpec::new(i % 5, i % 3, 0);
            let env = Envelope::new((i + 1) % 5, i % 3, 0);
            let legacy_recv = a.post_recv(spec, i as u64);
            match (legacy_recv, b.try_post_recv(spec, i as u64)) {
                (RecvOutcome::Posted, TryRecvOutcome::Posted) => {}
                (
                    RecvOutcome::MatchedUnexpected {
                        payload: p1,
                        depth: d1,
                    },
                    TryRecvOutcome::MatchedUnexpected {
                        payload: p2,
                        depth: d2,
                    },
                ) => {
                    assert_eq!((p1, d1), (p2, d2));
                }
                other => panic!("diverged: {other:?}"),
            }
            let legacy_arr = a.arrival(env, i as u64);
            match (legacy_arr, b.try_arrival(env, i as u64)) {
                (ArrivalOutcome::Queued, TryArrivalOutcome::Queued) => {}
                (
                    ArrivalOutcome::MatchedPosted {
                        request: r1,
                        depth: d1,
                    },
                    TryArrivalOutcome::MatchedPosted {
                        request: r2,
                        depth: d2,
                    },
                ) => assert_eq!((r1, d1), (r2, d2)),
                other => panic!("diverged: {other:?}"),
            }
        }
        assert_eq!(a.prq_len(), b.prq_len());
        assert_eq!(a.umq_len(), b.umq_len());
        assert_eq!(b.stats().prq_rejections, 0);
        assert_eq!(b.stats().umq_rejections, 0);
    }

    #[test]
    fn reset_clears_queues_and_stats() {
        let mut e = engine();
        e.post_recv(RecvSpec::new(1, 1, 0), 1);
        e.arrival(Envelope::new(5, 5, 0), 2);
        e.reset();
        assert_eq!(e.prq_len(), 0);
        assert_eq!(e.umq_len(), 0);
        assert_eq!(e.stats().prq_search.count, 0);
    }
}
