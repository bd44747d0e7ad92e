//! The matching engine: the protocol glue around the two queues (§2.1).
//! spc-scope: hot-path
//!
//! Every MPI process keeps a **posted receive queue** (PRQ) of receives
//! waiting for messages and an **unexpected message queue** (UMQ) of
//! messages that arrived before their receive. `MPI_Recv` first searches the
//! UMQ; on a miss it appends to the PRQ. An arriving message first searches
//! the PRQ; on a miss it appends to the UMQ. Those two search-else-append
//! operations are the performance-critical path this whole study is about.
//!
//! ## One op vocabulary
//!
//! Every engine in this crate takes the same four [`Op`]s through
//! [`Engine::apply`] and answers with the same [`Outcome`]. Admission
//! control is the engine's [`QueueBounds`] *value* (rejection is an
//! outcome), the linearization stamp is [`Engine::Stamp`], instrumentation
//! is the sink argument of `apply_sink` on the two engines with an
//! instrumented walk, and the plain verbs (`post_recv`, `arrival`,
//! `iprobe`, `cancel_recv`) are views of `apply` that narrow the outcome.

use crate::entry::{
    Envelope, PayloadHandle, PostedEntry, RecvSpec, RequestHandle, UnexpectedEntry,
};
use crate::list::{MatchList, Search};
use crate::sink::{AccessSink, NullSink};
use crate::stats::EngineStats;

/// One matching operation — the whole vocabulary of every engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Post a receive (`MPI_Recv`/`MPI_Irecv`): search the UMQ, else
    /// append to the PRQ.
    PostRecv {
        /// The receive specification (wildcards allowed).
        spec: RecvSpec,
        /// Caller's request handle.
        request: RequestHandle,
    },
    /// A message arrives from the network: search the PRQ, else append to
    /// the UMQ.
    Arrival {
        /// The message envelope.
        env: Envelope,
        /// Buffered payload handle.
        payload: PayloadHandle,
    },
    /// Cancel a posted receive by request handle (`MPI_Cancel`).
    Cancel {
        /// Request handle to cancel.
        request: RequestHandle,
    },
    /// Non-destructively look for an unexpected message (`MPI_Iprobe`).
    Iprobe {
        /// What a matching message must satisfy.
        spec: RecvSpec,
    },
}

/// What an [`Op`] did. Every search-else-append outcome carries the number
/// of entries its search inspected, hit or miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// [`Op::PostRecv`]: an unexpected message satisfied the receive.
    MatchedUnexpected {
        /// The buffered message's payload handle.
        payload: PayloadHandle,
        /// Entries inspected in the UMQ.
        depth: u32,
    },
    /// [`Op::PostRecv`]: no unexpected message matched; the receive now
    /// waits on the PRQ.
    Posted {
        /// Entries inspected in the (missed) UMQ search.
        depth: u32,
    },
    /// [`Op::PostRecv`]: the UMQ search missed and the PRQ is at its
    /// admission cap — the receive was **not** posted.
    RejectedPrqFull {
        /// Entries inspected in the (missed) UMQ search.
        depth: u32,
    },
    /// [`Op::Arrival`]: a posted receive matched; the message is delivered.
    MatchedPosted {
        /// The satisfied receive request.
        request: RequestHandle,
        /// Entries inspected in the PRQ.
        depth: u32,
    },
    /// [`Op::Arrival`]: no posted receive matched; the message is now on
    /// the UMQ.
    Queued {
        /// Entries inspected in the (missed) PRQ search.
        depth: u32,
    },
    /// [`Op::Arrival`]: the PRQ search missed and the UMQ is at its
    /// admission cap — the message was dropped at admission (a real
    /// transport would NACK it).
    RejectedUmqFull {
        /// Entries inspected in the (missed) PRQ search.
        depth: u32,
    },
    /// [`Op::Cancel`]: whether the receive was still pending.
    Cancelled(bool),
    /// [`Op::Iprobe`]: the first matching message's payload handle and its
    /// search depth, if any.
    Probed(Option<(PayloadHandle, u32)>),
    /// [`crate::ingest::Producer`] only: the op was buffered in a ring. Its
    /// stamp (the one beside this variant means nothing) and outcome are
    /// decided when the ring drains, and reported in the drain log.
    Deferred,
}

impl Outcome {
    /// Entries the op's search inspected (0 where nothing was searched: a
    /// cancel, a probe miss, a deferred op).
    pub fn depth(&self) -> u32 {
        match *self {
            Outcome::MatchedUnexpected { depth, .. }
            | Outcome::Posted { depth }
            | Outcome::RejectedPrqFull { depth }
            | Outcome::MatchedPosted { depth, .. }
            | Outcome::Queued { depth }
            | Outcome::RejectedUmqFull { depth }
            | Outcome::Probed(Some((_, depth))) => depth,
            Outcome::Cancelled(_) | Outcome::Probed(None) | Outcome::Deferred => 0,
        }
    }

    /// Handle of the counterpart a post or an arrival matched: the
    /// consumed message's payload, or the satisfied receive's request.
    pub fn matched(&self) -> Option<u64> {
        match *self {
            Outcome::MatchedUnexpected { payload, .. } => Some(payload),
            Outcome::MatchedPosted { request, .. } => Some(request),
            _ => None,
        }
    }

    /// What a plain verb does when its return type cannot express `self`
    /// (out of line: the verbs' hot paths carry only the call).
    #[cold]
    #[inline(never)]
    fn no_view(self, verb: &str) -> ! {
        // spc-allow(hot-path-panic): driving a bounded engine through a two-variant verb is a caller bug; appending past the cap or dropping the op silently would hide it
        panic!("{verb} cannot report {self:?}: drive a bounded engine with `apply`")
    }

    /// The two-variant view the plain `post_recv` verb returns.
    ///
    /// # Panics
    /// On any outcome that view cannot express — in particular an
    /// admission rejection, which only [`Engine::apply`] reports.
    #[inline(always)]
    pub fn recv(self) -> RecvOutcome {
        match self {
            Outcome::MatchedUnexpected { payload, depth } => {
                RecvOutcome::MatchedUnexpected { payload, depth }
            }
            Outcome::Posted { .. } => RecvOutcome::Posted,
            other => other.no_view("post_recv"),
        }
    }

    /// The two-variant view the plain `arrival` verb returns.
    ///
    /// # Panics
    /// Like [`Self::recv`].
    #[inline(always)]
    pub fn arrival(self) -> ArrivalOutcome {
        match self {
            Outcome::MatchedPosted { request, depth } => {
                ArrivalOutcome::MatchedPosted { request, depth }
            }
            Outcome::Queued { .. } => ArrivalOutcome::Queued,
            other => other.no_view("arrival"),
        }
    }

    /// The `(payload, depth)` a probe found (`None` for any other outcome).
    pub fn probed(self) -> Option<(PayloadHandle, u32)> {
        match self {
            Outcome::Probed(found) => found,
            _ => None,
        }
    }
}

/// The one way an operation enters an engine (object-safe).
///
/// Implemented by [`MatchEngine`] and [`crate::dynengine::DynEngine`], and
/// by the handles threads drive the concurrent engines through:
/// `&SharedEngine`, `&ShardedEngine` and [`crate::ingest::Producer`].
pub trait Engine {
    /// What orders this engine's operations: `()` where `&mut self`
    /// already does, for a concurrent engine the `u64` linearization seq
    /// the op took while it held every lock it used.
    type Stamp;

    /// Applies `op`.
    fn apply(&mut self, op: Op) -> (Self::Stamp, Outcome);

    /// Current `(prq, umq)` lengths.
    fn queue_lens(&self) -> (usize, usize);

    /// Snapshot of the accumulated statistics.
    fn stats(&self) -> EngineStats;

    /// `(PRQ request ids, UMQ payload ids)`, each in FIFO order.
    fn queue_ids(&self) -> (Vec<u64>, Vec<u64>);

    /// Empties both queues and clears statistics.
    fn reset(&mut self);

    /// Checks the engine's structural invariants. On a concurrent engine,
    /// for quiescent points only (it takes the engine's locks itself).
    fn validate(&self) -> Result<(), String>;
}

/// Defines the four plain verbs of a concurrent engine as views of its
/// inherent `apply(&self, Op) -> (u64, Outcome)`.
macro_rules! stamped_verbs {
    () => {
        /// Posts a receive: [`Op::PostRecv`] narrowed to [`RecvOutcome`].
        pub fn post_recv(&self, spec: RecvSpec, request: u64) -> RecvOutcome {
            self.apply(Op::PostRecv { spec, request }).1.recv()
        }

        /// Handles a message arrival: [`Op::Arrival`] narrowed to
        /// [`ArrivalOutcome`].
        pub fn arrival(&self, env: Envelope, payload: u64) -> ArrivalOutcome {
            self.apply(Op::Arrival { env, payload }).1.arrival()
        }

        /// Cancels a posted receive ([`Op::Cancel`]); true if it was still
        /// pending.
        pub fn cancel_recv(&self, request: u64) -> bool {
            self.apply(Op::Cancel { request }).1 == Outcome::Cancelled(true)
        }

        /// Probes the unexpected queue ([`Op::Iprobe`]) for the first
        /// match's `(payload, depth)`.
        pub fn iprobe(&self, spec: RecvSpec) -> Option<(u64, u32)> {
            self.apply(Op::Iprobe { spec }).1.probed()
        }
    };
}
pub(crate) use stamped_verbs;

/// Implements [`Engine`] (`Stamp = u64`) for a shared reference to a
/// concurrent engine whose inherent `&self` methods already do the work.
macro_rules! stamped_engine {
    ($ty:ident) => {
        impl<P, U> Engine for &$ty<P, U>
        where
            P: MatchList<PostedEntry> + Send,
            U: MatchList<UnexpectedEntry> + Send,
        {
            type Stamp = u64;

            fn apply(&mut self, op: Op) -> (u64, Outcome) {
                $ty::apply(self, op)
            }

            fn queue_lens(&self) -> (usize, usize) {
                $ty::queue_lens(self)
            }

            fn stats(&self) -> EngineStats {
                $ty::stats(self)
            }

            fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
                $ty::queue_ids(self)
            }

            fn reset(&mut self) {
                $ty::reset(self)
            }

            fn validate(&self) -> Result<(), String> {
                $ty::validate(self)
            }
        }
    };
}
pub(crate) use stamped_engine;

/// Result of posting a receive through the plain `post_recv` verb.
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

/// Result of a message arrival through the plain `arrival` verb.
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
/// here the rejection is returned to the caller
/// ([`Outcome::RejectedPrqFull`] / [`Outcome::RejectedUmqFull`]) and counted in
/// [`EngineStats::prq_rejections`] / [`EngineStats::umq_rejections`].
///
/// The caps are engine state, checked in the one append arm of each
/// search-else-append body; the default, [`QueueBounds::UNBOUNDED`], never
/// rejects. A rejection is reported by [`Engine::apply`] only: the
/// two-variant plain verbs cannot express one and panic instead of
/// silently appending past the cap or dropping the operation.
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
    /// No admission limits: nothing is ever rejected.
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

    /// Creates an engine with admission caps.
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

    /// Replaces the admission caps (takes effect on the next op;
    /// entries already queued above a lowered cap stay queued).
    pub fn set_bounds(&mut self, bounds: QueueBounds) {
        self.bounds = bounds;
    }

    /// The one receive-post body: search the UMQ, else append to the PRQ
    /// if the admission cap allows. Always inlined (with the views below)
    /// so a plain verb folds the wider [`Outcome`] away: left to the
    /// inliner's judgement the round trip cost `shallow_churn` 1.2 of its
    /// 27 ns/op.
    #[inline(always)]
    fn post<S: AccessSink>(
        &mut self,
        spec: RecvSpec,
        request: RequestHandle,
        sink: &mut S,
    ) -> Outcome {
        let Search { found, depth } = self.umq.search_remove(&spec, sink);
        self.stats.umq_search.record(depth as u64);
        match found {
            Some(msg) => {
                self.stats.umq_hits += 1;
                Outcome::MatchedUnexpected {
                    payload: msg.payload,
                    depth,
                }
            }
            None if self.prq.len() < self.bounds.max_prq => {
                self.stats.prq_appends += 1;
                self.prq.append(PostedEntry::from_spec(spec, request), sink);
                Outcome::Posted { depth }
            }
            None => {
                self.stats.prq_rejections += 1;
                Outcome::RejectedPrqFull { depth }
            }
        }
    }

    /// The one arrival body: search the PRQ, else append to the UMQ if
    /// the admission cap allows (inlined like [`Self::post`]).
    #[inline(always)]
    fn arrive<S: AccessSink>(
        &mut self,
        env: Envelope,
        payload: PayloadHandle,
        sink: &mut S,
    ) -> Outcome {
        let Search { found, depth } = self.prq.search_remove(&env, sink);
        self.stats.prq_search.record(depth as u64);
        match found {
            Some(recv) => {
                self.stats.prq_hits += 1;
                Outcome::MatchedPosted {
                    request: recv.request,
                    depth,
                }
            }
            None if self.umq.len() < self.bounds.max_umq => {
                self.stats.umq_appends += 1;
                self.umq
                    .append(UnexpectedEntry::from_envelope(env, payload), sink);
                Outcome::Queued { depth }
            }
            None => {
                self.stats.umq_rejections += 1;
                Outcome::RejectedUmqFull { depth }
            }
        }
    }

    /// Applies `op`, reporting the memory accesses of a post's or an
    /// arrival's walk to `sink` (cancels and probes have no instrumented
    /// path). [`Engine::apply`] is this with the zero-cost [`NullSink`].
    #[inline]
    pub fn apply_sink<S: AccessSink>(&mut self, op: Op, sink: &mut S) -> Outcome {
        match op {
            Op::PostRecv { spec, request } => self.post(spec, request, sink),
            Op::Arrival { env, payload } => self.arrive(env, payload, sink),
            Op::Cancel { request } => Outcome::Cancelled(self.cancel_recv(request)),
            Op::Iprobe { spec } => Outcome::Probed(self.iprobe(spec)),
        }
    }

    /// Posts a receive (the `MPI_Recv`/`MPI_Irecv` entry path):
    /// [`Op::PostRecv`] narrowed to [`RecvOutcome`].
    #[inline]
    pub fn post_recv(&mut self, spec: RecvSpec, request: RequestHandle) -> RecvOutcome {
        self.post(spec, request, &mut NullSink).recv()
    }

    /// Handles a message arrival (the network-progress path):
    /// [`Op::Arrival`] narrowed to [`ArrivalOutcome`].
    #[inline]
    pub fn arrival(&mut self, env: Envelope, payload: PayloadHandle) -> ArrivalOutcome {
        self.arrive(env, payload, &mut NullSink).arrival()
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

impl<P, U> Engine for MatchEngine<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    type Stamp = ();

    #[inline]
    fn apply(&mut self, op: Op) -> ((), Outcome) {
        ((), self.apply_sink(op, &mut NullSink))
    }

    fn queue_lens(&self) -> (usize, usize) {
        (self.prq.len(), self.umq.len())
    }

    fn stats(&self) -> EngineStats {
        self.stats.clone()
    }

    fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.prq.snapshot().iter().map(|e| e.request).collect(),
            self.umq.snapshot().iter().map(|e| e.payload).collect(),
        )
    }

    fn reset(&mut self) {
        MatchEngine::reset(self)
    }

    fn validate(&self) -> Result<(), String> {
        MatchEngine::validate(self)
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

    fn post(rank: i32, tag: i32, request: u64) -> Op {
        Op::PostRecv {
            spec: RecvSpec::new(rank, tag, 0),
            request,
        }
    }

    fn arrive(rank: i32, tag: i32, payload: u64) -> Op {
        Op::Arrival {
            env: Envelope::new(rank, tag, 0),
            payload,
        }
    }

    #[test]
    fn bounded_ops_reject_appends_but_never_matches() {
        let mut e = engine();
        assert_eq!(e.bounds(), QueueBounds::UNBOUNDED);
        e.set_bounds(QueueBounds {
            max_prq: 2,
            max_umq: 1,
        });
        // PRQ admits up to the cap, then rejects.
        assert_eq!(e.apply(post(1, 1, 1)).1, Outcome::Posted { depth: 0 });
        assert_eq!(e.apply(post(2, 2, 2)).1, Outcome::Posted { depth: 0 });
        assert_eq!(
            e.apply(post(3, 3, 3)).1,
            Outcome::RejectedPrqFull { depth: 0 }
        );
        assert_eq!(e.prq_len(), 2);
        assert_eq!(e.stats().prq_rejections, 1);
        // A matching arrival is admitted even though the UMQ cap is tiny —
        // it hits the PRQ and shrinks it.
        assert!(matches!(
            e.apply(arrive(1, 1, 10)).1,
            Outcome::MatchedPosted { request: 1, .. }
        ));
        // With the PRQ down to one entry, the post is admitted again.
        assert_eq!(e.apply(post(3, 3, 3)).1, Outcome::Posted { depth: 0 });
        // UMQ: one unmatched arrival fills the cap; the next is dropped.
        assert_eq!(e.apply(arrive(8, 8, 20)).1, Outcome::Queued { depth: 2 });
        assert_eq!(
            e.apply(arrive(9, 9, 21)).1,
            Outcome::RejectedUmqFull { depth: 2 }
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
            e.apply(post(8, 8, 4)).1,
            Outcome::MatchedUnexpected { payload: 20, .. }
        ));
    }

    /// The two-variant verbs cannot say "rejected": on a bounded engine
    /// that rejects they panic rather than append past the cap or drop
    /// the receive silently.
    #[test]
    #[should_panic(expected = "drive a bounded engine with `apply`")]
    fn plain_verb_panics_when_admission_rejects() {
        let mut e = engine();
        e.set_bounds(QueueBounds::both(0));
        e.post_recv(RecvSpec::new(1, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "drive a bounded engine with `apply`")]
    fn plain_arrival_panics_when_admission_rejects() {
        let mut e = engine();
        e.set_bounds(QueueBounds::both(0));
        e.arrival(Envelope::new(1, 1, 0), 1);
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
