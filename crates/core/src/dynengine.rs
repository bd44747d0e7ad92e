//! Runtime-selectable matching engine.
//! spc-scope: cold
//!
//! The figure/table harnesses and the rank simulator choose the queue
//! structure from configuration at runtime; [`DynEngine`] wraps every
//! concrete [`MatchEngine`] instantiation behind one enum. The LLA variants
//! pair each posted-receive arity with the unexpected-message arity that
//! fills the same number of cache lines (24-byte vs 16-byte entries: a 3:2
//! entry ratio, Figure 2).

use crate::engine::{ArrivalOutcome, Engine, MatchEngine, Op, Outcome, RecvOutcome};
use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use crate::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, SourceBins};
use crate::sink::{AccessSink, NullSink};
use crate::stats::EngineStats;

/// Context id reserved for padding entries that must never match (the
/// paper's "added unmatched entries to the queue" experiment knob).
pub const PAD_CONTEXT: u16 = u16::MAX - 1;

/// Which structure to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// One entry per heap node (MPICH-style reference).
    Baseline,
    /// Linked list of arrays; `arity` posted entries per node (2, 4, 8, 16,
    /// 32, 64, 128, 256 or 512).
    Lla {
        /// Posted entries per node.
        arity: usize,
    },
    /// Open MPI-style per-source bins for a communicator of `comm_size`.
    SourceBins {
        /// Communicator size (bin count).
        comm_size: usize,
    },
    /// Flajslik-style hash bins.
    HashBins {
        /// Number of hash bins.
        bins: usize,
    },
    /// Zounmevo-style 4-level rank decomposition.
    RankTrie {
        /// Largest rank + 1 the trie must hold.
        capacity: usize,
    },
}

impl EngineKind {
    /// The canonical set of configurations the conformance harness and the
    /// comparative benchmarks iterate: every structure family, with the
    /// LLA at its one-cache-line, mid, and large-array arities. `ranks` is
    /// the source-rank universe (bin count / trie capacity).
    pub fn standard_set(ranks: usize) -> Vec<EngineKind> {
        vec![
            EngineKind::Baseline,
            EngineKind::Lla { arity: 2 },
            EngineKind::Lla { arity: 8 },
            EngineKind::Lla { arity: 512 },
            EngineKind::SourceBins { comm_size: ranks },
            EngineKind::HashBins { bins: 4 },
            EngineKind::RankTrie { capacity: ranks },
        ]
    }

    /// Report label.
    pub fn label(&self) -> String {
        match self {
            EngineKind::Baseline => "baseline".to_owned(),
            EngineKind::Lla { arity } => format!("LLA-{arity}"),
            EngineKind::SourceBins { comm_size } => format!("source-bins({comm_size})"),
            EngineKind::HashBins { bins } => format!("hash-bins({bins})"),
            EngineKind::RankTrie { capacity } => format!("rank-trie({capacity})"),
        }
    }
}

macro_rules! lla_engine {
    ($p:literal, $u:literal) => {
        MatchEngine<Lla<PostedEntry, $p>, Lla<UnexpectedEntry, $u>>
    };
}

/// A matching engine whose structure was chosen at runtime.
// Variant sizes differ (the engines embed their list headers), but exactly
// one DynEngine exists per simulated rank — boxing would only add a pointer
// chase to every engine call.
#[allow(clippy::large_enum_variant)]
pub enum DynEngine {
    /// Baseline linked lists.
    Baseline(MatchEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>>),
    /// LLA, one cache line per node.
    Lla2(lla_engine!(2, 3)),
    /// LLA, two cache lines per node.
    Lla4(lla_engine!(4, 6)),
    /// LLA, four cache lines per node.
    Lla8(lla_engine!(8, 12)),
    /// LLA, eight cache lines per node.
    Lla16(lla_engine!(16, 24)),
    /// LLA, sixteen cache lines per node.
    Lla32(lla_engine!(32, 48)),
    /// LLA, 64 entries per node.
    Lla64(lla_engine!(64, 96)),
    /// LLA, 128 entries per node.
    Lla128(lla_engine!(128, 192)),
    /// LLA, 256 entries per node.
    Lla256(lla_engine!(256, 384)),
    /// The "large arrays" configuration (§4.5).
    Lla512(lla_engine!(512, 768)),
    /// Per-source bins.
    SourceBins(MatchEngine<SourceBins<PostedEntry>, SourceBins<UnexpectedEntry>>),
    /// Hash bins.
    HashBins(MatchEngine<HashBins<PostedEntry>, HashBins<UnexpectedEntry>>),
    /// Rank trie.
    RankTrie(MatchEngine<RankTrie<PostedEntry>, RankTrie<UnexpectedEntry>>),
}

/// Applies `$body` to the inner engine of every variant.
macro_rules! with_engine {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            DynEngine::Baseline($e) => $body,
            DynEngine::Lla2($e) => $body,
            DynEngine::Lla4($e) => $body,
            DynEngine::Lla8($e) => $body,
            DynEngine::Lla16($e) => $body,
            DynEngine::Lla32($e) => $body,
            DynEngine::Lla64($e) => $body,
            DynEngine::Lla128($e) => $body,
            DynEngine::Lla256($e) => $body,
            DynEngine::Lla512($e) => $body,
            DynEngine::SourceBins($e) => $body,
            DynEngine::HashBins($e) => $body,
            DynEngine::RankTrie($e) => $body,
        }
    };
}

impl DynEngine {
    /// Instantiates the requested structure for both queues.
    pub fn new(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Baseline => {
                DynEngine::Baseline(MatchEngine::new(BaselineList::new(), BaselineList::new()))
            }
            EngineKind::Lla { arity } => match arity {
                2 => DynEngine::Lla2(MatchEngine::new(Lla::new(), Lla::new())),
                4 => DynEngine::Lla4(MatchEngine::new(Lla::new(), Lla::new())),
                8 => DynEngine::Lla8(MatchEngine::new(Lla::new(), Lla::new())),
                16 => DynEngine::Lla16(MatchEngine::new(Lla::new(), Lla::new())),
                32 => DynEngine::Lla32(MatchEngine::new(Lla::new(), Lla::new())),
                64 => DynEngine::Lla64(MatchEngine::new(Lla::new(), Lla::new())),
                128 => DynEngine::Lla128(MatchEngine::new(Lla::new(), Lla::new())),
                256 => DynEngine::Lla256(MatchEngine::new(Lla::new(), Lla::new())),
                512 => DynEngine::Lla512(MatchEngine::new(Lla::new(), Lla::new())),
                other => panic!("unsupported LLA arity {other}"),
            },
            EngineKind::SourceBins { comm_size } => DynEngine::SourceBins(MatchEngine::new(
                SourceBins::new(comm_size),
                SourceBins::new(comm_size),
            )),
            EngineKind::HashBins { bins } => DynEngine::HashBins(MatchEngine::new(
                HashBins::with_bins(bins),
                HashBins::with_bins(bins),
            )),
            EngineKind::RankTrie { capacity } => DynEngine::RankTrie(MatchEngine::new(
                RankTrie::new(capacity),
                RankTrie::new(capacity),
            )),
        }
    }

    /// See [`MatchEngine::apply_sink`].
    pub fn apply_sink<S: AccessSink>(&mut self, op: Op, sink: &mut S) -> Outcome {
        with_engine!(self, e => e.apply_sink(op, sink))
    }

    /// [`Op::PostRecv`] through `sink`, narrowed to [`RecvOutcome`].
    pub fn post_recv_sink<S: AccessSink>(
        &mut self,
        spec: RecvSpec,
        request: u64,
        sink: &mut S,
    ) -> RecvOutcome {
        self.apply_sink(Op::PostRecv { spec, request }, sink).recv()
    }

    /// See [`MatchEngine::post_recv`].
    pub fn post_recv(&mut self, spec: RecvSpec, request: u64) -> RecvOutcome {
        self.post_recv_sink(spec, request, &mut NullSink)
    }

    /// [`Op::Arrival`] through `sink`, narrowed to [`ArrivalOutcome`].
    pub fn arrival_sink<S: AccessSink>(
        &mut self,
        env: Envelope,
        payload: u64,
        sink: &mut S,
    ) -> ArrivalOutcome {
        self.apply_sink(Op::Arrival { env, payload }, sink)
            .arrival()
    }

    /// See [`MatchEngine::arrival`].
    pub fn arrival(&mut self, env: Envelope, payload: u64) -> ArrivalOutcome {
        self.arrival_sink(env, payload, &mut NullSink)
    }

    /// See [`MatchEngine::iprobe`].
    pub fn iprobe(&self, spec: RecvSpec) -> Option<(u64, u32)> {
        with_engine!(self, e => e.iprobe(spec))
    }

    /// See [`MatchEngine::cancel_recv`].
    pub fn cancel_recv(&mut self, request: u64) -> bool {
        with_engine!(self, e => e.cancel_recv(request))
    }

    /// Current posted-receive-queue length.
    pub fn prq_len(&self) -> usize {
        with_engine!(self, e => e.prq_len())
    }

    /// Current unexpected-message-queue length.
    pub fn umq_len(&self) -> usize {
        with_engine!(self, e => e.umq_len())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        with_engine!(self, e => e.stats())
    }

    /// Empties both queues and clears statistics.
    pub fn reset(&mut self) {
        with_engine!(self, e => e.reset())
    }

    /// Simulated heat regions of both queues.
    pub fn heat_regions(&self) -> Vec<(u64, u64)> {
        with_engine!(self, e => e.heat_regions())
    }

    /// Appends `n` unmatched entries to the PRQ — the paper's queue-depth
    /// padding ("we added unmatched entries to the queue to evaluate
    /// performance with different receive queue lengths", §4.1). The entries
    /// use [`PAD_CONTEXT`], which no real traffic carries, so every search
    /// walks past them.
    pub fn pad_prq(&mut self, n: usize) {
        let mut sink = NullSink;
        with_engine!(self, e => {
            for i in 0..n {
                e.prq_mut().append(
                    PostedEntry::from_spec(
                        RecvSpec::new(0, i as i32, PAD_CONTEXT),
                        u64::MAX - i as u64,
                    ),
                    &mut sink,
                );
            }
        })
    }
}

impl Engine for DynEngine {
    type Stamp = ();

    fn apply(&mut self, op: Op) -> ((), Outcome) {
        ((), self.apply_sink(op, &mut NullSink))
    }

    fn queue_lens(&self) -> (usize, usize) {
        (self.prq_len(), self.umq_len())
    }

    fn stats(&self) -> EngineStats {
        DynEngine::stats(self).clone()
    }

    fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
        with_engine!(self, e => e.queue_ids())
    }

    fn reset(&mut self) {
        DynEngine::reset(self)
    }

    fn validate(&self) -> Result<(), String> {
        with_engine!(self, e => e.validate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EngineKind> {
        vec![
            EngineKind::Baseline,
            EngineKind::Lla { arity: 2 },
            EngineKind::Lla { arity: 8 },
            EngineKind::Lla { arity: 512 },
            EngineKind::SourceBins { comm_size: 16 },
            EngineKind::HashBins { bins: 8 },
            EngineKind::RankTrie { capacity: 16 },
        ]
    }

    #[test]
    fn every_kind_round_trips_a_message() {
        for kind in all_kinds() {
            let mut e = DynEngine::new(kind);
            e.post_recv(RecvSpec::new(3, 7, 0), 1);
            match e.arrival(Envelope::new(3, 7, 0), 2) {
                ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 1),
                other => panic!("{}: unexpected {other:?}", kind.label()),
            }
            assert_eq!(e.prq_len(), 0, "{}", kind.label());
        }
    }

    #[test]
    fn padding_deepens_searches_without_matching() {
        let mut e = DynEngine::new(EngineKind::Lla { arity: 2 });
        e.pad_prq(100);
        assert_eq!(e.prq_len(), 100);
        e.post_recv(RecvSpec::new(0, 0, 0), 9);
        match e.arrival(Envelope::new(0, 0, 0), 1) {
            ArrivalOutcome::MatchedPosted { request, depth } => {
                assert_eq!(request, 9);
                assert_eq!(depth, 101, "search walked all 100 pad entries first");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.prq_len(), 100, "pads stay resident");
    }

    #[test]
    fn labels_and_reset() {
        assert_eq!(EngineKind::Lla { arity: 8 }.label(), "LLA-8");
        let mut e = DynEngine::new(EngineKind::Baseline);
        e.pad_prq(5);
        e.arrival(Envelope::new(1, 1, 0), 1);
        assert_eq!(e.umq_len(), 1);
        e.reset();
        assert_eq!(e.prq_len(), 0);
        assert_eq!(e.umq_len(), 0);
    }

    #[test]
    #[should_panic(expected = "unsupported LLA arity")]
    fn bad_arity_panics() {
        DynEngine::new(EngineKind::Lla { arity: 3 });
    }
}
