//! Batched ingestion for the sharded engine: per-producer rings that
//! spc-scope: hot-path
//! amortize one shard-lock acquisition over a whole batch of operations.
//!
//! Even with [`crate::shard::ShardedEngine`]'s per-source decomposition,
//! every post and every arrival still pays a lock acquisition — and under
//! oversubscription a producer preempted inside its critical section
//! convoys every other thread touching that shard. This module applies
//! the batch-to-amortize move the RDCA work uses to keep NIC-delivered
//! data resident (Li et al., arXiv 2211.05975): producers enqueue
//! operations into fixed-capacity single-producer rings —
//! [`IngestRing`], one per `(producer, shard)` pair, lock-free on the
//! producer side — and each ring is drained under a *single* lock
//! acquisition per batch by whoever needs the shard next.
//!
//! ## Ordering contract
//!
//! Ring entries are applied in FIFO order per producer, and every
//! operation takes its seq stamp at *drain* time (inside the shard
//! lock), so the engine's linearization story is unchanged — a buffered
//! op simply linearizes when it is drained. A drain is one critical
//! section: one lock acquisition, one write window, and one block of
//! consecutive stamps reserved for the ops already in the rings, handed
//! out in the order the ops are applied. The window is open from before
//! the block is reserved until after its last op (the writer protocol
//! in [`crate::seqsnap`]). An arrival that crosses into the wildcard lane
//! takes a fresh stamp instead and the ops after it a new block (see
//! [`crate::shard`]). So the shared `seq` line, like the shard lock, is
//! paid once per batch rather than once per op. Program order per producer
//! is preserved by **flush-on-probe**: any operation that must observe
//! the producer's earlier ops (wildcard posts, probes, cancels) first
//! drains the producer's own rings, then executes directly. Other
//! producers' rings are deliberately *not* flushed — their buffered ops
//! are concurrent, not ordered-before.
//!
//! The conformance battery drives racing producers through these rings
//! and replays the drain log (seq-sorted) through the oracle, including
//! exactly-once accounting of entries still in flight when the threads
//! join — see `spc-conformance`'s `run_and_verify_batched`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{Engine, Op, Outcome, RecvOutcome};
use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE};
use crate::list::MatchList;
use crate::seqsnap::sw_add;
use crate::shard::ShardedEngine;
use crate::stats::{EngineStats, LockStats};

/// One buffered engine operation: the two high-rate op kinds. Wildcard
/// posts, probes and cancels never ride the rings (they flush and run
/// directly — see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOp {
    /// A concrete-source `post_recv`.
    Post {
        /// The receive specification (concrete source).
        spec: RecvSpec,
        /// Caller's request handle.
        request: u64,
    },
    /// A message arrival.
    Arrive {
        /// The message envelope.
        env: Envelope,
        /// Buffered payload handle.
        payload: u64,
    },
}

impl From<IngestOp> for Op {
    fn from(op: IngestOp) -> Op {
        match op {
            IngestOp::Post { spec, request } => Op::PostRecv { spec, request },
            IngestOp::Arrive { env, payload } => Op::Arrival { env, payload },
        }
    }
}

/// Packs an op into three atomic words: `w0 = kind | ctx<<16 | rank<<32`,
/// `w1 = tag`, `w2 = handle`. Negative ranks/tags (wildcards, if a
/// caller ever buffers one) survive the u32 round-trip.
fn encode(op: &IngestOp) -> (u64, u64, u64) {
    match *op {
        IngestOp::Post { spec, request } => (
            ((spec.rank as u32 as u64) << 32) | ((spec.context_id as u64) << 16),
            spec.tag as u32 as u64,
            request,
        ),
        IngestOp::Arrive { env, payload } => (
            ((env.rank as u32 as u64) << 32) | ((env.context_id as u64) << 16) | 1,
            env.tag as u32 as u64,
            payload,
        ),
    }
}

fn decode(w0: u64, w1: u64, w2: u64) -> IngestOp {
    let rank = (w0 >> 32) as u32 as i32;
    let context_id = (w0 >> 16) as u16;
    let tag = w1 as u32 as i32;
    if w0 & 1 == 0 {
        IngestOp::Post {
            spec: RecvSpec {
                rank,
                tag,
                context_id,
            },
            request: w2,
        }
    } else {
        IngestOp::Arrive {
            env: Envelope {
                rank,
                tag,
                context_id,
            },
            payload: w2,
        }
    }
}

/// One ring slot: three plain atomic words (no unsafe, no torn reads at
/// the word level; the head/tail protocol orders whole-slot visibility).
struct Slot {
    // spc-order(w0): SeqCst — slot word stored before the tail advance publishes it
    w0: AtomicU64,
    // spc-order(w1): SeqCst — slot word; see w0
    w1: AtomicU64,
    // spc-order(w2): SeqCst — slot word; see w0
    w2: AtomicU64,
}

/// A fixed-capacity single-producer / single-consumer ring of
/// [`IngestOp`]s.
///
/// The producer side belongs to exactly one thread; the consumer side is
/// serialized externally (drains hold the destination shard's lock).
/// Head and tail are monotone SeqCst counters masked into the pow2 slot
/// array: the producer publishes a slot's words *before* advancing
/// `tail`, the consumer reads them *before* advancing `head`, so each
/// side observes fully-written slots only.
pub struct IngestRing {
    slots: Box<[Slot]>,
    mask: usize,
    /// Consumer cursor (monotone).
    // spc-order(head): SeqCst — advanced after the slot reads; frees the slot for reuse
    head: AtomicUsize,
    /// Producer cursor (monotone).
    // spc-order(tail): SeqCst — advanced after the slot stores; publishes the slot
    tail: AtomicUsize,
    /// Lifetime pushes. Written only by the producer, so a single-writer
    /// add ([`sw_add`]) and no lock-prefixed RMW.
    // spc-order(enqueued): Relaxed — push tally; FIFO visibility rides on head/tail
    enqueued: AtomicU64,
    /// Lifetime pops. Written only by the one consumer, the drainer
    /// holding the shard lock, so a single-writer add too.
    // spc-order(drained): Relaxed — pop tally; see enqueued
    drained: AtomicU64,
}

impl IngestRing {
    /// A ring holding up to `cap` buffered ops (rounded up to a power of
    /// two, minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        Self {
            slots: (0..cap)
                .map(|_| Slot {
                    w0: AtomicU64::new(0),
                    w1: AtomicU64::new(0),
                    w2: AtomicU64::new(0),
                })
                .collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            enqueued: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// The rounded slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Buffered ops right now (racy snapshot; exact when one side is
    /// quiescent).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::SeqCst)
            .wrapping_sub(self.head.load(Ordering::SeqCst))
    }

    /// Whether the ring holds no buffered ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: buffers `op`, or returns `false` if the ring is
    /// full (the caller flushes and retries).
    pub fn try_push(&self, op: &IngestOp) -> bool {
        let t = self.tail.load(Ordering::SeqCst);
        let h = self.head.load(Ordering::SeqCst);
        if t.wrapping_sub(h) == self.slots.len() {
            return false;
        }
        let slot = &self.slots[t & self.mask];
        let (w0, w1, w2) = encode(op);
        slot.w0.store(w0, Ordering::SeqCst);
        slot.w1.store(w1, Ordering::SeqCst);
        slot.w2.store(w2, Ordering::SeqCst);
        self.tail.store(t.wrapping_add(1), Ordering::SeqCst);
        sw_add(&self.enqueued, 1);
        true
    }

    /// Consumer side: pops the oldest buffered op, if any.
    pub fn pop(&self) -> Option<IngestOp> {
        let h = self.head.load(Ordering::SeqCst);
        if h == self.tail.load(Ordering::SeqCst) {
            return None;
        }
        let slot = &self.slots[h & self.mask];
        let op = decode(
            slot.w0.load(Ordering::SeqCst),
            slot.w1.load(Ordering::SeqCst),
            slot.w2.load(Ordering::SeqCst),
        );
        self.head.store(h.wrapping_add(1), Ordering::SeqCst);
        sw_add(&self.drained, 1);
        Some(op)
    }

    /// Total ops ever buffered (exactly-once accounting).
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total ops ever drained (exactly-once accounting).
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }
}

/// One drained ring entry with its linearization stamp and outcome — the
/// batched engine's contribution to the conformance log.
#[derive(Clone, Copy, Debug)]
pub struct DrainRecord {
    /// The producer whose ring buffered the op.
    pub producer: usize,
    /// Seq stamp the op received at drain time.
    pub seq: u64,
    /// The op itself.
    pub op: IngestOp,
    /// What the op did when it was applied.
    pub outcome: Outcome,
    /// [`Outcome::matched`] of `outcome`: the buffered payload for a
    /// matched post, the matched request for an arrival, `None` if the op
    /// queued.
    pub matched: Option<u64>,
}

/// A [`ShardedEngine`] fed through per-producer ingest rings: posts and
/// arrivals buffer lock-free and are applied in batches under a single
/// lock acquisition; probes, cancels and wildcard posts flush the
/// producer's own rings first and execute directly (module docs).
pub struct BatchedEngine<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    inner: ShardedEngine<P, U>,
    /// `rings[producer][shard]`.
    rings: Vec<Vec<IngestRing>>,
    drain_log: Option<Mutex<Vec<DrainRecord>>>,
}

impl<P, U> BatchedEngine<P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    /// An engine with `num_shards` shards and one `batch`-slot ring per
    /// `(producer, shard)` pair for `producers` producers.
    pub fn new(
        num_shards: usize,
        producers: usize,
        batch: usize,
        mut mk_prq: impl FnMut() -> P,
        mut mk_umq: impl FnMut() -> U,
    ) -> Self {
        assert!(producers >= 1, "need at least one producer");
        let inner = ShardedEngine::new(num_shards, &mut mk_prq, &mut mk_umq);
        let rings = (0..producers)
            .map(|_| {
                (0..num_shards)
                    .map(|_| IngestRing::with_capacity(batch))
                    .collect()
            })
            .collect();
        Self {
            inner,
            rings,
            drain_log: None,
        }
    }

    /// Enables the drain log: every drained ring entry is recorded with
    /// its seq stamp and outcome, for the conformance replay.
    pub fn with_drain_log(mut self) -> Self {
        self.drain_log = Some(Mutex::new(Vec::new()));
        self
    }

    /// The wrapped sharded engine.
    pub fn inner(&self) -> &ShardedEngine<P, U> {
        &self.inner
    }

    /// Number of producers this engine was built for.
    pub fn num_producers(&self) -> usize {
        self.rings.len()
    }

    /// Per-ring slot capacity (the batch size).
    pub fn batch(&self) -> usize {
        self.rings[0][0].capacity()
    }

    /// The handle producer `id` enqueues through. Each producer id
    /// belongs to exactly one thread at a time (single-producer rings).
    pub fn producer(&self, id: usize) -> Producer<'_, P, U> {
        assert!(id < self.rings.len(), "producer id out of range");
        Producer { eng: self, id }
    }

    fn drain(&self, si: usize, rings: &[(usize, &IngestRing)]) -> usize {
        if let Some(log) = &self.drain_log {
            let mut recs = Vec::new();
            let n = self
                .inner
                .drain_rings(si, rings, |producer, seq, op, outcome| {
                    // spc-allow(hot-path-alloc): drain-log capture, active only when logging is on
                    recs.push(DrainRecord {
                        producer,
                        seq,
                        op,
                        outcome,
                        matched: outcome.matched(),
                    })
                });
            if !recs.is_empty() {
                log.lock().expect("drain log poisoned").extend(recs);
            }
            n
        } else {
            self.inner.drain_rings(si, rings, |_, _, _, _| {})
        }
    }

    /// Drains every producer's ring for shard `si` under one lock
    /// acquisition. Returns the number of ops applied.
    pub fn flush_shard(&self, si: usize) -> usize {
        let refs: Vec<(usize, &IngestRing)> = self
            .rings
            .iter()
            .enumerate()
            .map(|(p, row)| (p, &row[si]))
            .collect();
        self.drain(si, &refs)
    }

    /// Drains one producer's ring for one shard.
    fn flush_ring(&self, p: usize, si: usize) -> usize {
        self.drain(si, &[(p, &self.rings[p][si])])
    }

    /// Drains all of producer `p`'s rings (program-order barrier before
    /// a direct op).
    fn flush_producer(&self, p: usize) -> usize {
        let mut n = 0;
        for si in 0..self.rings[p].len() {
            if !self.rings[p][si].is_empty() {
                n += self.flush_ring(p, si);
            }
        }
        n
    }

    /// Drains every ring of every producer.
    pub fn flush_all(&self) -> usize {
        let mut n = 0;
        for si in 0..self.inner.num_shards() {
            n += self.flush_shard(si);
        }
        n
    }

    /// Ops currently buffered across all rings.
    pub fn pending(&self) -> usize {
        self.rings
            .iter()
            .flat_map(|row| row.iter())
            .map(|r| r.len())
            .sum()
    }

    /// Total ops ever buffered across all rings.
    pub fn enqueued(&self) -> u64 {
        self.rings
            .iter()
            .flat_map(|row| row.iter())
            .map(|r| r.enqueued())
            .sum()
    }

    /// Total ops ever drained across all rings.
    pub fn drained(&self) -> u64 {
        self.rings
            .iter()
            .flat_map(|row| row.iter())
            .map(|r| r.drained())
            .sum()
    }

    /// Takes the accumulated drain log (empty if logging is disabled).
    pub fn take_drain_log(&self) -> Vec<DrainRecord> {
        match &self.drain_log {
            Some(log) => std::mem::take(&mut *log.lock().expect("drain log poisoned")),
            None => Vec::new(),
        }
    }

    /// Current `(prq, umq)` lengths — lock-free, buffered (undrained)
    /// ops excluded until they are applied.
    pub fn queue_lens(&self) -> (usize, usize) {
        self.inner.queue_lens()
    }

    /// Merged engine statistics (lock-free; see
    /// [`ShardedEngine::stats`]).
    pub fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    /// Aggregate lock counters of the wrapped engine.
    pub fn lock_stats(&self) -> LockStats {
        self.inner.lock_stats()
    }

    /// Validates the wrapped engine's invariants at a quiescent point
    /// (buffered ring entries are allowed — they have not linearized
    /// yet).
    pub fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

/// A producer's enqueue handle: lock-free buffering for posts and
/// arrivals, flush-then-direct for everything that must observe the
/// producer's program order.
pub struct Producer<'e, P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    eng: &'e BatchedEngine<P, U>,
    id: usize,
}

impl<P, U> Producer<'_, P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    fn enqueue(&self, si: usize, op: IngestOp) {
        let ring = &self.eng.rings[self.id][si];
        if !ring.try_push(&op) {
            // Full: drain our own ring (one lock acquisition per batch)
            // and retry — we are the only producer, so room is guaranteed.
            self.eng.flush_ring(self.id, si);
            let pushed = ring.try_push(&op);
            debug_assert!(pushed, "ring must have room after a flush");
        }
    }

    /// Applies `op` in this producer's program order. Arrivals and
    /// concrete-source posts buffer into the shard's ring and answer
    /// [`Outcome::Deferred`]: stamp and outcome are decided at drain time
    /// and, when logging is enabled, recorded in the drain log. Everything
    /// that must observe the producer's earlier ops — wildcard posts,
    /// probes, cancels — first flushes this producer's own rings, then
    /// runs directly and returns its linearization stamp and outcome.
    #[inline]
    pub fn apply(&self, op: Op) -> (u64, Outcome) {
        let (rank, buffered) = match op {
            Op::PostRecv { spec, request } if spec.rank != ANY_SOURCE => {
                (spec.rank, IngestOp::Post { spec, request })
            }
            Op::Arrival { env, payload } => (env.rank, IngestOp::Arrive { env, payload }),
            direct => {
                self.eng.flush_producer(self.id);
                return self.eng.inner.apply(direct);
            }
        };
        self.enqueue(self.eng.inner.shard_index(rank), buffered);
        (0, Outcome::Deferred)
    }

    /// [`Op::PostRecv`]: `None` when the post was buffered, the stamp and
    /// outcome of a wildcard post that ran directly.
    #[inline]
    pub fn post_recv(&self, spec: RecvSpec, request: u64) -> Option<(u64, RecvOutcome)> {
        let (seq, out) = self.apply(Op::PostRecv { spec, request });
        (out != Outcome::Deferred).then(|| (seq, out.recv()))
    }

    /// [`Op::Arrival`] (always buffered; outcome decided at drain time).
    #[inline]
    pub fn arrival(&self, env: Envelope, payload: u64) {
        self.apply(Op::Arrival { env, payload });
    }

    /// [`Op::Iprobe`] with its stamp: sees this producer's own earlier
    /// arrivals (FIFO non-overtaking in program order).
    pub fn iprobe_seq(&self, spec: RecvSpec) -> (u64, Option<(u64, u32)>) {
        let (seq, out) = self.apply(Op::Iprobe { spec });
        (seq, out.probed())
    }

    /// [`Op::Cancel`] with its stamp: reaches this producer's own
    /// buffered posts.
    pub fn cancel_recv_seq(&self, request: u64) -> (u64, bool) {
        let (seq, out) = self.apply(Op::Cancel { request });
        (seq, out == Outcome::Cancelled(true))
    }

    /// Drains this producer's rings (program-order barrier).
    pub fn flush(&self) -> usize {
        self.eng.flush_producer(self.id)
    }
}

/// The observers read the wrapped engine: ops still buffered in a ring
/// have not linearized and are not counted.
impl<P, U> Engine for Producer<'_, P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    type Stamp = u64;

    #[inline]
    fn apply(&mut self, op: Op) -> (u64, Outcome) {
        Producer::apply(self, op)
    }

    fn queue_lens(&self) -> (usize, usize) {
        self.eng.queue_lens()
    }

    fn stats(&self) -> EngineStats {
        self.eng.stats()
    }

    fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
        self.eng.inner.queue_ids()
    }

    /// Applies whatever any producer still has buffered, then empties the
    /// queues: nothing issued before the reset survives it.
    fn reset(&mut self) {
        self.eng.flush_all();
        self.eng.inner.reset();
    }

    fn validate(&self) -> Result<(), String> {
        self.eng.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{ANY_SOURCE, ANY_TAG};
    use crate::list::Lla;

    type TestBatched = BatchedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;

    fn engine(shards: usize, producers: usize, batch: usize) -> TestBatched {
        BatchedEngine::new(shards, producers, batch, Lla::new, Lla::new)
    }

    #[test]
    fn ring_is_fifo_and_rejects_when_full() {
        let ring = IngestRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4u64 {
            assert!(ring.try_push(&IngestOp::Arrive {
                env: Envelope::new(i as i32, 7, 0),
                payload: i,
            }));
        }
        assert!(
            !ring.try_push(&IngestOp::Arrive {
                env: Envelope::new(9, 9, 0),
                payload: 9,
            }),
            "full ring must reject"
        );
        for i in 0..4u64 {
            match ring.pop() {
                Some(IngestOp::Arrive { env, payload }) => {
                    assert_eq!((env.rank as u64, payload), (i, i));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(ring.pop().is_none());
        assert_eq!((ring.enqueued(), ring.drained()), (4, 4));
    }

    #[test]
    fn encode_survives_wildcards_and_negative_fields() {
        for op in [
            IngestOp::Post {
                spec: RecvSpec::new(ANY_SOURCE, ANY_TAG, 0xBEEF),
                request: u64::MAX,
            },
            IngestOp::Post {
                spec: RecvSpec::new(1234, -7, 9),
                request: 0,
            },
            IngestOp::Arrive {
                // Struct literal: encode() must survive any bit pattern even
                // though `Envelope::new` rejects negative fields.
                env: Envelope {
                    rank: -2,
                    tag: i32::MIN,
                    context_id: u16::MAX,
                },
                payload: 42,
            },
        ] {
            let (w0, w1, w2) = encode(&op);
            assert_eq!(decode(w0, w1, w2), op);
        }
    }

    #[test]
    fn buffered_ops_apply_on_flush_in_fifo_order() {
        let eng = engine(4, 1, 64);
        let p = eng.producer(0);
        p.post_recv(RecvSpec::new(6, 3, 0), 10);
        p.arrival(Envelope::new(6, 3, 0), 70);
        assert_eq!(eng.queue_lens(), (0, 0), "nothing applied yet");
        assert_eq!(eng.pending(), 2);
        assert_eq!(eng.flush_all(), 2);
        // The post drained first (FIFO), so the arrival matched it.
        assert_eq!(eng.queue_lens(), (0, 0));
        assert_eq!(eng.stats().prq_hits, 1);
    }

    #[test]
    fn full_ring_auto_flushes_under_one_lock_per_batch() {
        let batch = 8;
        let eng = engine(1, 1, batch);
        let p = eng.producer(0);
        let total = 4 * batch as u64;
        for i in 0..total {
            p.arrival(Envelope::new(0, i as i32, 0), i);
        }
        eng.flush_all();
        let (_, umq) = eng.queue_lens();
        assert_eq!(umq, total as usize);
        let acq = eng.lock_stats().acquisitions;
        assert!(
            acq <= total / batch as u64 + 1,
            "expected ~1 acquisition per {batch}-op batch, got {acq} for {total} ops"
        );
        eng.validate().unwrap();
    }

    #[test]
    fn probe_flushes_own_rings_but_not_other_producers() {
        let eng = engine(4, 2, 64).with_drain_log();
        let p0 = eng.producer(0);
        let p1 = eng.producer(1);
        p0.arrival(Envelope::new(3, 1, 0), 7);
        // Program order: p0's probe must observe p0's own arrival.
        let (_, found) = p0.iprobe_seq(RecvSpec::new(3, 1, 0));
        assert_eq!(found, Some((7, 1)));
        // Concurrency: p1's buffered arrival is not ordered before p0's
        // probe and stays in flight.
        p1.arrival(Envelope::new(3, 2, 0), 8);
        let (_, f2) = p0.iprobe_seq(RecvSpec::new(3, 2, 0));
        assert_eq!(f2, None, "another producer's ring entry is still in flight");
        assert_eq!(eng.pending(), 1);
        eng.flush_all();
        let log = eng.take_drain_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|r| r.matched.is_none()));
    }

    #[test]
    fn wildcard_post_runs_directly_after_flushing_program_order() {
        let eng = engine(4, 1, 64);
        let p = eng.producer(0);
        p.arrival(Envelope::new(5, 2, 0), 50);
        let (_, out) = p
            .post_recv(RecvSpec::new(ANY_SOURCE, 2, 0), 1)
            .expect("wildcard posts run directly");
        match out {
            RecvOutcome::MatchedUnexpected { payload, .. } => assert_eq!(payload, 50),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(eng.pending(), 0, "the wildcard flushed the ring first");
    }

    #[test]
    fn cancel_reaches_own_buffered_posts() {
        let eng = engine(2, 1, 64);
        let p = eng.producer(0);
        p.post_recv(RecvSpec::new(1, 1, 0), 11);
        let (_, hit) = p.cancel_recv_seq(11);
        assert!(hit, "cancel must flush and find the buffered post");
        assert_eq!(eng.queue_lens(), (0, 0));
    }

    #[test]
    fn drain_log_records_seq_producer_and_outcome() {
        let eng = engine(2, 2, 8).with_drain_log();
        eng.producer(0).post_recv(RecvSpec::new(1, 1, 0), 10);
        eng.producer(1).arrival(Envelope::new(1, 1, 0), 90);
        eng.flush_all();
        let mut log = eng.take_drain_log();
        log.sort_unstable_by_key(|r| r.seq);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].producer, 0);
        assert!(matches!(log[0].op, IngestOp::Post { .. }));
        assert_eq!(log[0].matched, None, "post queued");
        assert_eq!(log[1].matched, Some(10), "arrival matched the post");
        assert!(log[0].seq < log[1].seq);
    }
}
