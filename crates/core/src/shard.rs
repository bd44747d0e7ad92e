//! Sharded concurrent matching engine: per-source decomposition of the
//! spc-scope: hot-path
//! PRQ/UMQ across independently-locked sub-engines.
//!
//! [`crate::concurrent::SharedEngine`] reproduces the worst case the paper
//! predicts for `MPI_THREAD_MULTIPLE` (§2.3): one mutex funneling every
//! thread. Real MPI stacks escape that funnel by decomposing the match
//! queues by *source rank* — the Open MPI bins idea this repo models as a
//! list structure in [`crate::list::SourceBins`], applied here at engine
//! granularity: [`ShardedEngine`] hashes each source rank onto one of `S`
//! shards, each an independently-locked [`MatchEngine`] wrapping any of
//! the five [`MatchList`] structures. Threads working disjoint sources
//! never touch the same lock.
//!
//! ## The wildcard slow path
//!
//! `MPI_ANY_SOURCE` receives cannot be binned — they can match an arrival
//! on *any* shard — so they live in a dedicated **wildcard lane**, and a
//! sequence/epoch protocol keeps the per-(source, tag, communicator) FIFO
//! non-overtaking guarantee intact even when a wildcard receive races
//! arrivals on multiple shards:
//!
//! * A global epoch counter stamps every operation with a **seq** while
//!   the operation holds every lock it will use; seq order therefore
//!   equals lock-serialization order for any two operations that share a
//!   lock, making the seq-sorted operation log a valid linearization
//!   (this is what the concurrent differential harness replays).
//! * The lane publishes its occupancy **keyed by what an arrival knows —
//!   its tag**: `wild_slots` holds one count per hash slot of `(tag,
//!   context)` plus one for `MPI_ANY_TAG` receives. A parked wildcard is
//!   counted under exactly one slot; an arrival reads exactly two (its
//!   own and the `ANY_TAG` one), and those are the only two a receive
//!   able to match it can be counted under. Every bump and drop happens
//!   under the wildcard-lane lock, at the program point where the lane
//!   length (`wild_len`, kept for `queue_lens` and `validate`) moves.
//! * Posting a wildcard receive first tries the **lock-free-park fast
//!   path**: holding only the wildcard-lane lock, it reads every shard's
//!   atomic unexpected-count. If all are zero — the common case on
//!   workloads that pre-post receives — no message anywhere can match, so
//!   it parks immediately without touching a single shard lock. The park
//!   is sound because of two SeqCst fences built into the protocol:
//!   (a) *store-buffering pair, per slot*: the poster bumps its slot
//!   before reading the counts, and every arrival bumps its shard's count
//!   before reading its two slots — so for any racing pair *in which the
//!   receive could match the message* (and so shares one of those slots),
//!   at least one side sees the other and takes the safe (slow/crossing)
//!   route; a pair that cannot match needs no ordering between its two
//!   outcomes at all. A slot may read stale-high — a park about to be
//!   undone, a colliding tag — which costs a phantom crossing; it never
//!   reads stale-low. (b) *seq-unchanged double check*: after reading
//!   the counts the poster verifies no other operation took a seq stamp
//!   since its own, which rules out a racing remover with a *later* stamp
//!   having already hidden a message that was still queued at the
//!   poster's linearization point. Any doubt falls back to the slow path:
//!   all shard locks plus the wildcard lane (in fixed order, so the
//!   protocol is deadlock-free), a search of every shard's unexpected
//!   queue for the globally earliest (by arrival seq) match, and only
//!   then parking in the wildcard lane.
//! * An arrival locks its source's shard, then — only if one of its two
//!   slots reads non-zero — crosses into the wildcard lane and compares
//!   seq stamps: the *older* of the shard match and the wildcard match
//!   wins. An arrival whose slots are empty is routed past the lane as a
//!   probe is routed past the shards that cannot hold its source: it
//!   takes no global lock and walks nothing twice. Skipping the
//!   comparison is the classic decomposed-engine bug;
//!   [`ShardedEngine::with_wildcard_check_disabled`] builds exactly that
//!   broken variant so the conformance harness can prove it catches the
//!   violation. Crossing arrivals take their seq *after* acquiring the
//!   wildcard lock, so every entry they can see in the lane — including
//!   one parked by the lock-free fast path — carries an older stamp than
//!   their own.
//!
//! Entry layouts are the paper's fixed 24/16-byte records (Figure 2), so
//! seq stamps cannot live in the entries themselves; each shard keeps a
//! parallel seq-ordered index (`VecDeque<(seq, entry)>`) next to its
//! structure for cross-shard arbitration. The [`MatchList`] FIFO contract
//! guarantees structure and index always agree on which entry a probe
//! matches first (debug asserts verify it).
//!
//! ## Lock-free read paths
//!
//! Read-only operations no longer take any lock. Each shard publishes a
//! [`SnapRows`] mirror of its unexpected queue (seq-ordered atomic rows
//! under a seqlock version word) and a [`MirrorStats`] mirror of its
//! counters; every mutating operation follows the **version-odd before
//! seq stamp** writer protocol documented in [`crate::seqsnap`], so a
//! reader that (1) loads the global seq `s0`, (2) walks lane mirrors
//! under their version checks — any lanes, any number of times — and
//! (3) re-checks the global seq, has read every one of them as of `s0`.
//! On that protocol ride:
//!
//! * [`ShardedEngine::iprobe`] — **shard-routed**: a probe names its
//!   source as a packet names its destination, so the match can only sit
//!   in `shard_of(source)`. `merged_probe` walks that one lane for the
//!   earliest match (every lane only for `MPI_ANY_SOURCE`), and on a hit
//!   alone walks the others up to the match's stamp to count its global
//!   FIFO depth — no copy-out, no allocation, no sort. A concrete-source
//!   miss therefore touches one shard's rows and is not refused by a
//!   write window open on another shard's lane; only a stamp taken
//!   inside its own (now short) `s0` bracket retries it. Bounded seqlock
//!   retries, then the locked fallback, which runs the same merge over
//!   the seq indexes ([`SnapReadStats`] counts both).
//! * [`ShardedEngine::queue_lens`] / [`ShardedEngine::stats`] /
//!   [`ShardedEngine::shard_stats`] — pure mirror reads, never a lock.
//! * The wildcard **candidate pre-scan**: when the unexpected counts are
//!   nonzero, a wildcard post first tries to prove "no queued message
//!   matches me" from one walk of each published snapshot (its live-row
//!   count validated against the per-shard counts, so an in-flight
//!   arrival that could miss the `wild_slots` bump forces the fallback) and
//!   parks without touching a single shard lock; only a possible match
//!   pays for the locked slow path.
//!
//! ## A write touches only its shard
//!
//! The locked write bodies commit everything they publish to words of
//! their own lane: each shard's lock, snapshot, stat mirror and
//! unexpected count sit on a `Pad`ded adjacent-line pair nothing else
//! shares, the mirrors and lock counters are single-writer words updated
//! with a load and a store ([`crate::seqsnap`]), and an arrival walks its
//! seq index ahead of the structure only when it has a wildcard candidate
//! to arbitrate against. What a write still shares with the other shards
//! is the global `seq` stamp — one line, padded away from everything
//! else — and the two `wild_slots` words it reads.
//!
//! Batched ingestion ([`crate::ingest`]) reuses the same locked op
//! bodies: [`ShardedEngine::drain_rings`] applies a whole ring batch
//! under one lock acquisition, stamping each op at drain time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::engine::{
    stamped_engine, stamped_verbs, ArrivalOutcome, Engine, MatchEngine, Op, Outcome, RecvOutcome,
};
use crate::entry::{
    packed_matches, Element, Envelope, PackedProbe, PostedEntry, RecvSpec, UnexpectedEntry,
    ANY_SOURCE,
};
use crate::ingest::{IngestOp, IngestRing};
use crate::list::MatchList;
use crate::seqsnap::{sw_add, MirrorStats, SnapRows};
use crate::stats::{ConcurrencyStats, EngineStats, LockStats, ShardStats, SnapReadStats};

/// Published rows per shard snapshot mirror before the sticky overflow
/// flag sends readers to the locked path.
const SNAP_ROWS_MAX: usize = 65_536;

/// Seqlock attempts before a lock-free probe falls back to locking.
const SNAP_PROBE_RETRIES: usize = 8;

/// Tag slots of the wildcard-lane occupancy filter; one more slot, at
/// index `WILD_SLOTS`, counts the `MPI_ANY_TAG` wildcards.
const WILD_SLOTS: usize = 64;
const _: () = assert!(WILD_SLOTS.is_power_of_two());

/// The filter slot of a concrete `(tag, context)`: the top bits of a
/// Fibonacci hash, so runs of consecutive tags spread over every slot and
/// strided tags do not pile onto one.
fn wild_slot(tag: i32, context_id: u16) -> usize {
    let h = (tag as u32 ^ (context_id as u32).rotate_left(16)).wrapping_mul(0x9E37_79B9);
    (h >> (u32::BITS - WILD_SLOTS.trailing_zeros())) as usize
}

/// The filter slot a parked wildcard receive is counted under.
fn entry_slot(e: &PostedEntry) -> usize {
    if e.tag_mask == 0 {
        WILD_SLOTS
    } else {
        wild_slot(e.tag, e.context_id)
    }
}

/// One lane's words on an adjacent-line pair of their own. 128 B, not 64:
/// the spatial prefetcher the paper's Fig. 2 discussion leans on fetches
/// lines in aligned pairs, so a neighbour in the other half of the pair
/// is invalidated along with the line a writer dirties. Wrapped around
/// every per-shard element and the two global words, it makes a write on
/// shard *i* leave shard *j*'s lines — and the seq stamp's — alone.
#[repr(align(128))]
struct Pad<T>(T);

const _: () = assert!(core::mem::align_of::<Pad<AtomicUsize>>() == 128);
const _: () = assert!(core::mem::size_of::<Pad<AtomicUsize>>() == 128);

impl<T> std::ops::Deref for Pad<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Per-shard state behind the shard's lock: the sub-engine plus the
/// seq-ordered parallel indexes used for cross-shard FIFO arbitration.
struct ShardState<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    eng: MatchEngine<P, U>,
    /// `(seq, entry)` for every live PRQ entry, in seq (= FIFO) order.
    prq_idx: VecDeque<(u64, PostedEntry)>,
    /// `(seq, entry)` for every live UMQ entry, in seq (= FIFO) order.
    umq_idx: VecDeque<(u64, UnexpectedEntry)>,
}

/// The wildcard lane: `MPI_ANY_SOURCE` receives only, with its own lock,
/// structure and seq index (stats live in the engine's lock-free
/// `wild_mirror`).
struct WildState<P>
where
    P: MatchList<PostedEntry>,
{
    prq: P,
    prq_idx: VecDeque<(u64, PostedEntry)>,
}

/// FIFO seq-lane invariant: a parallel `(seq, entry)` index must be
/// strictly seq-increasing (ops stamp under the lane's lock, so ties are
/// impossible) and must list exactly the structure's live entries in the
/// same FIFO order.
fn check_seq_index<E: Element>(idx: &VecDeque<(u64, E)>, snapshot: Vec<E>) -> Result<(), String> {
    for (pos, w) in idx.iter().zip(idx.iter().skip(1)).enumerate() {
        let ((a, _), (b, _)) = w;
        if a >= b {
            return Err(format!(
                "seq index not strictly increasing at position {pos}: {a} then {b}"
            ));
        }
    }
    if idx.len() != snapshot.len() {
        return Err(format!(
            "seq index holds {} entries but the structure holds {}",
            idx.len(),
            snapshot.len()
        ));
    }
    for (pos, ((seq, ie), se)) in idx.iter().zip(snapshot.iter()).enumerate() {
        if ie.id() != se.id() {
            return Err(format!(
                "seq index disagrees with the structure at FIFO position {pos} \
                 (seq {seq}): index id {} vs structure id {}",
                ie.id(),
                se.id()
            ));
        }
    }
    Ok(())
}

/// Position and stamp of the first (= oldest) entry of a posted-receive
/// seq index that matches `env`.
fn first_match(idx: &VecDeque<(u64, PostedEntry)>, env: &Envelope) -> Option<(usize, u64)> {
    idx.iter()
        .enumerate()
        .find_map(|(pos, (seq, e))| e.matches(env).then_some((pos, *seq)))
}

/// A seq-ordered lane of live unexpected rows `(seq, packed key, payload)`
/// that [`merged_probe`] can walk: a published [`SnapRows`] mirror
/// (lock-free, may refuse) or a locked shard's seq index (never refuses).
trait ProbeLane {
    /// Visits rows in seq order until `visit` returns `false`. Returns
    /// `false` if the walk could not be validated, in which case whatever
    /// `visit` saw is meaningless.
    fn walk(&self, visit: impl FnMut(u64, u64, u64) -> bool) -> bool;
}

impl ProbeLane for SnapRows {
    fn walk(&self, visit: impl FnMut(u64, u64, u64) -> bool) -> bool {
        self.scan(visit)
    }
}

impl<L: ProbeLane> ProbeLane for Pad<L> {
    fn walk(&self, visit: impl FnMut(u64, u64, u64) -> bool) -> bool {
        self.0.walk(visit)
    }
}

impl<P, U> ProbeLane for MutexGuard<'_, ShardState<P, U>>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    fn walk(&self, mut visit: impl FnMut(u64, u64, u64) -> bool) -> bool {
        for (seq, e) in self.umq_idx.iter() {
            if !visit(*seq, e.match_key(), e.payload) {
                break;
            }
        }
        true
    }
}

/// The cross-lane probe merge, shared by the lock-free and the locked
/// `iprobe`: the globally earliest row matching `probe` and its 1-based
/// position in the seq-merged (= arrival FIFO) order of all lanes —
/// exactly what a single-engine FIFO scan reports — without materialising
/// or sorting the merge.
///
/// Pass 1 finds the earliest match over the lanes that can hold one
/// (`home` alone for a concrete source, every lane otherwise), leaving
/// each lane at its first match or at the first row stamped after the
/// best so far. Pass 2 runs on a hit only: the depth is the number of
/// rows stamped at or before the match, and since every lane is
/// seq-ordered each lane's walk stops at its first later row. A miss
/// therefore touches one lane for a concrete source.
///
/// Outer `None`: a lane refused its walk and the caller must retry.
fn merged_probe<L: ProbeLane>(
    lanes: &[L],
    home: Option<usize>,
    probe: &PackedProbe,
) -> Option<Option<(u64, u32)>> {
    let candidates = match home {
        Some(si) => &lanes[si..=si],
        None => lanes,
    };
    let mut best: Option<(u64, u64)> = None;
    for lane in candidates {
        let stable = lane.walk(|seq, key, payload| {
            if best.is_some_and(|(bseq, _)| seq >= bseq) {
                return false;
            }
            // Unexpected entries constrain every key bit (mask `!0`),
            // exactly like `UnexpectedEntry::matches`.
            let hit = packed_matches(key, !0, probe);
            if hit {
                best = Some((seq, payload));
            }
            !hit
        });
        if !stable {
            return None;
        }
    }
    let Some((bseq, payload)) = best else {
        return Some(None);
    };
    let mut depth = 0u32;
    for lane in lanes {
        let stable = lane.walk(|seq, _, _| {
            let earlier = seq <= bseq;
            depth += u32::from(earlier);
            earlier
        });
        if !stable {
            return None;
        }
    }
    Some(Some((payload, depth)))
}

/// A lock plus its contention counters (counted on the workload path,
/// bypassed by observer snapshots). The counters are written only by the
/// thread that has just acquired `inner`, so they are single-writer words
/// ([`sw_add`]) and a `lock()` costs no read-modify-write beyond the
/// mutex's own.
struct Counted<T> {
    inner: Mutex<T>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl<T> Counted<T> {
    fn new(inner: T) -> Self {
        Self {
            inner: Mutex::new(inner),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(_) => {
                let g = self.inner.lock().expect("shard lock poisoned");
                sw_add(&self.contended, 1);
                g
            }
        };
        sw_add(&self.acquisitions, 1);
        g
    }

    fn lock_uncounted(&self) -> MutexGuard<'_, T> {
        self.inner.lock().expect("shard lock poisoned")
    }

    fn lock_stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }
}

/// A concurrent matching engine sharding the PRQ/UMQ by source rank
/// across `S` independently-locked sub-engines, with a wildcard-aware
/// slow path (see the module docs for the protocol).
pub struct ShardedEngine<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    shards: Vec<Pad<Counted<ShardState<P, U>>>>,
    /// Per-shard published mirrors of the unexpected queues — the
    /// seqlock-protected rows every lock-free read path walks.
    snaps: Vec<Pad<SnapRows>>,
    /// Per-shard lock-free stat/length mirrors, written under the shard
    /// lock, read by `stats`/`queue_lens`/`shard_stats` with no lock.
    mirrors: Vec<Pad<MirrorStats>>,
    /// The wildcard lane's stat/length mirror.
    wild_mirror: MirrorStats,
    /// Per-shard unexpected-message counts maintained *outside* the shard
    /// locks: queued UMQ entries plus in-flight arrivals that have not yet
    /// resolved to matched-or-queued. The wildcard fast path reads these
    /// (SeqCst) to prove "no shard can hold a match" without taking S
    /// locks; a nonzero count only ever sends it to the slow path, so
    /// transient over-counts are safe.
    umq_counts: Vec<Pad<AtomicUsize>>,
    wild: Counted<WildState<P>>,
    /// Global epoch/sequence counter; stamped while holding the op's locks.
    seq: Pad<AtomicU64>,
    /// The wildcard lane's occupancy, keyed by what an arrival knows — its
    /// tag: `wild_slots[wild_slot(tag, context)]` counts the live wildcard
    /// receives naming that tag (and any others hashing with it), the last
    /// word those with `MPI_ANY_TAG`. An arrival crosses into the lane only
    /// if its own slot or the last reads non-zero. Updated under the
    /// wildcard-lane lock, always together with `wild_len`. A slot may read
    /// stale-high for an arrival racing a fast-path park that will fall
    /// back (a harmless phantom crossing, as is a hash collision), but
    /// never stale-low: the SeqCst store-buffering pair with `umq_counts`
    /// guarantees an arrival misses a parked wildcard *that could match
    /// it* only if the poster saw the arrival's count bump and took the
    /// slow path (which serializes on the shard locks).
    wild_slots: Pad<[AtomicUsize; WILD_SLOTS + 1]>,
    /// Live wildcard receives: the lane length `queue_lens` reports and
    /// `validate` checks against the lane, the mirror and the slot sum.
    /// No matching decision reads it — that is `wild_slots`' job.
    wild_len: Pad<AtomicUsize>,
    /// Arrivals that crossed into the wildcard lane.
    wild_crossings: AtomicU64,
    /// When false, arrivals skip the wildcard seq comparison whenever
    /// their own shard has a match — the injected conformance adversary.
    check_wild_overtaking: bool,
    /// When false, mutating ops skip the snapshot commit (no version bump,
    /// rows never published) — the injected "skips the seq bump on write"
    /// conformance adversary. See [`Self::with_snap_commit_disabled`].
    snap_commit: bool,
    /// Lock-free probe attempts that had to retry (writer interference).
    snap_retries: AtomicU64,
    /// Lock-free probes that exhausted their retries and locked.
    snap_fallbacks: AtomicU64,
    /// Wildcard posts parked by the lock-free candidate pre-scan.
    prescan_parks: AtomicU64,
    /// Wildcard posts the pre-scan sent to the locked slow path.
    prescan_fallbacks: AtomicU64,
}

impl<P, U> ShardedEngine<P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    /// Builds an engine with `num_shards` shards, each wrapping fresh
    /// structures from the factories (plus one more `P` for the wildcard
    /// lane).
    pub fn new(num_shards: usize, mk_prq: impl FnMut() -> P, mk_umq: impl FnMut() -> U) -> Self {
        Self::build(num_shards, mk_prq, mk_umq, true)
    }

    fn build(
        num_shards: usize,
        mut mk_prq: impl FnMut() -> P,
        mut mk_umq: impl FnMut() -> U,
        snap_commit: bool,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let shards = (0..num_shards)
            .map(|_| {
                Pad(Counted::new(ShardState {
                    eng: MatchEngine::new(mk_prq(), mk_umq()),
                    prq_idx: VecDeque::new(),
                    umq_idx: VecDeque::new(),
                }))
            })
            .collect();
        Self {
            shards,
            snaps: (0..num_shards)
                .map(|_| Pad(SnapRows::new(snap_commit, SNAP_ROWS_MAX)))
                .collect(),
            mirrors: (0..num_shards).map(|_| Pad(MirrorStats::new())).collect(),
            wild_mirror: MirrorStats::new(),
            umq_counts: (0..num_shards).map(|_| Pad(AtomicUsize::new(0))).collect(),
            wild: Counted::new(WildState {
                prq: mk_prq(),
                prq_idx: VecDeque::new(),
            }),
            seq: Pad(AtomicU64::new(0)),
            wild_slots: Pad(std::array::from_fn(|_| AtomicUsize::new(0))),
            wild_len: Pad(AtomicUsize::new(0)),
            wild_crossings: AtomicU64::new(0),
            check_wild_overtaking: true,
            snap_commit,
            snap_retries: AtomicU64::new(0),
            snap_fallbacks: AtomicU64::new(0),
            prescan_parks: AtomicU64::new(0),
            prescan_fallbacks: AtomicU64::new(0),
        }
    }

    /// The injected-bug adversary: identical to [`Self::new`] except that
    /// arrivals **skip the wildcard epoch/seq check** whenever their own
    /// shard holds any match — so a newer concrete receive overtakes an
    /// older `MPI_ANY_SOURCE` receive. Exists so the conformance harness
    /// can prove its concurrent and interleaving drivers actually catch
    /// this class of bug; never use it as an engine.
    pub fn with_wildcard_check_disabled(
        num_shards: usize,
        mk_prq: impl FnMut() -> P,
        mk_umq: impl FnMut() -> U,
    ) -> Self {
        let mut e = Self::new(num_shards, mk_prq, mk_umq);
        e.check_wild_overtaking = false;
        e
    }

    /// The seqlock-protocol adversary: identical to [`Self::new`] except
    /// that mutating ops **skip the snapshot commit** — no version bump,
    /// no published rows — so lock-free probes answer from a stale
    /// snapshot and miss queued messages. Exists so the conformance
    /// harness can prove the interleaving scheduler convicts this class
    /// of bug deterministically; never use it as an engine.
    pub fn with_snap_commit_disabled(
        num_shards: usize,
        mk_prq: impl FnMut() -> P,
        mk_umq: impl FnMut() -> U,
    ) -> Self {
        Self::build(num_shards, mk_prq, mk_umq, false)
    }

    /// Retry/fallback counters for the lock-free read paths.
    pub fn snap_read_stats(&self) -> SnapReadStats {
        SnapReadStats {
            probe_retries: self.snap_retries.load(Ordering::Relaxed),
            probe_fallbacks: self.snap_fallbacks.load(Ordering::Relaxed),
            prescan_parks: self.prescan_parks.load(Ordering::Relaxed),
            prescan_fallbacks: self.prescan_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning a source rank (ranks compare in the entry layout's
    /// 16-bit domain, so sharding uses the same truncation).
    fn shard_of(&self, rank: i32) -> usize {
        (rank as u32 as usize & 0xFFFF) % self.shards.len()
    }

    /// The one lane that can hold a match for `spec`, or `None` when an
    /// `MPI_ANY_SOURCE` spec can match in any of them.
    fn home_lane(&self, spec: &RecvSpec) -> Option<usize> {
        (spec.rank != ANY_SOURCE).then(|| self.shard_of(spec.rank))
    }

    /// Shard owning a source rank, for the batched-ingestion ring router.
    pub(crate) fn shard_index(&self, rank: i32) -> usize {
        self.shard_of(rank)
    }

    /// Locks every shard in index order (the fixed global lock order that
    /// keeps the slow paths deadlock-free). The wildcard lane, when
    /// needed, is always acquired after all shards.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ShardState<P, U>>> {
        self.shards.iter().map(|s| s.lock()).collect()
    }

    fn lock_all_uncounted(&self) -> Vec<MutexGuard<'_, ShardState<P, U>>> {
        self.shards.iter().map(|s| s.lock_uncounted()).collect()
    }

    /// Checks the engine's cross-shard invariants at a quiescent point (no
    /// in-flight operations on other threads): per-shard seq indexes
    /// strictly increasing and agreeing with the structures entry-for-entry,
    /// `umq_counts` agreeing with the queued UMQ lengths, the wildcard
    /// lane's three length views agreeing, every `wild_slots` word equal to
    /// the number of lane entries that hash to it (the proof that no
    /// arrival can be filtered past a wildcard it matches), and every
    /// underlying structure's own [`MatchList::validate`].
    ///
    /// Takes the uncounted locks itself (shards in index order, then the
    /// wildcard lane — the engine's fixed lock order), so it must **not**
    /// be called while this thread holds any shard or wildcard guard. The
    /// conformance drivers call it between ops and after thread joins under
    /// `--features debug_invariants`.
    pub fn validate(&self) -> Result<(), String> {
        let guards = self.lock_all_uncounted();
        let wild = self.wild.lock_uncounted();
        for (si, g) in guards.iter().enumerate() {
            g.eng.validate().map_err(|e| format!("shard {si}: {e}"))?;
            check_seq_index(&g.prq_idx, g.eng.prq().snapshot())
                .map_err(|e| format!("shard {si} prq: {e}"))?;
            check_seq_index(&g.umq_idx, g.eng.umq().snapshot())
                .map_err(|e| format!("shard {si} umq: {e}"))?;
            let counted = self.umq_counts[si].load(Ordering::SeqCst);
            if counted != g.eng.umq_len() {
                return Err(format!(
                    "shard {si}: umq_counts says {counted} but the queue holds {}",
                    g.eng.umq_len()
                ));
            }
            self.validate_mirrors(si, g)?;
        }
        wild.prq.validate().map_err(|e| format!("wild prq: {e}"))?;
        check_seq_index(&wild.prq_idx, wild.prq.snapshot()).map_err(|e| format!("wild: {e}"))?;
        let published = self.wild_len.load(Ordering::SeqCst);
        if published != wild.prq.len() {
            return Err(format!(
                "wild_len says {published} but the lane holds {}",
                wild.prq.len()
            ));
        }
        let (wmp, wmu) = self.wild_mirror.lens();
        if (wmp, wmu) != (wild.prq.len(), 0) {
            return Err(format!(
                "wild mirror lens say ({wmp}, {wmu}) but the lane holds ({}, 0)",
                wild.prq.len()
            ));
        }
        let mut held = [0usize; WILD_SLOTS + 1];
        for (_, e) in wild.prq_idx.iter() {
            held[entry_slot(e)] += 1;
        }
        for (slot, (word, held)) in self.wild_slots.iter().zip(held).enumerate() {
            let published = word.load(Ordering::SeqCst);
            if published != held {
                return Err(format!(
                    "wild_slots[{slot}] says {published} but the lane holds {held} such entries"
                ));
            }
        }
        Ok(())
    }

    /// Quiescent cross-checks of shard `si`'s lock-free mirrors against
    /// the locked truth: mirrored lengths, mirrored stat counters
    /// (field-by-field — [`EngineStats`] has no `PartialEq`), and the
    /// published snapshot rows against the seq index entry-for-entry.
    fn validate_mirrors(&self, si: usize, g: &ShardState<P, U>) -> Result<(), String> {
        let (mp, mu) = self.mirrors[si].lens();
        if (mp, mu) != (g.eng.prq_len(), g.eng.umq_len()) {
            return Err(format!(
                "shard {si}: mirror lens say ({mp}, {mu}) but the queues hold ({}, {})",
                g.eng.prq_len(),
                g.eng.umq_len()
            ));
        }
        let inner = g.eng.stats();
        let mirror = self.mirrors[si].snapshot();
        if mirror.prq_search != inner.prq_search || mirror.umq_search != inner.umq_search {
            return Err(format!(
                "shard {si}: mirrored search depths diverged \
                 (prq {:?} vs {:?}, umq {:?} vs {:?})",
                mirror.prq_search, inner.prq_search, mirror.umq_search, inner.umq_search
            ));
        }
        let m4 = (
            mirror.prq_hits,
            mirror.umq_hits,
            mirror.prq_appends,
            mirror.umq_appends,
        );
        let i4 = (
            inner.prq_hits,
            inner.umq_hits,
            inner.prq_appends,
            inner.umq_appends,
        );
        if m4 != i4 {
            return Err(format!(
                "shard {si}: mirrored counters {m4:?} != engine counters {i4:?}"
            ));
        }
        // The adversary never publishes; after overflow the mirror is
        // legitimately incomplete (readers already fall back).
        if !self.snap_commit || self.snaps[si].overflowed() {
            return Ok(());
        }
        let mut rows = Vec::with_capacity(g.umq_idx.len());
        if !self.snaps[si].scan(|s, k, v| {
            rows.push((s, k, v));
            true
        }) {
            return Err(format!(
                "shard {si}: published snapshot unreadable at quiescence"
            ));
        }
        if rows.len() != g.umq_idx.len() {
            return Err(format!(
                "shard {si}: snapshot publishes {} rows but the seq index holds {}",
                rows.len(),
                g.umq_idx.len()
            ));
        }
        for (pos, (&(rs, rk, rv), (es, e))) in rows.iter().zip(g.umq_idx.iter()).enumerate() {
            if rs != *es || rk != e.match_key() || rv != e.payload {
                return Err(format!(
                    "shard {si}: snapshot row {pos} is ({rs}, {rk:#x}, {rv}) but the \
                     index holds ({es}, {:#x}, {})",
                    e.match_key(),
                    e.payload
                ));
            }
        }
        Ok(())
    }

    fn next_seq(&self) -> u64 {
        // SeqCst: the wildcard fast path's soundness argument orders seq
        // stamps against `umq_counts`/`wild_slots` operations in the single
        // SeqCst total order.
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Applies `op`, returning its linearization stamp (taken while the
    /// op holds every lock it uses) and outcome. The shards are unbounded:
    /// no outcome is ever a rejection.
    pub fn apply(&self, op: Op) -> (u64, Outcome) {
        match op {
            // An `MPI_ANY_SOURCE` spec takes the slow path described in
            // the module docs; a concrete source only its shard's lock.
            Op::PostRecv { spec, request } if spec.rank == ANY_SOURCE => {
                self.post_recv_wild(spec, request)
            }
            Op::PostRecv { spec, request } => {
                let si = self.shard_of(spec.rank);
                let mut g = self.shards[si].lock();
                self.post_recv_locked(si, &mut g, spec, request)
            }
            Op::Arrival { env, payload } => {
                let si = self.shard_of(env.rank);
                let mut g = self.shards[si].lock();
                self.arrival_locked(si, &mut g, env, payload)
            }
            Op::Cancel { request } => self.cancel(request),
            Op::Iprobe { spec } => self.probe(spec),
        }
    }

    stamped_verbs!();

    /// The concrete-source post body, shared by the direct path and the
    /// ring drain. Caller holds shard `si`'s lock; the spec's rank must
    /// route to `si`. Follows the writer protocol: window open, *then*
    /// stamp, then mutate, then close.
    fn post_recv_locked(
        &self,
        si: usize,
        g: &mut ShardState<P, U>,
        spec: RecvSpec,
        request: u64,
    ) -> (u64, Outcome) {
        debug_assert_eq!(self.shard_of(spec.rank), si, "op routed to wrong shard");
        let snap = &self.snaps[si];
        let m = &self.mirrors[si];
        snap.begin();
        let seq = self.next_seq();
        let out = g.eng.apply(Op::PostRecv { spec, request }).1;
        match out.matched() {
            Some(payload) => {
                let pos = g
                    .umq_idx
                    .iter()
                    .position(|(_, e)| e.matches(&spec))
                    // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                    .expect("structure matched, so the seq index must too");
                // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                let (eseq, e) = g.umq_idx.remove(pos).expect("position exists");
                debug_assert_eq!(e.payload, payload, "structure and index disagree");
                snap.kill(eseq);
                self.umq_counts[si].fetch_sub(1, Ordering::SeqCst);
                m.add_umq_hit();
            }
            None => {
                g.prq_idx
                    .push_back((seq, PostedEntry::from_spec(spec, request)));
                m.add_prq_append();
            }
        }
        m.umq_search.record(out.depth() as u64);
        m.note_occupancy(g.eng.prq_len(), g.eng.umq_len());
        snap.end();
        (seq, out)
    }

    /// Posts an `MPI_ANY_SOURCE` receive: lock-free-park fast path when
    /// every shard's unexpected count reads zero, otherwise the all-lock
    /// slow path (see the module docs for the soundness argument).
    fn post_recv_wild(&self, spec: RecvSpec, request: u64) -> (u64, Outcome) {
        let entry = PostedEntry::from_spec(spec, request);
        let slot = entry_slot(&entry);
        {
            let mut wild = self.wild.lock();
            // Publish occupancy *before* taking the seq and reading the
            // counts — the poster half of the store-buffering pair.
            self.wild_occupy(slot);
            let seq = self.next_seq();
            let all_empty = self
                .umq_counts
                .iter()
                .all(|c| c.load(Ordering::SeqCst) == 0);
            // Seq-unchanged check: if any other operation stamped itself
            // since our `seq`, a remover with a later stamp may already
            // have hidden a message that was still queued at our
            // linearization point — retry through the slow path.
            if all_empty && self.seq.load(Ordering::SeqCst) == seq + 1 {
                self.park_wild(&mut wild, seq, entry, 0);
                return (seq, Outcome::Posted { depth: 0 });
            }
            // Counts are nonzero (or a racer stamped): before paying for
            // every shard lock, try to prove "no queued message matches"
            // from the published snapshots alone.
            if let Some(inspected) = self.wild_prescan_clear(&spec, seq) {
                self.prescan_parks.fetch_add(1, Ordering::Relaxed);
                self.park_wild(&mut wild, seq, entry, inspected);
                return (seq, Outcome::Posted { depth: inspected });
            }
            self.prescan_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.wild_vacate(slot);
            // The wildcard lock is released before the slow path re-locks
            // shards-then-wild, preserving the global lock order.
        }
        self.post_recv_wild_slow(spec, request)
    }

    /// Lock-free wildcard candidate pre-scan: walks every shard's
    /// published snapshot and returns `Some(rows inspected)` iff the
    /// composite snapshot is valid at the caller's stamp `seq` *and* no
    /// live row matches `spec` — in which case parking immediately is
    /// linearizable at `seq`. Caller holds the wildcard lock and has
    /// already published its `wild_slots` bump and taken `seq`.
    ///
    /// Validity needs three checks: every lane read under a stable
    /// version, every lane's live-row count equal to its `umq_counts`
    /// entry (an in-flight arrival that pre-bumped its count but has not
    /// yet published may have read its slot *before* our bump — the
    /// count mismatch is the only trace it leaves), and the global seq
    /// unchanged (no racing remover with a later stamp).
    fn wild_prescan_clear(&self, spec: &RecvSpec, seq: u64) -> Option<u32> {
        let probe = spec.packed();
        let mut inspected = 0u32;
        for (snap, count) in self.snaps.iter().zip(&self.umq_counts) {
            let mut live = 0usize;
            let mut matched = false;
            let stable = snap.scan(|_, key, _| {
                live += 1;
                matched = packed_matches(key, !0, &probe);
                !matched
            });
            if !stable || matched || live != count.load(Ordering::SeqCst) {
                return None;
            }
            inspected += live as u32;
        }
        (self.seq.load(Ordering::SeqCst) == seq + 1).then_some(inspected)
    }

    /// Counts one more live wildcard under `slot`. Caller holds the
    /// wildcard-lane lock. On the fast path this is the poster's half of
    /// the store-buffering pair and must precede its seq stamp.
    fn wild_occupy(&self, slot: usize) {
        self.wild_slots[slot].fetch_add(1, Ordering::SeqCst);
        self.wild_len.fetch_add(1, Ordering::SeqCst);
    }

    /// Drops one live wildcard from `slot` (matched, cancelled, or a
    /// fast-path park undone). Caller holds the wildcard-lane lock.
    fn wild_vacate(&self, slot: usize) {
        self.wild_slots[slot].fetch_sub(1, Ordering::SeqCst);
        self.wild_len.fetch_sub(1, Ordering::SeqCst);
    }

    /// Parks a wildcard receive in the lane (caller holds the wildcard
    /// lock and accounts for the occupancy words itself). `inspected` is
    /// the number of unexpected entries examined before concluding no
    /// match.
    fn park_wild(&self, wild: &mut WildState<P>, seq: u64, entry: PostedEntry, inspected: u32) {
        wild.prq.append(entry, &mut crate::sink::NullSink);
        wild.prq_idx.push_back((seq, entry));
        self.wild_mirror.umq_search.record(inspected as u64);
        self.wild_mirror.add_prq_append();
        self.wild_mirror.note_occupancy(wild.prq.len(), 0);
    }

    /// The wildcard slow path: all shard locks + the wildcard lane, a
    /// global (seq-ordered) search of every shard's unexpected queue,
    /// then either an immediate match or parking in the wildcard lane.
    fn post_recv_wild_slow(&self, spec: RecvSpec, request: u64) -> (u64, Outcome) {
        let mut guards = self.lock_all();
        let mut wild = self.wild.lock();
        // A match (if any) lives in a shard unknown until the scan ends,
        // so the writer protocol demands opening *every* lane's write
        // window before stamping (we hold every lock anyway).
        for s in &self.snaps {
            s.begin();
        }
        let seq = self.next_seq();

        // Globally earliest matching unexpected message: each shard's seq
        // index is seq-ordered, so its first match is its earliest; the
        // winner is the min across shards.
        let mut best: Option<(u64, usize)> = None;
        let mut inspected = 0u32;
        for (si, g) in guards.iter().enumerate() {
            for (eseq, e) in g.umq_idx.iter() {
                if let Some((bseq, _)) = best {
                    if *eseq >= bseq {
                        break;
                    }
                }
                inspected += 1;
                if e.matches(&spec) {
                    best = Some((*eseq, si));
                    break;
                }
            }
        }
        let result = match best {
            Some((bseq, si)) => {
                let g = &mut guards[si];
                let out = g.eng.apply(Op::PostRecv { spec, request }).1;
                let Outcome::MatchedUnexpected { payload, depth } = out else {
                    // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                    panic!("seq index found a match the structure missed");
                };
                let pos = g
                    .umq_idx
                    .iter()
                    .position(|(_, e)| e.matches(&spec))
                    // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                    .expect("match present");
                // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                let (eseq, e) = g.umq_idx.remove(pos).expect("position exists");
                debug_assert_eq!(e.payload, payload);
                debug_assert_eq!(eseq, bseq);
                self.snaps[si].kill(eseq);
                self.umq_counts[si].fetch_sub(1, Ordering::SeqCst);
                let m = &self.mirrors[si];
                m.umq_search.record(depth as u64);
                m.add_umq_hit();
                m.note_occupancy(g.eng.prq_len(), g.eng.umq_len());
                // The shard sub-engine already recorded the hit; only the
                // globally-inspected depth is reported to the caller.
                (
                    seq,
                    Outcome::MatchedUnexpected {
                        payload,
                        depth: inspected,
                    },
                )
            }
            None => {
                let entry = PostedEntry::from_spec(spec, request);
                self.park_wild(&mut wild, seq, entry, inspected);
                self.wild_occupy(entry_slot(&entry));
                (seq, Outcome::Posted { depth: inspected })
            }
        };
        for s in &self.snaps {
            s.end();
        }
        result
    }

    /// The arrival body, shared by the direct path and the ring drain:
    /// shard fast path, with the wildcard-lane crossing only when the lane
    /// holds a receive on the arrival's tag slot (or an `MPI_ANY_TAG`
    /// one). Caller holds shard `si`'s lock; the envelope's rank must
    /// route to `si`.
    fn arrival_locked(
        &self,
        si: usize,
        g: &mut ShardState<P, U>,
        env: Envelope,
        payload: u64,
    ) -> (u64, Outcome) {
        debug_assert_eq!(self.shard_of(env.rank), si, "op routed to wrong shard");
        // Pre-bump this shard's unexpected count *before* reading the
        // wildcard-lane occupancy — the arrival half of the store-buffering
        // pair: a racing fast-path wildcard post that could match this
        // message either sees this bump (and takes the slow path) or has
        // already parked with its slot published (and the read below sees
        // it). Undone below unless the message actually queues.
        self.umq_counts[si].fetch_add(1, Ordering::SeqCst);
        // A wildcard can match this message only from the message's own
        // tag slot or from the `MPI_ANY_TAG` slot; with both empty the
        // lane cannot hold its match and the arrival stays on its shard.
        let crossing = self.wild_slots[wild_slot(env.tag, env.context_id)].load(Ordering::SeqCst)
            > 0
            || self.wild_slots[WILD_SLOTS].load(Ordering::SeqCst) > 0;
        let mut wild = crossing.then(|| {
            self.wild_crossings.fetch_add(1, Ordering::Relaxed);
            self.wild.lock()
        });
        let snap = &self.snaps[si];
        let m = &self.mirrors[si];
        snap.begin();
        let seq = self.next_seq();

        // The seq indexes are walked ahead of the structures only to
        // arbitrate between a wildcard candidate and the shard's own: no
        // crossing, or no candidate in the lane, and the structure's walk
        // below is the only one.
        let wild_first = wild.as_ref().and_then(|w| first_match(&w.prq_idx, &env));
        let shard_first = wild_first.and_then(|_| first_match(&g.prq_idx, &env));

        // The seq comparison the adversary skips: with it, the *older* of
        // the two candidate receives wins, preserving non-overtaking.
        let wild_wins = wild_first.filter(|&(_, ws)| {
            shard_first.is_none_or(|(_, ss)| self.check_wild_overtaking && ws < ss)
        });

        if let (Some((wpos, _)), Some(w)) = (wild_wins, wild.as_mut()) {
            let r = w.prq.search_remove(&env, &mut crate::sink::NullSink);
            // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
            let recv = r.found.expect("index found a match the structure missed");
            // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
            let (_, ie) = w.prq_idx.remove(wpos).expect("position exists");
            debug_assert_eq!(ie.request, recv.request);
            let scanned = shard_first.map_or(g.prq_idx.len(), |(pos, _)| pos + 1) + wpos + 1;
            self.wild_mirror.prq_search.record(scanned as u64);
            self.wild_mirror.add_prq_hit();
            self.wild_mirror.note_occupancy(w.prq.len(), 0);
            self.wild_vacate(entry_slot(&ie));
            self.umq_counts[si].fetch_sub(1, Ordering::SeqCst);
            snap.end();
            return (
                seq,
                Outcome::MatchedPosted {
                    request: recv.request,
                    depth: scanned as u32,
                },
            );
        }

        drop(wild);
        let out = g.eng.apply(Op::Arrival { env, payload }).1;
        match out.matched() {
            Some(request) => {
                let pos = match shard_first {
                    Some((pos, _)) => pos,
                    None => g
                        .prq_idx
                        .iter()
                        .position(|(_, e)| e.matches(&env))
                        // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                        .expect("structure matched, so the seq index must too"),
                };
                // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                let (_, ie) = g.prq_idx.remove(pos).expect("position exists");
                debug_assert_eq!(ie.request, request);
                // Matched, so nothing was queued: undo the pre-bump.
                self.umq_counts[si].fetch_sub(1, Ordering::SeqCst);
                m.add_prq_hit();
            }
            None => {
                debug_assert!(shard_first.is_none());
                let e = UnexpectedEntry::from_envelope(env, payload);
                g.umq_idx.push_back((seq, e));
                snap.append(seq, e.match_key(), payload);
                m.add_umq_append();
                // The pre-bump stands: it now counts the queued message.
            }
        }
        m.prq_search.record(out.depth() as u64);
        m.note_occupancy(g.eng.prq_len(), g.eng.umq_len());
        snap.end();
        (seq, out)
    }

    /// Cancels a posted receive (`MPI_Cancel`). Requests are expected to
    /// be unique (as every driver in this workspace guarantees); the scan
    /// takes the all-lock slow path so it is atomic against every racing
    /// post and arrival.
    fn cancel(&self, request: u64) -> (u64, Outcome) {
        let mut guards = self.lock_all();
        let mut wild = self.wild.lock();
        // Cancels touch PRQ state only — no unexpected-queue rows — so no
        // snapshot write window is needed; the stamp alone makes racing
        // lock-free probes retry, which is conservative and sound.
        let seq = self.next_seq();
        for (si, g) in guards.iter_mut().enumerate() {
            if g.eng.cancel_recv(request) {
                let pos = g
                    .prq_idx
                    .iter()
                    .position(|(_, e)| e.request == request)
                    // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                    .expect("structure removed the entry, index must hold it");
                g.prq_idx.remove(pos);
                self.mirrors[si].note_occupancy(g.eng.prq_len(), g.eng.umq_len());
                return (seq, Outcome::Cancelled(true));
            }
        }
        if let Some(recv) = wild.prq.remove_by_id(request, &mut crate::sink::NullSink) {
            let pos = wild
                .prq_idx
                .iter()
                .position(|(_, e)| e.request == recv.request)
                // spc-allow(hot-path-panic): seq index mirrors the structure; divergence is engine corruption
                .expect("index holds every wild entry");
            wild.prq_idx.remove(pos);
            self.wild_mirror.note_occupancy(wild.prq.len(), 0);
            self.wild_vacate(entry_slot(&recv));
            return (seq, Outcome::Cancelled(true));
        }
        (seq, Outcome::Cancelled(false))
    }

    /// Non-destructive unexpected-queue probe (`MPI_Iprobe`). Both the
    /// match *and* the reported depth agree exactly with a single-engine
    /// FIFO scan: the earliest match by global seq (= arrival FIFO) order
    /// and its position in the seq-merge of every shard's unexpected
    /// queue (see `merged_probe`; a concrete-source miss reads only the
    /// source's own shard).
    ///
    /// The lock-free path takes its stamp by *loading* the seq counter
    /// rather than advancing it, so several concurrent probes may share a
    /// stamp with each other and with the next writer; a probe always
    /// linearizes *before* a same-stamp writer (it validated the
    /// pre-writer snapshot), which is how the conformance log sorts them.
    fn probe(&self, spec: RecvSpec) -> (u64, Outcome) {
        if let Some((s0, hit)) = self.iprobe_snap(&spec) {
            return (s0, Outcome::Probed(hit));
        }
        self.snap_fallbacks.fetch_add(1, Ordering::Relaxed);
        let (seq, hit) = self.iprobe_locked(spec);
        (seq, Outcome::Probed(hit))
    }

    /// Seqlock probe: up to [`SNAP_PROBE_RETRIES`] attempts at
    /// [`merged_probe`] over the published rows, each bracketed by the
    /// global seq so whatever lanes it walked, however often, were all
    /// read as of `s0`. `None` means every attempt hit writer
    /// interference (or a mirror overflowed) and the caller must lock.
    fn iprobe_snap(&self, spec: &RecvSpec) -> Option<(u64, Option<(u64, u32)>)> {
        let home = self.home_lane(spec);
        let probe = spec.packed();
        for _ in 0..SNAP_PROBE_RETRIES {
            let s0 = self.seq.load(Ordering::SeqCst);
            if let Some(hit) = merged_probe(&self.snaps, home, &probe) {
                if self.seq.load(Ordering::SeqCst) == s0 {
                    return Some((s0, hit));
                }
            }
            self.snap_retries.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// The locked probe, the fallback once the seqlock retries are spent:
    /// all shard locks, then the same [`merged_probe`] over the seq indexes.
    fn iprobe_locked(&self, spec: RecvSpec) -> (u64, Option<(u64, u32)>) {
        let guards = self.lock_all();
        let seq = self.next_seq();
        let hit = merged_probe(&guards, self.home_lane(&spec), &spec.packed());
        // spc-allow(hot-path-panic): a locked lane walk cannot be refused
        (seq, hit.expect("locked lanes always walk"))
    }

    /// Applies every buffered op in `rings` (pairs of `(producer id,
    /// ring)` targeting shard `si`) under **one** lock acquisition,
    /// stamping each op at drain time and reporting `(producer, seq, op,
    /// outcome)` to `record`. Returns the number of ops applied.
    /// The consumer side of each ring is serialized by the shard lock
    /// taken here.
    pub(crate) fn drain_rings(
        &self,
        si: usize,
        rings: &[(usize, &IngestRing)],
        mut record: impl FnMut(usize, u64, IngestOp, Outcome),
    ) -> usize {
        if rings.iter().all(|(_, r)| r.is_empty()) {
            return 0;
        }
        let mut g = self.shards[si].lock();
        let mut n = 0;
        for (p, ring) in rings {
            while let Some(op) = ring.pop() {
                n += 1;
                let (seq, out) = match op {
                    IngestOp::Post { spec, request } => {
                        self.post_recv_locked(si, &mut g, spec, request)
                    }
                    IngestOp::Arrive { env, payload } => {
                        self.arrival_locked(si, &mut g, env, payload)
                    }
                };
                record(*p, seq, op, out);
            }
        }
        n
    }

    /// Current queue lengths `(prq, umq)`, wildcard lane included.
    /// Lock-free: reads the per-shard mirrors and the wildcard length
    /// atomic — exact at quiescence, transiently stale mid-race, and
    /// never a lock acquisition or contention event.
    pub fn queue_lens(&self) -> (usize, usize) {
        let mut prq = self.wild_len.load(Ordering::SeqCst);
        let mut umq = 0;
        for m in &self.mirrors {
            let (p, u) = m.lens();
            prq += p;
            umq += u;
        }
        (prq, umq)
    }

    /// Merged statistics across every shard and the wildcard lane, with
    /// [`EngineStats::concurrency`] populated (per-shard contention,
    /// occupancy highwater marks, wildcard-lane crossings). Lock-free:
    /// assembled entirely from the stat mirrors, so a stats-polling
    /// thread never touches a shard lock (`validate` proves the mirrors
    /// equal the locked truth at quiescence).
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::new();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (m, c) in self.mirrors.iter().zip(self.shards.iter()) {
            total.merge(&m.snapshot());
            shards.push(m.shard_row(c.lock_stats()));
        }
        total.merge(&self.wild_mirror.snapshot());
        total.concurrency = Some(ConcurrencyStats {
            shards,
            wild: Some(self.wild_mirror.shard_row(self.wild.lock_stats())),
            wild_crossings: self.wild_crossings.load(Ordering::Relaxed),
        });
        total
    }

    /// Aggregate lock-contention counters over every shard and the
    /// wildcard lane (workload acquisitions only).
    pub fn lock_stats(&self) -> LockStats {
        let mut t = LockStats::default();
        for s in &self.shards {
            t.merge(&s.lock_stats());
        }
        t.merge(&self.wild.lock_stats());
        t
    }

    /// Per-shard contention and occupancy rows (lock-free mirror reads).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.mirrors
            .iter()
            .zip(self.shards.iter())
            .map(|(m, c)| m.shard_row(c.lock_stats()))
            .collect()
    }

    /// `(PRQ request ids, UMQ payload ids)` in global FIFO order, merged
    /// from the shard indexes by seq — what a single-engine snapshot
    /// would show. For the lockstep differential driver.
    pub fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
        let guards = self.lock_all_uncounted();
        let wild = self.wild.lock_uncounted();
        let mut prq: Vec<(u64, u64)> = wild.prq_idx.iter().map(|(s, e)| (*s, e.request)).collect();
        let mut umq: Vec<(u64, u64)> = Vec::new();
        for g in guards.iter() {
            prq.extend(g.prq_idx.iter().map(|(s, e)| (*s, e.request)));
            umq.extend(g.umq_idx.iter().map(|(s, e)| (*s, e.payload)));
        }
        prq.sort_unstable_by_key(|&(s, _)| s);
        umq.sort_unstable_by_key(|&(s, _)| s);
        (
            prq.into_iter().map(|(_, r)| r).collect(),
            umq.into_iter().map(|(_, p)| p).collect(),
        )
    }

    /// Empties every queue and clears statistics (epoch counter keeps
    /// running so seq stamps stay globally unique across resets).
    pub fn reset(&self) {
        let mut guards = self.lock_all();
        let mut wild = self.wild.lock();
        for s in &self.snaps {
            s.begin();
        }
        self.next_seq();
        for (si, g) in guards.iter_mut().enumerate() {
            g.eng.reset();
            g.prq_idx.clear();
            g.umq_idx.clear();
            self.snaps[si].clear();
            self.mirrors[si].clear();
        }
        wild.prq.clear();
        wild.prq_idx.clear();
        self.wild_mirror.clear();
        for c in &self.umq_counts {
            c.store(0, Ordering::SeqCst);
        }
        for slot in self.wild_slots.iter() {
            slot.store(0, Ordering::SeqCst);
        }
        self.wild_len.store(0, Ordering::SeqCst);
        for s in &self.snaps {
            s.end();
        }
    }
}

stamped_engine!(ShardedEngine);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{ANY_SOURCE, ANY_TAG};
    use crate::list::{BaselineList, Lla};

    type TestEngine = ShardedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;

    fn engine(shards: usize) -> TestEngine {
        ShardedEngine::new(shards, Lla::new, Lla::new)
    }

    #[test]
    fn round_trips_concrete_messages_per_shard() {
        let eng = engine(4);
        for rank in 0..8 {
            eng.post_recv(RecvSpec::new(rank, 7, 0), rank as u64);
        }
        for rank in 0..8 {
            match eng.arrival(Envelope::new(rank, 7, 0), 100 + rank as u64) {
                ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, rank as u64),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(eng.queue_lens(), (0, 0));
    }

    #[test]
    fn wildcard_receive_matches_globally_earliest_unexpected() {
        let eng = engine(4);
        // Arrivals land on three different shards; seq order 0,1,2.
        eng.arrival(Envelope::new(5, 1, 0), 50);
        eng.arrival(Envelope::new(2, 1, 0), 51);
        eng.arrival(Envelope::new(3, 1, 0), 52);
        match eng.post_recv(RecvSpec::new(ANY_SOURCE, 1, 0), 9) {
            RecvOutcome::MatchedUnexpected { payload, .. } => {
                assert_eq!(payload, 50, "earliest arrival wins, across shards")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(eng.queue_lens(), (0, 2));
    }

    #[test]
    fn older_wildcard_receive_beats_newer_concrete_receive() {
        let eng = engine(4);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 1);
        eng.post_recv(RecvSpec::new(6, 3, 0), 2);
        match eng.arrival(Envelope::new(6, 3, 0), 77) {
            ArrivalOutcome::MatchedPosted { request, .. } => {
                assert_eq!(request, 1, "the older wildcard must win")
            }
            other => panic!("unexpected {other:?}"),
        }
        // The concrete receive is still posted; a second arrival takes it.
        match eng.arrival(Envelope::new(6, 3, 0), 78) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(eng.queue_lens(), (0, 0));
    }

    #[test]
    fn newer_wildcard_receive_loses_to_older_concrete_receive() {
        let eng = engine(4);
        eng.post_recv(RecvSpec::new(6, 3, 0), 2);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 1);
        match eng.arrival(Envelope::new(6, 3, 0), 77) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 2),
            other => panic!("unexpected {other:?}"),
        }
        let (prq, _) = eng.queue_lens();
        assert_eq!(prq, 1, "wildcard stays resident");
    }

    #[test]
    fn adversary_overtakes_the_wildcard() {
        let eng: TestEngine = ShardedEngine::with_wildcard_check_disabled(4, Lla::new, Lla::new);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 1);
        eng.post_recv(RecvSpec::new(6, 3, 0), 2);
        match eng.arrival(Envelope::new(6, 3, 0), 77) {
            ArrivalOutcome::MatchedPosted { request, .. } => {
                assert_eq!(request, 2, "the adversary prefers its shard match")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cancel_finds_receives_in_any_shard_and_the_wild_lane() {
        let eng = engine(3);
        eng.post_recv(RecvSpec::new(5, 1, 0), 10);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 1, 0), 11);
        assert!(eng.cancel_recv(10));
        assert!(!eng.cancel_recv(10));
        assert!(eng.cancel_recv(11));
        assert_eq!(eng.queue_lens(), (0, 0));
        // After cancelling the wildcard, arrivals skip the wild crossing.
        assert!(matches!(
            eng.arrival(Envelope::new(5, 1, 0), 9),
            ArrivalOutcome::Queued
        ));
    }

    #[test]
    fn iprobe_depth_matches_global_fifo_order() {
        let eng = engine(4);
        eng.arrival(Envelope::new(1, 1, 0), 90); // shard 1
        eng.arrival(Envelope::new(2, 2, 0), 91); // shard 2
        eng.arrival(Envelope::new(3, 3, 0), 92); // shard 3
        assert_eq!(eng.iprobe(RecvSpec::new(3, 3, 0)), Some((92, 3)));
        assert_eq!(
            eng.iprobe(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0)),
            Some((90, 1))
        );
        assert_eq!(eng.iprobe(RecvSpec::new(7, 7, 0)), None);
        assert_eq!(eng.queue_lens(), (0, 3), "probe must not consume");
    }

    #[test]
    fn queue_ids_report_global_fifo_order() {
        let eng = engine(4);
        eng.post_recv(RecvSpec::new(2, 1, 0), 20);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 1, 0), 21);
        eng.post_recv(RecvSpec::new(3, 1, 0), 22);
        eng.arrival(Envelope::new(7, 9, 0), 70);
        eng.arrival(Envelope::new(4, 9, 0), 71);
        let (prq, umq) = eng.queue_ids();
        assert_eq!(prq, vec![20, 21, 22]);
        assert_eq!(umq, vec![70, 71]);
    }

    #[test]
    fn disjoint_sources_never_contend_across_shards() {
        const THREADS: usize = 4;
        const PER: i32 = 2_000;
        let eng = engine(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let eng = &eng;
                s.spawn(move || {
                    // Thread t owns source rank t: rank % shards == t.
                    let rank = t as i32;
                    for i in 0..PER {
                        eng.post_recv(RecvSpec::new(rank, i, 0), (t as u64) << 32 | i as u64);
                        eng.arrival(Envelope::new(rank, i, 0), i as u64);
                    }
                });
            }
        });
        assert_eq!(eng.queue_lens(), (0, 0));
        let stats = eng.stats();
        let conc = stats.concurrency.expect("sharded engine reports shards");
        assert_eq!(conc.shards.len(), THREADS);
        for (i, sh) in conc.shards.iter().enumerate() {
            assert_eq!(
                sh.lock.contended, 0,
                "shard {i}: disjoint sources must never contend"
            );
            assert_eq!(sh.lock.acquisitions, 2 * PER as u64);
        }
        assert_eq!(conc.wild_crossings, 0, "no wildcards were ever live");
    }

    #[test]
    fn wildcard_races_arrivals_on_many_shards_without_losing_messages() {
        const SENDERS: usize = 4;
        const PER: i32 = 500;
        let eng = engine(SENDERS);
        let matched = AtomicU64::new(0);
        std::thread::scope(|s| {
            // One thread keeps posting fully-wild receives...
            let eng_ref = &eng;
            let matched_ref = &matched;
            s.spawn(move || {
                for i in 0..(SENDERS as i32 * PER) {
                    match eng_ref.post_recv(RecvSpec::any(0), i as u64) {
                        RecvOutcome::MatchedUnexpected { .. } => {
                            matched_ref.fetch_add(1, Ordering::Relaxed);
                        }
                        RecvOutcome::Posted => {}
                    }
                }
            });
            // ...while senders on every shard race it.
            for t in 0..SENDERS {
                s.spawn(move || {
                    for i in 0..PER {
                        match eng_ref
                            .arrival(Envelope::new(t as i32, i, 0), (t as u64) << 32 | i as u64)
                        {
                            ArrivalOutcome::MatchedPosted { .. } => {
                                matched_ref.fetch_add(1, Ordering::Relaxed);
                            }
                            ArrivalOutcome::Queued => {}
                        }
                    }
                });
            }
        });
        let (prq, umq) = eng.queue_lens();
        let matches = matched.load(Ordering::Relaxed);
        // Every message is matched or queued; every receive matched or
        // posted; totals must balance exactly.
        assert_eq!(matches as usize + umq, SENDERS * PER as usize);
        assert_eq!(matches as usize + prq, SENDERS * PER as usize);
        let stats = eng.stats();
        assert_eq!(stats.prq_hits + stats.umq_hits, matches);
    }

    #[test]
    fn wildcard_post_on_empty_umq_takes_no_shard_locks() {
        let eng = engine(8);
        for i in 0..10 {
            assert!(matches!(
                eng.post_recv(RecvSpec::any(0), i),
                RecvOutcome::Posted
            ));
        }
        for sh in eng.shard_stats() {
            assert_eq!(
                sh.lock.acquisitions, 0,
                "empty-UMQ wildcard posts must park without shard locks"
            );
        }
        // The parked receives are fully live: arrivals cross and match
        // them in FIFO order.
        for i in 0..10 {
            match eng.arrival(Envelope::new(i as i32, 0, 0), i) {
                ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(eng.queue_lens(), (0, 0));
    }

    #[test]
    fn wildcard_post_with_queued_message_still_matches_it() {
        // A queued unexpected message must force the slow path (count
        // nonzero) and be matched, fast path notwithstanding.
        let eng = engine(4);
        eng.arrival(Envelope::new(6, 2, 0), 60);
        match eng.post_recv(RecvSpec::new(ANY_SOURCE, 2, 0), 1) {
            RecvOutcome::MatchedUnexpected { payload, .. } => assert_eq!(payload, 60),
            other => panic!("unexpected {other:?}"),
        }
        // Drained: the next wildcard post parks on the fast path again.
        let before: u64 = eng.shard_stats().iter().map(|s| s.lock.acquisitions).sum();
        assert!(matches!(
            eng.post_recv(RecvSpec::any(0), 2),
            RecvOutcome::Posted
        ));
        let after: u64 = eng.shard_stats().iter().map(|s| s.lock.acquisitions).sum();
        assert_eq!(after, before, "park after drain takes no shard locks");
    }

    #[test]
    fn umq_counts_settle_to_queue_lengths() {
        let eng = engine(4);
        for i in 0..16 {
            eng.arrival(Envelope::new(i % 5, i, 0), i as u64);
        }
        for i in 0..8 {
            eng.post_recv(RecvSpec::new(i % 5, i, 0), i as u64);
        }
        let (_, umq) = eng.queue_lens();
        let counted: usize = eng
            .umq_counts
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum();
        assert_eq!(counted, umq, "idle counts must equal queued messages");
    }

    #[test]
    fn works_with_baseline_lists() {
        let eng: ShardedEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>> =
            ShardedEngine::new(2, BaselineList::new, BaselineList::new);
        eng.post_recv(RecvSpec::new(1, 1, 0), 1);
        assert!(matches!(
            eng.arrival(Envelope::new(1, 1, 0), 2),
            ArrivalOutcome::MatchedPosted { .. }
        ));
    }

    #[test]
    fn reset_clears_everything_including_the_wild_lane() {
        let eng = engine(2);
        eng.post_recv(RecvSpec::any(0), 1);
        eng.post_recv(RecvSpec::new(1, 1, 0), 2);
        eng.arrival(Envelope::new(0, 9, 0), 3);
        eng.reset();
        assert_eq!(eng.queue_lens(), (0, 0));
        let (prq, umq) = eng.queue_ids();
        assert!(prq.is_empty() && umq.is_empty());
        // Wild lane is empty again: arrivals take the fast path (observable
        // as zero additional crossings).
        let before = eng.stats().concurrency.unwrap().wild_crossings;
        eng.arrival(Envelope::new(1, 1, 0), 4);
        assert_eq!(eng.stats().concurrency.unwrap().wild_crossings, before);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = engine(0);
    }

    #[test]
    fn stats_polling_thread_adds_no_lock_traffic() {
        use std::sync::atomic::AtomicBool;
        const OPS: i32 = 2_000;
        let eng = engine(4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let eng_ref = &eng;
            let stop_ref = &stop;
            s.spawn(move || {
                while !stop_ref.load(Ordering::SeqCst) {
                    let _ = eng_ref.queue_lens();
                    let _ = eng_ref.stats();
                    let _ = eng_ref.shard_stats();
                }
            });
            // A single writer: its acquisitions are uncontended unless the
            // poller takes locks — which it must not (the regression this
            // test pins).
            for i in 0..OPS {
                eng_ref.post_recv(RecvSpec::new(i % 7, i, 0), i as u64);
                eng_ref.arrival(Envelope::new(i % 7, i, 0), i as u64);
            }
            stop_ref.store(true, Ordering::SeqCst);
        });
        let ls = eng.lock_stats();
        assert_eq!(ls.contended, 0, "snapshot reads must never contend");
        assert_eq!(
            ls.acquisitions,
            2 * OPS as u64,
            "snapshot reads must not acquire at all"
        );
    }

    /// A seeded stream of arrivals and consuming receives (concrete and
    /// wildcard) that keeps tens of messages queued on each of 4 lanes
    /// while every lane publishes several chunks' worth of rows —
    /// tombstones, chunk boundaries and compactions included. At checkpoints every kind of
    /// spec must probe to the same `(payload, depth)` on the lock-free
    /// path, the locked path and one unsharded engine fed the same ops.
    #[test]
    fn lock_free_and_locked_iprobe_agree() {
        use spc_rng::{Rng, SeedableRng, StdRng};
        const SOURCES: i32 = 10;
        const TAGS: i32 = 4;
        let mut rng = StdRng::seed_from_u64(0x5EED_1B0B);
        let eng = engine(4);
        let mut single = MatchEngine::new(
            Lla::<PostedEntry, 2>::new(),
            Lla::<UnexpectedEntry, 3>::new(),
        );
        let mut appended = [0usize; 4];
        for step in 0..8_000u64 {
            let rank = rng.gen_range(0..SOURCES);
            let tag = rng.gen_range(0..TAGS);
            let spec = match rng.gen_range(0..4) {
                0 => RecvSpec::new(ANY_SOURCE, tag, 0),
                1 => RecvSpec::new(rank, ANY_TAG, 0),
                _ => RecvSpec::new(rank, tag, 0),
            };
            // Receives are posted only when they consume a message, so the
            // PRQs stay empty and every arrival publishes a row.
            if rng.gen_bool(0.5) && single.iprobe(spec).is_some() {
                let want = single.post_recv(spec, step);
                let got = eng.post_recv(spec, step);
                match (got, want) {
                    (
                        RecvOutcome::MatchedUnexpected { payload: g, .. },
                        RecvOutcome::MatchedUnexpected { payload: w, .. },
                    ) => assert_eq!(g, w, "step {step}: {spec:?} consumed the wrong message"),
                    other => panic!("step {step}: {spec:?} gave {other:?}"),
                }
            } else {
                let env = Envelope::new(rank, tag, 0);
                assert_eq!(single.arrival(env, step), ArrivalOutcome::Queued);
                assert_eq!(eng.arrival(env, step), ArrivalOutcome::Queued);
                appended[eng.shard_of(rank)] += 1;
            }
            if step % 127 != 0 {
                continue;
            }
            for spec in [
                RecvSpec::new(rank, tag, 0),
                RecvSpec::new((rank + 1) % SOURCES, ANY_TAG, 0),
                RecvSpec::new(ANY_SOURCE, tag, 0),
                RecvSpec::new(ANY_SOURCE, ANY_TAG, 0),
                RecvSpec::new(rank, TAGS, 0), // miss on a populated lane
                RecvSpec::new(SOURCES + 3, tag, 0), // miss: no such source
            ] {
                let want = single.iprobe(spec);
                assert_eq!(eng.iprobe(spec), want, "step {step}: lock-free {spec:?}");
                assert_eq!(
                    eng.iprobe_locked(spec).1,
                    want,
                    "step {step}: locked {spec:?}"
                );
            }
        }
        // `append` compacts a lane at 2 * live + 256 published rows: with
        // under 100 live that is at most 456, so 700 appends crossed a
        // chunk boundary and compacted at least once on every lane.
        assert!(eng.shard_stats().iter().all(|s| s.max_umq_len < 100));
        assert!(appended.iter().all(|&n| n > 700), "{appended:?}");
        let reads = eng.snap_read_stats();
        assert_eq!(
            (reads.probe_retries, reads.probe_fallbacks),
            (0, 0),
            "single-threaded probes must succeed on the seqlock path first time"
        );
        eng.validate().unwrap();
    }

    /// The routing itself: a concrete-source probe looks for its match in
    /// the source's own lane only, so a writer mid-window on another lane
    /// cannot disturb a miss; a hit still needs every lane (for the global
    /// FIFO depth), as does any `ANY_SOURCE` probe.
    #[test]
    fn concrete_source_miss_reads_only_its_home_lane() {
        let eng = engine(4);
        eng.arrival(Envelope::new(2, 1, 0), 12); // lane 2, stamped first
        eng.arrival(Envelope::new(1, 1, 0), 11); // lane 1
        let reads = || {
            let r = eng.snap_read_stats();
            (r.probe_retries, r.probe_fallbacks)
        };
        // Lane 2's write window held open, as by a writer mid-publication.
        eng.snaps[2].begin();
        assert_eq!(eng.iprobe(RecvSpec::new(1, 9, 0)), None);
        assert_eq!(eng.iprobe(RecvSpec::new(5, ANY_TAG, 0)), None);
        assert_eq!(reads(), (0, 0), "home-lane misses never saw lane 2");
        // A hit on lane 1 must count lane 2's earlier row: every seqlock
        // attempt is refused and the locked path answers.
        let retries = SNAP_PROBE_RETRIES as u64;
        assert_eq!(eng.iprobe(RecvSpec::new(1, 1, 0)), Some((11, 2)));
        assert_eq!(reads(), (retries, 1));
        assert_eq!(eng.iprobe(RecvSpec::new(ANY_SOURCE, 9, 0)), None);
        assert_eq!(reads(), (2 * retries, 2));
        eng.snaps[2].end();
        assert_eq!(eng.iprobe(RecvSpec::new(1, 1, 0)), Some((11, 2)));
        assert_eq!(reads(), (2 * retries, 2), "window closed: lock-free again");
        eng.validate().unwrap();
    }

    #[test]
    fn snap_commit_adversary_hides_queued_messages_from_lock_free_probes() {
        let eng: TestEngine = ShardedEngine::with_snap_commit_disabled(4, Lla::new, Lla::new);
        eng.arrival(Envelope::new(2, 2, 0), 22);
        // The arrival skipped its snapshot commit, so the seqlock probe
        // deterministically answers from the stale (empty) snapshot...
        assert_eq!(
            eng.iprobe(RecvSpec::new(2, 2, 0)),
            None,
            "the commit-skipping adversary must hide the message"
        );
        // ...while the locked path still sees the truth.
        assert_eq!(eng.iprobe_locked(RecvSpec::new(2, 2, 0)).1, Some((22, 1)));
    }

    #[test]
    fn wildcard_prescan_parks_lock_free_when_no_queued_message_matches() {
        let eng = engine(4);
        eng.arrival(Envelope::new(6, 2, 0), 60); // queued: counts nonzero
        let before: u64 = eng.shard_stats().iter().map(|s| s.lock.acquisitions).sum();
        assert!(matches!(
            eng.post_recv(RecvSpec::new(ANY_SOURCE, 9, 0), 1),
            RecvOutcome::Posted
        ));
        let after: u64 = eng.shard_stats().iter().map(|s| s.lock.acquisitions).sum();
        assert_eq!(
            after, before,
            "a non-matching pre-scan must park without shard locks"
        );
        assert_eq!(eng.snap_read_stats().prescan_parks, 1);
        // The parked wildcard is fully live: a matching arrival crosses
        // into the lane and takes it.
        match eng.arrival(Envelope::new(3, 9, 0), 99) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Without the pre-scan, the same situation pays the slow path.
        let before: u64 = eng.shard_stats().iter().map(|s| s.lock.acquisitions).sum();
        assert!(matches!(
            eng.post_recv_wild_slow(RecvSpec::new(ANY_SOURCE, 9, 0), 2)
                .1,
            Outcome::Posted { .. }
        ));
        let after: u64 = eng.shard_stats().iter().map(|s| s.lock.acquisitions).sum();
        assert_eq!(after - before, 4, "the slow path takes every shard lock");
        eng.validate().unwrap();
    }

    fn crossings(eng: &TestEngine) -> u64 {
        eng.stats().concurrency.unwrap().wild_crossings
    }

    fn slot_count(eng: &TestEngine, tag: i32) -> usize {
        eng.wild_slots[wild_slot(tag, 0)].load(Ordering::SeqCst)
    }

    /// The smallest tag above `tag` that shares its filter slot.
    fn colliding_tag(tag: i32) -> i32 {
        (tag + 1..)
            .find(|&t| wild_slot(t, 0) == wild_slot(tag, 0))
            .expect("65 tags cannot all have their own slot")
    }

    #[test]
    fn arrival_on_another_slot_is_routed_past_the_wild_lane() {
        let eng = engine(4);
        let other = (1..).find(|&t| wild_slot(t, 0) != wild_slot(0, 0)).unwrap();
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 0, 0), 1);
        eng.post_recv(RecvSpec::new(6, other, 0), 2);
        let wild_locks = eng.wild.lock_stats().acquisitions;
        match eng.arrival(Envelope::new(6, other, 0), 70) {
            ArrivalOutcome::MatchedPosted { request, depth } => {
                assert_eq!((request, depth), (2, 1), "its own concrete receive");
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(
            crossings(&eng),
            0,
            "another slot's wildcard is not its business"
        );
        assert_eq!(eng.wild.lock_stats().acquisitions, wild_locks);
        assert_eq!(eng.queue_lens(), (1, 0), "the wildcard stays parked");
        eng.validate().unwrap();
    }

    #[test]
    fn arrival_on_the_wildcards_tag_crosses_and_the_older_receive_wins() {
        let eng = engine(4);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 3, 0), 1);
        eng.post_recv(RecvSpec::new(6, 3, 0), 2);
        match eng.arrival(Envelope::new(6, 3, 0), 70) {
            ArrivalOutcome::MatchedPosted { request, .. } => {
                assert_eq!(request, 1, "the older wildcard must win")
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(crossings(&eng), 1);
        assert_eq!(slot_count(&eng, 3), 0, "wild_wins vacates the slot");
        eng.validate().unwrap();
        // Slot empty again: the next arrival stays on its shard.
        match eng.arrival(Envelope::new(6, 3, 0), 71) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 2),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(crossings(&eng), 1);
        eng.validate().unwrap();
    }

    #[test]
    fn colliding_tags_cross_but_match_only_on_a_true_key_match() {
        let eng = engine(4);
        let a = 5;
        let b = colliding_tag(a);
        let c = colliding_tag(b);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, a, 0), 1);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, b, 0), 2);
        assert_eq!(slot_count(&eng, c), 2, "one slot serves all three tags");
        // The older wildcard shares the slot but not the key.
        match eng.arrival(Envelope::new(2, b, 0), 70) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 2),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(slot_count(&eng, a), 1);
        eng.validate().unwrap();
        // Tag `c` finds the slot occupied, crosses, and matches nothing.
        assert_eq!(
            eng.arrival(Envelope::new(2, c, 0), 71),
            ArrivalOutcome::Queued
        );
        assert_eq!(crossings(&eng), 2, "a collision costs a phantom crossing");
        match eng.arrival(Envelope::new(2, a, 0), 72) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 1),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(slot_count(&eng, a), 0);
        assert_eq!(eng.queue_lens(), (0, 1));
        eng.validate().unwrap();
    }

    #[test]
    fn any_tag_wildcard_makes_every_arrival_cross() {
        let eng = engine(4);
        // Context 1: it can match none of the context-0 arrivals below,
        // yet all of them must look (the last slot is not keyed at all).
        eng.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 1), 1);
        assert_eq!(eng.wild_slots[WILD_SLOTS].load(Ordering::SeqCst), 1);
        for tag in 0..2 * WILD_SLOTS as i32 {
            assert_eq!(
                eng.arrival(Envelope::new(tag % 7, tag, 0), tag as u64),
                ArrivalOutcome::Queued
            );
        }
        assert_eq!(crossings(&eng), 2 * WILD_SLOTS as u64);
        match eng.arrival(Envelope::new(3, 9, 1), 999) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 1),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(eng.wild_slots[WILD_SLOTS].load(Ordering::SeqCst), 0);
        eng.validate().unwrap();
    }

    #[test]
    fn every_way_out_of_the_lane_returns_its_slot_to_zero() {
        let eng = engine(4);
        // cancel_recv
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 11, 0), 1);
        assert_eq!(slot_count(&eng, 11), 1);
        eng.validate().unwrap();
        assert!(eng.cancel_recv(1));
        assert_eq!(slot_count(&eng, 11), 0);
        eng.validate().unwrap();
        // The fast-path park undone: a queued match sends the post to the
        // slow path, which consumes the message and parks nothing.
        eng.arrival(Envelope::new(6, 12, 0), 60);
        assert!(matches!(
            eng.post_recv(RecvSpec::new(ANY_SOURCE, 12, 0), 2),
            RecvOutcome::MatchedUnexpected { payload: 60, .. }
        ));
        assert_eq!(slot_count(&eng, 12), 0);
        eng.validate().unwrap();
        // The slow-path park counts too.
        eng.arrival(Envelope::new(6, 13, 0), 61);
        eng.post_recv_wild_slow(RecvSpec::new(ANY_SOURCE, 14, 0), 3);
        assert_eq!(slot_count(&eng, 14), 1);
        eng.validate().unwrap();
        // reset
        eng.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 4);
        eng.reset();
        assert!(eng.wild_slots.iter().all(|w| w.load(Ordering::SeqCst) == 0));
        assert_eq!(eng.queue_lens(), (0, 0));
        eng.validate().unwrap();
        assert_eq!(
            eng.arrival(Envelope::new(1, 14, 0), 62),
            ArrivalOutcome::Queued
        );
        assert_eq!(crossings(&eng), 0, "reset left nothing to cross into");
    }

    #[test]
    fn validate_convicts_a_slot_that_disagrees_with_the_lane() {
        let eng = engine(2);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 4, 0), 1);
        // Same sum, wrong slot: only a slot-by-slot check can tell.
        eng.wild_slots[wild_slot(4, 0)].store(0, Ordering::SeqCst);
        eng.wild_slots[WILD_SLOTS].store(1, Ordering::SeqCst);
        let err = eng.validate().unwrap_err();
        assert!(err.contains("wild_slots"), "{err}");
    }

    #[test]
    fn mirrors_stay_exact_across_mixed_operations() {
        let eng = engine(3);
        eng.post_recv(RecvSpec::new(1, 1, 0), 1);
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 5, 0), 2);
        eng.arrival(Envelope::new(1, 1, 0), 10); // shard prq hit
        eng.arrival(Envelope::new(2, 5, 0), 11); // wild hit
        eng.arrival(Envelope::new(4, 9, 0), 12); // queued
        eng.post_recv(RecvSpec::new(4, 9, 0), 3); // umq hit
        eng.post_recv(RecvSpec::new(ANY_SOURCE, 7, 0), 4); // parked
        assert!(eng.cancel_recv(4));
        eng.validate().unwrap();
        let s = eng.stats();
        assert_eq!(s.prq_hits, 2);
        assert_eq!(s.umq_hits, 1);
        assert_eq!(eng.queue_lens(), (0, 0));
        eng.reset();
        eng.validate().unwrap();
        assert_eq!(eng.stats().prq_hits, 0);
    }
}
