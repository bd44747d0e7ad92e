//! Thread-safe matching engine for `MPI_THREAD_MULTIPLE`-style use.
//! spc-scope: hot-path
//!
//! The paper's motivation (§2.3): "the MPI standard permits multithreaded
//! communication ... Since multithreaded communication increases message
//! counts while introducing nondeterminacy through scheduling and lock
//! contention, list lengths and search depths are anticipated to grow."
//!
//! [`SharedEngine`] is the single-match-engine design MPICH-derived
//! implementations use: one lock around the engine, every thread funnels
//! through it. It instruments exactly what the paper says matters —
//! how often threads *contend* for the engine — so the
//! thread-decomposition benchmark (`spc-motifs::decomp`) and the tests
//! below can quantify the effect alongside the search-depth growth.
//!
//! The per-source-decomposed alternative that escapes the single lock is
//! [`crate::shard::ShardedEngine`]; a shared reference to either is an
//! [`Engine`] whose stamp is the op's linearization seq, so the concurrent
//! differential harness in `spc-conformance` can replay either engine's
//! linearization through the Vec-backed oracle.

use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::{Mutex, MutexGuard};

use crate::engine::{
    stamped_engine, stamped_verbs, ArrivalOutcome, Engine, MatchEngine, Op, Outcome, RecvOutcome,
};
use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use crate::list::MatchList;
use crate::seqsnap::sw_add;
use crate::stats::{ConcurrencyStats, EngineStats, ShardStats};

pub use crate::stats::LockStats;

/// A lock plus its contention counters (counted on the workload path,
/// bypassed by observer snapshots): the one lock of a [`SharedEngine`] and
/// every lock of a [`crate::shard::ShardedEngine`]. An acquisition is
/// contended when its `try_lock` missed. The counters are written only by
/// the thread that has just acquired `inner`, so they are single-writer
/// words ([`sw_add`]) and a `lock()` costs no read-modify-write beyond the
/// mutex's own.
pub(crate) struct Counted<T> {
    inner: Mutex<T>,
    // spc-order(acquisitions): Relaxed — single-writer tally (see the struct doc); LockStats only
    acquisitions: AtomicU64,
    // spc-order(contended): Relaxed — single-writer contention tally, like acquisitions
    contended: AtomicU64,
}

impl<T> Counted<T> {
    pub(crate) fn new(inner: T) -> Self {
        Self {
            inner: Mutex::new(inner),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// The workload path: counts the acquisition.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        // `ok()` drops a poisoned attempt, and the guard inside it, before
        // the blocking `lock()` reports the poisoning. Matching on the
        // `Err` itself would hold that guard across the call: a poisoned
        // lock would deadlock its next op instead of failing it.
        let g = match self.inner.try_lock().ok() {
            Some(g) => g,
            None => {
                let g = self.inner.lock().expect("shard lock poisoned");
                sw_add(&self.contended, 1);
                g
            }
        };
        sw_add(&self.acquisitions, 1);
        g
    }

    /// The observer path: acquiring the lock to *read* must not perturb
    /// the counters.
    pub(crate) fn lock_uncounted(&self) -> MutexGuard<'_, T> {
        self.inner.lock().expect("shard lock poisoned")
    }

    pub(crate) fn lock_stats(&self) -> LockStats {
        LockStats {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }
}

/// A matching engine shared by many communication threads through a single
/// lock (the traditional "one match engine per process" design).
pub struct SharedEngine<P, U>
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    inner: Counted<MatchEngine<P, U>>,
    /// Linearization stamps: bumped while the engine lock is held, so the
    /// seq order of any two operations equals their serialization order.
    // spc-order(seq): Relaxed — the engine mutex already orders the stamps
    seq: AtomicU64,
    // spc-order(max_prq): Relaxed — high-water mark sampled under the engine mutex
    max_prq: AtomicU64,
    // spc-order(max_umq): Relaxed — high-water mark; see max_prq
    max_umq: AtomicU64,
}

impl<P, U> SharedEngine<P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    /// Wraps an engine for shared use.
    pub fn new(engine: MatchEngine<P, U>) -> Self {
        Self {
            inner: Counted::new(engine),
            seq: AtomicU64::new(0),
            max_prq: AtomicU64::new(0),
            max_umq: AtomicU64::new(0),
        }
    }

    /// The one locked body every workload operation runs: takes the
    /// counted engine lock, stamps the op's linearization seq while
    /// holding it, and applies `op` to the wrapped engine.
    pub fn apply(&self, op: Op) -> (u64, Outcome) {
        let mut g = self.inner.lock();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let out = g.apply(op).1;
        // Only an append can raise a highwater mark.
        match out {
            Outcome::Posted { .. } => {
                self.max_prq
                    .fetch_max(g.prq_len() as u64, Ordering::Relaxed);
            }
            Outcome::Queued { .. } => {
                self.max_umq
                    .fetch_max(g.umq_len() as u64, Ordering::Relaxed);
            }
            _ => {}
        }
        (seq, out)
    }

    stamped_verbs!();

    /// Current queue lengths `(prq, umq)`. Taken through the uncounted lock
    /// path, so observer snapshots never pollute the contention counters.
    pub fn queue_lens(&self) -> (usize, usize) {
        let g = self.inner.lock_uncounted();
        (g.prq_len(), g.umq_len())
    }

    /// Snapshot of the engine statistics, with
    /// [`EngineStats::concurrency`] populated from the lock counters.
    /// Uncounted: reading the stats does not perturb them.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.inner.lock_uncounted().stats().clone();
        s.concurrency = Some(self.concurrency_stats());
        s
    }

    /// Lock-contention counters. Only workload operations are counted:
    /// snapshot calls (`queue_lens`, `stats`, `lock_stats`) use an
    /// uncounted lock path.
    pub fn lock_stats(&self) -> LockStats {
        self.inner.lock_stats()
    }

    /// Concurrency observability: the single lock reported as one shard,
    /// no wildcard lane.
    fn concurrency_stats(&self) -> ConcurrencyStats {
        ConcurrencyStats {
            // spc-allow(hot-path-alloc): observability snapshot, not the message path
            shards: vec![ShardStats {
                lock: self.lock_stats(),
                max_prq_len: self.max_prq.load(Ordering::Relaxed),
                max_umq_len: self.max_umq.load(Ordering::Relaxed),
            }],
            wild: None,
            wild_crossings: 0,
        }
    }

    /// Empties both queues and clears statistics (linearized like any
    /// other workload operation).
    pub fn reset(&self) {
        let mut g = self.inner.lock();
        self.seq.fetch_add(1, Ordering::Relaxed);
        g.reset();
    }

    /// Checks the wrapped engine's structural invariants (see
    /// [`MatchEngine::validate`]). Takes the uncounted lock, so it must not
    /// be called while this thread holds the engine guard; the conformance
    /// drivers call it at quiescent points under
    /// `--features debug_invariants`.
    pub fn validate(&self) -> Result<(), String> {
        self.inner.lock_uncounted().validate()
    }

    /// `(PRQ request ids, UMQ payload ids)` in FIFO order (uncounted).
    pub fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
        self.inner.lock_uncounted().queue_ids()
    }
}

stamped_engine!(SharedEngine);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{BaselineList, Lla};

    type TestEngine = SharedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;

    fn engine() -> TestEngine {
        SharedEngine::new(MatchEngine::new(Lla::new(), Lla::new()))
    }

    #[test]
    fn every_message_matches_exactly_once_across_threads() {
        // tr poster threads, ts sender threads, disjoint tag ranges per
        // thread; every send must find exactly one posted receive.
        const POSTERS: usize = 4;
        const SENDERS: usize = 4;
        const PER_THREAD: i32 = 500;
        let eng = engine();
        let matched = AtomicU64::new(0);
        let unexpected = AtomicU64::new(0);

        std::thread::scope(|s| {
            for t in 0..POSTERS {
                let eng = &eng;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let tag = (t as i32) * PER_THREAD + i;
                        eng.post_recv(RecvSpec::new(1, tag, 0), tag as u64);
                    }
                });
            }
            for t in 0..SENDERS {
                let eng = &eng;
                let matched = &matched;
                let unexpected = &unexpected;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let tag = (t as i32) * PER_THREAD + i;
                        match eng.arrival(Envelope::new(1, tag, 0), tag as u64) {
                            ArrivalOutcome::MatchedPosted { request, .. } => {
                                assert_eq!(request, tag as u64);
                                matched.fetch_add(1, Ordering::Relaxed);
                            }
                            ArrivalOutcome::Queued => {
                                unexpected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });

        // Every tag gets exactly one post and one arrival, so both queues
        // must fully drain: an arrival that queued (post not yet in) is
        // consumed from the UMQ by its post when it lands.
        let (prq, umq) = eng.queue_lens();
        assert_eq!(
            matched.load(Ordering::Relaxed) + unexpected.load(Ordering::Relaxed),
            (SENDERS as u64) * PER_THREAD as u64
        );
        assert_eq!(prq, 0, "every posted receive pairs with its arrival");
        assert_eq!(umq, 0, "every queued message pairs with its post");
        let s = eng.stats();
        assert_eq!(s.prq_hits, matched.load(Ordering::Relaxed));
        assert_eq!(s.umq_hits, unexpected.load(Ordering::Relaxed));
        let ls = eng.lock_stats();
        assert!(ls.acquisitions >= 2 * (POSTERS as u64) * PER_THREAD as u64);
    }

    #[test]
    fn interleaved_posts_and_arrivals_balance() {
        // Threads that both post and send with racing tags: at the end,
        // leftover PRQ entries equal leftover... everything must pair off
        // because each tag gets exactly one post and one arrival.
        const THREADS: i32 = 8;
        const PER: i32 = 300;
        let eng = engine();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let eng = &eng;
                s.spawn(move || {
                    for i in 0..PER {
                        let tag = t * PER + i;
                        // Even threads post-then-send their tag; odd
                        // threads send-then-post a *peer* thread's tag
                        // pattern, creating unexpected traffic.
                        if t % 2 == 0 {
                            eng.post_recv(RecvSpec::new(0, tag, 0), tag as u64);
                            eng.arrival(Envelope::new(0, tag, 0), tag as u64);
                        } else {
                            eng.arrival(Envelope::new(0, tag, 0), tag as u64);
                            eng.post_recv(RecvSpec::new(0, tag, 0), tag as u64);
                        }
                    }
                });
            }
        });
        let (prq, umq) = eng.queue_lens();
        assert_eq!(prq, 0, "every tag posted once and arrived once");
        assert_eq!(umq, 0);
        let stats = eng.stats();
        assert_eq!(
            stats.prq_hits + stats.umq_hits,
            (THREADS as u64) * PER as u64,
            "every message matched exactly once"
        );
    }

    #[test]
    fn works_with_baseline_lists_too() {
        let eng: SharedEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>> =
            SharedEngine::new(MatchEngine::new(BaselineList::new(), BaselineList::new()));
        std::thread::scope(|s| {
            for t in 0..4i32 {
                let eng = &eng;
                s.spawn(move || {
                    for i in 0..200 {
                        let tag = t * 200 + i;
                        eng.post_recv(RecvSpec::new(2, tag, 1), tag as u64);
                        assert!(matches!(
                            eng.arrival(Envelope::new(2, tag, 1), 0),
                            ArrivalOutcome::MatchedPosted { .. }
                        ));
                    }
                });
            }
        });
        assert_eq!(eng.queue_lens(), (0, 0));
    }

    #[test]
    fn contention_ratio_is_sane() {
        let eng = engine();
        eng.post_recv(RecvSpec::new(0, 0, 0), 0);
        let ls = eng.lock_stats();
        assert!(ls.contention_ratio() <= 1.0);
        assert!(ls.acquisitions >= 1);
    }

    #[test]
    fn snapshots_do_not_pollute_contention_counters() {
        let eng = engine();
        eng.post_recv(RecvSpec::new(0, 0, 0), 0);
        eng.arrival(Envelope::new(0, 0, 0), 1);
        let before = eng.lock_stats();
        for _ in 0..50 {
            let _ = eng.queue_lens();
            let _ = eng.stats();
            let _ = eng.lock_stats();
        }
        assert_eq!(
            eng.lock_stats(),
            before,
            "observer snapshots must be uncounted"
        );
        assert_eq!(before.acquisitions, 2, "exactly the two workload ops");
    }

    #[test]
    fn seq_stamps_are_unique_and_ordered_under_racing_threads() {
        let eng = engine();
        let stamps = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4i32 {
                let eng = &eng;
                let stamps = &stamps;
                s.spawn(move || {
                    for i in 0..200 {
                        let tag = t * 200 + i;
                        let (sp, _) = eng.apply(Op::PostRecv {
                            spec: RecvSpec::new(1, tag, 0),
                            request: tag as u64,
                        });
                        let (sa, _) = eng.apply(Op::Arrival {
                            env: Envelope::new(1, tag, 0),
                            payload: tag as u64,
                        });
                        assert!(sp < sa, "a thread's own ops must be ordered");
                        stamps.lock().unwrap().push(sp);
                        stamps.lock().unwrap().push(sa);
                    }
                });
            }
        });
        let mut all = stamps.into_inner().unwrap();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * 200 * 2, "stamps are globally unique");
    }

    #[test]
    fn iprobe_and_stats_surface_concurrency() {
        let eng = engine();
        eng.arrival(Envelope::new(2, 9, 0), 77);
        assert_eq!(eng.iprobe(RecvSpec::new(2, 9, 0)), Some((77, 1)));
        assert_eq!(eng.queue_lens(), (0, 1), "probe must not consume");
        let s = eng.stats();
        let conc = s.concurrency.expect("shared engine reports concurrency");
        assert_eq!(conc.shards.len(), 1);
        assert!(conc.wild.is_none());
        assert_eq!(conc.shards[0].max_umq_len, 1);
        assert!(conc.shards[0].lock.acquisitions >= 2);
    }
}
