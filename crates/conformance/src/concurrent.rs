//! Concurrent differential conformance: race real threads against a
//! thread-safe engine, then replay the recorded linearization through the
//! oracle.
//!
//! The lockstep driver in [`crate::driver`] cannot exercise a concurrent
//! engine — the interesting bugs (a wildcard receive overtaken by a
//! racing arrival on another shard, a cancel landing mid-match) only
//! exist when operations overlap. This module closes that gap with a
//! linearization-based scheme:
//!
//! 1. [`conc_ops`] deals each of `N` threads its own seeded op stream
//!    (posts with wildcards, arrivals, probes, cancels of the thread's
//!    own requests; no clears — a reset is not linearizable against
//!    in-flight matches and real MPI serializes communicator teardown).
//! 2. [`run_concurrent`] runs the streams from real threads through an
//!    [`Engine`] handle whose stamp is a `u64`. Every operation comes back
//!    with the **seq stamp** the engine assigned at its linearization
//!    point (while holding every lock the operation used), plus its
//!    observed [`Outcome`].
//! 3. [`verify_log`] sorts the merged log by seq and replays it through
//!    the Vec-backed oracle engine. If the concurrent execution was
//!    linearizable with FIFO (non-overtaking) matching, every outcome —
//!    which receive matched which message, every probe, every cancel —
//!    agrees with the oracle replaying the same serial order; any lost,
//!    duplicated or overtaken match diverges.
//!
//! Search depths are *not* compared here (they depend on the shard an
//! operation ran in); the lockstep driver already pins them per
//! structure. Probe results are compared exactly — both engines define
//! iprobe on a global-FIFO snapshot.

use std::collections::HashSet;

use crate::oracle::OracleList;
use spc_core::engine::{Engine, MatchEngine, Op, Outcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
use spc_core::ingest::BatchedEngine;
use spc_core::list::MatchList;
use spc_rng::{Rng, SeedableRng, StdRng};

use crate::ops::{CTXS, RANKS, TAGS};

/// One operation in a per-thread concurrent stream.
///
/// Request/payload handles are not stored in the op: each thread issues
/// ids from its own space (`thread << 32 | counter`) as it executes, so
/// streams stay reusable across engines while ids never collide across
/// threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcOp {
    /// `MPI_Irecv`; `None` rank/tag is the wildcard.
    Post {
        /// Concrete source rank, or `None` for `MPI_ANY_SOURCE`.
        rank: Option<i32>,
        /// Concrete tag, or `None` for `MPI_ANY_TAG`.
        tag: Option<i32>,
        /// Communicator context id.
        ctx: u16,
    },
    /// A message arrival (always fully concrete).
    Arrive {
        /// Message source rank.
        rank: i32,
        /// Message tag.
        tag: i32,
        /// Message context id.
        ctx: u16,
    },
    /// `MPI_Iprobe`.
    Probe {
        /// Requested rank, or `None` for `MPI_ANY_SOURCE`.
        rank: Option<i32>,
        /// Requested tag, or `None` for `MPI_ANY_TAG`.
        tag: Option<i32>,
        /// Probe context id.
        ctx: u16,
    },
    /// `MPI_Cancel` of the `nth` receive this thread has posted so far
    /// (modulo the count; a thread that has posted nothing cancels a
    /// handle from its id space that was never issued).
    Cancel {
        /// Index into this thread's issued request handles.
        nth: u64,
    },
}

/// One executed operation: its seq stamp, the thread that ran it, the
/// fully-resolved op and the outcome the engine reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Linearization stamp the engine assigned.
    pub seq: u64,
    /// Index of the thread that executed the op.
    pub thread: usize,
    /// What ran.
    pub op: Op,
    /// What it observed.
    pub out: Outcome,
}

fn spec_of(rank: Option<i32>, tag: Option<i32>, ctx: u16) -> RecvSpec {
    RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), ctx)
}

fn is_probe(r: &LogRecord) -> bool {
    matches!(r.op, Op::Iprobe { .. })
}

/// Sorts a merged log into linearization order: by seq stamp, with
/// probes ahead of a mutating op sharing their stamp. Lock-free probes
/// read the seq counter without claiming a stamp, so a probe stamped `s`
/// observed every writer `< s` and linearizes *before* the writer that
/// next claims `s`.
pub fn sort_log(log: &mut [LogRecord]) {
    log.sort_unstable_by_key(|r| (r.seq, !is_probe(r)));
}

/// Per-thread execution state: resolves [`ConcOp`]s to [`Op`]s with
/// concrete handles from the thread's id space and records seq-stamped
/// outcomes.
pub struct ThreadExec {
    thread: usize,
    posted: u64,
    sent: u64,
}

impl ThreadExec {
    /// Executor for thread index `thread`.
    pub fn new(thread: usize) -> Self {
        Self {
            thread,
            posted: 0,
            sent: 0,
        }
    }

    fn id(&self, counter: u64) -> u64 {
        ((self.thread as u64) << 32) | counter
    }

    /// Executes one op against `eng`, returning its log record — or
    /// `None` for an op a batched engine's producer buffered, whose record
    /// surfaces in the drain log when its ring is applied.
    pub fn run<E: Engine<Stamp = u64>>(&mut self, eng: &mut E, op: ConcOp) -> Option<LogRecord> {
        let op = match op {
            ConcOp::Post { rank, tag, ctx } => {
                let (spec, request) = (spec_of(rank, tag, ctx), self.id(self.posted));
                self.posted += 1;
                Op::PostRecv { spec, request }
            }
            ConcOp::Arrive { rank, tag, ctx } => {
                let (env, payload) = (Envelope::new(rank, tag, ctx), self.id(self.sent));
                self.sent += 1;
                Op::Arrival { env, payload }
            }
            ConcOp::Probe { rank, tag, ctx } => Op::Iprobe {
                spec: spec_of(rank, tag, ctx),
            },
            // Target one of this thread's own requests; a thread that
            // has posted nothing cancels a handle never issued by
            // anyone (its own id space), observing `false`.
            ConcOp::Cancel { nth } => Op::Cancel {
                request: match self.posted {
                    0 => self.id(u32::MAX as u64),
                    posted => self.id(nth % posted),
                },
            },
        };
        let (seq, out) = eng.apply(op);
        (out != Outcome::Deferred).then_some(LogRecord {
            seq,
            thread: self.thread,
            op,
            out,
        })
    }
}

/// Deals `threads` seeded per-thread streams of `per_thread` ops each.
///
/// The mix keeps both queues busy (≈40 % posts / 40 % arrivals), makes
/// wildcards common enough that the sharded engine's wildcard lane stays
/// hot, and sprinkles probes and cancels through every stream.
pub fn conc_ops(seed: u64, threads: usize, per_thread: usize) -> Vec<Vec<ConcOp>> {
    (0..threads)
        .map(|t| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ ((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            (0..per_thread)
                .map(|_| match rng.gen_range(0..20u32) {
                    0..=7 => {
                        let wild = 0.15;
                        ConcOp::Post {
                            rank: (!rng.gen_bool(wild)).then(|| rng.gen_range(0..RANKS)),
                            tag: (!rng.gen_bool(wild)).then(|| rng.gen_range(0..TAGS)),
                            ctx: rng.gen_range(0..CTXS),
                        }
                    }
                    8..=15 => ConcOp::Arrive {
                        rank: rng.gen_range(0..RANKS),
                        tag: rng.gen_range(0..TAGS),
                        ctx: rng.gen_range(0..CTXS),
                    },
                    16..=17 => ConcOp::Probe {
                        rank: (!rng.gen_bool(0.3)).then(|| rng.gen_range(0..RANKS)),
                        tag: (!rng.gen_bool(0.3)).then(|| rng.gen_range(0..TAGS)),
                        ctx: rng.gen_range(0..CTXS),
                    },
                    _ => ConcOp::Cancel {
                        nth: rng.gen_range(0..1_024u64),
                    },
                })
                .collect()
        })
        .collect()
}

/// Distinct tags the tagged-wildcard mix draws from — more than the
/// sharded engine's filter could serve from a handful of slots, few
/// enough that wildcard receives and arrivals keep meeting.
pub const WILD_TAGS: i32 = 24;

/// Deals `threads` seeded streams for the race the sharded engine's
/// tag-keyed wildcard filter lives on: a third of the posts are
/// `MPI_ANY_SOURCE` receives naming one of [`WILD_TAGS`] tags (one in
/// eight of those `MPI_ANY_TAG` instead), arrivals draw from the same
/// tags on every source, and cancels keep pulling parked wildcards back
/// out — so at any moment some filter slots are occupied and most are
/// not, and arrivals on both kinds race the parks and their undos.
pub fn conc_ops_tagged_wild(seed: u64, threads: usize, per_thread: usize) -> Vec<Vec<ConcOp>> {
    (0..threads)
        .map(|t| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ ((t as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)));
            (0..per_thread)
                .map(|_| match rng.gen_range(0..20u32) {
                    0..=7 => {
                        let wild = rng.gen_bool(0.35);
                        ConcOp::Post {
                            rank: (!wild).then(|| rng.gen_range(0..RANKS)),
                            tag: (!(wild && rng.gen_bool(0.125)))
                                .then(|| rng.gen_range(0..WILD_TAGS)),
                            ctx: rng.gen_range(0..CTXS),
                        }
                    }
                    8..=15 => ConcOp::Arrive {
                        rank: rng.gen_range(0..RANKS),
                        tag: rng.gen_range(0..WILD_TAGS),
                        ctx: rng.gen_range(0..CTXS),
                    },
                    16 => ConcOp::Probe {
                        rank: (!rng.gen_bool(0.3)).then(|| rng.gen_range(0..RANKS)),
                        tag: (!rng.gen_bool(0.3)).then(|| rng.gen_range(0..WILD_TAGS)),
                        ctx: rng.gen_range(0..CTXS),
                    },
                    _ => ConcOp::Cancel {
                        nth: rng.gen_range(0..1_024u64),
                    },
                })
                .collect()
        })
        .collect()
}

/// Races stream `t` through `handles[t]` on its own thread and returns
/// the merged, unsorted log of every op that ran directly.
fn race<H: Engine<Stamp = u64> + Send>(handles: Vec<H>, streams: &[Vec<ConcOp>]) -> Vec<LogRecord> {
    assert_eq!(handles.len(), streams.len(), "one handle per stream");
    std::thread::scope(|s| {
        let workers: Vec<_> = handles
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(t, (mut eng, ops))| {
                s.spawn(move || {
                    let mut exec = ThreadExec::new(t);
                    ops.iter()
                        .filter_map(|op| exec.run(&mut eng, *op))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Runs the per-thread streams against `eng` (a `&SharedEngine` or
/// `&ShardedEngine`) from real racing threads and returns the merged log,
/// sorted by seq stamp (the linearization).
pub fn run_concurrent<H>(eng: H, streams: &[Vec<ConcOp>]) -> Vec<LogRecord>
where
    H: Engine<Stamp = u64> + Copy + Send,
{
    let mut log = race(vec![eng; streams.len()], streams);
    sort_log(&mut log);
    log
}

/// Runs the per-thread streams against a [`BatchedEngine`] — one ring
/// producer per stream — and returns the merged log in linearization
/// order, *including* the drain log entries for every buffered op.
///
/// Buffered posts and arrivals linearize at drain time, so their log
/// records come from the engine's drain log (which must be enabled, see
/// [`BatchedEngine::with_drain_log`]) rather than from the issuing
/// thread. After the producers join, the rings' exactly-once accounting
/// is checked — `enqueued - drained` must equal the entries still in
/// flight — then [`BatchedEngine::flush_all`] applies the stragglers so
/// the final log covers every op issued.
pub fn run_concurrent_batched<P, U>(
    eng: &BatchedEngine<P, U>,
    streams: &[Vec<ConcOp>],
) -> Result<Vec<LogRecord>, String>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    assert!(
        streams.len() <= eng.num_producers(),
        "need one ring producer per stream"
    );
    let producers = (0..streams.len()).map(|t| eng.producer(t)).collect();
    let mut log = race(producers, streams);
    // Exactly-once accounting over the rings, counting entries still in
    // flight at the join, then after the final flush.
    let (enq, drn, pending) = (eng.enqueued(), eng.drained(), eng.pending());
    if enq - drn != pending as u64 {
        return Err(format!(
            "ring accounting broken at join: {enq} enqueued - {drn} drained != {pending} in flight"
        ));
    }
    eng.flush_all();
    if eng.pending() != 0 || eng.enqueued() != eng.drained() {
        return Err(format!(
            "rings not drained by flush_all: {} pending, {} enqueued vs {} drained",
            eng.pending(),
            eng.enqueued(),
            eng.drained()
        ));
    }
    let drain = eng.take_drain_log();
    if drain.len() as u64 != eng.drained() {
        return Err(format!(
            "drain log recorded {} entries but {} ops drained: a buffered op \
             was applied without being logged",
            drain.len(),
            eng.drained()
        ));
    }
    log.extend(drain.into_iter().map(|r| LogRecord {
        seq: r.seq,
        thread: r.producer,
        op: r.op.into(),
        out: r.outcome,
    }));
    let issued: usize = streams.iter().map(|s| s.len()).sum();
    if log.len() != issued {
        return Err(format!(
            "log covers {} ops but {issued} were issued: records lost or duplicated",
            log.len()
        ));
    }
    sort_log(&mut log);
    Ok(log)
}

/// Replays a seq-sorted log through the oracle engine, checking that the
/// concurrent execution was a linearizable, exactly-once, FIFO
/// (non-overtaking) matching history.
///
/// `final_lens` is the engine's quiescent `(prq, umq)` after the run; it
/// must equal the oracle's, proving no entry was lost or duplicated in
/// either queue.
pub fn verify_log(log: &[LogRecord], final_lens: (usize, usize)) -> Result<(), String> {
    // Mutating ops claim unique stamps; lock-free probes share the stamp
    // of the writer that claims it next (and linearize before it). So a
    // stamp may repeat only while the earlier record is a probe.
    for w in log.windows(2) {
        let ordered = w[0].seq < w[1].seq || (w[0].seq == w[1].seq && is_probe(&w[0]));
        if !ordered {
            return Err(format!(
                "seq stamps out of linearization order: {} (thread {}) then {} (thread {}) — \
                 only probes may share a stamp, ahead of at most one mutating op",
                w[0].seq, w[0].thread, w[1].seq, w[1].thread
            ));
        }
    }
    let mut reference: MatchEngine<OracleList<PostedEntry>, OracleList<UnexpectedEntry>> =
        MatchEngine::new(OracleList::new(), OracleList::new());
    let mut consumed_payloads: HashSet<u64> = HashSet::new();
    let mut consumed_requests: HashSet<u64> = HashSet::new();
    for (i, r) in log.iter().enumerate() {
        let fail = |what: String| {
            Err(format!(
                "log index {i} (seq {}, thread {}): {what} [{:?} -> {:?}]",
                r.seq, r.thread, r.op, r.out
            ))
        };
        let want = reference.apply(r.op).1;
        let consumed = match r.op {
            Op::PostRecv { .. } => &mut consumed_payloads,
            Op::Arrival { .. } => &mut consumed_requests,
            // Probes and cancels must agree exactly, depth included.
            Op::Iprobe { .. } | Op::Cancel { .. } => {
                if r.out != want {
                    return fail(format!("oracle saw {want:?}"));
                }
                continue;
            }
        };
        // Posts and arrivals: the same branch (matched or appended) and
        // the same counterpart; the depth is the shard's own business.
        if core::mem::discriminant(&r.out) != core::mem::discriminant(&want)
            || r.out.matched() != want.matched()
        {
            return fail(format!("oracle saw {want:?}"));
        }
        if let Some(h) = r.out.matched() {
            if !consumed.insert(h) {
                return fail(format!("handle {h} matched twice"));
            }
        }
    }
    let want_lens = reference.queue_lens();
    if final_lens != want_lens {
        return Err(format!(
            "final queue lens {final_lens:?}, oracle {want_lens:?}: entries lost or duplicated"
        ));
    }
    Ok(())
}

/// Convenience: [`run_concurrent`] then [`verify_log`] with the engine's
/// quiescent queue lengths. Under `--features debug_invariants`, the
/// engine's structural validators also run at the quiescent point after
/// the racing threads join.
pub fn run_and_verify<H>(eng: H, streams: &[Vec<ConcOp>]) -> Result<(), String>
where
    H: Engine<Stamp = u64> + Copy + Send,
{
    let log = run_concurrent(eng, streams);
    #[cfg(feature = "debug_invariants")]
    eng.validate()
        .map_err(|e| format!("invariant violation after join: {e}"))?;
    verify_log(&log, eng.queue_lens())
}

/// Convenience for the batched engine: builds a
/// [`BatchedEngine`] (one producer per stream, drain log enabled), races
/// the streams through the rings, then verifies the merged
/// direct-plus-drain log against the oracle. Under
/// `--features debug_invariants`, the wrapped engine's structural
/// validators also run at the quiescent point after the final flush.
pub fn run_and_verify_batched<P, U>(
    streams: &[Vec<ConcOp>],
    shards: usize,
    batch: usize,
    mk_prq: impl FnMut() -> P,
    mk_umq: impl FnMut() -> U,
) -> Result<(), String>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    let eng = BatchedEngine::new(shards, streams.len(), batch, mk_prq, mk_umq).with_drain_log();
    let log = run_concurrent_batched(&eng, streams)?;
    #[cfg(feature = "debug_invariants")]
    eng.validate()
        .map_err(|e| format!("invariant violation after final flush: {e}"))?;
    verify_log(&log, eng.queue_lens())
}

/// Op count scale factor for the concurrent suites: reads
/// `SPC_CONC_OPS_MULT` (a positive integer; defaults to 1). CI's stress
/// job raises it to run the same tests over much longer histories.
pub fn stress_multiplier() -> usize {
    std::env::var("SPC_CONC_OPS_MULT")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&m| m > 0)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_core::concurrent::SharedEngine;
    use spc_core::list::Lla;
    use spc_core::shard::ShardedEngine;

    type Shared = SharedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;
    type Sharded = ShardedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;

    #[test]
    fn streams_are_deterministic_and_distinct_per_thread() {
        let a = conc_ops(9, 4, 200);
        assert_eq!(a, conc_ops(9, 4, 200));
        assert_eq!(a.len(), 4);
        assert_ne!(a[0], a[1], "threads must not replay identical streams");
        assert!(a.iter().flatten().any(|o| matches!(
            o,
            ConcOp::Post { rank: None, .. } | ConcOp::Post { tag: None, .. }
        )));
    }

    #[test]
    fn tagged_wildcard_streams_cover_many_tags_any_tag_and_cancels() {
        let a = conc_ops_tagged_wild(9, 4, 500);
        assert_eq!(a, conc_ops_tagged_wild(9, 4, 500));
        let wild_tags: HashSet<i32> = a
            .iter()
            .flatten()
            .filter_map(|o| match o {
                ConcOp::Post {
                    rank: None,
                    tag: Some(t),
                    ..
                } => Some(*t),
                _ => None,
            })
            .collect();
        assert!(wild_tags.len() >= 16, "only {} tags", wild_tags.len());
        let any = |f: fn(&ConcOp) -> bool| a.iter().flatten().any(f);
        assert!(any(|o| matches!(
            o,
            ConcOp::Post {
                rank: None,
                tag: None,
                ..
            }
        )));
        assert!(any(|o| matches!(o, ConcOp::Cancel { .. })));
    }

    #[test]
    fn shared_engine_history_is_linearizable() {
        let eng = Shared::new(MatchEngine::new(Lla::new(), Lla::new()));
        run_and_verify(&eng, &conc_ops(1, 4, 1_000)).unwrap();
    }

    #[test]
    fn sharded_engine_history_is_linearizable() {
        let eng = Sharded::new(4, Lla::new, Lla::new);
        run_and_verify(&eng, &conc_ops(2, 4, 1_000)).unwrap();
    }

    #[test]
    fn batched_engine_history_is_linearizable() {
        run_and_verify_batched::<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>(
            &conc_ops(3, 4, 1_000),
            4,
            16,
            Lla::new,
            Lla::new,
        )
        .unwrap();
    }

    fn record(seq: u64, op: Op, out: Outcome) -> LogRecord {
        LogRecord {
            seq,
            thread: 0,
            op,
            out,
        }
    }

    #[test]
    fn verify_rejects_a_duplicated_match() {
        // Hand-build a log where one payload satisfies two receives.
        let post = |seq, request| {
            let spec = RecvSpec::new(1, 1, 0);
            let out = Outcome::MatchedUnexpected {
                payload: 7,
                depth: 1,
            };
            record(seq, Op::PostRecv { spec, request }, out)
        };
        let arrive = record(
            0,
            Op::Arrival {
                env: Envelope::new(1, 1, 0),
                payload: 7,
            },
            Outcome::Queued { depth: 0 },
        );
        let err = verify_log(&[arrive, post(1, 10), post(2, 11)], (0, 0)).unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }

    #[test]
    fn verify_rejects_duplicate_seq_stamps_on_mutating_ops() {
        let cancel = |seq| record(seq, Op::Cancel { request: 9 }, Outcome::Cancelled(false));
        let probe = |seq| {
            let spec = RecvSpec::new(ANY_SOURCE, ANY_TAG, 0);
            record(seq, Op::Iprobe { spec }, Outcome::Probed(None))
        };
        // Two mutating ops must never share a stamp; neither may a
        // mutating op precede a probe with the same stamp.
        let err = verify_log(&[cancel(3), cancel(3)], (0, 0)).unwrap_err();
        assert!(err.contains("share a stamp"), "{err}");
        let err = verify_log(&[cancel(3), probe(3)], (0, 0)).unwrap_err();
        assert!(err.contains("share a stamp"), "{err}");
        // Lock-free probes legitimately share the stamp of the writer
        // that claims it next — probes-first groups are a linearization.
        verify_log(&[probe(3), probe(3), cancel(3), cancel(4)], (0, 0)).unwrap();
    }

    #[test]
    fn verify_rejects_lost_entries() {
        // Log says the queue drained, engine says one entry remains.
        let err = verify_log(&[], (1, 0)).unwrap_err();
        assert!(err.contains("lens"), "{err}");
    }
}
