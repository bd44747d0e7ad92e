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
//! 2. [`run_concurrent`] runs the streams through a [`ConcEngine`] from
//!    real threads. Every operation comes back with a **seq stamp** the
//!    engine assigned at its linearization point (while holding every
//!    lock the operation used), plus its observed outcome.
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

use crate::driver::ConformEngine;
use crate::oracle::OracleList;
use spc_core::concurrent::SharedEngine;
use spc_core::engine::{ArrivalOutcome, MatchEngine, RecvOutcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
use spc_core::ingest::{BatchedEngine, IngestOp};
use spc_core::list::MatchList;
use spc_core::shard::ShardedEngine;
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

/// The surface a thread-safe engine must expose to the concurrent
/// driver: every workload operation, seq-stamped at its linearization
/// point.
pub trait ConcEngine: Sync {
    /// Seq-stamped [`spc_core::MatchEngine::post_recv`].
    fn post_recv_seq(&self, spec: RecvSpec, request: u64) -> (u64, RecvOutcome);
    /// Seq-stamped [`spc_core::MatchEngine::arrival`].
    fn arrival_seq(&self, env: Envelope, payload: u64) -> (u64, ArrivalOutcome);
    /// Seq-stamped [`spc_core::MatchEngine::cancel_recv`].
    fn cancel_recv_seq(&self, request: u64) -> (u64, bool);
    /// Seq-stamped [`spc_core::MatchEngine::iprobe`].
    fn iprobe_seq(&self, spec: RecvSpec) -> (u64, Option<(u64, u32)>);
    /// Current `(prq, umq)` lengths (quiescent use only).
    fn queue_lens(&self) -> (usize, usize);
    /// Structural invariant check, quiescent use only (the engines take
    /// their own locks). [`run_and_verify`] and the stepped scheduler call
    /// it after the racing threads join, under
    /// `--features debug_invariants`.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

impl<P, U> ConcEngine for SharedEngine<P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    fn post_recv_seq(&self, spec: RecvSpec, request: u64) -> (u64, RecvOutcome) {
        SharedEngine::post_recv_seq(self, spec, request)
    }
    fn arrival_seq(&self, env: Envelope, payload: u64) -> (u64, ArrivalOutcome) {
        SharedEngine::arrival_seq(self, env, payload)
    }
    fn cancel_recv_seq(&self, request: u64) -> (u64, bool) {
        SharedEngine::cancel_recv_seq(self, request)
    }
    fn iprobe_seq(&self, spec: RecvSpec) -> (u64, Option<(u64, u32)>) {
        SharedEngine::iprobe_seq(self, spec)
    }
    fn queue_lens(&self) -> (usize, usize) {
        SharedEngine::queue_lens(self)
    }
    fn validate(&self) -> Result<(), String> {
        SharedEngine::validate(self)
    }
}

impl<P, U> ConcEngine for ShardedEngine<P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    fn post_recv_seq(&self, spec: RecvSpec, request: u64) -> (u64, RecvOutcome) {
        ShardedEngine::post_recv_seq(self, spec, request)
    }
    fn arrival_seq(&self, env: Envelope, payload: u64) -> (u64, ArrivalOutcome) {
        ShardedEngine::arrival_seq(self, env, payload)
    }
    fn cancel_recv_seq(&self, request: u64) -> (u64, bool) {
        ShardedEngine::cancel_recv_seq(self, request)
    }
    fn iprobe_seq(&self, spec: RecvSpec) -> (u64, Option<(u64, u32)>) {
        ShardedEngine::iprobe_seq(self, spec)
    }
    fn queue_lens(&self) -> (usize, usize) {
        ShardedEngine::queue_lens(self)
    }
    fn validate(&self) -> Result<(), String> {
        ShardedEngine::validate(self)
    }
}

/// The sharded engine can also run the single-threaded lockstep driver
/// ([`crate::driver::diff_engine`], with [`crate::driver::DepthMode::Bounded`]
/// — shard-local searches legitimately inspect fewer entries). Its
/// `queue_ids` merge the shard indexes in global seq order, so snapshots
/// are compared exactly against the oracle.
impl<P, U> ConformEngine for ShardedEngine<P, U>
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    fn post_recv(&mut self, spec: RecvSpec, request: u64) -> RecvOutcome {
        ShardedEngine::post_recv(self, spec, request)
    }
    fn arrival(&mut self, env: Envelope, payload: u64) -> ArrivalOutcome {
        ShardedEngine::arrival(self, env, payload)
    }
    fn iprobe(&mut self, spec: RecvSpec) -> Option<(u64, u32)> {
        ShardedEngine::iprobe(self, spec)
    }
    fn cancel_recv(&mut self, request: u64) -> bool {
        ShardedEngine::cancel_recv(self, request)
    }
    fn prq_len(&self) -> usize {
        self.queue_lens().0
    }
    fn umq_len(&self) -> usize {
        self.queue_lens().1
    }
    fn reset(&mut self) {
        ShardedEngine::reset(self)
    }
    fn queue_ids(&self) -> Option<(Vec<u64>, Vec<u64>)> {
        Some(ShardedEngine::queue_ids(self))
    }
    fn validate(&self) -> Result<(), String> {
        ShardedEngine::validate(self)
    }
}

/// One executed operation: its seq stamp, the thread that ran it, and the
/// fully-resolved action with its observed outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Linearization stamp the engine assigned.
    pub seq: u64,
    /// Index of the thread that executed the op.
    pub thread: usize,
    /// What ran and what it observed.
    pub action: Action,
}

/// A resolved operation plus its observed outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// A receive post; `matched` is the unexpected payload it consumed,
    /// if any.
    Post {
        /// Requested rank, or `None` for `MPI_ANY_SOURCE`.
        rank: Option<i32>,
        /// Requested tag, or `None` for `MPI_ANY_TAG`.
        tag: Option<i32>,
        /// Receive context id.
        ctx: u16,
        /// Request handle issued for this receive.
        req: u64,
        /// Payload of the unexpected message it matched, if any.
        matched: Option<u64>,
    },
    /// A message arrival; `matched` is the receive request it satisfied,
    /// if any.
    Arrive {
        /// Message source rank.
        rank: i32,
        /// Message tag.
        tag: i32,
        /// Message context id.
        ctx: u16,
        /// Payload handle issued for this message.
        payload: u64,
        /// Request of the posted receive it matched, if any.
        matched: Option<u64>,
    },
    /// A cancellation attempt and whether it found the receive pending.
    Cancel {
        /// Request handle targeted.
        req: u64,
        /// Whether the receive was still pending.
        hit: bool,
    },
    /// A probe and the `(payload, depth)` it reported.
    Probe {
        /// Requested rank, or `None` for `MPI_ANY_SOURCE`.
        rank: Option<i32>,
        /// Requested tag, or `None` for `MPI_ANY_TAG`.
        tag: Option<i32>,
        /// Probe context id.
        ctx: u16,
        /// What the probe observed.
        found: Option<(u64, u32)>,
    },
}

fn spec_of(rank: Option<i32>, tag: Option<i32>, ctx: u16) -> RecvSpec {
    RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), ctx)
}

/// Sorts a merged log into linearization order: by seq stamp, with
/// probes ahead of a mutating op sharing their stamp. Lock-free probes
/// read the seq counter without claiming a stamp, so a probe stamped `s`
/// observed every writer `< s` and linearizes *before* the writer that
/// next claims `s`.
pub fn sort_log(log: &mut [LogRecord]) {
    log.sort_unstable_by_key(|r| (r.seq, !matches!(r.action, Action::Probe { .. })));
}

/// Per-thread execution state: resolves [`ConcOp`]s to concrete handles
/// from the thread's id space and records seq-stamped outcomes.
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

    /// Executes one op against `eng`, returning its log record.
    pub fn run<E: ConcEngine + ?Sized>(&mut self, eng: &E, op: ConcOp) -> LogRecord {
        let thread = self.thread;
        match op {
            ConcOp::Post { rank, tag, ctx } => {
                let req = self.id(self.posted);
                self.posted += 1;
                let (seq, out) = eng.post_recv_seq(spec_of(rank, tag, ctx), req);
                let matched = match out {
                    RecvOutcome::MatchedUnexpected { payload, .. } => Some(payload),
                    RecvOutcome::Posted => None,
                };
                LogRecord {
                    seq,
                    thread,
                    action: Action::Post {
                        rank,
                        tag,
                        ctx,
                        req,
                        matched,
                    },
                }
            }
            ConcOp::Arrive { rank, tag, ctx } => {
                let payload = self.id(self.sent);
                self.sent += 1;
                let (seq, out) = eng.arrival_seq(Envelope::new(rank, tag, ctx), payload);
                let matched = match out {
                    ArrivalOutcome::MatchedPosted { request, .. } => Some(request),
                    ArrivalOutcome::Queued => None,
                };
                LogRecord {
                    seq,
                    thread,
                    action: Action::Arrive {
                        rank,
                        tag,
                        ctx,
                        payload,
                        matched,
                    },
                }
            }
            ConcOp::Probe { rank, tag, ctx } => {
                let (seq, found) = eng.iprobe_seq(spec_of(rank, tag, ctx));
                LogRecord {
                    seq,
                    thread,
                    action: Action::Probe {
                        rank,
                        tag,
                        ctx,
                        found,
                    },
                }
            }
            ConcOp::Cancel { nth } => {
                // Target one of this thread's own requests; a thread that
                // has posted nothing cancels a handle never issued by
                // anyone (its own id space), observing `false`.
                let req = if self.posted == 0 {
                    self.id(u32::MAX as u64)
                } else {
                    self.id(nth % self.posted)
                };
                let (seq, hit) = eng.cancel_recv_seq(req);
                LogRecord {
                    seq,
                    thread,
                    action: Action::Cancel { req, hit },
                }
            }
        }
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

/// Runs the per-thread streams against `eng` from real racing threads and
/// returns the merged log, sorted by seq stamp (the linearization).
pub fn run_concurrent<E: ConcEngine>(eng: &E, streams: &[Vec<ConcOp>]) -> Vec<LogRecord> {
    let per_thread: Vec<Vec<LogRecord>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                s.spawn(move || {
                    let mut exec = ThreadExec::new(t);
                    ops.iter().map(|op| exec.run(eng, *op)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut log: Vec<LogRecord> = per_thread.into_iter().flatten().collect();
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
    let direct: Vec<Vec<LogRecord>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                s.spawn(move || {
                    let p = eng.producer(t);
                    let id = |c: u64| ((t as u64) << 32) | c;
                    let (mut posted, mut sent) = (0u64, 0u64);
                    let mut out = Vec::new();
                    for op in ops {
                        match *op {
                            ConcOp::Post { rank, tag, ctx } => {
                                let req = id(posted);
                                posted += 1;
                                // `None`: buffered — its record surfaces in
                                // the drain log when the ring is applied.
                                if let Some((seq, o)) = p.post_recv(spec_of(rank, tag, ctx), req) {
                                    let matched = match o {
                                        RecvOutcome::MatchedUnexpected { payload, .. } => {
                                            Some(payload)
                                        }
                                        RecvOutcome::Posted => None,
                                    };
                                    out.push(LogRecord {
                                        seq,
                                        thread: t,
                                        action: Action::Post {
                                            rank,
                                            tag,
                                            ctx,
                                            req,
                                            matched,
                                        },
                                    });
                                }
                            }
                            ConcOp::Arrive { rank, tag, ctx } => {
                                let payload = id(sent);
                                sent += 1;
                                p.arrival(Envelope::new(rank, tag, ctx), payload);
                            }
                            ConcOp::Probe { rank, tag, ctx } => {
                                let (seq, found) = p.iprobe_seq(spec_of(rank, tag, ctx));
                                out.push(LogRecord {
                                    seq,
                                    thread: t,
                                    action: Action::Probe {
                                        rank,
                                        tag,
                                        ctx,
                                        found,
                                    },
                                });
                            }
                            ConcOp::Cancel { nth } => {
                                let req = if posted == 0 {
                                    id(u32::MAX as u64)
                                } else {
                                    id(nth % posted)
                                };
                                let (seq, hit) = p.cancel_recv_seq(req);
                                out.push(LogRecord {
                                    seq,
                                    thread: t,
                                    action: Action::Cancel { req, hit },
                                });
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
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
    let mut log: Vec<LogRecord> = direct.into_iter().flatten().collect();
    log.extend(drain.into_iter().map(|r| LogRecord {
        seq: r.seq,
        thread: r.producer,
        action: match r.op {
            IngestOp::Post { spec, request } => Action::Post {
                rank: (spec.rank != ANY_SOURCE).then_some(spec.rank),
                tag: (spec.tag != ANY_TAG).then_some(spec.tag),
                ctx: spec.context_id,
                req: request,
                matched: r.matched,
            },
            IngestOp::Arrive { env, payload } => Action::Arrive {
                rank: env.rank,
                tag: env.tag,
                ctx: env.context_id,
                payload,
                matched: r.matched,
            },
        },
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
        let ordered = w[0].seq < w[1].seq
            || (w[0].seq == w[1].seq && matches!(w[0].action, Action::Probe { .. }));
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
                "log index {i} (seq {}, thread {}): {what} [{:?}]",
                r.seq, r.thread, r.action
            ))
        };
        match r.action {
            Action::Post {
                rank,
                tag,
                ctx,
                req,
                matched,
            } => {
                let want = match reference.post_recv(spec_of(rank, tag, ctx), req) {
                    RecvOutcome::MatchedUnexpected { payload, .. } => Some(payload),
                    RecvOutcome::Posted => None,
                };
                if matched != want {
                    return fail(format!("post matched {matched:?}, oracle {want:?}"));
                }
                if let Some(p) = matched {
                    if !consumed_payloads.insert(p) {
                        return fail(format!("payload {p} matched twice"));
                    }
                }
            }
            Action::Arrive {
                rank,
                tag,
                ctx,
                payload,
                matched,
            } => {
                let want = match reference.arrival(Envelope::new(rank, tag, ctx), payload) {
                    ArrivalOutcome::MatchedPosted { request, .. } => Some(request),
                    ArrivalOutcome::Queued => None,
                };
                if matched != want {
                    return fail(format!("arrival matched {matched:?}, oracle {want:?}"));
                }
                if let Some(q) = matched {
                    if !consumed_requests.insert(q) {
                        return fail(format!("request {q} matched twice"));
                    }
                }
            }
            Action::Cancel { req, hit } => {
                let want = reference.cancel_recv(req);
                if hit != want {
                    return fail(format!("cancel({req}) -> {hit}, oracle {want}"));
                }
            }
            Action::Probe {
                rank,
                tag,
                ctx,
                found,
            } => {
                let want = reference.iprobe(spec_of(rank, tag, ctx));
                if found != want {
                    return fail(format!("probe saw {found:?}, oracle {want:?}"));
                }
            }
        }
    }
    let want_lens = (reference.prq_len(), reference.umq_len());
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
pub fn run_and_verify<E: ConcEngine>(eng: &E, streams: &[Vec<ConcOp>]) -> Result<(), String> {
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
    use spc_core::list::Lla;

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

    #[test]
    fn verify_rejects_a_duplicated_match() {
        // Hand-build a log where one payload satisfies two receives.
        let post = |seq, req| LogRecord {
            seq,
            thread: 0,
            action: Action::Post {
                rank: Some(1),
                tag: Some(1),
                ctx: 0,
                req,
                matched: Some(7),
            },
        };
        let arrive = LogRecord {
            seq: 0,
            thread: 0,
            action: Action::Arrive {
                rank: 1,
                tag: 1,
                ctx: 0,
                payload: 7,
                matched: None,
            },
        };
        let err = verify_log(&[arrive, post(1, 10), post(2, 11)], (0, 0)).unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }

    #[test]
    fn verify_rejects_duplicate_seq_stamps_on_mutating_ops() {
        let cancel = |seq| LogRecord {
            seq,
            thread: 0,
            action: Action::Cancel { req: 9, hit: false },
        };
        let probe = |seq| LogRecord {
            seq,
            thread: 0,
            action: Action::Probe {
                rank: None,
                tag: None,
                ctx: 0,
                found: None,
            },
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
