//! The only file that names `spc_core` symbols.
//!
//! Everything else in the benchmark speaks [`Op`] and reads the plain
//! structs below, so a change to the engine API is a change to this file
//! alone. The surface used is deliberately what a client of the library
//! uses: constructors, the verbs (`post_recv`, `arrival`, `iprobe`,
//! `cancel_recv`, and the `_sink` forms for the simulator), `queue_lens`,
//! `stats` / `snap_read_stats`, `heat_regions`, `validate`, the drain log,
//! the native `Heater`, and `MatchList::{append, search_remove,
//! remove_by_id, footprint}` for the bare-list rung. No test hooks and no
//! `SPC_*` forcing: the benchmark measures the shipped defaults.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spc_cachesim::MemSim;
use spc_core::concurrent::SharedEngine;
use spc_core::dynengine::{DynEngine, EngineKind};
use spc_core::engine::{ArrivalOutcome, MatchEngine, RecvOutcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE};
use spc_core::heater::{HeatBuffer, Heater, HeaterConfig};
use spc_core::ingest::{BatchedEngine, IngestOp, Producer};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, SourceBins};
use spc_core::shard::ShardedEngine;
use spc_core::sink::{CountingSink, NullSink};
use spc_core::stats::EngineStats;

use crate::ops::{lens_code, Op, Verb, DEFERRED, NONE};

/// The paper's 64-byte configuration: 2 posted / 3 unexpected entries per node.
type Prq = Lla<PostedEntry, 2>;
type Umq = Lla<UnexpectedEntry, 3>;

/// Source-rank universe the partitioned structures are sized for; every
/// workload keeps its sources below this.
const RANKS: usize = 256;

fn spec(op: &Op) -> RecvSpec {
    RecvSpec::new(if op.wild { ANY_SOURCE } else { op.src }, op.tag, 0)
}

fn env(op: &Op) -> Envelope {
    Envelope::new(op.src, op.tag, 0)
}

fn recv_code(out: RecvOutcome) -> u64 {
    match out {
        RecvOutcome::MatchedUnexpected { payload, .. } => payload,
        RecvOutcome::Posted => NONE,
    }
}

fn arrival_code(out: ArrivalOutcome) -> u64 {
    match out {
        ArrivalOutcome::MatchedPosted { request, .. } => request,
        ArrivalOutcome::Queued => NONE,
    }
}

fn probe_code(out: Option<(u64, u32)>) -> u64 {
    out.map_or(NONE, |(payload, _)| payload)
}

fn hits_code(s: &EngineStats) -> u64 {
    s.prq_hits + s.umq_hits
}

/// Something a client thread can drive with ops.
pub trait Subject {
    /// Applies `op` and returns its outcome code.
    fn apply(&mut self, op: &Op) -> u64;

    /// Called by the client before each window (the simulated workload
    /// flushes its caches here).
    #[inline(always)]
    fn begin_window(&mut self) {}

    /// Called by the client when its run ends (a producer drains its rings).
    fn finish(&mut self) {}
}

impl<S: Subject> Subject for &mut S {
    #[inline(always)]
    fn apply(&mut self, op: &Op) -> u64 {
        (**self).apply(op)
    }
    #[inline(always)]
    fn begin_window(&mut self) {
        (**self).begin_window()
    }
    fn finish(&mut self) {
        (**self).finish()
    }
}

/// Engine counters at quiescence, as plain numbers.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Arrivals that matched a posted receive.
    pub prq_hits: u64,
    /// Posts that matched an unexpected message.
    pub umq_hits: u64,
    /// Admission rejections on either queue.
    pub rejected: u64,
    /// Mean PRQ search depth.
    pub prq_depth_mean: f64,
    /// Largest PRQ search depth.
    pub prq_depth_max: u64,
    /// Mean UMQ search depth.
    pub umq_depth_mean: f64,
    /// Counted lock acquisitions over every shard and the wildcard lane.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the lock held.
    pub lock_contended: u64,
    /// Arrivals that crossed into the wildcard lane.
    pub wild_crossings: u64,
    /// Counted acquisitions per shard.
    pub shard_acquisitions: Vec<u64>,
    /// Largest PRQ length any shard held.
    pub max_prq_len: u64,
}

fn counts(s: &EngineStats) -> Counts {
    let mut c = Counts {
        prq_hits: s.prq_hits,
        umq_hits: s.umq_hits,
        rejected: s.prq_rejections + s.umq_rejections,
        prq_depth_mean: s.prq_search.mean(),
        prq_depth_max: s.prq_search.max,
        umq_depth_mean: s.umq_search.mean(),
        ..Counts::default()
    };
    if let Some(conc) = &s.concurrency {
        let lock = conc.total_lock();
        c.lock_acquisitions = lock.acquisitions;
        c.lock_contended = lock.contended;
        c.wild_crossings = conc.wild_crossings;
        c.shard_acquisitions = conc.shards.iter().map(|r| r.lock.acquisitions).collect();
        c.max_prq_len = conc.shards.iter().map(|r| r.max_prq_len).max().unwrap_or(0);
    }
    c
}

/// What every engine wrapper can report once its clients have stopped.
pub trait Quiescent {
    /// `(prq, umq)` lengths.
    fn lens(&self) -> (usize, usize);
    /// Counters.
    fn counts(&self) -> Counts;
    /// Structural invariants.
    fn validate(&self) -> Result<(), String>;
}

/// The single-threaded engine.
pub struct Engine(MatchEngine<Prq, Umq>);

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Self(MatchEngine::new(Lla::new(), Lla::new()))
    }

    /// Bytes and allocations backing both queues.
    pub fn footprint(&self) -> (u64, u64) {
        let (p, u) = (self.0.prq().footprint(), self.0.umq().footprint());
        (p.bytes + u.bytes, p.allocations + u.allocations)
    }
}

impl Subject for Engine {
    #[inline]
    fn apply(&mut self, op: &Op) -> u64 {
        match op.verb {
            Verb::Post => recv_code(self.0.post_recv(spec(op), op.handle)),
            Verb::Arrive => arrival_code(self.0.arrival(env(op), op.handle)),
            Verb::Probe => probe_code(self.0.iprobe(spec(op))),
            Verb::Cancel => self.0.cancel_recv(op.handle) as u64,
            Verb::Lens => lens_code(self.0.prq_len(), self.0.umq_len()),
            Verb::Stats => hits_code(self.0.stats()),
        }
    }
}

impl Quiescent for Engine {
    fn lens(&self) -> (usize, usize) {
        (self.0.prq_len(), self.0.umq_len())
    }
    fn counts(&self) -> Counts {
        counts(self.0.stats())
    }
    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }
}

/// Implements [`Subject`] for `&$ty` (each client thread holds its own
/// shared reference) and [`Quiescent`] for `$ty`, for the two wrappers
/// whose verbs take `&self` and return outcomes directly.
macro_rules! shared_subject {
    ($ty:ident) => {
        impl Subject for &$ty {
            #[inline]
            fn apply(&mut self, op: &Op) -> u64 {
                match op.verb {
                    Verb::Post => recv_code(self.0.post_recv(spec(op), op.handle)),
                    Verb::Arrive => arrival_code(self.0.arrival(env(op), op.handle)),
                    Verb::Probe => probe_code(self.0.iprobe(spec(op))),
                    Verb::Cancel => self.0.cancel_recv(op.handle) as u64,
                    Verb::Lens => {
                        let (p, u) = self.0.queue_lens();
                        lens_code(p, u)
                    }
                    Verb::Stats => hits_code(&self.0.stats()),
                }
            }
        }

        impl Quiescent for $ty {
            fn lens(&self) -> (usize, usize) {
                self.0.queue_lens()
            }
            fn counts(&self) -> Counts {
                counts(&self.0.stats())
            }
            fn validate(&self) -> Result<(), String> {
                self.0.validate()
            }
        }
    };
}

/// One engine behind one lock.
pub struct Shared(SharedEngine<Prq, Umq>);

impl Shared {
    /// An empty engine.
    pub fn new() -> Self {
        Self(SharedEngine::new(MatchEngine::new(Lla::new(), Lla::new())))
    }
}

shared_subject!(Shared);

/// Lock-free read counters of the sharded engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapReads {
    /// Probe attempts a writer invalidated.
    pub probe_retries: u64,
    /// Probes that fell back to the locked path.
    pub probe_fallbacks: u64,
    /// Wildcard posts parked by the lock-free pre-scan.
    pub prescan_parks: u64,
    /// Wildcard posts the pre-scan sent to the locked path.
    pub prescan_fallbacks: u64,
}

/// Per-source shards, each behind its own lock.
pub struct Sharded(ShardedEngine<Prq, Umq>);

impl Sharded {
    /// An empty engine with `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self(ShardedEngine::new(shards, Lla::new, Lla::new))
    }

    /// Seqlock retry, fallback and pre-scan counters.
    pub fn snap_reads(&self) -> SnapReads {
        let s = self.0.snap_read_stats();
        SnapReads {
            probe_retries: s.probe_retries,
            probe_fallbacks: s.probe_fallbacks,
            prescan_parks: s.prescan_parks,
            prescan_fallbacks: s.prescan_fallbacks,
        }
    }
}

shared_subject!(Sharded);

/// One drained ring entry: which op it was and what it matched.
#[derive(Clone, Copy, Debug)]
pub struct Drained {
    /// [`Verb::Post`] or [`Verb::Arrive`].
    pub verb: Verb,
    /// The op's own handle.
    pub handle: u64,
    /// Outcome code, as [`Subject::apply`] would have returned it.
    pub outcome: u64,
}

/// The sharded engine fed through per-producer ingest rings.
pub struct Batched(BatchedEngine<Prq, Umq>);

impl Batched {
    /// An empty engine; `log` turns the drain log on (`--check` only).
    pub fn new(shards: usize, producers: usize, batch: usize, log: bool) -> Self {
        let e = BatchedEngine::new(shards, producers, batch, Lla::new, Lla::new);
        Self(if log { e.with_drain_log() } else { e })
    }

    /// The handle client thread `id` drives.
    pub fn producer(&self, id: usize) -> BatchedProducer<'_> {
        BatchedProducer {
            eng: &self.0,
            p: self.0.producer(id),
        }
    }

    /// Takes the drain log.
    pub fn take_log(&self) -> Vec<Drained> {
        self.0
            .take_drain_log()
            .into_iter()
            .map(|r| {
                let (verb, handle) = match r.op {
                    IngestOp::Post { request, .. } => (Verb::Post, request),
                    IngestOp::Arrive { payload, .. } => (Verb::Arrive, payload),
                };
                Drained {
                    verb,
                    handle,
                    outcome: r.matched.unwrap_or(NONE),
                }
            })
            .collect()
    }
}

impl Quiescent for Batched {
    fn lens(&self) -> (usize, usize) {
        self.0.queue_lens()
    }
    fn counts(&self) -> Counts {
        counts(&self.0.stats())
    }
    fn validate(&self) -> Result<(), String> {
        match self.0.pending() {
            0 => self.0.validate(),
            n => Err(format!("{n} ops still buffered in ingest rings")),
        }
    }
}

/// One client's producer handle.
pub struct BatchedProducer<'e> {
    eng: &'e BatchedEngine<Prq, Umq>,
    p: Producer<'e, Prq, Umq>,
}

impl Subject for BatchedProducer<'_> {
    #[inline]
    fn apply(&mut self, op: &Op) -> u64 {
        match op.verb {
            Verb::Post => self
                .p
                .post_recv(spec(op), op.handle)
                .map_or(DEFERRED, |(_, out)| recv_code(out)),
            Verb::Arrive => {
                self.p.arrival(env(op), op.handle);
                DEFERRED
            }
            Verb::Probe => probe_code(self.p.iprobe_seq(spec(op)).1),
            Verb::Cancel => self.p.cancel_recv_seq(op.handle).1 as u64,
            Verb::Lens => {
                let (p, u) = self.eng.queue_lens();
                lens_code(p, u)
            }
            Verb::Stats => hits_code(&self.eng.stats()),
        }
    }

    fn finish(&mut self) {
        self.p.flush();
    }
}

/// The structures the bare-list rung walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKind {
    /// The workloads' own structure: LLA, one cache line per node.
    Lla2,
    /// One heap node per entry.
    Baseline,
    /// LLA, 8 entries per node.
    Lla8,
    /// LLA, 32 entries per node.
    Lla32,
    /// Open MPI-style per-source bins.
    Bins,
    /// Hash bins over the full matching criteria.
    HashBins,
    /// Four-level rank decomposition.
    RankTrie,
}

impl ListKind {
    /// Metric-name segment.
    pub fn label(self) -> &'static str {
        match self {
            ListKind::Lla2 => "lla2",
            ListKind::Baseline => "baseline",
            ListKind::Lla8 => "lla8",
            ListKind::Lla32 => "lla32",
            ListKind::Bins => "bins",
            ListKind::HashBins => "hashbins",
            ListKind::RankTrie => "ranktrie",
        }
    }
}

// One `Lists` exists per pass; boxing the large variants would only add a
// pointer chase to every timed list call.
#[allow(clippy::large_enum_variant)]
enum AnyPrq {
    Lla2(Prq),
    Baseline(BaselineList<PostedEntry>),
    Lla8(Lla<PostedEntry, 8>),
    Lla32(Lla<PostedEntry, 32>),
    Bins(SourceBins<PostedEntry>),
    HashBins(HashBins<PostedEntry>),
    RankTrie(RankTrie<PostedEntry>),
}

macro_rules! with_prq {
    ($prq:expr, $l:ident => $body:expr) => {
        match $prq {
            AnyPrq::Lla2($l) => $body,
            AnyPrq::Baseline($l) => $body,
            AnyPrq::Lla8($l) => $body,
            AnyPrq::Lla32($l) => $body,
            AnyPrq::Bins($l) => $body,
            AnyPrq::HashBins($l) => $body,
            AnyPrq::RankTrie($l) => $body,
        }
    };
}

/// Exact access counts of one list call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Touched {
    /// Bytes read plus bytes written.
    pub bytes: u64,
    /// Distinct cache lines.
    pub lines: u64,
}

/// The two queues with no engine around them: the bottom rung. The PRQ is
/// the structure under study; the UMQ stays the LLA throughout.
pub struct Lists {
    prq: AnyPrq,
    umq: Umq,
    /// Present on the counting pass only.
    sink: Option<CountingSink>,
}

impl Lists {
    /// Empty queues; `counting` charges every access to a `CountingSink`.
    pub fn new(kind: ListKind, counting: bool) -> Self {
        let prq = match kind {
            ListKind::Lla2 => AnyPrq::Lla2(Lla::new()),
            ListKind::Baseline => AnyPrq::Baseline(BaselineList::new()),
            ListKind::Lla8 => AnyPrq::Lla8(Lla::new()),
            ListKind::Lla32 => AnyPrq::Lla32(Lla::new()),
            ListKind::Bins => AnyPrq::Bins(SourceBins::new(RANKS)),
            ListKind::HashBins => AnyPrq::HashBins(HashBins::new()),
            ListKind::RankTrie => AnyPrq::RankTrie(RankTrie::new(RANKS)),
        };
        Self {
            prq,
            umq: Lla::new(),
            sink: counting.then(CountingSink::new),
        }
    }

    /// Appends the receive `op` posts to the PRQ.
    #[inline]
    pub fn prq_append(&mut self, op: &Op) {
        let e = PostedEntry::from_spec(spec(op), op.handle);
        match &mut self.sink {
            Some(s) => with_prq!(&mut self.prq, l => l.append(e, s)),
            None => with_prq!(&mut self.prq, l => l.append(e, &mut NullSink)),
        }
    }

    /// Searches the PRQ for the arrival `op`: `(outcome code, depth)`.
    #[inline]
    pub fn prq_search(&mut self, op: &Op) -> (u64, u32) {
        let probe = env(op);
        let s = match &mut self.sink {
            Some(s) => with_prq!(&mut self.prq, l => l.search_remove(&probe, s)),
            None => with_prq!(&mut self.prq, l => l.search_remove(&probe, &mut NullSink)),
        };
        (s.found.map_or(NONE, |e| e.request), s.depth)
    }

    /// Appends the message `op` delivers to the UMQ.
    #[inline]
    pub fn umq_append(&mut self, op: &Op) {
        let e = UnexpectedEntry::from_envelope(env(op), op.handle);
        match &mut self.sink {
            Some(s) => self.umq.append(e, s),
            None => self.umq.append(e, &mut NullSink),
        }
    }

    /// Searches the UMQ for the post `op`: `(outcome code, depth)`.
    #[inline]
    pub fn umq_search(&mut self, op: &Op) -> (u64, u32) {
        let probe = spec(op);
        let s = match &mut self.sink {
            Some(s) => self.umq.search_remove(&probe, s),
            None => self.umq.search_remove(&probe, &mut NullSink),
        };
        (s.found.map_or(NONE, |e| e.payload), s.depth)
    }

    /// Removes the receive `op` cancels from the PRQ: 1 if it was there.
    /// (`remove_by_id` is the one list call beyond append / search_remove /
    /// footprint: without it a cancelled post would stay queued.)
    #[inline]
    pub fn prq_remove(&mut self, op: &Op) -> u64 {
        let hit = match &mut self.sink {
            Some(s) => with_prq!(&mut self.prq, l => l.remove_by_id(op.handle, s)),
            None => with_prq!(&mut self.prq, l => l.remove_by_id(op.handle, &mut NullSink)),
        };
        hit.is_some() as u64
    }

    /// Counts charged since the last call (counting pass only).
    pub fn take_touched(&mut self) -> Touched {
        let s = self.sink.as_mut().expect("counting pass only");
        let t = Touched {
            bytes: s.bytes_read + s.bytes_written,
            lines: s.distinct_lines() as u64,
        };
        s.reset();
        t
    }

    /// Bytes and allocations backing both queues.
    pub fn footprint(&self) -> (u64, u64) {
        let p = with_prq!(&self.prq, l => l.footprint());
        let u = self.umq.footprint();
        (p.bytes + u.bytes, p.allocations + u.allocations)
    }

    /// `(prq, umq)` lengths.
    pub fn lens(&self) -> (usize, usize) {
        (with_prq!(&self.prq, l => l.len()), self.umq.len())
    }
}

/// Queue structure of a simulated engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimStructure {
    /// LLA, one cache line per node (the workloads' own).
    Lla2,
    /// LLA, 8 entries per node.
    Lla8,
    /// One scattered heap node per entry.
    Baseline,
}

/// An engine whose every access is charged to a cache simulator.
pub struct SimEngine(DynEngine);

impl SimEngine {
    /// An empty engine.
    pub fn new(structure: SimStructure) -> Self {
        Self(DynEngine::new(match structure {
            SimStructure::Lla2 => EngineKind::Lla { arity: 2 },
            SimStructure::Lla8 => EngineKind::Lla { arity: 8 },
            SimStructure::Baseline => EngineKind::Baseline,
        }))
    }

    /// Applies `op`, charging the walk to `mem`. Probes, cancels and reads
    /// have no instrumented path in the engine and cost no simulated time.
    pub fn apply(&mut self, op: &Op, mem: &mut MemSim) -> u64 {
        match op.verb {
            Verb::Post => recv_code(self.0.post_recv_sink(spec(op), op.handle, mem)),
            Verb::Arrive => arrival_code(self.0.arrival_sink(env(op), op.handle, mem)),
            Verb::Probe => probe_code(self.0.iprobe(spec(op))),
            Verb::Cancel => self.0.cancel_recv(op.handle) as u64,
            Verb::Lens => lens_code(self.0.prq_len(), self.0.umq_len()),
            Verb::Stats => hits_code(self.0.stats()),
        }
    }

    /// Simulated `(base, len)` regions a heater would keep warm.
    pub fn heat_regions(&self) -> Vec<(u64, u64)> {
        self.0.heat_regions()
    }

    /// `(prq, umq)` lengths.
    pub fn lens(&self) -> (usize, usize) {
        (self.0.prq_len(), self.0.umq_len())
    }
}

/// Costs of the native heater over one buffer.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeaterCosts {
    /// `register_buffer` call.
    pub register_ns: f64,
    /// `deregister` call (waits out a pass in flight).
    pub deregister_ns: f64,
    /// One pass over the buffer, back to back (period 0).
    pub pass_ns: f64,
    /// Cache lines touched per pass.
    pub lines_per_pass: f64,
}

/// Spawns the native heater with period 0, registers a `bytes`-sized
/// buffer, lets it make `passes` passes, and deregisters.
pub fn heater_costs(bytes: usize, passes: u64) -> HeaterCosts {
    let heater = Heater::spawn(HeaterConfig {
        period: Duration::ZERO,
        ..HeaterConfig::default()
    });
    let buf: Arc<HeatBuffer> = HeatBuffer::new(bytes);
    let t0 = Instant::now();
    let id = heater.register_buffer(buf);
    let register_ns = t0.elapsed().as_nanos() as f64;
    // Let a pass that started before registration finish before counting.
    heater.wait_passes(2);
    let before = heater.stats();
    let t1 = Instant::now();
    heater.wait_passes(passes);
    let pass_window_ns = t1.elapsed().as_nanos() as f64;
    let after = heater.stats();
    let t2 = Instant::now();
    heater.deregister(id);
    let deregister_ns = t2.elapsed().as_nanos() as f64;
    heater.shutdown();
    let done = (after.passes - before.passes).max(1) as f64;
    HeaterCosts {
        register_ns,
        deregister_ns,
        pass_ns: pass_window_ns / done,
        lines_per_pass: (after.lines_touched - before.lines_touched) as f64 / done,
    }
}
