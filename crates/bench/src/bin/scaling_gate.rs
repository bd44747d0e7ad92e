//! Concurrent scaling gate: sweeps worker thread counts across the
//! thread-safe engine variants and both workload mixes, writing one
//! `spc-bench/1` record per cell to a tracked JSON.
//!
//! The matrix answers the scaling question the sharded-engine work left
//! open: past a handful of threads, per-operation lock acquisitions —
//! not matching work — dominate, so the gate measures every variant on
//! the same op streams and attributes the differences with lock and
//! seqlock-retry columns:
//!
//! * `shared` — one mutex around the whole engine (the floor);
//! * `sharded-locked` — per-source shards, all reads through locks
//!   (`set_locked_reads`, the pre-seqlock behaviour);
//! * `sharded` — per-source shards with lock-free probes and stats;
//! * `batched` — sharded plus per-producer ingest rings, one lock
//!   acquisition per drained batch.
//!
//! The write mix keeps sources overlapping across threads (8 sources, 32
//! keys, every thread on all of them), so shard locks genuinely collide
//! and receives match messages from any thread; a write cell whose
//! matches fall below 40 % of its arrivals fails the gate, because a mix
//! that stops matching measures queue growth. The read mix pre-seeds unexpected
//! messages and probes them from every thread with a trickle of writer
//! traffic to keep the seqlock retry path honest.
//!
//! Usage: `scaling_gate [--quick] [--out <path>]` (also `--json`;
//! default `BENCH_concurrency.json`). `--quick` caps the sweep at 8
//! threads for CI smoke runs and marks the JSON `"quick": true`.

use std::time::Instant;

use criterion::report::{self, Record};
use spc_core::concurrent::SharedEngine;
use spc_core::engine::MatchEngine;
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use spc_core::ingest::BatchedEngine;
use spc_core::list::Lla;
use spc_core::shard::ShardedEngine;
use spc_core::stats::{EngineStats, LockStats};

const SHARDS: usize = 8;
const BATCH: usize = 64;
/// Overlapping source window: every thread posts and delivers on ranks
/// `0..SRC_OVERLAP`, so shard locks collide across all workers.
const SRC_OVERLAP: i32 = 8;

type Prq = Lla<PostedEntry, 2>;
type Umq = Lla<UnexpectedEntry, 3>;

/// The surface a gate cell drives: thread-indexed ops (the batched
/// engine routes each thread through its own ring producer) plus the
/// counters that attribute the cell's timing.
trait GateEngine: Sync {
    fn post(&self, thread: usize, spec: RecvSpec, req: u64);
    fn arrive(&self, thread: usize, env: Envelope, payload: u64);
    fn probe(&self, thread: usize, spec: RecvSpec) -> Option<(u64, u32)>;
    /// Quiescent-point barrier after the workers join (ring drain).
    fn finish(&self) {}
    fn lock_stats(&self) -> LockStats;
    fn stats(&self) -> EngineStats;
    /// Seqlock interference: snapshot retries plus locked fallbacks, when
    /// the engine has lock-free read paths.
    fn snap_interference(&self) -> Option<u64> {
        None
    }
    fn batch(&self) -> u64 {
        0
    }
}

struct Shared(SharedEngine<Prq, Umq>);

impl GateEngine for Shared {
    fn post(&self, _t: usize, spec: RecvSpec, req: u64) {
        self.0.post_recv(spec, req);
    }
    fn arrive(&self, _t: usize, env: Envelope, payload: u64) {
        self.0.arrival(env, payload);
    }
    fn probe(&self, _t: usize, spec: RecvSpec) -> Option<(u64, u32)> {
        self.0.iprobe(spec)
    }
    fn lock_stats(&self) -> LockStats {
        self.0.lock_stats()
    }
    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
}

struct Sharded(ShardedEngine<Prq, Umq>);

impl GateEngine for Sharded {
    fn post(&self, _t: usize, spec: RecvSpec, req: u64) {
        self.0.post_recv(spec, req);
    }
    fn arrive(&self, _t: usize, env: Envelope, payload: u64) {
        self.0.arrival(env, payload);
    }
    fn probe(&self, _t: usize, spec: RecvSpec) -> Option<(u64, u32)> {
        self.0.iprobe(spec)
    }
    fn lock_stats(&self) -> LockStats {
        self.0.lock_stats()
    }
    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
    fn snap_interference(&self) -> Option<u64> {
        let s = self.0.snap_read_stats();
        Some(s.probe_retries + s.probe_fallbacks + s.prescan_fallbacks)
    }
}

struct Batched(BatchedEngine<Prq, Umq>);

impl GateEngine for Batched {
    fn post(&self, t: usize, spec: RecvSpec, req: u64) {
        self.0.producer(t).post_recv(spec, req);
    }
    fn arrive(&self, t: usize, env: Envelope, payload: u64) {
        self.0.producer(t).arrival(env, payload);
    }
    fn probe(&self, t: usize, spec: RecvSpec) -> Option<(u64, u32)> {
        self.0.producer(t).iprobe_seq(spec).1
    }
    fn finish(&self) {
        self.0.flush_all();
    }
    fn lock_stats(&self) -> LockStats {
        self.0.lock_stats()
    }
    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
    fn snap_interference(&self) -> Option<u64> {
        let s = self.0.inner().snap_read_stats();
        Some(s.probe_retries + s.probe_fallbacks + s.prescan_fallbacks)
    }
    fn batch(&self) -> u64 {
        BATCH as u64
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Write,
    Read,
}

impl Mix {
    fn label(self) -> &'static str {
        match self {
            Mix::Write => "write",
            Mix::Read => "read",
        }
    }
}

/// One worker's slice of a cell: `n` ops from thread `t`, handles drawn
/// from the thread's id space.
fn run_worker<E: GateEngine + ?Sized>(eng: &E, mix: Mix, t: usize, n: usize) {
    let id = |c: usize| ((t as u64) << 32) | c as u64;
    match mix {
        // Posts and arrivals in equal measure on overlapping sources:
        // cross-thread matches are common and every op wants a shard
        // lock (or a ring slot). Both halves of a pair carry the key of
        // `i / 2` — keyed on `i` itself, posts would only ever see even
        // keys and arrivals odd ones, and nothing would match.
        Mix::Write => {
            for i in 0..n {
                let key = (i / 2) as i32;
                let src = key % SRC_OVERLAP;
                let tag = key % 32;
                if i % 2 == 0 {
                    eng.post(t, RecvSpec::new(src, tag, 0), id(i));
                } else {
                    eng.arrive(t, Envelope::new(src, tag, 0), id(i));
                }
            }
        }
        // ~90 % probes against the pre-seeded unexpected messages, with
        // a trickle of matched write pairs so snapshot readers really do
        // race writers.
        Mix::Read => {
            for i in 0..n {
                let src = (i as i32) % SRC_OVERLAP;
                if i % 10 == 8 {
                    eng.arrive(t, Envelope::new(src, 40, 0), id(i));
                } else if i % 10 == 9 {
                    eng.post(t, RecvSpec::new(src, 40, 0), id(i));
                } else {
                    // Probe a tag that never matches: full-depth scan.
                    eng.probe(t, RecvSpec::new(src, 99, 0));
                }
            }
        }
    }
}

fn run_cell<E: GateEngine + ?Sized>(
    eng: &E,
    engine: &str,
    mix: Mix,
    threads: usize,
    total: usize,
) -> Record {
    if mix == Mix::Read {
        // Resident unexpected messages for the probes to scan past.
        for i in 0..64u64 {
            eng.arrive(
                0,
                Envelope::new((i as i32) % SRC_OVERLAP, 7, 1),
                1 << 48 | i,
            );
        }
        eng.finish();
    }
    let per_thread = total.div_ceil(threads);
    let ops = per_thread * threads;
    let before = eng.lock_stats();
    let snap_before = eng.snap_interference().unwrap_or(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || run_worker(eng, mix, t, per_thread));
        }
    });
    eng.finish();
    let elapsed = start.elapsed();
    let after = eng.lock_stats();
    if mix == Mix::Write {
        // Every thread sends as many messages as it posts receives, on
        // keys all threads share, so at quiescence nearly all of them
        // have met; far fewer means the mix has stopped matching.
        let arrivals = (per_thread / 2 * threads) as u64;
        let stats = eng.stats();
        let hits = stats.prq_hits + stats.umq_hits;
        assert!(
            hits * 10 >= arrivals * 4,
            "conc/write/{engine}/t{threads}: only {hits} matches for {arrivals} arrivals — \
             the write mix must match, not grow queues"
        );
    }
    let acq = after.acquisitions - before.acquisitions;
    let contended = after.contended - before.contended;
    let ns_per_op = elapsed.as_nanos() as f64 / ops as f64;
    Record {
        name: format!("conc/{}/{engine}/t{threads}", mix.label()),
        ns_per_op,
        structure: Some("lla2".into()),
        threads: Some(threads as u64),
        engine: Some(engine.into()),
        mix: Some(mix.label().into()),
        batch: Some(eng.batch()),
        ops_per_sec: Some(ops as f64 / elapsed.as_secs_f64()),
        lock_acq_per_op: Some(acq as f64 / ops as f64),
        contended_pct: Some(if acq == 0 {
            0.0
        } else {
            100.0 * contended as f64 / acq as f64
        }),
        retry_pct: eng
            .snap_interference()
            .map(|r| 100.0 * (r - snap_before) as f64 / ops as f64),
        ..Record::default()
    }
}

fn mk_engine(kind: &str, producers: usize) -> Box<dyn GateEngine> {
    match kind {
        "shared" => Box::new(Shared(SharedEngine::new(MatchEngine::new(
            Lla::new(),
            Lla::new(),
        )))),
        "sharded-locked" => {
            let eng = ShardedEngine::new(SHARDS, Lla::new, Lla::new);
            eng.set_locked_reads(true);
            Box::new(Sharded(eng))
        }
        "sharded" => Box::new(Sharded(ShardedEngine::new(SHARDS, Lla::new, Lla::new))),
        "batched" => Box::new(Batched(BatchedEngine::new(
            SHARDS,
            producers,
            BATCH,
            Lla::new,
            Lla::new,
        ))),
        other => panic!("unknown engine kind {other}"),
    }
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_concurrency.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--json" => out = args.next().expect("missing path after --out"),
            other => panic!("unknown argument {other} (expected --quick / --out <path>)"),
        }
    }

    let threads: &[usize] = if quick {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let total = if quick { 40_000 } else { 200_000 };
    let engines = ["shared", "sharded-locked", "sharded", "batched"];

    let mut records = Vec::new();
    for &mix in &[Mix::Write, Mix::Read] {
        for &engine in &engines {
            for &t in threads {
                let eng = mk_engine(engine, t);
                let r = run_cell(eng.as_ref(), engine, mix, t, total);
                println!(
                    "conc: {:<28} {:>9.1} ns/op  {:>6.3} locks/op  {:>5.1}% contended",
                    r.name,
                    r.ns_per_op,
                    r.lock_acq_per_op.unwrap_or(0.0),
                    r.contended_pct.unwrap_or(0.0),
                );
                records.push(r);
            }
        }
    }

    // The gate's headline: at high thread counts on the write mix the
    // batched engine must beat the plain sharded engine by amortizing
    // its lock traffic.
    println!("\nconc: batched vs sharded, write mix:");
    for &t in threads {
        let find = |engine: &str| {
            records
                .iter()
                .find(|r| r.name == format!("conc/write/{engine}/t{t}"))
                .expect("cell missing")
        };
        let (plain, batched) = (find("sharded"), find("batched"));
        println!(
            "conc:   t{t:<3} {:>9.1} -> {:>9.1} ns/op  ({:.2}x)  locks/op {:>6.3} -> {:>6.3}",
            plain.ns_per_op,
            batched.ns_per_op,
            plain.ns_per_op / batched.ns_per_op,
            plain.lock_acq_per_op.unwrap_or(0.0),
            batched.lock_acq_per_op.unwrap_or(0.0),
        );
    }

    report::write_json(std::path::Path::new(&out), &records, quick)
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("conc: wrote {} records to {out}", records.len());

    // Sanity floor rather than a hard perf assertion (CI runs --quick on
    // shared runners): lock amortization must at least show up in the
    // counted acquisitions at the largest sweep point.
    let t = threads.last().unwrap();
    let locks = |engine: &str| {
        records
            .iter()
            .find(|r| r.name == format!("conc/write/{engine}/t{t}"))
            .and_then(|r| r.lock_acq_per_op)
            .unwrap_or(f64::MAX)
    };
    assert!(
        locks("batched") * 4.0 < locks("sharded"),
        "batched engine failed to amortize lock acquisitions (t{t}: {} vs {})",
        locks("batched"),
        locks("sharded"),
    );
}
