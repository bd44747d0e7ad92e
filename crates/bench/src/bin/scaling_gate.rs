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
//! * `sharded` — per-source shards with lock-free probes and stats;
//! * `batched` — sharded plus per-producer ingest rings, one lock
//!   acquisition per drained batch.
//!
//! The write mix keeps sources overlapping across threads (8 sources, 32
//! keys, every thread on all of them), so shard locks genuinely collide
//! and receives match messages from any thread; a write cell whose
//! matches fall below 40 % of its arrivals fails the gate, because a mix
//! that stops matching measures queue growth. The read mix pre-seeds
//! unexpected messages and probes them from every thread with a trickle
//! of matched write pairs to keep the seqlock retry path honest; its cells
//! must meet the same 40 % floor on those pairs.
//!
//! Usage: `scaling_gate [--quick] [--out <path>]` (also `--json`;
//! default `BENCH_concurrency.json`). `--quick` caps the sweep at 8
//! threads for CI smoke runs and marks the JSON `"quick": true`.

use std::time::Instant;

use criterion::report::{self, Record};
use spc_core::concurrent::SharedEngine;
use spc_core::engine::{Engine, MatchEngine, Op};
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

/// The engine under a gate cell. Workers drive it through
/// [`Engine::apply`]; the rest is what attributes the cell's timing.
enum Subject {
    Shared(SharedEngine<Prq, Umq>),
    Sharded(ShardedEngine<Prq, Umq>),
    Batched(BatchedEngine<Prq, Umq>),
}

impl Subject {
    fn new(kind: &str, producers: usize) -> Self {
        match kind {
            "shared" => {
                Subject::Shared(SharedEngine::new(MatchEngine::new(Lla::new(), Lla::new())))
            }
            "sharded" => Subject::Sharded(ShardedEngine::new(SHARDS, Lla::new, Lla::new)),
            "batched" => Subject::Batched(BatchedEngine::new(
                SHARDS,
                producers,
                BATCH,
                Lla::new,
                Lla::new,
            )),
            other => panic!("unknown engine kind {other}"),
        }
    }

    /// Thread `t`'s handle (the batched engine routes each thread through
    /// its own ring producer).
    fn client(&self, t: usize) -> Box<dyn Engine<Stamp = u64> + Send + '_> {
        match self {
            Subject::Shared(e) => Box::new(e),
            Subject::Sharded(e) => Box::new(e),
            Subject::Batched(e) => Box::new(e.producer(t)),
        }
    }

    /// Quiescent-point barrier after the workers join (ring drain).
    fn finish(&self) {
        if let Subject::Batched(e) = self {
            e.flush_all();
        }
    }

    fn stats(&self) -> EngineStats {
        self.client(0).stats()
    }

    fn lock_stats(&self) -> LockStats {
        let conc = self.stats().concurrency;
        conc.expect("concurrent engines report their locks")
            .total_lock()
    }

    /// Seqlock interference: snapshot retries plus locked fallbacks, when
    /// the engine has lock-free read paths.
    fn snap_interference(&self) -> Option<u64> {
        let s = match self {
            Subject::Shared(_) => return None,
            Subject::Sharded(e) => e.snap_read_stats(),
            Subject::Batched(e) => e.inner().snap_read_stats(),
        };
        Some(s.probe_retries + s.probe_fallbacks + s.prescan_fallbacks)
    }

    fn batch(&self) -> u64 {
        match self {
            Subject::Batched(_) => BATCH as u64,
            _ => 0,
        }
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
fn run_worker(eng: &mut dyn Engine<Stamp = u64>, mix: Mix, t: usize, n: usize) {
    let id = |c: usize| ((t as u64) << 32) | c as u64;
    let post = |src, tag, i| Op::PostRecv {
        spec: RecvSpec::new(src, tag, 0),
        request: id(i),
    };
    let arrive = |src, tag, i| Op::Arrival {
        env: Envelope::new(src, tag, 0),
        payload: id(i),
    };
    for i in 0..n {
        let op = match mix {
            // Posts and arrivals in equal measure on overlapping sources:
            // cross-thread matches are common and every op wants a shard
            // lock (or a ring slot). Both halves of a pair carry the key
            // of `i / 2` — keyed on `i` itself, posts would only ever see
            // even keys and arrivals odd ones, and nothing would match.
            Mix::Write => {
                let key = (i / 2) as i32;
                let (src, tag) = (key % SRC_OVERLAP, key % 32);
                if i % 2 == 0 {
                    post(src, tag, i)
                } else {
                    arrive(src, tag, i)
                }
            }
            // 80 % probes against the pre-seeded unexpected messages,
            // with a trickle of matched write pairs so snapshot readers
            // really do race writers. Both halves of a pair carry the
            // source of `i / 10`, for the reason above.
            Mix::Read => {
                let pair_src = (i / 10) as i32 % SRC_OVERLAP;
                match i % 10 {
                    8 => arrive(pair_src, 40, i),
                    9 => post(pair_src, 40, i),
                    // Probe a tag that never matches: full-depth scan.
                    _ => Op::Iprobe {
                        spec: RecvSpec::new(i as i32 % SRC_OVERLAP, 99, 0),
                    },
                }
            }
        };
        eng.apply(op);
    }
}

fn run_cell(eng: &Subject, engine: &str, mix: Mix, threads: usize, total: usize) -> Record {
    if mix == Mix::Read {
        // Resident unexpected messages for the probes to scan past.
        let mut seeder = eng.client(0);
        for i in 0..64u64 {
            seeder.apply(Op::Arrival {
                env: Envelope::new((i as i32) % SRC_OVERLAP, 7, 1),
                payload: 1 << 48 | i,
            });
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
            s.spawn(move || run_worker(eng.client(t).as_mut(), mix, t, per_thread));
        }
    });
    eng.finish();
    let elapsed = start.elapsed();
    let after = eng.lock_stats();
    // Every thread sends as many messages as it posts receives, on keys
    // all threads share (write) or its own (read), so at quiescence nearly
    // all of them have met; far fewer means the mix has stopped matching
    // and the cell measures queue growth.
    let arrivals_per_thread = match mix {
        Mix::Write => per_thread / 2,
        Mix::Read => (0..per_thread).filter(|i| i % 10 == 8).count(),
    };
    let arrivals = (arrivals_per_thread * threads) as u64;
    let stats = eng.stats();
    let hits = stats.prq_hits + stats.umq_hits;
    assert!(
        hits * 10 >= arrivals * 4,
        "conc/{}/{engine}/t{threads}: only {hits} matches for {arrivals} arrivals — \
         the mix must match, not grow queues",
        mix.label()
    );
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
    let engines = ["shared", "sharded", "batched"];

    let mut records = Vec::new();
    for &mix in &[Mix::Write, Mix::Read] {
        for &engine in &engines {
            for &t in threads {
                let eng = Subject::new(engine, t);
                let r = run_cell(&eng, engine, mix, t, total);
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
