//! Concurrent decomposition shootout: the single-lock [`SharedEngine`]
//! vs the source-sharded [`ShardedEngine`] (§2.3's multithreaded matching,
//! extended with the source-decomposition the paper's locality argument
//! motivates).
//!
//! Two views:
//!
//! 1. The Table 1 decompositions driven by real poster/sender threads
//!    through both engines — mean search depth, lock acquisitions and the
//!    contention ratio, plus the sharded engine's per-shard breakdown.
//! 2. A synthetic disjoint-source throughput sweep at 1/2/4/8 threads —
//!    the scaling headroom sharding buys when traffic is spread across
//!    sources (each thread owns one source rank, so shard locks never
//!    conflict while the single lock serializes everything).
//!
//! Pass `--small` for a quick smoke run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spc_bench::{print_table, small_flag};
use spc_core::concurrent::SharedEngine;
use spc_core::engine::{Engine, MatchEngine, Op};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use spc_core::list::BaselineList;
use spc_core::shard::ShardedEngine;
use spc_core::stats::LockStats;
use spc_motifs::decomp::{analyze_threaded_sharded, analyze_threaded_shared, Decomp, Stencil};

const SHARDS: usize = 8;
const SEED: u64 = 0xDEC0;

fn shared() -> SharedEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>> {
    SharedEngine::new(MatchEngine::new(BaselineList::new(), BaselineList::new()))
}

fn sharded() -> ShardedEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>> {
    ShardedEngine::new(SHARDS, BaselineList::new, BaselineList::new)
}

fn pct(l: &LockStats) -> String {
    format!("{:.1}%", 100.0 * l.contention_ratio())
}

fn decomposition_table() {
    let rows_cfg = [
        ([8u64, 8, 1], Stencil::S9),
        ([16, 16, 1], Stencil::S9),
        ([32, 32, 1], Stencil::S9),
        ([8, 8, 4], Stencil::S7),
    ];
    let mut rows = Vec::new();
    for (dims, stencil) in rows_cfg {
        let d = Decomp { dims, stencil };
        for (mode, r) in [
            ("shared", analyze_threaded_shared(d, SEED)),
            ("sharded", analyze_threaded_sharded(d, SHARDS, SEED)),
        ] {
            let deepest = r
                .concurrency
                .shards
                .iter()
                .map(|s| s.max_prq_len)
                .max()
                .unwrap_or(0);
            rows.push(vec![
                d.label(),
                d.stencil.label().to_owned(),
                mode.to_owned(),
                format!("{:.2}", r.mean_search_depth),
                r.lock.acquisitions.to_string(),
                r.lock.contended.to_string(),
                pct(&r.lock),
                deepest.to_string(),
                r.concurrency.wild_crossings.to_string(),
            ]);
        }
    }
    print_table(
        "Decomposition runs: single-lock vs source-sharded engine",
        &[
            "Decomp.", "Stencil", "Engine", "Depth", "Acq", "Cont", "Cont%", "MaxPRQ", "WildX",
        ],
        &rows,
    );
}

/// One thread per source rank, each posting and immediately matching its
/// own messages: the all-shards-busy, zero-cross-traffic regime. Returns
/// ops/sec (posts + arrivals).
fn throughput<H>(eng: H, threads: usize, per_thread: u64) -> f64
where
    H: Engine<Stamp = u64> + Copy + Send,
{
    let go = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let go = &go;
            let mut eng = eng;
            scope.spawn(move || {
                go.fetch_add(1, Ordering::AcqRel);
                while (go.load(Ordering::Acquire) as usize) < threads {
                    std::hint::spin_loop();
                }
                let rank = t as i32;
                for i in 0..per_thread {
                    let tag = i as i32;
                    eng.apply(Op::PostRecv {
                        spec: RecvSpec::new(rank, tag, 0),
                        request: i,
                    });
                    eng.apply(Op::Arrival {
                        env: Envelope::new(rank, tag, 0),
                        payload: i,
                    });
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as u64 * per_thread * 2) as f64 / secs
}

fn throughput_table(per_thread: u64) {
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let sh = shared();
        let shared_ops = throughput(&sh, threads, per_thread);
        let shared_lock = sh.lock_stats();

        let sd = sharded();
        let sharded_ops = throughput(&sd, threads, per_thread);
        let sharded_lock = sd.lock_stats();

        rows.push(vec![
            threads.to_string(),
            format!("{:.2}", shared_ops / 1e6),
            pct(&shared_lock),
            format!("{:.2}", sharded_ops / 1e6),
            pct(&sharded_lock),
            format!("{:.2}x", sharded_ops / shared_ops),
        ]);
    }
    print_table(
        &format!("Disjoint-source throughput, {per_thread} post+match pairs/thread"),
        &[
            "Threads",
            "Shared Mop/s",
            "Cont%",
            "Sharded Mop/s",
            "Cont%",
            "Speedup",
        ],
        &rows,
    );
}

fn main() {
    decomposition_table();
    let per_thread = if small_flag() { 20_000 } else { 200_000 };
    throughput_table(per_thread);
    println!(
        "\nnote: speedups need real cores; on a single hardware thread the\n\
         sharded engine shows its win as the contention column, not ops/s."
    );
}
