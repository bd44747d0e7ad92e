//! Concurrent differential conformance: every list structure, behind both
//! thread-safe engines, survives racing op streams at 2/4/8 threads —
//! verified by replaying each run's seq-stamped linearization through the
//! Vec-backed oracle.
//!
//! Plus the harness-sensitivity half: the injected sharded-engine
//! adversary (wildcard epoch check disabled) is caught by the same
//! machinery, and the deterministic lockstep driver shrinks it to a
//! paste-able handful of ops.

use spc_conformance::concurrent::{
    conc_ops, conc_ops_tagged_wild, run_and_verify, run_and_verify_batched, stress_multiplier,
    ConcOp,
};
use spc_conformance::{
    diff_engine, engine_ops_wild_bursts, interleavings, render_ops, run_stepped, shrink_ops,
    verify_log, DepthMode,
};
use spc_core::concurrent::SharedEngine;
use spc_core::engine::{Engine, MatchEngine};
use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, SourceBins};
use spc_core::shard::ShardedEngine;

const RANKS: usize = spc_conformance::ops::RANKS as usize;
const SHARDS: usize = 4;
const SEED: u64 = 0xC0C0_11C5;

/// ≥10,000 ops at every thread count (scaled up by `SPC_CONC_OPS_MULT`
/// in CI's stress job).
fn total_ops() -> usize {
    10_000 * stress_multiplier()
}

/// A stream generator: `(seed, threads, ops per thread)` to one op
/// stream per thread ([`conc_ops`] or [`conc_ops_tagged_wild`]).
type Mix = fn(u64, usize, usize) -> Vec<Vec<ConcOp>>;

/// Runs a fresh engine from `mk` against racing streams at 2, 4 and 8
/// threads and verifies each linearization against the oracle.
fn check_conc<E>(label: &str, mk: impl Fn() -> E, mix: Mix, seed: u64)
where
    E: Sync,
    for<'e> &'e E: Engine<Stamp = u64>,
{
    for threads in [2usize, 4, 8] {
        let per_thread = total_ops().div_ceil(threads);
        let streams = mix(seed ^ (threads as u64), threads, per_thread);
        let eng = mk();
        if let Err(e) = run_and_verify(&eng, &streams) {
            panic!("{label} @ {threads} threads: {e}");
        }
    }
}

/// Races producer streams through a batched engine's ingest rings at 2,
/// 4 and 8 threads, verifying the merged direct-plus-drain-log
/// linearization against the oracle (exactly-once accounting of in-ring
/// entries included — see `run_concurrent_batched`).
fn check_batched<P, U>(
    label: &str,
    mk_p: impl Fn() -> P + Copy,
    mk_u: impl Fn() -> U + Copy,
    mix: Mix,
    seed: u64,
) where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    const BATCH: usize = 16;
    for threads in [2usize, 4, 8] {
        let per_thread = total_ops().div_ceil(threads);
        let streams = mix(seed ^ (threads as u64), threads, per_thread);
        if let Err(e) = run_and_verify_batched(&streams, SHARDS, BATCH, mk_p, mk_u) {
            panic!("batched/{label} @ {threads} threads: {e}");
        }
    }
}

/// All three engines over one structure family, on streams from `mix`.
fn check_both<P, U>(
    label: &str,
    mk_p: impl Fn() -> P + Copy,
    mk_u: impl Fn() -> U + Copy,
    mix: Mix,
    seed: u64,
) where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    check_conc(
        &format!("shared/{label}"),
        || SharedEngine::new(MatchEngine::new(mk_p(), mk_u())),
        mix,
        seed,
    );
    check_conc(
        &format!("sharded/{label}"),
        || ShardedEngine::new(SHARDS, mk_p, mk_u),
        mix,
        seed ^ 0x5A5A,
    );
    check_batched(label, mk_p, mk_u, mix, seed ^ 0xB47C);
}

#[test]
fn baseline_concurrent_conformance() {
    check_both(
        "baseline",
        BaselineList::<PostedEntry>::new,
        BaselineList::<UnexpectedEntry>::new,
        conc_ops,
        SEED,
    );
}

#[test]
fn lla_concurrent_conformance() {
    check_both(
        "lla-2",
        Lla::<PostedEntry, 2>::new,
        Lla::<UnexpectedEntry, 3>::new,
        conc_ops,
        SEED.wrapping_add(1),
    );
}

#[test]
fn source_bins_concurrent_conformance() {
    check_both(
        "source-bins",
        || SourceBins::new(RANKS),
        || SourceBins::new(RANKS),
        conc_ops,
        SEED.wrapping_add(2),
    );
}

#[test]
fn hash_bins_concurrent_conformance() {
    check_both(
        "hash-bins",
        || HashBins::with_bins(4),
        || HashBins::with_bins(4),
        conc_ops,
        SEED.wrapping_add(3),
    );
}

#[test]
fn rank_trie_concurrent_conformance() {
    check_both(
        "rank-trie",
        || RankTrie::new(RANKS),
        || RankTrie::new(RANKS),
        conc_ops,
        SEED.wrapping_add(4),
    );
}

/// The tagged-wildcard mix — many distinct `MPI_ANY_SOURCE` tags, some
/// `MPI_ANY_TAG`, cancels pulling parked wildcards back out — through all
/// three engines: the sharded engine's arrivals consult a tag-keyed
/// occupancy filter before crossing into the wildcard lane, and this is
/// the traffic on which a filter that ever read stale-low would hand a
/// message to a newer receive (or queue it past a parked one).
#[test]
fn tagged_wildcard_concurrent_conformance() {
    check_both(
        "tagged-wild/lla-2",
        Lla::<PostedEntry, 2>::new,
        Lla::<UnexpectedEntry, 3>::new,
        conc_ops_tagged_wild,
        SEED.wrapping_add(5),
    );
}

/// Entries still sitting in the ingest rings when the producer threads
/// join are neither lost nor double-applied: the accounting sees them in
/// flight, the final flush linearizes each exactly once, and the drain
/// log covers all of them.
#[test]
fn entries_in_flight_at_join_are_accounted_exactly_once() {
    use spc_core::entry::{Envelope, RecvSpec};
    use spc_core::ingest::{BatchedEngine, IngestOp};

    let eng = BatchedEngine::<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>::new(
        SHARDS,
        2,
        64,
        Lla::new,
        Lla::new,
    )
    .with_drain_log();
    std::thread::scope(|s| {
        for t in 0..2usize {
            let eng = &eng;
            s.spawn(move || {
                let p = eng.producer(t);
                for i in 0..5u64 {
                    let id = ((t as u64) << 32) | i;
                    p.post_recv(RecvSpec::new((i % 3) as i32, i as i32, 0), id);
                    p.arrival(Envelope::new((i % 3) as i32, i as i32, 0), id | 1 << 16);
                }
            });
        }
    });
    // Far fewer ops than the 64-slot batch and no probes: every op is
    // still in flight at the join.
    assert_eq!(eng.pending(), 20, "all ops should still be buffered");
    assert_eq!((eng.enqueued(), eng.drained()), (20, 0));
    assert_eq!(eng.queue_lens(), (0, 0), "nothing linearized yet");
    assert_eq!(eng.flush_all(), 20);
    assert_eq!((eng.pending(), eng.enqueued(), eng.drained()), (0, 20, 20));

    let log = eng.take_drain_log();
    assert_eq!(log.len(), 20, "drain log must cover every buffered op");
    let mut posts = std::collections::HashSet::new();
    let mut arrivals = std::collections::HashSet::new();
    for r in &log {
        match r.op {
            IngestOp::Post { request, .. } => assert!(posts.insert(request)),
            IngestOp::Arrive { payload, .. } => assert!(arrivals.insert(payload)),
        }
    }
    assert_eq!((posts.len(), arrivals.len()), (10, 10));
    // Per-producer FIFO drain: each arrival finds the post buffered
    // before it, so the queues fully pair off.
    assert_eq!(eng.queue_lens(), (0, 0));
    assert_eq!(eng.stats().prq_hits, 10);
    #[cfg(feature = "debug_invariants")]
    eng.validate().unwrap();
}

fn adversary() -> ShardedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>> {
    ShardedEngine::with_wildcard_check_disabled(SHARDS, Lla::new, Lla::new)
}

/// The two-thread scenario whose ordering decides the wildcard race:
/// thread 0 posts an `MPI_ANY_SOURCE`/`MPI_ANY_TAG` receive; thread 1
/// posts a concrete receive and then delivers a message matching both.
fn wildcard_race_streams() -> Vec<Vec<ConcOp>> {
    vec![
        vec![ConcOp::Post {
            rank: None,
            tag: None,
            ctx: 0,
        }],
        vec![
            ConcOp::Post {
                rank: Some(6),
                tag: Some(3),
                ctx: 0,
            },
            ConcOp::Arrive {
                rank: 6,
                tag: 3,
                ctx: 0,
            },
        ],
    ]
}

/// The injected adversary — a sharded engine whose arrivals skip the
/// wildcard seq comparison — is convicted *deterministically* by the
/// interleaving scheduler: pin the op order so the wildcard receive
/// linearizes before the concrete one, and the adversary's arrival hands
/// the message to the newer concrete receive, a linearization the oracle
/// rejects on every run (no free-running race to hope for, no retries).
/// The scenario's other interleavings are exercised too: when the
/// concrete receive is older, matching it shard-locally is correct, so
/// those orders must pass even on the broken engine.
#[test]
fn interleaving_scheduler_convicts_the_wildcard_adversary() {
    let streams = wildcard_race_streams();
    let mut convictions = 0;
    for schedule in interleavings(&[1, 2]) {
        let eng = adversary();
        let log = run_stepped(&eng, &streams, &schedule);
        match verify_log(&log, eng.queue_lens()) {
            Ok(()) => {}
            Err(err) => {
                assert!(
                    err.contains("oracle"),
                    "conviction must be an oracle disagreement: {err}"
                );
                assert_eq!(
                    schedule,
                    vec![0, 1, 1],
                    "only the wildcard-first order exposes the skipped check"
                );
                convictions += 1;
            }
        }
    }
    assert_eq!(
        convictions, 1,
        "the wildcard-first schedule must convict on every run"
    );
}

/// The same bug, caught deterministically by the lockstep driver and
/// shrunk to a paste-able repro. The minimal shape is three ops: post a
/// wildcard receive, post a concrete receive, deliver a message both
/// match — the adversary hands it to the (newer) concrete receive.
#[test]
fn wildcard_adversary_is_shrunk_to_a_pasteable_repro() {
    let ops = engine_ops_wild_bursts(SEED.wrapping_add(51), 10_000);
    let err = diff_engine(&mut &adversary(), DepthMode::Bounded, &ops)
        .expect_err("wildcard bursts must expose the disabled epoch check");
    assert!(
        err.detail.contains("matched"),
        "divergence should be a wrong-match disagreement: {err}"
    );

    let fails = |s: &[spc_conformance::EngineOp]| {
        diff_engine(&mut &adversary(), DepthMode::Bounded, s).is_err()
    };
    let min = shrink_ops(&ops, fails);
    assert!(fails(&min), "minimized stream must still fail");
    assert!(
        min.len() <= 4,
        "expected a near-minimal repro, got {} ops:\n{}",
        min.len(),
        render_ops("EngineOp", &min)
    );
    let repro = render_ops("EngineOp", &min);
    assert!(repro.starts_with("let ops = vec![\n"), "{repro}");
    assert!(
        repro.contains("EngineOp::PostRecv { rank: None"),
        "repro must involve a wildcard receive:\n{repro}"
    );
}

/// Sanity check on the harness itself: the *correct* sharded engine
/// passes every interleaving of the conviction scenario (the wildcard
/// seq comparison resolves the race the way the oracle demands) and a
/// free-running wildcard-heavy stream.
#[test]
fn correct_sharded_engine_passes_the_adversary_scenario() {
    let mk = || -> ShardedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>> {
        ShardedEngine::new(SHARDS, Lla::new, Lla::new)
    };
    let streams = wildcard_race_streams();
    for schedule in interleavings(&[1, 2]) {
        let eng = mk();
        let log = run_stepped(&eng, &streams, &schedule);
        verify_log(&log, eng.queue_lens()).unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
    }
    run_and_verify(&mk(), &conc_ops(SEED.wrapping_add(50), 4, 2_500)).unwrap();
}
