//! The conformance run: every match-list structure and every engine
//! configuration replays ≥10,000 randomized operations against the
//! Vec-backed oracle under fixed seeds.
//!
//! On failure, the assertion message contains a shrunk, paste-able repro
//! (see `fail()` below), not the 10,000-op haystack.

use spc_conformance::{
    diff_dyn_engine, diff_engine, diff_posted, diff_umq, engine_ops, engine_ops_wild_bursts,
    posted_ops, render_ops, shrink_ops, umq_ops, DepthMode, EngineOp,
};
use spc_core::dynengine::EngineKind;
use spc_core::engine::MatchEngine;
use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, SourceBins};
use spc_core::shard::ShardedEngine;

/// Ops per structure per stream; two streams (posted + umq) at the list
/// level and one engine stream per kind, so every structure pair sees
/// well over the 10,000-op floor.
const N_OPS: usize = 10_000;
const SEED: u64 = 0x5EED_C04F;

fn check_posted<L: spc_core::list::MatchList<PostedEntry>>(
    mk: impl Fn() -> L,
    mode: DepthMode,
    seed: u64,
) {
    let ops = posted_ops(seed, N_OPS);
    if let Err(e) = diff_posted(&mut mk(), mode, &ops) {
        let min = shrink_ops(&ops, |s| diff_posted(&mut mk(), mode, s).is_err());
        panic!(
            "conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            min.len(),
            render_ops("PostedOp", &min)
        );
    }
}

fn check_umq<L: spc_core::list::MatchList<UnexpectedEntry>>(
    mk: impl Fn() -> L,
    mode: DepthMode,
    seed: u64,
) {
    let ops = umq_ops(seed, N_OPS);
    if let Err(e) = diff_umq(&mut mk(), mode, &ops) {
        let min = shrink_ops(&ops, |s| diff_umq(&mut mk(), mode, s).is_err());
        panic!(
            "conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            min.len(),
            render_ops("UmqOp", &min)
        );
    }
}

#[test]
fn baseline_conforms() {
    check_posted(BaselineList::<PostedEntry>::new, DepthMode::Exact, SEED);
    check_umq(
        BaselineList::<UnexpectedEntry>::new,
        DepthMode::Exact,
        SEED ^ 1,
    );
}

#[test]
fn lla2_conforms() {
    check_posted(
        Lla::<PostedEntry, 2>::new,
        DepthMode::Exact,
        SEED.wrapping_add(2),
    );
    check_umq(
        Lla::<UnexpectedEntry, 3>::new,
        DepthMode::Exact,
        SEED.wrapping_add(3),
    );
}

#[test]
fn lla8_conforms() {
    check_posted(
        Lla::<PostedEntry, 8>::new,
        DepthMode::Exact,
        SEED.wrapping_add(8),
    );
    check_umq(
        Lla::<UnexpectedEntry, 12>::new,
        DepthMode::Exact,
        SEED.wrapping_add(9),
    );
}

#[test]
fn lla512_conforms() {
    check_posted(
        Lla::<PostedEntry, 512>::new,
        DepthMode::Exact,
        SEED.wrapping_add(512),
    );
    check_umq(
        Lla::<UnexpectedEntry, 768>::new,
        DepthMode::Exact,
        SEED.wrapping_add(513),
    );
}

#[test]
fn source_bins_conforms() {
    check_posted(
        || SourceBins::<PostedEntry>::new(spc_conformance::ops::RANKS as usize),
        DepthMode::Bounded,
        SEED.wrapping_add(20),
    );
    check_umq(
        || SourceBins::<UnexpectedEntry>::new(spc_conformance::ops::RANKS as usize),
        DepthMode::Bounded,
        SEED.wrapping_add(21),
    );
}

#[test]
fn hash_bins_conforms() {
    // Few bins on purpose: force collisions and the merge path.
    check_posted(
        || HashBins::<PostedEntry>::with_bins(4),
        DepthMode::Bounded,
        SEED.wrapping_add(30),
    );
    check_umq(
        || HashBins::<UnexpectedEntry>::with_bins(4),
        DepthMode::Bounded,
        SEED.wrapping_add(31),
    );
}

#[test]
fn rank_trie_conforms() {
    check_posted(
        || RankTrie::<PostedEntry>::new(spc_conformance::ops::RANKS as usize),
        DepthMode::Bounded,
        SEED.wrapping_add(40),
    );
    check_umq(
        || RankTrie::<UnexpectedEntry>::new(spc_conformance::ops::RANKS as usize),
        DepthMode::Bounded,
        SEED.wrapping_add(41),
    );
}

/// Engine-level conformance for every runtime-selectable configuration,
/// including the `DynEngine` dispatch layer itself.
#[test]
fn dyn_engines_conform() {
    let kinds = [
        (EngineKind::Baseline, DepthMode::Exact),
        (EngineKind::Lla { arity: 2 }, DepthMode::Exact),
        (EngineKind::Lla { arity: 8 }, DepthMode::Exact),
        (EngineKind::Lla { arity: 512 }, DepthMode::Exact),
        (
            EngineKind::SourceBins {
                comm_size: spc_conformance::ops::RANKS as usize,
            },
            DepthMode::Bounded,
        ),
        (EngineKind::HashBins { bins: 4 }, DepthMode::Bounded),
        (
            EngineKind::RankTrie {
                capacity: spc_conformance::ops::RANKS as usize,
            },
            DepthMode::Bounded,
        ),
    ];
    for (i, (kind, mode)) in kinds.iter().enumerate() {
        let ops = engine_ops(SEED.wrapping_add(100 + i as u64), N_OPS);
        if let Err(e) = diff_dyn_engine(*kind, *mode, &ops) {
            let min = shrink_ops(&ops, |s| diff_dyn_engine(*kind, *mode, s).is_err());
            panic!(
                "{}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
                kind.label(),
                min.len(),
                render_ops("EngineOp", &min)
            );
        }
    }
}

/// Statically-typed engines expose their queues, so this run also checks
/// PRQ/UMQ snapshots after every one of the 10,000 steps.
#[test]
fn typed_engines_conform_with_snapshots() {
    let ops = engine_ops(SEED.wrapping_add(200), N_OPS);
    let mut baseline: MatchEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>> =
        MatchEngine::new(BaselineList::new(), BaselineList::new());
    diff_engine(&mut baseline, DepthMode::Exact, &ops)
        .unwrap_or_else(|e| panic!("baseline engine: {e}"));

    let ops = engine_ops(SEED.wrapping_add(201), N_OPS);
    let mut lla: MatchEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>> =
        MatchEngine::new(Lla::new(), Lla::new());
    diff_engine(&mut lla, DepthMode::Exact, &ops).unwrap_or_else(|e| panic!("LLA-2 engine: {e}"));

    let ops = engine_ops(SEED.wrapping_add(202), N_OPS);
    let mut bins: MatchEngine<SourceBins<PostedEntry>, SourceBins<UnexpectedEntry>> =
        MatchEngine::new(
            SourceBins::new(spc_conformance::ops::RANKS as usize),
            SourceBins::new(spc_conformance::ops::RANKS as usize),
        );
    diff_engine(&mut bins, DepthMode::Bounded, &ops)
        .unwrap_or_else(|e| panic!("source-bins engine: {e}"));

    let ops = engine_ops(SEED.wrapping_add(203), N_OPS);
    let mut hash: MatchEngine<HashBins<PostedEntry>, HashBins<UnexpectedEntry>> =
        MatchEngine::new(HashBins::with_bins(4), HashBins::with_bins(4));
    diff_engine(&mut hash, DepthMode::Bounded, &ops)
        .unwrap_or_else(|e| panic!("hash-bins engine: {e}"));

    let ops = engine_ops(SEED.wrapping_add(204), N_OPS);
    let mut trie: MatchEngine<RankTrie<PostedEntry>, RankTrie<UnexpectedEntry>> = MatchEngine::new(
        RankTrie::new(spc_conformance::ops::RANKS as usize),
        RankTrie::new(spc_conformance::ops::RANKS as usize),
    );
    diff_engine(&mut trie, DepthMode::Bounded, &ops)
        .unwrap_or_else(|e| panic!("rank-trie engine: {e}"));
}

fn mode_for(kind: &EngineKind) -> DepthMode {
    match kind {
        EngineKind::Baseline | EngineKind::Lla { .. } => DepthMode::Exact,
        _ => DepthMode::Bounded,
    }
}

/// Wildcard/mask arbitration under pressure: streams that keep several
/// `MPI_ANY_SOURCE`/`MPI_ANY_TAG` receives resident hammer exactly the
/// paths the partitioned structures (source bins, hash bins, rank trie)
/// handle specially — wildcard channels, bin merges, global scans.
#[test]
fn all_engine_kinds_conform_on_wildcard_bursts() {
    for (i, kind) in EngineKind::standard_set(spc_conformance::ops::RANKS as usize)
        .iter()
        .enumerate()
    {
        let mode = mode_for(kind);
        let ops = engine_ops_wild_bursts(SEED.wrapping_add(300 + i as u64), N_OPS);
        if let Err(e) = diff_dyn_engine(*kind, mode, &ops) {
            let min = shrink_ops(&ops, |s| diff_dyn_engine(*kind, mode, s).is_err());
            panic!(
                "{}: wildcard-burst divergence: {e}\nminimized repro ({} ops):\n{}",
                kind.label(),
                min.len(),
                render_ops("EngineOp", &min)
            );
        }
    }
}

fn check_sharded<P, U>(label: &str, mk: impl Fn() -> ShardedEngine<P, U>, seed: u64)
where
    P: MatchList<PostedEntry> + Send,
    U: MatchList<UnexpectedEntry> + Send,
{
    for (tag, ops) in [
        ("uniform", engine_ops(seed, N_OPS)),
        ("wild-burst", engine_ops_wild_bursts(seed ^ 0xAB, N_OPS)),
    ] {
        // Bounded depths: shard-local searches legitimately inspect fewer
        // entries than the oracle's single global queue.
        let diff = |s: &[EngineOp]| diff_engine(&mut &mk(), DepthMode::Bounded, s);
        if let Err(e) = diff(&ops) {
            let min: Vec<EngineOp> = shrink_ops(&ops, |s| diff(s).is_err());
            panic!(
                "sharded {label} ({tag}): divergence: {e}\nminimized repro ({} ops):\n{}",
                min.len(),
                render_ops("EngineOp", &min)
            );
        }
    }
}

/// The sharded engine must be observationally identical to a single
/// global-FIFO engine when driven single-threaded — including its merged
/// queue snapshots after every step — for every structure family.
#[test]
fn sharded_engines_conform_in_lockstep() {
    const RANKS: usize = spc_conformance::ops::RANKS as usize;
    check_sharded(
        "baseline",
        || ShardedEngine::new(4, BaselineList::<PostedEntry>::new, BaselineList::new),
        SEED.wrapping_add(400),
    );
    check_sharded(
        "lla-2",
        || {
            ShardedEngine::new(
                4,
                Lla::<PostedEntry, 2>::new,
                Lla::<UnexpectedEntry, 3>::new,
            )
        },
        SEED.wrapping_add(401),
    );
    check_sharded(
        "source-bins",
        || ShardedEngine::new(4, || SourceBins::new(RANKS), || SourceBins::new(RANKS)),
        SEED.wrapping_add(402),
    );
    check_sharded(
        "hash-bins",
        || ShardedEngine::new(4, || HashBins::with_bins(4), || HashBins::with_bins(4)),
        SEED.wrapping_add(403),
    );
    check_sharded(
        "rank-trie",
        || ShardedEngine::new(4, || RankTrie::new(RANKS), || RankTrie::new(RANKS)),
        SEED.wrapping_add(404),
    );
    // Degenerate shard counts must behave identically too.
    check_sharded(
        "lla-2 x1-shard",
        || {
            ShardedEngine::new(
                1,
                Lla::<PostedEntry, 2>::new,
                Lla::<UnexpectedEntry, 3>::new,
            )
        },
        SEED.wrapping_add(405),
    );
    check_sharded(
        "lla-2 x13-shards",
        || {
            ShardedEngine::new(
                13,
                Lla::<PostedEntry, 2>::new,
                Lla::<UnexpectedEntry, 3>::new,
            )
        },
        SEED.wrapping_add(406),
    );
}
