//! Randomized equivalence tests: every match-list structure is behaviourally
//! equivalent to the reference [`BaselineList`] under arbitrary operation
//! sequences.
//!
//! "Behaviourally equivalent" means: the same probe returns the same element
//! (by id), `len` agrees, and `snapshot` returns the same elements in the
//! same FIFO order. Search *depth* is allowed to differ — that is exactly
//! the performance property the paper studies. (The `spc-conformance` crate
//! layers a full differential harness — oracle model, deeper op streams,
//! failure shrinking — on top of the same idea; these in-crate tests keep
//! `spc-core` self-checking on its own.)
//!
//! Formerly proptest properties; now driven by the in-repo seeded PRNG so
//! the workspace builds offline. Failures print the generating seed.

use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, SourceBins};
use spc_core::NullSink;
use spc_rng::{Rng, SeedableRng, StdRng};

const RANKS: i32 = 8;
const TAGS: i32 = 4;
const CTXS: u16 = 2;
const CASES: u64 = 256;

#[derive(Clone, Debug)]
enum PostedOp {
    Append {
        rank: Option<i32>,
        tag: Option<i32>,
        ctx: u16,
    },
    Search {
        rank: i32,
        tag: i32,
        ctx: u16,
    },
    Cancel {
        nth: u64,
    },
}

fn posted_ops(seed: u64) -> Vec<PostedOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..120usize);
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0..=2 => PostedOp::Append {
                rank: rng.gen_bool(0.8).then(|| rng.gen_range(0..RANKS)),
                tag: rng.gen_bool(0.8).then(|| rng.gen_range(0..TAGS)),
                ctx: rng.gen_range(0..CTXS),
            },
            3..=4 => PostedOp::Search {
                rank: rng.gen_range(0..RANKS),
                tag: rng.gen_range(0..TAGS),
                ctx: rng.gen_range(0..CTXS),
            },
            _ => PostedOp::Cancel {
                nth: rng.gen_range(0..40u64),
            },
        })
        .collect()
}

/// Replays `ops` against `list`, returning an event log of observable
/// outcomes.
fn run_posted<L: MatchList<PostedEntry>>(list: &mut L, ops: &[PostedOp]) -> Vec<String> {
    let mut sink = NullSink;
    let mut log = Vec::new();
    let mut next_req = 0u64;
    for op in ops {
        match op {
            PostedOp::Append { rank, tag, ctx } => {
                let spec = RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), *ctx);
                list.append(PostedEntry::from_spec(spec, next_req), &mut sink);
                next_req += 1;
            }
            PostedOp::Search { rank, tag, ctx } => {
                let r = list.search_remove(&Envelope::new(*rank, *tag, *ctx), &mut sink);
                log.push(format!("search -> {:?}", r.found.map(|e| e.request)));
            }
            PostedOp::Cancel { nth } => {
                let r = list.remove_by_id(*nth, &mut sink);
                log.push(format!("cancel -> {:?}", r.map(|e| e.request)));
            }
        }
        log.push(format!("len {}", list.len()));
    }
    log.push(format!(
        "final {:?}",
        list.snapshot()
            .iter()
            .map(|e| e.request)
            .collect::<Vec<_>>()
    ));
    log
}

/// Asserts structural equivalence over `CASES` seeded op streams, naming the
/// failing seed + ops so the case replays exactly.
fn check_posted<L: MatchList<PostedEntry>>(tag: u64, mk: impl Fn() -> L) {
    for case in 0..CASES {
        let seed = tag.wrapping_mul(0x9E37_79B9).wrapping_add(case);
        let ops = posted_ops(seed);
        let reference = run_posted(&mut BaselineList::new(), &ops);
        let got = run_posted(&mut mk(), &ops);
        assert_eq!(got, reference, "seed {seed:#x}; ops: {ops:?}");
    }
}

#[test]
fn posted_lla2_matches_baseline() {
    check_posted(1, Lla::<PostedEntry, 2>::new);
}

#[test]
fn posted_lla8_matches_baseline() {
    check_posted(2, Lla::<PostedEntry, 8>::new);
}

#[test]
fn posted_lla512_matches_baseline() {
    check_posted(3, Lla::<PostedEntry, 512>::new);
}

#[test]
fn posted_source_bins_matches_baseline() {
    check_posted(4, || SourceBins::<PostedEntry>::new(RANKS as usize));
}

#[test]
fn posted_hash_bins_matches_baseline() {
    // Few bins on purpose: force collisions and the merge path.
    check_posted(5, || HashBins::<PostedEntry>::with_bins(4));
}

#[test]
fn posted_rank_trie_matches_baseline() {
    check_posted(6, || RankTrie::<PostedEntry>::new(RANKS as usize));
}

#[derive(Clone, Debug)]
enum UmqOp {
    Arrive {
        rank: i32,
        tag: i32,
        ctx: u16,
    },
    Recv {
        rank: Option<i32>,
        tag: Option<i32>,
        ctx: u16,
    },
}

fn umq_ops(seed: u64) -> Vec<UmqOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..120usize);
    (0..n)
        .map(|_| match rng.gen_range(0..5) {
            0..=2 => UmqOp::Arrive {
                rank: rng.gen_range(0..RANKS),
                tag: rng.gen_range(0..TAGS),
                ctx: rng.gen_range(0..CTXS),
            },
            _ => UmqOp::Recv {
                rank: rng.gen_bool(0.7).then(|| rng.gen_range(0..RANKS)),
                tag: rng.gen_bool(0.7).then(|| rng.gen_range(0..TAGS)),
                ctx: rng.gen_range(0..CTXS),
            },
        })
        .collect()
}

fn run_umq<L: MatchList<UnexpectedEntry>>(list: &mut L, ops: &[UmqOp]) -> Vec<String> {
    let mut sink = NullSink;
    let mut log = Vec::new();
    let mut next_payload = 0u64;
    for op in ops {
        match op {
            UmqOp::Arrive { rank, tag, ctx } => {
                list.append(
                    UnexpectedEntry::from_envelope(Envelope::new(*rank, *tag, *ctx), next_payload),
                    &mut sink,
                );
                next_payload += 1;
            }
            UmqOp::Recv { rank, tag, ctx } => {
                let spec = RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), *ctx);
                let r = list.search_remove(&spec, &mut sink);
                log.push(format!("recv -> {:?}", r.found.map(|e| e.payload)));
            }
        }
        log.push(format!("len {}", list.len()));
    }
    log.push(format!(
        "final {:?}",
        list.snapshot()
            .iter()
            .map(|e| e.payload)
            .collect::<Vec<_>>()
    ));
    log
}

fn check_umq<L: MatchList<UnexpectedEntry>>(tag: u64, mk: impl Fn() -> L) {
    for case in 0..CASES {
        let seed = tag.wrapping_mul(0x85EB_CA6B).wrapping_add(case);
        let ops = umq_ops(seed);
        let reference = run_umq(&mut BaselineList::new(), &ops);
        let got = run_umq(&mut mk(), &ops);
        assert_eq!(got, reference, "seed {seed:#x}; ops: {ops:?}");
    }
}

#[test]
fn umq_lla3_matches_baseline() {
    check_umq(1, Lla::<UnexpectedEntry, 3>::new);
}

#[test]
fn umq_source_bins_matches_baseline() {
    check_umq(2, || SourceBins::<UnexpectedEntry>::new(RANKS as usize));
}

#[test]
fn umq_hash_bins_matches_baseline() {
    check_umq(3, || HashBins::<UnexpectedEntry>::with_bins(4));
}

#[test]
fn umq_rank_trie_matches_baseline() {
    check_umq(4, || RankTrie::<UnexpectedEntry>::new(RANKS as usize));
}

/// Ranks on both sides of the entry layout's 16-bit rank field, which
/// entries store and match in: 65 536 aliases 0 there and 70 000 aliases
/// 4 464, so the reference matches them across the boundary and every
/// structure that admits such ranks must route them the same way.
const WIDE_RANKS: [i32; RANKS as usize] = [0, 1, 4_464, 5, 65_535, 65_536, 70_000, 7];
const WIDE_CASES: u64 = 32;

fn widen(rank: &mut i32) {
    *rank = WIDE_RANKS[*rank as usize];
}

#[test]
fn posted_ranks_past_the_16_bit_field_match_baseline() {
    for case in 0..WIDE_CASES {
        let mut ops = posted_ops(0x1D_0000 + case);
        for op in &mut ops {
            match op {
                PostedOp::Append { rank, .. } => rank.iter_mut().for_each(widen),
                PostedOp::Search { rank, .. } => widen(rank),
                PostedOp::Cancel { .. } => {}
            }
        }
        let reference = run_posted(&mut BaselineList::new(), &ops);
        let same = |name: &str, got: Vec<String>| {
            assert_eq!(got, reference, "{name}, case {case}; ops: {ops:?}");
        };
        same("lla8", run_posted(&mut Lla::<PostedEntry, 8>::new(), &ops));
        same(
            "source-bins",
            run_posted(&mut SourceBins::new(1 << 16), &ops),
        );
        same("hash-bins", run_posted(&mut HashBins::with_bins(4), &ops));
        same("rank-trie", run_posted(&mut RankTrie::new(1 << 16), &ops));
    }
}

#[test]
fn umq_ranks_past_the_16_bit_field_match_baseline() {
    for case in 0..WIDE_CASES {
        let mut ops = umq_ops(0x1D_0000 + case);
        for op in &mut ops {
            match op {
                UmqOp::Arrive { rank, .. } => widen(rank),
                UmqOp::Recv { rank, .. } => rank.iter_mut().for_each(widen),
            }
        }
        let reference = run_umq(&mut BaselineList::new(), &ops);
        let same = |name: &str, got: Vec<String>| {
            assert_eq!(got, reference, "{name}, case {case}; ops: {ops:?}");
        };
        same("lla3", run_umq(&mut Lla::<UnexpectedEntry, 3>::new(), &ops));
        same("source-bins", run_umq(&mut SourceBins::new(1 << 16), &ops));
        same("hash-bins", run_umq(&mut HashBins::with_bins(4), &ops));
        same("rank-trie", run_umq(&mut RankTrie::new(1 << 16), &ops));
    }
}

/// Search depth on the baseline equals the 1-based position of the match in
/// FIFO order — the definitional property Table 1 relies on (and the depth
/// contract documented on [`MatchList::search_remove`]).
#[test]
fn baseline_depth_is_fifo_position() {
    for case in 0..CASES {
        let ops = posted_ops(0xDE97 ^ (case << 8));
        let mut list = BaselineList::new();
        let mut sink = NullSink;
        let mut next_req = 0u64;
        for op in &ops {
            match op {
                PostedOp::Append { rank, tag, ctx } => {
                    let spec =
                        RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), *ctx);
                    list.append(PostedEntry::from_spec(spec, next_req), &mut sink);
                    next_req += 1;
                }
                PostedOp::Search { rank, tag, ctx } => {
                    let snap = list.snapshot();
                    let env = Envelope::new(*rank, *tag, *ctx);
                    let expected_pos = snap.iter().position(|e| e.matches(&env));
                    let r = list.search_remove(&env, &mut sink);
                    match expected_pos {
                        Some(p) => {
                            assert_eq!(r.depth as usize, p + 1);
                            assert_eq!(r.found.map(|e| e.request), Some(snap[p].request));
                        }
                        None => {
                            assert_eq!(r.depth as usize, snap.len());
                            assert!(r.found.is_none());
                        }
                    }
                }
                PostedOp::Cancel { nth } => {
                    list.remove_by_id(*nth, &mut sink);
                }
            }
        }
    }
}

/// LLA holes never change observable contents: interleaved removals keep
/// snapshot equal to the baseline's (covered above) *and* `len` always
/// equals the snapshot length.
#[test]
fn lla_len_equals_snapshot_len() {
    for case in 0..CASES {
        let ops = posted_ops(0x11A ^ (case << 16));
        let mut list = Lla::<PostedEntry, 4>::new();
        let mut sink = NullSink;
        let mut next_req = 0u64;
        for op in &ops {
            match op {
                PostedOp::Append { rank, tag, ctx } => {
                    let spec =
                        RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), *ctx);
                    list.append(PostedEntry::from_spec(spec, next_req), &mut sink);
                    next_req += 1;
                }
                PostedOp::Search { rank, tag, ctx } => {
                    list.search_remove(&Envelope::new(*rank, *tag, *ctx), &mut sink);
                }
                PostedOp::Cancel { nth } => {
                    list.remove_by_id(*nth, &mut sink);
                }
            }
            assert_eq!(list.len(), list.snapshot().len(), "case {case}");
        }
    }
}
