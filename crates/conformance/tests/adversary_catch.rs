//! Harness-sensitivity tests: a deliberately-injected FIFO violation must
//! be caught by the differential driver and reduced by the shrinker to a
//! minimal repro.
//!
//! This is the proof that the conformance run in `differential.rs` means
//! something: the same driver, fed a structure with the classic
//! non-overtaking bug, fails — and fails *usefully*.

use spc_conformance::{
    diff_engine, diff_posted, posted_ops, render_ops, shrink_ops, DepthMode, FifoViolator, PostedOp,
};
use spc_core::engine::MatchEngine;
use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::list::BaselineList;

fn violator() -> FifoViolator<BaselineList<PostedEntry>> {
    FifoViolator::new(BaselineList::new())
}

/// Full pipeline: 10,000 randomized ops catch the injected violation,
/// and shrinking reduces the stream to a handful of ops that still fail.
#[test]
fn injected_fifo_violation_is_caught_and_minimized() {
    let ops = posted_ops(0xBAD_F1F0, 10_000);
    let err = diff_posted(&mut violator(), DepthMode::Bounded, &ops)
        .expect_err("the randomized stream must expose the FIFO violation");
    assert!(
        err.detail.contains("matched") || err.detail.contains("snapshot"),
        "divergence should be a match/snapshot disagreement, got: {err}"
    );

    let min = shrink_ops(&ops, |s| {
        diff_posted(&mut violator(), DepthMode::Bounded, s).is_err()
    });
    assert!(
        diff_posted(&mut violator(), DepthMode::Bounded, &min).is_err(),
        "minimized stream must still fail"
    );
    // The theoretical minimum is two overlapping appends plus the search
    // that resolves them; 1-minimality should land at (or very near) it.
    assert!(
        min.len() <= 5,
        "expected a near-minimal repro, got {} ops:\n{}",
        min.len(),
        render_ops("PostedOp", &min)
    );
    assert!(
        min.iter()
            .filter(|o| matches!(o, PostedOp::Append { .. }))
            .count()
            >= 2,
        "a FIFO violation needs at least two overlapping appends"
    );

    // The repro renders as paste-able constructor syntax.
    let repro = render_ops("PostedOp", &min);
    assert!(repro.starts_with("let ops = vec![\n"), "{repro}");
    assert!(repro.contains("PostedOp::"), "{repro}");
}

/// Hand-written minimal violation: the exact stream the shrinker should
/// converge towards. Keeps the expected failure shape pinned down.
#[test]
fn minimal_hand_written_violation_fails() {
    let ops = vec![
        PostedOp::Append {
            rank: Some(1),
            tag: Some(1),
            ctx: 0,
        },
        PostedOp::Append {
            rank: Some(1),
            tag: Some(1),
            ctx: 0,
        },
        PostedOp::Search {
            rank: 1,
            tag: 1,
            ctx: 0,
        },
    ];
    let err = diff_posted(&mut violator(), DepthMode::Bounded, &ops).unwrap_err();
    assert_eq!(err.step, 2, "the search is where the overtaking shows");
}

/// The violation is also visible through a whole engine: a PRQ that
/// overtakes breaks arrival outcomes.
#[test]
fn engine_level_violation_is_caught() {
    use spc_conformance::{engine_ops, EngineOp};
    let ops = engine_ops(0xBAD_F1F1, 10_000);
    let mut engine: MatchEngine<
        FifoViolator<BaselineList<PostedEntry>>,
        BaselineList<UnexpectedEntry>,
    > = MatchEngine::new(FifoViolator::new(BaselineList::new()), BaselineList::new());
    let err = diff_engine(&mut engine, DepthMode::Bounded, &ops)
        .expect_err("engine-level stream must expose the PRQ violation");

    let fails = |s: &[EngineOp]| {
        let mut e: MatchEngine<
            FifoViolator<BaselineList<PostedEntry>>,
            BaselineList<UnexpectedEntry>,
        > = MatchEngine::new(FifoViolator::new(BaselineList::new()), BaselineList::new());
        diff_engine(&mut e, DepthMode::Bounded, s).is_err()
    };
    let min = shrink_ops(&ops, fails);
    assert!(
        fails(&min) && min.len() <= 6,
        "repro ({} ops) after: {err}",
        min.len()
    );
}
