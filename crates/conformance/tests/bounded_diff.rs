//! Bounded-admission differential conformance: every structure behind a
//! `MatchEngine` with `QueueBounds` agrees with the oracle engine built
//! with the same caps — same matches, same rejections, same rejection
//! counters — over long generated streams, with caps small enough that
//! backpressure actually engages and with the zero-capacity edge cases
//! (nothing may ever be appended to a zero-capped queue, every hit is
//! still admitted).
//!
//! Plus harness-sensitivity checks: an engine whose admission check is
//! off by one, and one that under-reports its rejection counters, are
//! both convicted.

use spc_conformance::{diff_engine, engine_ops, DepthMode, EngineOp};
use spc_core::engine::{Engine, MatchEngine, Op, Outcome, QueueBounds};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, SourceBins};
use spc_core::stats::EngineStats;

const RANKS: usize = spc_conformance::ops::RANKS as usize;
const SEED: u64 = 0xB0B0_CA9E;
/// ≥10,000 ops per structure, per the bounded-conformance gate.
const OPS: usize = 12_000;

fn caps() -> QueueBounds {
    // Small enough that the generator's burst phases overflow both
    // queues many times over the stream.
    QueueBounds::both(12)
}

const PRQ_CLOSED: QueueBounds = QueueBounds {
    max_prq: 0,
    max_umq: usize::MAX,
};
const UMQ_CLOSED: QueueBounds = QueueBounds {
    max_prq: usize::MAX,
    max_umq: 0,
};

fn check_bounded<P, U>(label: &str, mk_prq: impl Fn() -> P, mk_umq: impl Fn() -> U, mode: DepthMode)
where
    P: MatchList<PostedEntry>,
    U: MatchList<UnexpectedEntry>,
{
    let stream = engine_ops(SEED, OPS);
    let searches = stream
        .iter()
        .filter(|op| matches!(op, EngineOp::PostRecv { .. } | EngineOp::Arrival { .. }))
        .count() as u64;
    for bounds in [caps(), QueueBounds::both(0), PRQ_CLOSED, UMQ_CLOSED] {
        let mut subject = MatchEngine::with_bounds(mk_prq(), mk_umq(), bounds);
        let rejected = diff_engine(&mut subject, bounds, mode, &stream)
            .unwrap_or_else(|e| panic!("{label} under {bounds:?}: {e}"));
        assert!(
            rejected > 0,
            "{label}: {bounds:?} over {OPS} ops must reject"
        );
        let s = subject.stats();
        if bounds.max_prq == 0 {
            assert_eq!((s.prq_appends, subject.prq_len()), (0, 0), "{label}");
            assert_eq!(s.prq_hits, 0, "{label}: an empty PRQ cannot be hit");
        }
        if bounds.max_umq == 0 {
            assert_eq!((s.umq_appends, subject.umq_len()), (0, 0), "{label}");
            assert_eq!(s.umq_hits, 0, "{label}: an empty UMQ cannot be hit");
        }
        if bounds == QueueBounds::both(0) {
            assert_eq!(rejected, searches, "{label}: every search misses");
        }
    }
}

#[test]
fn bounded_baseline_matches_oracle_exactly() {
    check_bounded(
        "baseline",
        BaselineList::<PostedEntry>::new,
        BaselineList::<UnexpectedEntry>::new,
        DepthMode::Exact,
    );
}

#[test]
fn bounded_lla_matches_oracle_exactly() {
    check_bounded(
        "lla",
        Lla::<PostedEntry, 2>::new,
        Lla::<UnexpectedEntry, 3>::new,
        DepthMode::Exact,
    );
}

#[test]
fn bounded_source_bins_match_oracle() {
    check_bounded(
        "source-bins",
        || SourceBins::new(RANKS),
        || SourceBins::new(RANKS),
        DepthMode::Bounded,
    );
}

#[test]
fn bounded_hash_bins_match_oracle() {
    check_bounded(
        "hash-bins",
        || HashBins::with_bins(4),
        || HashBins::with_bins(4),
        DepthMode::Bounded,
    );
}

/// A queue closed on one side still admits every hit on the other: with
/// the PRQ capped at zero, receives that find their message in the UMQ
/// match (and only the misses are refused), and symmetrically.
#[test]
fn a_closed_queue_still_admits_every_hit() {
    let post = Op::PostRecv {
        spec: RecvSpec::new(3, 3, 0),
        request: 7,
    };
    let arrive = Op::Arrival {
        env: Envelope::new(3, 3, 0),
        payload: 9,
    };
    // (caps, the op whose append is closed, the op that can still queue,
    // the handle the closed op matches once the other has queued)
    for (bounds, closed, open, counterpart) in
        [(PRQ_CLOSED, post, arrive, 9), (UMQ_CLOSED, arrive, post, 7)]
    {
        let mut eng = MatchEngine::with_bounds(
            Lla::<PostedEntry, 2>::new(),
            Lla::<UnexpectedEntry, 3>::new(),
            bounds,
        );
        assert!(
            matches!(
                eng.apply(closed).1,
                Outcome::RejectedPrqFull { depth: 0 } | Outcome::RejectedUmqFull { depth: 0 }
            ),
            "a miss must be refused under {bounds:?}"
        );
        assert!(matches!(
            eng.apply(open).1,
            Outcome::Posted { .. } | Outcome::Queued { .. }
        ));
        assert_eq!(eng.apply(closed).1.matched(), Some(counterpart));
        let s = eng.stats();
        assert_eq!(s.prq_rejections + s.umq_rejections, 1);
        assert_eq!(eng.queue_lens(), (0, 0));
    }
}

/// Harness sensitivity: an engine configured with caps one higher than
/// the contract admits a 13th entry where the oracle rejects — the
/// driver must report the outcome disagreement (or the length skew it
/// causes), never pass.
#[test]
fn off_by_one_admission_is_convicted() {
    let mut sloppy = MatchEngine::with_bounds(
        BaselineList::<PostedEntry>::new(),
        BaselineList::<UnexpectedEntry>::new(),
        QueueBounds::both(13),
    );
    let err = diff_engine(
        &mut sloppy,
        caps(),
        DepthMode::Exact,
        &engine_ops(SEED, OPS),
    )
    .expect_err("an off-by-one admission policy must diverge");
    assert!(
        err.detail.contains("outcome") || err.detail.contains("lens"),
        "expected an outcome/length disagreement: {err}"
    );
}

/// A wrapper that performs admission correctly but reports zeroed
/// rejection counters, modeling stats drift.
struct SilentRejections<E>(E);

impl<E: Engine> Engine for SilentRejections<E> {
    type Stamp = E::Stamp;

    fn apply(&mut self, op: Op) -> (E::Stamp, Outcome) {
        self.0.apply(op)
    }
    fn queue_lens(&self) -> (usize, usize) {
        self.0.queue_lens()
    }
    fn stats(&self) -> EngineStats {
        EngineStats {
            prq_rejections: 0,
            umq_rejections: 0,
            ..self.0.stats()
        }
    }
    fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
        self.0.queue_ids()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }
}

/// Harness sensitivity: correct admission with under-reported counters
/// is convicted by the counter comparison.
#[test]
fn under_reported_rejection_counters_are_convicted() {
    let mut lying = SilentRejections(MatchEngine::with_bounds(
        BaselineList::<PostedEntry>::new(),
        BaselineList::<UnexpectedEntry>::new(),
        caps(),
    ));
    let err = diff_engine(&mut lying, caps(), DepthMode::Exact, &engine_ops(SEED, OPS))
        .expect_err("zeroed rejection counters must diverge");
    assert!(
        err.detail.contains("rejection counters"),
        "expected a counter disagreement: {err}"
    );
}
