//! One op vocabulary: on every engine type, a seeded stream driven through
//! `apply` and the same stream driven through the plain verbs are the same
//! execution — same outcomes (as far as a verb's narrower return type can
//! say), same linearization stamps, same `EngineStats`, same queues.

use spc_core::concurrent::SharedEngine;
use spc_core::dynengine::{DynEngine, EngineKind};
use spc_core::engine::{ArrivalOutcome, Engine, MatchEngine, Op, Outcome, RecvOutcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
use spc_core::ingest::{BatchedEngine, DrainRecord};
use spc_core::list::Lla;
use spc_core::shard::ShardedEngine;
use spc_rng::{Rng, SeedableRng, StdRng};

type Prq = Lla<PostedEntry, 2>;
type Umq = Lla<UnexpectedEntry, 3>;

const OPS: usize = 10_000;

/// Posts (1 in 8 `ANY_SOURCE`, 1 in 8 `ANY_TAG`), arrivals, probes and
/// cancels of requests the stream has issued, over few enough keys that
/// both queues keep hitting and missing.
fn stream() -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0x0CAB);
    let mut issued = 0u64;
    (0..OPS as u64)
        .map(|i| {
            let rank = rng.gen_range(0..6);
            let tag = rng.gen_range(0..4);
            let spec = RecvSpec::new(
                if rng.gen_bool(0.125) {
                    ANY_SOURCE
                } else {
                    rank
                },
                if rng.gen_bool(0.125) { ANY_TAG } else { tag },
                0,
            );
            match rng.gen_range(0..10) {
                0..=3 => {
                    issued += 1;
                    Op::PostRecv {
                        spec,
                        request: issued - 1,
                    }
                }
                4..=7 => Op::Arrival {
                    env: Envelope::new(rank, tag, 0),
                    payload: 1 << 32 | i,
                },
                8 => Op::Iprobe { spec },
                _ => Op::Cancel {
                    request: rng.gen_range(0..issued.max(1)),
                },
            }
        })
        .collect()
}

/// Everything a plain verb's return type can say.
#[derive(Debug, PartialEq)]
enum Seen {
    Recv(RecvOutcome),
    Arrival(ArrivalOutcome),
    Cancelled(bool),
    Probed(Option<(u64, u32)>),
    Deferred,
}

fn narrow(out: Outcome) -> Seen {
    match out {
        Outcome::MatchedUnexpected { .. } | Outcome::Posted { .. } => Seen::Recv(out.recv()),
        Outcome::MatchedPosted { .. } | Outcome::Queued { .. } => Seen::Arrival(out.arrival()),
        Outcome::Cancelled(hit) => Seen::Cancelled(hit),
        Outcome::Probed(found) => Seen::Probed(found),
        Outcome::Deferred => Seen::Deferred,
    }
}

/// What one execution reported, op by op, and what it left behind.
#[derive(Debug, PartialEq)]
struct Run<S> {
    seen: Vec<(Option<S>, Seen)>,
    stats: String,
    queues: (Vec<u64>, Vec<u64>),
}

impl<S> Run<S> {
    /// The plain verbs of most engines return no stamp: everything but.
    fn unstamped(self) -> (Vec<Seen>, String, (Vec<u64>, Vec<u64>)) {
        let seen = self.seen.into_iter().map(|(_, s)| s).collect();
        (seen, self.stats, self.queues)
    }
}

/// Drives `ops` through `eng` with `step`.
fn run<E: Engine>(
    mut eng: E,
    ops: &[Op],
    mut step: impl FnMut(&mut E, Op) -> (Option<E::Stamp>, Seen),
) -> Run<E::Stamp> {
    let seen = ops.iter().map(|&op| step(&mut eng, op)).collect();
    eng.validate().expect("engine invariants");
    Run {
        seen,
        stats: format!("{:?}", eng.stats()),
        queues: eng.queue_ids(),
    }
}

fn by_apply<E: Engine>(eng: &mut E, op: Op) -> (Option<E::Stamp>, Seen) {
    let (stamp, out) = eng.apply(op);
    (Some(stamp), narrow(out))
}

/// The four plain verbs of the two single-threaded engines (no stamps).
macro_rules! by_verbs {
    ($eng:expr, $op:expr) => {
        match $op {
            Op::PostRecv { spec, request } => Seen::Recv($eng.post_recv(spec, request)),
            Op::Arrival { env, payload } => Seen::Arrival($eng.arrival(env, payload)),
            Op::Cancel { request } => Seen::Cancelled($eng.cancel_recv(request)),
            Op::Iprobe { spec } => Seen::Probed($eng.iprobe(spec)),
        }
    };
}

#[test]
fn match_engine_and_dyn_engine_speak_one_vocabulary() {
    let ops = stream();
    let mk = || MatchEngine::new(Prq::new(), Umq::new());
    let a = run(mk(), &ops, by_apply);
    let v = run(mk(), &ops, |e, op| (None, by_verbs!(e, op)));
    assert_eq!(a.unstamped(), v.unstamped());

    let mk = || DynEngine::new(EngineKind::Lla { arity: 2 });
    let a = run(mk(), &ops, by_apply);
    let v = run(mk(), &ops, |e, op| (None, by_verbs!(e, op)));
    assert_eq!(a.unstamped(), v.unstamped());
}

/// The verbs of the two lock-based engines return no stamp, so the stamp
/// order is pinned from both ends: `apply`'s stamps never decrease (only a
/// lock-free probe may share one with the next writer), and after the same
/// stream both executions hand the next op the same stamp.
#[test]
fn shared_and_sharded_engines_speak_one_vocabulary() {
    let ops = stream();
    let sentinel = Op::Cancel { request: u64::MAX };

    let shared = || SharedEngine::new(MatchEngine::new(Prq::new(), Umq::new()));
    let (by_a, by_v) = (shared(), shared());
    let a = run(&by_a, &ops, by_apply);
    let v = run(&by_v, &ops, |e, op| (None, by_verbs!(e, op)));
    assert!(
        a.seen.windows(2).all(|w| w[0].0 < w[1].0),
        "one stamp per op"
    );
    assert_eq!(by_a.apply(sentinel), by_v.apply(sentinel));
    assert_eq!(a.unstamped(), v.unstamped());

    let sharded = || ShardedEngine::new(4, Prq::new, Umq::new);
    let (by_a, by_v) = (sharded(), sharded());
    let a = run(&by_a, &ops, by_apply);
    let v = run(&by_v, &ops, |e, op| (None, by_verbs!(e, op)));
    assert!(
        a.seen.windows(2).all(|w| w[0].0 <= w[1].0),
        "stamps in order"
    );
    assert_eq!(by_a.apply(sentinel), by_v.apply(sentinel));
    assert_eq!(a.unstamped(), v.unstamped());
}

/// A producer's verbs do return stamps, and its buffered ops report theirs
/// in the drain log: stamps and outcomes are compared exactly, op by op
/// and drain record by drain record.
#[test]
fn producers_speak_one_vocabulary() {
    let ops = stream();
    let mk = || BatchedEngine::<Prq, Umq>::new(4, 1, 16, Prq::new, Umq::new).with_drain_log();
    let drained = |eng: &BatchedEngine<Prq, Umq>| -> Vec<(u64, Op, Outcome)> {
        eng.flush_all();
        let log: Vec<DrainRecord> = eng.take_drain_log();
        log.iter()
            .map(|r| (r.seq, r.op.into(), r.outcome))
            .collect()
    };
    let (by_a, by_v) = (mk(), mk());
    let a = run(by_a.producer(0), &ops, by_apply);
    let v = run(by_v.producer(0), &ops, |p, op| match op {
        Op::PostRecv { spec, request } => match p.post_recv(spec, request) {
            Some((seq, out)) => (Some(seq), Seen::Recv(out)),
            None => (Some(0), Seen::Deferred),
        },
        Op::Arrival { env, payload } => {
            p.arrival(env, payload);
            (Some(0), Seen::Deferred)
        }
        Op::Cancel { request } => {
            let (seq, hit) = p.cancel_recv_seq(request);
            (Some(seq), Seen::Cancelled(hit))
        }
        Op::Iprobe { spec } => {
            let (seq, found) = p.iprobe_seq(spec);
            (Some(seq), Seen::Probed(found))
        }
    });
    assert!(a.seen.iter().any(|(_, s)| *s == Seen::Deferred));
    assert!(a.seen.iter().any(|(_, s)| matches!(s, Seen::Recv(_))));
    assert_eq!(a, v);
    let (log_a, log_v) = (drained(&by_a), drained(&by_v));
    assert!(log_a.iter().all(|(_, _, out)| *out != Outcome::Deferred));
    assert_eq!(log_a, log_v);
    assert_eq!(
        format!("{:?}", by_a.stats()),
        format!("{:?}", by_v.stats()),
        "after the final flush"
    );
}
