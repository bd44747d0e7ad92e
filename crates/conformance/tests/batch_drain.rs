//! A ring drain is one critical section: one shard lock, one write
//! window and one stamp block for the whole batch. These tests stop a
//! drain in the middle of its batch — a [`Gate`] in the unexpected-queue
//! factory holds the batch's first search — and pin what racing ops see:
//!
//! * a fast-path `MPI_ANY_SOURCE` post parks *after* the block was
//!   reserved, so the batch's arrival that matches it must cross with a
//!   fresh stamp above the park, not one from the block;
//! * a crossing arrival on another shard takes a parked wildcard away
//!   *after* the block was reserved, so the batch's arrival that no longer
//!   sees it must stamp above that match, not from the block;
//! * a lock-free probe of the paused lane never answers with a stamp
//!   after the block while the block is unapplied: it retries, falls
//!   back to the locked path and waits for the batch;
//! * a panic mid-batch poisons the shard: later ops on it panic, a probe
//!   of its stranded odd-version lane ends in the locked fallback's panic
//!   rather than a spin, and the lock-free observers still answer.
//!
//! The last outcome has a one-lock counterpart: a panic inside a
//! `SharedEngine` op poisons its only lock, and every later call panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use spc_conformance::concurrent::{sort_log, verify_log, LogRecord};
use spc_conformance::Gate;
use spc_core::concurrent::SharedEngine;
use spc_core::engine::{MatchEngine, Op, Outcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE};
use spc_core::ingest::{BatchedEngine, DrainRecord};
use spc_core::list::{Lla, MatchList};

const SHARDS: usize = 4;

type Umq = Lla<UnexpectedEntry, 3>;

fn batched<U>(mk_umq: impl FnMut() -> U) -> BatchedEngine<Lla<PostedEntry, 2>, U>
where
    U: MatchList<UnexpectedEntry> + Send,
{
    BatchedEngine::new(SHARDS, 2, 8, Lla::new, mk_umq).with_drain_log()
}

fn post(rank: i32, tag: i32, request: u64) -> Op {
    Op::PostRecv {
        spec: RecvSpec::new(rank, tag, 0),
        request,
    }
}

fn arrive(rank: i32, tag: i32, payload: u64) -> Op {
    Op::Arrival {
        env: Envelope::new(rank, tag, 0),
        payload,
    }
}

fn record(thread: usize, op: Op, (seq, out): (u64, Outcome)) -> LogRecord {
    LogRecord {
        seq,
        thread,
        op,
        out,
    }
}

fn drained(log: Vec<DrainRecord>) -> impl Iterator<Item = LogRecord> {
    log.into_iter().map(|r| LogRecord {
        seq: r.seq,
        thread: r.producer,
        op: r.op.into(),
        out: r.outcome,
    })
}

/// The panic message of a caught unwind.
fn message(err: Box<dyn std::any::Any + Send>) -> String {
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(err) => err
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// The crossing-stamp race, deterministically. The drain of
/// `[post(1, 9), arrival(1, 7)]` reserves its block and pauses in the
/// post's unexpected-queue search; a tag-7 `MPI_ANY_SOURCE` post then
/// parks on the lock-free fast path with a stamp above the block. When
/// the batch resumes, its arrival finds the wildcard's slot occupied,
/// crosses, and must stamp above the park to match it. An arrival that
/// took its stamp from the block would claim the wildcard before it was
/// posted, and the oracle replay refuses that history.
#[test]
fn a_crossing_arrival_stamps_above_a_wildcard_parked_mid_batch() {
    let (gate, handle) = Gate::pause_at(1);
    let eng = batched(gate.lists(Umq::new));
    let p0 = eng.producer(0);
    let batch = [post(1, 9, 10), arrive(1, 7, 70)];
    for op in batch {
        assert_eq!(p0.apply(op).1, Outcome::Deferred);
    }
    let wild = post(ANY_SOURCE, 7, 20);
    let parked = std::thread::scope(|s| {
        // Owned here: a failed assertion unwinds this closure and drops the
        // handle, which releases the paused drain, so the scope joins and
        // the test fails instead of hanging.
        let handle = handle;
        let drain = s.spawn(|| eng.flush_all());
        handle.wait();
        let parked = eng.producer(1).apply(wild);
        handle.release();
        assert_eq!(drain.join().expect("drain panicked"), 2);
        parked
    });
    assert_eq!(parked.1, Outcome::Posted { depth: 0 }, "fast-path park");
    let drain_log = eng.take_drain_log();
    let mut log: Vec<LogRecord> = drained(drain_log.clone()).collect();
    log.push(record(1, wild, parked));
    sort_log(&mut log);
    verify_log(&log, eng.queue_lens()).unwrap();
    let [first, crossing] = drain_log[..] else {
        panic!("two ops drained: {drain_log:?}");
    };
    assert_eq!(crossing.matched, Some(20), "the arrival took the wildcard");
    assert!(first.seq < parked.0 && parked.0 < crossing.seq);
    let stats = eng.stats().concurrency.expect("sharded stats");
    assert_eq!(stats.wild_crossings, 1);
    eng.validate().unwrap();
}

/// The same race from the other side. A tag-7 wildcard is parked before
/// the batch; the drain of `[post(1, 9), arrival(1, 7)]` reserves its
/// block and pauses; an arrival on another shard then crosses, takes the
/// wildcard with a fresh stamp above the block and empties its slot. When
/// the batch resumes, its arrival sees no wildcard and stays on its shard.
/// That is right only at a stamp above the other arrival's: a block stamp
/// would claim it ran while the wildcard was still there, and the oracle
/// replay would hand it the wildcard.
#[test]
fn an_arrival_that_misses_a_wildcard_taken_mid_batch_stamps_above_the_taker() {
    let (gate, handle) = Gate::pause_at(1);
    let eng = batched(gate.lists(Umq::new));
    let wild = post(ANY_SOURCE, 7, 20);
    let parked = eng.producer(1).apply(wild);
    assert_eq!(parked.1, Outcome::Posted { depth: 0 }, "fast-path park");
    let p0 = eng.producer(0);
    for op in [post(1, 9, 10), arrive(1, 7, 70)] {
        p0.apply(op);
    }
    let taker = arrive(2, 7, 71);
    std::thread::scope(|s| {
        // Owned here: a failed assertion unwinds this closure and drops the
        // handle, which releases the paused drain, so the scope joins and
        // the test fails instead of hanging.
        let handle = handle;
        let drain = s.spawn(|| eng.flush_all());
        handle.wait();
        let p1 = eng.producer(1);
        assert_eq!(p1.apply(taker).1, Outcome::Deferred);
        assert_eq!(p1.flush(), 1, "the taker drains on its own shard");
        handle.release();
        assert_eq!(drain.join().expect("drain panicked"), 2);
    });
    let drain_log = eng.take_drain_log();
    let mut log: Vec<LogRecord> = drained(drain_log.clone()).collect();
    log.push(record(1, wild, parked));
    sort_log(&mut log);
    verify_log(&log, eng.queue_lens()).unwrap();
    // The taker's drain finished while the batch was paused, so it logged
    // first.
    let [took, _, stayed] = drain_log[..] else {
        panic!("three ops drained: {drain_log:?}");
    };
    assert_eq!((took.producer, took.matched), (1, Some(20)), "the taker");
    assert_eq!(stayed.matched, None, "the batch's arrival queued");
    assert!(took.seq < stayed.seq, "{} then {}", took.seq, stayed.seq);
    eng.validate().unwrap();
}

/// A lock-free probe of a lane whose batch is paused mid-block finds the
/// write window open on every attempt, falls back to the locked path and
/// waits there for the batch: it never answers with a stamp after the
/// block while the block's ops are unapplied. Once released, it sees the
/// batch's arrival and stamps above every op of the batch.
#[test]
fn a_probe_of_a_lane_paused_mid_block_waits_for_the_whole_batch() {
    let (gate, handle) = Gate::pause_at(1);
    let eng = batched(gate.lists(Umq::new));
    let p0 = eng.producer(0);
    for op in [post(1, 9, 10), arrive(1, 7, 70)] {
        p0.apply(op);
    }
    let probe = Op::Iprobe {
        spec: RecvSpec::new(1, 7, 0),
    };
    let probed = std::thread::scope(|s| {
        // Owned here: a failed assertion unwinds this closure and drops the
        // handle, which releases the paused drain, so the scope joins and
        // the test fails instead of hanging.
        let handle = handle;
        let drain = s.spawn(|| eng.flush_all());
        handle.wait();
        let (tx, rx) = mpsc::channel();
        let eng = &eng;
        let prober = s.spawn(move || {
            let r = eng.producer(1).apply(probe);
            tx.send(()).expect("test gone");
            r
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while eng.inner().snap_read_stats().probe_fallbacks == 0 {
            assert!(Instant::now() < deadline, "the probe never fell back");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            rx.try_recv().is_err(),
            "the probe answered while the batch was paused"
        );
        handle.release();
        drain.join().expect("drain panicked");
        prober.join().expect("probe panicked")
    });
    let reads = eng.inner().snap_read_stats();
    assert!(reads.probe_retries > 0 && reads.probe_fallbacks == 1);
    assert_eq!(probed.1, Outcome::Probed(Some((70, 1))));
    let drain_log = eng.take_drain_log();
    assert!(drain_log.iter().all(|r| r.seq < probed.0));
    let mut log: Vec<LogRecord> = drained(drain_log).collect();
    log.push(record(1, probe, probed));
    sort_log(&mut log);
    verify_log(&log, eng.queue_lens()).unwrap();
    eng.validate().unwrap();
}

/// A panic mid-batch (inside the batch's first search) unwinds with the
/// shard lock held and the lane's write window open. The outcome is
/// defined: every later op that locks that shard panics with "shard lock
/// poisoned"; a lock-free probe that needs the stranded odd-version lane
/// spends its bounded retries, falls back to the locked path and panics
/// there instead of spinning; and the lock-free observers — queue
/// lengths, statistics, a probe that misses on another lane — still
/// answer.
#[test]
fn a_panic_mid_batch_poisons_its_shard_and_the_observers_still_answer() {
    let gate = Gate::panic_at(1);
    let eng = batched(gate.lists(Umq::new));
    // One message queued on another shard before the fault.
    eng.inner().apply(arrive(2, 3, 30));
    let p0 = eng.producer(0);
    for op in [post(1, 9, 10), arrive(1, 7, 70)] {
        p0.apply(op);
    }
    let err = catch_unwind(AssertUnwindSafe(|| eng.flush_all())).expect_err("the batch panics");
    assert!(message(err).contains("gated search 1 panicked"));

    // Lock-free observers.
    assert_eq!(eng.queue_lens(), (0, 1));
    assert_eq!(eng.stats().umq_appends, 1);
    let miss = eng.inner().apply(Op::Iprobe {
        spec: RecvSpec::new(2, 4, 0),
    });
    assert_eq!(miss.1, Outcome::Probed(None), "another lane's miss");
    assert_eq!(eng.inner().snap_read_stats().probe_fallbacks, 0);

    // The stranded lane: bounded retries, then the locked fallback panics.
    let err = catch_unwind(AssertUnwindSafe(|| {
        eng.inner().apply(Op::Iprobe {
            spec: RecvSpec::new(1, 7, 0),
        })
    }))
    .expect_err("the locked fallback meets the poisoned shard");
    assert!(message(err).contains("shard lock poisoned"));
    let reads = eng.inner().snap_read_stats();
    assert!(reads.probe_retries > 0 && reads.probe_fallbacks == 1);

    // Later ops on the shard, direct or drained.
    let err = catch_unwind(AssertUnwindSafe(|| eng.inner().apply(arrive(5, 1, 71))))
        .expect_err("a direct op on the poisoned shard panics");
    assert!(message(err).contains("shard lock poisoned"));
    let p1 = eng.producer(1);
    assert_eq!(p1.apply(arrive(1, 2, 72)).1, Outcome::Deferred);
    let err = catch_unwind(AssertUnwindSafe(|| p1.flush()))
        .expect_err("a drain of the poisoned shard panics");
    assert!(message(err).contains("shard lock poisoned"));
}

/// A panic inside a `SharedEngine` op unwinds with the engine's one lock
/// held. The outcome is defined and nothing hangs: the next op and the
/// observers `queue_lens` and `stats` each panic naming the poisoned lock.
#[test]
fn a_panic_in_a_shared_engine_op_poisons_its_lock_and_every_later_call_panics() {
    let gate = Gate::panic_at(1);
    let eng = SharedEngine::new(MatchEngine::new(
        Lla::<PostedEntry, 2>::new(),
        gate.lists(Umq::new)(),
    ));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let calls: [&dyn Fn(); 4] = [
            &|| {
                let _ = eng.apply(post(1, 9, 10));
            },
            &|| {
                let _ = eng.apply(arrive(1, 7, 70));
            },
            &|| {
                let _ = eng.queue_lens();
            },
            &|| {
                let _ = eng.stats();
            },
        ];
        for call in calls {
            let err = catch_unwind(AssertUnwindSafe(call)).err().map(message);
            tx.send(err).unwrap();
        }
    });
    let mut panics = Vec::new();
    for _ in 0..4 {
        let err = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a call on the poisoned engine hung");
        panics.push(err.expect("every call panics"));
    }
    assert!(panics[0].contains("gated search 1 panicked"), "{panics:?}");
    for later in &panics[1..] {
        assert!(later.contains("shard lock poisoned"), "{panics:?}");
    }
}
