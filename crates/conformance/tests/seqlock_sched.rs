//! Deterministic schedules for the sharded engine's lock-free read
//! paths.
//!
//! The free-running concurrent battery races these paths statistically;
//! this suite pins the op-boundary order with the interleaving scheduler
//! so every ordering that matters for the seqlock protocol is exercised
//! on every run:
//!
//! * a lock-free probe stepping between a writer's seq stamp and its
//!   snapshot commit (torn-snapshot window),
//! * a wildcard post's lock-free pre-scan racing a shard append,
//! * a tagged wildcard park racing arrivals on its own tag and on another
//!   (the per-slot store-buffering pair behind the crossing filter),
//! * a probe against another producer's still-buffered ring entries,
//! * a concrete-source hit probe racing a post that kills an earlier row
//!   in another lane (the hit's depth is its home lane's rows alone).
//!
//! The harness-sensitivity half injects an adversary whose writers skip
//! the snapshot commit entirely ([`ShardedEngine::with_snap_commit_disabled`]):
//! its lock-free probes can never see queued messages, and the pinned
//! arrival-then-probe schedule convicts it deterministically. The
//! lockstep driver then shrinks the same bug to a paste-able handful of
//! ops.

use spc_conformance::concurrent::{verify_log, ConcOp};
use spc_conformance::ops::engine_ops;
use spc_conformance::{diff_engine, interleavings, render_ops, run_stepped, shrink_ops, DepthMode};
use spc_core::engine::{Op, Outcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use spc_core::ingest::BatchedEngine;
use spc_core::list::Lla;
use spc_core::shard::ShardedEngine;

type Sharded = ShardedEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;
const SHARDS: usize = 4;

fn correct() -> Sharded {
    ShardedEngine::new(SHARDS, Lla::new, Lla::new)
}

fn adversary() -> Sharded {
    ShardedEngine::with_snap_commit_disabled(SHARDS, Lla::new, Lla::new)
}

/// Every interleaving of lock-free probes against a writer stream is a
/// valid linearization on the correct engine: a probe either retries out
/// of the torn-snapshot window or lands on a committed snapshot, and the
/// stamp it reports places it consistently against the arrivals.
#[test]
fn lock_free_probes_linearize_against_racing_writers_in_every_order() {
    let streams = vec![
        vec![
            ConcOp::Probe {
                rank: Some(2),
                tag: Some(2),
                ctx: 0,
            },
            ConcOp::Probe {
                rank: None,
                tag: None,
                ctx: 0,
            },
        ],
        vec![
            ConcOp::Arrive {
                rank: 2,
                tag: 2,
                ctx: 0,
            },
            ConcOp::Arrive {
                rank: 2,
                tag: 5,
                ctx: 0,
            },
        ],
    ];
    for schedule in interleavings(&[2, 2]) {
        let eng = correct();
        let log = run_stepped(&eng, &streams, &schedule);
        verify_log(&log, eng.queue_lens()).unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
    }
}

/// A concrete-source hit's depth is the rows it inspected, all in its
/// home lane. Here a post in another lane kills a row stamped before the
/// hit, in every order against two probes for that hit: each probe must
/// find the oracle's message at home-lane depth 1, whether the foreign
/// row is still queued or already gone.
#[test]
fn hit_probe_depth_linearizes_against_a_foreign_kill_in_every_order() {
    let arrive = |rank, tag| ConcOp::Arrive { rank, tag, ctx: 0 };
    let streams = vec![
        vec![
            arrive(1, 1),
            arrive(1, 2),
            ConcOp::Post {
                rank: Some(1),
                tag: Some(1),
                ctx: 0,
            },
        ],
        vec![
            arrive(2, 2),
            ConcOp::Probe {
                rank: Some(2),
                tag: Some(2),
                ctx: 0,
            },
            ConcOp::Probe {
                rank: Some(2),
                tag: Some(2),
                ctx: 0,
            },
        ],
    ];
    let schedules = interleavings(&[3, 3]);
    assert_eq!(schedules.len(), 20);
    for schedule in schedules {
        let eng = correct();
        let log = run_stepped(&eng, &streams, &schedule);
        verify_log(&log, eng.queue_lens()).unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
        let probes: Vec<Outcome> = log
            .iter()
            .filter(|r| matches!(r.op, Op::Iprobe { .. }))
            .map(|r| r.out)
            .collect();
        // Thread 1's first arrival carries its first payload handle.
        let hit = Outcome::Probed(Some((1 << 32, 1)));
        assert_eq!(probes, [hit, hit], "schedule {schedule:?}");
        eng.validate()
            .unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
    }
}

/// Every interleaving of a wildcard post (whose lock-free pre-scan reads
/// the published shard snapshots) against a shard append and a probe is
/// a valid linearization: the pre-scan either proves no queued message
/// matches (and parks) or falls back to the locked slow path.
#[test]
fn wildcard_prescan_linearizes_against_shard_appends_in_every_order() {
    let streams = vec![
        vec![ConcOp::Post {
            rank: None,
            tag: Some(3),
            ctx: 0,
        }],
        vec![
            ConcOp::Arrive {
                rank: 6,
                tag: 3,
                ctx: 0,
            },
            ConcOp::Probe {
                rank: Some(6),
                tag: Some(3),
                ctx: 0,
            },
        ],
    ];
    for schedule in interleavings(&[1, 2]) {
        let eng = correct();
        let log = run_stepped(&eng, &streams, &schedule);
        verify_log(&log, eng.queue_lens()).unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
    }
}

/// The race the tag-keyed wildcard filter lives on, in every order: a
/// tagged `MPI_ANY_SOURCE` post against a flow on its own tag and a flow
/// on another tag, each on a shard of its own. An arrival reads only its
/// tag's occupancy slot (and the `MPI_ANY_TAG` one), so in all 30
/// interleavings the oracle must agree with who got each message, the
/// same-tag arrival must cross into the wildcard lane exactly when the
/// wildcard is parked ahead of it, and the other-tag arrival never.
#[test]
fn tagged_wildcard_filter_linearizes_against_both_tags_in_every_order() {
    let flow = |rank, tag| {
        vec![
            ConcOp::Post {
                rank: Some(rank),
                tag: Some(tag),
                ctx: 0,
            },
            ConcOp::Arrive { rank, tag, ctx: 0 },
        ]
    };
    let streams = vec![
        vec![ConcOp::Post {
            rank: None,
            tag: Some(3),
            ctx: 0,
        }],
        flow(6, 3), // shard 2, the wildcard's tag
        flow(5, 9), // shard 1, another tag (and another filter slot)
    ];
    let schedules = interleavings(&[1, 2, 2]);
    assert_eq!(schedules.len(), 30);
    for schedule in schedules {
        let eng = correct();
        let log = run_stepped(&eng, &streams, &schedule);
        verify_log(&log, eng.queue_lens()).unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
        // Thread 1's second step is the same-tag arrival.
        let wild_at = schedule.iter().position(|&t| t == 0).unwrap();
        let arrival_at = schedule.iter().rposition(|&t| t == 1).unwrap();
        let crossings = eng.stats().concurrency.unwrap().wild_crossings;
        assert_eq!(
            crossings,
            u64::from(wild_at < arrival_at),
            "schedule {schedule:?}: only the same-tag arrival behind the park may cross"
        );
        // The wildcard wins the message only if it is also older than the
        // flow's own receive; either way exactly one receive is left over.
        assert_eq!(eng.queue_lens(), (1, 0), "schedule {schedule:?}");
    }
}

/// Probe-vs-ring-flush, pinned: a probe flushes the probing producer's
/// own rings (program order) but deliberately not another producer's —
/// entries buffered there have not linearized and stay invisible until
/// their owner flushes.
#[test]
fn probe_flushes_own_ring_and_ignores_unflushed_peers_deterministically() {
    let eng = BatchedEngine::<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>::new(
        SHARDS,
        2,
        64,
        Lla::new,
        Lla::new,
    );
    let spec = RecvSpec::new(3, 9, 0);
    // Producer 0 buffers an arrival; producer 1's probe must not see it.
    eng.producer(0).arrival(Envelope::new(3, 9, 0), 77);
    assert_eq!(eng.producer(1).iprobe_seq(spec).1, None);
    assert_eq!(eng.pending(), 1, "peer probe must not drain the ring");
    // The owner's own probe is ordered after its buffered arrival.
    assert_eq!(eng.producer(0).iprobe_seq(spec).1, Some((77, 1)));
    assert_eq!(eng.pending(), 0);
    // Once linearized, the message is visible to every producer.
    assert_eq!(eng.producer(1).iprobe_seq(spec).1, Some((77, 1)));
}

/// The injected adversary — writers skip the snapshot commit, so
/// lock-free probes never see queued messages — is convicted
/// *deterministically*: under the pinned arrival-then-probe schedule the
/// probe reports nothing while the oracle sees the queued message, on
/// every run. The probe-then-arrival order must pass even on the broken
/// engine (an empty engine legitimately probes empty).
#[test]
fn interleaving_scheduler_convicts_the_snap_commit_adversary() {
    let streams = vec![
        vec![ConcOp::Arrive {
            rank: 2,
            tag: 2,
            ctx: 0,
        }],
        vec![ConcOp::Probe {
            rank: Some(2),
            tag: Some(2),
            ctx: 0,
        }],
    ];
    let mut convictions = 0;
    for schedule in interleavings(&[1, 1]) {
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
                    vec![0, 1],
                    "only the arrival-first order exposes the skipped commit"
                );
                convictions += 1;
            }
        }
    }
    assert_eq!(
        convictions, 1,
        "the arrival-first schedule must convict on every run"
    );
}

/// The same bug, caught deterministically by the lockstep driver and
/// shrunk to a paste-able repro: queue one message, probe for it. The
/// adversary's lock-free probe reads only committed snapshot rows — of
/// which the skipped commit left none.
#[test]
fn snap_commit_adversary_is_shrunk_to_a_pasteable_repro() {
    let ops = engine_ops(0x5EC5_0CC5, 10_000);
    let err = diff_engine(&mut &adversary(), DepthMode::Bounded, &ops)
        .expect_err("a mixed stream with probes must expose the skipped snapshot commit");
    assert!(
        err.detail.contains("iprobe"),
        "divergence should be a probe disagreement: {err}"
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
    assert!(
        repro.contains("EngineOp::Iprobe"),
        "repro must involve a probe:\n{repro}"
    );
}

/// Harness sanity: the correct engine survives the conviction scenario
/// under every schedule, and the same lockstep stream that convicts the
/// adversary passes clean.
#[test]
fn correct_engine_passes_the_snap_commit_scenario() {
    let streams = vec![
        vec![ConcOp::Arrive {
            rank: 2,
            tag: 2,
            ctx: 0,
        }],
        vec![ConcOp::Probe {
            rank: Some(2),
            tag: Some(2),
            ctx: 0,
        }],
    ];
    for schedule in interleavings(&[1, 1]) {
        let eng = correct();
        let log = run_stepped(&eng, &streams, &schedule);
        verify_log(&log, eng.queue_lens()).unwrap_or_else(|e| panic!("schedule {schedule:?}: {e}"));
    }
    diff_engine(
        &mut &correct(),
        DepthMode::Bounded,
        &engine_ops(0x5EC5_0CC5, 10_000),
    )
    .unwrap();
}
