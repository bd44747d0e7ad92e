//! Seeded property tests for the ingest ring in isolation: the SPSC
//! protocol against a `VecDeque` model over hundreds of thousands of
//! randomized push/pop/drain cases, far past the wraparound point of
//! every capacity tried.

use std::collections::VecDeque;

use spc_core::entry::{Envelope, RecvSpec};
use spc_core::ingest::{IngestOp, IngestRing};
use spc_rng::{Rng, SeedableRng, StdRng};

/// A randomized op with negative-field coverage: ranks and tags exercise
/// the full `i32` range (the ring must round-trip wildcards and other
/// negative values even though live traffic never buffers them).
fn gen_op(rng: &mut StdRng) -> IngestOp {
    let rank = if rng.gen_bool(0.2) {
        -rng.gen_range(1..65i32)
    } else {
        rng.gen_range(0..1 << 20)
    };
    let tag = if rng.gen_bool(0.2) {
        i32::MIN + rng.gen_range(0..1 << 16)
    } else {
        rng.gen_range(0..1 << 20)
    };
    let ctx = rng.next_u64() as u16;
    let handle = rng.next_u64();
    if rng.gen_bool(0.5) {
        IngestOp::Post {
            spec: RecvSpec {
                rank,
                tag,
                context_id: ctx,
            },
            request: handle,
        }
    } else {
        IngestOp::Arrive {
            env: Envelope {
                rank,
                tag,
                context_id: ctx,
            },
            payload: handle,
        }
    }
}

/// Single-threaded FIFO model check: every push/pop agrees with a
/// `VecDeque`, across capacities and long histories that wrap the ring
/// indices hundreds of times. ≥100,000 randomized cases.
#[test]
fn ring_agrees_with_vecdeque_model_across_wraparound() {
    let mut cases = 0usize;
    for (seed, cap) in [(1u64, 1usize), (2, 2), (3, 3), (4, 8), (5, 64), (6, 500)] {
        let mut rng = StdRng::seed_from_u64(0x12C5_0000 ^ seed);
        let ring = IngestRing::with_capacity(cap);
        let slots = ring.capacity();
        assert!(slots >= cap && slots.is_power_of_two());
        let mut model: VecDeque<IngestOp> = VecDeque::new();
        for _ in 0..30_000 {
            cases += 1;
            if rng.gen_bool(0.55) {
                let op = gen_op(&mut rng);
                let pushed = ring.try_push(&op);
                if model.len() < slots {
                    assert!(pushed, "ring rejected with {} of {slots} used", model.len());
                    model.push_back(op);
                } else {
                    assert!(!pushed, "ring accepted past capacity {slots}");
                    // A rejected push must not disturb buffered contents:
                    // the front still pops in model order (checked below).
                }
            } else {
                assert_eq!(ring.pop(), model.pop_front());
            }
            assert_eq!(ring.len(), model.len());
            assert_eq!(ring.is_empty(), model.is_empty());
        }
        // Drain the tail; indices have wrapped the slot array many times.
        while let Some(got) = ring.pop() {
            assert_eq!(Some(got), model.pop_front());
        }
        assert!(model.is_empty());
        assert_eq!(ring.enqueued(), ring.drained());
    }
    assert!(cases >= 100_000, "only {cases} cases ran");
}

/// A full ring rejects pushes without corrupting what is buffered: after
/// filling, every rejected push leaves the ring draining exactly the
/// accepted prefix, in order.
#[test]
fn full_ring_rejection_preserves_buffered_contents() {
    let mut rng = StdRng::seed_from_u64(0xF111_F111);
    for _ in 0..2_000 {
        let ring = IngestRing::with_capacity(4);
        let accepted: Vec<IngestOp> = (0..4).map(|_| gen_op(&mut rng)).collect();
        for op in &accepted {
            assert!(ring.try_push(op));
        }
        for _ in 0..8 {
            assert!(!ring.try_push(&gen_op(&mut rng)), "full ring must reject");
        }
        let drained: Vec<IngestOp> = std::iter::from_fn(|| ring.pop()).collect();
        assert_eq!(drained, accepted);
    }
}

/// SPSC under real concurrency: a producer thread pushes a seeded
/// sequence while the consumer pops from another thread; the consumer
/// observes exactly the produced sequence, in order, with the
/// enqueued/drained accounting exact at the join.
#[test]
fn spsc_fifo_holds_across_racing_threads() {
    const OPS: usize = 60_000;
    let mut rng = StdRng::seed_from_u64(0x5950_5950);
    let produced: Vec<IngestOp> = (0..OPS).map(|_| gen_op(&mut rng)).collect();
    let ring = IngestRing::with_capacity(8);
    let consumed = std::thread::scope(|s| {
        let producer = {
            let (ring, produced) = (&ring, &produced);
            s.spawn(move || {
                for op in produced {
                    while !ring.try_push(op) {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let consumer = {
            let ring = &ring;
            s.spawn(move || {
                let mut out = Vec::with_capacity(OPS);
                while out.len() < OPS {
                    match ring.pop() {
                        Some(op) => out.push(op),
                        None => std::thread::yield_now(),
                    }
                }
                out
            })
        };
        producer.join().expect("producer panicked");
        consumer.join().expect("consumer panicked")
    });
    assert_eq!(consumed, produced);
    assert!(ring.is_empty());
    assert_eq!(ring.enqueued(), OPS as u64);
    assert_eq!(ring.drained(), OPS as u64);
}
