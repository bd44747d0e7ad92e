//! The five workloads: what is primed, what each client thread sends, and
//! what every op must return.
//!
//! Streams are generated from the seed during set-up and every expectation
//! is filled in by the reference [`Model`], so the engine under test only
//! ever receives generated inputs and generator cost is never timed.

use std::time::Instant;

use spc_rng::{Rng, SeedableRng, SliceRandom, StdRng};
use spc_workload::{Churn, Popularity, RequestGen, TrafficCfg};

use crate::ops::{Model, Op, Stream, Verb, NONE};

/// Flows per timed window (`probe_mix` windows hold 70 verbs instead).
pub const WINDOW: usize = 64;
/// Shards of the concurrent engines.
pub const SHARDS: usize = 8;
/// Ingest-ring capacity per (producer, shard).
pub const BATCH: usize = 64;

/// Tag spaces: traffic stays below `STANDING_TAG`, so standing receives and
/// resident messages are walked past but never consumed.
const STANDING_TAG: i32 = 1 << 20;
const RESIDENT_TAG: i32 = 1 << 21;
const MISS_TAG: i32 = 1 << 22;
const CANCEL_TAG: i32 = 1 << 23;
/// Handle spaces, disjoint from per-flow handles (`thread << 32 | n`).
const STANDING_REQ: u64 = 1 << 40;
const RESIDENT_PAYLOAD: u64 = 1 << 41;
const CANCEL_REQ: u64 = 1 << 42;

/// What drives a workload's ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One client thread calling one `MatchEngine`.
    Single,
    /// Client threads feeding one `BatchedEngine`, one producer each.
    Batched,
    /// One `MatchEngine` walked through the cache simulator, heater off
    /// and on, caches flushed before every window.
    Simulated,
}

/// Name and one-line reason of each workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "deep_scan",
        "osu_bw windows behind 1024 standing receives: the list walk is >=90% of the time (paper Fig. 4-7)",
    ),
    (
        "shallow_churn",
        "Zipf flows at depth 8 with probes and cancels: fixed per-op cost dominates (paper Table 1, Fig. 1)",
    ),
    (
        "mt_ingest",
        "2 producers through rings into 8 shards with 1/64 ANY_SOURCE posts: the whole op life, concurrency stack dominates",
    ),
    (
        "probe_mix",
        "2 threads, 3/4 iprobe against 256 resident messages while writers republish: lock-free read paths under interference",
    ),
    (
        "cold_window",
        "deep_scan windows in the cache simulator, flushed per window, heater off and on: the paper's thesis, on counts",
    ),
];

/// One generated workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What drives the ops.
    pub kind: Kind,
    /// Standing receives and resident messages, applied before timing.
    pub prime: Vec<Op>,
    /// One op stream per client thread.
    pub streams: Vec<Stream>,
    /// Wall time of generation, per generated flow.
    pub gen_ns_per_req: f64,
}

impl Workload {
    /// Client threads.
    pub fn threads(&self) -> usize {
        self.streams.len()
    }

    /// `(prq, umq)` lengths at quiescence: what was primed and nothing more.
    pub fn quiescent_lens(&self) -> (usize, usize) {
        let posts = self.prime.iter().filter(|o| o.verb == Verb::Post).count();
        (posts, self.prime.len() - posts)
    }

    /// Share of flows from the most popular source, and share of flows on
    /// the unexpected path (arrival before its receive), both in percent.
    pub fn shape(&self) -> (f64, f64) {
        let mut by_src = std::collections::BTreeMap::new();
        let (mut flows, mut unexpected) = (0u64, 0u64);
        for op in self.streams.iter().flat_map(|s| s.ops()) {
            if op.verb == Verb::Arrive {
                flows += 1;
                unexpected += (op.expect == NONE) as u64;
                *by_src.entry(op.src).or_insert(0u64) += 1;
            }
        }
        let top = by_src.values().copied().max().unwrap_or(0);
        let pct = |n: u64| 100.0 * n as f64 / flows.max(1) as f64;
        (pct(top), pct(unexpected))
    }
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let t0 = Instant::now();
    let (name, kind, prime, streams) = match name {
        "deep_scan" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
            let prime = standing(&mut rng, 1024, 251);
            (
                "deep_scan",
                Kind::Single,
                prime,
                vec![scan_windows(&mut rng, 256)],
            )
        }
        "cold_window" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
            let prime = standing(&mut rng, 1024, 251);
            (
                "cold_window",
                Kind::Simulated,
                prime,
                vec![scan_windows(&mut rng, 32)],
            )
        }
        "shallow_churn" => {
            let (prime, stream) = shallow_churn(seed);
            ("shallow_churn", Kind::Single, prime, vec![stream])
        }
        "mt_ingest" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x17);
            // 8 standing receives per shard: sources 0..64 spread evenly mod 8.
            let prime = (0..SHARDS * 8)
                .map(|j| {
                    let src = (j % SHARDS + SHARDS * rng.gen_range(0..8usize)) as i32;
                    Op::post(src, STANDING_TAG + j as i32, STANDING_REQ + j as u64)
                })
                .collect();
            let streams = (0..2).map(|t| ingest_stream(&mut rng, t)).collect();
            ("mt_ingest", Kind::Batched, prime, streams)
        }
        "probe_mix" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9B);
            // 256 resident messages, 32 per shard.
            let prime: Vec<Op> = (0..256)
                .map(|j| Op::arrive(j % 64, RESIDENT_TAG + j, RESIDENT_PAYLOAD + j as u64))
                .collect();
            let streams = (0..2).map(|t| probe_stream(&mut rng, t, &prime)).collect();
            ("probe_mix", Kind::Batched, prime, streams)
        }
        _ => return None,
    };
    let mut w = Workload {
        name,
        kind,
        prime,
        streams,
        gen_ns_per_req: 0.0,
    };
    fill_expectations(&mut w);
    let flows = w
        .streams
        .iter()
        .flat_map(|s| s.ops())
        .filter(|o| o.verb == Verb::Arrive)
        .count();
    w.gen_ns_per_req = t0.elapsed().as_nanos() as f64 / flows.max(1) as f64;
    Some(w)
}

/// Runs every thread's stream through the reference model on top of the
/// primed queues. Keys are thread-private, so each thread's outcomes do
/// not depend on the other's; only `queue_lens` is racy with two threads.
fn fill_expectations(w: &mut Workload) {
    let mut primed = Model::default();
    for op in &mut w.prime {
        op.expect = primed.apply(op, false);
        assert_eq!(op.expect, NONE, "primed entries must queue");
    }
    let racy = w.streams.len() > 1;
    for s in &mut w.streams {
        let mut m = primed.clone();
        let mut out = Stream::new();
        for i in 0..s.windows() {
            for op in s.window(i) {
                let mut op = *op;
                op.expect = m.apply(&op, racy);
                out.push(op);
            }
            out.end_window();
            // A window must leave the queues as it found them: runs cycle
            // through the stream, and expectations must hold on every lap.
            assert_eq!(m.lens(), primed.lens(), "window {i} leaked entries");
        }
        *s = out;
    }
}

fn flow_handle(thread: usize, n: usize) -> u64 {
    (thread as u64) << 32 | (n as u64 + 1)
}

/// `n` never-matching receives over `sources` sources.
fn standing(rng: &mut StdRng, n: usize, sources: i32) -> Vec<Op> {
    (0..n)
        .map(|i| {
            Op::post(
                rng.gen_range(0..sources),
                STANDING_TAG + i as i32,
                STANDING_REQ + i as u64,
            )
        })
        .collect()
}

/// osu_bw-style windows: post 64 receives, then deliver their 64 messages.
/// Messages arrive in seeded order, as from 64 independent senders, so each
/// walks the standing receives plus the window's receives still waiting.
fn scan_windows(rng: &mut StdRng, windows: usize) -> Stream {
    let mut s = Stream::new();
    for w in 0..windows {
        let mut flows: Vec<(i32, i32, u64)> = (0..WINDOW)
            .map(|i| {
                let n = w * WINDOW + i;
                (rng.gen_range(0..251), n as i32, flow_handle(0, n))
            })
            .collect();
        for &(src, tag, h) in &flows {
            s.push(Op::post(src, tag, h));
        }
        flows.shuffle(rng);
        for &(src, tag, h) in &flows {
            s.push(Op::arrive(src, tag, h));
        }
        s.end_window();
    }
    s
}

/// Zipf(1.0) flows over 256 sources with a rotating hot set, 20% on the
/// unexpected path, at standing depth 8. Every 16th flow probes before its
/// receive is posted; every 32nd is followed by a post that is cancelled.
fn shallow_churn(seed: u64) -> (Vec<Op>, Stream) {
    let mut gen = RequestGen::new(TrafficCfg {
        sources: 256,
        tags: 8,
        popularity: Popularity::Zipf { s: 1.0 },
        unexpected_frac: 0.2,
        churn: Some(Churn {
            every: 8192,
            stride: 37,
        }),
        seed,
    });
    let prime = (0..8)
        .map(|i| {
            Op::post(
                gen.next_request().source,
                STANDING_TAG + i,
                STANDING_REQ + i as u64,
            )
        })
        .collect();
    let mut s = Stream::new();
    for n in 0..1024 * WINDOW {
        let r = gen.next_request();
        let h = flow_handle(0, n);
        let probe = (n % 16 == 15).then(|| Op::probe(r.source, r.tag));
        if r.unexpected {
            s.push(Op::arrive(r.source, r.tag, h));
            s.extend(probe);
            s.push(Op::post(r.source, r.tag, h));
        } else {
            s.extend(probe);
            s.push(Op::post(r.source, r.tag, h));
            s.push(Op::arrive(r.source, r.tag, h));
        }
        if n % 32 == 31 {
            s.push(Op::post(r.source, CANCEL_TAG + r.tag, CANCEL_REQ + h));
            s.push(Op::cancel(CANCEL_REQ + h));
        }
        if n % WINDOW == WINDOW - 1 {
            s.end_window();
        }
    }
    (prime, s)
}

/// Matched flows on thread-private tags over 64 sources both threads share,
/// so shard locks collide but every flow's outcome is determined. A thread
/// keeps one to four receives outstanding: it posts a group, then the
/// group's messages arrive in seeded order. One post in 64 names
/// `ANY_SOURCE`.
fn ingest_stream(rng: &mut StdRng, thread: usize) -> Stream {
    let mut s = Stream::new();
    let mut n = 0;
    for _ in 0..512 {
        let mut left = WINDOW;
        while left > 0 {
            let mut group: Vec<(i32, i32, u64)> = (0..rng.gen_range(1..5).min(left))
                .map(|_| {
                    let tag = ((thread << 16) + n % WINDOW) as i32;
                    n += 1;
                    (rng.gen_range(0..64), tag, flow_handle(thread, n))
                })
                .collect();
            left -= group.len();
            for &(src, tag, h) in &group {
                s.push(if h % 64 == 0 {
                    Op::post_any_source(src, tag, h)
                } else {
                    Op::post(src, tag, h)
                });
            }
            group.shuffle(rng);
            for &(src, tag, h) in &group {
                s.push(Op::arrive(src, tag, h));
            }
        }
        s.end_window();
    }
    s
}

/// Every window is a seeded shuffle of the same deck: 26 probes that hit a
/// resident message, 26 that miss, 3 `queue_lens` and 3 `stats` reads, and
/// 12 steps of 6 unexpected-path write flows on thread-private tags. A flow
/// step delivers a new message or posts the receive for one already
/// waiting (seeded choice), so receives chase their messages out of order.
fn probe_stream(rng: &mut StdRng, thread: usize, resident: &[Op]) -> Stream {
    #[derive(Clone, Copy)]
    enum Draw {
        Hit,
        Miss,
        Lens,
        Stats,
        FlowStep,
    }
    const FLOWS: usize = 6;
    let mut deck = Vec::new();
    for (draw, n) in [
        (Draw::Hit, 26),
        (Draw::Miss, 26),
        (Draw::Lens, 3),
        (Draw::Stats, 3),
        (Draw::FlowStep, 2 * FLOWS),
    ] {
        deck.extend(std::iter::repeat_n(draw, n));
    }
    let mut s = Stream::new();
    for w in 0..512 {
        deck.shuffle(rng);
        let mut delivered = 0;
        let mut waiting: Vec<(i32, i32, u64)> = Vec::new();
        for (i, draw) in deck.iter().enumerate() {
            match draw {
                Draw::Hit => {
                    let r = resident.choose(rng).expect("resident messages exist");
                    s.push(Op::probe(r.src, r.tag));
                }
                Draw::Miss => s.push(Op::probe(rng.gen_range(0..64), MISS_TAG + i as i32)),
                Draw::Lens => s.push(Op::lens()),
                Draw::Stats => s.push(Op::stats()),
                Draw::FlowStep => {
                    let deliver = match (delivered < FLOWS, waiting.is_empty()) {
                        (true, false) => rng.gen_bool(0.5),
                        (can_deliver, _) => can_deliver,
                    };
                    if deliver {
                        let (src, tag) =
                            (rng.gen_range(0..64), ((thread << 16) + delivered) as i32);
                        let h = flow_handle(thread, w * FLOWS + delivered);
                        delivered += 1;
                        s.push(Op::arrive(src, tag, h));
                        waiting.push((src, tag, h));
                    } else {
                        let (src, tag, h) = waiting.swap_remove(rng.gen_range(0..waiting.len()));
                        s.push(Op::post(src, tag, h));
                    }
                }
            }
        }
        s.end_window();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for (name, _) in WORKLOADS {
            let hashes = |seed| -> Vec<u64> {
                let w = build(name, seed).expect("known workload");
                w.streams.iter().map(Stream::hash).collect()
            };
            assert_eq!(hashes(7), hashes(7), "{name}: same seed");
            assert_ne!(hashes(7), hashes(8), "{name}: other seed");
        }
    }

    #[test]
    fn workload_shapes_are_as_documented() {
        let w = build("deep_scan", 1).unwrap();
        assert_eq!(w.quiescent_lens(), (1024, 0));
        assert_eq!(w.streams[0].window(0).len(), 2 * WINDOW);

        let w = build("shallow_churn", 1).unwrap();
        let (top1, unexpected) = w.shape();
        assert!(
            (15.0..25.0).contains(&unexpected),
            "unexpected {unexpected}%"
        );
        assert!(top1 > 2.0, "zipf head {top1}%");
        let ops = w.streams[0].ops();
        let share = |v| ops.iter().filter(|o| o.verb == v).count() as f64 / (1024 * WINDOW) as f64;
        assert_eq!(share(Verb::Probe), 1.0 / 16.0);
        assert_eq!(share(Verb::Cancel), 1.0 / 32.0);
        // A probe in an unexpected flow sees the message; in an expected flow it misses.
        assert!(ops
            .iter()
            .any(|o| o.verb == Verb::Probe && o.expect != NONE));
        assert!(ops
            .iter()
            .any(|o| o.verb == Verb::Probe && o.expect == NONE));

        let w = build("mt_ingest", 1).unwrap();
        assert_eq!((w.threads(), w.quiescent_lens()), (2, (64, 0)));
        let wild = w.streams[0].ops().iter().filter(|o| o.wild).count();
        assert_eq!(wild, 512);
        for shard in 0..SHARDS {
            let n = w
                .prime
                .iter()
                .filter(|o| o.src as usize % SHARDS == shard)
                .count();
            assert_eq!(n, 8, "standing depth of shard {shard}");
        }

        let w = build("probe_mix", 1).unwrap();
        assert_eq!((w.threads(), w.quiescent_lens()), (2, (0, 256)));
        let ops = w.streams[1].ops();
        let probes = ops.iter().filter(|o| o.verb == Verb::Probe).count() as f64;
        let hits = ops
            .iter()
            .filter(|o| o.verb == Verb::Probe && o.expect != NONE)
            .count() as f64;
        assert_eq!(probes / ops.len() as f64, 52.0 / 70.0);
        assert_eq!(hits / probes, 0.5);
    }
}
