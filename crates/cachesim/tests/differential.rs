//! Differential conformance of the cache simulator: the shipped `MemSim`
//! (floor-stamp liveness, same-line filter, one slot array per level, flat
//! pending table) against the naive reference model in `reference/`, driven
//! in lockstep by seeded step streams and compared after **every** step on
//! simulated time, the step's returned cost, `MemStats`, each level's
//! hit/miss counters and residency, and L3 membership of the touched line —
//! all bit for bit.
//!
//! The second half is the suite's own sensitivity proof, as
//! `adversary_catch.rs` is for the matcher: a reference with a deliberately
//! injected fault must be caught and shrunk to a short trace.

mod reference;

use reference::{Fault, RefSim};
use spc_cachesim::{ArchProfile, HotCacheConfig, MemSim, NetPlacement};
use spc_conformance::shrink_ops;
use spc_rng::{Rng, SeedableRng, StdRng};

/// The "match list": heated, network-classified, walked node by node.
const LIST: (u64, u64) = (1 << 30, 96 * 64);
/// A second network region, not heated.
const NET2: (u64, u64) = (3 << 30, 16 * 64);
/// Compute data: a window small enough to stay resident.
const COMPUTE: u64 = 5 << 40;

/// Everything fixed before the first step (placement is only ever set on a
/// cold hierarchy, as every in-repo caller does).
#[derive(Clone, Copy, Debug)]
struct Setup {
    prof: ArchProfile,
    hot: Option<HotCacheConfig>,
    /// Bytes of `LIST` the heater keeps warm: all of it, or a few lines (so
    /// that a private-cache heater shares L1 sets with demand lines instead
    /// of flooding them).
    heated: u64,
    net: NetPlacement,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Access { addr: u64, len: u32 },
    Flush,
    Advance(f64),
    HeatNow,
    HeaterActive(bool),
    Evict { base: u64, len: u64 },
    Pollute(u64),
}

/// `test_tiny` ships with every prefetcher off; the differential streams
/// want the fill path's prefetch interactions on tiny sets too.
fn tiny_with_prefetchers() -> ArchProfile {
    ArchProfile {
        l1_next_line: true,
        l2_adjacent_pair: true,
        l2_streamer: true,
        streamer_degree: 2,
        ..ArchProfile::test_tiny()
    }
}

/// Stream `s` of a battery: heater kind and placement kind cycle with the
/// index (nine streams cover every pairing), the rest is drawn.
/// The same with a one-set, 4-way L1 and a two-set L2: a demand fill and
/// the prefetches it triggers land in one set under one stamp, so victim
/// choice rides on tie-breaking and on every refresh in between.
fn tiny_one_set_l1() -> ArchProfile {
    let mut prof = tiny_with_prefetchers();
    prof.l1.size = 4 * 64;
    prof.l1.ways = 4;
    prof.l2.size = 8 * 64;
    prof
}

fn setup(rng: &mut StdRng, prof: ArchProfile, s: u64) -> Setup {
    let hot = HotCacheConfig {
        period_ns: [120.0, 300.0, 2_000.0, 50_000.0][rng.gen_range(0..4usize)],
        ..HotCacheConfig::with_element_pool()
    };
    Setup {
        prof,
        hot: [None, Some(hot), Some(hot.smt_sibling())][(s % 3) as usize],
        heated: [3 * 64, LIST.1][rng.gen_range(0..2usize)],
        net: match s / 3 % 3 {
            0 => NetPlacement::None,
            1 => NetPlacement::L3Partition {
                ways: rng.gen_range(1..prof.l3.ways),
            },
            _ => NetPlacement::DedicatedCache {
                bytes: [64, 1024, 2048][rng.gen_range(0..3usize)],
                latency: 4,
            },
        },
    }
}

/// A seeded stream mixing everything the API offers: node walks that charge
/// one line several times (the filter's food), straddling and zero-length
/// accesses, same-set conflict lines for every level, and the cache-wide
/// operations.
fn steps(rng: &mut StdRng, prof: &ArchProfile, n: usize) -> Vec<Step> {
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        match rng.gen_range(0..100u32) {
            // An LLA-style node visit: header, entries and link on one line.
            0..=39 => {
                // Half the visits stay in the list's first dozen nodes, so
                // lines are revisited while their neighbours still matter.
                let span = [12, LIST.1 / 64][rng.gen_range(0..2usize)];
                let node = LIST.0 + rng.gen_range(0..span) * 64;
                for _ in 0..rng.gen_range(1..4u32) {
                    for (off, len) in [(0, 8), (8, 24), (32, 24), (56, 4)] {
                        out.push(Step::Access {
                            addr: node + off,
                            len,
                        });
                    }
                }
            }
            // Compute data with reuse.
            40..=47 => out.push(Step::Access {
                addr: COMPUTE + rng.gen_range(0..4096u64),
                len: rng.gen_range(0..17u32),
            }),
            // Temporal locality: one of the last few accesses again, which
            // is when a wrong eviction choice made since then shows.
            48..=54 => {
                let recent: Vec<&Step> = out
                    .iter()
                    .rev()
                    .filter(|s| matches!(s, Step::Access { .. }))
                    .step_by(4)
                    .take(6)
                    .collect();
                if !recent.is_empty() {
                    out.push(*recent[rng.gen_range(0..recent.len())]);
                }
            }
            // Lines that collide in one set of L1, L2 or L3.
            55..=69 => {
                let level = [prof.l1, prof.l2, prof.l3][rng.gen_range(0..3usize)];
                let stride = level.sets() as u64 * 64;
                out.push(Step::Access {
                    addr: COMPUTE + rng.gen_range(0..28u64) * stride,
                    len: 8,
                });
            }
            // Straddling, multi-line and zero-length accesses anywhere.
            70..=79 => {
                let base = [LIST.0, NET2.0, COMPUTE][rng.gen_range(0..3usize)];
                out.push(Step::Access {
                    addr: base + rng.gen_range(0..1024u64),
                    len: [0, 1, 8, 64, 65, 200][rng.gen_range(0..6usize)],
                });
            }
            80..=84 => out.push(Step::Advance(
                [1.0, 350.0, 2_500.0, 50_001.0][rng.gen_range(0..4usize)],
            )),
            85..=88 => out.push(Step::Pollute(rng.gen_range(1..96u64) * 64)),
            89..=92 => out.push(Step::Evict {
                base: LIST.0 + rng.gen_range(0..LIST.1),
                len: rng.gen_range(0..512u64),
            }),
            93..=95 => out.push(Step::Flush),
            96..=97 => out.push(Step::HeatNow),
            _ => out.push(Step::HeaterActive(rng.gen_bool(0.7))),
        }
    }
    out
}

/// What one side reports after a step.
#[derive(Debug, PartialEq)]
struct Observed {
    cost_bits: u64,
    time_bits: u64,
    stats: spc_cachesim::MemStats,
    /// `(hits, misses)` of L1, L2, L3.
    counters: [(u64, u64); 3],
    /// Resident lines of L1, L2, L3 (`None` on the steps that skip the count).
    resident: Option<[usize; 3]>,
    touched_in_l3: bool,
}

/// Runs `steps` through both models; `Err((index, why))` names the first
/// step after which they disagree. `resident_every` thins the O(slots)
/// residency count on the big profiles; 1 compares it after every step.
fn lockstep(
    cfg: Setup,
    fault: Fault,
    steps: &[Step],
    resident_every: usize,
) -> Result<(), (usize, String)> {
    let mut real = match cfg.hot {
        Some(h) => MemSim::with_hot_cache(cfg.prof, h),
        None => MemSim::new(cfg.prof),
    };
    let mut model = RefSim::new(cfg.prof, cfg.hot, fault);
    real.set_net_regions(&[LIST, NET2]);
    model.set_net_regions(&[LIST, NET2]);
    real.set_net_placement(cfg.net);
    model.set_net_placement(cfg.net);
    real.set_heat_regions(&[(LIST.0, cfg.heated)]);
    model.set_heat_regions(&[(LIST.0, cfg.heated)]);

    for (i, step) in steps.iter().enumerate() {
        let mut touched = LIST.0;
        let (a, b) = match *step {
            Step::Access { addr, len } => {
                touched = addr;
                (real.access(addr, len), model.access(addr, len))
            }
            Step::Pollute(bytes) => (real.pollute(bytes), model.pollute(bytes)),
            Step::Flush => {
                real.flush();
                model.flush();
                (0.0, 0.0)
            }
            Step::Advance(ns) => {
                real.advance(ns);
                model.advance(ns);
                (0.0, 0.0)
            }
            Step::HeatNow => {
                real.heat_now();
                model.heat_now();
                (0.0, 0.0)
            }
            Step::HeaterActive(on) => {
                real.set_heater_active(on);
                model.set_heater_active(on);
                (0.0, 0.0)
            }
            Step::Evict { base, len } => {
                touched = base;
                real.evict_regions(&[(base, len)]);
                model.evict_regions(&[(base, len)]);
                (0.0, 0.0)
            }
        };
        let count = i % resident_every == 0 || matches!(step, Step::Flush);
        let levels = real.levels();
        let shipped = Observed {
            cost_bits: a.to_bits(),
            time_bits: real.time_ns().to_bits(),
            stats: real.stats(),
            counters: levels.map(|l| (l.hits, l.misses)),
            resident: count.then(|| levels.map(|l| l.resident())),
            touched_in_l3: real.in_l3(touched),
        };
        let refs = [&model.l1, &model.l2, &model.l3];
        let expected = Observed {
            cost_bits: b.to_bits(),
            time_bits: model.time_ns.to_bits(),
            stats: model.stats,
            counters: refs.map(|l| (l.hits, l.misses)),
            resident: count.then(|| refs.map(|l| l.resident())),
            touched_in_l3: model.in_l3(touched),
        };
        if shipped != expected {
            return Err((
                i,
                format!("after step {i} ({step:?}) under {cfg:?}:\n shipped {shipped:?}\n model   {expected:?}"),
            ));
        }
    }
    Ok(())
}

/// `streams` seeded streams of `len` steps each over `prof`, every one
/// under its own heater/placement setup.
fn battery(seed: u64, prof: ArchProfile, streams: u64, len: usize, resident_every: usize) {
    assert!(
        streams >= 9,
        "nine streams cover heater kind x placement kind"
    );
    for s in 0..streams {
        let mut rng = StdRng::seed_from_u64(seed ^ (s << 32 | s));
        let cfg = setup(&mut rng, prof, s);
        let ops = steps(&mut rng, &prof, len);
        if let Err((_, why)) = lockstep(cfg, Fault::None, &ops, resident_every) {
            panic!("stream {s} diverged {why}");
        }
    }
}

#[test]
fn test_tiny_agrees_with_the_reference_model() {
    // 2-way L1 and 4-way L2/L3 of 4/8/32 sets: every eviction path fires
    // within a few steps. Residency compared after every step.
    battery(0x7E57_0001, ArchProfile::test_tiny(), 18, 6_000, 1);
    battery(0x7E57_0002, tiny_with_prefetchers(), 18, 6_000, 1);
    battery(0x7E57_0003, tiny_one_set_l1(), 18, 6_000, 1);
}

#[test]
fn sandy_bridge_agrees_with_the_reference_model() {
    // Power-of-two set counts at every level: the masked index.
    battery(0x5A9D_0001, ArchProfile::sandy_bridge(), 9, 23_000, 1_024);
}

#[test]
fn broadwell_agrees_with_the_reference_model() {
    // 36 864 L3 sets: the modulo index.
    assert!(!ArchProfile::broadwell().l3.sets().is_power_of_two());
    battery(0xB4D3_0001, ArchProfile::broadwell(), 9, 23_000, 1_024);
}

/// A faulty reference must diverge on some stream of the battery, and the
/// failing stream must shrink to at most `max_len` steps.
fn convict(fault: Fault, prof: ArchProfile, seed: u64, max_len: usize) {
    for s in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (s << 32 | s));
        let cfg = setup(&mut rng, prof, s);
        let ops = steps(&mut rng, &prof, 4_000);
        let Err((at, _)) = lockstep(cfg, fault, &ops, 1) else {
            continue;
        };
        let min = shrink_ops(&ops[..=at], |t| lockstep(cfg, fault, t, 1).is_err());
        assert!(
            lockstep(cfg, fault, &min, 1).is_err(),
            "shrunk trace must still fail"
        );
        assert!(
            lockstep(cfg, Fault::None, &min, 1).is_ok(),
            "the shrunk trace must convict the fault, not the model"
        );
        println!("{fault:?} caught at step {at} of stream {s}, shrunk to {min:#?} under {cfg:?}");
        assert!(
            min.len() <= max_len,
            "expected a short repro, got {} steps: {min:#?}",
            min.len()
        );
        return;
    }
    panic!("{fault:?} went unnoticed: the differential streams are insensitive to it");
}

/// A filter that answers a repeated line without refreshing its recency
/// would leave every cost unchanged until an eviction picks the wrong way —
/// and the refresh only decides an eviction when something else stamped the
/// set since the line's last demand: a prefetch sharing its fill's stamp in
/// a one-set L1, or a private-cache heater pass. (On the many-set profiles
/// the fault shows in 1 stream of 64; here in more than half.)
#[test]
fn a_model_that_skips_the_refresh_on_a_repeated_line_is_convicted() {
    convict(Fault::StaleRepeat, tiny_one_set_l1(), 0x57A1_E000, 12);
}

/// A filter that answers from L1 without consulting the pending table
/// would under-charge the first demand of a prefetched line.
#[test]
fn a_model_that_forgets_the_pending_bubble_is_convicted() {
    convict(
        Fault::ForgottenBubble,
        tiny_with_prefetchers(),
        0xB0BB_1E00,
        12,
    );
}
