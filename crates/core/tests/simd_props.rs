//! Differential properties: SIMD slab kernels vs the scalar packed scan.
//!
//! The vector kernels in `spc_core::simd` must be **bit-for-bit** equivalent
//! to the scalar packed loop they accelerate — same candidate bitmaps, same
//! hole bitmaps, same first-hit index, and (because every `AccessSink`
//! charge in the list walks is derived from those bitmaps) identical
//! simulated memory traces. These properties drive every node width
//! `2..=32`, every occupancy pattern (exhaustive up to 8 slots, sampled
//! above), and the full wildcard/masked probe space from `packed_props.rs`
//! through all three scan kinds and require exact agreement. Driven by the
//! in-repo seeded PRNG so failures reproduce exactly.

use spc_core::addr::AddrSpace;
use spc_core::entry::{Element, Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use spc_core::list::{BaselineList, Lla, MatchList, Search};
use spc_core::simd::{self, ScanKind};
use spc_core::sink::{Access, TraceSink};
use spc_core::{ANY_SOURCE, ANY_TAG};
use spc_rng::{Rng, SeedableRng, StdRng};

/// The kinds this CPU can execute (always includes `Portable`).
fn supported_kinds() -> Vec<ScanKind> {
    let best = simd::detect_best();
    ScanKind::ALL.into_iter().filter(|k| *k <= best).collect()
}

fn biased_tag(rng: &mut StdRng) -> i32 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..4i32),
        1 => rng.gen_range(0..1024i32),
        2 => i32::MAX - rng.gen_range(0..2i32),
        _ => rng.gen_range(0..i32::MAX),
    }
}

fn biased_rank(rng: &mut StdRng) -> i32 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..4i32),
        1 => rng.gen_range(32_000..70_000i32),
        2 => 65_535,
        _ => rng.gen_range(0..1_000_000i32),
    }
}

fn biased_ctx(rng: &mut StdRng) -> u16 {
    match rng.gen_range(0..3u32) {
        0 => 0,
        1 => rng.gen_range(0..3u32) as u16,
        // Includes u16::MAX, the reserved hole context — probes carrying it
        // are exactly what the kernels' hole bitmaps must not confuse with
        // candidate matches.
        _ => (rng.next_u64() & 0xFFFF) as u16,
    }
}

/// A live (never-hole) posted entry covering every wildcard combination.
fn live_posted(rng: &mut StdRng, req: u64) -> PostedEntry {
    let rank = if rng.gen_bool(0.25) {
        ANY_SOURCE
    } else {
        biased_rank(rng)
    };
    let tag = if rng.gen_bool(0.25) {
        ANY_TAG
    } else {
        biased_tag(rng)
    };
    PostedEntry::from_spec(RecvSpec::new(rank, tag, biased_ctx(rng)), req)
}

/// Degenerate raw envelopes included (negative fields, reserved context).
fn random_envelope(rng: &mut StdRng) -> Envelope {
    let rank = if rng.gen_range(0..16u32) == 0 {
        -biased_rank(rng)
    } else {
        biased_rank(rng)
    };
    let tag = if rng.gen_range(0..16u32) == 0 {
        -biased_tag(rng)
    } else {
        biased_tag(rng)
    };
    Envelope {
        rank,
        tag,
        context_id: biased_ctx(rng),
    }
}

fn random_spec(rng: &mut StdRng) -> RecvSpec {
    let rank = if rng.gen_bool(0.25) {
        ANY_SOURCE
    } else {
        biased_rank(rng)
    };
    let tag = if rng.gen_bool(0.25) {
        ANY_TAG
    } else {
        biased_tag(rng)
    };
    RecvSpec::new(rank, tag, biased_ctx(rng))
}

/// Occupancy patterns for a `width`-slot slab: exhaustive when the space is
/// small (`<= 8` slots), sampled (plus the all-live / all-hole / alternating
/// edges) above.
fn occupancy_patterns(width: usize, rng: &mut StdRng) -> Vec<u32> {
    let full: u32 = (u32::MAX as u64 >> (32 - width)) as u32;
    if width <= 8 {
        (0..=full).collect()
    } else {
        let mut v = vec![
            0,
            full,
            0x5555_5555 & full,
            0xAAAA_AAAA & full,
            1,
            1 << (width - 1),
        ];
        for _ in 0..64 {
            v.push((rng.next_u64() as u32) & full);
        }
        v
    }
}

#[test]
fn posted_slab_scans_agree_for_every_width_and_occupancy() {
    let kinds = supported_kinds();
    let mut rng = StdRng::seed_from_u64(0x51D0_0001);
    let mut hits = 0u64;
    for width in 2..=32usize {
        for pattern in occupancy_patterns(width, &mut rng) {
            let slab: Vec<PostedEntry> = (0..width)
                .map(|i| {
                    if pattern & (1 << i) != 0 {
                        live_posted(&mut rng, i as u64)
                    } else {
                        PostedEntry::hole()
                    }
                })
                .collect();
            for _ in 0..3 {
                let probe = random_envelope(&mut rng).packed();
                let want = simd::scan_slab(ScanKind::Portable, &slab, &probe);
                // The hole bitmap is exactly the pattern's complement, and a
                // live candidate only ever sits on a live slot.
                let full: u32 = (u32::MAX as u64 >> (32 - width)) as u32;
                assert_eq!(want.holes, !pattern & full, "width {width}");
                for &k in &kinds {
                    let got = simd::scan_slab(k, &slab, &probe);
                    assert_eq!(got, want, "{k:?} width {width} pattern {pattern:#x}");
                    assert_eq!(
                        simd::scan_candidates(k, &slab, &probe),
                        want.cand,
                        "{k:?} width {width} pattern {pattern:#x}"
                    );
                    // First live hit — the index the LLA walk acts on.
                    let live = got.cand & !got.holes;
                    assert_eq!(live, want.cand & !want.holes);
                    if live != 0 {
                        assert_eq!(
                            live.trailing_zeros(),
                            (want.cand & !want.holes).trailing_zeros()
                        );
                    }
                }
                hits += u64::from((want.cand & !want.holes) != 0);
            }
        }
    }
    assert!(hits > 500, "only {hits} slab hits; generator bias broken");
}

#[test]
fn unexpected_slab_scans_agree_for_every_width_and_occupancy() {
    let kinds = supported_kinds();
    let mut rng = StdRng::seed_from_u64(0x51D0_0002);
    let mut hits = 0u64;
    for width in 2..=32usize {
        for pattern in occupancy_patterns(width, &mut rng) {
            let slab: Vec<UnexpectedEntry> = (0..width)
                .map(|i| {
                    if pattern & (1 << i) != 0 {
                        UnexpectedEntry::from_envelope(random_envelope(&mut rng), i as u64)
                    } else {
                        UnexpectedEntry::hole()
                    }
                })
                .collect();
            for _ in 0..3 {
                let probe = random_spec(&mut rng).packed();
                let want = simd::scan_slab(ScanKind::Portable, &slab, &probe);
                for &k in &kinds {
                    assert_eq!(
                        simd::scan_slab(k, &slab, &probe),
                        want,
                        "{k:?} width {width} pattern {pattern:#x}"
                    );
                }
                hits += u64::from((want.cand & !want.holes) != 0);
            }
        }
    }
    assert!(hits > 300, "only {hits} slab hits; generator bias broken");
}

/// One probe step's full observable outcome: match identity, reported
/// depth, and the byte-exact access trace.
type Step = (Option<u64>, u32, Vec<Access>);

/// Runs a fixed seeded script — appends with wildcards, hole punches, then
/// a probe mix of hits/misses/wildcard-only matches — against `list`,
/// recording the outcome and trace of every `search` call.
fn run_script<L: MatchList<PostedEntry>>(
    list: &mut L,
    seed: u64,
    search: impl Fn(&mut L, &Envelope, &mut TraceSink) -> Search<PostedEntry>,
) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = TraceSink::new();
    // Small alphabet so probes hit at varied FIFO positions.
    for i in 0..150u64 {
        let rank = rng.gen_range(0..6i32);
        let tag = rng.gen_range(0..8i32);
        let e = if rng.gen_range(0..8u32) == 0 {
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, tag, 0), i)
        } else {
            PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), i)
        };
        list.append(e, &mut s);
    }
    let mut steps = Vec::new();
    // Punch holes and probe, interleaved: every removal changes the
    // occupancy patterns the next scan sees. The last probe is a guaranteed
    // full-length miss, exercising the complete walk.
    let probes = (0..120)
        .map(|_| Envelope::new(rng.gen_range(0..7i32), rng.gen_range(0..9i32), 0))
        .chain([Envelope::new(99, 99, 9)])
        .collect::<Vec<_>>();
    for probe in &probes {
        s.clear();
        let r = search(list, probe, &mut s);
        steps.push((r.found.map(|e| e.request), r.depth, s.trace.clone()));
    }
    // The script must actually exercise hits, not just misses.
    let hits = steps.iter().filter(|s| s.0.is_some()).count();
    assert!(hits > 20, "seed {seed:#x}: only {hits} hits");
    steps
}

/// How a script run searches an LLA.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// `MatchList::search_remove` — the production entry point.
    Default,
    /// `Lla::search_remove_as` under the named kernel.
    Kind(ScanKind),
    /// `Lla::search_remove_fieldwise` — the reference scan.
    Fieldwise,
}

fn lla_script<const N: usize>(via: Via, seed: u64) -> Vec<Step> {
    let mut l: Lla<PostedEntry, N> = Lla::with_addr(AddrSpace::contiguous(1 << 30));
    run_script(&mut l, seed, |l, p, s| match via {
        Via::Default => l.search_remove(p, s),
        Via::Kind(k) => l.search_remove_as(k, p, s),
        Via::Fieldwise => l.search_remove_fieldwise(p, s),
    })
}

/// The script over the LLA bitmap path (N = 2, 8, 32) and the windowed
/// large-arity path (N = 48 spans two windows).
fn lla_scripts(via: Via) -> [(&'static str, Vec<Step>); 4] {
    [
        ("lla2", lla_script::<2>(via, 0x51D0_0010)),
        ("lla8", lla_script::<8>(via, 0x51D0_0011)),
        ("lla32", lla_script::<32>(via, 0x51D0_0012)),
        ("lla48", lla_script::<48>(via, 0x51D0_0013)),
    ]
}

/// `got` and `want` agree on match identity and depth at every step, and —
/// when `traces` — on the byte-exact access trace too.
fn assert_steps_equal(what: &str, got: &[Step], want: &[Step], traces: bool) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{what} step {i} found differs");
        assert_eq!(g.1, w.1, "{what} step {i} depth differs");
        if traces {
            assert_eq!(g.2, w.2, "{what} step {i} trace differs");
        }
    }
}

/// Under `kind`, every LLA shape produces the portable kernel's byte-exact
/// access traces, and the reference scan's match identities and depths
/// (the field-wise scan charges hole slots too, so its traces differ by
/// design).
fn kind_matches_portable_and_fieldwise(kind: ScanKind) {
    let got = lla_scripts(Via::Kind(kind));
    let portable = lla_scripts(Via::Kind(ScanKind::Portable));
    let fieldwise = lla_scripts(Via::Fieldwise);
    for ((name, g), ((_, p), (_, f))) in got.iter().zip(portable.iter().zip(&fieldwise)) {
        assert_steps_equal(&format!("{name} {kind:?} vs portable"), g, p, true);
        assert_steps_equal(&format!("{name} {kind:?} vs fieldwise"), g, f, false);
    }
}

#[test]
fn portable_lists_match_the_reference_scan() {
    kind_matches_portable_and_fieldwise(ScanKind::Portable);
}

#[test]
fn simd128_lists_trace_identically_to_portable() {
    kind_matches_portable_and_fieldwise(ScanKind::Simd128);
}

#[test]
fn simd256_lists_trace_identically_to_portable() {
    kind_matches_portable_and_fieldwise(ScanKind::Simd256);
}

/// `search_remove` is `search_remove_as(detect_best())`: byte-identical
/// traces on every LLA shape. The baseline list has one walk, so its
/// default run is checked against its own reference scan, whose charges
/// it reproduces exactly.
#[test]
fn default_search_is_the_detected_kind() {
    let default = lla_scripts(Via::Default);
    let detected = lla_scripts(Via::Kind(simd::detect_best()));
    for ((name, d), (_, k)) in default.iter().zip(&detected) {
        assert_steps_equal(&format!("{name} default vs detected"), d, k, true);
    }

    let base = || BaselineList::<PostedEntry>::with_addr(AddrSpace::contiguous(1 << 34));
    let packed = run_script(&mut base(), 0x51D0_0014, |l, p, s| l.search_remove(p, s));
    let reference = run_script(&mut base(), 0x51D0_0014, |l, p, s| {
        l.search_remove_fieldwise(p, s)
    });
    assert_steps_equal("baseline packed vs fieldwise", &packed, &reference, true);
}

/// FNV-1a over every step's outcome and every charged access, in order.
fn fold(steps: &[Step]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (found, depth, trace) in steps {
        let accesses = trace
            .iter()
            .flat_map(|a| [a.is_write as u64, a.addr, a.len as u64]);
        for w in [found.unwrap_or(u64::MAX), *depth as u64]
            .into_iter()
            .chain(accesses)
        {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The charge order itself, not only its agreement across kinds (which a
/// reordering every kind shares would pass): the portable and reference
/// runs of every LLA script, folded, as recorded on the walks the chain
/// cursor replaced.
#[test]
fn lla_scripts_charge_the_recorded_accesses() {
    let folds = |via| lla_scripts(via).map(|(name, steps)| (name, fold(&steps)));
    assert_eq!(
        folds(Via::Kind(ScanKind::Portable)),
        [
            ("lla2", 0x86e6_748d_163e_443c),
            ("lla8", 0x6d9c_eff7_adda_719b),
            ("lla32", 0x70e9_9406_ae22_5198),
            ("lla48", 0xe8ba_5094_822d_9a00)
        ]
    );
    assert_eq!(
        folds(Via::Fieldwise),
        [
            ("lla2", 0x86e6_748d_163e_443c),
            ("lla8", 0x10b8_b2ec_188c_0deb),
            ("lla32", 0x5d63_58d7_6ca1_91ce),
            ("lla48", 0xe8ba_5094_822d_9a00)
        ]
    );
}

/// A kind the CPU cannot run is clamped, not executed. The clamp is `min`
/// over `ScanKind`'s derived order, so that order — weakest first — is the
/// safety property: were it wrong, `Simd256` would survive the clamp on a
/// CPU without AVX2.
#[test]
fn a_kind_above_detection_is_clamped_not_executed() {
    assert!(ScanKind::Portable < ScanKind::Simd128 && ScanKind::Simd128 < ScanKind::Simd256);
    let best = simd::detect_best();
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(
        best,
        ScanKind::Portable,
        "no vector kernel exists off x86-64"
    );
    for k in ScanKind::ALL {
        let clamped = simd::clamp_supported(k);
        assert_eq!(clamped, k.min(best));
        // Runs `k` as given: where `k > best` this faults unless clamped.
        let got = lla_script::<8>(Via::Kind(k), 0x51D0_0015);
        let want = lla_script::<8>(Via::Kind(clamped), 0x51D0_0015);
        assert_steps_equal(&format!("{k:?} vs clamped {clamped:?}"), &got, &want, true);
    }
}
