//! Differential properties: SIMD run kernels vs the scalar packed scan.
//!
//! The vector kernels in `spc_core::simd` must be **bit-for-bit** equivalent
//! to the scalar packed loop they accelerate — same candidate bitmaps, same
//! first live hit, and (because every `AccessSink` charge in the list walks
//! is derived from those bitmaps) identical simulated memory traces. These
//! properties drive every slab width `2..=32`, split into every run of
//! equal node slabs, every occupancy pattern (exhaustive up to 8 slots,
//! sampled above), and the full wildcard/masked probe space from
//! `packed_props.rs` through all three scan kinds and require exact
//! agreement. Nodes wider than 32 slots run no kernel: their
//! scripts must reproduce the field-wise reference walk byte for byte.
//! Driven by the in-repo seeded PRNG so failures reproduce exactly.

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
        // are the ones a hole's stale body could packed-match, which only
        // the walk's occupancy mask rules out.
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

/// `slab` scanned under every kind as every run of equal slabs it splits
/// into (`n` slots each, `n` dividing its width): `(kind, n, bitmap)`.
fn scans<E: Element>(
    kinds: &[ScanKind],
    slab: &[E],
    probe: &spc_core::entry::PackedProbe,
) -> Vec<(ScanKind, usize, u32)> {
    let mut out = Vec::new();
    for n in (1..=slab.len()).filter(|&n| slab.len().is_multiple_of(n)) {
        let run: Vec<&[E]> = slab.chunks_exact(n).collect();
        for &k in kinds {
            out.push((k, n, simd::scan_run(k, &run, probe)));
        }
    }
    out
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
                let env = random_envelope(&mut rng);
                let probe = env.packed();
                let want = simd::scan_run(ScanKind::Portable, &[&slab[..]], &probe);
                // On live slots the candidate bitmap is the field-wise match.
                let fieldwise = (0..width)
                    .filter(|&i| pattern >> i & 1 == 1 && slab[i].matches(&env))
                    .fold(0u32, |m, i| m | 1 << i);
                assert_eq!(want & pattern, fieldwise, "width {width}");
                for (k, n, got) in scans(&kinds, &slab, &probe) {
                    assert_eq!(got, want, "{k:?} width {width}/{n} pattern {pattern:#x}");
                    // First live hit — the index the LLA walk acts on.
                    assert_eq!(
                        (got & pattern).trailing_zeros(),
                        (want & pattern).trailing_zeros(),
                        "{k:?} width {width}/{n} pattern {pattern:#x}"
                    );
                }
                hits += u64::from(want & pattern != 0);
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
                let want = simd::scan_run(ScanKind::Portable, &[&slab[..]], &probe);
                for (k, n, got) in scans(&kinds, &slab, &probe) {
                    assert_eq!(got, want, "{k:?} width {width}/{n} pattern {pattern:#x}");
                    // First live hit — the index the LLA walk acts on.
                    assert_eq!(
                        (got & pattern).trailing_zeros(),
                        (want & pattern).trailing_zeros(),
                        "{k:?} width {width}/{n} pattern {pattern:#x}"
                    );
                }
                hits += u64::from(want & pattern != 0);
            }
        }
    }
    assert!(hits > 300, "only {hits} slab hits; generator bias broken");
}

/// One probe step's full observable outcome: match identity, reported
/// depth, and the byte-exact access trace.
type Step = (Option<u64>, u32, Vec<Access>);

/// What a script needs from a queue's element type: entries and probes
/// over a small alphabet, so probes hit at varied FIFO positions, and a
/// probe no entry matches. A hit reports [`Element::id`].
trait Scripted: Element {
    fn entry(rng: &mut StdRng, id: u64) -> Self;
    fn probe(rng: &mut StdRng) -> Self::Probe;
    fn miss() -> Self::Probe;
}

/// The PRQ: receives with ANY_SOURCE posts, probed by concrete envelopes.
impl Scripted for PostedEntry {
    fn entry(rng: &mut StdRng, id: u64) -> Self {
        let rank = rng.gen_range(0..6i32);
        let tag = rng.gen_range(0..8i32);
        if rng.gen_range(0..8u32) == 0 {
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, tag, 0), id)
        } else {
            PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), id)
        }
    }
    fn probe(rng: &mut StdRng) -> Envelope {
        Envelope::new(rng.gen_range(0..7i32), rng.gen_range(0..9i32), 0)
    }
    fn miss() -> Envelope {
        Envelope::new(99, 99, 9)
    }
}

/// The UMQ: concrete messages, probed by receives with ANY_SOURCE and
/// ANY_TAG wildcards.
impl Scripted for UnexpectedEntry {
    fn entry(rng: &mut StdRng, id: u64) -> Self {
        let env = Envelope::new(rng.gen_range(0..6i32), rng.gen_range(0..8i32), 0);
        UnexpectedEntry::from_envelope(env, id)
    }
    fn probe(rng: &mut StdRng) -> RecvSpec {
        let rank = match rng.gen_range(0..8u32) {
            0 => ANY_SOURCE,
            _ => rng.gen_range(0..7i32),
        };
        let tag = match rng.gen_range(0..8u32) {
            0 => ANY_TAG,
            _ => rng.gen_range(0..9i32),
        };
        RecvSpec::new(rank, tag, 0)
    }
    fn miss() -> RecvSpec {
        RecvSpec::new(99, 99, 9)
    }
}

/// Runs a fixed seeded script — 150 appends, then a probe mix of
/// hits/misses/wildcard matches that punches holes as it goes — against
/// `list`, recording the outcome and trace of every `search` call.
fn run_script<E: Scripted, L: MatchList<E>>(
    list: &mut L,
    seed: u64,
    search: impl Fn(&mut L, &E::Probe, &mut TraceSink) -> Search<E>,
) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = TraceSink::new();
    for i in 0..150u64 {
        let e = E::entry(&mut rng, i);
        list.append(e, &mut s);
    }
    let mut steps = Vec::new();
    // Punch holes and probe, interleaved: every removal changes the
    // occupancy patterns the next scan sees. The last probe is a guaranteed
    // full-length miss, exercising the complete walk.
    let probes = (0..120)
        .map(|_| E::probe(&mut rng))
        .chain([E::miss()])
        .collect::<Vec<_>>();
    for probe in &probes {
        s.clear();
        let r = search(list, probe, &mut s);
        steps.push((r.found.map(|e| e.id()), r.depth, s.trace.clone()));
    }
    // The script must actually exercise hits, not just misses.
    let hits = steps.iter().filter(|s| s.0.is_some()).count();
    assert!(hits > 20, "seed {seed:#x}: only {hits} hits");
    assert_eq!(steps[steps.len() - 1].0, None, "the miss probe hit");
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

fn lla_script<E: Scripted, const N: usize>(via: Via, seed: u64) -> Vec<Step> {
    let mut l: Lla<E, N> = Lla::with_addr(AddrSpace::contiguous(1 << 30));
    run_script(&mut l, seed, |l, p, s| match via {
        Via::Default => l.search_remove(p, s),
        Via::Kind(k) => l.search_remove_as(k, p, s),
        Via::Fieldwise => l.search_remove_fieldwise(p, s),
    })
}

/// The script over the PRQ's LLA bitmap path (N = 2, 8, 32), a wide node
/// (N = 48, no occupancy register), which takes the reference walk, and
/// the UMQ every benchmark workload walks (`UnexpectedEntry`, N = 3: an
/// odd width, so the AVX2 kernel runs only its SSE2 tail).
fn lla_scripts(via: Via) -> [(&'static str, Vec<Step>); 5] {
    [
        ("lla2", lla_script::<PostedEntry, 2>(via, 0x51D0_0010)),
        ("lla8", lla_script::<PostedEntry, 8>(via, 0x51D0_0011)),
        ("lla32", lla_script::<PostedEntry, 32>(via, 0x51D0_0012)),
        ("lla48", lla_script::<PostedEntry, 48>(via, 0x51D0_0013)),
        ("umq3", lla_script::<UnexpectedEntry, 3>(via, 0x51D0_0016)),
    ]
}

/// The UMQ script hits at every slot of its 3-slot nodes (`run_script`
/// checks its final full miss). All appends precede the first probe and
/// entries never move, so entry `id` sits in slot `id % 3`.
#[test]
fn umq_script_hits_every_slot() {
    let (_, steps) = &lla_scripts(Via::Kind(ScanKind::Portable))[4];
    let slots = steps
        .iter()
        .filter_map(|s| s.0)
        .fold(0u32, |m, id| m | 1 << (id % 3));
    assert_eq!(slots, 0b111, "hit slots {slots:#b}");
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
/// access traces, and the reference scan's match identities and depths.
/// On bitmap nodes the field-wise scan charges hole slots too, so its
/// traces differ by design; the wide `lla48` node *is* the reference walk,
/// so there its traces must agree as well.
fn kind_matches_portable_and_fieldwise(kind: ScanKind) {
    let got = lla_scripts(Via::Kind(kind));
    let portable = lla_scripts(Via::Kind(ScanKind::Portable));
    let fieldwise = lla_scripts(Via::Fieldwise);
    for ((name, g), ((_, p), (_, f))) in got.iter().zip(portable.iter().zip(&fieldwise)) {
        assert_steps_equal(&format!("{name} {kind:?} vs portable"), g, p, true);
        let traces = *name == "lla48";
        assert_steps_equal(&format!("{name} {kind:?} vs fieldwise"), g, f, traces);
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
            ("lla48", 0xe8ba_5094_822d_9a00),
            ("umq3", 0x7215_3a47_fde0_0ce4)
        ]
    );
    assert_eq!(
        folds(Via::Fieldwise),
        [
            ("lla2", 0x86e6_748d_163e_443c),
            ("lla8", 0x10b8_b2ec_188c_0deb),
            ("lla32", 0x5d63_58d7_6ca1_91ce),
            ("lla48", 0xe8ba_5094_822d_9a00),
            ("umq3", 0x5e0d_8e26_9532_a802)
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
        let got = lla_script::<PostedEntry, 8>(Via::Kind(k), 0x51D0_0015);
        let want = lla_script::<PostedEntry, 8>(Via::Kind(clamped), 0x51D0_0015);
        assert_steps_equal(&format!("{k:?} vs clamped {clamped:?}"), &got, &want, true);
    }
}
