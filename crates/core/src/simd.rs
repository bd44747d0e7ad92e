//! SIMD batch matching over runs of entry slabs.
//! spc-scope: hot-path
//!
//! The packed match test is one `XOR + AND + compare` per entry; an LLA
//! node is a contiguous slab of such entries, and a *run* — consecutive
//! nodes of one pool chunk that the links chain — is several slabs at node
//! stride. The kernels here test 2 (`u64x2`, SSE2) or 4 (`u64x4`, AVX2)
//! packed key/mask pairs per instruction against the probe, across node
//! boundaries, reduce each vector of 64-bit compare results to bits via
//! `movemask`, and hand back one candidate bitmap in slot order that the
//! caller ANDs with the nodes' concatenated occupancy registers and
//! bit-scans to the first live hit.
//!
//! A run ([`scan_run`]) is at most 32 entries: one bitmap node up to 32
//! slots, or up to eight slots of small nodes (four LLA-2 nodes, two LLA-3
//! or LLA-4). The occupancy registers are the only hole test a kernel's
//! caller needs, so no kernel reports holes. Nodes wider than 32 slots have
//! no register and take the LLA's field-wise reference walk instead of a
//! kernel.
//!
//! Three scan kinds exist:
//!
//! * [`ScanKind::Portable`] — the scalar packed loop, compiled everywhere:
//!   the only path off x86-64, and the reference the vector kernels are
//!   tested against;
//! * [`ScanKind::Simd128`] — SSE2 pairs (baseline on every x86-64, no
//!   runtime detection needed): the only vector path on pre-AVX2 CPUs, and
//!   the tail of the AVX2 kernel;
//! * [`ScanKind::Simd256`] — AVX2 quads; the LLA walk that runs them also
//!   counts depth with POPCNT, so the kind requires AVX2 + POPCNT, both
//!   detected at runtime (`is_x86_feature_detected!`).
//!
//! All three are **bit-for-bit equivalent**: same candidate bitmaps, same
//! first-hit index, and — because [`crate::sink::AccessSink`] charges are
//! derived from those bitmaps by the caller — identical simulated memory
//! traces. The differential suite in `tests/simd_props.rs` pins this for
//! every node width, occupancy pattern, and wildcard/masked probe shape.
//!
//! The kind is a property of the CPU, so nothing selects it: list walks run
//! under [`detect_best`]. Tests and the benchmark gate name a weaker kernel
//! as an argument to the LLA's search, which passes it through
//! [`clamp_supported`] so a kind the CPU cannot run degrades instead of
//! faulting.
//!
//! ## Why masks need a word transform
//!
//! The vector kernels load each entry's **raw second word** (bytes 8..16)
//! and must turn it into [`crate::entry::Element::packed_mask`] without a
//! scalar call per lane. Both element types admit the same affine form
//! `packed_mask == (word1 & MASK_WORD_AND) | MASK_WORD_OR`:
//!
//! * `PostedEntry`: word1 is `tag_mask | (rank_mask << 32)`; the packed
//!   mask keeps the low 48 bits of that (rank masks are 16-bit) and always
//!   constrains the context bits, so `AND = 0x0000FFFF_FFFFFFFF`,
//!   `OR = 0xFFFF << 48`.
//! * `UnexpectedEntry`: word1 is the payload handle — matching garbage —
//!   and the packed mask is the constant `!0`, so `AND = 0`, `OR = !0`.
//!
//! The constants live on the [`Element`] trait and the contract is pinned
//! by transmute property tests next to the packed-key prefix-byte pin.

use crate::entry::{packed_matches, Element, PackedProbe};

/// A slab-scan kernel, ordered weakest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScanKind {
    /// Scalar packed loop — compiled on every architecture.
    Portable,
    /// SSE2 `u64x2` kernel (x86-64 baseline, always safe to run there).
    Simd128,
    /// AVX2 `u64x4` kernel, walked with POPCNT depth counts (requires both
    /// AVX2 and POPCNT, each detected at runtime).
    Simd256,
}

impl ScanKind {
    /// Stable lowercase name (the bench gate's `scan_kind` JSON column).
    pub fn as_str(self) -> &'static str {
        match self {
            ScanKind::Portable => "portable",
            ScanKind::Simd128 => "simd128",
            ScanKind::Simd256 => "simd256",
        }
    }

    /// All kinds, weakest first.
    pub const ALL: [ScanKind; 3] = [ScanKind::Portable, ScanKind::Simd128, ScanKind::Simd256];
}

/// The best kind this CPU can actually execute. `Simd256` needs POPCNT
/// beside AVX2 because its LLA walk is compiled with both; every AVX2 CPU
/// has POPCNT, but the check keeps that walk's safety contract explicit.
#[cfg(target_arch = "x86_64")]
pub fn detect_best() -> ScanKind {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        ScanKind::Simd256
    } else {
        // SSE2 is part of the x86-64 baseline ISA: no detection needed.
        ScanKind::Simd128
    }
}

/// The best kind this CPU can actually execute (portable fallback: no
/// vector kernels are compiled off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub fn detect_best() -> ScanKind {
    ScanKind::Portable
}

/// Clamps a requested kind to what the CPU supports. This is the safety
/// check that keeps the AVX2 kernel and the AVX2 + POPCNT walk off CPUs
/// without both features: every kind handed to [`scan_run`] must
/// have passed through here.
#[inline]
pub fn clamp_supported(k: ScanKind) -> ScanKind {
    k.min(detect_best())
}

/// Whether the vector kernels can walk `E`'s in-memory layout directly:
/// word-granular stride and word-aligned fields (both entry types satisfy
/// this; a hypothetical packed element would fall back to the scalar loop).
const fn vectorizable<E: Element>() -> bool {
    core::mem::size_of::<E>().is_multiple_of(8)
        && core::mem::size_of::<E>() >= 16
        && core::mem::align_of::<E>() >= 8
}

/// A node whose entries form one slab: what a run is made of. Every slab of
/// one run has the same length.
pub trait Slab {
    /// The entry type the slab holds.
    type Entry: Element;
    /// The node's entries, holes included.
    fn slab(&self) -> &[Self::Entry];
}

/// A bare slice is a run of one slab, or of several when a caller splits
/// one (the kernel tests do).
impl<E: Element> Slab for &[E] {
    type Entry = E;
    #[inline(always)]
    fn slab(&self) -> &[E] {
        self
    }
}

/// Scans a run of slabs, at most 32 entries in all, returning the candidate
/// bitmap in slot order across the run: bit `j · n + i` set ⟺ entry `i` of
/// `run[j]` (each slab `n` long) matches the probe's packed key/mask.
/// Holes are included; the LLA walk masks them out with the run's
/// concatenated occupancy registers.
#[inline(always)]
pub fn scan_run<T: Slab>(kind: ScanKind, run: &[T], probe: &PackedProbe) -> u32 {
    let n = run.first().map_or(0, |t| t.slab().len());
    let total = run.len() * n;
    debug_assert!(total <= 32 && run.iter().all(|t| t.slab().len() == n));
    // `n > 0` whenever a slot is asked for: `k < total`.
    let at = |k: usize| &run[k / n].slab()[k % n];
    #[cfg(target_arch = "x86_64")]
    if vectorizable::<T::Entry>() {
        match kind {
            // SAFETY: callers pass kinds clamped by `clamp_supported`, which
            // yields `Simd256` only after both `is_x86_feature_detected!
            // ("avx2")` and `("popcnt")`, so the AVX2 kernel cannot execute
            // on a CPU without AVX2.
            ScanKind::Simd256 => return unsafe { scan_avx2(total, at, probe) },
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            ScanKind::Simd128 => return unsafe { scan_sse2(0, total, at, probe) },
            ScanKind::Portable => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kind;
    scan_portable(total, at, probe)
}

/// The scalar reference kernel: exactly the branchless accumulate loop the
/// pre-SIMD bitmap scan used, over slots `0..total` of a run.
#[inline(always)]
fn scan_portable<'a, E: Element + 'a>(
    total: usize,
    at: impl Fn(usize) -> &'a E,
    probe: &PackedProbe,
) -> u32 {
    let mut cand: u32 = 0;
    for k in 0..total {
        let e = at(k);
        cand |= (packed_matches(e.packed_key(), e.packed_mask(), probe) as u32) << k;
    }
    cand
}

// ---------------------------------------------------------------------------
// x86-64 vector kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Per-lane zero flags for a `u64x2`: lane `l` becomes all-ones ⟺ it
    /// was all-zero.
    ///
    /// SSE2 has no 64-bit compare, so equality-to-zero is built from two
    /// 32-bit compares: a 64-bit lane is zero iff both its 32-bit halves
    /// compare equal to zero, so AND the `cmpeq_epi32` result with its
    /// halves swapped (`shuffle 0xB1` = lanes `[1,0,3,2]`).
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline: always).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn zero_flags64_sse2(v: __m128i) -> __m128i {
        let eq32 = _mm_cmpeq_epi32(v, _mm_setzero_si128());
        _mm_and_si128(eq32, _mm_shuffle_epi32::<0xB1>(eq32))
    }

    /// Reduces a `u64x2` to 2 bits: bit `l` set ⟺ lane `l` is all-zero
    /// (the [`zero_flags64_sse2`] flags read out through `movemask_pd`).
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline: always).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn movemask_zero64_sse2(v: __m128i) -> u32 {
        // SAFETY: same SSE2 precondition as this function's own contract.
        unsafe { _mm_movemask_pd(_mm_castsi128_pd(zero_flags64_sse2(v))) as u32 }
    }

    /// An entry's 16-byte head: its packed key and mask word.
    ///
    /// # Safety
    /// Caller must ensure `vectorizable::<E>()` holds: the entry is at least
    /// 16 bytes with words 0 and 1 (key, mask word) leading, so the load
    /// stays inside it.
    #[inline(always)]
    unsafe fn head<E: Element>(e: &E) -> __m128i {
        // SAFETY: in bounds of `*e` by this function's contract; SSE2 is
        // the x86-64 baseline.
        unsafe { _mm_loadu_si128(e as *const E as *const __m128i) }
    }

    /// SSE2 run scan over slots `i..total`, two entries per compare, bits
    /// at their slot positions. Each entry's packed key and mask word are
    /// *adjacent* (words 0 and 1), so one unaligned 128-bit load per entry
    /// captures both; a pair of unpacks then separates `[key0, key1]` from
    /// `[word1_0, word1_1]` — no scalar gather, the match test and reduction
    /// stay fully vectorized. A pair may span two nodes of the run.
    ///
    /// The probe mask is folded into the affine mask-transform constants
    /// up front: `mask & pmask = (word1 & (AND & pmask)) | (OR & pmask)`,
    /// saving one AND per step.
    ///
    /// Always inlined and compiled with its caller's features (SSE2 is the
    /// x86-64 baseline), so a walk's kernel unrolls at the walk's constant
    /// run width.
    ///
    /// # Safety
    /// Caller must ensure `vectorizable::<E>()` holds (word-granular,
    /// word-aligned entry layout).
    #[inline(always)]
    pub(super) unsafe fn scan_sse2<'a, E: Element + 'a>(
        mut i: usize,
        total: usize,
        at: impl Fn(usize) -> &'a E,
        probe: &PackedProbe,
    ) -> u32 {
        let mut cand = 0u32;
        // SAFETY: SSE2 is the x86-64 baseline, and `head`'s layout
        // precondition is this function's contract.
        unsafe {
            let pk = _mm_set1_epi64x(probe.key as i64);
            let mand = _mm_set1_epi64x((E::MASK_WORD_AND & probe.mask) as i64);
            let mor = _mm_set1_epi64x((E::MASK_WORD_OR & probe.mask) as i64);
            // Main step: four slots per iteration, two `u64x2` tests whose
            // zero-flags reduce through ONE `movemask_ps`. Each 64-bit lane
            // of `zero_flags64_sse2`'s result is all-ones or all-zero, so
            // picking the high 32-bit half of every lane (`shuffle_ps` imm
            // `0xDD` = lanes [1, 3] of each source) packs both pairs' flags
            // into four sign bits in slot order.
            while i + 4 <= total {
                let (a, b) = (head(at(i)), head(at(i + 1)));
                let (c, d) = (head(at(i + 2)), head(at(i + 3)));
                let k01 = _mm_unpacklo_epi64(a, b); // [key0,   key1]
                let w01 = _mm_unpackhi_epi64(a, b); // [word1_0, word1_1]
                let k23 = _mm_unpacklo_epi64(c, d);
                let w23 = _mm_unpackhi_epi64(c, d);
                // mask & pmask = (word1 & AND') | OR'  (see doc above).
                let m01 = _mm_or_si128(_mm_and_si128(w01, mand), mor);
                let m23 = _mm_or_si128(_mm_and_si128(w23, mand), mor);
                let d01 = _mm_and_si128(_mm_xor_si128(k01, pk), m01);
                let d23 = _mm_and_si128(_mm_xor_si128(k23, pk), m23);
                let e01 = zero_flags64_sse2(d01);
                let e23 = zero_flags64_sse2(d23);
                let comb = _mm_shuffle_ps::<0xDD>(_mm_castsi128_ps(e01), _mm_castsi128_ps(e23));
                cand |= (_mm_movemask_ps(comb) as u32) << i;
                i += 4;
            }
            if i + 2 <= total {
                let (a, b) = (head(at(i)), head(at(i + 1)));
                let k = _mm_unpacklo_epi64(a, b);
                let mraw = _mm_unpackhi_epi64(a, b);
                let m = _mm_or_si128(_mm_and_si128(mraw, mand), mor);
                let diff = _mm_and_si128(_mm_xor_si128(k, pk), m);
                cand |= movemask_zero64_sse2(diff) << i;
                i += 2;
            }
        }
        if i < total {
            // Odd tail: one scalar packed test.
            let e = at(i);
            cand |= (packed_matches(e.packed_key(), e.packed_mask(), probe) as u32) << i;
        }
        cand
    }

    /// AVX2 run scan: four slots per `vpcmpeqq ymm`, across node boundaries
    /// (see [`scan_sse2`] for the adjacent key/mask-word load and the
    /// probe-mask folding); the 64-bit compare is native. The 16-byte heads
    /// are concatenated as `[s0 | s2]` and `[s1 | s3]`, so the lane-wise
    /// unpacks give `[k0, k1 | k2, k3]` and the movemask bits come out in
    /// slot order. The last one to three slots take the SSE2 kernel.
    ///
    /// Always inlined, and compiled with its caller's features: the AVX2
    /// walk (`avx2,popcnt`) inlines the intrinsics, so the kernel unrolls
    /// at the walk's constant run width inside one loop body.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available (runtime-detected) and
    /// `vectorizable::<E>()` holds.
    #[inline(always)]
    pub(super) unsafe fn scan_avx2<'a, E: Element + 'a>(
        total: usize,
        at: impl Fn(usize) -> &'a E,
        probe: &PackedProbe,
    ) -> u32 {
        let mut cand = 0u32;
        let mut i = 0usize;
        // SAFETY: AVX2 (hence SSE2) and `head`'s layout precondition are
        // this function's contract.
        unsafe {
            let pk = _mm256_set1_epi64x(probe.key as i64);
            let mand = _mm256_set1_epi64x((E::MASK_WORD_AND & probe.mask) as i64);
            let mor = _mm256_set1_epi64x((E::MASK_WORD_OR & probe.mask) as i64);
            let zero = _mm256_setzero_si256();
            while i + 4 <= total {
                let (a, b) = (head(at(i)), head(at(i + 1)));
                let (c, d) = (head(at(i + 2)), head(at(i + 3)));
                let v02 = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(a), c); // [k0, w0 | k2, w2]
                let v13 = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(b), d); // [k1, w1 | k3, w3]
                let k = _mm256_unpacklo_epi64(v02, v13); // [k0, k1 | k2, k3]
                let mraw = _mm256_unpackhi_epi64(v02, v13); // [w0, w1 | w2, w3]
                let m = _mm256_or_si256(_mm256_and_si256(mraw, mand), mor);
                let diff = _mm256_and_si256(_mm256_xor_si256(k, pk), m);
                let eq = _mm256_cmpeq_epi64(diff, zero);
                cand |= (_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32) << i;
                i += 4;
            }
            if i < total {
                cand |= scan_sse2(i, total, at, probe);
            }
        }
        cand
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{scan_avx2, scan_sse2};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};

    #[test]
    fn clamp_never_exceeds_detection() {
        let best = detect_best();
        for k in ScanKind::ALL {
            assert!(clamp_supported(k) <= best);
            assert!(clamp_supported(k) <= k);
        }
    }

    /// The `Simd256` walk is compiled with AVX2 and POPCNT, so neither the
    /// detected kind nor any clamped kind may be `Simd256` unless both
    /// features are detected.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd256_needs_avx2_and_popcnt() {
        let both = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt");
        assert_eq!(detect_best() == ScanKind::Simd256, both);
        for k in ScanKind::ALL {
            assert!(clamp_supported(k) != ScanKind::Simd256 || both, "{k:?}");
        }
    }

    /// Every prefix of `entries`, the empty one included, scanned as one
    /// slab and split into every run of equal slabs, gives the scalar loop's
    /// bitmap under every kind.
    fn runs_agree<E: Element>(entries: &[E], probe: &PackedProbe) {
        for len in 0..=entries.len() {
            let slab = &entries[..len];
            let want = (0..len).fold(0u32, |m, i| {
                let e = &slab[i];
                m | (packed_matches(e.packed_key(), e.packed_mask(), probe) as u32) << i
            });
            for k in ScanKind::ALL {
                let k = clamp_supported(k);
                assert_eq!(scan_run(k, &[slab], probe), want, "{k:?} len {len}");
            }
            for n in (1..len).filter(|&n| len.is_multiple_of(n)) {
                let run: Vec<&[E]> = slab.chunks_exact(n).collect();
                for k in ScanKind::ALL {
                    let k = clamp_supported(k);
                    assert_eq!(scan_run(k, &run, probe), want, "{k:?} len {len} slab {n}");
                }
            }
        }
    }

    fn posted_mixed() -> Vec<PostedEntry> {
        let mut v = Vec::new();
        for i in 0..9i32 {
            let e = match i % 4 {
                0 => PostedEntry::from_spec(RecvSpec::new(i, 10 + i, 3), i as u64),
                1 => PostedEntry::from_spec(RecvSpec::new(crate::ANY_SOURCE, 10 + i, 3), i as u64),
                2 => PostedEntry::from_spec(RecvSpec::new(i, crate::ANY_TAG, 3), i as u64),
                _ => PostedEntry::hole(),
            };
            v.push(e);
        }
        v
    }

    #[test]
    fn kernels_agree_on_posted_slabs() {
        let entries = posted_mixed();
        let probes = [
            Envelope::new(1, 11, 3).packed(),
            Envelope::new(2, 12, 3).packed(),
            Envelope::new(7, 7, 9).packed(),
        ];
        for probe in &probes {
            runs_agree(&entries, probe);
        }
    }

    #[test]
    fn kernels_agree_on_unexpected_slabs() {
        let mut entries: Vec<UnexpectedEntry> = (0..7)
            .map(|i| UnexpectedEntry::from_envelope(Envelope::new(i, i * 3, 1), 0xDEAD + i as u64))
            .collect();
        entries[2] = UnexpectedEntry::hole();
        entries[5] = UnexpectedEntry::hole();
        for probe in [
            RecvSpec::new(4, 12, 1).packed(),
            RecvSpec::new(crate::ANY_SOURCE, 9, 1).packed(),
            RecvSpec::any(1).packed(),
            RecvSpec::any(2).packed(),
        ] {
            runs_agree(&entries, &probe);
        }
    }
}
