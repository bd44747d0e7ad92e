//! SIMD batch matching over contiguous entry slabs.
//! spc-scope: hot-path
//!
//! The packed match test (PR 3) is one `XOR + AND + compare` per entry; an
//! LLA node is a contiguous slab of such entries — exactly the shape
//! SSE2/AVX2 wants. The kernels here test 2 (`u64x2`, SSE2) or 4 (`u64x4`,
//! AVX2) packed key/mask pairs per instruction against the probe, reduce
//! each vector of 64-bit compare results to bits via `movemask`, and hand
//! back a candidate bitmap the caller ANDs with the node's occupancy bitmap
//! and bit-scans to the first live hit.
//!
//! Three scan kinds exist:
//!
//! * [`ScanKind::Portable`] — the scalar packed loop, compiled everywhere:
//!   the only path off x86-64, and the reference the vector kernels are
//!   tested against;
//! * [`ScanKind::Simd128`] — SSE2 pairs (baseline on every x86-64, no
//!   runtime detection needed): the only vector path on pre-AVX2 CPUs, and
//!   the tail of the AVX2 kernel;
//! * [`ScanKind::Simd256`] — AVX2 quads (runtime
//!   `is_x86_feature_detected!`).
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

/// Key bits that identify an in-band hole: the context-id field (bits
/// 48..64) equal to the reserved hole context. `Element::is_hole` is
/// defined as exactly that context comparison, so the bit test below is an
/// identity, not an approximation.
pub(crate) const HOLE_KEY_BITS: u64 = 0xFFFF_u64 << 48;

/// A slab-scan kernel, ordered weakest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScanKind {
    /// Scalar packed loop — compiled on every architecture.
    Portable,
    /// SSE2 `u64x2` kernel (x86-64 baseline, always safe to run there).
    Simd128,
    /// AVX2 `u64x4` kernel (requires runtime feature detection).
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

/// The best kind this CPU can actually execute.
#[cfg(target_arch = "x86_64")]
pub fn detect_best() -> ScanKind {
    if std::arch::is_x86_feature_detected!("avx2") {
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
/// check that keeps the AVX2 kernel off CPUs without it: every kind handed
/// to [`scan_slab`] / [`scan_candidates`] must have passed through here.
#[inline]
pub fn clamp_supported(k: ScanKind) -> ScanKind {
    k.min(detect_best())
}

/// Result of scanning one slab: per-slot bitmaps (bit `i` ⟺ `entries[i]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabScan {
    /// Slots whose packed key/mask matches the probe (holes included —
    /// callers mask with occupancy or [`SlabScan::holes`]).
    pub cand: u32,
    /// Slots holding in-band hole markers.
    pub holes: u32,
}

/// Whether the vector kernels can walk `E`'s in-memory layout directly:
/// word-granular stride and word-aligned fields (both entry types satisfy
/// this; a hypothetical packed element would fall back to the scalar loop).
const fn vectorizable<E: Element>() -> bool {
    core::mem::size_of::<E>().is_multiple_of(8)
        && core::mem::size_of::<E>() >= 16
        && core::mem::align_of::<E>() >= 8
}

/// Scans up to 32 slab entries, returning candidate and hole bitmaps.
/// Used by the large-arity LLA path, which has no occupancy register and
/// masks candidates with `!holes` instead.
#[inline(always)]
pub fn scan_slab<E: Element>(kind: ScanKind, entries: &[E], probe: &PackedProbe) -> SlabScan {
    debug_assert!(entries.len() <= 32);
    scan_dispatch::<E, true>(kind, entries, probe)
}

/// Scans up to 32 slab entries, returning only the candidate bitmap.
/// Used by the bitmap LLA path (`N <= 32`), which masks with the node's
/// occupancy register and never needs the hole bitmap.
#[inline(always)]
pub fn scan_candidates<E: Element>(kind: ScanKind, entries: &[E], probe: &PackedProbe) -> u32 {
    debug_assert!(entries.len() <= 32);
    scan_dispatch::<E, false>(kind, entries, probe).cand
}

#[inline(always)]
fn scan_dispatch<E: Element, const HOLES: bool>(
    kind: ScanKind,
    entries: &[E],
    probe: &PackedProbe,
) -> SlabScan {
    #[cfg(target_arch = "x86_64")]
    if vectorizable::<E>() {
        match kind {
            // SAFETY: callers pass kinds clamped by `clamp_supported`, which
            // yields `Simd256` only after `is_x86_feature_detected!("avx2")`,
            // so the AVX2 kernel cannot execute on a CPU without it.
            ScanKind::Simd256 => return unsafe { scan_slab_avx2::<E, HOLES>(entries, probe) },
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            ScanKind::Simd128 => return unsafe { scan_slab_sse2::<E, HOLES>(entries, probe) },
            ScanKind::Portable => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kind;
    scan_slab_portable::<E, HOLES>(entries, probe)
}

/// The scalar reference kernel: exactly the branchless accumulate loop the
/// pre-SIMD bitmap scan used, plus the hole bitmap when requested.
fn scan_slab_portable<E: Element, const HOLES: bool>(
    entries: &[E],
    probe: &PackedProbe,
) -> SlabScan {
    let mut cand: u32 = 0;
    let mut holes: u32 = 0;
    for (i, e) in entries.iter().enumerate() {
        let m = packed_matches(e.packed_key(), e.packed_mask(), probe) as u32;
        cand |= m << i;
        if HOLES {
            holes |= (e.is_hole() as u32) << i;
        }
    }
    SlabScan { cand, holes }
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

    /// SSE2 slab scan: two entries per step. Each entry's packed key and
    /// mask word are *adjacent* (words 0 and 1), so one unaligned 128-bit
    /// load per entry captures both; a pair of unpacks then separates
    /// `[key0, key1]` from `[word1_0, word1_1]` — no scalar gather, the
    /// match test and reduction stay fully vectorized.
    ///
    /// The probe mask is folded into the affine mask-transform constants
    /// up front: `mask & pmask = (word1 & (AND & pmask)) | (OR & pmask)`,
    /// saving one AND per step.
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available and `vectorizable::<E>()`
    /// holds (word-granular, word-aligned entry layout).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn scan_slab_sse2<E: Element, const HOLES: bool>(
        entries: &[E],
        probe: &PackedProbe,
    ) -> SlabScan {
        let n = entries.len();
        let w = core::mem::size_of::<E>() / 8;
        let base = entries.as_ptr() as *const i64;
        let pk = _mm_set1_epi64x(probe.key as i64);
        let mand = _mm_set1_epi64x((E::MASK_WORD_AND & probe.mask) as i64);
        let mor = _mm_set1_epi64x((E::MASK_WORD_OR & probe.mask) as i64);
        let hbits = _mm_set1_epi64x(HOLE_KEY_BITS as i64);
        let mut cand = 0u32;
        let mut holes = 0u32;
        let mut i = 0usize;
        // Main step: four slots per iteration, two `u64x2` tests whose
        // zero-flags reduce through ONE `movemask_ps`. Each 64-bit lane of
        // `zero_flags64_sse2`'s result is all-ones or all-zero, so picking
        // the high 32-bit half of every lane (`shuffle_ps` imm `0xDD` =
        // lanes [1, 3] of each source) packs both pairs' flags into four
        // sign bits in slot order.
        while i + 4 <= n {
            // SAFETY: slots `i..i + 4` are in bounds of `entries`;
            // `vectorizable::<E>()` guarantees each entry is at least 16
            // bytes with words 0 and 1 (key, mask word) leading, so the
            // 16-byte loads stay inside their entries.
            let (a, b, c, d) = unsafe {
                (
                    _mm_loadu_si128(base.add(i * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 1) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 2) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 3) * w) as *const __m128i),
                )
            };
            // SAFETY: SSE2 register arithmetic only.
            unsafe {
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
                if HOLES {
                    // Hole ⟺ the context bits of the key are all-ones.
                    let h01 = zero_flags64_sse2(_mm_xor_si128(_mm_and_si128(k01, hbits), hbits));
                    let h23 = zero_flags64_sse2(_mm_xor_si128(_mm_and_si128(k23, hbits), hbits));
                    let hc = _mm_shuffle_ps::<0xDD>(_mm_castsi128_ps(h01), _mm_castsi128_ps(h23));
                    holes |= (_mm_movemask_ps(hc) as u32) << i;
                }
            }
            i += 4;
        }
        if i + 2 <= n {
            // SAFETY: slots `i` and `i + 1` are in bounds of `entries`;
            // same 16-byte in-entry load argument as the main step.
            let (a, b) = unsafe {
                (
                    _mm_loadu_si128(base.add(i * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 1) * w) as *const __m128i),
                )
            };
            // SAFETY: SSE2 register arithmetic only.
            unsafe {
                let k = _mm_unpacklo_epi64(a, b);
                let mraw = _mm_unpackhi_epi64(a, b);
                let m = _mm_or_si128(_mm_and_si128(mraw, mand), mor);
                let diff = _mm_and_si128(_mm_xor_si128(k, pk), m);
                cand |= movemask_zero64_sse2(diff) << i;
                if HOLES {
                    let h = _mm_xor_si128(_mm_and_si128(k, hbits), hbits);
                    holes |= movemask_zero64_sse2(h) << i;
                }
            }
            i += 2;
        }
        if i < n {
            // Odd tail: one scalar packed test.
            let e = &entries[i];
            cand |= (packed_matches(e.packed_key(), e.packed_mask(), probe) as u32) << i;
            if HOLES {
                holes |= (e.is_hole() as u32) << i;
            }
        }
        SlabScan { cand, holes }
    }

    /// Un-swizzles a 4-bit AVX2 lane bitmap back to slot order.
    ///
    /// The AVX2 slab scan builds its vectors with lane-wise
    /// `unpacklo/hi_epi64` over two `[key, word1]` entry pairs per
    /// 128-bit lane, which lands slots in register lane order
    /// `[0, 2, 1, 3]`; swapping bits 1 and 2 of the movemask restores
    /// slot order.
    #[inline(always)]
    fn unswizzle4(m: u32) -> u32 {
        (m & 0b1001) | ((m & 0b0010) << 1) | ((m & 0b0100) >> 1)
    }

    /// AVX2 slab scan: four entries per step (see [`scan_slab_sse2`] for
    /// the adjacent key/mask-word load trick and the probe-mask folding);
    /// the 64-bit compare is native (`_mm256_cmpeq_epi64`). Two entries'
    /// 16-byte heads are concatenated per 256-bit register, so the
    /// unpacks separate keys from mask words in lane order `[0, 2, 1, 3]`
    /// — [`unswizzle4`] puts the movemask bits back in slot order.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available (runtime-detected) and
    /// `vectorizable::<E>()` holds.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_slab_avx2<E: Element, const HOLES: bool>(
        entries: &[E],
        probe: &PackedProbe,
    ) -> SlabScan {
        let n = entries.len();
        let w = core::mem::size_of::<E>() / 8;
        let base = entries.as_ptr() as *const i64;
        let pk = _mm256_set1_epi64x(probe.key as i64);
        let mand = _mm256_set1_epi64x((E::MASK_WORD_AND & probe.mask) as i64);
        let mor = _mm256_set1_epi64x((E::MASK_WORD_OR & probe.mask) as i64);
        let hbits = _mm256_set1_epi64x(HOLE_KEY_BITS as i64);
        let zero = _mm256_setzero_si256();
        let mut cand = 0u32;
        let mut holes = 0u32;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: slots `i..i + 4` are in bounds of `entries`;
            // `vectorizable::<E>()` guarantees each entry is at least 16
            // bytes with words 0 and 1 (key, mask word) leading, so the
            // 16-byte loads stay inside their entries.
            let (a, b, c, d) = unsafe {
                (
                    _mm_loadu_si128(base.add(i * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 1) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 2) * w) as *const __m128i),
                    _mm_loadu_si128(base.add((i + 3) * w) as *const __m128i),
                )
            };
            // [k0, w0, k1, w1] / [k2, w2, k3, w3].
            let v01 = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(a), b);
            let v23 = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(c), d);
            // Lane-wise unpack: slots land in order [0, 2, 1, 3].
            let k = _mm256_unpacklo_epi64(v01, v23); // [k0, k2, k1, k3]
            let mraw = _mm256_unpackhi_epi64(v01, v23); // [w0, w2, w1, w3]
            let m = _mm256_or_si256(_mm256_and_si256(mraw, mand), mor);
            let diff = _mm256_and_si256(_mm256_xor_si256(k, pk), m);
            let eq = _mm256_cmpeq_epi64(diff, zero);
            cand |= unswizzle4(_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32 & 0xF) << i;
            if HOLES {
                let h = _mm256_xor_si256(_mm256_and_si256(k, hbits), hbits);
                let heq = _mm256_cmpeq_epi64(h, zero);
                holes |= unswizzle4(_mm256_movemask_pd(_mm256_castsi256_pd(heq)) as u32 & 0xF) << i;
            }
            i += 4;
        }
        if i < n {
            // 1–3 remaining entries: finish with the SSE2 kernel (AVX2
            // implies SSE2), shifted into place.
            // SAFETY: SSE2 is implied by AVX2; the sub-slice keeps the
            // layout preconditions.
            let tail = unsafe { scan_slab_sse2::<E, HOLES>(&entries[i..], probe) };
            cand |= tail.cand << i;
            holes |= tail.holes << i;
        }
        SlabScan { cand, holes }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{scan_slab_avx2, scan_slab_sse2};

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
            for len in 0..=entries.len() {
                let want = scan_slab_portable::<_, true>(&entries[..len], probe);
                for k in ScanKind::ALL {
                    let k = clamp_supported(k);
                    assert_eq!(
                        scan_slab(k, &entries[..len], probe),
                        want,
                        "{k:?} len {len}"
                    );
                    assert_eq!(
                        scan_candidates(k, &entries[..len], probe),
                        want.cand,
                        "{k:?} len {len}"
                    );
                }
            }
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
            for len in 0..=entries.len() {
                let want = scan_slab_portable::<_, true>(&entries[..len], &probe);
                for k in ScanKind::ALL {
                    let k = clamp_supported(k);
                    assert_eq!(
                        scan_slab(k, &entries[..len], &probe),
                        want,
                        "{k:?} len {len}"
                    );
                }
            }
        }
    }
}
