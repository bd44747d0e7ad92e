//! Software prefetch for the match-list hot paths.
//! spc-scope: hot-path
//!
//! The paper's spatial-locality argument (§3.1, Fig. 2) is that packing
//! entries into lines lets the *hardware* adjacent-line and streamer
//! prefetchers do the work, and that scattered heap nodes are where they
//! fail. Software prefetch therefore belongs to a structure, not to the
//! process: each walk that issues a hint does so unconditionally, with the
//! lookahead fixed here, and the walks that the hardware already serves
//! issue none. There is no switch — see EXPERIMENTS.md "Prefetch schemes"
//! for the sweep that decided each case.
//!
//! * [`crate::list::BaselineList`] extrapolates the allocator stride between
//!   consecutive heap nodes [`DISTANCE`] nodes ahead and hints both of the
//!   guessed node's lines. A wrong guess costs one wasted line fill and
//!   never a stall. This is the one place the gate shows a hint paying
//!   (depth 1024, list past L1).
//! * [`crate::list::Lla`] bitmap nodes (`N <= 32`) issue no hint: pool nodes
//!   are contiguous, line-aligned and walked in id order, which is the
//!   access pattern the hardware prefetchers are built for.
//! * The large-arity LLA window scan streams the next 32-entry window with
//!   [`read_span`], and the binned structures' `SeqFifo::find` hints
//!   [`DISTANCE`] elements ahead. No tracked gate cell measures either with
//!   and without its hint, so they are kept as they have always run rather
//!   than guessed at.
//!
//! [`read`] compiles to `prefetcht0` on x86-64 and to nothing elsewhere; it
//! is a pure performance hint with no semantic effect, so every traversal
//! stays byte-for-byte equivalent to its unprefetched form (the
//! packed-vs-fieldwise equivalence tests and the differential conformance
//! harness run against the hinting paths).

/// Lookahead of the walks that hint ahead of themselves, in nodes
/// (baseline list) or elements (`SeqFifo`).
pub const DISTANCE: usize = 2;

/// Hints the CPU to pull the cache line holding `p` into all cache levels.
/// A no-op on non-x86-64 targets and on null/dangling pointers (prefetch
/// never faults).
#[inline(always)]
pub fn read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions do not access memory architecturally;
    // any address, mapped or not, is allowed and cannot fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Hints the CPU to pull the line holding `base + field_off`, but only when
/// it differs from the line holding `base`. The node walks prefetch a
/// node's first line and its link field; for small nodes the two usually
/// share a line, and a duplicate hint wastes a prefetch slot on deep scans
/// where the fill buffers are already the bottleneck — so the second hint
/// is issued only when the allocation actually straddles a line boundary.
/// Same contract as [`read`]: a pure hint that never faults.
#[inline(always)]
pub fn read_second_line(base: usize, field_off: usize) {
    let field = base.wrapping_add(field_off);
    if field / crate::CACHE_LINE != base / crate::CACHE_LINE {
        read(field as *const u8);
    }
}

/// Hints the CPU to pull every cache line of the `bytes`-byte span starting
/// at `p`. Used by the windowed large-arity slab scan, where one 32-entry
/// window covers many lines whose addresses are known without a dependent
/// load. Same contract as [`read`]: a pure hint that never faults.
#[inline]
pub fn read_span<T>(p: *const T, bytes: usize) {
    let mut off = 0usize;
    while off < bytes {
        read((p as *const u8).wrapping_add(off));
        off += crate::CACHE_LINE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_accepts_any_pointer() {
        let v = 7u64;
        read(&v as *const u64);
        read(core::ptr::null::<u64>());
        read(0xdead_beef_usize as *const u8);
        let buf = [0u8; 1024];
        read_span(buf.as_ptr(), buf.len());
        read_span(buf.as_ptr(), 0);
        read_span(core::ptr::null::<u8>(), 128);
    }
}
