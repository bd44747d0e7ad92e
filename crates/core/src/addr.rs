//! Simulated address space.
//! spc-scope: hot-path
//!
//! The locality study needs deterministic, reproducible addresses: the
//! baseline linked list's nodes come from a churned general-purpose heap
//! (poor spacial locality), while the linked-list-of-arrays nodes come from a
//! contiguous element pool. [`AddrSpace`] models both placements with a
//! seeded allocator so cache-simulation results are exactly reproducible.
//!
//! Native runs still assign simulated addresses (a handful of arithmetic ops
//! per allocation) so that the same structure can be instrumented or not
//! without recompiling.

/// Placement policy for simulated allocations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrMode {
    /// Allocations are laid out back to back (an arena / element pool).
    Contiguous,
    /// Allocations are separated by pseudo-random gaps drawn from
    /// `[gap_min, gap_max]` bytes, modelling a *freshly growing* heap:
    /// addresses still ascend, just not densely.
    Fragmented {
        /// Minimum gap inserted between consecutive allocations.
        gap_min: u64,
        /// Maximum gap inserted between consecutive allocations.
        gap_max: u64,
    },
    /// Allocations land at pseudo-random positions within a `span`-byte
    /// arena, modelling a long-running allocator's *churned* free lists:
    /// consecutive allocations are neither adjacent nor ascending. This is
    /// the realistic placement for baseline match-list nodes ("the
    /// traditional linked list requires information embedded in the list
    /// entries themselves for determining the next memory load address").
    Scattered {
        /// Arena size the allocations scatter across.
        span: u64,
    },
}

/// Hands out the base address of a fresh 1 GiB simulated region, so
/// structures created without an explicit [`AddrSpace`] never alias.
///
/// Region assignment follows process-wide construction order; experiments
/// that need exact reproducibility construct their own `AddrSpace` with
/// [`AddrSpace::new`] at a fixed base.
pub fn fresh_region_base() -> u64 {
    use core::sync::atomic::{AtomicU64, Ordering};
    // spc-order(NEXT): Relaxed — id allocator: only fetch_add's atomicity matters
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed) << 30
}

/// Deterministic simulated-address allocator.
///
/// Distinct `AddrSpace`s should be given distinct `base` addresses (see
/// [`fresh_region_base`]) so their allocations never alias in the cache
/// simulator.
#[derive(Clone, Debug)]
pub struct AddrSpace {
    next: u64,
    mode: AddrMode,
    rng: u64,
}

/// Default heap-fragmentation gap range: between zero and two cache lines of
/// unrelated data separates consecutive baseline nodes, which is what heap
/// profiles of long-running MPI processes look like after allocator churn.
pub const DEFAULT_FRAGMENTATION: AddrMode = AddrMode::Fragmented {
    gap_min: 0,
    gap_max: 128,
};

impl AddrSpace {
    /// Creates an allocator starting at `base` with the given placement mode
    /// and RNG seed (the seed only matters for fragmented mode).
    pub fn new(base: u64, mode: AddrMode, seed: u64) -> Self {
        Self {
            next: base,
            mode,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Contiguous allocator starting at `base`.
    pub fn contiguous(base: u64) -> Self {
        Self::new(base, AddrMode::Contiguous, 0)
    }

    /// Fragmented-heap allocator starting at `base` with default gap range.
    pub fn fragmented(base: u64, seed: u64) -> Self {
        Self::new(base, DEFAULT_FRAGMENTATION, seed)
    }

    /// Churned-heap allocator scattering over the default 64 MiB arena.
    pub fn scattered(base: u64, seed: u64) -> Self {
        Self::new(base, AddrMode::Scattered { span: 64 << 20 }, seed)
    }

    /// Allocates `size` bytes aligned to `align` (must be a power of two) and
    /// returns the simulated address.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        if let AddrMode::Scattered { span } = self.mode {
            // Uniform placement within the arena. Collisions are possible
            // but vanishingly rare for realistic node counts, and harmless
            // for cache modelling (two nodes sharing a line is accidental
            // locality a churned heap also exhibits).
            let slots = (span / size.max(1)).max(1);
            let addr = self.next + (self.next_rand() % slots) * size;
            return (addr + align - 1) & !(align - 1);
        }
        let gap = match self.mode {
            AddrMode::Contiguous => 0,
            AddrMode::Fragmented { gap_min, gap_max } => {
                if gap_max > gap_min {
                    gap_min + self.next_rand() % (gap_max - gap_min + 1)
                } else {
                    gap_min
                }
            }
            // spc-allow(hot-path-panic): arm excluded by the Scattered dispatch above; kept loud
            AddrMode::Scattered { .. } => unreachable!("handled above"),
        };
        let addr = (self.next + gap + align - 1) & !(align - 1);
        self.next = addr + size;
        addr
    }

    // SplitMix64: tiny, seedable, and good enough for gap jitter. Using a
    // local generator keeps `spc-core` dependency-free and the placement
    // stable across `rand` versions.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_allocations_are_back_to_back() {
        let mut a = AddrSpace::contiguous(1 << 20);
        let x = a.alloc(64, 64);
        let y = a.alloc(64, 64);
        let z = a.alloc(64, 64);
        assert_eq!(x, 1 << 20);
        assert_eq!(y, x + 64);
        assert_eq!(z, y + 64);
    }

    #[test]
    fn alignment_is_respected() {
        let mut a = AddrSpace::contiguous(0);
        a.alloc(10, 1);
        let x = a.alloc(64, 64);
        assert_eq!(x % 64, 0);
    }

    #[test]
    fn fragmented_allocations_leave_gaps_deterministically() {
        let mut a = AddrSpace::fragmented(0, 7);
        let mut b = AddrSpace::fragmented(0, 7);
        let seq_a: Vec<u64> = (0..32).map(|_| a.alloc(96, 8)).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| b.alloc(96, 8)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same placement");

        let mut c = AddrSpace::fragmented(0, 8);
        let seq_c: Vec<u64> = (0..32).map(|_| c.alloc(96, 8)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different placement");

        // Gaps stay within the configured bounds.
        for w in seq_a.windows(2) {
            let gap = w[1] - (w[0] + 96);
            assert!(gap <= 128 + 7, "gap {gap} exceeds max + alignment slack");
        }
    }

    #[test]
    fn scattered_allocations_are_non_monotonic_and_deterministic() {
        let mut a = AddrSpace::scattered(1 << 30, 3);
        let mut b = AddrSpace::scattered(1 << 30, 3);
        let seq_a: Vec<u64> = (0..64).map(|_| a.alloc(96, 8)).collect();
        let seq_b: Vec<u64> = (0..64).map(|_| b.alloc(96, 8)).collect();
        assert_eq!(seq_a, seq_b);
        // Not ascending: at least some successor is below its predecessor.
        assert!(
            seq_a.windows(2).any(|w| w[1] < w[0]),
            "placement must scatter"
        );
        // All within the arena.
        for &x in &seq_a {
            assert!(((1 << 30)..(1 << 30) + (64 << 20) + 96).contains(&x));
        }
    }
}
