//! Architecture profiles.
//!
//! Parameters follow the published characteristics of the systems in §4.1:
//!
//! * **Sandy Bridge** (2.6 GHz Xeon E5, the paper's first test system):
//!   unified clock domain — the L3 runs at core speed, giving ~30-cycle L3
//!   latency. All four prefetch units.
//! * **Broadwell** (2.1 GHz Xeon E5 v4): since Haswell the L3 clock is
//!   decoupled from the core, raising L3 latency (~50 cycles) while
//!   increasing bandwidth; the paper credits exactly this change for hot
//!   caching's negative result on Broadwell. All four prefetch units.
//! * **Nehalem** (2.53 GHz Xeon, the FDS scaling cluster): smaller 8 MiB L3,
//!   earlier-generation prefetch (no adjacent-line pair unit).

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Load-to-use latency in core cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets for 64-byte lines.
    pub fn sets(&self) -> usize {
        self.size / crate::cache::LINE / self.ways
    }

    /// Capacity in lines.
    pub fn lines(&self) -> usize {
        self.size / crate::cache::LINE
    }
}

/// A processor/memory-subsystem model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Core clock in GHz (converts cycles to nanoseconds).
    pub clock_ghz: f64,
    /// Private per-core L1 data cache.
    pub l1: CacheConfig,
    /// Private per-core L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub l3: CacheConfig,
    /// Main-memory load latency in nanoseconds.
    pub dram_latency_ns: f64,
    /// L1 DCU next-line prefetcher present.
    pub l1_next_line: bool,
    /// L2 spatial prefetcher that completes 128-byte aligned line pairs.
    pub l2_adjacent_pair: bool,
    /// L2 streamer that follows ascending line sequences within a page.
    pub l2_streamer: bool,
    /// How many lines ahead the streamer runs once trained.
    pub streamer_degree: u32,
    /// Pipeline-bubble cost, charged on first demand use, of a line the
    /// prefetchers pulled from DRAM (prefetching hides latency, not
    /// bandwidth: streams run at memory bandwidth).
    pub prefetch_fill_dram_ns: f64,
    /// Same, for lines prefetched out of the shared L3.
    pub prefetch_fill_l3_ns: f64,
}

impl ArchProfile {
    /// Converts core cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// DRAM latency expressed in core cycles.
    pub fn dram_cycles(&self) -> f64 {
        self.dram_latency_ns * self.clock_ghz
    }

    /// The Sandy Bridge system: dual 2.6 GHz 8-core Xeons, QLogic QDR IB.
    pub fn sandy_bridge() -> Self {
        Self {
            name: "SandyBridge",
            clock_ghz: 2.6,
            l1: CacheConfig {
                size: 32 << 10,
                ways: 8,
                latency: 4,
            },
            l2: CacheConfig {
                size: 256 << 10,
                ways: 8,
                latency: 12,
            },
            // L3 in the core clock domain: low latency relative to clock.
            l3: CacheConfig {
                size: 20 << 20,
                ways: 20,
                latency: 30,
            },
            dram_latency_ns: 76.0,
            l1_next_line: true,
            l2_adjacent_pair: true,
            l2_streamer: true,
            streamer_degree: 2,
            prefetch_fill_dram_ns: 8.0,
            prefetch_fill_l3_ns: 2.0,
        }
    }

    /// The Broadwell system: dual 2.1 GHz 18-core Xeons, OmniPath.
    pub fn broadwell() -> Self {
        Self {
            name: "Broadwell",
            clock_ghz: 2.1,
            l1: CacheConfig {
                size: 32 << 10,
                ways: 8,
                latency: 4,
            },
            l2: CacheConfig {
                size: 256 << 10,
                ways: 8,
                latency: 12,
            },
            // Decoupled cache clock since Haswell: higher L3 latency.
            l3: CacheConfig {
                size: 45 << 20,
                ways: 20,
                latency: 50,
            },
            dram_latency_ns: 80.0,
            l1_next_line: true,
            l2_adjacent_pair: true,
            l2_streamer: true,
            streamer_degree: 2,
            prefetch_fill_dram_ns: 7.0,
            prefetch_fill_l3_ns: 2.5,
        }
    }

    /// The Nehalem cluster used for the large FDS runs: dual 2.53 GHz
    /// 4-core Xeons, Mellanox QDR.
    pub fn nehalem() -> Self {
        Self {
            name: "Nehalem",
            clock_ghz: 2.53,
            l1: CacheConfig {
                size: 32 << 10,
                ways: 8,
                latency: 4,
            },
            l2: CacheConfig {
                size: 256 << 10,
                ways: 8,
                latency: 10,
            },
            l3: CacheConfig {
                size: 8 << 20,
                ways: 16,
                latency: 40,
            },
            dram_latency_ns: 65.0,
            l1_next_line: true,
            // Nehalem's L2 prefetch lacks the dedicated pair-completion unit
            // the paper highlights on SNB/BDW.
            l2_adjacent_pair: false,
            l2_streamer: true,
            streamer_degree: 1,
            prefetch_fill_dram_ns: 10.0,
            prefetch_fill_l3_ns: 3.0,
        }
    }

    /// A deliberately tiny hierarchy for fast, readable unit tests.
    pub fn test_tiny() -> Self {
        Self {
            name: "TestTiny",
            clock_ghz: 1.0,
            l1: CacheConfig {
                size: 512,
                ways: 2,
                latency: 4,
            },
            l2: CacheConfig {
                size: 2048,
                ways: 4,
                latency: 12,
            },
            l3: CacheConfig {
                size: 8192,
                ways: 4,
                latency: 30,
            },
            dram_latency_ns: 100.0,
            l1_next_line: false,
            l2_adjacent_pair: false,
            l2_streamer: false,
            streamer_degree: 0,
            prefetch_fill_dram_ns: 10.0,
            prefetch_fill_l3_ns: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_arithmetic() {
        let p = ArchProfile::sandy_bridge();
        assert_eq!(p.l1.sets(), 64);
        assert_eq!(p.l1.lines(), 512);
        assert_eq!(p.l3.lines(), 327_680);
        assert!((p.cycles_to_ns(26.0) - 10.0).abs() < 1e-9);
        assert!((p.dram_cycles() - 197.6).abs() < 1e-9);
    }

    #[test]
    fn profiles_encode_the_papers_architectural_contrast() {
        let snb = ArchProfile::sandy_bridge();
        let bdw = ArchProfile::broadwell();
        // Broadwell's decoupled L3 is slower both in cycles and in ns.
        assert!(bdw.l3.latency > snb.l3.latency);
        assert!(bdw.cycles_to_ns(bdw.l3.latency as f64) > snb.cycles_to_ns(snb.l3.latency as f64));
        // DRAM-vs-L3 gap (what hot caching can save) is larger on SNB.
        let snb_gap = snb.dram_latency_ns - snb.cycles_to_ns(snb.l3.latency as f64);
        let bdw_gap = bdw.dram_latency_ns - bdw.cycles_to_ns(bdw.l3.latency as f64);
        assert!(snb_gap > bdw_gap);
        // Nehalem lacks the pair prefetcher.
        assert!(!ArchProfile::nehalem().l2_adjacent_pair);
    }
}
