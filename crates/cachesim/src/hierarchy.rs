//! The memory-system model: L1/L2/L3 + DRAM with prefetchers and the
//! simulated hot-caching heater.
//!
//! One `MemSim` models what the *compute core* (the MPI process running the
//! match engine) observes. The heater runs on another core sharing the L3
//! (Figure 3), so its effect is modelled as periodic recency-refreshes /
//! fills of the registered regions **into the L3 only** — the compute core's
//! private L1/L2 are unaffected, and heater passes cost the compute core
//! nothing. What hot caching *does* cost is synchronization on region-list
//! mutation, which callers charge via [`HotCacheConfig::mutation_overhead_ns`].

use spc_core::sink::AccessSink;

use crate::cache::{CacheLevel, LINE};
use crate::config::ArchProfile;
use crate::linemap::LineMap;
use crate::prefetch::{adjacent_pair, Streamer};

/// Simulated base address of the synthetic compute working set streamed by
/// [`MemSim::pollute`] — far above any region the address allocator hands
/// out.
const POLLUTE_BASE: u64 = 7 << 40;

/// Which cache level the heater's binding refreshes data into (§3.2: "by
/// adjusting its binding to determine which level of hierarchical memory it
/// gets refreshed into").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeatLevel {
    /// Heater on another core of the socket: refreshes the shared L3 (the
    /// paper's Sandy Bridge/Broadwell setup, Figure 3).
    SharedL3,
    /// Heater on the compute core's SMT sibling: refreshes the *private*
    /// L1/L2 too — the strongest locality, but the heater now steals core
    /// cycles, charged per pass via
    /// [`HotCacheConfig::smt_steal_ns_per_line`].
    PrivateL2,
}

/// Hot-caching parameters for the simulated heater.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HotCacheConfig {
    /// Interval between heater passes (the paper's tunable sleep).
    pub period_ns: f64,
    /// Synchronization cost charged per match-list mutation while the heater
    /// shares the region list (§4.3: "cache heating requires holding a lock
    /// when removing elements from the list"). Callers add this to their
    /// operation costs.
    pub mutation_overhead_ns: f64,
    /// Where the heater's binding refreshes data into.
    pub level: HeatLevel,
    /// Compute-core cycles stolen per heated line and pass when the heater
    /// runs on the SMT sibling ([`HeatLevel::PrivateL2`]); zero for a
    /// socket-mate heater.
    pub smt_steal_ns_per_line: f64,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        Self {
            period_ns: 50_000.0,
            mutation_overhead_ns: 60.0,
            level: HeatLevel::SharedL3,
            smt_steal_ns_per_line: 0.0,
        }
    }
}

impl HotCacheConfig {
    /// The overhead configuration when the match list uses a dedicated
    /// element pool (§4.3): the heater holds whole-chunk regions that never
    /// churn, so mutations need no per-element synchronization beyond an
    /// occasional chunk registration.
    pub fn with_element_pool() -> Self {
        Self {
            mutation_overhead_ns: 4.0,
            ..Self::default()
        }
    }

    /// An SMT-sibling heater: data lands in the private L1/L2, at a cycle
    /// tax on the compute core.
    pub fn smt_sibling(self) -> Self {
        Self {
            level: HeatLevel::PrivateL2,
            smt_steal_ns_per_line: 0.4,
            ..self
        }
    }
}

/// The paper's closing proposal (§4.6, §6): "CPU support for network
/// processing ... through allowing users to either interact with cache
/// management or providing a dedicated network cache". Network-classified
/// lines (the match-list regions) get hardware-guaranteed residency instead
/// of a software heater.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetPlacement {
    /// No hardware support (every other configuration in the paper).
    None,
    /// CAT-style way partitioning: network lines own the first `ways` of
    /// every L3 set and can never be displaced by compute traffic (nor
    /// displace it).
    L3Partition {
        /// L3 ways reserved for network data.
        ways: usize,
    },
    /// The "small 1-2 KiB network specific cache" of §3.2: a dedicated,
    /// fully-associative per-core cache consulted for network lines before
    /// the regular hierarchy, with its own next-lines prefetcher ("these
    /// caches could include custom prefetching units that can be used by
    /// middleware such as MPI", §4.6). Network lines bypass L1/L2 entirely,
    /// so they cost compute data nothing.
    DedicatedCache {
        /// Capacity in bytes.
        bytes: usize,
        /// Load-to-use latency in cycles (near-L1 by construction).
        latency: u32,
    },
}

/// Aggregate counters for a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses served by each level.
    pub l1_hits: u64,
    /// Demand accesses served by L2.
    pub l2_hits: u64,
    /// Demand accesses served by L3.
    pub l3_hits: u64,
    /// Demand accesses that went to DRAM.
    pub dram_loads: u64,
    /// Lines installed by prefetchers.
    pub prefetch_fills: u64,
    /// Lines installed/refreshed by the heater.
    pub heat_fills: u64,
    /// Demand accesses served by the dedicated network cache.
    pub net_cache_hits: u64,
}

/// The compute core's view of the memory hierarchy.
pub struct MemSim {
    prof: ArchProfile,
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    streamer: Streamer,
    stamp: u64,
    time_ns: f64,
    hot: Option<HotCacheConfig>,
    heater_active: bool,
    heat_regions: Vec<(u64, u64)>,
    last_heat_ns: f64,
    /// Lines installed by a prefetcher but not yet demanded, with the
    /// pipeline-bubble cost their first demand use will pay (prefetch hides
    /// latency, not bandwidth). An entry outlives its line's eviction.
    prefetch_pending: LineMap,
    net: NetPlacement,
    /// Network-classified regions, sorted by base address.
    net_regions: Vec<(u64, u64)>,
    net_cache: Option<CacheLevel>,
    /// Next line of the synthetic compute working set (see
    /// [`MemSim::pollute`]).
    pollute_cursor: u64,
    stats: MemStats,
}

impl MemSim {
    /// Builds a cold hierarchy with no heater.
    pub fn new(prof: ArchProfile) -> Self {
        Self {
            l1: CacheLevel::new(prof.l1),
            l2: CacheLevel::new(prof.l2),
            l3: CacheLevel::new(prof.l3),
            streamer: Streamer::new(if prof.l2_streamer {
                prof.streamer_degree
            } else {
                0
            }),
            prof,
            stamp: 0,
            time_ns: 0.0,
            hot: None,
            heater_active: false,
            heat_regions: Vec::new(),
            last_heat_ns: f64::NEG_INFINITY,
            prefetch_pending: LineMap::default(),
            net: NetPlacement::None,
            net_regions: Vec::new(),
            net_cache: None,
            pollute_cursor: POLLUTE_BASE / LINE as u64,
            stats: MemStats::default(),
        }
    }

    /// Builds a hierarchy with a (not yet active) heater configuration.
    pub fn with_hot_cache(prof: ArchProfile, hot: HotCacheConfig) -> Self {
        let mut s = Self::new(prof);
        s.hot = Some(hot);
        s.heater_active = true;
        s
    }

    /// The architecture profile.
    pub fn profile(&self) -> &ArchProfile {
        &self.prof
    }

    /// Registers regions the heater keeps warm, replacing prior
    /// registrations, and performs an immediate heat pass if active.
    pub fn set_heat_regions(&mut self, regions: &[(u64, u64)]) {
        self.heat_regions = regions.to_vec();
        if self.heater_active && self.hot.is_some() {
            self.heat_now();
        }
    }

    /// Configures the proposed hardware support for network data, on a
    /// cold hierarchy: a line placed under the old policy could otherwise
    /// stay resident where the new one never looks (and be filled twice).
    pub fn set_net_placement(&mut self, net: NetPlacement) {
        if let NetPlacement::L3Partition { ways } = net {
            assert!(
                ways > 0 && ways < self.prof.l3.ways,
                "partition must leave ways for compute data"
            );
        }
        self.flush();
        self.net = net;
        self.net_cache = match net {
            NetPlacement::DedicatedCache { bytes, latency } => {
                // Fully associative: one set holding every line.
                let lines = (bytes / LINE).max(1);
                Some(CacheLevel::new(crate::config::CacheConfig {
                    size: lines * LINE,
                    ways: lines,
                    latency,
                }))
            }
            _ => None,
        };
    }

    /// Declares which regions hold network data (the match lists), for
    /// [`NetPlacement`] classification.
    pub fn set_net_regions(&mut self, regions: &[(u64, u64)]) {
        self.net_regions = regions.to_vec();
        self.net_regions.sort_unstable();
    }

    /// Whether `line` falls in a network-classified region.
    #[inline]
    fn is_net_line(&self, line: u64) -> bool {
        if self.net_regions.is_empty() {
            return false;
        }
        let addr = line * LINE as u64;
        // Last region with base <= addr.
        let i = self.net_regions.partition_point(|&(base, _)| base <= addr);
        if i == 0 {
            return false;
        }
        let (base, len) = self.net_regions[i - 1];
        addr < base + len
    }

    /// Streams `bytes` of a synthetic compute working set through the
    /// hierarchy — the eviction pressure a computation phase exerts. Each
    /// call continues where the last left off (fresh lines, so the
    /// pressure is real). Returns the compute time in nanoseconds, which
    /// also shows what reserving cache for network data costs the
    /// computation.
    pub fn pollute(&mut self, bytes: u64) -> f64 {
        let lines = bytes / LINE as u64;
        let mut cycles = 0.0;
        for _ in 0..lines {
            let line = self.pollute_cursor;
            self.pollute_cursor += 1;
            cycles += self.demand_line(line);
            if let Some(p) = self.prefetch_pending.remove(line) {
                cycles += p * self.prof.clock_ghz; // penalty ns -> cycles
            }
        }
        let ns = self.prof.cycles_to_ns(cycles);
        self.time_ns += ns;
        ns
    }

    /// Pauses/resumes the heater (the compute-phase collaboration knob).
    pub fn set_heater_active(&mut self, active: bool) {
        self.heater_active = active && self.hot.is_some();
    }

    /// Whether a heater configuration is present.
    pub fn hot_config(&self) -> Option<HotCacheConfig> {
        self.hot
    }

    /// Per-mutation synchronization cost of the active hot-cache setup
    /// (0 when no heater).
    pub fn mutation_overhead_ns(&self) -> f64 {
        match (&self.hot, self.heater_active) {
            (Some(h), true) => h.mutation_overhead_ns,
            _ => 0.0,
        }
    }

    /// Forces a heater pass now: every registered line is refreshed in (or
    /// brought into) the shared L3.
    ///
    /// The pass also *demotes* those lines from the compute core's private
    /// L1/L2: the heater's reads snoop dirty copies out of the other core
    /// (M→S downgrade, data written back to the inclusive LLC), so the
    /// compute core's next access is an L3 hit rather than a private-cache
    /// hit. This interference is exactly why hot caching loses on
    /// Broadwell, whose decoupled L3 is slow relative to its L2, while
    /// winning on Sandy Bridge, whose core-clocked L3 is cheap (§4.3).
    #[inline(never)]
    pub fn heat_now(&mut self) {
        let level = self.hot.map(|h| h.level).unwrap_or(HeatLevel::SharedL3);
        let steal = self.hot.map(|h| h.smt_steal_ns_per_line).unwrap_or(0.0);
        let regions = std::mem::take(&mut self.heat_regions);
        let mut lines = 0u64;
        for &(base, len) in &regions {
            let first = base / LINE as u64;
            let last = (base + len.max(1) - 1) / LINE as u64;
            for line in first..=last {
                self.stamp += 1;
                lines += 1;
                match level {
                    HeatLevel::SharedL3 => {
                        self.l1.invalidate(line);
                        self.l2.invalidate(line);
                        self.l3.insert(line, self.stamp);
                    }
                    HeatLevel::PrivateL2 => {
                        // The sibling shares L1/L2: heated lines stay in the
                        // private hierarchy (inclusively in L3 as well).
                        self.l1.insert(line, self.stamp);
                        self.l2.insert(line, self.stamp);
                        self.l3.insert(line, self.stamp);
                    }
                }
                self.stats.heat_fills += 1;
            }
        }
        // The SMT sibling executes on the compute core's pipelines: its
        // pass costs the application directly.
        self.time_ns += lines as f64 * steal;
        self.heat_regions = regions;
        self.last_heat_ns = self.time_ns;
    }

    #[inline]
    fn maybe_heat(&mut self) {
        if let (Some(hot), true) = (self.hot, self.heater_active) {
            if self.time_ns - self.last_heat_ns >= hot.period_ns && !self.heat_regions.is_empty() {
                self.heat_now();
            }
        }
    }

    /// Advances simulated wall time without memory traffic (compute phases,
    /// network waits). Heater passes occur on schedule.
    pub fn advance(&mut self, ns: f64) {
        self.time_ns += ns;
        self.maybe_heat();
    }

    /// Clears all cache levels and prefetch training — the paper's
    /// per-iteration cache clear. Heated lines return on the next heater
    /// pass, which is exactly hot caching's benefit.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        self.streamer.reset();
        self.prefetch_pending = LineMap::default();
        if let Some(nc) = &mut self.net_cache {
            nc.flush();
        }
    }

    /// Evicts the given regions from every level — what a compute phase's
    /// own working set does to the match list between message arrivals.
    /// (Unlike [`MemSim::flush`], the rest of the cache is untouched, so
    /// this is cheap enough to call per arrival.)
    pub fn evict_regions(&mut self, regions: &[(u64, u64)]) {
        for &(base, len) in regions {
            let first = base / LINE as u64;
            let last = (base + len.max(1) - 1) / LINE as u64;
            for line in first..=last {
                self.l1.invalidate(line);
                self.l2.invalidate(line);
                self.l3.invalidate(line);
                if let Some(nc) = &mut self.net_cache {
                    nc.invalidate(line);
                }
                self.prefetch_pending.remove(line);
            }
        }
    }

    /// Simulated time accumulated by accesses and [`MemSim::advance`].
    pub fn time_ns(&self) -> f64 {
        self.time_ns
    }

    /// Counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets counters (not cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// One demand access of `len` bytes at `addr`; returns its cost in
    /// nanoseconds and advances simulated time.
    ///
    /// Most accesses are single-line L1 hits — a walk charges a node's header,
    /// entries and link on one line — so those are answered here: `hit`
    /// tries the slots L1 stamped last before it scans, and on a hit this
    /// does exactly what the full path's L1-hit exit would (next stamp, slot
    /// refreshed, hit counted, a pending bubble paid) and nothing else.
    /// Everything else is outlined, and the caller is not inlined into: an
    /// inlined copy in each walk loop measured half again slower.
    pub fn access(&mut self, addr: u64, len: u32) -> f64 {
        self.maybe_heat();
        let line = addr / LINE as u64;
        if (addr + len.max(1) as u64 - 1) / LINE as u64 == line
            && !(self.net_cache.is_some() && self.is_net_line(line))
            && self.l1.hit(line, self.stamp + 1)
        {
            self.stamp += 1;
            self.stats.l1_hits += 1;
            let bubble = self.prefetch_pending.remove(line).unwrap_or(0.0);
            let ns = self.prof.cycles_to_ns(self.prof.l1.latency as f64) + bubble;
            self.time_ns += ns;
            return ns;
        }
        self.access_lines(addr, len)
    }

    #[inline(never)]
    fn access_lines(&mut self, addr: u64, len: u32) -> f64 {
        let first = addr / LINE as u64;
        let last = (addr + len.max(1) as u64 - 1) / LINE as u64;
        let mut cycles = 0.0;
        let mut penalty_ns = 0.0;
        for line in first..=last {
            cycles += self.demand_line(line);
            // First demand use of a prefetched line pays its fill bubble.
            if let Some(p) = self.prefetch_pending.remove(line) {
                penalty_ns += p;
            }
        }
        let ns = self.prof.cycles_to_ns(cycles) + penalty_ns;
        self.time_ns += ns;
        ns
    }

    /// Pulls a network line into the dedicated cache from L3/DRAM; returns
    /// the demand cycles (`demand` false = background prefetch: no latency,
    /// but the first use pays the fill bubble).
    fn net_fill(&mut self, line: u64, now: u64, demand: bool) -> f64 {
        let (cycles, fill_ns) = if self.l3.fetch(line, now, self.l3_ways(true)) {
            self.stats.l3_hits += 1;
            (self.prof.l3.latency as f64, self.prof.prefetch_fill_l3_ns)
        } else {
            self.stats.dram_loads += 1;
            (self.prof.dram_cycles(), self.prof.prefetch_fill_dram_ns)
        };
        self.net_cache
            .as_mut()
            .expect("net_fill requires the cache")
            .insert(line, now);
        if !demand {
            self.prefetch_pending.insert(line, fill_ns);
        }
        cycles
    }

    /// L3 way range for a line under the current placement policy.
    fn l3_ways(&self, is_net: bool) -> core::ops::Range<usize> {
        match self.net {
            NetPlacement::L3Partition { ways } if is_net => 0..ways,
            NetPlacement::L3Partition { ways } => ways..self.prof.l3.ways,
            _ => 0..self.prof.l3.ways,
        }
    }

    /// Demand-loads one line, returning cycles and performing fills and
    /// prefetches.
    fn demand_line(&mut self, line: u64) -> f64 {
        self.stamp += 1;
        let now = self.stamp;
        let is_net = self.is_net_line(line);
        // The dedicated network cache intercepts network lines entirely:
        // they bypass L1/L2 (costing compute data nothing) and are served
        // at near-L1 latency once resident.
        if is_net && self.net_cache.is_some() {
            if self.net_cache.as_mut().expect("checked").lookup(line, now) {
                self.stats.net_cache_hits += 1;
                let lat = self.net_cache.as_ref().expect("checked").config().latency;
                return lat as f64;
            }
            let cycles = self.net_fill(line, now, true);
            // The custom prefetching unit: run ahead along the network
            // region (match-list traversals are node-sequential within
            // the element pool).
            for d in 1..=4u64 {
                let target = line + d;
                if self.is_net_line(target)
                    && !self.net_cache.as_ref().expect("checked").contains(target)
                {
                    self.net_fill(target, now, false);
                    self.stats.prefetch_fills += 1;
                }
            }
            return cycles;
        }
        if self.l1.lookup(line, now) {
            self.stats.l1_hits += 1;
            return self.prof.l1.latency as f64;
        }
        // L1 miss: the L1 DCU next-line prefetcher may run ahead. It only
        // streams from L2, so model it as an L1 fill of line+1 when that
        // line is already in L2/L3.
        if self.prof.l1_next_line && (self.l2.contains(line + 1) || self.l3.contains(line + 1)) {
            self.l1.insert(line + 1, now);
            self.stats.prefetch_fills += 1;
        }
        // Every exit below fills L1 and nothing below reads it; filled last
        // of L1's lines, it is what the next access's `hit` tries.
        self.l1.insert(line, now);
        if self.l2.lookup(line, now) {
            self.stats.l2_hits += 1;
            // Inclusive LLC: an L2-resident line is (kept) L3-resident.
            let ways = self.l3_ways(is_net);
            self.l3.insert_ways(line, now, ways);
            self.l2_prefetchers(line, now);
            return self.prof.l2.latency as f64;
        }
        // L2 miss: prefetchers observe the miss stream.
        self.l2_prefetchers(line, now);
        let l3_hit = self.l3.fetch(line, now, self.l3_ways(is_net));
        self.l2.insert(line, now);
        if l3_hit {
            self.stats.l3_hits += 1;
            return self.prof.l3.latency as f64;
        }
        self.stats.dram_loads += 1;
        self.prof.dram_cycles()
    }

    /// The two L2 prefetch units (spatial pair + streamer).
    fn l2_prefetchers(&mut self, line: u64, now: u64) {
        if self.prof.l2_adjacent_pair {
            let buddy = adjacent_pair(line);
            self.prefetch_into_l2(buddy, now);
        }
        let targets = self.streamer.observe(line);
        for t in targets.iter() {
            self.prefetch_into_l2(t, now);
        }
    }

    /// Installs a prefetched line into L2 (background fill) and records the
    /// bandwidth bubble its first demand use will pay. The inclusive LLC
    /// receives the line too.
    fn prefetch_into_l2(&mut self, line: u64, now: u64) {
        let Err(l2_victim) = self.l2.find(line, 0..self.prof.l2.ways) else {
            return;
        };
        // One L3 scan serves the source question and the inclusive fill; a
        // partition hides a line parked in the other ways from the latter.
        let ways = self.l3_ways(self.is_net_line(line));
        let found = self.l3.find(line, ways.clone());
        let penalty = if found.is_ok() || (ways.len() < self.prof.l3.ways && self.l3.contains(line))
        {
            self.prof.prefetch_fill_l3_ns
        } else {
            self.prof.prefetch_fill_dram_ns
        };
        self.l2.stamp(l2_victim, line, now);
        let (Ok(slot) | Err(slot)) = found;
        self.l3.stamp(slot, line, now);
        self.prefetch_pending.insert(line, penalty);
        self.stats.prefetch_fills += 1;
    }

    /// Direct L3-residency query (diagnostics/tests).
    pub fn in_l3(&self, addr: u64) -> bool {
        self.l3.contains(addr / LINE as u64)
    }

    /// The L1, L2 and L3 levels, for their counters (diagnostics/tests).
    pub fn levels(&self) -> [&CacheLevel; 3] {
        [&self.l1, &self.l2, &self.l3]
    }
}

/// `MemSim` consumes `spc-core` access traces directly: plug it in as the
/// sink and the match-list code drives the simulator.
impl AccessSink for MemSim {
    fn read(&mut self, addr: u64, len: u32) {
        self.access(addr, len);
    }

    fn write(&mut self, addr: u64, len: u32) {
        // Write-allocate: same demand path as a read for timing purposes.
        self.access(addr, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchProfile;

    #[test]
    fn repeated_access_costs_l1_latency() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        let cold = m.access(0, 8);
        let warm = m.access(0, 8);
        assert!(cold > warm);
        assert_eq!(warm, 4.0, "1 GHz: 4 cycles = 4 ns");
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().dram_loads, 1);
    }

    #[test]
    fn flush_forces_dram_again() {
        // Two charges of one line with a flush between them: the second
        // must not be answered from the slot the first one filled.
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.access(0, 8);
        m.flush();
        assert_eq!(m.access(8, 8), 100.0, "DRAM, not the 4 ns of an L1 hit");
        assert_eq!(m.stats().dram_loads, 2);
        assert_eq!(m.stats().l1_hits, 0);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.access(60, 8); // bytes 60..68 span lines 0 and 1
        assert_eq!(m.stats().dram_loads, 2);
    }

    #[test]
    fn adjacent_pair_prefetch_makes_buddy_an_l2_hit() {
        let mut prof = ArchProfile::test_tiny();
        prof.l2_adjacent_pair = true;
        let mut m = MemSim::new(prof);
        m.access(0, 8); // demand line 0, pair unit fills line 1 into L2
        let ns = m.access(64, 8); // buddy line
                                  // L2 hit plus the fill bubble of a DRAM-sourced prefetch — still
                                  // far below the 100 ns demand-miss cost.
        assert_eq!(
            ns,
            prof.l2.latency as f64 + prof.prefetch_fill_dram_ns,
            "buddy line was prefetched into L2"
        );
        assert_eq!(m.stats().l2_hits, 1);
        assert!(m.stats().prefetch_fills >= 1);
    }

    #[test]
    fn streamer_turns_sequential_scan_into_l2_hits() {
        let mut prof = ArchProfile::test_tiny();
        prof.l2_streamer = true;
        prof.streamer_degree = 2;
        let mut m = MemSim::new(prof);
        // Sequential scan: first lines miss, later ones ride the streamer.
        for i in 0..8u64 {
            m.access(i * 64, 8);
        }
        let s = m.stats();
        assert!(
            s.l2_hits >= 4,
            "later lines should be streamed into L2: {s:?}"
        );
        assert!(s.dram_loads < 8);
    }

    #[test]
    fn heater_keeps_region_in_l3_across_flush() {
        let hot = HotCacheConfig {
            period_ns: 100.0,
            mutation_overhead_ns: 0.0,
            ..HotCacheConfig::default()
        };
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot);
        m.set_heat_regions(&[(0, 512)]); // 8 lines, immediate heat
        assert!(m.in_l3(0));
        m.flush(); // compute phase wipes the caches...
        assert!(!m.in_l3(0));
        m.advance(200.0); // ...but the heater's next pass restores the region
        assert!(m.in_l3(0));
        let ns = m.access(0, 8);
        assert_eq!(ns, 30.0, "L3 hit instead of 100 ns DRAM load");
    }

    #[test]
    fn paused_heater_does_not_restore() {
        let hot = HotCacheConfig {
            period_ns: 100.0,
            mutation_overhead_ns: 5.0,
            ..HotCacheConfig::default()
        };
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot);
        m.set_heat_regions(&[(0, 512)]);
        assert_eq!(m.mutation_overhead_ns(), 5.0);
        m.set_heater_active(false);
        assert_eq!(m.mutation_overhead_ns(), 0.0);
        m.flush();
        m.advance(1000.0);
        assert!(!m.in_l3(0), "paused heater must not touch the cache");
    }

    #[test]
    fn heated_lines_survive_eviction_pressure() {
        // Tiny L3: 8 KiB = 128 lines, 4-way, 32 sets. Heat 16 lines, then
        // stream far more than the L3 capacity of other data through.
        let hot = HotCacheConfig {
            period_ns: 50.0,
            mutation_overhead_ns: 0.0,
            ..HotCacheConfig::default()
        };
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot);
        let region = (1 << 20, 16 * 64u64);
        m.set_heat_regions(&[(region.0, region.1)]);
        for i in 0..1024u64 {
            m.access(i * 64, 8);
            m.advance(10.0); // heater re-touches every 5 accesses
        }
        // Most of the heated region should still be L3-resident.
        let resident = (0..16).filter(|i| m.in_l3(region.0 + i * 64)).count();
        assert!(resident >= 12, "only {resident}/16 heated lines survived");
    }

    #[test]
    fn without_heater_the_same_pressure_evicts() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        let region = 1u64 << 20;
        // Bring region lines in once.
        for i in 0..16u64 {
            m.access(region + i * 64, 8);
        }
        for i in 0..1024u64 {
            m.access(i * 64, 8);
        }
        let resident = (0..16).filter(|i| m.in_l3(region + i * 64)).count();
        assert!(
            resident <= 4,
            "{resident}/16 unheated lines unexpectedly survived"
        );
    }

    #[test]
    fn sink_adapter_drives_the_simulator() {
        use spc_core::sink::AccessSink;
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.read(0, 8);
        m.write(64, 8);
        assert_eq!(m.stats().dram_loads, 2);
        assert!(m.time_ns() > 0.0);
    }
}

#[cfg(test)]
mod net_placement_tests {
    use super::*;
    use crate::config::ArchProfile;

    const REGION: (u64, u64) = (1 << 30, 1024); // 16 lines of match list

    fn warm_region(m: &mut MemSim) {
        for i in 0..16u64 {
            m.access(REGION.0 + i * 64, 8);
        }
    }

    fn resident_after_pollution(m: &mut MemSim, bytes: u64) -> usize {
        warm_region(m);
        m.pollute(bytes);
        (0..16).filter(|i| m.in_l3(REGION.0 + i * 64)).count()
    }

    #[test]
    fn unprotected_lines_fall_to_pollution() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        // 4x the tiny L3: everything unprotected gets flushed out.
        let survivors = resident_after_pollution(&mut m, 32 * 1024);
        assert!(survivors <= 4, "{survivors}/16 survived without protection");
    }

    #[test]
    fn l3_partition_protects_network_lines() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.set_net_regions(&[REGION]);
        m.set_net_placement(NetPlacement::L3Partition { ways: 2 });
        let survivors = resident_after_pollution(&mut m, 32 * 1024);
        assert_eq!(
            survivors, 16,
            "partitioned lines must survive compute floods"
        );
    }

    #[test]
    fn dedicated_cache_serves_network_lines_at_its_latency() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.set_net_regions(&[REGION]);
        m.set_net_placement(NetPlacement::DedicatedCache {
            bytes: 2048,
            latency: 4,
        });
        warm_region(&mut m);
        m.pollute(32 * 1024);
        // All 16 lines fit the 32-line cache; hits cost its latency.
        let ns = m.access(REGION.0, 8);
        assert_eq!(ns, 4.0);
        assert!(m.stats().net_cache_hits >= 1);
    }

    #[test]
    fn dedicated_cache_keeps_network_data_out_of_l1() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.set_net_regions(&[REGION]);
        m.set_net_placement(NetPlacement::DedicatedCache {
            bytes: 2048,
            latency: 4,
        });
        warm_region(&mut m);
        // Compute data in L1 was never displaced by network lines: fill L1
        // with compute lines first, touch network, compute lines stay.
        let compute = 5u64 << 40;
        for i in 0..8u64 {
            m.access(compute + i * 64, 8);
        }
        warm_region(&mut m);
        let before = m.stats().l1_hits;
        for i in 0..8u64 {
            m.access(compute + i * 64, 8);
        }
        assert_eq!(
            m.stats().l1_hits - before,
            8,
            "compute lines still L1-resident"
        );
    }

    #[test]
    fn partition_charges_compute_with_fewer_ways() {
        // The cost side of the proposal: compute traffic confined to the
        // remaining ways misses more under reuse than with the full cache.
        let reuse = |net: Option<usize>| {
            let mut m = MemSim::new(ArchProfile::test_tiny());
            if let Some(w) = net {
                m.set_net_regions(&[REGION]);
                m.set_net_placement(NetPlacement::L3Partition { ways: w });
            }
            // Working set slightly larger than the unpartitioned L3.
            let lines = (m.profile().l3.lines() + 8) as u64;
            let base = 5u64 << 40;
            for _round in 0..4 {
                for i in 0..lines {
                    m.access(base + i * 64, 8);
                }
            }
            m.stats().dram_loads
        };
        assert!(
            reuse(Some(2)) > reuse(None),
            "reserved ways must cost compute something"
        );
    }

    #[test]
    fn pollution_advances_and_never_reuses_lines() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        let t1 = m.pollute(4096);
        let t2 = m.pollute(4096);
        assert!(t1 > 0.0 && t2 > 0.0);
        // Fresh lines each time: cost does not collapse to cache hits.
        assert!(t2 > t1 * 0.5);
    }

    #[test]
    fn a_refused_partition_leaves_the_old_placement_installed() {
        // Six lines of one L1 and one L2 set, spread over four L3 sets:
        // from the second round on every access is an L3 hit — unless
        // compute data has been left no L3 way to live in.
        let stream =
            |m: &mut MemSim| -> f64 { (0..64u64).map(|i| m.access((i % 6) * 512, 8)).sum() };
        let mut m = MemSim::new(ArchProfile::test_tiny());
        // All 4 of test_tiny's L3 ways: nothing left for compute data.
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.set_net_placement(NetPlacement::L3Partition { ways: 4 })
        }));
        assert!(refused.is_err(), "the partition must be refused");
        let mut untouched = MemSim::new(ArchProfile::test_tiny());
        assert_eq!(stream(&mut m).to_bits(), stream(&mut untouched).to_bits());
        assert_eq!(m.stats(), untouched.stats());
        assert_eq!(m.stats().l3_hits, 58);
    }

    #[test]
    fn repartitioning_a_warm_hierarchy_cannot_leave_a_line_resident_twice() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        let l1 = m.profile().l1;
        let line = 5u64 << 40;
        m.access(line, 8);
        // Push it out of L1 with `ways + 1` lines of its set.
        for i in 1..=l1.ways as u64 + 1 {
            m.access(line + i * (l1.sets() * LINE) as u64, 8);
        }
        // Placed under no policy it sits in L3 way 0; as compute data under
        // the partition it is looked for, and filled, in ways 2..4.
        m.set_net_placement(NetPlacement::L3Partition { ways: 2 });
        m.access(line, 8);
        assert!(m.in_l3(line));
        m.evict_regions(&[(line, 8)]);
        assert!(!m.in_l3(line), "one eviction must remove the line");
    }

    #[test]
    fn is_net_line_classification_boundaries() {
        let mut m = MemSim::new(ArchProfile::test_tiny());
        m.set_net_regions(&[(4096, 128), (8192, 64)]);
        m.set_net_placement(NetPlacement::DedicatedCache {
            bytes: 1024,
            latency: 4,
        });
        //

        // Line containing 4096 and 4160 are network; 4224 is past the end.
        m.access(4096, 8);
        m.access(4160, 8);
        m.access(4224, 8);
        m.access(8192, 8);
        m.access(0, 8);
        // Re-access: network lines hit the net cache, others don't.
        let before = m.stats().net_cache_hits;
        m.access(4096, 8);
        m.access(4160, 8);
        m.access(8192, 8);
        assert_eq!(m.stats().net_cache_hits - before, 3);
        let before = m.stats().net_cache_hits;
        m.access(4224, 8);
        m.access(0, 8);
        assert_eq!(m.stats().net_cache_hits, before);
    }
}

#[cfg(test)]
mod heat_level_tests {
    use super::*;
    use crate::config::ArchProfile;

    #[test]
    fn smt_sibling_heats_the_private_caches() {
        let hot = HotCacheConfig::default().smt_sibling();
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot);
        m.set_heat_regions(&[(0, 512)]);
        m.flush();
        m.advance(hot.period_ns + 1.0);
        // With the sibling heater the first access is already an L1 hit.
        let ns = m.access(0, 8);
        assert_eq!(ns, 4.0, "L1 latency, not L3/DRAM");
    }

    #[test]
    fn socket_mate_heater_only_reaches_l3() {
        let hot = HotCacheConfig::default();
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot);
        m.set_heat_regions(&[(0, 512)]);
        m.flush();
        m.advance(hot.period_ns + 1.0);
        let ns = m.access(0, 8);
        assert_eq!(ns, 30.0, "shared-L3 latency");
    }

    #[test]
    fn smt_heater_charges_the_compute_core() {
        let hot = HotCacheConfig::default().smt_sibling();
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot);
        m.set_heat_regions(&[(0, 64 * 100)]); // 100 lines
        let t0 = m.time_ns();
        m.heat_now();
        assert!(
            m.time_ns() - t0 >= 100.0 * hot.smt_steal_ns_per_line - 1e-9,
            "pass must cost stolen cycles"
        );
    }
}

/// What the same-line filter must not skip: a line answered from the L1
/// slot stamped last is still demoted by a heater pass, still becomes its
/// set's most recent, still pays a pending prefetch bubble exactly once —
/// and (in `tests::flush_forces_dram_again`) is still gone after a flush.
#[cfg(test)]
mod filter_tests {
    use super::*;
    use crate::config::ArchProfile;

    fn hot(period_ns: f64) -> HotCacheConfig {
        HotCacheConfig {
            period_ns,
            ..HotCacheConfig::default()
        }
    }

    #[test]
    fn a_heater_pass_between_two_charges_of_one_line_demotes_it() {
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot(100.0));
        m.set_heat_regions(&[(0, 64)]);
        assert_eq!(m.access(0, 8), 30.0, "heated into L3");
        assert_eq!(m.access(8, 8), 4.0, "same line, same slot: L1");
        m.advance(101.0); // the pass snoops the line out of L1 and L2
        assert_eq!(m.access(16, 8), 30.0, "an L3 hit, not the L1 slot's 4 ns");
        assert_eq!((m.stats().l1_hits, m.stats().l3_hits), (1, 2));
    }

    #[test]
    fn a_same_line_run_still_makes_the_line_its_sets_most_recent() {
        // An SMT-sibling heater stamps its line into L1 between two charges
        // of line `a`, which shares the (2-way) set: only the second
        // charge's refresh makes `a` the newer of the two again.
        let mut m = MemSim::with_hot_cache(ArchProfile::test_tiny(), hot(300.0).smt_sibling());
        let sets = m.profile().l1.sets() as u64;
        m.set_heat_regions(&[(0, 64)]);
        let (a, c) = (sets * 64, 2 * sets * 64);
        m.access(a, 8);
        m.advance(301.0);
        assert_eq!(m.access(a + 8, 8), 4.0);
        m.access(c, 8); // the next fill evicts the other way, the heated line
        assert_eq!(m.access(a, 8), 4.0, "the run kept line a in L1");
        let before = m.stats().l1_hits;
        m.access(0, 8);
        assert_eq!(m.stats().l1_hits, before, "the heated line was the victim");
    }

    #[test]
    fn a_prefetched_lines_bubble_is_paid_exactly_once_on_either_path() {
        let mut prof = ArchProfile::test_tiny();
        prof.l2_adjacent_pair = true;
        // The scan path: line 1 is prefetched into L2 by line 0's demand.
        let mut m = MemSim::new(prof);
        m.access(0, 8);
        assert_eq!(m.access(64, 8), 12.0 + prof.prefetch_fill_dram_ns);
        assert_eq!(m.access(72, 8), 4.0, "the bubble is gone");
        // The filter path: an SMT-sibling pass then stamps line 1 into L1,
        // last of all, so its first demand is answered from that slot.
        let mut m = MemSim::with_hot_cache(prof, hot(1e9).smt_sibling());
        m.access(0, 8);
        m.set_heat_regions(&[(64, 64)]);
        assert_eq!(m.access(64, 8), 4.0 + prof.prefetch_fill_dram_ns);
        assert_eq!(m.access(72, 8), 4.0, "the bubble is gone");
        assert_eq!(m.levels()[0].hits, 2);
    }
}
