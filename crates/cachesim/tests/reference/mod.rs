//! The naive reference model of the memory hierarchy — test support only.
//!
//! This is the simulator as it was before its hot path was reworked, kept
//! in the most obvious form so `differential.rs` can drive it in lockstep
//! with the shipped [`spc_cachesim::MemSim`]: two parallel vectors per
//! level with an `INVALID` tag sentinel, `%` set indexing, a flush that
//! fills both vectors, a separate scan for every `contains`/`lookup`/
//! `insert`, and std's `HashMap` for the pending prefetch bubbles. Every
//! simulated quantity the two produce must agree bit for bit.
//!
//! [`Fault`] injects the two mistakes a same-line filter is most likely to
//! make, so the suite can show it would notice them.

use std::collections::HashMap;
use std::ops::Range;

use spc_cachesim::prefetch::{adjacent_pair, Streamer};
use spc_cachesim::{ArchProfile, CacheConfig, HeatLevel, HotCacheConfig, MemStats, NetPlacement};

const LINE: u64 = 64;
const INVALID: u64 = u64::MAX;
const POLLUTE_BASE: u64 = 7 << 40;

/// A deliberate deviation from the model, for the sensitivity convictions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The model itself.
    None,
    /// An L1 hit on the line the previous demand touched leaves its LRU
    /// stamp alone.
    StaleRepeat,
    /// An L1 hit never pays the bubble of a prefetched line.
    ForgottenBubble,
}

pub struct RefLevel {
    ways: usize,
    sets: usize,
    latency: u32,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    pub hits: u64,
    pub misses: u64,
}

impl RefLevel {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.size / LINE as usize / cfg.ways;
        Self {
            ways: cfg.ways,
            sets,
            latency: cfg.latency,
            tags: vec![INVALID; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            hits: 0,
            misses: 0,
        }
    }

    fn set(&self, line: u64, ways: Range<usize>) -> Range<usize> {
        let start = (line as usize % self.sets) * self.ways;
        start + ways.start..start + ways.end
    }

    fn all(&self) -> Range<usize> {
        0..self.ways
    }

    fn position(&self, line: u64, ways: Range<usize>) -> Option<usize> {
        self.set(line, ways).find(|&i| self.tags[i] == line)
    }

    fn lookup(&mut self, line: u64, now: u64, ways: Range<usize>) -> bool {
        match self.position(line, ways) {
            Some(i) => {
                self.stamps[i] = now;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn contains(&self, line: u64) -> bool {
        self.position(line, self.all()).is_some()
    }

    fn insert(&mut self, line: u64, now: u64, ways: Range<usize>) {
        let slot = self.position(line, ways.clone()).unwrap_or_else(|| {
            let set = self.set(line, ways);
            // An empty way first, else the least recent; ties keep the
            // earlier way.
            set.clone()
                .find(|&i| self.tags[i] == INVALID)
                .or_else(|| set.min_by_key(|&i| self.stamps[i]))
                .expect("a set has ways")
        });
        self.tags[slot] = line;
        self.stamps[slot] = now;
    }

    fn invalidate(&mut self, line: u64) {
        if let Some(i) = self.position(line, self.all()) {
            self.tags[i] = INVALID;
            self.stamps[i] = 0;
        }
    }

    fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.stamps.fill(0);
    }

    pub fn resident(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

pub struct RefSim {
    prof: ArchProfile,
    pub l1: RefLevel,
    pub l2: RefLevel,
    pub l3: RefLevel,
    streamer: Streamer,
    stamp: u64,
    pub time_ns: f64,
    hot: Option<HotCacheConfig>,
    heater_active: bool,
    heat_regions: Vec<(u64, u64)>,
    last_heat_ns: f64,
    pending: HashMap<u64, f64>,
    net: NetPlacement,
    net_regions: Vec<(u64, u64)>,
    net_cache: Option<RefLevel>,
    pollute_cursor: u64,
    pub stats: MemStats,
    fault: Fault,
    /// Line of the previous demand, and whether that demand hit L1 — what
    /// the injected faults key on.
    last_demand: u64,
    last_was_l1_hit: bool,
}

fn lines(base: u64, len: u64) -> std::ops::RangeInclusive<u64> {
    base / LINE..=(base + len.max(1) - 1) / LINE
}

impl RefSim {
    pub fn new(prof: ArchProfile, hot: Option<HotCacheConfig>, fault: Fault) -> Self {
        let degree = if prof.l2_streamer {
            prof.streamer_degree
        } else {
            0
        };
        Self {
            l1: RefLevel::new(prof.l1),
            l2: RefLevel::new(prof.l2),
            l3: RefLevel::new(prof.l3),
            streamer: Streamer::new(degree),
            prof,
            stamp: 0,
            time_ns: 0.0,
            hot,
            heater_active: hot.is_some(),
            heat_regions: Vec::new(),
            last_heat_ns: f64::NEG_INFINITY,
            pending: HashMap::new(),
            net: NetPlacement::None,
            net_regions: Vec::new(),
            net_cache: None,
            pollute_cursor: POLLUTE_BASE / LINE,
            stats: MemStats::default(),
            fault,
            last_demand: INVALID,
            last_was_l1_hit: false,
        }
    }

    pub fn set_heat_regions(&mut self, regions: &[(u64, u64)]) {
        self.heat_regions = regions.to_vec();
        if self.heater_active {
            self.heat_now();
        }
    }

    pub fn set_heater_active(&mut self, active: bool) {
        self.heater_active = active && self.hot.is_some();
    }

    /// Validates first, and starts from a cold hierarchy, as the shipped
    /// `set_net_placement` is defined to.
    pub fn set_net_placement(&mut self, net: NetPlacement) {
        if let NetPlacement::L3Partition { ways } = net {
            assert!(ways > 0 && ways < self.prof.l3.ways);
        }
        self.flush();
        self.net = net;
        self.net_cache = match net {
            NetPlacement::DedicatedCache { bytes, latency } => {
                let lines = (bytes / LINE as usize).max(1);
                Some(RefLevel::new(CacheConfig {
                    size: lines * LINE as usize,
                    ways: lines,
                    latency,
                }))
            }
            _ => None,
        };
    }

    pub fn set_net_regions(&mut self, regions: &[(u64, u64)]) {
        self.net_regions = regions.to_vec();
    }

    fn is_net_line(&self, line: u64) -> bool {
        let addr = line * LINE;
        // The shipped model takes the last region whose base is not past
        // the address; the generator's regions never overlap.
        self.net_regions
            .iter()
            .any(|&(base, len)| base <= addr && addr < base + len)
    }

    pub fn pollute(&mut self, bytes: u64) -> f64 {
        let mut cycles = 0.0;
        for _ in 0..bytes / LINE {
            let line = self.pollute_cursor;
            self.pollute_cursor += 1;
            cycles += self.demand_line(line);
            if let Some(p) = self.take_bubble(line) {
                cycles += p * self.prof.clock_ghz;
            }
        }
        let ns = self.prof.cycles_to_ns(cycles);
        self.time_ns += ns;
        ns
    }

    pub fn heat_now(&mut self) {
        let level = self.hot.map_or(HeatLevel::SharedL3, |h| h.level);
        let steal = self.hot.map_or(0.0, |h| h.smt_steal_ns_per_line);
        let mut heated = 0u64;
        for (base, len) in self.heat_regions.clone() {
            for line in lines(base, len) {
                self.stamp += 1;
                heated += 1;
                match level {
                    HeatLevel::SharedL3 => {
                        self.l1.invalidate(line);
                        self.l2.invalidate(line);
                    }
                    HeatLevel::PrivateL2 => {
                        self.l1.insert(line, self.stamp, self.l1.all());
                        self.l2.insert(line, self.stamp, self.l2.all());
                    }
                }
                self.l3.insert(line, self.stamp, self.l3.all());
                self.stats.heat_fills += 1;
            }
        }
        self.time_ns += heated as f64 * steal;
        self.last_heat_ns = self.time_ns;
    }

    fn maybe_heat(&mut self) {
        if let (Some(hot), true) = (self.hot, self.heater_active) {
            if self.time_ns - self.last_heat_ns >= hot.period_ns && !self.heat_regions.is_empty() {
                self.heat_now();
            }
        }
    }

    pub fn advance(&mut self, ns: f64) {
        self.time_ns += ns;
        self.maybe_heat();
    }

    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        self.streamer.reset();
        self.pending.clear();
        if let Some(nc) = &mut self.net_cache {
            nc.flush();
        }
    }

    pub fn evict_regions(&mut self, regions: &[(u64, u64)]) {
        for &(base, len) in regions {
            for line in lines(base, len) {
                self.l1.invalidate(line);
                self.l2.invalidate(line);
                self.l3.invalidate(line);
                if let Some(nc) = &mut self.net_cache {
                    nc.invalidate(line);
                }
                self.pending.remove(&line);
            }
        }
    }

    pub fn in_l3(&self, addr: u64) -> bool {
        self.l3.contains(addr / LINE)
    }

    pub fn access(&mut self, addr: u64, len: u32) -> f64 {
        self.maybe_heat();
        let mut cycles = 0.0;
        let mut penalty_ns = 0.0;
        for line in lines(addr, len as u64) {
            cycles += self.demand_line(line);
            if let Some(p) = self.take_bubble(line) {
                penalty_ns += p;
            }
        }
        let ns = self.prof.cycles_to_ns(cycles) + penalty_ns;
        self.time_ns += ns;
        ns
    }

    /// The pending bubble of the line just demanded, consumed — unless the
    /// injected fault says an L1 hit never looks.
    fn take_bubble(&mut self, line: u64) -> Option<f64> {
        if self.fault == Fault::ForgottenBubble && self.last_was_l1_hit {
            return None;
        }
        self.pending.remove(&line)
    }

    fn l3_ways(&self, is_net: bool) -> Range<usize> {
        match self.net {
            NetPlacement::L3Partition { ways } if is_net => 0..ways,
            NetPlacement::L3Partition { ways } => ways..self.prof.l3.ways,
            _ => 0..self.prof.l3.ways,
        }
    }

    fn net_fill(&mut self, line: u64, now: u64, demand: bool) -> f64 {
        let ways = self.l3_ways(true);
        let (cycles, fill_ns) = if self.l3.lookup(line, now, ways.clone()) {
            self.stats.l3_hits += 1;
            (self.prof.l3.latency as f64, self.prof.prefetch_fill_l3_ns)
        } else {
            self.stats.dram_loads += 1;
            self.l3.insert(line, now, ways);
            (self.prof.dram_cycles(), self.prof.prefetch_fill_dram_ns)
        };
        let nc = self.net_cache.as_mut().expect("net_fill needs the cache");
        nc.insert(line, now, 0..nc.ways);
        if !demand {
            self.pending.insert(line, fill_ns);
        }
        cycles
    }

    fn demand_line(&mut self, line: u64) -> f64 {
        self.stamp += 1;
        let now = self.stamp;
        let repeat = std::mem::replace(&mut self.last_demand, line) == line;
        self.last_was_l1_hit = false;
        let is_net = self.is_net_line(line);
        if is_net && self.net_cache.is_some() {
            let nc = self.net_cache.as_mut().expect("checked");
            if nc.lookup(line, now, 0..nc.ways) {
                self.stats.net_cache_hits += 1;
                return self.net_cache.as_ref().expect("checked").latency as f64;
            }
            let cycles = self.net_fill(line, now, true);
            for target in line + 1..=line + 4 {
                let cached = self.net_cache.as_ref().expect("checked").contains(target);
                if self.is_net_line(target) && !cached {
                    self.net_fill(target, now, false);
                    self.stats.prefetch_fills += 1;
                }
            }
            return cycles;
        }
        let l1_all = self.l1.all();
        if self.fault == Fault::StaleRepeat && repeat && self.l1.contains(line) {
            // The injected fault: a hit, counted, but not refreshed.
            self.l1.hits += 1;
            self.stats.l1_hits += 1;
            self.last_was_l1_hit = true;
            return self.prof.l1.latency as f64;
        }
        if self.l1.lookup(line, now, l1_all.clone()) {
            self.stats.l1_hits += 1;
            self.last_was_l1_hit = true;
            return self.prof.l1.latency as f64;
        }
        if self.prof.l1_next_line && (self.l2.contains(line + 1) || self.l3.contains(line + 1)) {
            self.l1.insert(line + 1, now, l1_all.clone());
            self.stats.prefetch_fills += 1;
        }
        let l2_all = self.l2.all();
        if self.l2.lookup(line, now, l2_all.clone()) {
            self.stats.l2_hits += 1;
            self.l1.insert(line, now, l1_all);
            let ways = self.l3_ways(is_net);
            self.l3.insert(line, now, ways);
            self.l2_prefetchers(line, now);
            return self.prof.l2.latency as f64;
        }
        self.l2_prefetchers(line, now);
        let ways = self.l3_ways(is_net);
        let cycles = if self.l3.lookup(line, now, ways.clone()) {
            self.stats.l3_hits += 1;
            self.prof.l3.latency as f64
        } else {
            self.stats.dram_loads += 1;
            self.l3.insert(line, now, ways);
            self.prof.dram_cycles()
        };
        self.l2.insert(line, now, l2_all);
        self.l1.insert(line, now, l1_all);
        cycles
    }

    fn l2_prefetchers(&mut self, line: u64, now: u64) {
        if self.prof.l2_adjacent_pair {
            self.prefetch_into_l2(adjacent_pair(line), now);
        }
        for target in self.streamer.observe(line).iter() {
            self.prefetch_into_l2(target, now);
        }
    }

    fn prefetch_into_l2(&mut self, line: u64, now: u64) {
        if self.l2.contains(line) {
            return;
        }
        let penalty = if self.l3.contains(line) {
            self.prof.prefetch_fill_l3_ns
        } else {
            self.prof.prefetch_fill_dram_ns
        };
        self.l2.insert(line, now, self.l2.all());
        let ways = self.l3_ways(self.is_net_line(line));
        self.l3.insert(line, now, ways);
        self.pending.insert(line, penalty);
        self.stats.prefetch_fills += 1;
    }
}
