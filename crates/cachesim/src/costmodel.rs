//! Memoized match-cost model.
//!
//! Application-scale simulations (`spc-mpisim`, the mini-app proxies) need
//! the cost of "a cold-start PRQ search to depth *d* under locality
//! configuration *c* on architecture *a*" many millions of times. Running
//! the full cache simulator for every arrival would be prohibitive, so this
//! model runs it **once per distinct depth** — driving the *real* match-list
//! code over [`MemSim`] — and memoizes the result.
//!
//! The cold-start protocol mirrors the paper's modified microbenchmarks
//! (§4.1): build the queue, wipe the caches (the compute phase), let the
//! heater restore its regions if hot caching is on, then search.

use std::collections::BTreeMap;

use spc_core::addr::AddrSpace;
use spc_core::entry::{Envelope, PostedEntry, RecvSpec};
use spc_core::list::{BaselineList, Lla, MatchList};
use spc_core::NullSink;

use crate::config::ArchProfile;
use crate::hierarchy::{HotCacheConfig, MemSim};

/// Which queue structure the model prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// One entry per fragmented heap node.
    Baseline,
    /// Linked list of arrays with the given arity (2, 4, 8, 16, 32, 64,
    /// 128, 256 or 512).
    Lla(usize),
}

impl Structure {
    /// Short label used in reports ("baseline", "LLA-8", ...).
    pub fn label(&self) -> String {
        match self {
            Structure::Baseline => "baseline".to_owned(),
            Structure::Lla(n) => format!("LLA-{n}"),
        }
    }
}

/// A locality configuration: structure choice plus hot caching on/off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalityConfig {
    /// The PRQ structure.
    pub structure: Structure,
    /// Whether the heater keeps the queue's regions warm.
    pub hot_cache: bool,
}

impl LocalityConfig {
    /// The unmodified baseline.
    pub fn baseline() -> Self {
        Self {
            structure: Structure::Baseline,
            hot_cache: false,
        }
    }

    /// LLA with arity `n`, no heater.
    pub fn lla(n: usize) -> Self {
        Self {
            structure: Structure::Lla(n),
            hot_cache: false,
        }
    }

    /// Baseline with hot caching.
    pub fn hc() -> Self {
        Self {
            structure: Structure::Baseline,
            hot_cache: true,
        }
    }

    /// LLA with arity `n` plus hot caching (the combined configuration).
    pub fn hc_lla(n: usize) -> Self {
        Self {
            structure: Structure::Lla(n),
            hot_cache: true,
        }
    }

    /// Report label ("baseline", "HC", "LLA-2", "HC+LLA-2").
    pub fn label(&self) -> String {
        match (self.hot_cache, self.structure) {
            (false, s) => s.label(),
            (true, Structure::Baseline) => "HC".to_owned(),
            (true, s) => format!("HC+{}", s.label()),
        }
    }

    fn hot_config(&self) -> Option<HotCacheConfig> {
        if !self.hot_cache {
            return None;
        }
        Some(match self.structure {
            // The element pool avoids per-element region-list locking.
            Structure::Lla(_) => HotCacheConfig::with_element_pool(),
            Structure::Baseline => HotCacheConfig::default(),
        })
    }
}

/// Memoized cold-start search-cost model.
pub struct CostModel {
    prof: ArchProfile,
    cfg: LocalityConfig,
    memo: BTreeMap<u32, f64>,
}

impl CostModel {
    /// Creates a model for one (architecture, locality) pair.
    pub fn new(prof: ArchProfile, cfg: LocalityConfig) -> Self {
        Self {
            prof,
            cfg,
            memo: BTreeMap::new(),
        }
    }

    /// The locality configuration.
    pub fn config(&self) -> LocalityConfig {
        self.cfg
    }

    /// The architecture profile.
    pub fn profile(&self) -> &ArchProfile {
        &self.prof
    }

    /// Nanoseconds for a cold-start search that inspects `depth` entries
    /// (match found on the last inspected entry).
    pub fn cold_search_ns(&mut self, depth: u32) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        if let Some(&ns) = self.memo.get(&depth) {
            return ns;
        }
        let ns = simulate_search(&self.prof, self.cfg, depth);
        self.memo.insert(depth, ns);
        ns
    }

    /// Synchronization cost charged per queue mutation (append/remove) by
    /// the active hot-cache setup; zero when the heater is off.
    pub fn mutation_overhead_ns(&self) -> f64 {
        self.cfg
            .hot_config()
            .map_or(0.0, |h| h.mutation_overhead_ns)
    }

    /// Approximate append cost: the tail node is essentially always in L1
    /// (it was just written), so charge one L1 store.
    pub fn append_ns(&self) -> f64 {
        self.prof.cycles_to_ns(self.prof.l1.latency as f64) + self.mutation_overhead_ns()
    }

    /// Full arrival cost: cold search to `depth` plus any hot-cache
    /// mutation overhead for the removal.
    pub fn arrival_ns(&mut self, depth: u32) -> f64 {
        self.cold_search_ns(depth) + self.mutation_overhead_ns()
    }
}

/// Builds the queue at `depth` entries and runs one post-flush search over
/// the cache simulator.
fn simulate_search(prof: &ArchProfile, cfg: LocalityConfig, depth: u32) -> f64 {
    // Fixed simulated regions make the model fully deterministic.
    match cfg.structure {
        Structure::Baseline => run::<BaselineList<PostedEntry>>(
            BaselineList::with_addr(AddrSpace::scattered(1 << 30, 0xC0FFEE)),
            prof,
            cfg,
            depth,
        ),
        Structure::Lla(n) => dispatch_lla(n, prof, cfg, depth),
    }
}

fn dispatch_lla(n: usize, prof: &ArchProfile, cfg: LocalityConfig, depth: u32) -> f64 {
    let addr = AddrSpace::contiguous(1 << 30);
    match n {
        2 => run(Lla::<PostedEntry, 2>::with_addr(addr), prof, cfg, depth),
        4 => run(Lla::<PostedEntry, 4>::with_addr(addr), prof, cfg, depth),
        8 => run(Lla::<PostedEntry, 8>::with_addr(addr), prof, cfg, depth),
        16 => run(Lla::<PostedEntry, 16>::with_addr(addr), prof, cfg, depth),
        32 => run(Lla::<PostedEntry, 32>::with_addr(addr), prof, cfg, depth),
        64 => run(Lla::<PostedEntry, 64>::with_addr(addr), prof, cfg, depth),
        128 => run(Lla::<PostedEntry, 128>::with_addr(addr), prof, cfg, depth),
        256 => run(Lla::<PostedEntry, 256>::with_addr(addr), prof, cfg, depth),
        512 => run(Lla::<PostedEntry, 512>::with_addr(addr), prof, cfg, depth),
        other => panic!("unsupported LLA arity {other} (use 2..=512 powers of two)"),
    }
}

fn run<L: MatchList<PostedEntry>>(
    mut list: L,
    prof: &ArchProfile,
    cfg: LocalityConfig,
    depth: u32,
) -> f64 {
    let mut null = NullSink;
    for i in 0..depth {
        list.append(
            PostedEntry::from_spec(RecvSpec::new(0, i as i32, 0), i as u64),
            &mut null,
        );
    }
    let mut mem = match cfg.hot_config() {
        Some(h) => {
            let mut m = MemSim::with_hot_cache(*prof, h);
            let mut regions = Vec::new();
            list.heat_regions(&mut regions);
            m.set_heat_regions(&regions);
            m
        }
        None => MemSim::new(*prof),
    };
    // The compute phase: caches wiped; the heater (if any) restores its
    // regions into L3 on its next pass.
    mem.flush();
    mem.advance(cfg.hot_config().map_or(1.0, |h| h.period_ns + 1.0));
    let t0 = mem.time_ns();
    let probe = Envelope::new(0, (depth - 1) as i32, 0);
    let r = list.search_remove(&probe, &mut mem);
    debug_assert_eq!(r.found.map(|e| e.request), Some((depth - 1) as u64));
    debug_assert_eq!(r.depth, depth);
    mem.time_ns() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_searches_cost_more() {
        let mut m = CostModel::new(ArchProfile::sandy_bridge(), LocalityConfig::baseline());
        let d64 = m.cold_search_ns(64);
        let d512 = m.cold_search_ns(512);
        assert!(d512 > 4.0 * d64, "512-deep {d512} vs 64-deep {d64}");
        assert_eq!(m.cold_search_ns(0), 0.0);
    }

    #[test]
    fn memoization_returns_identical_values() {
        let mut m = CostModel::new(ArchProfile::broadwell(), LocalityConfig::lla(8));
        let a = m.cold_search_ns(100);
        let b = m.cold_search_ns(100);
        assert_eq!(a, b);
    }

    #[test]
    fn lla_beats_baseline_on_cold_deep_searches() {
        let prof = ArchProfile::sandy_bridge();
        let mut base = CostModel::new(prof, LocalityConfig::baseline());
        let mut lla = CostModel::new(prof, LocalityConfig::lla(8));
        let (b, l) = (base.cold_search_ns(1024), lla.cold_search_ns(1024));
        assert!(
            l < b / 1.5,
            "LLA-8 should be well under baseline: lla={l:.0}ns baseline={b:.0}ns"
        );
    }

    #[test]
    fn lla_arity_sweep_improves_then_saturates() {
        // The paper (§4.2): "the performance gain stops once we reach 8
        // elements per array".
        let prof = ArchProfile::sandy_bridge();
        let depth = 1024;
        let cost = |n| CostModel::new(prof, LocalityConfig::lla(n)).cold_search_ns(depth);
        let c2 = cost(2);
        let c8 = cost(8);
        let c32 = cost(32);
        assert!(c8 < c2, "LLA-8 {c8:.0} should beat LLA-2 {c2:.0}");
        let knee_gain = (c8 - c32) / c8;
        assert!(
            knee_gain.abs() < 0.25,
            "beyond 8 the gain should flatten: c8={c8:.0} c32={c32:.0}"
        );
    }

    #[test]
    fn hot_caching_helps_sandy_bridge_baseline_search() {
        let prof = ArchProfile::sandy_bridge();
        let mut cold = CostModel::new(prof, LocalityConfig::baseline());
        let mut hot = CostModel::new(prof, LocalityConfig::hc());
        let (c, h) = (cold.cold_search_ns(256), hot.cold_search_ns(256));
        assert!(h < c, "heated search {h:.0}ns should beat cold {c:.0}ns");
    }

    #[test]
    fn hot_cache_gain_is_smaller_on_broadwell() {
        // The architectural contrast behind Figures 6 vs 7: BDW's slower
        // decoupled L3 narrows the DRAM-vs-L3 gap the heater exploits.
        let d = 512;
        let gain = |prof: ArchProfile| {
            let c = CostModel::new(prof, LocalityConfig::baseline()).cold_search_ns(d);
            let h = CostModel::new(prof, LocalityConfig::hc()).cold_search_ns(d);
            (c - h) / c
        };
        let snb = gain(ArchProfile::sandy_bridge());
        let bdw = gain(ArchProfile::broadwell());
        assert!(
            snb > bdw,
            "SNB relative gain {snb:.3} should exceed BDW {bdw:.3}"
        );
    }

    #[test]
    fn mutation_overhead_reflects_element_pool() {
        let prof = ArchProfile::sandy_bridge();
        let hc = CostModel::new(prof, LocalityConfig::hc());
        let hc_lla = CostModel::new(prof, LocalityConfig::hc_lla(2));
        let none = CostModel::new(prof, LocalityConfig::baseline());
        assert!(hc.mutation_overhead_ns() > hc_lla.mutation_overhead_ns());
        assert_eq!(none.mutation_overhead_ns(), 0.0);
    }

    #[test]
    fn labels_are_reportable() {
        assert_eq!(LocalityConfig::baseline().label(), "baseline");
        assert_eq!(LocalityConfig::lla(8).label(), "LLA-8");
        assert_eq!(LocalityConfig::hc().label(), "HC");
        assert_eq!(LocalityConfig::hc_lla(2).label(), "HC+LLA-2");
    }
}
