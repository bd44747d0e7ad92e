//! The simulated side: an engine walked through `spc-cachesim`'s `MemSim`
//! with the paper's modified-osu_bw discipline — caches flushed before
//! every window, run with the heater off and with it on.
//!
//! All numbers here are simulated nanoseconds and exact counts; for one
//! seed they repeat bit for bit, so a layout change is judged on a count.

use std::time::Instant;

use spc_cachesim::{ArchProfile, HotCacheConfig, MemSim, MemStats};

use crate::adapter::{SimEngine, SimStructure, Subject};
use crate::ops::{Op, Stream, Verb, NONE};

/// Outcome code of a verb the two sides disagreed on (never expected).
const MISMATCH: u64 = u64::MAX - 3;

/// One engine and its cache hierarchy.
pub struct Side {
    eng: SimEngine,
    mem: MemSim,
    /// Heater period to wait out after each flush; `None` with the heater off.
    heat_period_ns: Option<f64>,
    regions: Vec<(u64, u64)>,
    /// Simulated time spent inside `post_recv` and `arrival`.
    pub sim_ns: f64,
    /// Posts and arrivals that matched.
    pub flows: u64,
    /// Ops applied.
    pub verbs: u64,
    /// Windows begun.
    pub windows: u64,
    /// Sum over windows of the share of heat-region lines resident in L3
    /// when the window's first op arrives.
    resident_sum: f64,
}

impl Side {
    /// A primed engine on a cold hierarchy; `hot` adds the element-pool heater.
    pub fn new(structure: SimStructure, profile: ArchProfile, hot: bool, prime: &[Op]) -> Self {
        let cfg = HotCacheConfig::with_element_pool();
        let mut s = Self {
            eng: SimEngine::new(structure),
            mem: if hot {
                MemSim::with_hot_cache(profile, cfg)
            } else {
                MemSim::new(profile)
            },
            heat_period_ns: hot.then_some(cfg.period_ns),
            regions: Vec::new(),
            sim_ns: 0.0,
            flows: 0,
            verbs: 0,
            windows: 0,
            resident_sum: 0.0,
        };
        for op in prime {
            s.eng.apply(op, &mut s.mem);
        }
        s.mem.reset_stats();
        s
    }

    /// The compute phase between windows: caches wiped, then one heater
    /// period passes (the heater, if on, re-warms its regions).
    pub fn begin_window(&mut self) {
        let regions = self.eng.heat_regions();
        if regions != self.regions {
            if self.heat_period_ns.is_some() {
                self.mem.set_heat_regions(&regions);
            }
            self.regions = regions;
        }
        self.mem.flush();
        self.mem
            .advance(self.heat_period_ns.map_or(1.0, |p| p + 1.0));
        self.windows += 1;
        self.resident_sum += self.resident_share();
    }

    fn resident_share(&self) -> f64 {
        let (mut lines, mut resident) = (0u64, 0u64);
        for &(base, len) in &self.regions {
            for addr in (base..base + len).step_by(64) {
                lines += 1;
                resident += self.mem.in_l3(addr) as u64;
            }
        }
        resident as f64 / lines.max(1) as f64
    }

    /// Applies `op`; matching verbs cost simulated walk time plus the
    /// heater's per-mutation synchronisation.
    pub fn apply(&mut self, op: &Op) -> u64 {
        let t0 = self.mem.time_ns();
        let out = self.eng.apply(op, &mut self.mem);
        self.verbs += 1;
        if matches!(op.verb, Verb::Post | Verb::Arrive) {
            self.sim_ns += self.mem.time_ns() - t0 + self.mem.mutation_overhead_ns();
            self.flows += (out != NONE) as u64;
        }
        out
    }

    /// Simulated nanoseconds per matched flow.
    pub fn flow_ns(&self) -> f64 {
        self.sim_ns / self.flows.max(1) as f64
    }

    /// Cache counters since priming.
    pub fn stats(&self) -> MemStats {
        self.mem.stats()
    }

    /// Mean share of heat-region lines resident in L3 at window start, in percent.
    pub fn l3_resident_pct(&self) -> f64 {
        100.0 * self.resident_sum / self.windows.max(1) as f64
    }

    /// `(prq, umq)` lengths.
    pub fn lens(&self) -> (usize, usize) {
        self.eng.lens()
    }
}

/// The same engine twice — heater off, heater on — fed the same ops: the
/// subject of the `cold_window` workload.
pub struct Pair {
    /// Heater off.
    pub cold: Side,
    /// Heater on.
    pub hot: Side,
}

impl Pair {
    /// Both sides primed.
    pub fn new(structure: SimStructure, profile: ArchProfile, prime: &[Op]) -> Self {
        Self {
            cold: Side::new(structure, profile, false, prime),
            hot: Side::new(structure, profile, true, prime),
        }
    }
}

impl Subject for Pair {
    fn apply(&mut self, op: &Op) -> u64 {
        let (a, b) = (self.cold.apply(op), self.hot.apply(op));
        if a == b {
            a
        } else {
            MISMATCH
        }
    }

    fn begin_window(&mut self) {
        self.cold.begin_window();
        self.hot.begin_window();
    }
}

/// A fixed replay: the first `windows` windows of `stream`, once.
pub struct Replay {
    /// Both sides after the replay.
    pub pair: Pair,
    /// Ops whose outcome was not the expected one.
    pub failed: u64,
    /// Host time the replay took.
    pub host_ns: f64,
}

/// Replays the first `windows` windows of `stream` over the primed queues.
pub fn replay(
    structure: SimStructure,
    profile: ArchProfile,
    prime: &[Op],
    stream: &Stream,
    windows: usize,
) -> Replay {
    let t0 = Instant::now();
    let mut pair = Pair::new(structure, profile, prime);
    let mut failed = 0;
    for i in 0..windows.min(stream.windows()) {
        pair.begin_window();
        for op in stream.window(i) {
            failed += !op.accepts(pair.apply(op)) as u64;
        }
    }
    Replay {
        pair,
        failed,
        host_ns: t0.elapsed().as_nanos() as f64,
    }
}

/// Demand accesses served anywhere in the hierarchy.
pub fn accesses(s: &MemStats) -> u64 {
    s.l1_hits + s.l2_hits + s.l3_hits + s.dram_loads + s.net_cache_hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build;

    #[test]
    fn simulated_times_repeat_bit_for_bit() {
        let w = build("cold_window", 3).unwrap();
        let run = || {
            let r = replay(
                SimStructure::Lla2,
                ArchProfile::sandy_bridge(),
                &w.prime,
                &w.streams[0],
                4,
            );
            assert_eq!(r.failed, 0);
            assert_eq!(r.pair.cold.lens(), w.quiescent_lens());
            (
                r.pair.cold.flow_ns(),
                r.pair.hot.flow_ns(),
                r.pair.hot.l3_resident_pct(),
            )
        };
        let (first, second) = (run(), run());
        assert_eq!(first.0.to_bits(), second.0.to_bits());
        assert_eq!(first.1.to_bits(), second.1.to_bits());
        // The heater changes what the walk costs, and after a flush its
        // regions are back in L3 before the window's first op.
        assert_ne!(first.0, first.1);
        assert_eq!(first.2, 100.0);
    }
}
