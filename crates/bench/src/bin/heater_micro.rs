//! Regenerates the §4.3 **custom cache-heater microbenchmark**: per-access
//! iteration time of a random-access pattern over an 8 MiB buffer, with the
//! caches cleared (a compute phase) and the heater either off (cold) or
//! keeping the buffer in the shared L3 (hot).
//!
//! Paper numbers: Sandy Bridge 47.5 ns → 22.9 ns; Broadwell 38.5 ns →
//! 22.8 ns. Random accesses are independent, so the out-of-order window
//! overlaps misses (~2 in flight) — modelled as a 0.5 latency factor plus a
//! fixed ~10 ns loop overhead.
//!
//! The real heater thread is exercised by `spc-core`'s heater tests and
//! timed by `benchmark/`'s traced ladder (`heater.pass_ns`), not here.

use spc_bench::print_table;
use spc_cachesim::{ArchProfile, HotCacheConfig, MemSim};

const BUF: u64 = 8 << 20;
const ACCESSES: u64 = 100_000;
const MLP_OVERLAP: f64 = 0.5;
const LOOP_OVERHEAD_NS: f64 = 10.0;

fn simulated(arch: ArchProfile, hot: bool) -> f64 {
    let mut mem = if hot {
        let mut m = MemSim::with_hot_cache(
            arch,
            HotCacheConfig {
                period_ns: 10_000.0,
                mutation_overhead_ns: 0.0,
                ..HotCacheConfig::default()
            },
        );
        m.set_heat_regions(&[(1 << 30, BUF)]);
        m
    } else {
        MemSim::new(arch)
    };
    mem.flush();
    mem.advance(20_000.0);
    // SplitMix64 index stream over the buffer's lines.
    let mut x = 0x1234_5678u64;
    let mut total = 0.0;
    for _ in 0..ACCESSES {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let off = (z % (BUF / 64)) * 64;
        total += mem.access((1 << 30) + off, 4) * MLP_OVERLAP + LOOP_OVERHEAD_NS;
    }
    total / ACCESSES as f64
}

fn main() {
    let rows: Vec<Vec<String>> = [ArchProfile::sandy_bridge(), ArchProfile::broadwell()]
        .into_iter()
        .map(|arch| {
            vec![
                arch.name.to_owned(),
                format!("{:.1}", simulated(arch, false)),
                format!("{:.1}", simulated(arch, true)),
            ]
        })
        .collect();
    print_table(
        "§4.3 heater microbenchmark: random-access iteration time (ns), simulated",
        &["arch", "cold", "hot"],
        &rows,
    );
    println!("\npaper: Sandy Bridge 47.5 -> 22.9 ns; Broadwell 38.5 -> 22.8 ns.");
}
