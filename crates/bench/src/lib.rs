//! # spc-bench — the paper-reproduction harness
//!
//! One binary per table/figure in the paper's evaluation:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — multithreaded queue lengths & mean search depths |
//! | `fig1` | Figure 1 — AMR / Sweep3D / Halo3D queue-length histograms |
//! | `fig2` | Figure 2 — cache-line packing, computed from the live types |
//! | `fig4` | Figure 4 — spacial locality, Sandy Bridge (a/b/c) |
//! | `fig5` | Figure 5 — spacial locality, Broadwell (a/b/c) |
//! | `fig6` | Figure 6 — temporal locality, Sandy Bridge (a/b/c) |
//! | `fig7` | Figure 7 — temporal locality, Broadwell (a/b/c) |
//! | `fig8` | Figure 8 — AMG2013 weak scaling |
//! | `fig9` | Figure 9 — MiniFE vs match-list length |
//! | `fig10` | Figure 10 — FDS factor speedups |
//! | `heater_micro` | §4.3 — random-access latency, heater on/off (simulated) |
//! | `latency` | modified `osu_latency` sweeps (companion to figs 4–7) |
//! | `proposal` | §4.6/§6 — cache partition & dedicated network cache |
//! | `ablation_sim` | model ablations: placement, prefetchers, heater binding |
//! | `replay` | trace-driven engine shootout (record + replay) |
//!
//! Each of these reads no clock and prints the same bytes for the same
//! code, and each is a section of `results/regen.sh` (`fig1` as
//! `fig1 --small`; its paper-scale run is archived), so CI fails when
//! one of them moves without the regenerated `results/figures.txt`.
//!
//! One native artifact lives here: `matching_gate` writes the tracked
//! `BENCH_matching.json` matrix, whose count columns (`bytes_per_op`,
//! `lines_per_op`, `l1_hit_pct`, `l3_hit_pct`) are functions of the code
//! alone and are what CI compares; its `ns_per_op` column ([`measure`]) is
//! archived, never asserted. Native *time* is judged by `benchmark/`
//! (alternated pairs against a bound), nowhere else.

#![warn(missing_docs)]

pub mod measure;
pub mod report;

use std::fmt::Display;

/// Prints a fixed-width table: a title line, a header row, and rows.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let cols = headers.len();
    let mut width = vec![0usize; cols];
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    for (i, h) in hdr.iter().enumerate() {
        width[i] = width[i].max(h.len());
    }
    for r in &body {
        assert_eq!(r.len(), cols, "row width mismatch");
        for (i, c) in r.iter().enumerate() {
            width[i] = width[i].max(c.len());
        }
    }
    let line = |r: &[String]| {
        let cells: Vec<String> = r
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
            .collect();
        println!("  {}", cells.join("  "));
    };
    line(&hdr);
    for r in &body {
        line(r);
    }
}

/// Formats a float with 4 significant-ish decimals for small values, fewer
/// for large ones (bandwidth tables span 0.05 … 3300 MiB/s).
pub fn fmt_adaptive(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Human-readable byte size ("1", "512", "4KiB", "1MiB").
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}")
    }
}

/// True when `--small` was passed: laptop-scale motif runs for smoke tests.
pub fn small_flag() -> bool {
    std::env::args().any(|a| a == "--small")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(1), "1");
        assert_eq!(fmt_bytes(512), "512");
        assert_eq!(fmt_bytes(4096), "4KiB");
        assert_eq!(fmt_bytes(1 << 20), "1MiB");
    }

    #[test]
    fn adaptive_formatting() {
        assert_eq!(fmt_adaptive(3300.4), "3300");
        assert_eq!(fmt_adaptive(2.345), "2.35");
        assert_eq!(fmt_adaptive(0.0512), "0.0512");
    }
}

/// Shared figure generators for the OSU bandwidth figures (4–7).
pub mod figures {
    use crate::{fmt_adaptive, fmt_bytes, print_table};
    use spc_cachesim::LocalityConfig;
    use spc_osu::bw::{bandwidth_mibps, osu_depths, osu_sizes, OsuConfig};

    fn sweep(
        name: &str,
        configs: &[LocalityConfig],
        cfg_of: &impl Fn(LocalityConfig) -> OsuConfig,
    ) {
        let headers: Vec<String> = std::iter::once("x".to_owned())
            .chain(configs.iter().map(|c| c.label()))
            .collect();

        // (a) message-size sweep at queue depth 1024.
        let rows: Vec<Vec<String>> = osu_sizes()
            .into_iter()
            .map(|size| {
                let mut row = vec![fmt_bytes(size)];
                for &loc in configs {
                    row.push(fmt_adaptive(bandwidth_mibps(&cfg_of(loc), size, 1024)));
                }
                row
            })
            .collect();
        print_table(
            &format!("{name}a: bandwidth (MiB/s) vs msg size, depth 1024"),
            &headers,
            &rows,
        );

        // (b)/(c) depth sweeps at 1 B and 4 KiB.
        for (sub, size) in [("b", 1u64), ("c", 4096)] {
            let rows: Vec<Vec<String>> = osu_depths()
                .into_iter()
                .map(|depth| {
                    let mut row = vec![depth.to_string()];
                    for &loc in configs {
                        row.push(fmt_adaptive(bandwidth_mibps(&cfg_of(loc), size, depth)));
                    }
                    row
                })
                .collect();
            print_table(
                &format!(
                    "{name}{sub}: bandwidth (MiB/s) vs PRQ search length, {} msgs",
                    fmt_bytes(size)
                ),
                &headers,
                &rows,
            );
        }
    }

    /// Figures 4/5: baseline vs the LLA arity sweep.
    pub fn spacial(name: &str, cfg_of: impl Fn(LocalityConfig) -> OsuConfig) {
        let configs: Vec<LocalityConfig> = std::iter::once(LocalityConfig::baseline())
            .chain([2usize, 4, 8, 16, 32].into_iter().map(LocalityConfig::lla))
            .collect();
        sweep(name, &configs, &cfg_of);
    }

    /// Figures 6/7: baseline, HC, LLA, HC+LLA (the paper's first LLA level).
    pub fn temporal(name: &str, cfg_of: impl Fn(LocalityConfig) -> OsuConfig) {
        let configs = vec![
            LocalityConfig::baseline(),
            LocalityConfig::hc(),
            LocalityConfig::lla(2),
            LocalityConfig::hc_lla(2),
        ];
        sweep(name, &configs, &cfg_of);
    }
}
