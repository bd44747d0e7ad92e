//! The multithreaded-decomposition benchmark behind Table 1 (§2.3).
//!
//! A receiving MPI process is decomposed into a 2-D or 3-D grid of threads;
//! each thread posts receives for every stencil neighbour that lives in a
//! *different* process. A second multithreaded process proxies all the
//! senders, so every message arrives from MPI rank 1 and is distinguished by
//! tag. Threads enter the communication phase concurrently, so both the
//! posting order and the arrival order are scheduler-dependent — modelled
//! here as seeded shuffles, so every row is a function of its seed.
//!
//! `tr`, `ts` and the list length are *exact* combinatorial quantities of
//! the decomposition and stencil; the mean search depth is the stochastic
//! quantity the benchmark measures (averaged over trials, as the paper
//! averages over 10).

use spc_rng::SeedableRng;
use spc_rng::SliceRandom;

use spc_core::entry::{Envelope, RecvSpec};
use spc_core::list::{BaselineList, MatchList};
use spc_core::stats::DepthStats;
use spc_core::NullSink;

/// Stencil shapes from Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil {
    /// 2-D 5-point (von Neumann).
    S5,
    /// 2-D 9-point (Moore).
    S9,
    /// 3-D 7-point (faces).
    S7,
    /// 3-D 27-point (faces + edges + corners).
    S27,
}

impl Stencil {
    /// Neighbour offsets of this stencil (excluding the centre).
    pub fn offsets(&self) -> Vec<[i64; 3]> {
        let mut out = Vec::new();
        match self {
            Stencil::S5 => {
                for (dx, dy) in [(-1, 0), (1, 0), (0, -1), (0, 1)] {
                    out.push([dx, dy, 0]);
                }
            }
            Stencil::S9 => {
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        if (dx, dy) != (0, 0) {
                            out.push([dx, dy, 0]);
                        }
                    }
                }
            }
            Stencil::S7 => {
                for d in [
                    [-1, 0, 0],
                    [1, 0, 0],
                    [0, -1, 0],
                    [0, 1, 0],
                    [0, 0, -1],
                    [0, 0, 1],
                ] {
                    out.push(d);
                }
            }
            Stencil::S27 => {
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        for dz in -1..=1i64 {
                            if (dx, dy, dz) != (0, 0, 0) {
                                out.push([dx, dy, dz]);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Short name as printed in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            Stencil::S5 => "5pt",
            Stencil::S9 => "9pt",
            Stencil::S7 => "7pt",
            Stencil::S27 => "27pt",
        }
    }
}

/// One benchmark configuration: thread grid + stencil.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomp {
    /// Thread-grid extents (use `[x, y, 1]` for 2-D decompositions).
    pub dims: [u64; 3],
    /// Stencil shape.
    pub stencil: Stencil,
}

impl Decomp {
    /// Formats the decomposition as in Table 1 ("32 x 32", "8 x 8 x 4").
    pub fn label(&self) -> String {
        let [x, y, z] = self.dims;
        if z == 1 && matches!(self.stencil, Stencil::S5 | Stencil::S9) {
            format!("{x} x {y}")
        } else {
            format!("{x} x {y} x {z}")
        }
    }

    fn in_grid(&self, p: [i64; 3]) -> bool {
        (0..3).all(|i| p[i] >= 0 && (p[i] as u64) < self.dims[i])
    }

    /// Enumerates every off-process message as
    /// `(receiving thread, process offset, sending thread coordinate)`.
    ///
    /// A neighbour at an off-grid coordinate lives in the adjacent process
    /// whose offset is the per-axis sign of the overflow; the sending thread
    /// is the coordinate wrapped back into the grid.
    fn cross_messages(&self) -> Vec<([u64; 3], [i64; 3], [u64; 3])> {
        let mut msgs = Vec::new();
        let dims = self.dims.map(|d| d as i64);
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..dims[2] {
                    for off in self.stencil.offsets() {
                        let n = [x + off[0], y + off[1], z + off[2]];
                        if self.in_grid(n) {
                            continue;
                        }
                        let mut proc = [0i64; 3];
                        let mut src = [0u64; 3];
                        for i in 0..3 {
                            if n[i] < 0 {
                                proc[i] = -1;
                                src[i] = (n[i] + dims[i]) as u64;
                            } else if n[i] >= dims[i] {
                                proc[i] = 1;
                                src[i] = (n[i] - dims[i]) as u64;
                            } else {
                                src[i] = n[i] as u64;
                            }
                        }
                        msgs.push(([x as u64, y as u64, z as u64], proc, src));
                    }
                }
            }
        }
        msgs
    }
}

/// The Table 1 measurements for one decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecompResult {
    /// Threads posting receives (`tr`): threads with ≥1 off-process
    /// neighbour.
    pub tr: u64,
    /// Sending threads (`ts`): distinct (neighbour process, thread) pairs.
    pub ts: u64,
    /// Match-list length: total off-process receives posted.
    pub length: u64,
    /// Mean search depth over all matches and trials.
    pub mean_search_depth: f64,
}

/// Computes tr/ts/length exactly and the mean search depth by simulating
/// `trials` scheduler interleavings with seeds derived from `seed`.
pub fn analyze(decomp: Decomp, trials: u32, seed: u64) -> DecompResult {
    let msgs = decomp.cross_messages();
    let length = msgs.len() as u64;

    let mut receivers: Vec<[u64; 3]> = msgs.iter().map(|(r, ..)| *r).collect();
    receivers.sort_unstable();
    receivers.dedup();
    let tr = receivers.len() as u64;

    let mut senders: Vec<([i64; 3], [u64; 3])> = msgs.iter().map(|(_, p, s)| (*p, *s)).collect();
    senders.sort_unstable();
    senders.dedup();
    let ts = senders.len() as u64;

    let mut depths = DepthStats::new();
    for trial in 0..trials {
        run_shuffled_trial(&msgs, decomp, seed ^ (trial as u64 + 1), &mut depths);
    }
    DecompResult {
        tr,
        ts,
        length,
        mean_search_depth: depths.mean(),
    }
}

/// One trial: receives are appended in a random interleaving of per-thread
/// posting order; arrivals occur in a random interleaving of per-sender
/// issue order. Tags uniquely identify each message, as the proxy-sender
/// benchmark does.
fn run_shuffled_trial(
    msgs: &[([u64; 3], [i64; 3], [u64; 3])],
    decomp: Decomp,
    seed: u64,
    depths: &mut DepthStats,
) {
    let mut rng = spc_rng::StdRng::seed_from_u64(seed);
    // Posting order: threads enter the phase concurrently; each thread posts
    // its own receives in order, but the interleaving across threads is
    // scheduler-chosen. A global shuffle of messages keyed by receiving
    // thread approximates the interleaving; because each thread's receives
    // are for distinct tags, intra-thread order does not affect depths.
    let mut post_order: Vec<usize> = (0..msgs.len()).collect();
    post_order.shuffle(&mut rng);
    let mut arrive_order: Vec<usize> = (0..msgs.len()).collect();
    arrive_order.shuffle(&mut rng);

    let mut list = BaselineList::new();
    let mut sink = NullSink;
    let _ = decomp;
    for &m in &post_order {
        // All messages come from the proxy sender (rank 1); the tag is the
        // unique message id.
        list.append(
            spc_core::entry::PostedEntry::from_spec(RecvSpec::new(1, m as i32, 0), m as u64),
            &mut sink,
        );
    }
    for &m in &arrive_order {
        let r = list.search_remove(&Envelope::new(1, m as i32, 0), &mut sink);
        debug_assert!(r.found.is_some());
        depths.record(r.depth as u64);
    }
    debug_assert!(list.is_empty());
}

/// The ten configurations of Table 1, in row order.
pub fn table1_rows() -> Vec<Decomp> {
    vec![
        Decomp {
            dims: [32, 32, 1],
            stencil: Stencil::S5,
        },
        Decomp {
            dims: [64, 32, 1],
            stencil: Stencil::S5,
        },
        Decomp {
            dims: [32, 32, 1],
            stencil: Stencil::S9,
        },
        Decomp {
            dims: [64, 32, 1],
            stencil: Stencil::S9,
        },
        Decomp {
            dims: [8, 8, 4],
            stencil: Stencil::S7,
        },
        Decomp {
            dims: [1, 1, 128],
            stencil: Stencil::S7,
        },
        Decomp {
            dims: [1, 1, 256],
            stencil: Stencil::S7,
        },
        Decomp {
            dims: [8, 8, 4],
            stencil: Stencil::S27,
        },
        Decomp {
            dims: [1, 1, 128],
            stencil: Stencil::S27,
        },
        Decomp {
            dims: [1, 1, 256],
            stencil: Stencil::S27,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(dims: [u64; 3], stencil: Stencil) -> DecompResult {
        analyze(Decomp { dims, stencil }, 3, 42)
    }

    #[test]
    fn table1_2d_counts_are_exact() {
        // Paper Table 1, 2-D rows: (tr, ts, length).
        let r = row([32, 32, 1], Stencil::S5);
        assert_eq!((r.tr, r.ts, r.length), (124, 128, 128));
        let r = row([64, 32, 1], Stencil::S5);
        assert_eq!((r.tr, r.ts, r.length), (188, 192, 192));
        let r = row([32, 32, 1], Stencil::S9);
        assert_eq!((r.tr, r.ts, r.length), (124, 132, 380));
        let r = row([64, 32, 1], Stencil::S9);
        assert_eq!((r.tr, r.ts, r.length), (188, 196, 572));
    }

    #[test]
    fn table1_3d_counts_are_exact() {
        let r = row([8, 8, 4], Stencil::S7);
        assert_eq!((r.tr, r.ts, r.length), (184, 256, 256));
        let r = row([1, 1, 128], Stencil::S7);
        assert_eq!((r.tr, r.ts, r.length), (128, 514, 514));
        let r = row([1, 1, 256], Stencil::S7);
        assert_eq!((r.tr, r.ts, r.length), (256, 1026, 1026));
        let r = row([8, 8, 4], Stencil::S27);
        assert_eq!((r.tr, r.ts, r.length), (184, 344, 2072));
        let r = row([1, 1, 128], Stencil::S27);
        assert_eq!((r.tr, r.ts, r.length), (128, 1042, 3074));
        let r = row([1, 1, 256], Stencil::S27);
        assert_eq!((r.tr, r.ts, r.length), (256, 2066, 6146));
    }

    #[test]
    fn search_depth_is_near_a_quarter_of_length() {
        // With both orders random, the expected normalized depth sits near
        // 1/4 — which is what every Table 1 row shows (0.19–0.26 × length).
        for dims in [[32, 32, 1], [8, 8, 4]] {
            let stencil = if dims[2] == 1 {
                Stencil::S9
            } else {
                Stencil::S27
            };
            let r = analyze(Decomp { dims, stencil }, 10, 7);
            let ratio = r.mean_search_depth / r.length as f64;
            assert!(
                (0.15..0.35).contains(&ratio),
                "{dims:?}: depth {:.1} / length {} = {ratio:.3}",
                r.mean_search_depth,
                r.length
            );
        }
    }

    #[test]
    fn depth_is_deterministic_for_a_seed() {
        let d = Decomp {
            dims: [16, 16, 1],
            stencil: Stencil::S5,
        };
        let a = analyze(d, 5, 99);
        let b = analyze(d, 5, 99);
        assert_eq!(a, b);
        let c = analyze(d, 5, 100);
        assert_ne!(a.mean_search_depth, c.mean_search_depth);
    }

    #[test]
    fn labels_match_table_style() {
        assert_eq!(
            Decomp {
                dims: [32, 32, 1],
                stencil: Stencil::S5
            }
            .label(),
            "32 x 32"
        );
        assert_eq!(
            Decomp {
                dims: [8, 8, 4],
                stencil: Stencil::S27
            }
            .label(),
            "8 x 8 x 4"
        );
        assert_eq!(Stencil::S27.label(), "27pt");
        assert_eq!(table1_rows().len(), 10);
    }

    #[test]
    fn thread_counts_cover_whole_grid_for_pencils() {
        // Every thread of a 1×1×N pencil posts (all have off-grid x/y
        // neighbours under 7pt).
        let r = row([1, 1, 16], Stencil::S7);
        assert_eq!(r.tr, 16);
        assert_eq!(r.length, 16 * 4 + 2);
    }
}
