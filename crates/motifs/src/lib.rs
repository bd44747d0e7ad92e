//! # spc-motifs — communication-pattern motifs and the decomposition
//! benchmark
//!
//! Reproduces the workload side of the paper's motivation study (§2.3):
//!
//! * [`amr`], [`sweep3d`], [`halo3d`] — SST-style communication motifs
//!   whose queue-length traces regenerate Figure 1 (a–c);
//! * [`decomp`] — the multithreaded 2-D/3-D decomposition benchmark behind
//!   Table 1, with exact combinatorial `tr`/`ts`/length and simulated
//!   search depths.

#![warn(missing_docs)]

pub mod amr;
pub mod decomp;
pub mod halo3d;
pub mod sweep3d;

pub use decomp::{analyze, table1_rows, Decomp, DecompResult, Stencil};
