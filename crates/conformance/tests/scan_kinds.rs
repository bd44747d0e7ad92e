//! Oracle conformance under every slab-scan kernel.
//!
//! The SIMD slab kernels (`spc_core::simd`) claim bit-for-bit equivalence
//! with the scalar packed scan; `tests/simd_props.rs` in `spc-core` pins
//! that at the kernel and trace level. This binary closes the loop at the
//! *semantic* level: the full randomized op streams replayed against the
//! Vec-backed oracle, once per kernel — so a kind-dependent divergence in
//! match identity, FIFO arbitration, or depth accounting fails conformance,
//! not just a unit test. A kind this CPU cannot run is clamped to the best
//! one it can, so every test passes (on a narrower kernel) on every host.

use spc_conformance::{
    diff_posted, diff_umq, posted_ops, render_ops, shrink_ops, umq_ops, DepthMode,
};
use spc_core::entry::{Element, PostedEntry, UnexpectedEntry};
use spc_core::list::{BaselineList, Footprint, Lla, MatchList, Search};
use spc_core::simd::ScanKind;
use spc_core::sink::AccessSink;

const N_OPS: usize = 10_000;
const SEED: u64 = 0x5EED_51D0;

/// An [`Lla`] whose every search runs under one named kernel.
struct Pinned<E: Element, const N: usize> {
    inner: Lla<E, N>,
    kind: ScanKind,
}

impl<E: Element, const N: usize> Pinned<E, N> {
    fn new(kind: ScanKind) -> Self {
        Self {
            inner: Lla::new(),
            kind,
        }
    }
}

impl<E: Element, const N: usize> MatchList<E> for Pinned<E, N> {
    fn append<S: AccessSink>(&mut self, e: E, sink: &mut S) {
        self.inner.append(e, sink);
    }

    fn search_remove<S: AccessSink>(&mut self, probe: &E::Probe, sink: &mut S) -> Search<E> {
        self.inner.search_remove_as(self.kind, probe, sink)
    }

    fn remove_by_id<S: AccessSink>(&mut self, id: u64, sink: &mut S) -> Option<E> {
        self.inner.remove_by_id(id, sink)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn snapshot(&self) -> Vec<E> {
        self.inner.snapshot()
    }

    fn find_first(&self, probe: &E::Probe) -> Option<(E, u32)> {
        self.inner.find_first(probe)
    }

    fn clear(&mut self) {
        self.inner.clear();
    }

    fn footprint(&self) -> Footprint {
        self.inner.footprint()
    }

    fn heat_regions(&self, out: &mut Vec<(u64, u64)>) {
        self.inner.heat_regions(out);
    }

    fn kind_name(&self) -> String {
        format!("{}@{}", self.inner.kind_name(), self.kind.as_str())
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

fn check_posted<L: MatchList<PostedEntry>>(mk: impl Fn() -> L, seed: u64) {
    let ops = posted_ops(seed, N_OPS);
    if let Err(e) = diff_posted(&mut mk(), DepthMode::Exact, &ops) {
        let min = shrink_ops(&ops, |s| {
            diff_posted(&mut mk(), DepthMode::Exact, s).is_err()
        });
        panic!(
            "{}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            mk().kind_name(),
            min.len(),
            render_ops("PostedOp", &min)
        );
    }
}

fn check_umq<L: MatchList<UnexpectedEntry>>(mk: impl Fn() -> L, seed: u64) {
    let ops = umq_ops(seed, N_OPS);
    if let Err(e) = diff_umq(&mut mk(), DepthMode::Exact, &ops) {
        let min = shrink_ops(&ops, |s| diff_umq(&mut mk(), DepthMode::Exact, s).is_err());
        panic!(
            "{}: conformance divergence: {e}\nminimized repro ({} ops):\n{}",
            mk().kind_name(),
            min.len(),
            render_ops("UmqOp", &min)
        );
    }
}

/// The LLA bitmap scan at cacheline and deep arities and the full-width
/// 32-slot bitmap, all under `kind`, and the wide nodes (no bitmap), which
/// take the field-wise reference walk under every kind.
fn every_lla_shape_conforms(kind: ScanKind, seed: u64) {
    check_posted(|| Pinned::<PostedEntry, 2>::new(kind), seed + 2);
    check_umq(|| Pinned::<UnexpectedEntry, 3>::new(kind), seed + 3);
    check_posted(|| Pinned::<PostedEntry, 8>::new(kind), seed + 8);
    check_posted(|| Pinned::<PostedEntry, 32>::new(kind), seed + 32);
    check_posted(|| Pinned::<PostedEntry, 512>::new(kind), seed + 512);
    check_umq(|| Pinned::<UnexpectedEntry, 768>::new(kind), seed + 513);
}

#[test]
fn portable_kind_conforms_to_the_oracle() {
    every_lla_shape_conforms(ScanKind::Portable, SEED);
}

#[test]
fn simd128_kind_conforms_to_the_oracle() {
    every_lla_shape_conforms(ScanKind::Simd128, SEED + 1000);
}

#[test]
fn simd256_kind_conforms_to_the_oracle() {
    every_lla_shape_conforms(ScanKind::Simd256, SEED + 2000);
}

/// The production entry point (`search_remove`, detected kind) on the same
/// shapes, plus the baseline list, which has one walk on every CPU.
#[test]
fn default_kind_conforms_to_the_oracle() {
    let seed = SEED + 3000;
    check_posted(BaselineList::<PostedEntry>::new, seed);
    check_umq(BaselineList::<UnexpectedEntry>::new, seed ^ 1);
    check_posted(Lla::<PostedEntry, 2>::new, seed + 2);
    check_umq(Lla::<UnexpectedEntry, 3>::new, seed + 3);
    check_posted(Lla::<PostedEntry, 8>::new, seed + 8);
    check_posted(Lla::<PostedEntry, 32>::new, seed + 32);
    check_posted(Lla::<PostedEntry, 512>::new, seed + 512);
    check_umq(Lla::<UnexpectedEntry, 768>::new, seed + 513);
}
