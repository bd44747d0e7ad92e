//! Native hot-path benchmark gate for the packed-key + SIMD matching
//! optimisations.
//!
//! Runs a fixed, seeded workload matrix — queue depth × structure ×
//! hit-position × wildcard ratio × scan kernel — through the current
//! search (`search_remove`; on the LLAs, under each supported slab-scan
//! kind) and, for the linear structures, the reference field-wise scan
//! (`search_remove_fieldwise`), and writes the results as
//! `BENCH_matching.json` with the stable `spc-bench/1` schema (see
//! [`spc_bench::report`]).
//!
//! Methodology: each cell builds a fresh list of `depth` entries over a
//! small tag alphabet with *unique (rank, tag) pairs*, so a probe targets
//! exactly one entry and the hit position is the target's FIFO index while
//! the comparator still sees realistic tag reuse. Hit cells run the
//! steady-state loop
//! `search_remove(probe) -> append(found)`: removing the entry at index `t`
//! and re-appending it leaves positions `0..t` fixed and rotates the
//! `depth - t` suffix, so a precomputed cycle of `depth - t` probes repeats
//! exactly and every timed operation scans to the same position. Miss cells
//! probe a tag no entry carries (a full scan, the deep-list figure the
//! acceptance gate keys on). Wall time per op comes from
//! [`spc_bench::measure::measure_ns`] (calibrate, then best mean); simulated
//! bytes per op come from replaying one full probe cycle against a
//! `CountingSink` twin on a freshly built list; the cachesim columns
//! (`lines_per_op`, `l1_hit_pct`, `l3_hit_pct`) come from replaying the
//! identical seeded op stream against an `spc-cachesim` `MemSim` on the
//! Sandy Bridge profile — one full warm-up cycle, a stats reset, then one
//! measured cycle — so a timing win can be *attributed*: a SIMD row that is
//! faster at identical lines/op and hit ratios won on compute, not on a
//! layout change.
//!
//! Every LLA cell under a vector kernel also runs a built-in
//! **cross-check**: a twin pair of lists replays the same probe cycle under
//! the cell's kernel and under the portable scalar kernel in lockstep, and
//! any divergence in match identity or reported depth aborts the run with a
//! nonzero exit.
//!
//! Kernels are named per row through `Lla::search_remove_as` — every kind
//! the CPU supports gets its own row on every LLA cell. The baseline list
//! has one packed walk (scalar on every CPU) and the binned structures
//! search per-channel FIFOs with the scalar packed compare, so both get one
//! `packed` row per cell.
//!
//! Usage: `matching_gate [--quick] [--out <path>]` (also `--json <path>`;
//! default `BENCH_matching.json`). `--quick` shrinks the matrix and budgets
//! for CI smoke runs and marks the JSON `"quick": true`. The binary exits
//! nonzero on panic, an unwritable output path, or a kernel cross-check
//! divergence — perf regressions are recorded, not fatal, so CI stays green
//! on noisy runners.

use spc_bench::measure::measure_ns;
use spc_bench::report;
use spc_cachesim::{ArchProfile, MemSim};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, ANY_SOURCE};
use spc_core::list::{BaselineList, HashBins, Lla, MatchList, RankTrie, Search, SourceBins};
use spc_core::simd::{self, ScanKind};
use spc_core::sink::{AccessSink, CountingSink, NullSink};
use spc_rng::{Rng, SeedableRng, StdRng};
use std::time::Duration;

/// Tag alphabet size. MPI applications reuse a handful of tags across many
/// peers, so the comparator keeps passing the tag compare and failing on
/// the rank — the branchy multi-field case the packed key collapses.
const TAGS: usize = 4;
/// Workload seed; fixed so every run measures the identical op stream.
const SEED: u64 = 0xC0_FFEE_2026u64;

/// Communicator size for `depth` entries: ranks grow with the queue (deep
/// queues come from many peers, not one chatty one), with one extra rank
/// kept unposted so the miss probe can carry a live tag and a dead rank.
fn rank_count(depth: usize) -> usize {
    64usize.max(depth.div_ceil(TAGS) + 1)
}

/// Measured code path plus the slab-scan kernel under it — the `path` and
/// `scan_kind` JSON columns.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The reference field-by-field comparator.
    Fieldwise,
    /// The packed-key search; on an LLA, under this slab-scan kernel.
    Packed(ScanKind),
}

impl Variant {
    fn path(self) -> &'static str {
        match self {
            Variant::Fieldwise => "fieldwise",
            Variant::Packed(_) => "packed",
        }
    }

    /// The `scan_kind` column: `fieldwise` < `packed` (scalar portable)
    /// < `simd128` < `simd256`.
    fn scan_kind(self) -> &'static str {
        match self {
            Variant::Fieldwise => "fieldwise",
            Variant::Packed(ScanKind::Portable) => "packed",
            Variant::Packed(k) => k.as_str(),
        }
    }
}

/// One point of the workload matrix.
#[derive(Clone, Copy)]
struct Cell {
    structure: &'static str,
    depth: usize,
    hit: &'static str,
    wildcard: f64,
    variant: Variant,
}

struct MeasureCfg {
    samples: usize,
    time: Duration,
}

/// A structure's search under a [`Variant`]. The default is the one search
/// every structure has; the linear structures add their reference scan,
/// and the LLA names its kernel.
trait VariantSearch: MatchList<PostedEntry> {
    fn search_variant<S: AccessSink>(
        &mut self,
        _variant: Variant,
        p: &Envelope,
        sink: &mut S,
    ) -> Search<PostedEntry> {
        self.search_remove(p, sink)
    }
}

impl VariantSearch for SourceBins<PostedEntry> {}
impl VariantSearch for HashBins<PostedEntry> {}
impl VariantSearch for RankTrie<PostedEntry> {}

impl VariantSearch for BaselineList<PostedEntry> {
    fn search_variant<S: AccessSink>(
        &mut self,
        variant: Variant,
        p: &Envelope,
        sink: &mut S,
    ) -> Search<PostedEntry> {
        match variant {
            Variant::Fieldwise => self.search_remove_fieldwise(p, sink),
            Variant::Packed(_) => self.search_remove(p, sink),
        }
    }
}

impl<const N: usize> VariantSearch for Lla<PostedEntry, N> {
    fn search_variant<S: AccessSink>(
        &mut self,
        variant: Variant,
        p: &Envelope,
        sink: &mut S,
    ) -> Search<PostedEntry> {
        match variant {
            Variant::Fieldwise => self.search_remove_fieldwise(p, sink),
            Variant::Packed(kind) => self.search_remove_as(kind, p, sink),
        }
    }
}

/// Object-safe facade over the concrete list types and search paths, so one
/// cell runner drives every matrix point. `*_null` methods time against a
/// `NullSink`; `*_count` methods replay against the byte-accounting twin;
/// `*_sim` methods replay against the cache-hierarchy simulator.
trait GateList {
    fn append_null(&mut self, e: PostedEntry);
    fn append_count(&mut self, e: PostedEntry, sink: &mut CountingSink);
    fn append_sim(&mut self, e: PostedEntry, sink: &mut MemSim);
    fn search_null(&mut self, p: &Envelope) -> Search<PostedEntry>;
    fn search_count(&mut self, p: &Envelope, sink: &mut CountingSink) -> Search<PostedEntry>;
    fn search_sim(&mut self, p: &Envelope, sink: &mut MemSim) -> Search<PostedEntry>;
}

/// A list searched under one variant.
struct Gate<L>(L, Variant);

impl<L: VariantSearch> GateList for Gate<L> {
    fn append_null(&mut self, e: PostedEntry) {
        self.0.append(e, &mut NullSink);
    }
    fn append_count(&mut self, e: PostedEntry, sink: &mut CountingSink) {
        self.0.append(e, sink);
    }
    fn append_sim(&mut self, e: PostedEntry, sink: &mut MemSim) {
        self.0.append(e, sink);
    }
    fn search_null(&mut self, p: &Envelope) -> Search<PostedEntry> {
        self.0.search_variant(self.1, p, &mut NullSink)
    }
    fn search_count(&mut self, p: &Envelope, sink: &mut CountingSink) -> Search<PostedEntry> {
        self.0.search_variant(self.1, p, sink)
    }
    fn search_sim(&mut self, p: &Envelope, sink: &mut MemSim) -> Search<PostedEntry> {
        self.0.search_variant(self.1, p, sink)
    }
}

fn make_list(structure: &str, variant: Variant, depth: usize) -> Box<dyn GateList> {
    let ranks = rank_count(depth);
    match structure {
        "baseline" => Box::new(Gate(BaselineList::<PostedEntry>::new(), variant)),
        "lla2" => Box::new(Gate(Lla::<PostedEntry, 2>::new(), variant)),
        "lla8" => Box::new(Gate(Lla::<PostedEntry, 8>::new(), variant)),
        "lla32" => Box::new(Gate(Lla::<PostedEntry, 32>::new(), variant)),
        "bins" => Box::new(Gate(SourceBins::<PostedEntry>::new(ranks), variant)),
        "hashbins" => Box::new(Gate(HashBins::<PostedEntry>::new(), variant)),
        "ranktrie" => Box::new(Gate(RankTrie::<PostedEntry>::new(ranks), variant)),
        s => panic!("unknown structure {s}"),
    }
}

/// The seeded entry population for one cell: concrete entry `i` posts
/// `(rank = i / TAGS, tag = i % TAGS)` — every (rank, tag) pair distinct,
/// so a probe matches exactly one entry and the hit position is the
/// target's FIFO index, while the comparator still sees realistic tag
/// reuse. A `wildcard` fraction instead posts `MPI_ANY_SOURCE` under a
/// reserved per-entry tag, unique by construction so wildcards never
/// shadow a probe's target. The rng stream depends only on
/// (depth, wildcard), so every variant of a cell measures the identical
/// population.
fn make_entries(depth: usize, wildcard: f64) -> Vec<PostedEntry> {
    let mut rng = StdRng::seed_from_u64(SEED ^ (depth as u64) << 8 ^ (wildcard * 1024.0) as u64);
    (0..depth)
        .map(|i| {
            let spec = if rng.gen_bool(wildcard) {
                RecvSpec::new(ANY_SOURCE, 1_000_000 + i as i32, 0)
            } else {
                RecvSpec::new((i / TAGS) as i32, (i % TAGS) as i32, 0)
            };
            PostedEntry::from_spec(spec, i as u64)
        })
        .collect()
}

/// Precomputes the probe cycle for a hit at FIFO index `t`: the
/// remove-at-`t` / append-at-back dynamics rotate the `len - t` suffix, so
/// after `len - t` ops the order (and therefore the cycle) repeats exactly.
fn hit_probes(entries: &[PostedEntry], t: usize) -> Vec<Envelope> {
    let mut order: Vec<&PostedEntry> = entries.iter().collect();
    let period = entries.len() - t;
    let mut probes = Vec::with_capacity(period);
    for _ in 0..period {
        let target = order.remove(t);
        // Wildcard targets accept any source; their reserved tag selects.
        let rank = target.source().unwrap_or(0);
        probes.push(Envelope::new(rank, target.tag, 0));
        order.push(target);
    }
    probes
}

fn cell_probes(cell: &Cell, entries: &[PostedEntry]) -> Vec<Envelope> {
    match cell.hit {
        "front" => hit_probes(entries, cell.depth / 8),
        "mid" => hit_probes(entries, cell.depth / 2),
        "back" => hit_probes(entries, cell.depth - 1),
        // The top rank is never posted (`rank_count` reserves it), but tag
        // 0 is heavily reused, so a miss scan exercises the realistic
        // fail-on-rank-after-tag-passes comparator path.
        "miss" => vec![Envelope::new(rank_count(cell.depth) as i32 - 1, 0, 0)],
        other => panic!("unknown hit position {other}"),
    }
}

/// Cachesim-derived columns for one cell, from a `MemSim` replay.
struct SimColumns {
    lines_per_op: f64,
    l1_hit_pct: f64,
    l3_hit_pct: f64,
}

/// Lockstep twin replay: the cell's kernel vs the portable scalar, same
/// probes on identical fresh lists. Any divergence in match identity or
/// depth is a kernel bug — abort the gate, don't record around it.
fn cross_check(cell: &Cell, entries: &[PostedEntry], probes: &[Envelope]) {
    let portable = Variant::Packed(ScanKind::Portable);
    let mut ours = make_list(cell.structure, cell.variant, cell.depth);
    let mut reference = make_list(cell.structure, portable, cell.depth);
    for e in entries {
        ours.append_null(*e);
        reference.append_null(*e);
    }
    // Two full cycles so the second starts from rotated (steady) state.
    for k in 0..probes.len() * 2 {
        let p = &probes[k % probes.len()];
        let a = ours.search_null(p);
        let b = reference.search_null(p);
        let ar = a.found.map(|e| e.request);
        let br = b.found.map(|e| e.request);
        if ar != br || a.depth != b.depth {
            eprintln!(
                "gate: CROSS-CHECK DIVERGENCE at {} op {k}: \
                 found {ar:?} depth {} vs portable found {br:?} depth {}",
                label(cell),
                a.depth,
                b.depth
            );
            std::process::exit(2);
        }
        if let Some(e) = a.found {
            ours.append_null(e);
        }
        if let Some(e) = b.found {
            reference.append_null(e);
        }
    }
}

/// Replays the cell's op stream against the cache hierarchy: appends and
/// one full probe cycle warm the simulated caches, then one measured cycle
/// produces the per-op line and hit-ratio columns.
fn run_sim(cell: &Cell, entries: &[PostedEntry], probes: &[Envelope]) -> SimColumns {
    let mut list = make_list(cell.structure, cell.variant, cell.depth);
    let mut mem = MemSim::new(ArchProfile::sandy_bridge());
    for e in entries {
        list.append_sim(*e, &mut mem);
    }
    // One warm-up cycle returns a hit cell to its original FIFO order
    // (the rotation period equals the cycle length), so the measured
    // cycle replays the identical op stream on warm caches.
    for cycle in 0..2 {
        if cycle == 1 {
            mem.reset_stats();
        }
        for p in probes {
            let s = list.search_sim(p, &mut mem);
            if let Some(e) = s.found {
                list.append_sim(e, &mut mem);
            }
        }
    }
    let st = mem.stats();
    let total = st.l1_hits + st.l2_hits + st.l3_hits + st.dram_loads + st.net_cache_hits;
    let ops = probes.len() as f64;
    let pct = |x: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * x as f64 / total as f64
        }
    };
    SimColumns {
        lines_per_op: total as f64 / ops,
        l1_hit_pct: pct(st.l1_hits),
        l3_hit_pct: pct(total - st.dram_loads),
    }
}

/// Simulated bytes per op, from a `CountingSink` twin driven exactly as
/// [`run_sim`] drives the cachesim — a freshly built list, one settling
/// cycle, one counted cycle — so the column is a function of the cell alone
/// (the list the timed loop leaves behind depends on how many batches
/// calibration ran).
fn run_count(cell: &Cell, entries: &[PostedEntry], probes: &[Envelope]) -> f64 {
    let mut list = make_list(cell.structure, cell.variant, cell.depth);
    for e in entries {
        list.append_null(*e);
    }
    let mut sink = CountingSink::new();
    for cycle in 0..2 {
        if cycle == 1 {
            sink = CountingSink::new();
        }
        for p in probes {
            let s = list.search_count(p, &mut sink);
            assert_eq!(
                s.found.is_some(),
                cell.hit != "miss",
                "cell {} desynced",
                label(cell)
            );
            if let Some(e) = s.found {
                list.append_count(e, &mut sink);
            }
        }
    }
    (sink.bytes_read + sink.bytes_written) as f64 / probes.len() as f64
}

/// One cell's measurements.
struct CellRun {
    ns: f64,
    bytes: f64,
    sim: SimColumns,
}

/// Runs one matrix cell: times the steady-state loop, then replays the
/// probe cycle on fresh lists against a `CountingSink` twin and the
/// cachesim.
fn run_cell(cell: &Cell, cfg: &MeasureCfg) -> CellRun {
    let entries = make_entries(cell.depth, cell.wildcard);
    let probes = cell_probes(cell, &entries);
    if matches!(cell.variant, Variant::Packed(k) if k != ScanKind::Portable) {
        cross_check(cell, &entries, &probes);
    }
    let mut list = make_list(cell.structure, cell.variant, cell.depth);
    for e in &entries {
        list.append_null(*e);
    }
    let expect_hit = cell.hit != "miss";
    // The probe index and the list's rotation state advance together, so the
    // cycle stays aligned across calibration batches.
    let mut k = 0usize;
    let ns = measure_ns(cfg.samples, cfg.time, |b| {
        b.iter(|| {
            let s = list.search_null(&probes[k % probes.len()]);
            k += 1;
            debug_assert_eq!(s.found.is_some(), expect_hit);
            if let Some(e) = s.found {
                list.append_null(e);
            }
            s.depth
        })
    });
    // The timed loop's own check is a debug assertion; in release this one
    // probe is what notices a loop that drifted off its cycle.
    assert_eq!(
        list.search_null(&probes[k % probes.len()]).found.is_some(),
        expect_hit,
        "cell {} desynced",
        label(cell)
    );
    CellRun {
        ns,
        bytes: run_count(cell, &entries, &probes),
        sim: run_sim(cell, &entries, &probes),
    }
}

fn label(cell: &Cell) -> String {
    format!(
        "gate/{}/{}/{}/w{}/{}",
        cell.structure,
        cell.depth,
        cell.hit,
        (cell.wildcard * 1000.0) as u64,
        cell.variant.scan_kind()
    )
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_matching.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--json" => out = args.next().expect("missing path after --out"),
            other => panic!("unknown argument {other} (expected --quick / --out <path>)"),
        }
    }

    let best = simd::detect_best();
    let lla_kinds: Vec<ScanKind> = ScanKind::ALL.into_iter().filter(|k| *k <= best).collect();
    println!(
        "gate: LLA scan kinds: [{}]",
        lla_kinds
            .iter()
            .map(|k| Variant::Packed(*k).scan_kind())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Which variants each structure has rows for: the linear structures
    // carry the field-wise reference, and only the LLA has a slab for the
    // SIMD kernels to scan.
    let portable = [Variant::Packed(ScanKind::Portable)];
    let baseline_variants = [Variant::Fieldwise, portable[0]];
    let lla_variants: Vec<Variant> = std::iter::once(Variant::Fieldwise)
        .chain(lla_kinds.iter().map(|k| Variant::Packed(*k)))
        .collect();
    let structures: &[(&str, &[Variant])] = &[
        ("baseline", &baseline_variants),
        ("lla2", &lla_variants),
        ("lla8", &lla_variants),
        ("lla32", &lla_variants),
        ("bins", &portable),
        ("hashbins", &portable),
        ("ranktrie", &portable),
    ];
    let depths: &[usize] = if quick {
        &[64, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let hits: &[&str] = if quick {
        &["back", "miss"]
    } else {
        &["front", "mid", "back", "miss"]
    };
    let wildcards: &[f64] = if quick { &[0.0] } else { &[0.0, 0.125] };
    let cfg = if quick {
        MeasureCfg {
            samples: 5,
            time: Duration::from_millis(4),
        }
    } else {
        MeasureCfg {
            samples: 8,
            time: Duration::from_millis(12),
        }
    };

    let mut records = Vec::new();
    for &(structure, variants) in structures {
        for &depth in depths {
            for &hit in hits {
                for &wildcard in wildcards {
                    for &variant in variants {
                        let cell = Cell {
                            structure,
                            depth,
                            hit,
                            wildcard,
                            variant,
                        };
                        let run = run_cell(&cell, &cfg);
                        let name = label(&cell);
                        println!(
                            "gate: {name:<44} {:>9.1} ns/op  {:>9.1} B/op  \
                             {:>7.2} lines/op  L1 {:>5.1}%  L3 {:>5.1}%",
                            run.ns,
                            run.bytes,
                            run.sim.lines_per_op,
                            run.sim.l1_hit_pct,
                            run.sim.l3_hit_pct
                        );
                        records.push(report::Record {
                            name,
                            ns_per_op: run.ns,
                            structure: Some(structure.into()),
                            depth: Some(depth as u64),
                            hit: Some(hit.into()),
                            wildcard: Some(wildcard),
                            path: Some(variant.path().into()),
                            scan_kind: Some(variant.scan_kind().into()),
                            bytes_per_op: Some(run.bytes),
                            lines_per_op: Some(run.sim.lines_per_op),
                            l1_hit_pct: Some(run.sim.l1_hit_pct),
                            l3_hit_pct: Some(run.sim.l3_hit_pct),
                        });
                    }
                }
            }
        }
    }

    // SIMD-vs-scalar summary over the deep-scan cells the acceptance gate
    // keys on: full-scan misses and back-of-list hits at depth >= 256. The
    // lines/op delta is printed alongside so a timing win is attributable
    // (same lines -> compute win; fewer lines -> locality win).
    let deep = |r: &&report::Record| {
        r.depth.unwrap_or(0) >= 256
            && r.wildcard == Some(0.0)
            && matches!(r.hit.as_deref(), Some("miss") | Some("back"))
    };
    println!("\ngate: packed vs fieldwise (deep scans, wildcard 0):");
    for r in records.iter().filter(deep) {
        if r.scan_kind.as_deref() != Some("fieldwise") {
            continue;
        }
        let new_name = r.name.replace("/fieldwise", "/packed");
        if let Some(p) = records.iter().find(|x| x.name == new_name) {
            let gain = 100.0 * (r.ns_per_op - p.ns_per_op) / r.ns_per_op;
            println!(
                "gate:   {:<42} {:>8.1} -> {:>8.1} ns/op  ({gain:+.1}%)",
                new_name, r.ns_per_op, p.ns_per_op
            );
        }
    }
    for simd_kind in ["simd128", "simd256"] {
        let mut shown = false;
        for r in records.iter().filter(deep) {
            if r.scan_kind.as_deref() != Some(simd_kind) {
                continue;
            }
            let scalar_name = r.name.replace(&format!("/{simd_kind}"), "/packed");
            if let Some(p) = records.iter().find(|x| x.name == scalar_name) {
                if !shown {
                    println!("\ngate: {simd_kind} vs packed scalar (deep scans, wildcard 0):");
                    shown = true;
                }
                let gain = 100.0 * (p.ns_per_op - r.ns_per_op) / p.ns_per_op;
                let dl = r.lines_per_op.unwrap_or(0.0) - p.lines_per_op.unwrap_or(0.0);
                println!(
                    "gate:   {:<42} {:>8.1} -> {:>8.1} ns/op  ({gain:+.1}%)  \
                     lines/op {dl:+.2}",
                    r.name, p.ns_per_op, r.ns_per_op
                );
            }
        }
    }

    report::write_json(std::path::Path::new(&out), &records, quick)
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("gate: wrote {} records to {out}", records.len());
}
