//! The traced run: the same op stream through each successive wrapper,
//! outside in, with a span around every call from the harness into the
//! layer.
//!
//! ```text
//! list  ->  engine  ->  concurrent | shard  ->  ingest        native: the workload as it ships
//! ```
//!
//! A layer's `self_ns` is its rung's time per flow minus the rung below.
//! Single-thread workloads climb the concurrent rungs with one client,
//! two-thread workloads with two.

use std::path::Path;
use std::time::{Duration, Instant};

use spc_cachesim::ArchProfile;

use crate::adapter::{
    heater_costs, Batched, Engine, ListKind, Lists, Quiescent, Sharded, Shared, SimStructure,
    Subject,
};
use crate::harness::{per_verb_ns, prime, rep_shared, rep_single, Limit, Rep};
use crate::metrics::Outcome;
use crate::ops::{Stream, Verb, NONE};
use crate::run::{native_rep, sample_bufs, testbed, untraced, SAMPLES, SIM_WINDOWS};
use crate::sim::{accesses, replay};
use crate::stat::{iqr_pct, median, percentile, sort};
use crate::trace::{Kind, LayerSums, Recorder, SpanBuf, Trace, Untraced};
use crate::workloads::{build, Workload, BATCH, SHARDS};

/// Spans kept per client and traced pass.
const SPAN_CAP: usize = 1 << 14;
/// Windows of the exact-count passes (`list.lines_per_op` and friends).
const COUNT_WINDOWS: usize = 8;
/// Timed passes that share `--seconds`: 7 list + 5 wrapper + 1 split +
/// 5 untraced and 1 traced native, rounded up for the fixed-size parts.
const SLICES: f64 = 24.0;

fn per(n: f64, d: u64) -> f64 {
    n / d.max(1) as f64
}

fn pct(n: u64, d: u64) -> f64 {
    100.0 * per(n as f64, d)
}

fn probe_ns(s: &LayerSums) -> f64 {
    per(
        s.total_ns(Kind::ProbeHit) + s.total_ns(Kind::ProbeMiss),
        s.count(Kind::ProbeHit) + s.count(Kind::ProbeMiss),
    )
}

/// Ops of `verb` the clients of `rep` sent, each over its own stream.
fn sent(rep: &Rep, streams: &[Stream], verb: Verb) -> u64 {
    rep.tallies
        .iter()
        .zip(streams)
        .map(|(t, s)| s.sent(t.windows, |o| o.verb == verb))
        .sum()
}

fn list_layer(kind: ListKind) -> String {
    match kind {
        ListKind::Lla2 => "list".to_owned(),
        k => format!("list.{}", k.label()),
    }
}

/// What a bare-list pass yields beyond its spans.
#[derive(Default)]
struct ListPass {
    searches: u64,
    depth_sum: u64,
    failed: u64,
    attempted: u64,
    /// Exact counts, summed over list calls (counting pass only).
    bytes: u64,
    lines: u64,
    calls: u64,
    footprint: (u64, u64),
}

/// Drives stream 0 through the two bare lists with the engine's
/// search-else-append rule and nothing else. `rec` spans every list call;
/// `counting` charges every call to a `CountingSink` instead.
fn list_pass<R: Recorder>(
    kind: ListKind,
    counting: bool,
    w: &Workload,
    limit: Limit,
    rec: &mut R,
) -> ListPass {
    let mut l = Lists::new(kind, counting);
    let mut p = ListPass::default();
    for op in &w.prime {
        match op.verb {
            Verb::Post => l.prq_append(op),
            _ => l.umq_append(op),
        }
    }
    if counting {
        l.take_touched();
    }
    let stream = &w.streams[0];
    let deadline = Instant::now().checked_add(limit.time);
    let mut t0 = Instant::now();
    for n in 0..limit.max_windows {
        rec.open(n as u32, t0);
        for op in stream.window(n % stream.windows()) {
            // One spanned list call; on the counting pass, its exact cost.
            macro_rules! call {
                ($kind:expr, $e:expr) => {{
                    let mark = rec.begin();
                    let r = $e;
                    rec.end(mark, $kind);
                    if counting {
                        let t = l.take_touched();
                        p.bytes += t.bytes;
                        p.lines += t.lines;
                        p.calls += 1;
                    }
                    r
                }};
            }
            let out = match op.verb {
                Verb::Post => {
                    let (out, depth) = call!(Kind::Search, l.umq_search(op));
                    if out == NONE {
                        call!(Kind::Append, l.prq_append(op));
                    }
                    p.depth_sum += depth as u64;
                    p.searches += 1;
                    out
                }
                Verb::Arrive => {
                    let (out, depth) = call!(Kind::Search, l.prq_search(op));
                    if out == NONE {
                        call!(Kind::Append, l.umq_append(op));
                    }
                    p.depth_sum += depth as u64;
                    p.searches += 1;
                    out
                }
                Verb::Cancel => call!(Kind::Cancel, l.prq_remove(op)),
                // Probes and reads are engine verbs; no list call stands for them.
                Verb::Probe | Verb::Lens | Verb::Stats => continue,
            };
            p.attempted += 1;
            p.failed += !op.accepts(out) as u64;
        }
        let t1 = Instant::now();
        rec.close(t1);
        if deadline.is_some_and(|d| t1 >= d) || rec.full() {
            break;
        }
        t0 = t1;
    }
    p.failed += (l.lens() != w.quiescent_lens()) as u64;
    p.footprint = l.footprint();
    p
}

/// The state a traced run threads through its rungs.
struct Ladder<'w> {
    w: &'w Workload,
    out: Outcome,
    trace: Trace,
    /// Time each timed pass gets. A traced pass warms up for the first half
    /// with the timer running but nothing stored, then records until its
    /// span buffers fill or the slice ends.
    slice: Duration,
}

impl Ladder<'_> {
    fn limit(&self) -> Limit {
        Limit::time(self.slice)
    }

    fn recorders(&self, n: usize) -> Vec<SpanBuf> {
        let from = Instant::now() + self.slice / 2;
        (0..n)
            .map(|_| SpanBuf::new(self.trace.epoch, SPAN_CAP, from))
            .collect()
    }

    fn no_samples(&self) -> Vec<Vec<u32>> {
        sample_bufs(self.w, 0)
    }

    fn merge(&mut self, layer: &str, recs: Vec<SpanBuf>) -> LayerSums {
        for (t, r) in recs.into_iter().enumerate() {
            self.trace.merge(layer, t, r);
        }
        self.trace.sums(layer)
    }

    fn account(&mut self, rep: &Rep) {
        self.out.attempted += rep.verbs();
        self.out.failed += rep.failed;
    }

    /// One traced repetition of `streams` on a fresh engine its clients share.
    fn shared_rung<'e, E: Quiescent, S: Subject + Send>(
        &mut self,
        layer: &str,
        engine: &'e E,
        client: impl Fn(&'e E, usize) -> S,
        streams: &[Stream],
    ) -> (LayerSums, Rep) {
        let recs = self.recorders(streams.len());
        let (limit, mut samples) = (self.limit(), self.no_samples());
        let (rep, recs) = rep_shared(engine, client, self.w, streams, limit, &mut samples, recs);
        self.account(&rep);
        (self.merge(layer, recs), rep)
    }

    /// `list`, `pool`: the bare structures, the workload's own first.
    /// Returns list time per flow on the workload's own structure.
    fn lists(&mut self) -> f64 {
        let mut flow_ns = 0.0;
        for kind in [
            ListKind::Lla2,
            ListKind::Baseline,
            ListKind::Lla8,
            ListKind::Lla32,
            ListKind::Bins,
            ListKind::HashBins,
            ListKind::RankTrie,
        ] {
            let mut recs = self.recorders(1);
            let p = list_pass(kind, false, self.w, self.limit(), &mut recs[0]);
            self.out.attempted += p.attempted;
            self.out.failed += p.failed;
            let layer = list_layer(kind);
            let sums = self.merge(&layer, recs);
            self.out
                .put(format!("{layer}.walk_ns"), sums.mean_ns(Kind::Search));
            if kind == ListKind::Lla2 {
                self.out.put("list.append_ns", sums.mean_ns(Kind::Append));
                self.out
                    .put("list.depth_mean", per(p.depth_sum as f64, p.searches));
                self.out.put("pool.footprint_bytes", p.footprint.0 as f64);
                self.out.put("pool.allocations", p.footprint.1 as f64);
                // List time per flow, over the flows of the recorded windows.
                let stream = &self.w.streams[0];
                let flows: usize = sums
                    .windows
                    .iter()
                    .map(|&n| stream.window(n as usize % stream.windows()))
                    .map(|ops| ops.iter().filter(|o| o.verb == Verb::Arrive).count())
                    .sum();
                let calls = [Kind::Search, Kind::Append, Kind::Cancel];
                flow_ns = per(calls.iter().map(|&k| sums.total_ns(k)).sum(), flows as u64);
            }
        }
        for kind in [ListKind::Lla2, ListKind::Baseline, ListKind::Lla8] {
            let limit = Limit::windows(COUNT_WINDOWS);
            let p = list_pass(kind, true, self.w, limit, &mut Untraced);
            self.out.failed += p.failed;
            let layer = list_layer(kind);
            self.out.put(
                format!("{layer}.lines_per_op"),
                per(p.lines as f64, p.calls),
            );
            if kind == ListKind::Lla2 {
                self.out
                    .put("list.bytes_per_op", per(p.bytes as f64, p.calls));
            }
        }
        flow_ns
    }

    /// `engine`: one `MatchEngine`, one client, stream 0. Returns its sums.
    fn engine(&mut self, list_flow_ns: f64) -> LayerSums {
        let mut e = Engine::new();
        let rec = self.recorders(1).pop().expect("one recorder");
        let (limit, mut samples) = (self.limit(), self.no_samples());
        let streams = &self.w.streams[..1];
        let (rep, recs) = rep_single(&mut e, self.w, streams, limit, &mut samples, rec);
        self.account(&rep);
        let sums = self.merge("engine", recs);
        let c = e.counts();
        let out = &mut self.out;
        out.put("engine.flow_ns", sums.flow_ns());
        out.put("engine.self_ns", sums.flow_ns() - list_flow_ns);
        out.put("engine.iprobe_ns", probe_ns(&sums));
        out.put("engine.cancel_ns", sums.mean_ns(Kind::Cancel));
        out.put("engine.prq_depth_mean", c.prq_depth_mean);
        out.put("engine.prq_depth_max", c.prq_depth_max as f64);
        out.put("engine.umq_depth_mean", c.umq_depth_mean);
        out.put("engine.rejected", c.rejected as f64);
        sums
    }

    /// `concurrent`, `shard`, `seqsnap`, `ingest`: the wrappers, driven by
    /// the workload's own clients.
    fn wrappers(&mut self, engine: &LayerSums) {
        let w = self.w;

        let shared = Shared::new();
        let (conc, rep) = self.shared_rung("concurrent", &shared, |e, _| e, &w.streams);
        let out = &mut self.out;
        out.put("concurrent.flow_ns", conc.flow_ns());
        out.put("concurrent.self_ns", conc.flow_ns() - engine.flow_ns());
        out.put("concurrent.iprobe_ns", probe_ns(&conc));
        out.put(
            "concurrent.lock_acq_per_op",
            per(shared.counts().lock_acquisitions as f64, rep.verbs()),
        );

        // Per-source shards with every post concrete. The lock-free reads
        // are timed on this rung.
        let plain: Vec<Stream> = w.streams.iter().map(|s| s.with_wildcards(0)).collect();
        let sharded = Sharded::new(SHARDS);
        let (shard, rep) = self.shared_rung("shard", &sharded, |e, _| e, &plain);
        let c = sharded.counts();
        let out = &mut self.out;
        out.put("shard.flow_ns", shard.flow_ns());
        out.put("shard.self_ns", shard.flow_ns() - engine.flow_ns());
        out.put(
            "shard.lock_acq_per_op",
            per(c.lock_acquisitions as f64, rep.verbs()),
        );
        out.put(
            "shard.contended_pct",
            pct(c.lock_contended, c.lock_acquisitions),
        );
        let busiest = c.shard_acquisitions.iter().copied().max().unwrap_or(0);
        let total: u64 = c.shard_acquisitions.iter().sum();
        out.put(
            "shard.imbalance",
            per((busiest * c.shard_acquisitions.len() as u64) as f64, total),
        );
        out.put("shard.max_prq_len", c.max_prq_len as f64);
        out.put("seqsnap.iprobe_hit_ns", shard.mean_ns(Kind::ProbeHit));
        out.put("seqsnap.iprobe_miss_ns", shard.mean_ns(Kind::ProbeMiss));
        out.put("seqsnap.queue_lens_ns", shard.mean_ns(Kind::Lens));
        out.put("seqsnap.stats_ns", shard.mean_ns(Kind::Stats));
        let probes = sent(&rep, &plain, Verb::Probe);
        let reads = sharded.snap_reads();
        out.put("seqsnap.retry_pct", pct(reads.probe_retries, probes));
        out.put("seqsnap.fallback_pct", pct(reads.probe_fallbacks, probes));

        // The same with one post in 64 naming ANY_SOURCE.
        let wild: Vec<Stream> = w.streams.iter().map(|s| s.with_wildcards(64)).collect();
        let sharded = Sharded::new(SHARDS);
        let (shard_wild, rep) = self.shared_rung("shard_wild", &sharded, |e, _| e, &wild);
        let reads = sharded.snap_reads();
        let out = &mut self.out;
        out.put("shard.wild_flow_ns", shard_wild.flow_ns());
        out.put("shard.wild_self_ns", shard_wild.flow_ns() - shard.flow_ns());
        out.put(
            "shard.wild_crossings_per_op",
            per(sharded.counts().wild_crossings as f64, rep.verbs()),
        );
        out.put(
            "seqsnap.prescan_park_pct",
            pct(
                reads.prescan_parks,
                reads.prescan_parks + reads.prescan_fallbacks,
            ),
        );

        // Producers and rings in front of the shards, as mt_* ship it.
        let batched = Batched::new(SHARDS, w.threads(), BATCH, false);
        let (ingest, rep) = self.shared_rung("ingest", &batched, Batched::producer, &w.streams);
        let locks = batched.counts().lock_acquisitions;
        let ringed = sent(&rep, &w.streams, Verb::Post) + sent(&rep, &w.streams, Verb::Arrive);
        let out = &mut self.out;
        out.put("ingest.flow_ns", ingest.flow_ns());
        out.put("ingest.self_ns", ingest.flow_ns() - shard.flow_ns());
        out.put("ingest.lock_acq_per_op", per(locks as f64, rep.verbs()));
        out.put("ingest.ops_per_drain", per(ringed as f64, locks));
        out.put(
            "ingest.flush_on_probe_ns",
            probe_ns(&ingest) - probe_ns(&shard),
        );
    }

    /// `ingest.push_ns`, `ingest.drain_ns_per_op`: one producer pushing at
    /// most half a ring between explicit flushes, so pushes never drain
    /// and drains never push.
    fn ingest_split(&mut self) {
        let stream = &self.w.streams[0];
        let batched = Batched::new(SHARDS, 1, BATCH, false);
        let mut p = batched.producer(0);
        self.out.failed += prime(&mut p, &self.w.prime);
        let mut rec = self.recorders(1).pop().expect("one recorder");
        let deadline = Instant::now() + self.slice;
        let (mut t0, mut n) = (Instant::now(), 0);
        loop {
            rec.open(n as u32, t0);
            for chunk in stream.window(n % stream.windows()).chunks(BATCH / 2) {
                for op in chunk {
                    let mark = rec.begin();
                    let got = p.apply(op);
                    rec.end(mark, Kind::of(op));
                    self.out.attempted += 1;
                    self.out.failed += !op.accepts(got) as u64;
                }
                let mark = rec.begin();
                p.finish();
                rec.end(mark, Kind::Drain);
            }
            t0 = Instant::now();
            rec.close(t0);
            n += 1;
            if t0 >= deadline || rec.full() {
                break;
            }
        }
        self.out.failed += (batched.lens() != self.w.quiescent_lens()) as u64;
        let split = self.merge("ingest_split", vec![rec]);
        let pushed = split.count(Kind::Post) + split.count(Kind::Arrival);
        let push_ns = split.total_ns(Kind::Post) + split.total_ns(Kind::Arrival);
        self.out.put("ingest.push_ns", per(push_ns, pushed));
        self.out.put(
            "ingest.drain_ns_per_op",
            per(split.total_ns(Kind::Drain), pushed),
        );
    }

    /// `harness`: the workload as it ships, untraced and traced — tails,
    /// repetition spread, and what tracing costs.
    fn native(&mut self) {
        let w = self.w;
        let mut bufs = sample_bufs(w, SAMPLES);
        let (mut rates, mut per_verb) = (vec![], vec![]);
        for _ in 0..5 {
            bufs.iter_mut().for_each(Vec::clear);
            let (rep, _) = native_rep(w, self.limit(), &mut bufs, untraced(w));
            self.account(&rep);
            rates.push(rep.ops_per_s());
            per_verb.extend(per_verb_ns(&w.streams, &bufs));
        }
        sort(&mut per_verb);
        let recs = self.recorders(w.threads());
        let (traced, recs) = native_rep(w, self.limit(), &mut self.no_samples(), recs);
        self.account(&traced);
        self.merge("native", recs);
        let out = &mut self.out;
        out.put("harness.timer_ns", self.trace.timer_ns);
        out.put("harness.samples", per_verb.len() as f64);
        out.put("harness.threads", w.threads() as f64);
        out.put("harness.op_p99_ns", percentile(&per_verb, 99.0));
        out.put("harness.op_p999_ns", percentile(&per_verb, 99.9));
        out.put("harness.rep_iqr_pct", iqr_pct(&rates));
        out.put(
            "harness.trace_overhead_pct",
            100.0 * (median(&rates) - traced.ops_per_s()) / median(&rates),
        );
    }

    /// `heater`, `cachesim`, `osu`, `workload`: the parts that are not
    /// rungs and take fixed work, not a time slice.
    fn fixed(&mut self, seed: u64) {
        let w = self.w;
        let out = &mut self.out;

        // The native heater over a buffer the size of deep_scan's queues
        // with a window's receives posted.
        let deep = build("deep_scan", seed).expect("deep_scan exists");
        let mut e = Engine::new();
        prime(&mut e, &deep.prime);
        prime(
            &mut e,
            &deep.streams[0].window(0)[..crate::workloads::WINDOW],
        );
        let h = heater_costs(e.footprint().0 as usize, 200);
        out.put("heater.register_ns", h.register_ns);
        out.put("heater.deregister_ns", h.deregister_ns);
        out.put("heater.pass_ns", h.pass_ns);
        out.put("heater.lines_per_pass", h.lines_per_pass);

        // The stream's first windows through the simulator, flushed per
        // window: the workload's structure and testbed, then the others.
        let sim = |structure, profile, windows| {
            replay(structure, profile, &w.prime, &w.streams[0], windows)
        };
        let base = sim(SimStructure::Lla2, testbed(), SIM_WINDOWS);
        out.failed += base.failed;
        out.attempted += base.pair.cold.verbs + base.pair.hot.verbs;
        let (cold, hot) = (&base.pair.cold, &base.pair.hot);
        let s = cold.stats();
        let total = accesses(&s);
        out.put("cachesim.lines_per_op", per(total as f64, cold.verbs));
        out.put("cachesim.dram_per_op", per(s.dram_loads as f64, cold.verbs));
        out.put(
            "cachesim.prefetch_fills_per_op",
            per(s.prefetch_fills as f64, cold.verbs),
        );
        out.put("cachesim.l1_hit_pct", pct(s.l1_hits, total));
        out.put("cachesim.l2_hit_pct", pct(s.l2_hits, total));
        out.put("cachesim.l3_hit_pct", pct(s.l3_hits, total));
        out.put(
            "cachesim.heat_fills_per_window",
            per(hot.stats().heat_fills as f64, hot.windows),
        );
        out.put("cachesim.l3_resident_pct", hot.l3_resident_pct());
        out.put(
            "cachesim.host_ns_per_access",
            per(base.host_ns, total + accesses(&hot.stats())),
        );
        for (label, structure, profile) in [
            ("baseline", SimStructure::Baseline, testbed()),
            ("lla8", SimStructure::Lla8, testbed()),
            ("broadwell", SimStructure::Lla2, ArchProfile::broadwell()),
        ] {
            let r = sim(structure, profile, SIM_WINDOWS / 4);
            out.failed += r.failed;
            out.put(
                format!("cachesim.{label}.sim_flow_ns"),
                r.pair.cold.flow_ns(),
            );
        }

        // The paper's modified osu_bw / osu_latency at depth 1024, 8 B.
        let osu = spc_osu::OsuConfig::sandy_bridge(spc_cachesim::LocalityConfig::lla(2));
        out.put(
            "osu.bw_mibps_8b_d1024",
            spc_osu::bandwidth_mibps(&osu, 8, 1024),
        );
        out.put("osu.latency_us_d1024", spc_osu::latency_us(&osu, 8, 1024));

        let (top1, unexpected) = w.shape();
        out.put("workload.gen_ns_per_req", w.gen_ns_per_req);
        out.put("workload.top1_share_pct", top1);
        out.put("workload.unexpected_pct", unexpected);
    }
}

/// Peak resident set of this process, from `/proc/self/status`; 0 where
/// the file is missing.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The traced run of workload `name`; writes `trace-<name>.json` into
/// `out_dir` when it ends.
pub fn per_layer(name: &str, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let w = build(name, seed).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut l = Ladder {
        w: &w,
        out: Outcome::default(),
        trace: Trace::new(),
        slice: Duration::from_secs_f64(seconds / SLICES),
    };
    let list_flow_ns = l.lists();
    let engine = l.engine(list_flow_ns);
    l.wrappers(&engine);
    l.ingest_split();
    l.native();
    l.fixed(seed);

    let Ladder { mut out, trace, .. } = l;
    out.put("harness.peak_rss_mib", peak_rss_mib());
    out.put("harness.failed_frac", per(out.failed as f64, out.attempted));
    out.put("harness.spans", trace.len() as f64);
    std::fs::create_dir_all(out_dir).expect("create the trace directory");
    let path = out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, trace.to_json(name, seed)).expect("write the trace");
    println!(
        "{name}: seed {seed}, traced; {} spans written to {}",
        trace.len(),
        path.display()
    );
    out
}
