//! Service-shaped traffic gate: tail latency under skewed, open-loop load.
//!
//! Where `matching_gate` times single operations at fixed depths, this gate
//! asks the production question: what latency distribution does a matching
//! engine deliver when traffic looks like a *service* — Zipf-skewed source
//! popularity, arrivals that do not wait for completions, bursts, a rotating
//! hot set, and a bounded run queue that sheds load at capacity?
//!
//! Methodology: each cell wires a real `MatchEngine` (bounded via
//! `QueueBounds`) behind the `spc-workload` queueing model. A standing
//! window of receives (popularity-shaped, never-matching tags) keeps
//! searches at realistic depth; each request then runs one expected- or
//! unexpected-path message flow through `Engine::apply`, and
//! its wall-clock service time feeds the discrete-event queue. A 1-client
//! closed-loop warmup calibrates the mean service time; open-loop cells
//! then offer `load ×` that capacity as Poisson arrivals (one cell adds 4×
//! bursts), closed-loop cells run a fixed client window. Sojourn latency
//! comes out of the model's histogram as p50/p99/p999 (`Histogram::
//! percentile`, exact to one bucket), plus rejection % (run-queue + engine
//! admission) and run-queue occupancy.
//!
//! Usage: `traffic_gate [--quick] [--out <path>]` (also `--json <path>`;
//! default `BENCH_traffic.json`). `--quick` shrinks the matrix and request
//! counts for CI smoke runs and marks the JSON `"quick": true`. Exits
//! nonzero only on panic or an unwritable output path — the numbers are
//! recorded, not gated, so CI stays green on noisy runners.

use criterion::report;
use spc_core::entry::{PostedEntry, UnexpectedEntry};
use spc_core::list::{BaselineList, HashBins, Lla, SourceBins};
use spc_core::{Engine, MatchEngine, QueueBounds};
use spc_workload::{
    closed_loop, drive, open_loop, Burst, ClosedLoopCfg, EngineTally, OpenLoopCfg, Popularity,
    RequestGen, TrafficCfg,
};
use std::time::Instant;

/// Scenario seed; every cell derives its streams from this.
const SEED: u64 = 0x7AFF_1C00u64;
/// Distinct sources (the popularity key space and SourceBins size).
const SOURCES: u32 = 256;
/// Sojourn-latency bucket width (ns): percentiles are exact to this.
const LATENCY_BUCKET_NS: u64 = 32;
/// Waiting requests admitted before the run queue sheds load.
const RUN_QUEUE_CAP: usize = 64;
/// UMQ admission cap — tight enough that unexpected floods can hit it.
const MAX_UMQ: usize = 512;

/// Arrival-process rows of the matrix.
#[derive(Clone, Copy, Debug)]
enum ArrivalKind {
    /// Poisson arrivals at `load ×` calibrated capacity; `burst` adds 4×
    /// spikes in the second half of every 2000-request cycle.
    Open { load: f64, burst: bool },
    /// Fixed window of clients, each with one request outstanding.
    Closed { clients: usize },
}

impl ArrivalKind {
    fn label(self) -> &'static str {
        match self {
            ArrivalKind::Open { burst: false, .. } => "open",
            ArrivalKind::Open { burst: true, .. } => "open-burst",
            ArrivalKind::Closed { .. } => "closed",
        }
    }

    fn load_column(self) -> f64 {
        match self {
            ArrivalKind::Open { load, .. } => load,
            ArrivalKind::Closed { clients } => clients as f64,
        }
    }
}

/// One scenario runner drives every structure row: the box hides the
/// structure choice, [`Engine`] is the whole surface it needs.
type BoxedEngine = Box<dyn Engine<Stamp = ()>>;

fn make_engine(structure: &str) -> BoxedEngine {
    let bounds = QueueBounds {
        max_prq: usize::MAX,
        max_umq: MAX_UMQ,
    };
    type Umq = Lla<UnexpectedEntry, 3>;
    match structure {
        "baseline" => Box::new(MatchEngine::with_bounds(
            BaselineList::<PostedEntry>::new(),
            Umq::new(),
            bounds,
        )),
        "lla2" => Box::new(MatchEngine::with_bounds(
            Lla::<PostedEntry, 2>::new(),
            Umq::new(),
            bounds,
        )),
        "bins" => Box::new(MatchEngine::with_bounds(
            SourceBins::<PostedEntry>::new(SOURCES as usize),
            Umq::new(),
            bounds,
        )),
        "hashbins" => Box::new(MatchEngine::with_bounds(
            HashBins::<PostedEntry>::new(),
            Umq::new(),
            bounds,
        )),
        other => panic!("unknown structure {other}"),
    }
}

struct ScenarioCfg {
    requests: usize,
    warmup: usize,
    window: usize,
}

fn run_scenario(
    structure: &str,
    pop: Popularity,
    arrival: ArrivalKind,
    cfg: &ScenarioCfg,
) -> report::Record {
    let mut eng = make_engine(structure);
    let traffic = TrafficCfg {
        sources: SOURCES,
        // Hot-key churn on the skewed rows only (uniform has no hot set).
        churn: match pop {
            Popularity::Uniform | Popularity::Zipf { s: 0.0 } => None,
            _ => Some(spc_workload::Churn {
                every: 4000,
                stride: 17,
            }),
        },
        ..TrafficCfg::new(pop, SEED)
    };
    // Standing window drawn from the same popularity as the traffic.
    let mut std_gen = RequestGen::new(TrafficCfg {
        seed: SEED ^ 0x57A9D,
        ..traffic.clone()
    });
    let standing: Vec<i32> = (0..cfg.window)
        .map(|_| std_gen.next_request().source)
        .collect();
    drive::prime_standing(eng.as_mut(), &standing, cfg.window);

    let mut gen = RequestGen::new(traffic);
    let mut tally = EngineTally::default();
    let mut handle = 0u64;
    let mut serve =
        move |eng: &mut dyn Engine<Stamp = ()>, gen: &mut RequestGen, tally: &mut EngineTally| {
            let req = gen.next_request();
            let t0 = Instant::now();
            let t = drive::execute(eng, req, handle);
            let ns = t0.elapsed().as_nanos() as u64;
            handle += 1;
            tally.absorb(t);
            ns
        };

    // Calibration: a 1-client closed loop measures raw service capacity.
    let warm = closed_loop(
        &ClosedLoopCfg {
            clients: 1,
            think_ns: 0.0,
            latency_bucket_ns: LATENCY_BUCKET_NS,
        },
        cfg.warmup,
        |_| serve(eng.as_mut(), &mut gen, &mut tally),
    );
    let mean_service = warm.busy_ns / warm.served.max(1) as f64;

    let run = match arrival {
        ArrivalKind::Open { load, burst } => open_loop(
            &OpenLoopCfg {
                mean_interarrival_ns: mean_service / load,
                run_queue_cap: RUN_QUEUE_CAP,
                burst: burst.then_some(Burst {
                    period: 2000,
                    factor: 4.0,
                }),
                latency_bucket_ns: LATENCY_BUCKET_NS,
                seed: SEED ^ 0xA881,
            },
            cfg.requests,
            |_| serve(eng.as_mut(), &mut gen, &mut tally),
        ),
        ArrivalKind::Closed { clients } => closed_loop(
            &ClosedLoopCfg {
                clients,
                think_ns: 0.0,
                latency_bucket_ns: LATENCY_BUCKET_NS,
            },
            cfg.requests,
            |_| serve(eng.as_mut(), &mut gen, &mut tally),
        ),
    };

    let offered = (run.served + run.rejected) as f64;
    let stats = eng.stats();
    let engine_rej = stats.prq_rejections + stats.umq_rejections;
    let reject_pct = 100.0 * (run.rejected as f64 + engine_rej as f64) / offered.max(1.0);
    let name = format!(
        "traffic/{}/{}/{}/{}",
        structure,
        pop.label(),
        arrival.label(),
        arrival.load_column()
    );
    println!(
        "traffic: {name:<40} p50 {:>7} p99 {:>8} p999 {:>8} ns  rej {reject_pct:>5.2}%  \
         occ {:>5.1}/{:<4}  depth {:>6.1}",
        run.latency.percentile(0.5),
        run.latency.percentile(0.99),
        run.latency.percentile(0.999),
        run.occupancy.mean(),
        run.occupancy.max,
        stats.prq_search.mean(),
    );
    report::Record {
        name,
        ns_per_op: run.busy_ns / run.served.max(1) as f64,
        structure: Some(structure.into()),
        arrival: Some(arrival.label().into()),
        popularity: Some(pop.label()),
        load: Some(arrival.load_column()),
        p50_ns: Some(run.latency.percentile(0.5) as f64),
        p99_ns: Some(run.latency.percentile(0.99) as f64),
        p999_ns: Some(run.latency.percentile(0.999) as f64),
        reject_pct: Some(reject_pct),
        occ_mean: Some(run.occupancy.mean()),
        occ_max: Some(run.occupancy.max),
        ..report::Record::default()
    }
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_traffic.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--json" => out = args.next().expect("missing path after --out"),
            other => panic!("unknown argument {other} (expected --quick / --out <path>)"),
        }
    }

    let structures: &[&str] = if quick {
        &["lla2", "bins"]
    } else {
        &["baseline", "lla2", "bins", "hashbins"]
    };
    let pops = [Popularity::Uniform, Popularity::Zipf { s: 1.0 }];
    let arrivals = [
        ArrivalKind::Open {
            load: 0.8,
            burst: false,
        },
        ArrivalKind::Open {
            load: 1.3,
            burst: true,
        },
        ArrivalKind::Closed { clients: 8 },
    ];
    let cfg = if quick {
        ScenarioCfg {
            requests: 20_000,
            warmup: 2_000,
            window: 128,
        }
    } else {
        ScenarioCfg {
            requests: 150_000,
            warmup: 10_000,
            window: 256,
        }
    };

    let mut records = Vec::new();
    for &structure in structures {
        for &pop in &pops {
            for &arrival in &arrivals {
                records.push(run_scenario(structure, pop, arrival, &cfg));
            }
        }
    }

    // Zipf-vs-uniform locality deltas at equal load, the suite's headline.
    println!("\ntraffic: zipf vs uniform service time (open, load 0.8):");
    for r in &records {
        if r.popularity.as_deref() != Some("uniform") || r.arrival.as_deref() != Some("open") {
            continue;
        }
        let zipf_name = r.name.replace("/uniform/", "/zipf1/");
        if let Some(z) = records.iter().find(|x| x.name == zipf_name) {
            let delta = 100.0 * (z.ns_per_op - r.ns_per_op) / r.ns_per_op;
            println!(
                "traffic:   {:<28} {:>7.1} -> {:>7.1} ns/op  ({delta:+.1}%)  p99 {:>8.0} -> {:>8.0}",
                r.structure.as_deref().unwrap_or("?"),
                r.ns_per_op,
                z.ns_per_op,
                r.p99_ns.unwrap_or(0.0),
                z.p99_ns.unwrap_or(0.0),
            );
        }
    }

    report::write_json(std::path::Path::new(&out), &records, quick)
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("traffic: wrote {} records to {out}", records.len());
}
