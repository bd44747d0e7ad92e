//! The untraced run that yields the end-to-end metrics, and `--check`.

use std::time::{Duration, Instant};

use spc_cachesim::ArchProfile;

use crate::adapter::{Batched, Engine, SimStructure};
use crate::harness::{per_verb_ns, rep_shared, rep_single, run_clients, Limit, Rep};
use crate::metrics::Outcome;
use crate::ops::Verb;
use crate::sim::{replay, Pair};
use crate::stat::{iqr_pct, median, percentile, sort};
use crate::trace::{Recorder, Untraced};
use crate::workloads::{build, Kind, Workload, BATCH, SHARDS, WORKLOADS};

/// Length of one timed repetition. Short, and therefore many: on a shared
/// host interference comes in phases of a second or more, and the median
/// of many short repetitions rides through them where a few long ones
/// each average one in.
const REP_SECONDS: f64 = 0.45;
/// Windows of the fixed simulated replay behind `sim_flow_ns`.
pub const SIM_WINDOWS: usize = 32;
/// Window samples kept per client and repetition.
pub const SAMPLES: usize = 1 << 22;

/// The paper's first testbed; `cold_window` and every `sim_*` metric use it.
pub fn testbed() -> ArchProfile {
    ArchProfile::sandy_bridge()
}

/// One repetition of `w` as it ships: fresh engine, primed, one client per
/// stream. `recs` holds one recorder per client.
pub fn native_rep<R: Recorder + Send>(
    w: &Workload,
    limit: Limit,
    samples: &mut [Vec<u32>],
    mut recs: Vec<R>,
) -> (Rep, Vec<R>) {
    match w.kind {
        Kind::Single => {
            let rec = recs.pop().expect("one recorder");
            rep_single(&mut Engine::new(), w, &w.streams, limit, samples, rec)
        }
        Kind::Batched => {
            let e = Batched::new(SHARDS, w.threads(), BATCH, false);
            rep_shared(&e, Batched::producer, w, &w.streams, limit, samples, recs)
        }
        Kind::Simulated => {
            let mut pair = Pair::new(SimStructure::Lla2, testbed(), &w.prime);
            let rec = recs.pop().expect("one recorder");
            let out = run_clients(vec![(&mut pair, rec)], &w.streams, limit, samples);
            let (tallies, recs): (Vec<_>, Vec<_>) = out.into_iter().unzip();
            let unquiet = [pair.cold.lens(), pair.hot.lens()]
                .iter()
                .filter(|&&lens| lens != w.quiescent_lens())
                .count();
            let failed = tallies[0].failed + unquiet as u64;
            (Rep { tallies, failed }, recs)
        }
    }
}

/// Everything a repetition needs before its first op: the streams and
/// their expectations generated from the seed, a fresh engine built and
/// primed, clients started. This is the work `setup_s` times.
fn set_up(name: &str, seed: u64) -> (Workload, u64) {
    let w = build(name, seed).unwrap_or_else(|| panic!("unknown workload {name}"));
    let (rep, _) = native_rep(&w, Limit::windows(0), &mut sample_bufs(&w, 0), untraced(&w));
    (w, rep.failed)
}

/// One window-sample buffer per client, holding up to `capacity` samples
/// (0: the pass keeps none).
pub fn sample_bufs(w: &Workload, capacity: usize) -> Vec<Vec<u32>> {
    (0..w.threads())
        .map(|_| Vec::with_capacity(capacity))
        .collect()
}

/// The untraced run: `seconds` of timed repetitions, then the fixed
/// simulated replay. Every repetition is preceded by a full set-up, so
/// `setup_s` samples the host over the whole run as the timings do. Prints
/// its noise figures to stdout.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let reps = ((seconds * 0.9 / REP_SECONDS) as usize).max(5);
    let limit = Limit::time(Duration::from_secs_f64(seconds * 0.9 / reps as f64));
    let warm = Limit::time(Duration::from_secs_f64(seconds * 0.1));
    let (mut setups, mut rates, mut p50s, mut p99s, mut windows) =
        (vec![], vec![], vec![], vec![], 0);
    // Generated once here for the buffers, the replay and the header; every
    // repetition generates its own again, timed.
    let w = build(name, seed).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut bufs = sample_bufs(&w, SAMPLES);
    // Repetition 0 is the warm-up: run, checked, not reported.
    for rep in 0..=reps {
        let t0 = Instant::now();
        let (fresh, primed_wrong) = set_up(name, seed);
        setups.push(t0.elapsed().as_secs_f64());
        out.failed += primed_wrong;
        bufs.iter_mut().for_each(Vec::clear);
        let limit = if rep == 0 { warm } else { limit };
        let (r, _) = native_rep(&fresh, limit, &mut bufs, untraced(&fresh));
        out.attempted += r.verbs();
        out.failed += r.failed;
        if rep > 0 {
            rates.push(r.ops_per_s());
            let mut per_verb = per_verb_ns(&fresh.streams, &bufs);
            sort(&mut per_verb);
            windows += per_verb.len();
            p50s.push(percentile(&per_verb, 50.0));
            p99s.push(percentile(&per_verb, 99.0));
        }
    }
    out.put("ops_per_s", median(&rates));
    out.put("op_p50_ns", median(&p50s));
    out.put("setup_s", median(&setups));

    let sim = replay(
        SimStructure::Lla2,
        testbed(),
        &w.prime,
        &w.streams[0],
        SIM_WINDOWS,
    );
    out.attempted += sim.pair.cold.verbs + sim.pair.hot.verbs;
    out.failed += sim.failed;
    out.put("sim_flow_ns", sim.pair.cold.flow_ns());
    out.put("sim_hot_flow_ns", sim.pair.hot.flow_ns());

    println!(
        "{name}: seed {seed} (streams {:016x}), {} client thread(s), closed loop, \
         {reps} reps of {:.2} s, {windows} window samples",
        w.streams.iter().fold(0, |h, s| h ^ s.hash()),
        w.threads(),
        limit.time.as_secs_f64()
    );
    println!(
        "  spread across reps (IQR/median): ops_per_s {:.2} %, op_p50_ns {:.2} %, setup_s {:.2} %; \
         op_p99_ns {:.1} (recorded, not gated)",
        iqr_pct(&rates),
        iqr_pct(&p50s),
        iqr_pct(&setups),
        median(&p99s),
    );
    out
}

/// One no-op recorder per client.
pub fn untraced(w: &Workload) -> Vec<Untraced> {
    (0..w.threads()).map(|_| Untraced).collect()
}

/// `--check`: a few hundred windows of every workload with every check on,
/// the batched ones with the drain log, which pins each ring-buffered op to
/// the counterpart the reference model says it must match. Returns the
/// number of failures.
pub fn check(seed: u64) -> u64 {
    let mut failures = 0;
    for (name, _) in WORKLOADS {
        let w = build(name, seed).expect("known workload");
        let limit = Limit::windows(300);
        let mut bufs = sample_bufs(&w, 0);
        let (verbs, mut failed) = match w.kind {
            Kind::Batched => {
                let e = Batched::new(SHARDS, w.threads(), BATCH, true);
                let (rep, _) = rep_shared(
                    &e,
                    Batched::producer,
                    &w,
                    &w.streams,
                    limit,
                    &mut bufs,
                    untraced(&w),
                );
                (rep.verbs(), rep.failed + check_drain_log(&e, &w))
            }
            _ => {
                let (rep, _) = native_rep(&w, limit, &mut bufs, untraced(&w));
                (rep.verbs(), rep.failed)
            }
        };
        let sim = replay(SimStructure::Lla2, testbed(), &w.prime, &w.streams[0], 2);
        failed += sim.failed;
        println!("check {name}: {verbs} ops, {failed} failed");
        failures += failed;
    }
    failures
}

/// Every drained post and arrival must have matched exactly what the
/// reference model expected for its handle.
fn check_drain_log(e: &Batched, w: &Workload) -> u64 {
    let mut expect = std::collections::HashMap::new();
    for op in w.prime.iter().chain(w.streams.iter().flat_map(|s| s.ops())) {
        if matches!(op.verb, Verb::Post | Verb::Arrive) {
            expect.insert((op.verb, op.handle), op.expect);
        }
    }
    let log = e.take_log();
    let wrong = log
        .iter()
        .filter(|d| expect.get(&(d.verb, d.handle)) != Some(&d.outcome))
        .count();
    if wrong > 0 || log.is_empty() {
        eprintln!(
            "{}: drain log: {wrong} of {} entries wrong",
            w.name,
            log.len()
        );
    }
    wrong as u64 + log.is_empty() as u64
}
