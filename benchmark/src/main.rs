//! The repo benchmark: five closed-loop matching workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.
//! See README.md; `run.sh` builds and runs this.

mod adapter;
mod harness;
mod ladder;
mod metrics;
mod ops;
mod run;
mod sim;
mod stat;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workloads::WORKLOADS;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20180813;
/// Measuring time used when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--check] [--out DIR]
       run.sh compare BASE.. -- NEW..   (see README.md)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--check" => a.check = true,
            // `--trace` alone means `--trace 1`.
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => a.trace = v == "1",
                other => {
                    a.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        return Err(format!("unknown workload {}", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        let failures = run::check(args.seed);
        println!("check: {}", if failures == 0 { "passed" } else { "FAILED" });
        return ExitCode::from((failures != 0) as u8);
    }
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        if args.workload != "all" && args.workload != name {
            continue;
        }
        let (outcome, defs) = if args.trace {
            (
                ladder::per_layer(name, args.seed, args.seconds, &args.out),
                &PER_LAYER[..],
            )
        } else {
            (
                run::end_to_end(name, args.seed, args.seconds),
                &END_TO_END[..],
            )
        };
        print!("{}", outcome.table(defs));
        println!(
            "  attempted {}, failed {} (failed_frac {})",
            outcome.attempted,
            outcome.failed,
            outcome.failed as f64 / outcome.attempted.max(1) as f64
        );
        // The result line: last on stdout for a single workload.
        println!("{}", outcome.to_json(defs));
        all_correct &= outcome.correct();
    }
    ExitCode::from(!all_correct as u8)
}
