//! Deterministic interleaving testing: drive racing threads one gated
//! step at a time through every possible interleaving of a short
//! scenario.
//!
//! Free-running stress (see [`crate::concurrent`]) finds races with
//! probability; it cannot *enumerate* them. For the hard races — a
//! wildcard post vs arrivals landing on two different shards, a cancel
//! vs a concurrent match, a probe vs a draining queue — this module
//! instead runs each thread behind a channel gate: the scheduler releases
//! exactly one thread for exactly one operation per step, so a scenario
//! of `k` total ops can be pushed through **all** `k!/(n₁!…nₜ!)`
//! interleavings ([`interleavings`]), each producing a seq-stamped log
//! that [`crate::concurrent::verify_log`] replays through the oracle.
//!
//! The ops still execute on real threads against the real concurrent
//! engine — the gate serializes *op boundaries*, not the lock protocol
//! inside each op — so every interleaving exercises the same code paths a
//! lucky race would.

use std::sync::mpsc;
use std::sync::Mutex;

use crate::concurrent::{ConcOp, LogRecord, ThreadExec};
use spc_core::engine::Engine;
use spc_rng::{Rng, SeedableRng, StdRng};

/// Enumerates every interleaving of `counts[t]` steps per thread as
/// sequences of thread indices. The number of interleavings is the
/// multinomial coefficient — keep total steps ≤ ~8 (a 6-step two-thread
/// scenario has 20; three threads of 2 steps have 90).
pub fn interleavings(counts: &[usize]) -> Vec<Vec<usize>> {
    fn recurse(rem: &mut [usize], cur: &mut Vec<usize>, total: usize, out: &mut Vec<Vec<usize>>) {
        if cur.len() == total {
            out.push(cur.clone());
            return;
        }
        for t in 0..rem.len() {
            if rem[t] > 0 {
                rem[t] -= 1;
                cur.push(t);
                recurse(rem, cur, total, out);
                cur.pop();
                rem[t] += 1;
            }
        }
    }
    let total = counts.iter().sum();
    let mut out = Vec::new();
    recurse(
        &mut counts.to_vec(),
        &mut Vec::with_capacity(total),
        total,
        &mut out,
    );
    out
}

/// Seeded random subsample of schedules for scenarios too large to
/// enumerate: draws `n` schedules of `counts[t]` steps per thread.
pub fn sampled_schedules(counts: &[usize], n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: usize = counts.iter().sum();
    (0..n)
        .map(|_| {
            let mut rem = counts.to_vec();
            let mut left = total;
            let mut sched = Vec::with_capacity(total);
            while left > 0 {
                // Pick the k-th remaining step uniformly, so long streams
                // are not biased toward low thread indices.
                let mut k = rng.gen_range(0..left);
                for (t, r) in rem.iter_mut().enumerate() {
                    if k < *r {
                        *r -= 1;
                        left -= 1;
                        sched.push(t);
                        break;
                    }
                    k -= *r;
                }
            }
            sched
        })
        .collect()
}

/// Runs `streams` against `eng` with the op-boundary order fixed by
/// `schedule` (a sequence of thread indices containing each thread
/// exactly `streams[t].len()` times). Threads are real and the engine's
/// locking runs for real; only the *order in which ops start* is pinned.
/// Returns the merged log sorted by seq stamp.
pub fn run_stepped<H>(eng: H, streams: &[Vec<ConcOp>], schedule: &[usize]) -> Vec<LogRecord>
where
    H: Engine<Stamp = u64> + Copy + Send,
{
    for (t, ops) in streams.iter().enumerate() {
        let steps = schedule.iter().filter(|&&x| x == t).count();
        assert_eq!(
            steps,
            ops.len(),
            "schedule must release thread {t} exactly once per op"
        );
    }
    let logs: Vec<Mutex<Vec<LogRecord>>> = streams.iter().map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let mut gates = Vec::with_capacity(streams.len());
        for (t, ops) in streams.iter().enumerate() {
            let (go_tx, go_rx) = mpsc::channel::<()>();
            gates.push(go_tx);
            let done = done_tx.clone();
            let slot = &logs[t];
            s.spawn(move || {
                let mut eng = eng;
                let mut exec = ThreadExec::new(t);
                let mut out = Vec::with_capacity(ops.len());
                for op in ops {
                    if go_rx.recv().is_err() {
                        break; // scheduler gone; abandon remaining ops
                    }
                    out.extend(exec.run(&mut eng, *op));
                    if done.send(t).is_err() {
                        break;
                    }
                }
                *slot.lock().expect("log slot poisoned") = out;
            });
        }
        drop(done_tx);
        for &t in schedule {
            gates[t].send(()).expect("worker died before its step");
            let who = done_rx.recv().expect("worker died mid-step");
            debug_assert_eq!(who, t, "gated step ran on the wrong thread");
        }
        drop(gates);
    });
    let mut log: Vec<LogRecord> = logs
        .into_iter()
        .flat_map(|m| m.into_inner().expect("log slot poisoned"))
        .collect();
    crate::concurrent::sort_log(&mut log);
    // The schedule is fully drained, so the engine is quiescent: run its
    // structural validators before handing the log to verification.
    #[cfg(feature = "debug_invariants")]
    if let Err(e) = eng.validate() {
        panic!("invariant violation after stepped schedule: {e}");
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleavings_count_is_the_multinomial() {
        assert_eq!(interleavings(&[1]).len(), 1);
        assert_eq!(interleavings(&[3, 3]).len(), 20); // 6!/(3!3!)
        assert_eq!(interleavings(&[2, 2, 2]).len(), 90); // 6!/(2!2!2!)
        let all = interleavings(&[2, 1]);
        assert_eq!(all, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]);
    }

    #[test]
    fn sampled_schedules_are_valid_and_deterministic() {
        let counts = [5usize, 3, 4];
        let a = sampled_schedules(&counts, 16, 7);
        assert_eq!(a, sampled_schedules(&counts, 16, 7));
        for sched in &a {
            assert_eq!(sched.len(), 12);
            for (t, &c) in counts.iter().enumerate() {
                assert_eq!(sched.iter().filter(|&&x| x == t).count(), c);
            }
        }
        // Different seeds reach different schedules.
        assert_ne!(a, sampled_schedules(&counts, 16, 8));
    }
}
