//! The closed loop: client threads that send their next op the moment the
//! previous one returns, a fresh engine per repetition, and the checks at
//! quiescence.
//!
//! Zero think time is the honest load shape here: an MPI progress engine
//! calls the matcher synchronously, so a slower matcher receives less load
//! rather than a growing backlog.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::adapter::{Engine, Quiescent, Subject};
use crate::ops::{Op, Stream, Verb, NONE};
use crate::trace::{Kind, Recorder};
use crate::workloads::Workload;

/// When a client stops: at the deadline or after `max_windows`, whichever
/// comes first (and, when traced, once its span buffer is full).
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Wall-time budget.
    pub time: Duration,
    /// Window budget.
    pub max_windows: usize,
}

impl Limit {
    /// Run for `time`.
    pub fn time(time: Duration) -> Self {
        Self {
            time,
            max_windows: usize::MAX,
        }
    }

    /// Run `n` windows, however long they take.
    pub fn windows(n: usize) -> Self {
        Self {
            time: Duration::MAX,
            max_windows: n,
        }
    }
}

/// What one client did.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    /// Ops sent.
    pub verbs: u64,
    /// Ops whose outcome was not the expected one.
    pub failed: u64,
    /// Windows completed.
    pub windows: usize,
    /// First op sent.
    pub start: Instant,
    /// Last op (and final ring flush) returned.
    pub end: Instant,
}

/// One client's closed loop over `stream`, cycling through its windows.
/// Each window's wall time goes to `samples` (while capacity lasts: the
/// buffer is never grown inside the timed loop).
pub fn drive<S: Subject, R: Recorder>(
    subject: &mut S,
    stream: &Stream,
    limit: Limit,
    samples: &mut Vec<u32>,
    rec: &mut R,
) -> Tally {
    let start = Instant::now();
    let deadline = start.checked_add(limit.time);
    let (mut verbs, mut failed, mut windows, mut next) = (0u64, 0u64, 0usize, 0usize);
    let mut t0 = start;
    while windows < limit.max_windows {
        let ops = stream.window(next);
        rec.open(windows as u32, t0);
        subject.begin_window();
        for op in ops {
            let mark = rec.begin();
            let out = subject.apply(op);
            rec.end(mark, Kind::of(op));
            failed += !op.accepts(out) as u64;
        }
        let t1 = Instant::now();
        rec.close(t1);
        if samples.len() < samples.capacity() {
            samples.push(t1.duration_since(t0).as_nanos() as u32);
        }
        verbs += ops.len() as u64;
        windows += 1;
        next = if next + 1 == stream.windows() {
            0
        } else {
            next + 1
        };
        if deadline.is_some_and(|d| t1 >= d) || rec.full() {
            break;
        }
        t0 = t1;
    }
    subject.finish();
    Tally {
        verbs,
        failed,
        windows,
        start,
        end: Instant::now(),
    }
}

/// Runs one client per `(subject, recorder)` pair, each over its own
/// stream, all released by one barrier. A single client runs on the
/// calling thread.
pub fn run_clients<S, R>(
    clients: Vec<(S, R)>,
    streams: &[Stream],
    limit: Limit,
    samples: &mut [Vec<u32>],
) -> Vec<(Tally, R)>
where
    S: Subject + Send,
    R: Recorder + Send,
{
    assert_eq!(clients.len(), streams.len());
    if let [_] = clients[..] {
        let (mut s, mut r) = clients.into_iter().next().expect("one client");
        let tally = drive(&mut s, &streams[0], limit, &mut samples[0], &mut r);
        return vec![(tally, r)];
    }
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .zip(samples.iter_mut())
            .map(|(((mut s, mut r), stream), buf)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let tally = drive(&mut s, stream, limit, buf, &mut r);
                    (tally, r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Applies the primed entries; returns how many did not queue as expected.
pub fn prime<S: Subject>(subject: &mut S, ops: &[Op]) -> u64 {
    let failed = ops
        .iter()
        .filter(|op| !op.accepts(subject.apply(op)))
        .count();
    subject.finish();
    failed as u64
}

/// Matches the clients must have produced, from what each one sent:
/// `(arrivals that matched a receive, posts that matched a message)`.
fn expected_hits(streams: &[Stream], tallies: &[Tally]) -> (u64, u64) {
    let hits = |verb| -> u64 {
        streams
            .iter()
            .zip(tallies)
            .map(|(s, t)| s.sent(t.windows, |o| o.verb == verb && o.expect != NONE))
            .sum()
    };
    (hits(Verb::Arrive), hits(Verb::Post))
}

/// Checks an engine at quiescence against what its clients sent. Returns
/// the number of discrepancies (each counts as a failed op) and describes
/// them on stderr.
pub fn check_quiescent<Q: Quiescent>(
    q: &Q,
    w: &Workload,
    streams: &[Stream],
    tallies: &[Tally],
) -> u64 {
    let mut failed = 0;
    let mut note = |what: &str, got: u64, want: u64| {
        if got != want {
            eprintln!("{}: {what}: got {got}, expected {want}", w.name);
            failed += got.abs_diff(want);
        }
    };
    let (prq, umq) = q.lens();
    let (want_prq, want_umq) = w.quiescent_lens();
    note("entries left on the PRQ", prq as u64, want_prq as u64);
    note("entries left on the UMQ", umq as u64, want_umq as u64);
    let c = q.counts();
    let (prq_hits, umq_hits) = expected_hits(streams, tallies);
    note("arrivals matched", c.prq_hits, prq_hits);
    note("posts matched", c.umq_hits, umq_hits);
    note("admissions rejected", c.rejected, 0);
    if let Err(e) = q.validate() {
        eprintln!("{}: validate: {e}", w.name);
        failed += 1;
    }
    failed
}

/// One repetition: what the clients did to a fresh engine.
pub struct Rep {
    /// Per-client tallies.
    pub tallies: Vec<Tally>,
    /// Failed ops: wrong outcomes plus discrepancies at quiescence.
    pub failed: u64,
}

impl Rep {
    /// Ops sent by all clients.
    pub fn verbs(&self) -> u64 {
        self.tallies.iter().map(|t| t.verbs).sum()
    }

    /// From the first client's first op to the last client's last return.
    pub fn wall(&self) -> Duration {
        let start = self
            .tallies
            .iter()
            .map(|t| t.start)
            .min()
            .expect("a client");
        let end = self.tallies.iter().map(|t| t.end).max().expect("a client");
        end.duration_since(start)
    }

    /// Ops completed per wall second, all clients.
    pub fn ops_per_s(&self) -> f64 {
        self.verbs() as f64 / self.wall().as_secs_f64()
    }
}

fn finish_rep<Q: Quiescent, R>(
    q: &Q,
    w: &Workload,
    streams: &[Stream],
    primed_wrong: u64,
    out: Vec<(Tally, R)>,
) -> (Rep, Vec<R>) {
    let (tallies, recs): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let failed = primed_wrong
        + tallies.iter().map(|t| t.failed).sum::<u64>()
        + check_quiescent(q, w, streams, &tallies);
    (Rep { tallies, failed }, recs)
}

/// One repetition on a fresh `MatchEngine`: primes it, runs one client
/// over `streams[0]`, checks it at quiescence.
pub fn rep_single<R: Recorder + Send>(
    engine: &mut Engine,
    w: &Workload,
    streams: &[Stream],
    limit: Limit,
    samples: &mut [Vec<u32>],
    rec: R,
) -> (Rep, Vec<R>) {
    let primed_wrong = prime(engine, &w.prime);
    let out = run_clients(vec![(&mut *engine, rec)], streams, limit, samples);
    finish_rep(engine, w, streams, primed_wrong, out)
}

/// One repetition on a fresh engine that clients share: primes it through
/// client 0's handle, runs one client per stream (`client` makes each
/// one's handle), checks it at quiescence.
pub fn rep_shared<'e, E, S, R>(
    engine: &'e E,
    client: impl Fn(&'e E, usize) -> S,
    w: &Workload,
    streams: &[Stream],
    limit: Limit,
    samples: &mut [Vec<u32>],
    recs: Vec<R>,
) -> (Rep, Vec<R>)
where
    E: Quiescent,
    S: Subject + Send,
    R: Recorder + Send,
{
    let primed_wrong = prime(&mut client(engine, 0), &w.prime);
    let clients = recs
        .into_iter()
        .enumerate()
        .map(|(t, r)| (client(engine, t), r))
        .collect();
    let out = run_clients(clients, streams, limit, samples);
    finish_rep(engine, w, streams, primed_wrong, out)
}

/// Per-verb window times of one repetition, pooled over its clients:
/// window `k` of a client is window `k mod n` of its stream.
pub fn per_verb_ns(streams: &[Stream], samples: &[Vec<u32>]) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.iter().map(Vec::len).sum());
    for (s, buf) in streams.iter().zip(samples) {
        let lens: Vec<f64> = (0..s.windows()).map(|i| s.window(i).len() as f64).collect();
        out.extend(
            buf.iter()
                .enumerate()
                .map(|(k, &ns)| ns as f64 / lens[k % lens.len()]),
        );
    }
    out
}
