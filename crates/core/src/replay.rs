//! Match-traffic traces: record one process's matching operations, then
//! spc-scope: cold
//! replay them against any structure, architecture or locality
//! configuration.
//!
//! This is the methodology of Ferreira et al. ("Characterizing MPI matching
//! via trace-based simulation", EuroMPI'17 — reference 12 in the paper):
//! capture the *workload* once, then evaluate *engines* offline. Combined
//! with this crate's structures and `spc-cachesim`, it turns any recorded
//! application into a locality benchmark.
//!
//! Traces serialize to a line-oriented text format (one op per line):
//!
//! ```text
//! # spc-match-trace v1
//! P <rank> <tag> <ctx> <request>    # post a receive (rank/tag may be -1)
//! A <rank> <tag> <ctx> <payload>    # message arrival
//! C <request>                       # cancel a posted receive
//! I <rank> <tag> <ctx>              # probe the unexpected queue
//! ```

use crate::engine::{Op, Outcome};
use crate::entry::{Envelope, RecvSpec, ANY_SOURCE, ANY_TAG};
use crate::sink::AccessSink;
use crate::stats::{DepthStats, EngineStats};

/// One numeric field at its own type; the message names the bad token.
fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

/// A recorded stream of matching operations ([`Op`]s) for one process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchTrace {
    ops: Vec<Op>,
}

/// Error parsing a serialized trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

impl MatchTrace {
    /// New, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a posted receive.
    pub fn post(&mut self, spec: RecvSpec, request: u64) {
        self.ops.push(Op::PostRecv { spec, request });
    }

    /// Records a message arrival.
    pub fn arrival(&mut self, env: Envelope, payload: u64) {
        self.ops.push(Op::Arrival { env, payload });
    }

    /// Records a cancellation.
    pub fn cancel(&mut self, request: u64) {
        self.ops.push(Op::Cancel { request });
    }

    /// Records a probe of the unexpected queue.
    pub fn probe(&mut self, spec: RecvSpec) {
        self.ops.push(Op::Iprobe { spec });
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(16 + self.ops.len() * 24);
        out.push_str("# spc-match-trace v1\n");
        for op in &self.ops {
            match op {
                Op::PostRecv { spec, request } => {
                    out.push_str(&format!(
                        "P {} {} {} {}\n",
                        spec.rank, spec.tag, spec.context_id, request
                    ));
                }
                Op::Arrival { env, payload } => {
                    out.push_str(&format!(
                        "A {} {} {} {}\n",
                        env.rank, env.tag, env.context_id, payload
                    ));
                }
                Op::Cancel { request } => {
                    out.push_str(&format!("C {request}\n"));
                }
                Op::Iprobe { spec } => {
                    out.push_str(&format!(
                        "I {} {} {}\n",
                        spec.rank, spec.tag, spec.context_id
                    ));
                }
            }
        }
        out
    }

    /// Parses the text format (comments and blank lines are skipped). The
    /// inverse of [`Self::to_text`], and safe on outside input: every field
    /// is parsed at its own type, so an out-of-range value is an error, not
    /// a truncating cast, and a rank or tag below what its op allows (the
    /// wildcard on `P`/`I`, 0 on `A`) is refused before it can build an
    /// impossible [`Envelope`].
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut trace = Self::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| TraceParseError {
                line: idx + 1,
                message,
            };
            let mut parts = line.split_ascii_whitespace();
            let kind = parts.next().expect("non-empty line has a first token");
            let fields: Vec<&str> = parts.collect();
            let want = |n: usize| {
                if fields.len() == n {
                    Ok(())
                } else {
                    Err(err(format!(
                        "expected {n} fields after '{kind}', got {}",
                        fields.len()
                    )))
                }
            };
            let handle = |s: &str| num::<u64>(s).map_err(err);
            // `<rank> <tag> <ctx>`, rank and tag no lower than their floors.
            let key = |rank_floor: i32, tag_floor: i32| {
                let at_least = |s: &str, floor: i32| match num::<i32>(s) {
                    Ok(v) if v < floor => Err(format!("rank/tag {v} below {floor}")),
                    other => other,
                };
                Ok((
                    at_least(fields[0], rank_floor).map_err(err)?,
                    at_least(fields[1], tag_floor).map_err(err)?,
                    num::<u16>(fields[2]).map_err(err)?,
                ))
            };
            match kind {
                "P" => {
                    want(4)?;
                    let (rank, tag, ctx) = key(ANY_SOURCE, ANY_TAG)?;
                    trace.post(RecvSpec::new(rank, tag, ctx), handle(fields[3])?);
                }
                "A" => {
                    want(4)?;
                    let (rank, tag, ctx) = key(0, 0)?;
                    trace.arrival(Envelope::new(rank, tag, ctx), handle(fields[3])?);
                }
                "C" => {
                    want(1)?;
                    trace.cancel(handle(fields[0])?);
                }
                "I" => {
                    want(3)?;
                    let (rank, tag, ctx) = key(ANY_SOURCE, ANY_TAG)?;
                    trace.probe(RecvSpec::new(rank, tag, ctx));
                }
                other => return Err(err(format!("unknown op kind {other:?}"))),
            }
        }
        Ok(trace)
    }

    /// Replays against a matching engine, reporting accesses to `sink`.
    /// Returns the replay report.
    pub fn replay_sink<S: AccessSink>(
        &self,
        engine: &mut crate::dynengine::DynEngine,
        sink: &mut S,
    ) -> ReplayReport {
        let mut report = ReplayReport::default();
        for &op in &self.ops {
            match engine.apply_sink(op, sink) {
                Outcome::MatchedUnexpected { depth, .. } => {
                    report.umq_hits += 1;
                    report.umq_depths.record(depth as u64);
                }
                Outcome::Posted { .. } => report.posted += 1,
                Outcome::MatchedPosted { depth, .. } => {
                    report.prq_hits += 1;
                    report.prq_depths.record(depth as u64);
                }
                Outcome::Queued { .. } => report.queued += 1,
                Outcome::Cancelled(hit) => report.cancelled += hit as u64,
                // Probes change nothing; rejections and deferrals cannot
                // happen on an unbounded, unbatched engine.
                _ => {}
            }
        }
        report.final_prq_len = engine.prq_len();
        report.final_umq_len = engine.umq_len();
        report.engine_stats = engine.stats().clone();
        report
    }

    /// Replays without instrumentation.
    pub fn replay(&self, engine: &mut crate::dynengine::DynEngine) -> ReplayReport {
        self.replay_sink(engine, &mut crate::sink::NullSink)
    }
}

/// What a replay observed.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Arrivals that matched a posted receive, and their search depths.
    pub prq_hits: u64,
    /// PRQ search-depth summary.
    pub prq_depths: DepthStats,
    /// Posts that matched an unexpected message, and their search depths.
    pub umq_hits: u64,
    /// UMQ search-depth summary.
    pub umq_depths: DepthStats,
    /// Posts that went onto the PRQ.
    pub posted: u64,
    /// Arrivals that went onto the UMQ.
    pub queued: u64,
    /// Successful cancellations.
    pub cancelled: u64,
    /// PRQ length at end of replay.
    pub final_prq_len: usize,
    /// UMQ length at end of replay.
    pub final_umq_len: usize,
    /// The engine's own accumulated statistics.
    pub engine_stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynengine::{DynEngine, EngineKind};

    fn sample_trace() -> MatchTrace {
        let mut t = MatchTrace::new();
        t.post(RecvSpec::new(1, 5, 0), 10);
        t.post(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 11);
        t.arrival(Envelope::new(1, 5, 0), 100);
        t.arrival(Envelope::new(2, 9, 0), 101);
        t.cancel(11); // already matched by arrival 101? no: 101 matched req 11
        t.arrival(Envelope::new(3, 3, 0), 102); // queued
        t.probe(RecvSpec::new(3, ANY_TAG, 0)); // sees it, consumes nothing
        t.post(RecvSpec::new(3, 3, 0), 12); // drains it
        t
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let mut t = sample_trace();
        // Every field at the edge of its own type: `DynEngine::pad_prq`
        // issues handles counting down from `u64::MAX`.
        t.post(RecvSpec::new(i32::MAX, i32::MAX, u16::MAX), u64::MAX);
        t.arrival(Envelope::new(i32::MAX, 0, u16::MAX), u64::MAX - 1);
        t.cancel(u64::MAX);
        let text = t.to_text();
        let back = MatchTrace::from_text(&text).expect("parse");
        assert_eq!(t, back);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(MatchTrace::from_text("P 1 2 3")
            .unwrap_err()
            .message
            .contains("expected 4"));
        assert!(MatchTrace::from_text("X 1")
            .unwrap_err()
            .message
            .contains("unknown op"));
        assert!(MatchTrace::from_text("P a b c d")
            .unwrap_err()
            .message
            .contains("bad number"));
        let e = MatchTrace::from_text("# ok\n\nC zzz").unwrap_err();
        assert_eq!(e.line, 3);
        // Out of range for the field's own type: refused, not truncated.
        for bad in [
            "P 4294967297 0 0 1",
            "P 0 0 70000 1",
            "P 0 0 0 -1",
            "P 4294967297 0 70000 -1",
            "C 18446744073709551616",
        ] {
            let e = MatchTrace::from_text(bad).unwrap_err();
            assert!(e.message.contains("bad number"), "{bad}: {e}");
        }
        // Below the wildcard on a receive, below 0 on an envelope.
        for bad in ["P -2 0 0 1", "I 0 -2 0", "A -1 0 0 5", "A 0 -1 0 5"] {
            let e = MatchTrace::from_text(&format!("C 1\n{bad}")).unwrap_err();
            assert!(e.message.contains("below"), "{bad}: {e}");
            assert_eq!(e.line, 2);
        }
    }

    /// 10 000 seeded mutations of a valid trace — truncate, splice,
    /// bit-flip, field-swap, one to three at a time: the parser answers
    /// `Ok` or `Err`, never panics, and whatever it accepts survives
    /// `to_text` and a second parse unchanged.
    #[test]
    fn mutated_traces_parse_or_fail_but_never_panic() {
        use spc_rng::{Rng, SeedableRng, StdRng};
        let mut base = sample_trace();
        base.post(RecvSpec::new(7, ANY_TAG, u16::MAX), u64::MAX);
        base.arrival(Envelope::new(i32::MAX, 65_536, 9), u64::MAX - 1);
        let base = base.to_text().into_bytes();
        let mut rng = StdRng::seed_from_u64(0x7_12ACE);
        let (mut accepted, mut refused) = (0u32, 0u32);
        for _ in 0..10_000 {
            let mut text = base.clone();
            for _ in 0..rng.gen_range(1..4u32) {
                if text.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..text.len());
                match rng.gen_range(0..4u32) {
                    0 => text.truncate(at),
                    1 => {
                        let from = rng.gen_range(0..base.len());
                        let to = rng.gen_range(from..base.len());
                        text.splice(at..at, base[from..=to].iter().copied());
                    }
                    // The low seven bits only, so the text stays ASCII.
                    2 => text[at] ^= 1 << rng.gen_range(0..7u32),
                    _ => {
                        // Swap two space-separated fields, wherever they are.
                        let s = String::from_utf8(text).expect("ascii");
                        let mut fields: Vec<&str> = s.split(' ').collect();
                        let (a, b) = (at % fields.len(), rng.gen_range(0..fields.len()));
                        fields.swap(a, b);
                        text = fields.join(" ").into_bytes();
                    }
                }
            }
            let text = String::from_utf8(text).expect("mutations keep the text ASCII");
            match MatchTrace::from_text(&text) {
                Ok(t) => {
                    assert_eq!(MatchTrace::from_text(&t.to_text()).as_ref(), Ok(&t));
                    accepted += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(
            accepted > 1_000 && refused > 1_000,
            "{accepted} / {refused}"
        );
    }

    #[test]
    fn replay_reports_the_protocol_outcomes() {
        let t = sample_trace();
        let mut eng = DynEngine::new(EngineKind::Lla { arity: 2 });
        let r = t.replay(&mut eng);
        assert_eq!(r.prq_hits, 2); // arrivals 100 (req 10) and 101 (wildcard req 11)
        assert_eq!(r.queued, 1); // arrival 102
        assert_eq!(r.umq_hits, 1); // post 12 drained it
        assert_eq!(r.cancelled, 0, "request 11 was already consumed");
        assert_eq!(r.final_prq_len, 0);
        assert_eq!(r.final_umq_len, 0);
    }

    #[test]
    fn same_trace_same_matches_across_structures() {
        let t = sample_trace();
        let reports: Vec<_> = [
            EngineKind::Baseline,
            EngineKind::Lla { arity: 8 },
            EngineKind::HashBins { bins: 4 },
            EngineKind::SourceBins { comm_size: 8 },
        ]
        .into_iter()
        .map(|k| {
            let mut eng = DynEngine::new(k);
            let r = t.replay(&mut eng);
            (
                r.prq_hits,
                r.umq_hits,
                r.queued,
                r.final_prq_len,
                r.final_umq_len,
            )
        })
        .collect();
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:?}");
    }

    #[test]
    fn replay_depths_differ_by_structure_but_counts_do_not() {
        // Deep adversarial trace: structures agree on *what* matches but
        // differ on *how deep* they search.
        let mut t = MatchTrace::new();
        for i in 0..256 {
            t.post(RecvSpec::new(i % 16, i, 0), i as u64);
        }
        for i in (0..256).rev() {
            t.arrival(Envelope::new(i % 16, i, 0), 1000 + i as u64);
        }
        let mut base = DynEngine::new(EngineKind::Baseline);
        let mut bins = DynEngine::new(EngineKind::SourceBins { comm_size: 16 });
        let rb = t.replay(&mut base);
        let rs = t.replay(&mut bins);
        assert_eq!(rb.prq_hits, rs.prq_hits);
        assert!(rb.prq_depths.mean() > 5.0 * rs.prq_depths.mean());
    }
}
