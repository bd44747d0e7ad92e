//! The differential driver: replay one op stream through the oracle and a
//! subject, comparing observable behaviour after every step.
//!
//! On the first disagreement the driver stops and returns a [`Divergence`]
//! naming the step, the operation, and what differed. Pair it with
//! [`crate::shrink::shrink_ops`] to reduce the stream and
//! [`crate::shrink::render_ops`] to print a paste-able repro.

use crate::ops::{EngineOp, PostedOp, UmqOp};
use crate::oracle::OracleList;
use spc_core::dynengine::{DynEngine, EngineKind};
use spc_core::engine::{Engine, MatchEngine, Op, Outcome, QueueBounds};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
use spc_core::list::MatchList;
use spc_core::stats::EngineStats;
use spc_core::NullSink;

/// How strictly search depth is compared against the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepthMode {
    /// Depth must equal the oracle's exactly (linear structures: the
    /// 1-based FIFO position of a hit, the live length on a miss).
    Exact,
    /// Depth must satisfy the bounds every structure owes: a hit inspects
    /// at least one entry and no search inspects more entries than were
    /// live (partitioned structures legitimately inspect fewer).
    Bounded,
}

/// First point where subject and oracle disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Zero-based index of the op that exposed the disagreement.
    pub step: usize,
    /// Debug rendering of that op.
    pub op: String,
    /// What differed (expected vs got).
    pub detail: String,
}

impl core::fmt::Display for Divergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "step {} ({}): {}", self.step, self.op, self.detail)
    }
}

/// Under `debug_invariants`: turns a structure/engine invariant violation
/// into a [`Divergence`] at the current step, so a validator failure is
/// reported (and shrunk) exactly like a behavioral divergence.
#[cfg(feature = "debug_invariants")]
fn check_invariants(
    validated: Result<(), String>,
    step: usize,
    op: impl core::fmt::Debug,
) -> Result<(), Divergence> {
    validated.map_err(|e| diverge(step, op, format!("invariant violation: {e}")))
}

fn diverge(step: usize, op: impl core::fmt::Debug, detail: String) -> Divergence {
    Divergence {
        step,
        op: format!("{op:?}"),
        detail,
    }
}

/// Checks a subject's depth against the oracle's under `mode`.
/// `live_before` is the number of live entries in the searched queue
/// before the op; `hit` whether the search matched.
fn depth_ok(
    mode: DepthMode,
    got: u32,
    oracle: u32,
    hit: bool,
    live_before: usize,
) -> Result<(), String> {
    match mode {
        DepthMode::Exact => {
            if got != oracle {
                return Err(format!("depth {got}, oracle depth {oracle}"));
            }
        }
        DepthMode::Bounded => {
            if hit && got == 0 {
                return Err("hit reported depth 0 (a match must be inspected)".into());
            }
            if got as usize > live_before {
                return Err(format!("depth {got} exceeds live length {live_before}"));
            }
        }
    }
    Ok(())
}

fn spec(rank: Option<i32>, tag: Option<i32>, ctx: u16) -> RecvSpec {
    RecvSpec::new(rank.unwrap_or(ANY_SOURCE), tag.unwrap_or(ANY_TAG), ctx)
}

/// Replays `ops` through the oracle and `subject` in lockstep, comparing
/// search results (by request id), cancel results, lengths, depths (per
/// `mode`) and full snapshots after every step.
pub fn diff_posted<L: MatchList<PostedEntry>>(
    subject: &mut L,
    mode: DepthMode,
    ops: &[PostedOp],
) -> Result<(), Divergence> {
    let mut oracle: OracleList<PostedEntry> = OracleList::new();
    let mut sink = NullSink;
    let mut next_req = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            PostedOp::Append { rank, tag, ctx } => {
                let e = PostedEntry::from_spec(spec(rank, tag, ctx), next_req);
                next_req += 1;
                oracle.append(e, &mut sink);
                subject.append(e, &mut sink);
            }
            PostedOp::Search { rank, tag, ctx } => {
                let live = oracle.len();
                let env = Envelope::new(rank, tag, ctx);
                let want = oracle.search_remove(&env, &mut sink);
                let got = subject.search_remove(&env, &mut sink);
                if got.found.map(|e| e.request) != want.found.map(|e| e.request) {
                    return Err(diverge(
                        step,
                        op,
                        format!(
                            "matched {:?}, oracle matched {:?}",
                            got.found.map(|e| e.request),
                            want.found.map(|e| e.request)
                        ),
                    ));
                }
                depth_ok(mode, got.depth, want.depth, got.found.is_some(), live)
                    .map_err(|d| diverge(step, op, d))?;
            }
            PostedOp::Cancel { req } => {
                let want = oracle.remove_by_id(req, &mut sink).map(|e| e.request);
                let got = subject.remove_by_id(req, &mut sink).map(|e| e.request);
                if got != want {
                    return Err(diverge(
                        step,
                        op,
                        format!("cancelled {got:?}, oracle {want:?}"),
                    ));
                }
            }
            PostedOp::Clear => {
                oracle.clear();
                subject.clear();
            }
        }
        if subject.len() != oracle.len() {
            return Err(diverge(
                step,
                op,
                format!("len {}, oracle len {}", subject.len(), oracle.len()),
            ));
        }
        let want: Vec<u64> = oracle.snapshot().iter().map(|e| e.request).collect();
        let got: Vec<u64> = subject.snapshot().iter().map(|e| e.request).collect();
        if got != want {
            return Err(diverge(
                step,
                op,
                format!("snapshot {got:?}, oracle {want:?}"),
            ));
        }
        #[cfg(feature = "debug_invariants")]
        check_invariants(subject.validate(), step, op)?;
    }
    Ok(())
}

/// Unexpected-queue counterpart of [`diff_posted`] (elements are concrete
/// messages, probes may be wildcarded).
pub fn diff_umq<L: MatchList<UnexpectedEntry>>(
    subject: &mut L,
    mode: DepthMode,
    ops: &[UmqOp],
) -> Result<(), Divergence> {
    let mut oracle: OracleList<UnexpectedEntry> = OracleList::new();
    let mut sink = NullSink;
    let mut next_payload = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            UmqOp::Arrive { rank, tag, ctx } => {
                let e = UnexpectedEntry::from_envelope(Envelope::new(rank, tag, ctx), next_payload);
                next_payload += 1;
                oracle.append(e, &mut sink);
                subject.append(e, &mut sink);
            }
            UmqOp::Recv { rank, tag, ctx } => {
                let live = oracle.len();
                let s = spec(rank, tag, ctx);
                let want = oracle.search_remove(&s, &mut sink);
                let got = subject.search_remove(&s, &mut sink);
                if got.found.map(|e| e.payload) != want.found.map(|e| e.payload) {
                    return Err(diverge(
                        step,
                        op,
                        format!(
                            "matched {:?}, oracle matched {:?}",
                            got.found.map(|e| e.payload),
                            want.found.map(|e| e.payload)
                        ),
                    ));
                }
                depth_ok(mode, got.depth, want.depth, got.found.is_some(), live)
                    .map_err(|d| diverge(step, op, d))?;
            }
            UmqOp::Clear => {
                oracle.clear();
                subject.clear();
            }
        }
        if subject.len() != oracle.len() {
            return Err(diverge(
                step,
                op,
                format!("len {}, oracle len {}", subject.len(), oracle.len()),
            ));
        }
        let want: Vec<u64> = oracle.snapshot().iter().map(|e| e.payload).collect();
        let got: Vec<u64> = subject.snapshot().iter().map(|e| e.payload).collect();
        if got != want {
            return Err(diverge(
                step,
                op,
                format!("snapshot {got:?}, oracle {want:?}"),
            ));
        }
        #[cfg(feature = "debug_invariants")]
        check_invariants(subject.validate(), step, op)?;
    }
    Ok(())
}

/// Checks a subject's outcome against the reference's: same variant
/// (matched, appended, rejected, probed, cancelled), same matched handle,
/// and a search depth acceptable under `mode`. `searched` is the length
/// of the queue a post or an arrival searched, before the op; `None` for
/// a probe or a cancel, whose outcomes must agree exactly.
fn outcome_ok(
    mode: DepthMode,
    got: Outcome,
    want: Outcome,
    searched: Option<usize>,
) -> Result<(), String> {
    let Some(live_before) = searched else {
        let verb = match want {
            Outcome::Probed(_) => "iprobe",
            _ => "cancel",
        };
        return if got == want {
            Ok(())
        } else {
            Err(format!("{verb} {got:?}, oracle {want:?}"))
        };
    };
    if core::mem::discriminant(&got) != core::mem::discriminant(&want) {
        return Err(format!("outcome {got:?}, oracle {want:?}"));
    }
    if got.matched() != want.matched() {
        return Err(format!(
            "matched {:?}, oracle matched {:?}",
            got.matched(),
            want.matched()
        ));
    }
    let hit = got.matched().is_some();
    depth_ok(mode, got.depth(), want.depth(), hit, live_before)
}

/// The differential driver: replays an engine-level op stream through a
/// reference engine (both queues backed by [`OracleList`], admission caps
/// `bounds`) and `subject`, which must already be configured with the
/// same caps, entirely through [`Engine::apply`]. After every step it
/// compares outcomes — including *which* operations are rejected — queue
/// lengths, rejection counters and full FIFO snapshots.
///
/// Iprobe depth is always compared exactly: it is defined on a FIFO
/// snapshot, so it is structure-independent by construction. Admission is
/// a policy on queue length, not structure, so rejections and their
/// counters are compared exactly in every [`DepthMode`]. Returns the total
/// number of rejections the stream provoked (accumulated across `Clear`
/// resets; 0 under [`QueueBounds::UNBOUNDED`]) so callers can assert the
/// caps actually bit.
pub fn diff_engine<E: Engine + ?Sized>(
    subject: &mut E,
    bounds: QueueBounds,
    mode: DepthMode,
    ops: &[EngineOp],
) -> Result<u64, Divergence> {
    let mut reference: MatchEngine<OracleList<PostedEntry>, OracleList<UnexpectedEntry>> =
        MatchEngine::with_bounds(OracleList::new(), OracleList::new(), bounds);
    let rejections = |s: &EngineStats| (s.prq_rejections, s.umq_rejections);
    let mut next_req = 0u64;
    let mut next_payload = 0u64;
    let mut total_rejections = 0u64;
    for (step, eop) in ops.iter().enumerate() {
        let fail = |detail: String| diverge(step, eop, detail);
        let (prq_before, umq_before) = reference.queue_lens();
        let applied = match *eop {
            EngineOp::PostRecv { rank, tag, ctx } => {
                let (spec, request) = (spec(rank, tag, ctx), next_req);
                next_req += 1;
                Some((Op::PostRecv { spec, request }, Some(umq_before)))
            }
            EngineOp::Arrival { rank, tag, ctx } => {
                let (env, payload) = (Envelope::new(rank, tag, ctx), next_payload);
                next_payload += 1;
                Some((Op::Arrival { env, payload }, Some(prq_before)))
            }
            EngineOp::Iprobe { rank, tag, ctx } => {
                let spec = spec(rank, tag, ctx);
                Some((Op::Iprobe { spec }, None))
            }
            EngineOp::Cancel { nth } => {
                // Map the generator's free index onto a handle that was
                // actually issued, so cancels usually name live receives.
                let request = if next_req == 0 { nth } else { nth % next_req };
                Some((Op::Cancel { request }, None))
            }
            EngineOp::Clear => None,
        };
        if let Some((op, searched)) = applied {
            let want = reference.apply(op).1;
            let got = subject.apply(op).1;
            outcome_ok(mode, got, want, searched).map_err(fail)?;
        } else {
            let (p, u) = rejections(reference.stats());
            total_rejections += p + u;
            reference.reset();
            subject.reset();
        }
        let (got_lens, want_lens) = (subject.queue_lens(), reference.queue_lens());
        if got_lens != want_lens {
            return Err(fail(format!(
                "lens (prq, umq) {got_lens:?}, oracle {want_lens:?}"
            )));
        }
        let (got_rej, want_rej) = (rejections(&subject.stats()), rejections(reference.stats()));
        if got_rej != want_rej {
            return Err(fail(format!(
                "rejection counters {got_rej:?}, oracle {want_rej:?}"
            )));
        }
        let ((got_prq, got_umq), (want_prq, want_umq)) =
            (subject.queue_ids(), reference.queue_ids());
        if got_prq != want_prq {
            return Err(fail(format!(
                "prq snapshot {got_prq:?}, oracle {want_prq:?}"
            )));
        }
        if got_umq != want_umq {
            return Err(fail(format!(
                "umq snapshot {got_umq:?}, oracle {want_umq:?}"
            )));
        }
        #[cfg(feature = "debug_invariants")]
        check_invariants(subject.validate(), step, eop)?;
    }
    let (p, u) = rejections(reference.stats());
    Ok(total_rejections + p + u)
}

/// Runs [`diff_engine`] against a freshly-built (unbounded) [`DynEngine`]
/// of `kind`.
pub fn diff_dyn_engine(
    kind: EngineKind,
    mode: DepthMode,
    ops: &[EngineOp],
) -> Result<(), Divergence> {
    diff_engine(&mut DynEngine::new(kind), QueueBounds::UNBOUNDED, mode, ops).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use spc_core::list::BaselineList;

    type OracleEngine = MatchEngine<OracleList<PostedEntry>, OracleList<UnexpectedEntry>>;

    #[test]
    fn oracle_agrees_with_itself() {
        let stream = ops::engine_ops(1, 2_000);
        let mut subject: OracleEngine = MatchEngine::new(OracleList::new(), OracleList::new());
        let rejected = diff_engine(
            &mut subject,
            QueueBounds::UNBOUNDED,
            DepthMode::Exact,
            &stream,
        )
        .unwrap();
        assert_eq!(rejected, 0, "an unbounded engine never rejects");
    }

    #[test]
    fn bounded_oracle_agrees_with_itself_and_rejects() {
        let bounds = QueueBounds::both(8);
        let mut subject: OracleEngine =
            MatchEngine::with_bounds(OracleList::new(), OracleList::new(), bounds);
        let stream = ops::engine_ops(2, 4_000);
        let rejected = diff_engine(&mut subject, bounds, DepthMode::Exact, &stream)
            .expect("oracle must agree with itself under identical caps");
        assert!(rejected > 0, "caps of 8 over 4k ops must actually reject");
    }

    #[test]
    fn divergence_reports_the_failing_step() {
        // A subject that is simply empty-forever must diverge on the
        // first append (len check).
        struct Broken;
        impl Engine for Broken {
            type Stamp = ();
            fn apply(&mut self, op: Op) -> ((), Outcome) {
                let out = match op {
                    Op::PostRecv { .. } => Outcome::Posted { depth: 0 },
                    Op::Arrival { .. } => Outcome::Queued { depth: 0 },
                    Op::Cancel { .. } => Outcome::Cancelled(false),
                    Op::Iprobe { .. } => Outcome::Probed(None),
                };
                ((), out)
            }
            fn queue_lens(&self) -> (usize, usize) {
                (0, 0)
            }
            fn stats(&self) -> EngineStats {
                EngineStats::new()
            }
            fn queue_ids(&self) -> (Vec<u64>, Vec<u64>) {
                (Vec::new(), Vec::new())
            }
            fn reset(&mut self) {}
            fn validate(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let stream = vec![EngineOp::PostRecv {
            rank: Some(1),
            tag: Some(1),
            ctx: 0,
        }];
        let err = diff_engine(
            &mut Broken,
            QueueBounds::UNBOUNDED,
            DepthMode::Bounded,
            &stream,
        )
        .unwrap_err();
        assert_eq!(err.step, 0);
        assert!(err.detail.contains("lens"), "{err}");
    }

    #[test]
    fn baseline_lists_pass_a_quick_stream() {
        diff_posted(
            &mut BaselineList::new(),
            DepthMode::Exact,
            &ops::posted_ops(3, 1_000),
        )
        .unwrap();
        diff_umq(
            &mut BaselineList::new(),
            DepthMode::Exact,
            &ops::umq_ops(3, 1_000),
        )
        .unwrap();
    }
}
