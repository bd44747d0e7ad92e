//! Turning a request stream into match-engine operations.
//!
//! A service request is one message flow: the expected path posts the
//! receive, then delivers the matching arrival; the unexpected path lands
//! the arrival first and lets the receive chase it through the UMQ. On its
//! own that pair would always search depth ≈ 0 — both queues drain every
//! request — so [`prime_standing`] first installs a *standing window* of
//! receives whose tags never match the traffic (long-lived `MPI_Irecv`s, in
//! MPI terms). Every arrival then searches past a popularity-shaped
//! standing population, which is exactly where Zipf-vs-uniform locality
//! shows up: skewed traffic concentrates both the standing entries and the
//! searches on the same hot sources.
//!
//! All operations go through [`Engine::apply`], so an engine configured
//! with [`QueueBounds`](spc_core::QueueBounds) exerts real admission
//! backpressure; [`EngineTally`] reports what was matched, queued, and
//! refused.

use crate::Request;
use spc_core::{Engine, Envelope, Op, Outcome, RecvSpec};

/// Tag offset for standing receives; scenario traffic keeps its tags below
/// this so the standing window is searched but never consumed.
pub const STANDING_TAG_BASE: i32 = 1 << 20;

/// Request-handle offset for standing receives (keeps them distinguishable
/// from per-request handles in traces).
pub const STANDING_REQ_BASE: u64 = 1 << 40;

/// Outcome counters for a driven scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTally {
    /// Flows completed with a PRQ hit (expected path worked end to end).
    pub matched_expected: u64,
    /// Flows completed with a UMQ hit (unexpected path worked end to end).
    pub matched_unexpected: u64,
    /// Receive posts refused at the PRQ admission cap.
    pub recv_rejected: u64,
    /// Arrivals refused at the UMQ admission cap (messages dropped).
    pub arrival_rejected: u64,
    /// Flows left unpaired this request (their halves stay queued and may
    /// pair with a later flow on the same source/tag).
    pub deferred: u64,
}

impl EngineTally {
    /// Total engine-level admission rejections.
    pub fn rejections(&self) -> u64 {
        self.recv_rejected + self.arrival_rejected
    }
}

/// Posts `window` standing receives drawn from `sources[..]` in round-robin
/// over a separate tag space, giving both bins and linear lists a
/// popularity-shaped standing population to search past.
///
/// `sources` should be sampled from the same popularity distribution as the
/// traffic (e.g. by drawing requests from the scenario's [`RequestGen`]
/// (crate::RequestGen) and taking their sources).
pub fn prime_standing<E: Engine + ?Sized>(eng: &mut E, sources: &[i32], window: usize) {
    assert!(!sources.is_empty(), "standing window needs sources");
    for i in 0..window {
        let src = sources[i % sources.len()];
        let spec = RecvSpec::new(src, STANDING_TAG_BASE + i as i32, 0);
        let request = STANDING_REQ_BASE + i as u64;
        let out = eng.apply(Op::PostRecv { spec, request }).1;
        assert!(
            matches!(out, Outcome::Posted { .. }),
            "standing receives must be admitted (raise max_prq above the window): {out:?}"
        );
    }
}

/// Executes one request flow against the engine, returning what happened.
///
/// The per-flow payload/request handle is `handle`; callers typically pass
/// the request index.
pub fn execute<E: Engine + ?Sized>(eng: &mut E, req: Request, handle: u64) -> EngineTally {
    let post = Op::PostRecv {
        spec: RecvSpec::new(req.source, req.tag, 0),
        request: handle,
    };
    let arrive = Op::Arrival {
        env: Envelope::new(req.source, req.tag, 0),
        payload: handle,
    };
    let (first, second) = if req.unexpected {
        (arrive, post)
    } else {
        (post, arrive)
    };
    let mut t = EngineTally::default();
    for (op, completes_flow) in [(first, false), (second, true)] {
        match eng.apply(op).1 {
            // Matching an earlier flow's half is fine: same source and
            // tag, FIFO order.
            Outcome::MatchedPosted { .. } => t.matched_expected += 1,
            Outcome::MatchedUnexpected { .. } => t.matched_unexpected += 1,
            Outcome::RejectedPrqFull { .. } => t.recv_rejected += 1,
            Outcome::RejectedUmqFull { .. } => t.arrival_rejected += 1,
            // The flow's second half queued instead of pairing off.
            _ => t.deferred += completes_flow as u64,
        }
    }
    t
}

impl EngineTally {
    /// Accumulates another tally.
    pub fn absorb(&mut self, other: EngineTally) {
        self.matched_expected += other.matched_expected;
        self.matched_unexpected += other.matched_unexpected;
        self.recv_rejected += other.recv_rejected;
        self.arrival_rejected += other.arrival_rejected;
        self.deferred += other.deferred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::{Popularity, RequestGen, TrafficCfg};
    use spc_core::entry::{PostedEntry, UnexpectedEntry};
    use spc_core::list::{Lla, SourceBins};
    use spc_core::{MatchEngine, QueueBounds};

    type Eng = MatchEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>>;

    fn sources(n: usize, pop: Popularity, seed: u64) -> Vec<i32> {
        let mut g = RequestGen::new(TrafficCfg::new(pop, seed));
        (0..n).map(|_| g.next_request().source).collect()
    }

    #[test]
    fn standing_window_persists_under_traffic() {
        let mut eng: Eng = MatchEngine::new(Lla::new(), Lla::new());
        prime_standing(&mut eng, &sources(64, Popularity::Uniform, 1), 64);
        assert_eq!(eng.prq_len(), 64);
        let mut g = RequestGen::new(TrafficCfg::new(Popularity::Uniform, 2));
        let mut tally = EngineTally::default();
        for h in 0..2_000u64 {
            tally.absorb(execute(&mut eng, g.next_request(), h));
        }
        // The standing receives are never consumed, and every flow pairs
        // off (deferred halves pair with later same-key flows, so the net
        // beyond the window stays small).
        assert_eq!(
            tally.matched_expected + tally.matched_unexpected + tally.deferred,
            2_000
        );
        assert!(eng.prq_len() >= 64, "standing window intact");
        assert_eq!(tally.rejections(), 0, "unbounded engine never rejects");
        // Searches really run at standing depth: arrivals scan past the
        // window before finding their posted receive.
        assert!(eng.stats().prq_search.mean() > 32.0);
    }

    #[test]
    fn umq_cap_drops_unexpected_floods() {
        let mut eng: Eng = MatchEngine::with_bounds(
            Lla::new(),
            Lla::new(),
            QueueBounds {
                max_prq: usize::MAX,
                max_umq: 8,
            },
        );
        let mut g = RequestGen::new(TrafficCfg {
            unexpected_frac: 1.0,
            ..TrafficCfg::new(Popularity::Zipf { s: 1.0 }, 3)
        });
        let mut tally = EngineTally::default();
        for h in 0..1_000u64 {
            tally.absorb(execute(&mut eng, g.next_request(), h));
        }
        // Arrival-first flows: each arrival queues (or is dropped), each
        // post consumes one queued arrival, so the UMQ hovers around 0-1
        // and nothing overflows... unless the *post* side is also racing.
        // With pure pairs the cap is never hit:
        assert_eq!(tally.arrival_rejected, 0);
        // Now flood arrivals without posts by driving the engine directly.
        for h in 0..100u64 {
            let r = crate::Request {
                source: 1,
                tag: 0,
                unexpected: true,
            };
            let env = Envelope::new(r.source, r.tag, 0);
            eng.apply(Op::Arrival { env, payload: h });
        }
        assert_eq!(eng.umq_len(), 8, "cap holds");
        assert_eq!(eng.stats().umq_rejections, 100 - 8 + tally.arrival_rejected);
    }

    #[test]
    fn zipf_standing_window_skews_bin_depths() {
        // With SourceBins, standing entries pile into the hot sources' bins:
        // Zipf traffic then searches deeper than uniform traffic at equal
        // window size — the locality delta the suite measures. (HashBins
        // would hide it: its hash covers the tag, and standing tags are
        // unique, so bins fill uniformly under any source popularity.)
        let depth_with = |pop: Popularity| {
            let mut eng: MatchEngine<SourceBins<PostedEntry>, Lla<UnexpectedEntry, 3>> =
                MatchEngine::new(SourceBins::new(256), Lla::new());
            prime_standing(&mut eng, &sources(256, pop, 5), 256);
            let mut g = RequestGen::new(TrafficCfg {
                unexpected_frac: 0.0,
                ..TrafficCfg::new(pop, 6)
            });
            for h in 0..4_000u64 {
                execute(&mut eng, g.next_request(), h);
            }
            eng.stats().prq_search.mean()
        };
        let uniform = depth_with(Popularity::Uniform);
        let zipf = depth_with(Popularity::Zipf { s: 1.2 });
        assert!(
            zipf > 1.5 * uniform,
            "hot-bin pileup: zipf depth {zipf:.1} vs uniform {uniform:.1}"
        );
    }
}
