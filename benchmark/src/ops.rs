//! The op vocabulary every workload is written in, and the reference model
//! that pre-computes each op's expected outcome.
//!
//! An op's outcome is one `u64` code, so the timed loop checks it with a
//! single compare: the matched counterpart's handle, or [`NONE`] when the
//! op queued (post), missed (probe) or found nothing to match (arrival).

/// Outcome code: the op queued, or the probe missed.
pub const NONE: u64 = u64::MAX;
/// Expectation code: the outcome depends on another thread; not checked per op.
pub const ANY: u64 = u64::MAX - 1;
/// Outcome code: the op was buffered in an ingest ring, so its outcome is
/// decided at drain time and checked at quiescence (and, under `--check`,
/// op by op against the drain log).
pub const DEFERRED: u64 = u64::MAX - 2;

/// The engine verbs a client can call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `post_recv`; outcome: matched payload, or [`NONE`] (posted).
    Post,
    /// `arrival`; outcome: matched request, or [`NONE`] (queued unexpected).
    Arrive,
    /// `iprobe`; outcome: payload of the earliest match, or [`NONE`].
    Probe,
    /// `cancel_recv`; outcome: 1 if the receive was pending, else 0.
    Cancel,
    /// `queue_lens`; outcome: `prq << 32 | umq`.
    Lens,
    /// `stats`; outcome never checked per op.
    Stats,
}

/// One generated client call with its pre-computed expected outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    /// Which verb.
    pub verb: Verb,
    /// Post only: the receive names `ANY_SOURCE` (`src` is then ignored).
    pub wild: bool,
    /// Source rank.
    pub src: i32,
    /// Tag.
    pub tag: i32,
    /// Request handle (post, cancel) or payload handle (arrival).
    pub handle: u64,
    /// Expected outcome code, filled in by [`Model`].
    pub expect: u64,
}

impl Op {
    fn new(verb: Verb, src: i32, tag: i32, handle: u64) -> Self {
        Self {
            verb,
            wild: false,
            src,
            tag,
            handle,
            expect: ANY,
        }
    }

    /// A receive post for `(src, tag)` with request handle `req`.
    pub fn post(src: i32, tag: i32, req: u64) -> Self {
        Self::new(Verb::Post, src, tag, req)
    }

    /// An `ANY_SOURCE` receive post for `tag`; `src` records the source its
    /// flow's arrival will carry, so the wildcard can be stripped again.
    pub fn post_any_source(src: i32, tag: i32, req: u64) -> Self {
        Self {
            wild: true,
            ..Self::post(src, tag, req)
        }
    }

    /// A message arrival from `(src, tag)` with payload handle `payload`.
    pub fn arrive(src: i32, tag: i32, payload: u64) -> Self {
        Self::new(Verb::Arrive, src, tag, payload)
    }

    /// A non-destructive probe for `(src, tag)`.
    pub fn probe(src: i32, tag: i32) -> Self {
        Self::new(Verb::Probe, src, tag, 0)
    }

    /// A cancel of the receive posted with request handle `req`.
    pub fn cancel(req: u64) -> Self {
        Self::new(Verb::Cancel, 0, 0, req)
    }

    /// A `queue_lens` read.
    pub fn lens() -> Self {
        Self::new(Verb::Lens, 0, 0, 0)
    }

    /// A `stats` read.
    pub fn stats() -> Self {
        Self::new(Verb::Stats, 0, 0, 0)
    }

    /// Whether `outcome` is acceptable for this op.
    #[inline(always)]
    pub fn accepts(&self, outcome: u64) -> bool {
        outcome == self.expect || outcome == DEFERRED || self.expect == ANY
    }
}

/// Packs `queue_lens` into one outcome code.
pub fn lens_code(prq: usize, umq: usize) -> u64 {
    ((prq as u64) << 32) | umq as u64
}

/// One client's op stream, cut into windows. Every window leaves the queues
/// as it found them, so a run may cycle through the stream for as long as
/// it measures and every expectation stays valid.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stream {
    ops: Vec<Op>,
    /// Window `i` is `ops[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl Stream {
    /// An empty stream.
    pub fn new() -> Self {
        Self {
            ops: Vec::new(),
            starts: vec![0],
        }
    }

    /// Appends an op to the window under construction.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends ops to the window under construction.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = Op>) {
        self.ops.extend(ops);
    }

    /// Closes the window under construction.
    pub fn end_window(&mut self) {
        self.starts.push(self.ops.len());
    }

    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.starts.len() - 1
    }

    /// The ops of window `i`.
    #[inline(always)]
    pub fn window(&self, i: usize) -> &[Op] {
        &self.ops[self.starts[i]..self.starts[i + 1]]
    }

    /// All ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// How many of the ops a client sent satisfy `pred`, given that it
    /// completed `windows` windows cycling through this stream: whole laps
    /// plus the ops of the lap it was in.
    pub fn sent(&self, windows: usize, pred: impl Fn(&Op) -> bool) -> u64 {
        let count = |ops: &[Op]| ops.iter().filter(|o| pred(o)).count() as u64;
        let (laps, rest) = (windows / self.windows(), windows % self.windows());
        laps as u64 * count(&self.ops) + count(&self.ops[..self.starts[rest]])
    }

    /// The same stream with every `every`-th post turned into an
    /// `ANY_SOURCE` post (`every == 0` strips all wildcards instead).
    /// Expectations are unchanged: flows carry keys no other live entry
    /// shares, so a wildcard post still pairs with its own arrival.
    pub fn with_wildcards(&self, every: usize) -> Stream {
        let mut out = self.clone();
        let mut posts = 0;
        for op in out.ops.iter_mut().filter(|o| o.verb == Verb::Post) {
            posts += 1;
            op.wild = every != 0 && posts % every == 0;
        }
        out
    }

    /// FNV-1a over every field of every op and the window cuts: the
    /// determinism tests compare streams by this.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in &self.ops {
            mix(op.verb as u64 | (op.wild as u64) << 8);
            mix(op.src as u32 as u64 | (op.tag as u32 as u64) << 32);
            mix(op.handle);
            mix(op.expect);
        }
        for s in &self.starts {
            mix(*s as u64);
        }
        h
    }
}

/// Reference model of MPI matching over two plain vectors: the earliest
/// posted receive that accepts a message wins, and the earliest queued
/// message that satisfies a receive wins. It shares no code with the engine
/// under test, so "expected outcome" means expected by MPI semantics.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// `(source or None for ANY_SOURCE, tag, request)`.
    prq: Vec<(Option<i32>, i32, u64)>,
    /// `(source, tag, payload)`.
    umq: Vec<(i32, i32, u64)>,
}

impl Model {
    /// Applies `op`, returning its outcome code. `racy` marks reads whose
    /// result depends on other threads ([`ANY`] is returned for them).
    pub fn apply(&mut self, op: &Op, racy: bool) -> u64 {
        match op.verb {
            Verb::Post => {
                let src = (!op.wild).then_some(op.src);
                let hit = self
                    .umq
                    .iter()
                    .position(|&(s, t, _)| src.is_none_or(|want| want == s) && t == op.tag);
                match hit {
                    Some(i) => self.umq.remove(i).2,
                    None => {
                        self.prq.push((src, op.tag, op.handle));
                        NONE
                    }
                }
            }
            Verb::Arrive => {
                let hit = self
                    .prq
                    .iter()
                    .position(|&(s, t, _)| s.is_none_or(|want| want == op.src) && t == op.tag);
                match hit {
                    Some(i) => self.prq.remove(i).2,
                    None => {
                        self.umq.push((op.src, op.tag, op.handle));
                        NONE
                    }
                }
            }
            Verb::Probe => self
                .umq
                .iter()
                .find(|&&(s, t, _)| s == op.src && t == op.tag)
                .map_or(NONE, |e| e.2),
            Verb::Cancel => match self.prq.iter().position(|e| e.2 == op.handle) {
                Some(i) => {
                    self.prq.remove(i);
                    1
                }
                None => 0,
            },
            Verb::Lens if !racy => lens_code(self.prq.len(), self.umq.len()),
            Verb::Lens | Verb::Stats => ANY,
        }
    }

    /// Current `(prq, umq)` lengths.
    pub fn lens(&self) -> (usize, usize) {
        (self.prq.len(), self.umq.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_follows_mpi_matching_order() {
        let mut m = Model::default();
        assert_eq!(m.apply(&Op::post(1, 5, 10), false), NONE);
        assert_eq!(m.apply(&Op::post_any_source(1, 5, 11), false), NONE);
        // The earliest matching receive wins, wildcard or not.
        assert_eq!(m.apply(&Op::arrive(1, 5, 90), false), 10);
        assert_eq!(m.apply(&Op::arrive(2, 5, 91), false), 11);
        // Unexpected path: the message queues, a probe sees it, a post takes it.
        assert_eq!(m.apply(&Op::arrive(3, 7, 92), false), NONE);
        assert_eq!(m.apply(&Op::probe(3, 7), false), 92);
        assert_eq!(m.apply(&Op::probe(3, 8), false), NONE);
        assert_eq!(m.apply(&Op::lens(), false), lens_code(0, 1));
        assert_eq!(m.apply(&Op::post(3, 7, 12), false), 92);
        // Cancel removes exactly the named receive.
        assert_eq!(m.apply(&Op::post(4, 1, 13), false), NONE);
        assert_eq!(m.apply(&Op::cancel(13), false), 1);
        assert_eq!(m.apply(&Op::cancel(13), false), 0);
        assert_eq!(m.lens(), (0, 0));
    }

    #[test]
    fn wildcard_rewrite_keeps_everything_but_the_flag() {
        let mut s = Stream::new();
        for i in 0..8 {
            s.push(Op::post(i, i, i as u64));
            s.push(Op::arrive(i, i, i as u64));
        }
        s.end_window();
        let w = s.with_wildcards(4);
        assert_eq!(w.ops().iter().filter(|o| o.wild).count(), 2);
        assert_eq!(w.with_wildcards(0), s);
        assert_ne!(w.hash(), s.hash());
    }
}
