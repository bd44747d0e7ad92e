//! In-memory spans around every call from the harness into a layer,
//! written out when the run ends.
//!
//! A span is (layer, kind, thread, parent, window, start, end). Each client
//! thread records into its own [`SpanBuf`]; buffers are merged into the
//! run's [`Trace`] after the threads have joined, so recording never
//! synchronises. A layer's numbers are derived from its spans alone:
//! per-kind call counts and summed durations, less the timer's own cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::ops::{Op, Verb, NONE};

/// What a span surrounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Kind {
    /// One window of the op stream; parent of the window's call spans.
    Window,
    /// `post_recv`.
    Post,
    /// `arrival`.
    Arrival,
    /// `iprobe` expected to hit.
    ProbeHit,
    /// `iprobe` expected to miss.
    ProbeMiss,
    /// `cancel_recv`.
    Cancel,
    /// `queue_lens`.
    Lens,
    /// `stats`.
    Stats,
    /// `MatchList::search_remove` (bare-list rung).
    Search,
    /// `MatchList::append` (bare-list rung).
    Append,
    /// A producer's explicit ring flush (ingest split pass).
    Drain,
}

impl Kind {
    const ALL: [Kind; 11] = [
        Kind::Window,
        Kind::Post,
        Kind::Arrival,
        Kind::ProbeHit,
        Kind::ProbeMiss,
        Kind::Cancel,
        Kind::Lens,
        Kind::Stats,
        Kind::Search,
        Kind::Append,
        Kind::Drain,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Window => "window",
            Kind::Post => "post_recv",
            Kind::Arrival => "arrival",
            Kind::ProbeHit => "iprobe_hit",
            Kind::ProbeMiss => "iprobe_miss",
            Kind::Cancel => "cancel_recv",
            Kind::Lens => "queue_lens",
            Kind::Stats => "stats",
            Kind::Search => "search_remove",
            Kind::Append => "append",
            Kind::Drain => "drain",
        }
    }

    /// The span kind of a client call.
    pub fn of(op: &Op) -> Kind {
        match op.verb {
            Verb::Post => Kind::Post,
            Verb::Arrive => Kind::Arrival,
            Verb::Probe if op.expect == NONE => Kind::ProbeMiss,
            Verb::Probe => Kind::ProbeHit,
            Verb::Cancel => Kind::Cancel,
            Verb::Lens => Kind::Lens,
            Verb::Stats => Kind::Stats,
        }
    }
}

/// Marks "no parent".
const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    /// Index of the enclosing window span within the same buffer, or [`ROOT`].
    parent: u32,
    window: u32,
    start_ns: u64,
    end_ns: u64,
}

/// What the client loop reports to; [`Untraced`] compiles to nothing.
pub trait Recorder {
    /// Start-of-call token.
    type Mark: Copy;
    /// A window starts at `t0`.
    fn open(&mut self, window: u32, t0: Instant);
    /// The open window ended at `t1`.
    fn close(&mut self, t1: Instant);
    /// A call into the layer is about to start.
    fn begin(&mut self) -> Self::Mark;
    /// The call started at `mark` has returned.
    fn end(&mut self, mark: Self::Mark, kind: Kind);
    /// The buffer has reached its cap; the client stops after this window.
    fn full(&self) -> bool;
}

/// The recorder of untraced runs.
pub struct Untraced;

impl Recorder for Untraced {
    type Mark = ();
    #[inline(always)]
    fn open(&mut self, _: u32, _: Instant) {}
    #[inline(always)]
    fn close(&mut self, _: Instant) {}
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn end(&mut self, _: (), _: Kind) {}
    #[inline(always)]
    fn full(&self) -> bool {
        false
    }
}

/// One thread's spans for one pass over one layer.
pub struct SpanBuf {
    epoch: Instant,
    /// Calls are timed from the start but stored only from here on, so a
    /// pass warms up under exactly the conditions it records under.
    record_from: Instant,
    cap: usize,
    spans: Vec<Span>,
    open: u32,
    window: u32,
}

impl SpanBuf {
    /// A buffer that stores spans from `record_from` on and reports itself
    /// full at `cap` of them; times are relative to `epoch`, which all
    /// buffers of a run share.
    pub fn new(epoch: Instant, cap: usize, record_from: Instant) -> Self {
        Self {
            epoch,
            record_from,
            cap,
            // Headroom: the window in progress when the cap is hit still completes.
            spans: Vec::with_capacity(cap + 1024),
            open: ROOT,
            window: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

impl Recorder for SpanBuf {
    type Mark = Instant;

    fn open(&mut self, window: u32, t0: Instant) {
        if t0 < self.record_from {
            return;
        }
        self.open = self.spans.len() as u32;
        self.window = window;
        let start_ns = self.ns(t0);
        self.spans.push(Span {
            kind: Kind::Window,
            parent: ROOT,
            window,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn close(&mut self, t1: Instant) {
        if self.open != ROOT {
            let end_ns = self.ns(t1);
            self.spans[self.open as usize].end_ns = end_ns;
            self.open = ROOT;
        }
    }

    #[inline]
    fn begin(&mut self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn end(&mut self, mark: Instant, kind: Kind) {
        let end = Instant::now();
        if self.open == ROOT {
            return;
        }
        self.spans.push(Span {
            kind,
            parent: self.open,
            window: self.window,
            start_ns: self.ns(mark),
            end_ns: self.ns(end),
        });
    }

    fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }
}

/// Call count and summed duration of one span kind within one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindSum {
    /// Spans recorded.
    pub count: u64,
    /// Their durations, summed.
    pub total_ns: u64,
}

/// Per-kind sums of one layer, with the timer's cost taken off each span.
#[derive(Clone, Debug, Default)]
pub struct LayerSums {
    sums: BTreeMap<Kind, KindSum>,
    timer_ns: f64,
    /// Window number of every recorded window span.
    pub windows: Vec<u32>,
}

impl LayerSums {
    /// Calls of `kind`.
    pub fn count(&self, kind: Kind) -> u64 {
        self.sums.get(&kind).map_or(0, |s| s.count)
    }

    /// Time inside calls of `kind`, timer cost removed, never negative.
    pub fn total_ns(&self, kind: Kind) -> f64 {
        self.sums.get(&kind).map_or(0.0, |s| {
            (s.total_ns as f64 - s.count as f64 * self.timer_ns).max(0.0)
        })
    }

    /// Mean duration of a `kind` call; 0 when the stream has none.
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        match self.count(kind) {
            0 => 0.0,
            n => self.total_ns(kind) / n as f64,
        }
    }

    /// Time inside `post_recv` and `arrival` calls per completed flow (a
    /// flow is one post and one arrival).
    pub fn flow_ns(&self) -> f64 {
        match self.count(Kind::Arrival) {
            0 => 0.0,
            flows => (self.total_ns(Kind::Post) + self.total_ns(Kind::Arrival)) / flows as f64,
        }
    }
}

/// Every span of a run, by layer.
pub struct Trace {
    /// Shared zero of all span times.
    pub epoch: Instant,
    /// Cost of one timer read pair, measured at start-up.
    pub timer_ns: f64,
    layers: Vec<String>,
    /// `(layer index, thread, span)`; a span's parent index is global.
    spans: Vec<(u16, u8, Span)>,
}

impl Trace {
    /// An empty trace; calibrates the timer.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            timer_ns: timer_cost_ns(),
            layers: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Merges one thread's buffer under `layer` and returns nothing; call
    /// [`Trace::sums`] once every thread of the pass is merged.
    pub fn merge(&mut self, layer: &str, thread: usize, buf: SpanBuf) {
        let li = match self.layers.iter().position(|l| l == layer) {
            Some(i) => i,
            None => {
                self.layers.push(layer.to_owned());
                self.layers.len() - 1
            }
        };
        let base = self.spans.len() as u32;
        self.spans.extend(buf.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            (li as u16, thread as u8, s)
        }));
    }

    /// Per-kind sums of `layer`.
    pub fn sums(&self, layer: &str) -> LayerSums {
        let mut out = LayerSums {
            sums: BTreeMap::new(),
            timer_ns: self.timer_ns,
            windows: Vec::new(),
        };
        let Some(li) = self.layers.iter().position(|l| l == layer) else {
            return out;
        };
        for (_, _, s) in self.spans.iter().filter(|(l, _, _)| *l as usize == li) {
            if s.kind == Kind::Window {
                out.windows.push(s.window);
            }
            let e = out.sums.entry(s.kind).or_default();
            e.count += 1;
            e.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace as JSON: name tables plus one compact row per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 40);
        let quoted = |names: Vec<&str>| {
            let q: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            q.join(",")
        };
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"timer_ns\":{:.3},\
             \"layers\":[{}],\"kinds\":[{}],\
             \"columns\":[\"layer\",\"kind\",\"thread\",\"parent\",\"window\",\"start_ns\",\"end_ns\"],\
             \"spans\":[",
            self.timer_ns,
            quoted(self.layers.iter().map(String::as_str).collect()),
            quoted(Kind::ALL.iter().map(|k| k.name()).collect()),
        );
        for (i, (layer, thread, sp)) in self.spans.iter().enumerate() {
            let parent = if sp.parent == ROOT {
                -1
            } else {
                sp.parent as i64
            };
            let _ = write!(
                s,
                "{}\n[{layer},{},{thread},{parent},{},{},{}]",
                if i == 0 { "" } else { "," },
                sp.kind as u8,
                sp.window,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Mean cost of a back-to-back `Instant::now()` pair: what a span adds to
/// the call it surrounds.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(t0).as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_merge_and_sum() {
        let mut tr = Trace::new();
        tr.timer_ns = 0.0;
        let epoch = tr.epoch;
        let at = move |ns| epoch + Duration::from_nanos(ns);
        for thread in 0..2 {
            let mut buf = SpanBuf::new(tr.epoch, 4, tr.epoch);
            buf.open(0, at(100));
            buf.spans.push(Span {
                kind: Kind::Post,
                parent: buf.open,
                window: 0,
                start_ns: 110,
                end_ns: 140,
            });
            buf.spans.push(Span {
                kind: Kind::Arrival,
                parent: buf.open,
                window: 0,
                start_ns: 150,
                end_ns: 220,
            });
            buf.close(at(250));
            assert!(!buf.full());
            tr.merge("engine", thread, buf);
        }
        let sums = tr.sums("engine");
        assert_eq!(sums.count(Kind::Window), 2);
        assert_eq!(sums.total_ns(Kind::Window), 300.0);
        assert_eq!(sums.flow_ns(), 100.0);
        assert_eq!(sums.mean_ns(Kind::Cancel), 0.0);
        // The second thread's children point at its own window span.
        assert_eq!(tr.spans[4].2.parent, 3);
        let json = tr.to_json("w", 1);
        assert!(json.contains("[0,2,1,3,0,150,220]"), "{json}");
    }
}
