//! Atomic-protocol state machines: the seqlock writer protocol and the
//! SPSC ring publish/consume order, checked over every enumerated CFG
//! path of every function that uses the protocol's own tokens, in any
//! file of any module.
//!
//! ## Seqlock writer protocol
//!
//! A writer that touches published snapshot rows must execute, in
//! order: **version-odd** (`.begin()`/`.begin_write()`) → **seq stamp**
//! (`next_seq()` / `seq.fetch_add`) → **row mutations**
//! (`.append`/`.kill`/`.clear`/`.compact` on snapshot receivers) →
//! **version-even** (`.end()`/`.end_write()`), with the orderings the
//! [`crate::ordering`] table requires. The pass walks every path of any
//! function that opens or closes a write window and reports paths that
//! reorder, skip, or double-execute a step. Functions that never touch
//! a window (e.g. `cancel` paths that only take a stamp) are out of
//! protocol scope by construction, as are the protocol primitives
//! themselves (`begin`/`end`/`begin_write`/`end_write` — their bodies
//! *implement* the steps) and test code.
//!
//! Bulk sweeps (`for s in &self.snaps { s.begin(); }`) collapse to a
//! single step via [`crate::cfg`]'s bulk-loop rule: the analyzer cannot
//! distinguish object identity, and the sweep opens each lane once.
//!
//! What the pass does **not** see: it is intraprocedural. In the sharded
//! engine it walks whole protocols only where one function holds them,
//! `post_recv_wild_slow` and `reset`. `direct` and `drain_rings` open and
//! close the window, but their stamps (`Stamps::take`/`fresh`) and row
//! writes (`snap.append`/`kill`) sit in callees that open no window, so
//! the pass sees only a balanced begin/end there. Moving `drain_rings`'s
//! `snap.end()` to right after its `snap.begin()` puts every stamp and
//! row write of the batch outside the window, breaking *window ⊇
//! block*, and the pass reports nothing. That invariant rests on the
//! `batch_drain` conformance suite, not on this pass.
//!
//! ## SPSC ring protocol
//!
//! Producer: all slot words (`w0`/`w1`/`w2`) stored **before** the
//! `tail` advance; `tail` advanced by plain `store` (an RMW on an index
//! is a multi-producer idiom — exactly the misuse the single-producer
//! contract forbids). Consumer: slot words loaded **before** the `head`
//! advance releases the slot for reuse. A function spawning two or more
//! closures that `try_push` into the same ring is convicted as a
//! dual-producer setup.

use crate::cfg::{parse_block, paths, Exit};
use crate::items::FnItem;
use crate::token::{matching_close, receiver_chain, Tok, TokKind};
use crate::Finding;

/// One protocol-relevant event on a path.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// Seqlock write-window open (`.begin()` / `.begin_write()`).
    Open(usize),
    /// Seqlock write-window close (`.end()` / `.end_write()`).
    Close(usize),
    /// Seq stamp (`next_seq()` or `seq.fetch_add(..)`).
    Stamp(usize),
    /// Snapshot-row mutation; carries the receiver for the message.
    Mutate(usize, String),
    /// SPSC slot word store; carries the word name.
    SlotW(usize, String),
    /// SPSC producer index advance (plain store).
    TailAdv(usize),
    /// SPSC slot word load.
    SlotR(usize, String),
    /// SPSC consumer index advance (plain store).
    HeadAdv(usize),
}

impl Ev {
    fn line(&self) -> usize {
        match self {
            Ev::Open(l)
            | Ev::Close(l)
            | Ev::Stamp(l)
            | Ev::Mutate(l, _)
            | Ev::SlotW(l, _)
            | Ev::TailAdv(l)
            | Ev::SlotR(l, _)
            | Ev::HeadAdv(l) => *l,
        }
    }
}

/// Protocol primitives whose bodies implement the steps themselves.
const PRIMITIVES: &[&str] = &["begin", "end", "begin_write", "end_write"];

const SLOT_WORDS: &[&str] = &["w0", "w1", "w2"];

/// Whether a mutation receiver belongs to the published snapshot lanes.
fn is_snapshot_receiver(chain: &[String]) -> bool {
    chain
        .last()
        .is_some_and(|r| r.contains("snap") || r == "rows")
}

/// Extracts protocol events from `toks[lo..hi]` (one leaf statement).
fn extract_events(toks: &[Tok], lo: usize, hi: usize) -> Vec<Ev> {
    let mut out = Vec::new();
    for k in lo..hi.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = toks.get(k + 1).is_some_and(|n| n.is_open('('));
        if !called {
            continue;
        }
        let after_dot = k > 0 && toks[k - 1].is_punct(".");
        match t.text.as_str() {
            "begin" | "begin_write" if after_dot => out.push(Ev::Open(t.line)),
            "end" | "end_write" if after_dot => out.push(Ev::Close(t.line)),
            "next_seq" => out.push(Ev::Stamp(t.line)),
            "fetch_add" if after_dot => {
                let chain = receiver_chain(toks, k - 1);
                if chain.last().is_some_and(|r| r == "seq") {
                    out.push(Ev::Stamp(t.line));
                }
            }
            "append" | "kill" | "clear" | "compact" if after_dot => {
                let chain = receiver_chain(toks, k - 1);
                if is_snapshot_receiver(&chain) {
                    out.push(Ev::Mutate(t.line, chain.join(".")));
                }
            }
            "store" if after_dot => {
                let chain = receiver_chain(toks, k - 1);
                match chain.last().map(String::as_str) {
                    Some("tail") => out.push(Ev::TailAdv(t.line)),
                    Some("head") => out.push(Ev::HeadAdv(t.line)),
                    Some(w) if SLOT_WORDS.contains(&w) => {
                        out.push(Ev::SlotW(t.line, w.to_string()));
                    }
                    _ => {}
                }
            }
            "load" if after_dot => {
                let chain = receiver_chain(toks, k - 1);
                if let Some(w) = chain.last().map(String::as_str) {
                    if SLOT_WORDS.contains(&w) {
                        out.push(Ev::SlotR(t.line, w.to_string()));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs both protocol passes over every function of `path`. Each fires
/// only on its own tokens: the seqlock pass on functions that open or
/// close a write window, the SPSC pass on ring index stores and RMWs and
/// on spawned `try_push` producers.
pub fn check(path: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    for f in fns.iter().filter(|f| !f.is_test) {
        let Some((open, close)) = f.body else {
            continue;
        };
        if PRIMITIVES.contains(&f.name.as_str()) {
            continue;
        }
        let body = extract_events(toks, open, close);
        let has = |pred: fn(&Ev) -> bool| body.iter().any(pred);
        let window = has(|e| matches!(e, Ev::Open(_) | Ev::Close(_)));
        let tail = has(|e| matches!(e, Ev::TailAdv(_)));
        let head = has(|e| matches!(e, Ev::HeadAdv(_)));
        if window || tail || head {
            let stmts = parse_block(toks, open + 1, close);
            let extract = |r: std::ops::Range<usize>| extract_events(toks, r.start, r.end);
            for p in &paths(&stmts, &extract) {
                if window {
                    out.extend(check_seqlock_path(path, &f.name, &p.events, p.exit));
                }
                if tail {
                    check_publish_order(
                        path,
                        &f.name,
                        &p.events,
                        out,
                        |e| matches!(e, Ev::TailAdv(_)),
                        |e| matches!(e, Ev::SlotW(_, _)),
                        "slot word stored after the tail advance: the consumer \
                         may read the slot before this word lands (torn publish)",
                    );
                }
                if head {
                    check_publish_order(
                        path,
                        &f.name,
                        &p.events,
                        out,
                        |e| matches!(e, Ev::HeadAdv(_)),
                        |e| matches!(e, Ev::SlotR(_, _)),
                        "slot word loaded after the head advance: the producer \
                         may already be overwriting the released slot",
                    );
                }
            }
        }
        rmw_on_index(path, toks, open, close, out);
        dual_producer(path, &f.name, toks, open, close, out);
    }
}

/// Seqlock state machine over one path. Returns the first violation.
fn check_seqlock_path(path: &str, func: &str, events: &[Ev], _exit: Exit) -> Option<Finding> {
    let mut window_open_at: Option<usize> = None;
    let mut stamped_in_window = false;
    let mut mutated_in_window = false;
    let mut had_window = false;
    for e in events {
        match e {
            Ev::Open(l) => {
                if window_open_at.is_some() {
                    return Some(Finding::new(
                        path,
                        *l,
                        "seqlock-protocol",
                        format!(
                            "`{func}`: write window opened twice on a path without \
                             an intervening end — readers observing the inner \
                             version-odd transition see a live window close early"
                        ),
                    ));
                }
                window_open_at = Some(*l);
                had_window = true;
                stamped_in_window = false;
                mutated_in_window = false;
            }
            Ev::Close(l) => {
                if window_open_at.is_none() {
                    return Some(Finding::new(
                        path,
                        *l,
                        "seqlock-protocol",
                        format!(
                            "`{func}`: version-even (`end`) without a matching \
                             version-odd (`begin`) on this path — the version word \
                             parity inverts and readers accept torn snapshots"
                        ),
                    ));
                }
                window_open_at = None;
            }
            Ev::Stamp(l) if window_open_at.is_some() => {
                if stamped_in_window {
                    return Some(Finding::new(
                        path,
                        *l,
                        "seqlock-protocol",
                        format!(
                            "`{func}`: seq stamped twice inside one write \
                             window — rows published under two stamps break \
                             FIFO replay"
                        ),
                    ));
                }
                if mutated_in_window {
                    return Some(Finding::new(
                        path,
                        *l,
                        "seqlock-protocol",
                        format!(
                            "`{func}`: seq stamp reordered after a row mutation \
                             inside the write window — the protocol is \
                             version-odd, stamp, mutate, version-even"
                        ),
                    ));
                }
                stamped_in_window = true;
            }
            Ev::Mutate(l, recv) => {
                if had_window && window_open_at.is_none() {
                    return Some(Finding::new(
                        path,
                        *l,
                        "seqlock-protocol",
                        format!(
                            "`{func}`: `{recv}` mutated outside the write window on \
                             this path — lock-free readers can observe the row \
                             change under an even version word"
                        ),
                    ));
                }
                if window_open_at.is_some() {
                    mutated_in_window = true;
                }
            }
            _ => {}
        }
    }
    if let Some(l) = window_open_at {
        // Any exit (fall-through, return, break) with the window still
        // open is a skipped version-even: readers retry forever.
        return Some(Finding::new(
            path,
            l,
            "seqlock-protocol",
            format!(
                "`{func}`: a path exits with the write window still open \
                 (version-even skipped) — lock-free readers retry forever \
                 against an odd version word"
            ),
        ));
    }
    None
}

/// Convicts `mutate_evs` that occur after the *last* `advance_evs` on a
/// path (slot accesses after the index advance published/released the
/// slot). Batched loops interleave `slot…, advance, slot…, advance` —
/// only accesses not covered by a later advance are violations.
#[allow(clippy::too_many_arguments)]
fn check_publish_order(
    path: &str,
    func: &str,
    events: &[Ev],
    out: &mut Vec<Finding>,
    is_advance: impl Fn(&Ev) -> bool,
    is_slot: impl Fn(&Ev) -> bool,
    msg: &str,
) {
    let Some(last_adv) = events.iter().rposition(&is_advance) else {
        return;
    };
    for e in &events[last_adv + 1..] {
        if is_slot(e) {
            out.push(Finding::new(
                path,
                e.line(),
                "spsc-protocol",
                format!("`{func}`: {msg}"),
            ));
            return; // one conviction per path is enough
        }
    }
}

/// RMW (`fetch_add`/`compare_exchange`/`swap`) on `head`/`tail` is a
/// multi-producer/consumer idiom: under the SPSC contract each index
/// has exactly one writer, which uses a plain store. An RMW is how a
/// second producer would "safely" share the ring — convict at the site.
fn rmw_on_index(path: &str, toks: &[Tok], lo: usize, hi: usize, out: &mut Vec<Finding>) {
    const RMW: &[&str] = &[
        "fetch_add",
        "fetch_sub",
        "swap",
        "compare_exchange",
        "compare_exchange_weak",
    ];
    for k in lo..hi.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !RMW.contains(&t.text.as_str()) {
            continue;
        }
        if k == 0 || !toks[k - 1].is_punct(".") || !toks.get(k + 1).is_some_and(|n| n.is_open('('))
        {
            continue;
        }
        let chain = receiver_chain(toks, k - 1);
        if let Some(idx) = chain.last().filter(|r| *r == "head" || *r == "tail") {
            out.push(Finding::new(
                path,
                t.line,
                "spsc-protocol",
                format!(
                    "`.{}` on `{idx}`: RMW on an SPSC ring index is a \
                     multi-producer idiom — the single-producer contract gives \
                     each index exactly one writer using a plain store",
                    t.text
                ),
            ));
        }
    }
}

/// Convicts a function that spawns two or more closures pushing into
/// the same ring (resolving `let r2 = ring.clone()`-style aliases).
fn dual_producer(
    path: &str,
    func: &str,
    toks: &[Tok],
    lo: usize,
    hi: usize,
    out: &mut Vec<Finding>,
) {
    // Alias map: `let a = b.clone()` / `let a = Arc::clone(&b)`.
    let mut aliases: Vec<(String, String)> = Vec::new();
    let resolve = |aliases: &[(String, String)], name: &str| -> String {
        let mut cur = name.to_string();
        let mut hops = 0;
        while hops < 8 {
            match aliases.iter().find(|(a, _)| *a == cur) {
                Some((_, root)) => cur = root.clone(),
                None => break,
            }
            hops += 1;
        }
        cur
    };
    let mut k = lo;
    while k < hi.min(toks.len()) {
        if toks[k].is_ident("let") {
            // `let NAME = SRC.clone()` or `let NAME = Arc::clone(&SRC)`.
            if let Some(name) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
                let stmt_end = (k..hi)
                    .find(|&j| toks[j].is_punct(";"))
                    .unwrap_or(hi.min(toks.len()));
                let has_clone = toks[k..stmt_end].iter().any(|t| t.is_ident("clone"));
                if has_clone {
                    if let Some(src) = toks[k + 2..stmt_end].iter().find(|t| {
                        t.kind == TokKind::Ident
                            && !matches!(t.text.as_str(), "Arc" | "clone" | "mut")
                    }) {
                        aliases.push((name.text.clone(), src.text.clone()));
                    }
                }
            }
        }
        k += 1;
    }
    // Spawn sites: ident `spawn` followed by a call group containing
    // `.try_push(`.
    let mut producers: Vec<(String, usize)> = Vec::new();
    let mut k = lo;
    while k < hi.min(toks.len()) {
        if toks[k].is_ident("spawn") && toks.get(k + 1).is_some_and(|n| n.is_open('(')) {
            let close = matching_close(toks, k + 1);
            for j in k + 2..close.min(hi) {
                if toks[j].is_ident("try_push")
                    && j > 0
                    && toks[j - 1].is_punct(".")
                    && toks.get(j + 1).is_some_and(|n| n.is_open('('))
                {
                    let chain = receiver_chain(toks, j - 1);
                    if let Some(r) = chain.first() {
                        producers.push((resolve(&aliases, r), toks[j].line));
                    }
                }
            }
            k = close + 1;
            continue;
        }
        k += 1;
    }
    for i in 0..producers.len() {
        for j in i + 1..producers.len() {
            if producers[i].0 == producers[j].0 {
                out.push(Finding::new(
                    path,
                    producers[j].1,
                    "spsc-protocol",
                    format!(
                        "`{func}`: two spawned closures push into ring `{}` — the \
                         SPSC contract admits exactly one producer per ring \
                         (first producer at line {})",
                        producers[i].0, producers[i].1
                    ),
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract_fns;
    use crate::scan::scan;
    use crate::token::tokenize;

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        let toks = tokenize(&scan(src));
        let fns = extract_fns(&toks);
        let mut out = Vec::new();
        check(path, &toks, &fns, &mut out);
        out
    }

    #[test]
    fn correct_writer_is_clean() {
        let src =
            "impl S {\n fn post(&self) {\n  self.snap.begin();\n  let seq = self.next_seq();\n\
                   \n  self.snap.append(seq, k, v);\n  self.snap.end();\n }\n}\n";
        assert!(run_on("crates/core/src/shard.rs", src).is_empty());
    }

    #[test]
    fn branch_that_skips_end_is_caught() {
        let src =
            "impl S {\n fn post(&self) {\n  self.snap.begin();\n  let seq = self.next_seq();\n\
                   \n  if fast {\n   return;\n  }\n  self.snap.end();\n }\n}\n";
        let f = run_on("crates/core/src/shard.rs", src);
        assert!(
            f.iter()
                .any(|f| f.rule == "seqlock-protocol" && f.message.contains("window still open")),
            "{f:?}"
        );
    }

    #[test]
    fn stamp_after_mutation_is_caught() {
        let src =
            "impl S {\n fn post(&self) {\n  self.snap.begin();\n  self.snap.append(0, k, v);\n\
                   \n  let seq = self.next_seq();\n  self.snap.end();\n }\n}\n";
        let f = run_on("crates/core/src/shard.rs", src);
        assert!(
            f.iter()
                .any(|f| f.message.contains("reordered after a row mutation")),
            "{f:?}"
        );
    }

    #[test]
    fn bulk_sweep_does_not_double_open() {
        let src = "impl S {\n fn reset(&self) {\n  for s in &self.snaps {\n   s.begin();\n  }\n\
                   \n  self.next_seq();\n  for s in &self.snaps {\n   s.end();\n  }\n }\n}\n";
        assert!(run_on("crates/core/src/shard.rs", src).is_empty());
    }

    #[test]
    fn stamp_only_functions_are_out_of_scope() {
        let src = "impl S {\n fn cancel(&self) {\n  let seq = self.next_seq();\n  self.log(seq);\n }\n}\n";
        assert!(run_on("crates/core/src/shard.rs", src).is_empty());
    }

    #[test]
    fn torn_publish_is_caught() {
        let src = "impl R {\n fn push(&self, a: u64, b: u64) {\n  let t = self.tail.load(Ordering::SeqCst);\n\
                   \n  self.slot(t).w0.store(a, Ordering::SeqCst);\n  self.tail.store(t + 1, Ordering::SeqCst);\n\
                   \n  self.slot(t).w1.store(b, Ordering::SeqCst);\n }\n}\n";
        let f = run_on("crates/core/src/ingest.rs", src);
        assert!(
            f.iter()
                .any(|f| f.rule == "spsc-protocol" && f.message.contains("torn publish")),
            "{f:?}"
        );
    }

    #[test]
    fn rmw_tail_is_a_multi_producer_conviction() {
        let src =
            "impl R {\n fn push(&self) {\n  self.tail.fetch_add(1, Ordering::SeqCst);\n }\n}\n";
        let f = run_on("crates/core/src/ingest.rs", src);
        assert!(
            f.iter().any(|f| f.message.contains("multi-producer idiom")),
            "{f:?}"
        );
    }

    #[test]
    fn dual_spawned_producers_are_caught() {
        let src = "fn drive(ring: &Arc<IngestRing>) {\n let r1 = ring.clone();\n let r2 = ring.clone();\n\
                   \n let a = thread::spawn(move || { r1.try_push(1, 2, 3); });\n\
                   \n let b = thread::spawn(move || { r2.try_push(4, 5, 6); });\n a.join();\n b.join();\n}\n";
        let f = run_on("crates/core/src/ingest.rs", src);
        assert!(
            f.iter().any(|f| f.message.contains("exactly one producer")),
            "{f:?}"
        );
    }

    #[test]
    fn single_producer_spawn_is_fine() {
        let src = "fn drive(ring: &Arc<IngestRing>, other: &Arc<IngestRing>) {\n let r1 = ring.clone();\n\
                   \n let r2 = other.clone();\n let a = thread::spawn(move || { r1.try_push(1, 2, 3); });\n\
                   \n let b = thread::spawn(move || { r2.try_push(4, 5, 6); });\n a.join();\n b.join();\n}\n";
        assert!(run_on("crates/core/src/ingest.rs", src).is_empty());
    }
}
