//! Atomic-ordering discipline: every atomic operation in a `core` module
//! must satisfy the requirement its module states for the receiver, in
//! one comment line next to the atomic's declaration:
//!
//! ```text
//! // spc-order(wild_slots): SeqCst — store-buffering pair with umq_counts; see the field doc
//! ```
//!
//! Three requirement levels:
//!
//! * [`Req::SeqCst`] — protocol words. The wildcard-lane store-buffering
//!   pair, the seqlock version and row-publication fields, and the SPSC
//!   ring indices are all correct *only* in the single SeqCst total
//!   order; any weaker ordering is an error.
//! * [`Req::AcqRel`] — handshake flags (heater pause/shutdown/pass
//!   counter) and the mirrored queue lengths: release on publish, acquire
//!   on observe; `Relaxed` is an error, `SeqCst` is accepted (strictly
//!   stronger).
//! * [`Req::Relaxed`] — rationale'd telemetry. Any ordering is accepted;
//!   the rationale documents *why* relaxation is sound.
//!
//! An atomic op on a receiver with no `spc-order` line in its module is an
//! error when it uses `Relaxed` (new telemetry must be argued in next to
//! its declaration), and an op whose receiver the scanner cannot
//! attribute is an error outright. Test-module code is exempt — test
//! counters synchronize by `join`. [`crate::scopes::check`] (SPC13) keeps
//! the `spc-order` lines themselves honest.

use crate::items::FnItem;
use crate::scan::{directive, Line};
use crate::scopes::Module;
use crate::token::{matching_close, receiver_chain, Tok, TokKind};
use crate::Finding;

/// Requirement level for one atomic field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Must use `SeqCst` everywhere.
    SeqCst,
    /// Must use `Acquire`/`Release`/`AcqRel` (or stronger); `Relaxed`
    /// forbidden.
    AcqRel,
    /// `Relaxed` permitted — the rationale says why.
    Relaxed,
}

/// One `// spc-order(<receiver>): <level> — <rationale>` line.
#[derive(Debug, Clone)]
pub struct Order {
    /// File the annotation sits in.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: usize,
    /// The atomic field/binding as written before `.load(`/`.store(`/….
    pub receiver: String,
    /// Required strength; `None` when the level is not one of the three
    /// (SPC13 reports it).
    pub req: Option<Req>,
    /// Why. SPC13 reports an empty one.
    pub rationale: String,
}

/// Every `spc-order` line in `lines`.
pub fn parse_orders(path: &str, lines: &[Line]) -> Vec<Order> {
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let Some((receiver, rest)) =
            directive(&l.comment, "spc-order(").and_then(|r| r.split_once(')'))
        else {
            continue;
        };
        let rest = rest.trim_start().trim_start_matches(':').trim_start();
        let (level, rationale) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        out.push(Order {
            file: path.to_string(),
            line: i + 1,
            receiver: receiver.trim().to_string(),
            req: match level {
                "SeqCst" => Some(Req::SeqCst),
                "AcqRel" => Some(Req::AcqRel),
                "Relaxed" => Some(Req::Relaxed),
                _ => None,
            },
            rationale: rationale
                .trim_start_matches(|c: char| c == '—' || c == '-' || c.is_whitespace())
                .trim_end()
                .to_string(),
        });
    }
    out
}

/// Atomic method names (tokens following a `.`).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One attributed atomic operation.
pub struct AtomicOp {
    pub receiver: Option<String>,
    pub method: String,
    pub orderings: Vec<String>,
    pub line: usize,
}

/// Extracts the atomic operations in `toks[lo..hi]`. An op is a `.`
/// followed by an atomic method name and a call group that names at
/// least one `Ordering` variant (calls without an ordering argument are
/// some other type's `load`/`store` and are skipped).
pub fn atomic_ops(toks: &[Tok], lo: usize, hi: usize) -> Vec<AtomicOp> {
    let mut out = Vec::new();
    for k in lo..hi.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !ATOMIC_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if k == 0 || !toks[k - 1].is_punct(".") {
            continue;
        }
        let Some(open) = toks.get(k + 1).filter(|n| n.is_open('(')) else {
            continue;
        };
        let _ = open;
        let close = matching_close(toks, k + 1);
        let orderings: Vec<String> = toks[k + 1..close.min(hi)]
            .iter()
            .filter(|a| a.kind == TokKind::Ident && ORDERINGS.contains(&a.text.as_str()))
            .map(|a| a.text.clone())
            .collect();
        if orderings.is_empty() {
            continue;
        }
        let chain = receiver_chain(toks, k - 1);
        out.push(AtomicOp {
            receiver: chain.last().cloned(),
            method: t.text.clone(),
            orderings,
            line: t.line,
        });
    }
    out
}

/// Checks every atomic op in the non-test functions of a `core` module
/// against the module's `spc-order` lines.
pub fn check(path: &str, toks: &[Tok], fns: &[FnItem], m: &Module, out: &mut Vec<Finding>) {
    if !m.in_crate("core") {
        return;
    }
    for f in fns.iter().filter(|f| !f.is_test) {
        let Some((open, close)) = f.body else {
            continue;
        };
        for op in atomic_ops(toks, open, close) {
            let mut flag =
                |msg: String| out.push(Finding::new(path, op.line, "atomic-ordering", msg));
            let Some(recv) = &op.receiver else {
                flag(format!(
                    "`.{}(…)` with an Ordering argument on a receiver this \
                     scanner cannot attribute; bind the atomic to a named \
                     local so its spc-order line applies",
                    op.method
                ));
                continue;
            };
            let Some((req, o)) = m.order(recv).and_then(|o| Some((o.req?, o))) else {
                if op.orderings.iter().any(|o| o == "Relaxed") {
                    flag(format!(
                        "Ordering::Relaxed on `{recv}` which has no spc-order line in \
                         module `{}`; add `// spc-order({recv}): Relaxed — <why>` or \
                         use a stronger ordering",
                        m.key
                    ));
                }
                continue;
            };
            let (weak, want): (fn(&str) -> bool, &str) = match req {
                Req::SeqCst => (|o| o != "SeqCst", "SeqCst"),
                Req::AcqRel => (|o| o == "Relaxed", "acquire/release"),
                Req::Relaxed => continue,
            };
            for ord in op.orderings.iter().filter(|o| weak(o)) {
                flag(format!(
                    "Ordering::{ord} on `{recv}.{}`: its spc-order line demands {want} — {}",
                    op.method, o.rationale
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scopes::{check as spc13, collect};
    use crate::SourceFile;

    #[test]
    fn every_spec_has_a_rationale_and_is_unique() {
        let f = SourceFile::parse(
            "crates/core/src/ring.rs",
            "//! spc-scope: hot-path\n\
             // spc-order(head): SeqCst — consumer index\n\
             // spc-order(tail): SeqCst\n\
             // spc-order(head): Relaxed — again\n\
             // spc-order(gone): Relaxed — nothing uses it\n\
             // spc-order(tally): Fast — unknown level\n\
             fn f(r: &R) { r.head.load(Ordering::SeqCst); r.tail.load(Ordering::SeqCst); r.tally.load(Ordering::SeqCst); }\n",
        );
        let mods = collect(std::slice::from_ref(&f));
        assert_eq!(mods[0].orders.len(), 5);
        assert_eq!(mods[0].order("head").and_then(|o| o.req), Some(Req::SeqCst));
        assert_eq!(mods[0].order("head").unwrap().rationale, "consumer index");
        let found: Vec<(usize, String)> = spc13(&mods, std::slice::from_ref(&f))
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect();
        let lines: Vec<usize> = found.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![3, 4, 5, 6], "{found:?}");
        assert!(found[0].1.contains("no rationale"));
        assert!(found[1]
            .1
            .contains("repeats the line at crates/core/src/ring.rs:2"));
        assert!(found[2].1.contains("never uses"));
        assert!(found[3].1.contains("needs a level"));
    }

    #[test]
    fn atomic_op_extraction_reads_receiver_and_orderings() {
        let toks = crate::token::tokenize(&crate::scan::scan(
            "self.state.compare_exchange(UNSET, enc, Ordering::Relaxed, Ordering::Acquire);\n\
             regular.load(factor);\n",
        ));
        let ops = atomic_ops(&toks, 0, toks.len());
        assert_eq!(ops.len(), 1, "the orderless load is not an atomic op");
        assert_eq!(ops[0].receiver.as_deref(), Some("state"));
        assert_eq!(ops[0].orderings, vec!["Relaxed", "Acquire"]);
    }
}
