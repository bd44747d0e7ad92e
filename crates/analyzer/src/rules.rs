//! The original project-specific rules (SPC01–SPC03, SPC05, SPC06),
//! migrated onto the token stream.
//!
//! `safety-comment` (SPC01) is the one rule that stays line-oriented:
//! its subject *is* the comment stream, which the tokenizer deliberately
//! drops. Everything else consumes [`crate::token`] tokens and
//! [`crate::items`] functions, so multi-line expressions, odd
//! formatting, and string/comment content can no longer confuse a
//! substring match. `atomic-ordering` (SPC04) lives in
//! [`crate::ordering`]; the protocol and
//! hot-path families are [`crate::protocol`], [`crate::lockgraph`] and
//! [`crate::hotlints`].

use crate::items::FnItem;
use crate::scan::{has_word, Line};
use crate::scopes::Module;
use crate::token::{Tok, TokKind};
use crate::Finding;

/// Runs every line/token rule that applies to `path`, a file of `m`.
pub fn check_all(
    path: &str,
    lines: &[Line],
    toks: &[Tok],
    fns: &[FnItem],
    m: &Module,
    out: &mut Vec<Finding>,
) {
    safety_comments(path, lines, out);
    intrinsic_gating(path, toks, out);
    lock_discipline(path, toks, fns, out);
    if m.key == "core::list" {
        sink_routing(path, toks, fns, out);
    }
    if m.is_hot() {
        determinism(path, toks, out);
    }
}

// ---------------------------------------------------------------------------
// SPC01: every `unsafe` needs an adjacent SAFETY justification.
// ---------------------------------------------------------------------------

/// `unsafe` blocks need a `// SAFETY:` comment on the same line, on the
/// comment block immediately above, or (for continuation lines of one
/// statement, e.g. a `.map(|x| unsafe { … })` in a builder chain) above the
/// statement's first line. `unsafe fn`/`unsafe impl`/`unsafe trait`
/// declarations may alternatively carry a `# Safety` doc section.
pub fn safety_comments(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        if safety_justified(lines, i) {
            continue;
        }
        out.push(Finding::new(
            path,
            i + 1,
            "safety-comment",
            "`unsafe` without an adjacent `// SAFETY:` justification (or \
             `# Safety` doc section for declarations)",
        ));
    }
}

fn comment_has_safety(l: &Line) -> bool {
    l.comment.contains("SAFETY:") || l.comment.contains("# Safety")
}

fn safety_justified(lines: &[Line], i: usize) -> bool {
    if comment_has_safety(&lines[i]) {
        return true;
    }
    // Declarations (`unsafe fn` / `unsafe impl` / `unsafe trait`) may carry
    // their justification anywhere in the doc block above, which can be
    // long; blocks get a tight window.
    let code = &lines[i].code;
    let is_decl =
        code.contains("unsafe fn") || code.contains("unsafe impl") || code.contains("unsafe trait");
    let window = if is_decl { 64 } else { 12 };
    // Walk upward through the comment/attribute block and through
    // continuation lines of the same statement (lines not ending a previous
    // statement), for a bounded window.
    let mut steps = 0;
    let mut j = i;
    while j > 0 && steps < window {
        j -= 1;
        steps += 1;
        let l = &lines[j];
        let t = l.raw.trim_start();
        let code_t = l.code.trim();
        if comment_has_safety(l) {
            return true;
        }
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") || t.starts_with('*')
        {
            continue; // comment or attribute: keep scanning upward
        }
        if code_t.is_empty() {
            if l.raw.trim().is_empty() {
                return false; // blank line ends the adjacency window
            }
            continue; // pure-comment line already handled above
        }
        // A code line: if it terminates a statement or opens/closes a block,
        // the window ends; otherwise it is a continuation line (builder
        // chain, multi-line expression) and we keep walking.
        if code_t.ends_with(';')
            || code_t.ends_with('{')
            || code_t.ends_with('}')
            || code_t.ends_with(',')
        {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// SPC02: arch intrinsics must be cfg-gated with a portable fallback.
// ---------------------------------------------------------------------------

/// Whether token `k` is an arch-intrinsic site: an `_mm_*`/`_mm256_*`
/// ident, an `asm!` invocation, or the `x86_64` module in an
/// `arch::x86_64` path.
fn is_intrinsic_site(toks: &[Tok], k: usize) -> bool {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return false;
    }
    if t.text.starts_with("_mm_") || t.text.starts_with("_mm256_") {
        return true;
    }
    if t.text == "asm" && toks.get(k + 1).is_some_and(|n| n.is_punct("!")) {
        return true;
    }
    t.text == "x86_64" && k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_ident("arch")
}

/// `cfg`-group scan: does any `#[cfg(...)]`-ish token group contain
/// `target_arch`, and is any of those wrapped in `not(...)`?
fn cfg_gates(toks: &[Tok]) -> (bool, bool) {
    let mut gated = false;
    let mut fallback = false;
    for (k, t) in toks.iter().enumerate() {
        if !t.is_ident("target_arch") {
            continue;
        }
        gated = true;
        if k >= 2 && toks[k - 1].is_open('(') && toks[k - 2].is_ident("not") {
            fallback = true;
        }
    }
    (gated, fallback)
}

/// Files using x86-64 intrinsics must gate them behind
/// `cfg(target_arch = "x86_64")` *and* provide a `cfg(not(target_arch …))`
/// fallback in the same module, so non-x86 builds stay green.
pub fn intrinsic_gating(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let (gated, fallback) = cfg_gates(toks);
    let mut last_line = 0;
    for k in 0..toks.len() {
        if !is_intrinsic_site(toks, k) {
            continue;
        }
        let line = toks[k].line;
        if line == last_line {
            continue; // one finding per source line
        }
        if !gated {
            last_line = line;
            out.push(Finding::new(
                path,
                line,
                "intrinsic-gating",
                "arch intrinsic without a `cfg(target_arch = \"x86_64\")` gate",
            ));
        } else if !fallback {
            last_line = line;
            out.push(Finding::new(
                path,
                line,
                "intrinsic-gating",
                "gated arch intrinsic without a `cfg(not(target_arch …))` \
                 portable fallback in the same module",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// SPC03: shard lock discipline.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum LockKind {
    /// One shard's sub-engine lock (`self.shards[si].lock()`).
    Shard,
    /// Every shard lock at once, in index order (`self.lock_all…()`).
    AllShards,
    /// The wildcard-lane lock (`self.wild.lock…()`).
    Wild,
}

struct Guard {
    kind: LockKind,
    depth: i32,
    binding: Option<String>,
}

/// Classifies a call token as a shard-engine lock acquisition.
fn lock_kind(toks: &[Tok], k: usize) -> Option<LockKind> {
    let t = &toks[k];
    if t.kind != TokKind::Ident
        || k == 0
        || !toks[k - 1].is_punct(".")
        || !toks.get(k + 1).is_some_and(|n| n.is_open('('))
    {
        return None;
    }
    match t.text.as_str() {
        "lock_all" | "lock_all_uncounted" => Some(LockKind::AllShards),
        "lock" | "lock_uncounted" => {
            let chain = crate::token::receiver_chain(toks, k - 1);
            match chain.last().map(String::as_str) {
                Some("wild") => Some(LockKind::Wild),
                Some("shards") => Some(LockKind::Shard),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Flags sharded-engine lock-order violations wherever its locks are
/// taken (`shards[i]`, `wild`, `lock_all*`): the engine's documented
/// discipline is *shards first (in index order, or exactly one), wildcard
/// lane last*. Nested shard acquisitions and wild→shard acquisitions are
/// the deadlock/lock-inversion shapes this rule catches. Guard lifetimes
/// are tracked by brace depth, statement ends (for unbound temporaries)
/// and explicit `drop(binding)` calls, per function.
pub fn lock_discipline(path: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    for f in fns.iter().filter(|f| !f.is_test) {
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut pending_let: Option<String> = None;
        let mut k = open + 1;
        while k < close.min(toks.len()) {
            let t = &toks[k];
            match t.kind {
                TokKind::Open if t.text == "{" => {
                    depth += 1;
                    pending_let = None;
                }
                TokKind::Close if t.text == "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    pending_let = None;
                }
                TokKind::Punct if t.text == ";" => {
                    guards.retain(|g| g.binding.is_some() || g.depth < depth);
                    pending_let = None;
                }
                TokKind::Ident if t.text == "let" => {
                    if let Some(n) = toks.get(k + 1).filter(|n| n.kind == TokKind::Ident) {
                        let name = if n.text == "mut" {
                            toks.get(k + 2).filter(|n| n.kind == TokKind::Ident)
                        } else {
                            Some(n)
                        };
                        pending_let = name.map(|n| n.text.clone());
                    }
                }
                TokKind::Ident if t.text == "drop" => {
                    if toks.get(k + 1).is_some_and(|n| n.is_open('('))
                        && toks.get(k + 3).is_some_and(|n| n.is_close(')'))
                    {
                        if let Some(arg) = toks.get(k + 2).filter(|a| a.kind == TokKind::Ident) {
                            if let Some(gi) = guards
                                .iter()
                                .rposition(|g| g.binding.as_deref() == Some(&arg.text))
                            {
                                guards.remove(gi);
                            }
                        }
                    }
                }
                _ => {
                    if let Some(kind) = lock_kind(toks, k) {
                        let conflict = guards.iter().find(|g| {
                            matches!(
                                (g.kind, kind),
                                (LockKind::Wild, LockKind::Shard)
                                    | (LockKind::Wild, LockKind::AllShards)
                                    | (LockKind::Shard, LockKind::Shard)
                                    | (LockKind::Shard, LockKind::AllShards)
                                    | (LockKind::AllShards, LockKind::Shard)
                                    | (LockKind::AllShards, LockKind::AllShards)
                                    | (LockKind::Wild, LockKind::Wild)
                            )
                        });
                        if let Some(held) = conflict {
                            out.push(Finding::new(
                                path,
                                t.line,
                                "lock-discipline",
                                format!(
                                    "acquiring {:?} lock while {:?} lock is held breaks the \
                                     shards-then-wildcard lock order",
                                    kind, held.kind
                                ),
                            ));
                        }
                        guards.push(Guard {
                            kind,
                            depth,
                            binding: pending_let.clone(),
                        });
                    }
                }
            }
            k += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// SPC05: MatchList impls must charge memory touches to the AccessSink.
// ---------------------------------------------------------------------------

/// In `list/*.rs`, a function that takes an `AccessSink` parameter and reads
/// entry storage (`.entries[…]`, `.entry*`, `packed_matches(…)`) must either
/// call the sink or forward it; a sink-taking function that never mentions
/// its sink again is bypassing the instrumentation the locality study
/// depends on.
pub fn sink_routing(path: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    for f in fns {
        if !f.params.iter().any(|(n, _)| n == "sink") {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut uses_sink = false;
        let mut touches_entries = false;
        for k in open + 1..close.min(toks.len()) {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "sink" {
                uses_sink = true;
            }
            let after_dot = toks[k - 1].is_punct(".");
            if after_dot && (t.text == "entries" || t.text.starts_with("entry")) {
                touches_entries = true;
            }
            if t.text == "packed_matches" && toks.get(k + 1).is_some_and(|n| n.is_open('(')) {
                touches_entries = true;
            }
        }
        if touches_entries && !uses_sink {
            out.push(Finding::new(
                path,
                f.line,
                "sink-routing",
                "function takes an AccessSink but reads entry storage \
                 without charging or forwarding it — memory touches are \
                 invisible to the locality instrumentation",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// SPC06: hot-path determinism.
// ---------------------------------------------------------------------------

/// The measured hot path must be clock- and randomness-free so identical
/// seeds give identical traversals; timing belongs in the benches,
/// randomness in `spc-rng`'s seeded streams.
pub fn determinism(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let emit = |line: usize, tok: &str, why: &str, out: &mut Vec<Finding>| {
        out.push(Finding::new(
            path,
            line,
            "hot-path-determinism",
            format!(
                "`{tok}` ({why}) in a hot-path module; keep the \
                 measured path deterministic — seed via spc-rng, time \
                 in the benches"
            ),
        ));
    };
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let path2 = |a: &str, b: &str| {
            t.text == a
                && toks.get(k + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(k + 2).is_some_and(|n| n.is_ident(b))
        };
        if path2("Instant", "now") {
            emit(t.line, "Instant::now", "wall-clock reads", out);
        } else if t.text == "SystemTime" {
            emit(t.line, "SystemTime", "wall-clock reads", out);
        } else if t.text == "thread_rng" {
            emit(t.line, "thread_rng", "ambient randomness", out);
        } else if t.text == "rand" && toks.get(k + 1).is_some_and(|n| n.is_punct("::")) {
            emit(t.line, "rand::", "ambient randomness", out);
        } else if path2("RandomState", "new") {
            emit(t.line, "RandomState::new", "randomized hashing seeds", out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(path: &str, src: &str) -> Vec<Finding> {
        let f = crate::SourceFile::parse(path, src);
        let m = &crate::scopes::collect(std::slice::from_ref(&f))[0];
        let mut out = Vec::new();
        check_all(path, &f.lines, &f.toks, &f.fns, m, &mut out);
        out
    }

    #[test]
    fn multiline_lock_acquisition_is_tracked() {
        // The old line-based rule needed the receiver and `.lock()` on one
        // line; the token walk does not.
        let src = "impl E {\n fn f(&self) {\n  let w = self\n   .wild\n   .lock();\n\
                   \n  let g = self.shards[0].lock();\n  let _ = (&w, &g);\n }\n}\n";
        let f = run_all("crates/core/src/shard.rs", src);
        assert!(
            f.iter().any(|f| f.rule == "lock-discipline"),
            "wild-then-shard across lines: {f:?}"
        );
    }

    #[test]
    fn matching_helper_is_not_a_lock() {
        // `.lock()` on an unrelated receiver (`self.cache.lock()`) is not a
        // shard/wild acquisition and must not participate.
        let src = "impl E {\n fn f(&self) {\n  let c = self.cache.lock();\n\
                   \n  let g = self.shards[0].lock();\n  let _ = (&c, &g);\n }\n}\n";
        let f = run_all("crates/core/src/shard.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_does_not_fire_on_substrings() {
        // `rand` only as a path head; `operand::` must not fire.
        let src = "//! spc-scope: hot-path\nfn f() { let x = operand::eval(); grand_total(); }\n";
        let f = run_all("crates/core/src/engine.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sink_forwarding_counts_as_use() {
        let src = "impl L {\n fn walk(&self, sink: &mut dyn AccessSink) -> u32 {\n\
                   \n  self.inner.walk(sink)\n }\n}\n";
        let f = run_all("crates/core/src/list/lla.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
