//! Hot-path cost lints: no allocation (SPC10), no panic paths (SPC11).
//!
//! They run on every file of a module whose root carries
//! `//! spc-scope: hot-path` ([`crate::scopes::Module::is_hot`]).
//! Per function, the lints skip:
//!
//! - test and `debug_invariants`-gated code (not the measured path);
//! - functions returning `String`-bearing types (diagnostics/report
//!   builders like `validate()` — allocation is their job);
//! - for the *alloc* lint only, constructors (`new`, `default`,
//!   `with_*`, `from_*`, `spawn`): one-time setup allocates by design.
//!
//! Documented carve-outs inside a linted function:
//!
//! - `debug_assert!*` argument lists (compiled out in release);
//! - `.unwrap()`/`.expect()` chained directly onto a blocking lock
//!   acquisition — mutex poisoning is a crashed-thread condition where
//!   aborting is the correct response, and `std` offers no non-panicking
//!   blocking lock;
//! - `.push(` when the function also calls `with_capacity`/`reserve`
//!   (writes into pre-sized storage do not allocate per element);
//! - `.collect()` is not an alloc token at all: collecting into a
//!   pre-sized guard vector is the `lock_all` idiom and the target is
//!   invisible at token level.

use crate::items::FnItem;
use crate::token::{matching_close, Tok, TokKind};
use crate::Finding;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const LOCK_CALLS: &[&str] = &[
    "lock",
    "try_lock",
    "lock_uncounted",
    "lock_all",
    "lock_all_uncounted",
];

fn constructor_ish(name: &str) -> bool {
    name == "new"
        || name == "default"
        || name == "spawn"
        || name.starts_with("with_")
        || name.starts_with("from_")
}

/// Index of the `(` matching the `)` at `close` (walking left).
fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        match toks[k].kind {
            TokKind::Close => depth += 1,
            TokKind::Open => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
}

/// Token ranges of `debug_assert*!(...)` argument groups inside
/// `[lo, hi)`.
fn debug_assert_ranges(toks: &[Tok], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut k = lo;
    while k < hi.min(toks.len()) {
        if toks[k].kind == TokKind::Ident
            && toks[k].text.starts_with("debug_assert")
            && toks.get(k + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Open)
        {
            let close = matching_close(toks, k + 2);
            out.push((k + 2, close));
            k = close + 1;
            continue;
        }
        k += 1;
    }
    out
}

fn in_ranges(ranges: &[(usize, usize)], k: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| k > lo && k < hi)
}

/// `.unwrap()`/`.expect(` at token `k` chained directly on a lock call
/// (`self.wild.lock().expect("poisoned")`).
fn chained_on_lock(toks: &[Tok], k: usize) -> bool {
    if k < 2 || !toks[k - 1].is_punct(".") || !toks[k - 2].is_close(')') {
        return false;
    }
    let Some(open) = matching_open(toks, k - 2) else {
        return false;
    };
    open > 0
        && toks[open - 1].kind == TokKind::Ident
        && LOCK_CALLS.contains(&toks[open - 1].text.as_str())
}

/// Runs the alloc and panic lints over `path`, a file of a hot-path module.
pub fn check(path: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    for f in fns {
        if f.is_test || f.is_gated || f.ret.contains("String") {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let da = debug_assert_ranges(toks, open, close);
        let presized = toks[open..close]
            .iter()
            .any(|t| t.is_ident("with_capacity") || t.is_ident("reserve"));
        let lint_alloc = !constructor_ish(&f.name);
        let mut k = open + 1;
        while k < close.min(toks.len()) {
            let t = &toks[k];
            if t.kind != TokKind::Ident || in_ranges(&da, k) {
                k += 1;
                continue;
            }
            let after_dot = toks[k - 1].is_punct(".");
            let is_macro = toks.get(k + 1).is_some_and(|n| n.is_punct("!"));
            let called = toks.get(k + 1).is_some_and(|n| n.is_open('('));
            // SPC11: panic paths.
            if is_macro && PANIC_MACROS.contains(&t.text.as_str()) {
                out.push(Finding::new(
                    path,
                    t.line,
                    "hot-path-panic",
                    format!(
                        "`{}!` in hot-path fn `{}` — panic machinery on the measured \
                         path; return an error or restructure the invariant into a \
                         debug_assert",
                        t.text, f.name
                    ),
                ));
            } else if after_dot
                && called
                && (t.text == "unwrap" || t.text == "expect")
                && !chained_on_lock(toks, k)
            {
                out.push(Finding::new(
                    path,
                    t.line,
                    "hot-path-panic",
                    format!(
                        "`.{}()` in hot-path fn `{}` — a panic edge on the \
                         measured path (lock-poisoning unwraps directly on a \
                         lock call are exempt)",
                        t.text, f.name
                    ),
                ));
            }
            // SPC10: allocation.
            if lint_alloc {
                let alloc_hit = match t.text.as_str() {
                    "vec" | "format" if is_macro => Some(format!("`{}!`", t.text)),
                    "new"
                        if k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_ident("Box") =>
                    {
                        Some("`Box::new`".into())
                    }
                    "from"
                        if k >= 2
                            && toks[k - 1].is_punct("::")
                            && toks[k - 2].is_ident("String") =>
                    {
                        Some("`String::from`".into())
                    }
                    "to_vec" | "to_string" if after_dot && called => {
                        Some(format!("`.{}()`", t.text))
                    }
                    "push" if after_dot && called && !presized => Some("`.push` (growth)".into()),
                    _ => None,
                };
                if let Some(what) = alloc_hit {
                    out.push(Finding::new(
                        path,
                        t.line,
                        "hot-path-alloc",
                        format!(
                            "{what} in hot-path fn `{}` — heap allocation on the \
                             measured path; pre-size in the constructor or use the \
                             slab/pool types",
                            f.name
                        ),
                    ));
                }
            }
            k += 1;
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

    const HOT: &str = "crates/core/src/shard.rs";

    #[test]
    fn alloc_in_hot_fn_is_caught_constructor_is_not() {
        let f = run_on(
            HOT,
            "impl S {\n fn probe(&self) { let v = vec![1, 2]; }\n\
             \n pub fn new() -> Self { let v = vec![0; 64]; Self { v } }\n}\n",
        );
        assert_eq!(
            f.iter().filter(|f| f.rule == "hot-path-alloc").count(),
            1,
            "{f:?}"
        );
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn presized_push_is_fine_growing_push_is_not() {
        let ok = run_on(
            HOT,
            "impl S {\n fn drain(&self) {\n  let mut v = Vec::with_capacity(8);\n  v.push(1);\n }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run_on(
            HOT,
            "impl S {\n fn drain(&self, v: &mut Vec<u64>) {\n  v.push(1);\n }\n}\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn unwrap_is_caught_lock_poisoning_is_exempt() {
        let f = run_on(
            HOT,
            "impl S {\n fn probe(&self) {\n  let g = self.wild.lock().expect(\"poisoned\");\n\
             \n  let v = self.map.get(0).unwrap();\n }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".unwrap"));
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn debug_assert_args_and_gated_fns_are_exempt() {
        let f = run_on(
            HOT,
            "impl S {\n fn probe(&self) {\n  debug_assert!(self.v.get(0).unwrap() > 0);\n }\n\
             \n #[cfg(feature = \"debug_invariants\")]\n fn validate_deep(&self) { panic!(\"bad\"); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn string_returning_reporters_are_exempt() {
        let f = run_on(
            HOT,
            "impl S {\n fn describe(&self) -> Result<(), String> {\n  Err(format!(\"x {}\", 1))\n }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cold_files_are_out_of_scope() {
        let body = "impl H {\n fn run(&self) { let v = vec![0; 8]; v.get(0).unwrap(); }\n}\n";
        let cold = crate::analyze_source(
            "crates/core/src/heater.rs",
            &format!("//! spc-scope: cold\n{body}"),
        );
        assert!(cold.is_empty(), "{cold:?}");
        let hot = crate::analyze_source(
            "crates/core/src/heater.rs",
            &format!("//! spc-scope: hot-path\n{body}"),
        );
        assert_eq!(hot.len(), 2, "{hot:?}");
    }
}
