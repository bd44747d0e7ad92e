//! `spc-analyzer`: protocol-aware static analysis gates.
//!
//! PR 3 made the matching hot path fast by making it dangerous — raw-pointer
//! chunk caching in `Pool`, `_mm_prefetch` speculation, branchless
//! occupancy-bitmap scans — and the sharded engine's correctness rests on
//! rules (lock order, atomic orderings, the seqlock/SPSC publication
//! protocols) that `rustc` cannot see. This crate is the mechanical
//! enforcement, built as a small pipeline:
//!
//! 1. [`scan`] classifies bytes (code / comment / literal) per line;
//! 2. [`token`] turns the code stream into tokens; [`items`] extracts
//!    functions; [`cfg`] builds per-function control-flow paths;
//! 3. [`scopes`] keys every file on its module (`<crate>::<module>`) and
//!    collects what each module declares about itself: the
//!    `//! spc-scope:` marker of its root file and its
//!    `// spc-order(receiver)` lines. No rule looks at a file name;
//! 4. the passes run over that: the original line/token rules
//!    ([`rules`]), the atomic-ordering requirements ([`ordering`]), the
//!    seqlock/SPSC protocol state machines ([`protocol`]), the workspace
//!    lock-order graph over module-qualified nodes ([`lockgraph`]), the
//!    hot-path cost lints ([`hotlints`]) and the module-fact checks
//!    ([`scopes`]);
//! 5. [`diag`] applies `// spc-allow(RULE): rationale` suppressions,
//!    checks their hygiene, and renders text/JSON plus the
//!    committed baseline.
//!
//! Every rule has a stable ID (`SPC01`–`SPC14`, SPC12 retired; see
//! [`diag::RULES`]);
//! run `cargo run -p spc-analyzer -- --list-rules` for the table, and
//! `cargo run -p spc-analyzer -- --check` as the gate (exits nonzero
//! with `file:line` diagnostics). The fixture suite in `tests/rules.rs`
//! seeds violations per rule and asserts the exact diagnostics, so rule
//! regressions fail the build the same way rule violations do.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod cfg;
pub mod diag;
pub mod hotlints;
pub mod items;
pub mod lockgraph;
pub mod ordering;
pub mod protocol;
pub mod rules;
pub mod scan;
pub mod scopes;
pub mod token;

/// One diagnostic: a rule violation at `file:line`.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Path as given to [`analyze_source`] (workspace-relative when produced
    /// by [`run`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (e.g. `seqlock-protocol`).
    pub rule: &'static str,
    /// Stable rule ID (e.g. `SPC07`), from the [`diag::RULES`] registry.
    pub rule_id: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(
        file: &str,
        line: usize,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            rule_id: diag::rule_id(rule),
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.rule_id, self.rule, self.message
        )
    }
}

/// One parsed source file, ready for the analysis passes.
pub struct SourceFile {
    /// Workspace-relative (or virtual, for fixtures) path.
    pub path: String,
    /// Module key (`<crate>::<module>`, see [`scopes::module_key`]).
    pub module: String,
    /// Whether this is the module's root file (`<m>.rs` or `<m>/mod.rs`).
    pub root: bool,
    /// Scanned lines (code/comment split, literals blanked).
    pub lines: Vec<scan::Line>,
    /// Token stream of the code portions.
    pub toks: Vec<token::Tok>,
    /// Extracted functions.
    pub fns: Vec<items::FnItem>,
    /// `spc-allow` suppressions found in the comments.
    pub sups: Vec<diag::Suppression>,
}

impl SourceFile {
    /// Scans, tokenizes and indexes `src` as if it lived at `path`.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lines = scan::scan(src);
        let toks = token::tokenize(&lines);
        let fns = items::extract_fns(&toks);
        let sups = diag::parse_suppressions(&lines);
        let (module, root) = scopes::module_key(path);
        SourceFile {
            path: path.to_string(),
            module,
            root,
            lines,
            toks,
            fns,
            sups,
        }
    }
}

/// The outcome of an analysis run.
pub struct RunResult {
    /// Findings after suppression, deduplicated and sorted.
    pub findings: Vec<Finding>,
    /// Graphviz DOT rendering of the workspace lock-order graph.
    pub dot: String,
}

/// Lines covered by a `lock-order-graph` suppression (edges on these
/// lines are excluded from cycle detection).
fn lock_allow_lines(sups: &[diag::Suppression]) -> Vec<usize> {
    let mut out = Vec::new();
    for s in sups {
        if diag::lookup_rule(&s.key).is_some_and(|r| r.id == "SPC09") {
            out.extend(s.covers.0..=s.covers.1);
        }
    }
    out
}

/// Runs every pass over `files`: module facts first (a file's rules may
/// need the marker or an `spc-order` line of another file of its module),
/// then per-file rules, then the cross-file lock-order graph, then
/// per-file suppression application and hygiene, then the module-fact
/// checks (SPC13, never suppressible).
pub fn analyze_sources(files: &[SourceFile]) -> RunResult {
    let modules = scopes::collect(files);
    let mut per_file: Vec<Vec<Finding>> = Vec::with_capacity(files.len());
    let mut all_edges: Vec<lockgraph::Edge> = Vec::new();
    let mut edge_used: Vec<Vec<usize>> = Vec::with_capacity(files.len());

    for f in files {
        let m = modules
            .iter()
            .find(|m| m.key == f.module)
            .expect("collect keys every file");
        let mut raw = Vec::new();
        rules::check_all(&f.path, &f.lines, &f.toks, &f.fns, m, &mut raw);
        ordering::check(&f.path, &f.toks, &f.fns, m, &mut raw);
        protocol::check(&f.path, &f.toks, &f.fns, &mut raw);
        if m.is_hot() {
            hotlints::check(&f.path, &f.toks, &f.fns, &mut raw);
        }
        let allowed = lock_allow_lines(&f.sups);
        let (edges, used_lines) =
            lockgraph::collect_edges(&f.path, &f.module, &f.toks, &f.fns, &allowed);
        all_edges.extend(edges);
        edge_used.push(used_lines);
        per_file.push(raw);
    }

    // Cross-file: cycle findings land on the file owning their first edge.
    for c in lockgraph::check_cycles(&all_edges) {
        match files.iter().position(|f| f.path == c.file) {
            Some(fi) => per_file[fi].push(c),
            None => per_file.last_mut().map(|v| v.push(c)).unwrap_or(()),
        }
    }

    let mut out = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let raw = std::mem::take(&mut per_file[fi]);
        let (kept, mut used) = diag::apply_suppressions(raw, &f.sups);
        // A lock-order suppression is "used" when its covered lines
        // actually produced (and suppressed) graph edges, even though no
        // finding ever materialized.
        for (si, s) in f.sups.iter().enumerate() {
            if diag::lookup_rule(&s.key).is_some_and(|r| r.id == "SPC09")
                && edge_used[fi]
                    .iter()
                    .any(|l| *l >= s.covers.0 && *l <= s.covers.1)
            {
                used[si] = true;
            }
        }
        out.extend(kept);
        out.extend(diag::suppression_hygiene(&f.path, &f.sups, &used));
    }
    out.extend(scopes::check(&modules, files));

    // Nested fns and overlapping passes can double-report; dedupe and give
    // the output a stable order.
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule_id, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule_id,
            b.message.as_str(),
        ))
    });
    out.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });

    RunResult {
        findings: out,
        dot: lockgraph::to_dot(&all_edges),
    }
}

/// Analyzes one source text as if it lived at `path` (which gives it its
/// module key). This is the entry point the fixture tests use.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[SourceFile::parse(path, src)]).findings
}

/// Directories (relative to the workspace root) whose `.rs` files are
/// scanned.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Path fragments that are never scanned: build output and the analyzer's
/// own seeded-violation fixtures.
const SKIP_FRAGMENTS: &[&str] = &["/target/", "analyzer/tests/fixtures"];

/// Walks the workspace at `root` and analyzes every `.rs` source. Paths in
/// the returned findings are relative to `root`.
pub fn run(root: &Path) -> std::io::Result<RunResult> {
    let mut paths = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for f in &paths {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if SKIP_FRAGMENTS
            .iter()
            .any(|s| rel.contains(s) || format!("/{rel}").contains(s))
        {
            continue;
        }
        let src = std::fs::read_to_string(f)?;
        files.push(SourceFile::parse(&rel, &src));
    }
    Ok(analyze_sources(&files))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with(".git") {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = "/// Doc.\npub fn add(a: u32, b: u32) -> u32 {\n    a + b\n}\n";
        assert!(analyze_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn findings_render_file_line_id_rule() {
        let f = Finding::new("crates/x/src/a.rs", 7, "safety-comment", "boom");
        assert_eq!(
            f.to_string(),
            "crates/x/src/a.rs:7: [SPC01/safety-comment] boom"
        );
    }

    #[test]
    fn suppression_silences_and_unused_suppression_fires() {
        let hot = "crates/core/src/engine.rs";
        let bad = "//! spc-scope: hot-path\nfn f() {\n    let t = Instant::now(); // spc-allow(SPC06): startup stamp\n}\n";
        let f = analyze_source(hot, bad);
        assert!(f.is_empty(), "{f:?}");
        let unused =
            "//! spc-scope: hot-path\nfn f() {\n    let x = 1; // spc-allow(SPC06): nothing here\n}\n";
        let f = analyze_source(hot, unused);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule_id, "SPC14");
        assert!(f[0].message.contains("unused suppression"));
    }
}
