//! Module facts: the key every rule scopes by, and what each module
//! declares about itself in its own source.
//!
//! A module is `crates/<crate>/src/<m>.rs` or everything under
//! `crates/<crate>/src/<m>/`; its key is `<crate>::<m>` ([`module_key`]).
//! Two facts live in a module's source and nowhere else:
//!
//! ```text
//! //! spc-scope: hot-path     (root file: measured path, alloc/panic/clock lints apply)
//! //! spc-scope: cold         (root file: setup, background threads, reporting)
//! // spc-order(<receiver>): SeqCst|AcqRel|Relaxed — <rationale>   (any file of the module)
//! ```
//!
//! [`collect`] reads them for every module before the per-file passes
//! run, so a rule in `shard/wild.rs` sees the marker and the `spc-order`
//! lines of `shard/mod.rs`. [`check`] (SPC13) convicts the facts that can
//! rot: a core module root without a valid marker, and an `spc-order`
//! line with no rationale, a receiver its module never uses, or a
//! receiver annotated twice.

use std::path::Path;

use crate::ordering::{parse_orders, Order};
use crate::scan::{directive, Line};
use crate::{Finding, SourceFile};

/// The module `path` belongs to, and whether `path` is that module's
/// root file (`<m>.rs` or `<m>/mod.rs` directly under a crate's `src/`;
/// the crate root `lib.rs`/`main.rs` is not a module root). A file outside
/// a crate's `src/` (an integration test, an example, the root package) is
/// a crate of its own, keyed by its path without the extension, so no
/// crate-scoped rule reaches it.
pub fn module_key(path: &str) -> (String, bool) {
    let norm = Path::new(path)
        .with_extension("")
        .to_string_lossy()
        .replace('\\', "/");
    let mut parts: Vec<&str> = norm.split('/').collect();
    if parts.len() > 1 && parts.last() == Some(&"mod") {
        parts.pop();
    }
    let parts = parts.strip_prefix(&["crates"]).unwrap_or(&parts);
    match parts {
        [krate, "src", m] => (format!("{krate}::{m}"), !matches!(*m, "lib" | "main")),
        [krate, "src", m, ..] => (format!("{krate}::{m}"), false),
        _ => (parts.join("/"), false),
    }
}

/// What one module declares about itself.
#[derive(Debug)]
pub struct Module {
    /// `<crate>::<m>`.
    pub key: String,
    /// Path of the module's root file, when it was among the analyzed
    /// files.
    pub root: Option<String>,
    /// The root file's `spc-scope` marker: `hot-path`, `cold` or `invalid`.
    pub scope: Option<&'static str>,
    /// Every `spc-order` line in the module's files.
    pub orders: Vec<Order>,
}

impl Module {
    /// Whether the alloc/panic/clock lints apply.
    pub fn is_hot(&self) -> bool {
        self.scope == Some("hot-path")
    }

    /// Whether the module belongs to crate `krate`.
    pub fn in_crate(&self, krate: &str) -> bool {
        self.key.split("::").next() == Some(krate)
    }

    /// The module's `spc-order` line for `receiver`.
    pub fn order(&self, receiver: &str) -> Option<&Order> {
        self.orders.iter().find(|o| o.receiver == receiver)
    }
}

/// Parses an `spc-scope` marker from a file's leading lines.
fn parse_marker(lines: &[Line]) -> Option<&'static str> {
    let rest = lines
        .iter()
        .take(30)
        .find_map(|l| directive(&l.comment, "spc-scope:"))?;
    Some(match rest.trim() {
        "hot-path" => "hot-path",
        "cold" => "cold",
        _ => "invalid",
    })
}

/// Gathers the facts of every module `files` touch.
pub fn collect(files: &[SourceFile]) -> Vec<Module> {
    let mut mods: Vec<Module> = Vec::new();
    for f in files {
        let i = match mods.iter().position(|m| m.key == f.module) {
            Some(i) => i,
            None => {
                mods.push(Module {
                    key: f.module.clone(),
                    root: None,
                    scope: None,
                    orders: Vec::new(),
                });
                mods.len() - 1
            }
        };
        if f.root {
            mods[i].root = Some(f.path.clone());
            mods[i].scope = parse_marker(&f.lines);
        }
        mods[i].orders.extend(parse_orders(&f.path, &f.lines));
    }
    mods
}

/// SPC13 over the collected facts (see the module docs).
pub fn check(modules: &[Module], files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in modules {
        if let (true, Some(root)) = (m.in_crate("core"), &m.root) {
            match m.scope {
                None => out.push(Finding::new(
                    root,
                    1,
                    "scope-coverage",
                    "missing `//! spc-scope: hot-path|cold` marker in the module's leading doc \
                     comment",
                )),
                Some("invalid") => out.push(Finding::new(
                    root,
                    1,
                    "scope-coverage",
                    "invalid spc-scope marker; use `hot-path` or `cold`",
                )),
                Some(_) => {}
            }
        }
        for (i, o) in m.orders.iter().enumerate() {
            let mut flag =
                |msg: String| out.push(Finding::new(&o.file, o.line, "scope-coverage", msg));
            if o.req.is_none() {
                flag(format!(
                    "spc-order({}) needs a level: SeqCst, AcqRel or Relaxed",
                    o.receiver
                ));
            } else if o.rationale.is_empty() {
                flag(format!(
                    "spc-order({}) has no rationale after the level",
                    o.receiver
                ));
            }
            let used = files
                .iter()
                .filter(|f| f.module == m.key)
                .any(|f| f.toks.iter().any(|t| t.is_ident(&o.receiver)));
            if !used {
                flag(format!(
                    "spc-order({}) names a receiver module `{}` never uses; delete the stale line",
                    o.receiver, m.key
                ));
            }
            if let Some(first) = m.orders[..i].iter().find(|p| p.receiver == o.receiver) {
                flag(format!(
                    "spc-order({}) repeats the line at {}:{}; one line per receiver per module",
                    o.receiver, first.file, first.line
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn facts(files: &[(&str, &str)]) -> (Vec<Module>, Vec<Finding>) {
        let files: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let mods = collect(&files);
        let found = check(&mods, &files);
        (mods, found)
    }

    #[test]
    fn module_key_is_crate_and_top_module() {
        let key = |p: &str| module_key(p);
        assert_eq!(
            key("crates/core/src/shard.rs"),
            ("core::shard".into(), true)
        );
        assert_eq!(
            key("crates/core/src/shard/mod.rs"),
            ("core::shard".into(), true)
        );
        assert_eq!(
            key("crates/core/src/shard/wild.rs"),
            ("core::shard".into(), false)
        );
        assert_eq!(key("crates/core/src/lib.rs"), ("core::lib".into(), false));
        assert_eq!(
            key("crates/conformance/src/concurrent.rs").0,
            "conformance::concurrent"
        );
        assert_eq!(
            key("crates/core/tests/ingest_props.rs").0,
            "core/tests/ingest_props"
        );
    }

    #[test]
    fn list_dir_is_hot_heater_is_not() {
        // The whole directory module takes its root file's marker.
        let (mods, found) = facts(&[
            (
                "crates/core/src/list/mod.rs",
                "//! Lists.\n//! spc-scope: hot-path\n",
            ),
            ("crates/core/src/list/lla.rs", "//! LLA.\n"),
            ("crates/core/src/heater.rs", "//! spc-scope: cold\n"),
        ]);
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(mods.len(), 2);
        assert!(mods[0].is_hot());
        assert!(!mods[1].is_hot());
    }

    #[test]
    fn marker_parsing() {
        let p = |s: &str| parse_marker(&scan(s));
        assert_eq!(p("//! spc-scope: hot-path\n"), Some("hot-path"));
        assert_eq!(p("//! Doc.\n//! spc-scope: cold\n"), Some("cold"));
        assert_eq!(p("//! spc-scope: warm\n"), Some("invalid"));
        assert_eq!(p("fn main() {}\n"), None);
    }

    #[test]
    fn core_module_roots_need_a_valid_marker() {
        let (_, found) = facts(&[
            ("crates/core/src/engine.rs", "fn f() {}\n"),
            ("crates/core/src/pool.rs", "//! spc-scope: warm\n"),
            ("crates/core/src/lib.rs", "pub mod engine;\n"),
            ("crates/workload/src/zipf.rs", "fn f() {}\n"),
        ]);
        let msgs: Vec<(&str, bool)> = found
            .iter()
            .map(|f| (f.file.as_str(), f.message.contains("invalid")))
            .collect();
        assert_eq!(
            msgs,
            vec![
                ("crates/core/src/engine.rs", false),
                ("crates/core/src/pool.rs", true)
            ]
        );
    }
}
