//! Hot-path scope: where the expensive lints apply, and the self-checks
//! that keep the scope tables honest.
//!
//! Every module under `crates/core/src` self-declares its scope with a
//! doc-comment marker near the top of the file:
//!
//! ```text
//! //! spc-scope: hot-path     (measured path: alloc/panic/clock lints apply)
//! //! spc-scope: cold         (setup, background threads, reporting)
//! ```
//!
//! [`self_check`] walks the real tree and cross-validates three things:
//! the markers exist and agree with the static fallback tables below
//! (which [`crate::analyze_source`] needs for fixture sources analyzed
//! under virtual paths, where there is no tree to read), every file the
//! tables or the ordering specs name exists on disk, and every core
//! module that touches `Ordering::` is covered by the atomic-ordering
//! scope — the exact bug class that let `heater.rs` atomics go
//! unreviewed for five PRs.

use std::path::Path;

use crate::Finding;

/// Files under `crates/core/src/` on the measured hot path. Must match
/// the `//! spc-scope: hot-path` markers ([`self_check`] enforces it).
pub const HOT_FILES: &[&str] = &[
    "addr.rs",
    "concurrent.rs",
    "engine.rs",
    "entry.rs",
    "ingest.rs",
    "pool.rs",
    "prefetch.rs",
    "seqsnap.rs",
    "shard.rs",
    "simd.rs",
    "sink.rs",
];

/// Files under `crates/core/src/` that are explicitly cold (setup,
/// background threads, replay, reporting). Must match the
/// `//! spc-scope: cold` markers.
pub const COLD_FILES: &[&str] = &["dynengine.rs", "heater.rs", "replay.rs", "stats.rs"];

/// Last path component.
pub fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Whether `path` (workspace-relative or virtual) is hot-path scope.
/// `list/` is hot as a directory (its `mod.rs` carries the marker for
/// the subtree).
pub fn is_hot(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    if !norm.contains("crates/core/src/") {
        return false;
    }
    norm.contains("/list/") || HOT_FILES.contains(&file_name(&norm))
}

/// Parses an `spc-scope` marker from a file's leading lines.
pub fn parse_marker(src: &str) -> Option<&'static str> {
    for line in src.lines().take(30) {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("//! spc-scope:") {
            return match rest.trim() {
                "hot-path" => Some("hot-path"),
                "cold" => Some("cold"),
                _ => Some("invalid"),
            };
        }
    }
    None
}

/// Module names declared in a `lib.rs` source (`pub mod x;` / `mod x;`).
pub fn mod_decls(lib_src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for l in crate::scan::scan(lib_src) {
        let code = l.code.trim();
        let rest = code
            .strip_prefix("pub mod ")
            .or_else(|| code.strip_prefix("mod "));
        if let Some(rest) = rest {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && rest[name.len()..].trim_start().starts_with(';') {
                out.push(name);
            }
        }
    }
    out
}

/// Workspace-level scope self-checks (see the module docs). `root` is
/// the workspace root.
pub fn self_check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let core_src = root.join("crates/core/src");
    let lib = core_src.join("lib.rs");
    let lib_path = "crates/core/src/lib.rs";
    let Ok(lib_src) = std::fs::read_to_string(&lib) else {
        out.push(Finding::new(
            lib_path,
            1,
            "scope-coverage",
            "crates/core/src/lib.rs not readable; scope checks cannot run",
        ));
        return out;
    };

    // 1. Static tables must name real files.
    for f in HOT_FILES.iter().chain(COLD_FILES) {
        if !core_src.join(f).is_file() {
            out.push(Finding::new(
                lib_path,
                1,
                "scope-coverage",
                format!("scope table names `{f}` which does not exist under crates/core/src"),
            ));
        }
    }
    for f in crate::ordering::scoped_files() {
        let p = core_src.join(f);
        if !p.is_file() {
            out.push(Finding::new(
                lib_path,
                1,
                "scope-coverage",
                format!(
                    "atomic-ordering spec names `{f}` which does not exist under crates/core/src"
                ),
            ));
            continue;
        }
        // Stale-entry check: every spec receiver must still appear in the
        // real file (fixture sources under virtual paths are exempt — a
        // snippet never mentions the whole table).
        if let Ok(src) = std::fs::read_to_string(&p) {
            let toks = crate::token::tokenize(&crate::scan::scan(&src));
            crate::ordering::stale_specs(&format!("crates/core/src/{f}"), &toks, &mut out);
        }
    }

    // 2. Every declared module carries a marker agreeing with the tables.
    for m in mod_decls(&lib_src) {
        let (file, rel): (std::path::PathBuf, String) = {
            let plain = core_src.join(format!("{m}.rs"));
            if plain.is_file() {
                (plain, format!("crates/core/src/{m}.rs"))
            } else {
                (
                    core_src.join(&m).join("mod.rs"),
                    format!("crates/core/src/{m}/mod.rs"),
                )
            }
        };
        let Ok(src) = std::fs::read_to_string(&file) else {
            out.push(Finding::new(
                lib_path,
                1,
                "scope-coverage",
                format!("declared module `{m}` has no {m}.rs or {m}/mod.rs under crates/core/src"),
            ));
            continue;
        };
        let fname = format!("{m}.rs");
        let dir_mod = file_name(&rel) == "mod.rs";
        match parse_marker(&src) {
            None => out.push(Finding::new(
                &rel,
                1,
                "scope-coverage",
                "missing `//! spc-scope: hot-path|cold` marker in the module's leading doc \
                 comment",
            )),
            Some("invalid") => out.push(Finding::new(
                &rel,
                1,
                "scope-coverage",
                "invalid spc-scope marker; use `hot-path` or `cold`",
            )),
            Some("hot-path") => {
                let in_table = HOT_FILES.contains(&fname.as_str()) || dir_mod && is_hot(&rel);
                if !in_table {
                    out.push(Finding::new(
                        &rel,
                        1,
                        "scope-coverage",
                        format!(
                            "marked hot-path but absent from the analyzer's HOT_FILES table \
                             (add `{fname}` so virtual-path analysis agrees)"
                        ),
                    ));
                }
            }
            Some(_) => {
                // cold: must not appear hot in the tables.
                if HOT_FILES.contains(&fname.as_str()) || (!dir_mod && is_hot(&rel)) {
                    out.push(Finding::new(
                        &rel,
                        1,
                        "scope-coverage",
                        format!("marked cold but `{fname}` is in the analyzer's HOT_FILES table"),
                    ));
                } else if !dir_mod && !COLD_FILES.contains(&fname.as_str()) {
                    out.push(Finding::new(
                        &rel,
                        1,
                        "scope-coverage",
                        format!("marked cold but `{fname}` is absent from the COLD_FILES table"),
                    ));
                }
            }
        }

        // 3. Atomics coverage: a module using `Ordering::` must be in the
        // atomic-ordering scope.
        if src.contains("Ordering::")
            && !crate::ordering::scoped_files().contains(&fname.as_str())
            && !dir_mod
        {
            out.push(Finding::new(
                &rel,
                1,
                "scope-coverage",
                format!(
                    "module uses `Ordering::` but `{fname}` is not covered by the \
                     atomic-ordering requirement table; add specs for its atomics"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_and_cold_tables_are_disjoint() {
        for f in HOT_FILES {
            assert!(!COLD_FILES.contains(f), "{f} in both tables");
        }
    }

    #[test]
    fn list_dir_is_hot_heater_is_not() {
        assert!(is_hot("crates/core/src/list/lla.rs"));
        assert!(is_hot("crates/core/src/shard.rs"));
        assert!(!is_hot("crates/core/src/heater.rs"));
        assert!(!is_hot("crates/workload/src/lib.rs"));
    }

    #[test]
    fn marker_parsing() {
        assert_eq!(parse_marker("//! spc-scope: hot-path\n"), Some("hot-path"));
        assert_eq!(
            parse_marker("//! Doc.\n//! spc-scope: cold\n"),
            Some("cold")
        );
        assert_eq!(parse_marker("//! spc-scope: warm\n"), Some("invalid"));
        assert_eq!(parse_marker("fn main() {}\n"), None);
    }

    #[test]
    fn mod_decl_extraction() {
        let decls = mod_decls("pub mod a;\nmod b;\n// mod c;\npub mod d { }\n");
        assert_eq!(decls, vec!["a", "b"]);
    }
}
