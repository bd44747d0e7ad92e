//! Diagnostics infrastructure: the stable rule registry, inline
//! `spc-allow` suppressions, the committed findings baseline, and the
//! machine-readable JSON output.
//!
//! Rule IDs are append-only: a rule keeps its `SPCnn` for life so
//! baselines, suppressions and external tooling never re-key, and a
//! deleted rule's ID is never handed out again. Names may be referenced in
//! suppressions interchangeably with IDs.

use crate::scan::Line;
use crate::Finding;

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier (`SPC07`). Never reused, never renumbered.
    pub id: &'static str,
    /// Human-readable name (`seqlock-protocol`), used in diagnostics and
    /// accepted in `spc-allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the JSON report.
    pub desc: &'static str,
}

/// The registry. Ordering is presentation order only; IDs are stable.
pub const RULES: &[Rule] = &[
    Rule {
        id: "SPC01",
        name: "safety-comment",
        desc: "every `unsafe` carries an adjacent `// SAFETY:` justification \
               (or `# Safety` doc section for declarations)",
    },
    Rule {
        id: "SPC02",
        name: "intrinsic-gating",
        desc: "arch intrinsics behind `cfg(target_arch = \"x86_64\")` with a \
               portable fallback in the same module",
    },
    Rule {
        id: "SPC03",
        name: "lock-discipline",
        desc: "shard.rs lock order: shards first (index order or exactly \
               one), wildcard lane last, no nested shard locks",
    },
    Rule {
        id: "SPC04",
        name: "atomic-ordering",
        desc: "every atomic op in protocol scope satisfies the per-field \
               ordering requirement table (SeqCst protocol words, AcqRel \
               flags, rationale'd Relaxed telemetry)",
    },
    Rule {
        id: "SPC05",
        name: "sink-routing",
        desc: "list/*.rs functions taking an AccessSink charge or forward it \
               when touching entry storage",
    },
    Rule {
        id: "SPC06",
        name: "hot-path-determinism",
        desc: "no clocks or ambient randomness in hot-path modules",
    },
    Rule {
        id: "SPC07",
        name: "seqlock-protocol",
        desc: "seqlock writer protocol: version-odd (begin) before row \
               mutations, one seq stamp before mutations, version-even (end) \
               on every path out",
    },
    Rule {
        id: "SPC08",
        name: "spsc-protocol",
        desc: "SPSC ring publish/consume order: slot words before tail \
               advance, slot reads before head advance, plain stores only \
               (RMW on the indices is a multi-producer idiom), one producer \
               per ring",
    },
    Rule {
        id: "SPC09",
        name: "lock-order-graph",
        desc: "the workspace acquired-while-held graph is acyclic",
    },
    Rule {
        id: "SPC10",
        name: "hot-path-alloc",
        desc: "no allocation on the measured hot path (Box::new, vec!/format!, \
               push without capacity, to_vec/to_string)",
    },
    Rule {
        id: "SPC11",
        name: "hot-path-panic",
        desc: "no panic!/unwrap/expect on the measured hot path outside \
               debug assertions and lock-poisoning propagation",
    },
    // SPC12 `inline-dispatch` is retired: it linted `#[inline]` on the
    // `kind: ScanKind` wrapper family, of which one seam is left, and never
    // convicted anything. The ID stays unused.
    Rule {
        id: "SPC13",
        name: "scope-coverage",
        desc: "analyzer scope tables match the tree: every scoped file \
               exists, every module carries a `//! spc-scope:` marker, every \
               atomics-using core module is under an ordering rule",
    },
    Rule {
        id: "SPC14",
        name: "suppression-hygiene",
        desc: "every `spc-allow` names a known rule, carries a rationale, \
               and suppresses at least one finding",
    },
];

/// Resolves a rule name to its stable ID. Panics on unknown names —
/// rule constructors only pass registry names, so this is a
/// programming-error guard, not an input validation.
pub fn rule_id(name: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.id)
        .unwrap_or_else(|| panic!("unregistered rule name: {name}"))
}

/// Resolves an ID or name (as written in `spc-allow(...)`) to the rule.
pub fn lookup_rule(key: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == key || r.name == key)
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// One `// spc-allow(RULE): rationale` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The key as written (ID or name); may be unknown (hygiene finding).
    pub key: String,
    /// Rationale text after the colon.
    pub rationale: String,
    /// Line range `(first, last)` of findings this suppression covers.
    pub covers: (usize, usize),
    /// Whether the comment had code on the same line (inline form).
    pub inline: bool,
}

/// Parses every suppression in `lines`. An *inline* suppression
/// (trailing a code line) covers exactly its own line. A *standalone*
/// suppression (comment-only line) covers the next statement: from the
/// first following code line through the line that terminates it
/// (`;`/`{`/`}`), bounded at 8 lines so a forgotten comment cannot
/// blanket a file.
pub fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        // The marker must be the first thing in the comment (after the
        // `//`/`/*` opener) — prose that merely *mentions* the syntax,
        // like this crate's own docs, is not a suppression.
        let stripped = l
            .comment
            .trim_start()
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        let Some(rest) = stripped.strip_prefix("spc-allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let key = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let rationale = after.strip_prefix(':').unwrap_or("").trim().to_string();
        let inline = !l.code.trim().is_empty();
        let covers = if inline {
            (i + 1, i + 1)
        } else {
            // Standalone: cover the next statement.
            let mut first = None;
            let mut last = i + 1;
            for (j, nl) in lines.iter().enumerate().skip(i + 1).take(8) {
                let code = nl.code.trim();
                if code.is_empty() {
                    if first.is_none() && nl.raw.trim().is_empty() {
                        break; // blank line ends the window before any code
                    }
                    continue;
                }
                if first.is_none() {
                    first = Some(j + 1);
                }
                last = j + 1;
                if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
                    break;
                }
            }
            match first {
                Some(f) => (f, last),
                None => (i + 1, i + 1),
            }
        };
        out.push(Suppression {
            line: i + 1,
            key,
            rationale,
            covers,
            inline,
        });
    }
    out
}

/// Applies `sups` to `findings`: covered findings are removed, the
/// suppressions that removed them are marked used via the returned
/// per-suppression flags. [`rule_id`] `SPC14` findings are never
/// suppressible — hygiene findings about suppressions must not be
/// silenceable by more suppressions.
pub fn apply_suppressions(
    findings: Vec<Finding>,
    sups: &[Suppression],
) -> (Vec<Finding>, Vec<bool>) {
    let mut used = vec![false; sups.len()];
    let kept = findings
        .into_iter()
        .filter(|f| {
            if f.rule_id == "SPC14" {
                return true;
            }
            for (si, s) in sups.iter().enumerate() {
                let matches_rule =
                    lookup_rule(&s.key).is_some_and(|r| r.id == f.rule_id || r.name == f.rule);
                if matches_rule && f.line >= s.covers.0 && f.line <= s.covers.1 {
                    used[si] = true;
                    return false;
                }
            }
            true
        })
        .collect();
    (kept, used)
}

/// Hygiene findings for a file's suppressions: unknown rule key, empty
/// rationale, and (given the usage flags from [`apply_suppressions`])
/// suppressions that silenced nothing.
pub fn suppression_hygiene(path: &str, sups: &[Suppression], used: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (si, s) in sups.iter().enumerate() {
        match lookup_rule(&s.key) {
            None => {
                out.push(Finding::new(
                    path,
                    s.line,
                    "suppression-hygiene",
                    format!("spc-allow names unknown rule `{}`", s.key),
                ));
                continue;
            }
            Some(r) if r.id == "SPC14" => {
                out.push(Finding::new(
                    path,
                    s.line,
                    "suppression-hygiene",
                    "suppression-hygiene findings cannot be suppressed",
                ));
                continue;
            }
            Some(_) => {}
        }
        if s.rationale.is_empty() {
            out.push(Finding::new(
                path,
                s.line,
                "suppression-hygiene",
                format!("spc-allow({}) has no rationale after the colon", s.key),
            ));
            continue;
        }
        if !used[si] {
            out.push(Finding::new(
                path,
                s.line,
                "suppression-hygiene",
                format!(
                    "unused suppression: spc-allow({}) matched no finding on \
                     lines {}-{}; delete it or fix its coverage",
                    s.key, s.covers.0, s.covers.1
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// A baseline entry: one accepted pre-existing finding, matched by
/// `(file, rule_id, message)` — line numbers churn with unrelated edits,
/// so they are recorded for humans but ignored for matching.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    pub file: String,
    pub rule_id: String,
    pub message: String,
}

/// Parses the committed baseline JSON (the exact shape
/// [`write_baseline`] emits). Returns `Err` with a human-readable
/// description on malformed input.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    if !text.contains("\"spc-analyzer-baseline/1\"") {
        return Err("baseline missing schema marker `spc-analyzer-baseline/1`".into());
    }
    let mut out = Vec::new();
    let Some(arr) = text.find("\"findings\"") else {
        return Err("baseline missing `findings` array".into());
    };
    let mut rest = &text[arr..];
    while let Some(obj_start) = rest.find('{') {
        let Some(obj_end) = rest[obj_start..].find('}') else {
            break;
        };
        let obj = &rest[obj_start..obj_start + obj_end];
        let file = json_str_field(obj, "file");
        let rule_id = json_str_field(obj, "rule_id");
        let message = json_str_field(obj, "message");
        if let (Some(file), Some(rule_id), Some(message)) = (file, rule_id, message) {
            out.push(BaselineEntry {
                file,
                rule_id,
                message,
            });
        }
        rest = &rest[obj_start + obj_end + 1..];
    }
    Ok(out)
}

/// Extracts `"key": "value"` from a flat JSON object body, unescaping.
fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let kpos = obj.find(&pat)?;
    let rest = obj[kpos + pat.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if let Some(ch) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                        out.push(ch);
                    }
                }
                other => out.push(other),
            },
            _ => out.push(c),
        }
    }
    None
}

/// Subtracts the baseline from `findings` as a multiset keyed on
/// `(file, rule_id, message)`: each baseline entry absorbs at most one
/// finding. Returns the new findings (not in the baseline).
pub fn diff_baseline(findings: Vec<Finding>, baseline: &[BaselineEntry]) -> Vec<Finding> {
    let mut budget: Vec<(&BaselineEntry, usize)> = Vec::new();
    for b in baseline {
        match budget.iter_mut().find(|(e, _)| *e == b) {
            Some((_, n)) => *n += 1,
            None => budget.push((b, 1)),
        }
    }
    findings
        .into_iter()
        .filter(|f| {
            for (b, n) in budget.iter_mut() {
                if *n > 0 && b.file == f.file && b.rule_id == f.rule_id && b.message == f.message {
                    *n -= 1;
                    return false;
                }
            }
            true
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Writers: JSON escaping, findings JSON, baseline JSON
// ---------------------------------------------------------------------------

/// JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "    {{\"file\": \"{}\", \"line\": {}, \"rule_id\": \"{}\", \"rule\": \"{}\", \"message\": \"{}\"}}",
        json_escape(&f.file),
        f.line,
        f.rule_id,
        f.rule,
        json_escape(&f.message)
    )
}

/// Renders findings as the `spc-analyzer/1` JSON report.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"schema\": \"spc-analyzer/1\",\n  \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"name\": \"{}\", \"description\": \"{}\"}}{}\n",
            r.id,
            r.name,
            json_escape(r.desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&finding_json(f));
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders findings as the committed baseline format.
pub fn write_baseline(findings: &[Finding]) -> String {
    let mut out =
        String::from("{\n  \"schema\": \"spc-analyzer-baseline/1\",\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&finding_json(f));
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn registry_ids_are_unique_and_sequential() {
        // Sequential but for retired SPC12, whose gap stays.
        let live = (1..).filter(|n| *n != 12).map(|n| format!("SPC{n:02}"));
        for (r, id) in RULES.iter().zip(live) {
            assert_eq!(r.id, id);
            assert!(RULES.iter().filter(|o| o.name == r.name).count() == 1);
        }
    }

    #[test]
    fn inline_and_standalone_suppressions_cover_correctly() {
        let src = "let x = p.unwrap(); // spc-allow(SPC11): poisoned is fatal\n\
                   // spc-allow(hot-path-alloc): grow path, amortized\n\
                   let v =\n    vec![0; n];\n";
        let sups = parse_suppressions(&scan(src));
        assert_eq!(sups.len(), 2);
        assert!(sups[0].inline);
        assert_eq!(sups[0].covers, (1, 1));
        assert!(!sups[1].inline);
        assert_eq!(sups[1].covers, (3, 4), "covers the whole statement");
        assert_eq!(sups[1].rationale, "grow path, amortized");
    }

    #[test]
    fn apply_marks_usage_and_never_suppresses_hygiene() {
        let src = "x(); // spc-allow(SPC11): fine\ny(); // spc-allow(SPC14): nope\n";
        let sups = parse_suppressions(&scan(src));
        let findings = vec![
            Finding::new("f.rs", 1, "hot-path-panic", "boom"),
            Finding::new("f.rs", 2, "suppression-hygiene", "meta"),
        ];
        let (kept, used) = apply_suppressions(findings, &sups);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "suppression-hygiene");
        assert_eq!(used, vec![true, false]);
    }

    #[test]
    fn baseline_roundtrip_and_multiset_diff() {
        let f1 = Finding::new("a.rs", 3, "hot-path-panic", "msg \"quoted\"");
        let f2 = Finding::new("a.rs", 9, "hot-path-panic", "msg \"quoted\"");
        let f3 = Finding::new("b.rs", 1, "hot-path-alloc", "other");
        let text = write_baseline(std::slice::from_ref(&f1));
        let base = parse_baseline(&text).unwrap();
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].message, "msg \"quoted\"");
        // One baseline entry absorbs exactly one of the two identical
        // findings; the second and the unrelated one survive.
        let left = diff_baseline(vec![f1, f2, f3], &base);
        assert_eq!(left.len(), 2);
    }

    #[test]
    fn json_contains_schema_and_locations() {
        let f = Finding::new("a.rs", 3, "seqlock-protocol", "m");
        let j = to_json(&[f]);
        assert!(j.contains("\"spc-analyzer/1\""));
        assert!(j.contains("\"SPC07\""));
        assert!(j.contains("\"line\": 3"));
    }
}
