//! Fixture suite: every rule must catch its seeded violation with a
//! `file:line` diagnostic, and the real workspace tree must be clean.
//!
//! The fixtures live in `tests/fixtures/` (excluded from [`spc_analyzer::run`]'s
//! walk) and are analyzed under *virtual paths* so the path-scoped rules
//! (`shard.rs`, `list/*.rs`, hot-path modules) engage.

use std::path::Path;

use spc_analyzer::{analyze_source, Finding};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn rule_findings<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

fn assert_diagnostic_shape(f: &Finding, virtual_path: &str) {
    let rendered = f.to_string();
    assert!(
        rendered.starts_with(&format!("{}:{}:", virtual_path, f.line)),
        "diagnostic must lead with file:line, got {rendered}"
    );
    assert!(f.line > 0, "line numbers are 1-based");
}

#[test]
fn missing_safety_is_caught_once() {
    let path = "crates/demo/src/lib.rs";
    let findings = analyze_source(path, &fixture("missing_safety.rs"));
    let hits = rule_findings(&findings, "safety-comment");
    assert_eq!(hits.len(), 1, "exactly the unjustified block: {findings:?}");
    assert_eq!(hits[0].line, 4, "the seeded `unsafe {{ *p }}` line");
    assert_diagnostic_shape(hits[0], path);
    assert_eq!(findings.len(), 1, "no other rule fires: {findings:?}");
}

#[test]
fn ungated_intrinsic_is_caught() {
    let path = "crates/demo/src/warm.rs";
    let findings = analyze_source(path, &fixture("ungated_intrinsic.rs"));
    let hits = rule_findings(&findings, "intrinsic-gating");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 6, "the `_mm_prefetch` call line");
    assert!(hits[0].message.contains("cfg(target_arch"));
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn gated_intrinsic_without_fallback_is_caught() {
    let path = "crates/demo/src/warm.rs";
    let src = "#[cfg(target_arch = \"x86_64\")]\npub fn warm(p: *const u8) {\n    \
               // SAFETY: prefetch never faults.\n    \
               unsafe { core::arch::x86_64::_mm_prefetch::<0>(p as *const i8) };\n}\n";
    let findings = analyze_source(path, src);
    let hits = rule_findings(&findings, "intrinsic-gating");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("portable fallback"));
}

#[test]
fn simd_kernel_without_portable_fallback_is_caught() {
    let path = "crates/demo/src/simd.rs";
    let findings = analyze_source(path, &fixture("simd_nofallback.rs"));
    let hits = rule_findings(&findings, "intrinsic-gating");
    assert_eq!(
        hits.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![7, 10, 11],
        "the `arch::x86_64` import and both `_mm256_` call lines: {findings:?}"
    );
    for h in &hits {
        assert!(h.message.contains("portable fallback"), "{h}");
        assert_diagnostic_shape(h, path);
    }
    assert_eq!(findings.len(), 3, "no other rule fires: {findings:?}");
}

#[test]
fn shipped_simd_module_passes() {
    // The real kernels must satisfy the discipline the fixture violates:
    // `cfg(target_arch)` gate + `cfg(not(target_arch …))` fallback, SAFETY
    // on every unsafe, and no clocks/randomness (simd.rs is hot-path).
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/simd.rs");
    let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    let findings = analyze_source("crates/core/src/simd.rs", &src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn nested_shard_lock_is_caught() {
    let path = "crates/core/src/shard.rs";
    let findings = analyze_source(path, &fixture("nested_lock.rs"));
    let hits = rule_findings(&findings, "lock-discipline");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 8, "the shard acquisition under the wild lock");
    assert!(hits[0].message.contains("Wild"));
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn shard_then_wild_is_legal() {
    let path = "crates/core/src/shard.rs";
    let src = "impl E {\n    fn ok(&self) {\n        let g = self.shards[0].lock();\n        \
               let w = self.wild.lock();\n        let _ = (&g, &w);\n    }\n}\n";
    let findings = analyze_source(path, src);
    assert!(
        rule_findings(&findings, "lock-discipline").is_empty(),
        "shards-then-wild is the documented order: {findings:?}"
    );
}

#[test]
fn drop_releases_a_guard() {
    let path = "crates/core/src/shard.rs";
    let src = "impl E {\n    fn ok(&self) {\n        let w = self.wild.lock();\n        \
               drop(w);\n        let g = self.shards[0].lock();\n        let _ = g;\n    }\n}\n";
    let findings = analyze_source(path, src);
    assert!(
        rule_findings(&findings, "lock-discipline").is_empty(),
        "dropping the wild guard re-legalizes shard acquisition: {findings:?}"
    );
}

#[test]
fn relaxed_on_guarded_atomic_is_caught() {
    let path = "crates/core/src/shard.rs";
    let findings = analyze_source(path, &fixture("relaxed_guarded.rs"));
    let hits = rule_findings(&findings, "atomic-ordering");
    assert_eq!(
        hits.len(),
        3,
        "two guarded atomics + missing-table-entry atomic: {findings:?}"
    );
    assert_eq!(hits[0].line, 7, "Relaxed on wild_len");
    assert!(hits[0].message.contains("wild_len"));
    assert!(hits[0].message.contains("SeqCst"));
    assert_eq!(
        hits[1].line, 11,
        "Relaxed on an atomic missing a requirement-table entry"
    );
    assert!(hits[1].message.contains("bananas"));
    assert_eq!(hits[2].line, 19, "Relaxed on an indexed wild_slots word");
    assert!(hits[2].message.contains("wild_slots"));
    assert!(hits[2].message.contains("SeqCst"));
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn sink_bypass_is_caught() {
    let path = "crates/core/src/list/bad.rs";
    let findings = analyze_source(path, &fixture("sink_bypass.rs"));
    let hits = rule_findings(&findings, "sink-routing");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 6, "the bypassing search_remove signature");
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn hot_path_clock_is_caught() {
    let path = "crates/core/src/engine.rs";
    let findings = analyze_source(path, &fixture("hotpath_clock.rs"));
    let hits = rule_findings(&findings, "hot-path-determinism");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 6, "the Instant::now line");
    assert!(hits[0].message.contains("Instant::now"));
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn clock_outside_hot_path_is_fine() {
    // Same source under heater.rs (background thread, not measured) passes.
    let findings = analyze_source("crates/core/src/heater.rs", &fixture("hotpath_clock.rs"));
    assert!(rule_findings(&findings, "hot-path-determinism").is_empty());
}

#[test]
fn rule_tokens_in_comments_and_strings_do_not_fire() {
    let path = "crates/core/src/shard.rs";
    let src = "// unsafe Ordering::Relaxed _mm_prefetch Instant::now\n\
               fn name() -> &'static str {\n    \"unsafe Instant::now\"\n}\n";
    let findings = analyze_source(path, src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn workspace_tree_is_clean() {
    // CARGO_MANIFEST_DIR = crates/analyzer; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let result = spc_analyzer::run(&root).expect("walk workspace");
    assert!(
        result.findings.is_empty(),
        "the real tree must pass its own gates:\n{}",
        result
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        result.dot.contains("digraph lock_order"),
        "the run must also produce the lock-order DOT artifact"
    );
}

#[test]
fn ordering_spec_rationales_are_nonempty() {
    for e in spc_analyzer::ordering::SPECS {
        assert!(
            !e.rationale.trim().is_empty(),
            "{}:{} needs a rationale",
            e.file,
            e.receiver
        );
    }
}

// ---------------------------------------------------------------------------
// Seqlock writer protocol (SPC07)
// ---------------------------------------------------------------------------

#[test]
fn seqlock_reordered_stamp_is_caught() {
    let path = "crates/core/src/seqsnap.rs";
    let findings = analyze_source(path, &fixture("seqlock_reorder.rs"));
    let hits = rule_findings(&findings, "seqlock-protocol");
    assert!(!hits.is_empty(), "{findings:?}");
    assert!(
        hits.iter().any(|f| f.message.contains("stamp")),
        "the mutation-before-stamp order must be named: {hits:?}"
    );
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn seqlock_skipped_end_is_caught() {
    let path = "crates/core/src/seqsnap.rs";
    let findings = analyze_source(path, &fixture("seqlock_skip_end.rs"));
    let hits = rule_findings(&findings, "seqlock-protocol");
    assert!(!hits.is_empty(), "{findings:?}");
    assert!(
        hits.iter()
            .any(|f| f.message.contains("window still open") || f.message.contains("end")),
        "the open write window must be reported: {hits:?}"
    );
}

#[test]
fn seqlock_correct_writer_is_clean() {
    let path = "crates/core/src/seqsnap.rs";
    let findings = analyze_source(path, &fixture("seqlock_ok.rs"));
    assert!(
        rule_findings(&findings, "seqlock-protocol").is_empty(),
        "begin → mutate → stamp → end is the documented protocol: {findings:?}"
    );
}

// ---------------------------------------------------------------------------
// SPSC ring protocol (SPC08)
// ---------------------------------------------------------------------------

#[test]
fn spsc_dual_producer_is_caught() {
    let path = "crates/core/src/ingest.rs";
    let findings = analyze_source(path, &fixture("spsc_dual_producer.rs"));
    let hits = rule_findings(&findings, "spsc-protocol");
    assert!(!hits.is_empty(), "{findings:?}");
    assert!(
        hits.iter().any(|f| f.message.contains("producer")),
        "{hits:?}"
    );
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn spsc_slot_write_after_publish_is_caught() {
    let path = "crates/core/src/ingest.rs";
    let findings = analyze_source(path, &fixture("spsc_reorder.rs"));
    let hits = rule_findings(&findings, "spsc-protocol");
    assert!(!hits.is_empty(), "{findings:?}");
    assert!(
        hits.iter().any(|f| f.message.contains("advance")),
        "the slot-after-advance order must be named: {hits:?}"
    );
}

#[test]
fn spsc_correct_publish_order_is_clean() {
    let path = "crates/core/src/ingest.rs";
    let findings = analyze_source(path, &fixture("spsc_ok.rs"));
    assert!(
        rule_findings(&findings, "spsc-protocol").is_empty(),
        "slots-then-tail / slots-then-head is the documented order: {findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Lock-order graph (SPC09)
// ---------------------------------------------------------------------------

#[test]
fn lock_order_cycle_is_caught() {
    let path = "crates/core/src/engine.rs";
    let findings = analyze_source(path, &fixture("lock_cycle.rs"));
    let hits = rule_findings(&findings, "lock-order-graph");
    assert!(!hits.is_empty(), "{findings:?}");
    assert!(
        hits[0].message.contains("cycle"),
        "the cycle must be spelled out: {hits:?}"
    );
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn consistent_lock_order_has_no_cycle() {
    let path = "crates/core/src/engine.rs";
    let src = "impl E {\n    fn a(&self) {\n        let g1 = self.alpha.lock();\n        \
               let g2 = self.beta.lock();\n        let _ = (&g1, &g2);\n    }\n    \
               fn b(&self) {\n        let g1 = self.alpha.lock();\n        \
               let g2 = self.beta.lock();\n        let _ = (&g1, &g2);\n    }\n}\n";
    let findings = analyze_source(path, src);
    assert!(
        rule_findings(&findings, "lock-order-graph").is_empty(),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Hot-path cost lints (SPC10–SPC11)
// ---------------------------------------------------------------------------

#[test]
fn hot_path_alloc_is_caught() {
    let path = "crates/core/src/shard.rs";
    let findings = analyze_source(path, &fixture("hot_alloc.rs"));
    let hits = rule_findings(&findings, "hot-path-alloc");
    assert_eq!(hits.len(), 2, "the vec! and the growing push: {findings:?}");
    assert_diagnostic_shape(hits[0], path);
}

#[test]
fn hot_path_panic_is_caught() {
    let path = "crates/core/src/shard.rs";
    let findings = analyze_source(path, &fixture("hot_panic.rs"));
    let hits = rule_findings(&findings, "hot-path-panic");
    assert_eq!(
        hits.len(),
        2,
        "the unwrap and the panic!; the lock-poisoning expect is exempt: {findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Suppressions and machine-readable output (SPC14 + diag)
// ---------------------------------------------------------------------------

#[test]
fn unused_suppression_fails_the_run() {
    let path = "crates/core/src/shard.rs";
    let findings = analyze_source(path, &fixture("unused_allow.rs"));
    let hits = rule_findings(&findings, "suppression-hygiene");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("unused suppression"), "{hits:?}");
}

#[test]
fn suppression_with_rationale_silences_a_finding() {
    let path = "crates/core/src/shard.rs";
    let src = "impl E {\n    fn probe(&self) {\n        \
               // spc-allow(hot-path-alloc): scratch for a cold diagnostics branch\n        \
               let v = vec![0u8; 4];\n        let _ = v;\n    }\n}\n";
    let findings = analyze_source(path, src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn json_output_is_well_formed() {
    let findings = analyze_source("crates/core/src/engine.rs", &fixture("hotpath_clock.rs"));
    assert!(!findings.is_empty());
    let json = spc_analyzer::diag::to_json(&findings);
    assert!(json.contains("\"schema\": \"spc-analyzer/1\""), "{json}");
    assert!(json.contains("\"rule_id\": \"SPC06\""), "{json}");
}

#[test]
fn baseline_subtracts_known_findings_only() {
    let findings = analyze_source("crates/core/src/engine.rs", &fixture("hotpath_clock.rs"));
    let baseline_text = spc_analyzer::diag::write_baseline(&findings);
    let entries = spc_analyzer::diag::parse_baseline(&baseline_text).expect("round-trip");
    let diffed = spc_analyzer::diag::diff_baseline(findings.clone(), &entries);
    assert!(diffed.is_empty(), "baselined findings are subtracted");
    let fresh = analyze_source("crates/core/src/simd.rs", &fixture("hotpath_clock.rs"));
    let still_there = spc_analyzer::diag::diff_baseline(fresh, &entries);
    assert!(
        !still_there.is_empty(),
        "findings not in the baseline must survive the diff"
    );
}

#[test]
fn every_rule_has_a_stable_registry_entry() {
    let ids: Vec<&str> = spc_analyzer::diag::RULES.iter().map(|r| r.id).collect();
    let expected: Vec<String> = (1..=14)
        .filter(|n| *n != 12) // retired, never reused
        .map(|n| format!("SPC{n:02}"))
        .collect();
    assert_eq!(ids, expected, "registry must stay append-only");
}
