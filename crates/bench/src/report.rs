//! Machine-readable `matching_gate` results: the `spc-bench/1` writer.
//!
//! ```json
//! {"schema": "spc-bench/1", "quick": false, "host": {...}, "records": [...]}
//! ```
//!
//! Each record always carries `name` (string) and `ns_per_op` (number); a
//! point of the gate's matrix additionally sets `structure` (string),
//! `depth` (integer), `hit` (string: `front|mid|back|miss`), `wildcard`
//! (number: fraction of wildcard entries), `path` (string:
//! `packed|fieldwise`), `scan_kind` (string), `bytes_per_op` (number:
//! simulated bytes touched per operation) and the cachesim columns
//! `lines_per_op` / `l1_hit_pct` / `l3_hit_pct` (numbers). The schema is
//! stable and consumed by CI. The writer is hand-rolled (the workspace is
//! offline — no serde); only the field names listed here are emitted, and
//! optional fields that were never set are omitted entirely, never emitted
//! as `null`.

use std::path::Path;

/// One benchmark measurement. `name` and `ns_per_op` are always present;
/// the remaining fields describe a point in the `matching_gate` workload
/// matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// Unique benchmark label (`gate/structure/depth/hit/wildcard/kind`).
    pub name: String,
    /// Best-mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Data structure under test (`baseline`, `lla2`, `bins`, ...).
    pub structure: Option<String>,
    /// Live queue depth the operation ran against.
    pub depth: Option<u64>,
    /// Hit-position label: `front`, `mid`, `back`, or `miss`.
    pub hit: Option<String>,
    /// Fraction of stored entries carrying a source wildcard.
    pub wildcard: Option<f64>,
    /// Code path measured: `packed` (current) or `fieldwise` (pre-PR scan).
    pub path: Option<String>,
    /// Slab-scan kernel the row ran under: `fieldwise` (no packed keys at
    /// all), `packed` (scalar portable), `simd128`, or `simd256`.
    pub scan_kind: Option<String>,
    /// Simulated bytes touched per operation (from a `CountingSink` twin).
    pub bytes_per_op: Option<f64>,
    /// Cache lines touched per operation — demand line references in an
    /// `spc-cachesim` replay of the same seeded op stream (repeat touches
    /// count; this attributes timing wins: same lines + faster = compute).
    pub lines_per_op: Option<f64>,
    /// Percent of simulated loads served from L1 in the cachesim replay.
    pub l1_hit_pct: Option<f64>,
    /// Percent of simulated loads served at or above L3 (i.e. anywhere in
    /// cache — the complement of the DRAM-load fraction).
    pub l3_hit_pct: Option<f64>,
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_num(out: &mut String, x: f64) {
    // The schema has no use for non-finite values; clamp rather than emit
    // invalid JSON if a pathological measurement sneaks through.
    if x.is_finite() {
        out.push_str(&format!("{x:.3}"));
    } else {
        out.push_str("0.0");
    }
}

/// Renders `records` with the stable `spc-bench/1` schema.
pub fn to_json(records: &[Record], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"spc-bench/1\",\n  \"quick\": ");
    out.push_str(if quick { "true" } else { "false" });
    // Every timing below depends on how many hardware threads the host
    // handed the process (0: the platform would not say).
    let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!(",\n  \"host\": {{\"hardware_threads\": {hw}}}"));
    out.push_str(",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_escaped(&mut out, &r.name);
        if let Some(s) = &r.structure {
            out.push_str(", \"structure\": ");
            push_escaped(&mut out, s);
        }
        if let Some(d) = r.depth {
            out.push_str(&format!(", \"depth\": {d}"));
        }
        if let Some(h) = &r.hit {
            out.push_str(", \"hit\": ");
            push_escaped(&mut out, h);
        }
        if let Some(w) = r.wildcard {
            out.push_str(", \"wildcard\": ");
            push_num(&mut out, w);
        }
        if let Some(p) = &r.path {
            out.push_str(", \"path\": ");
            push_escaped(&mut out, p);
        }
        if let Some(k) = &r.scan_kind {
            out.push_str(", \"scan_kind\": ");
            push_escaped(&mut out, k);
        }
        out.push_str(", \"ns_per_op\": ");
        push_num(&mut out, r.ns_per_op);
        if let Some(b) = r.bytes_per_op {
            out.push_str(", \"bytes_per_op\": ");
            push_num(&mut out, b);
        }
        for (key, v) in [
            ("lines_per_op", r.lines_per_op),
            ("l1_hit_pct", r.l1_hit_pct),
            ("l3_hit_pct", r.l3_hit_pct),
        ] {
            if let Some(v) = v {
                out.push_str(&format!(", \"{key}\": "));
                push_num(&mut out, v);
            }
        }
        out.push('}');
        if i + 1 != records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `records` as JSON to `path`.
pub fn write_json(path: &Path, records: &[Record], quick: bool) -> std::io::Result<()> {
    std::fs::write(path, to_json(records, quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(name: &str, ns_per_op: f64) -> Record {
        Record {
            name: name.into(),
            ns_per_op,
            ..Record::default()
        }
    }

    #[test]
    fn bare_record_emits_only_required_fields() {
        let r = bare("matchlist/search/64", 123.4567);
        let json = to_json(&[r], false);
        assert!(json.contains("\"schema\": \"spc-bench/1\""));
        assert!(json.contains("\"quick\": false"));
        assert!(json.contains("{\"name\": \"matchlist/search/64\", \"ns_per_op\": 123.457}"));
        assert!(!json.contains("structure"));
        assert!(!json.contains("bytes_per_op"));
    }

    #[test]
    fn matrix_record_emits_every_field_in_order() {
        let r = Record {
            name: "gate/baseline/256/back".into(),
            ns_per_op: 1000.0,
            structure: Some("baseline".into()),
            depth: Some(256),
            hit: Some("back".into()),
            wildcard: Some(0.125),
            path: Some("packed".into()),
            scan_kind: Some("simd256".into()),
            bytes_per_op: Some(24576.0),
            lines_per_op: Some(384.5),
            l1_hit_pct: Some(97.25),
            l3_hit_pct: Some(99.9),
        };
        let json = to_json(&[r], true);
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains(
            "{\"name\": \"gate/baseline/256/back\", \"structure\": \"baseline\", \
             \"depth\": 256, \"hit\": \"back\", \"wildcard\": 0.125, \
             \"path\": \"packed\", \"scan_kind\": \"simd256\", \
             \"ns_per_op\": 1000.000, \"bytes_per_op\": 24576.000, \
             \"lines_per_op\": 384.500, \"l1_hit_pct\": 97.250, \
             \"l3_hit_pct\": 99.900}"
        ));
    }

    #[test]
    fn strings_are_escaped_and_nonfinite_clamped() {
        let r = bare("quote\"back\\slash\nnl", f64::NAN);
        let json = to_json(&[r], false);
        assert!(json.contains("\"quote\\\"back\\\\slash\\nnl\""));
        assert!(json.contains("\"ns_per_op\": 0.0"));
    }
}
