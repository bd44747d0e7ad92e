//! Atomic-ordering discipline: every atomic operation in protocol scope
//! must satisfy the per-field requirement table below.
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
//!   the entry documents *why* relaxation is sound.
//!
//! An atomic op on a receiver with no entry is an error when it uses
//! `Relaxed` (new telemetry must be argued into the table), and an op
//! whose receiver the scanner cannot attribute is an error outright.
//! Test-module code is exempt — test counters synchronize by `join`.

use crate::items::FnItem;
use crate::scopes::file_name;
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

/// One row of the requirement table.
#[derive(Debug, Clone, Copy)]
pub struct AtomicSpec {
    /// File name (last path component) the entry applies to.
    pub file: &'static str,
    /// The atomic field/binding as written before `.load(`/`.store(`/….
    pub receiver: &'static str,
    /// Required strength.
    pub req: Req,
    /// Why. Must be non-empty (pinned by tests).
    pub rationale: &'static str,
}

/// The requirement table. Grouped by file; every atomics-bearing module
/// under `crates/core/src` must appear here ([`crate::scopes::self_check`]
/// enforces the inverse direction).
pub const SPECS: &[AtomicSpec] = &[
    // -- shard.rs: wildcard-lane protocol + lock/snapshot telemetry -----
    AtomicSpec {
        file: "shard.rs",
        receiver: "seq",
        req: Req::SeqCst,
        rationale: "global linearization stamp; the wildcard fast path's soundness \
                    argument orders seq stamps against umq_counts/wild_slots in the \
                    single SeqCst total order",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "wild_len",
        req: Req::SeqCst,
        rationale: "wildcard-lane length, bumped and dropped in one step with the \
                    entry's wild_slots word, which carries the store-buffering pair \
                    with umq_counts between posters and arrivals: Relaxed or even \
                    AcqRel there admits the r1=r2=0 outcome that loses a wildcard \
                    crossing, and the two words must never be seen to disagree in \
                    the order validate() and queue_lens read them",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "wild_slots",
        req: Req::SeqCst,
        rationale: "store-buffering pair with umq_counts, per slot; see wild_len",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "umq_counts",
        req: Req::SeqCst,
        rationale: "store-buffering pair with wild_slots; see wild_len",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "acquisitions",
        req: Req::Relaxed,
        rationale: "lock-acquisition tally surfaced in LockStats, committed through \
                    the single-writer helper by the thread that just took the lock; \
                    read only in snapshot reporting, never ordered against queue \
                    state",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "contended",
        req: Req::Relaxed,
        rationale: "contention tally surfaced in LockStats, committed like \
                    acquisitions; monotonic counter read only in snapshot reporting",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "wild_crossings",
        req: Req::Relaxed,
        rationale: "counts arrivals that crossed into the wildcard lane, for \
                    ConcurrencyStats; never consulted by matching decisions",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "snap_retries",
        req: Req::Relaxed,
        rationale: "counts seqlock read retries for SnapReadStats; the retry \
                    decision itself reads the SeqCst version word, this only \
                    tallies how often it fired",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "snap_fallbacks",
        req: Req::Relaxed,
        rationale: "counts lock-free probes that gave up and took the locked \
                    slow path; telemetry for SnapReadStats, never consulted by \
                    matching",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "prescan_parks",
        req: Req::Relaxed,
        rationale: "counts wildcard pre-scans that proved no match and parked \
                    without locking shards; SnapReadStats telemetry only",
    },
    AtomicSpec {
        file: "shard.rs",
        receiver: "prescan_fallbacks",
        req: Req::Relaxed,
        rationale: "counts wildcard pre-scans that fell back to the locked scan; \
                    SnapReadStats telemetry only",
    },
    // -- seqsnap.rs: seqlock version word + published row cells ---------
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "v",
        req: Req::SeqCst,
        rationale: "the seqlock version word; readers decide snapshot consistency \
                    from its parity and stability",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "rows_len",
        req: Req::SeqCst,
        rationale: "row-count publication field lock-free probes iterate by",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "live_rows",
        req: Req::SeqCst,
        rationale: "live-row count read by the wildcard pre-scan's emptiness check",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "overflow",
        req: Req::SeqCst,
        rationale: "overflow flag that invalidates a published snapshot; readers \
                    must observe it no later than the rows it covers",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "seq",
        req: Req::SeqCst,
        rationale: "published row cell (stamp word) read by lock-free snapshots \
                    under the version-word protocol",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "key",
        req: Req::SeqCst,
        rationale: "published row cell (match key); see seq",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "val",
        req: Req::SeqCst,
        rationale: "published row cell (payload); see seq",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "live",
        req: Req::SeqCst,
        rationale: "published row liveness cell; see seq",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "prq_len",
        req: Req::AcqRel,
        rationale: "mirrored queue depth consumed by lock-free queue_lens: exact at \
                    quiescence (the join orders it), transiently stale mid-race, \
                    never read by a matching decision; Release on the lane-lock \
                    holder's store pairs with the reader's Acquire so a length is \
                    never seen ahead of the counters committed before it",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "umq_len",
        req: Req::AcqRel,
        rationale: "mirrored queue depth; see prq_len",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "cell",
        req: Req::Relaxed,
        rationale: "the single-writer helpers' operand (every MirrorDepth/MirrorStats \
                    tally and highwater mark, and shard.rs's lock counters): sole \
                    writer holds the lane lock, so load+store loses no update; \
                    readers are telemetry",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "count",
        req: Req::Relaxed,
        rationale: "MirrorDepth sample tally; readers take a whole-lane seqlock \
                    snapshot, so torn counter reads cannot escape",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "sum",
        req: Req::Relaxed,
        rationale: "MirrorDepth running sum for mean traversal depth; reporting \
                    only, validated against the locked engine under \
                    debug_invariants",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "max",
        req: Req::Relaxed,
        rationale: "MirrorDepth running max; monotone telemetry read only in \
                    stats snapshots",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "min",
        req: Req::Relaxed,
        rationale: "MirrorDepth running min; monotone telemetry read only in \
                    stats snapshots",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "prq_hits",
        req: Req::Relaxed,
        rationale: "MirrorStats match tally mirrored for lock-free stats(); \
                    updated under the shard lock, read without ordering \
                    guarantees by design",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "umq_hits",
        req: Req::Relaxed,
        rationale: "MirrorStats match tally mirrored for lock-free stats(); see \
                    prq_hits",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "prq_appends",
        req: Req::Relaxed,
        rationale: "MirrorStats append tally mirrored for lock-free stats(); see \
                    prq_hits",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "umq_appends",
        req: Req::Relaxed,
        rationale: "MirrorStats append tally mirrored for lock-free stats(); see \
                    prq_hits",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "max_prq",
        req: Req::Relaxed,
        rationale: "MirrorStats occupancy high-water mark; single-writer telemetry \
                    read only in stats snapshots",
    },
    AtomicSpec {
        file: "seqsnap.rs",
        receiver: "max_umq",
        req: Req::Relaxed,
        rationale: "MirrorStats occupancy high-water mark; see max_prq",
    },
    // -- ingest.rs: SPSC ring indices + slot words ----------------------
    AtomicSpec {
        file: "ingest.rs",
        receiver: "head",
        req: Req::SeqCst,
        rationale: "SPSC consumer index; the producer's reuse of a slot hangs off \
                    observing the consumer's head advance after its slot reads",
    },
    AtomicSpec {
        file: "ingest.rs",
        receiver: "tail",
        req: Req::SeqCst,
        rationale: "SPSC producer index; the consumer's visibility of slot \
                    contents hangs off the tail advance ordering after the slot \
                    stores",
    },
    AtomicSpec {
        file: "ingest.rs",
        receiver: "w0",
        req: Req::SeqCst,
        rationale: "ring slot word published before the tail advance; Relaxed \
                    slot stores may be observed torn by the consumer",
    },
    AtomicSpec {
        file: "ingest.rs",
        receiver: "w1",
        req: Req::SeqCst,
        rationale: "ring slot word; see w0",
    },
    AtomicSpec {
        file: "ingest.rs",
        receiver: "w2",
        req: Req::SeqCst,
        rationale: "ring slot word; see w0",
    },
    AtomicSpec {
        file: "ingest.rs",
        receiver: "enqueued",
        req: Req::Relaxed,
        rationale: "ring telemetry: lifetime push tally read in accounting checks \
                    after producer joins (the join orders it); FIFO visibility \
                    rides on the SeqCst head/tail indices",
    },
    AtomicSpec {
        file: "ingest.rs",
        receiver: "drained",
        req: Req::Relaxed,
        rationale: "ring telemetry: lifetime pop tally; see enqueued",
    },
    // -- concurrent.rs: mutex-protected engine --------------------------
    AtomicSpec {
        file: "concurrent.rs",
        receiver: "seq",
        req: Req::Relaxed,
        rationale: "operation stamps are taken while holding the engine mutex, \
                    which already totally orders them; the atomic only needs \
                    atomicity, not ordering",
    },
    AtomicSpec {
        file: "concurrent.rs",
        receiver: "acquisitions",
        req: Req::Relaxed,
        rationale: "lock tally surfaced in LockStats; reporting only",
    },
    AtomicSpec {
        file: "concurrent.rs",
        receiver: "contended",
        req: Req::Relaxed,
        rationale: "contention tally surfaced in LockStats; reporting only",
    },
    AtomicSpec {
        file: "concurrent.rs",
        receiver: "max_prq",
        req: Req::Relaxed,
        rationale: "occupancy high-water mark sampled under the engine mutex; \
                    reporting only",
    },
    AtomicSpec {
        file: "concurrent.rs",
        receiver: "max_umq",
        req: Req::Relaxed,
        rationale: "occupancy high-water mark; see max_prq",
    },
    // -- heater.rs: background cache-heater handshake --------------------
    AtomicSpec {
        file: "heater.rs",
        receiver: "paused",
        req: Req::AcqRel,
        rationale: "pause/resume handshake with the heater thread: the loop must \
                    observe region state published before the resume",
    },
    AtomicSpec {
        file: "heater.rs",
        receiver: "shutdown",
        req: Req::AcqRel,
        rationale: "shutdown flag joined by the heater thread; release/acquire \
                    pairs the final state publication with the join",
    },
    AtomicSpec {
        file: "heater.rs",
        receiver: "passes",
        req: Req::AcqRel,
        rationale: "pass counter used as a progress handshake by wait_passes: a \
                    pass publication must release the touches it covers",
    },
    AtomicSpec {
        file: "heater.rs",
        receiver: "words",
        req: Req::Relaxed,
        rationale: "the heat-pattern scribble words themselves: raw cache traffic \
                    with no synchronization role; values are never interpreted",
    },
    AtomicSpec {
        file: "heater.rs",
        receiver: "active_regions",
        req: Req::Relaxed,
        rationale: "registered-region gauge for HeaterStats; the slots Mutex \
                    orders the actual region table",
    },
    AtomicSpec {
        file: "heater.rs",
        receiver: "period_ns",
        req: Req::Relaxed,
        rationale: "heater pacing knob read once per pass; a stale period for one \
                    pass is harmless and the value is never a happens-before edge",
    },
    AtomicSpec {
        file: "heater.rs",
        receiver: "touches",
        req: Req::Relaxed,
        rationale: "lines-touched tally for HeaterStats; readers wanting a \
                    consistent view pair it with the AcqRel passes counter",
    },
    // -- addr.rs ----------------------------------------------------------
    AtomicSpec {
        file: "addr.rs",
        receiver: "NEXT",
        req: Req::Relaxed,
        rationale: "unique-id allocator: only atomicity of fetch_add matters, \
                    ids carry no ordering meaning",
    },
];

/// The distinct files the table covers — the atomic-ordering scope.
pub fn scoped_files() -> Vec<&'static str> {
    let mut files: Vec<&'static str> = SPECS.iter().map(|s| s.file).collect();
    files.dedup();
    files.sort_unstable();
    files.dedup();
    files
}

/// Looks up the spec for `(file, receiver)`.
pub fn lookup(file: &str, receiver: &str) -> Option<&'static AtomicSpec> {
    SPECS
        .iter()
        .find(|s| s.file == file && s.receiver == receiver)
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

/// Checks every atomic op in the non-test functions of a scoped file.
pub fn check(path: &str, toks: &[Tok], fns: &[FnItem], out: &mut Vec<Finding>) {
    // The table keys on core modules; a same-named file in another crate
    // (the conformance crate also has a concurrent.rs) is out of scope.
    if !path.replace('\\', "/").contains("crates/core/src/") {
        return;
    }
    let file = file_name(path);
    if !scoped_files().contains(&file) {
        return;
    }
    for f in fns.iter().filter(|f| !f.is_test) {
        let Some((open, close)) = f.body else {
            continue;
        };
        for op in atomic_ops(toks, open, close) {
            let Some(recv) = &op.receiver else {
                out.push(Finding::new(
                    path,
                    op.line,
                    "atomic-ordering",
                    format!(
                        "`.{}(…)` with an Ordering argument on a receiver this \
                         scanner cannot attribute; bind the atomic to a named \
                         local so the requirement table applies",
                        op.method
                    ),
                ));
                continue;
            };
            match lookup(file, recv) {
                Some(spec) => match spec.req {
                    Req::SeqCst => {
                        for o in &op.orderings {
                            if o != "SeqCst" {
                                out.push(Finding::new(
                                    path,
                                    op.line,
                                    "atomic-ordering",
                                    format!(
                                        "Ordering::{o} on `{recv}.{}`: the requirement \
                                         table demands SeqCst — {}",
                                        op.method, spec.rationale
                                    ),
                                ));
                            }
                        }
                    }
                    Req::AcqRel => {
                        for o in &op.orderings {
                            if o == "Relaxed" {
                                out.push(Finding::new(
                                    path,
                                    op.line,
                                    "atomic-ordering",
                                    format!(
                                        "Ordering::Relaxed on `{recv}.{}`: the requirement \
                                         table demands acquire/release — {}",
                                        op.method, spec.rationale
                                    ),
                                ));
                            }
                        }
                    }
                    Req::Relaxed => {}
                },
                None => {
                    if op.orderings.iter().any(|o| o == "Relaxed") {
                        out.push(Finding::new(
                            path,
                            op.line,
                            "atomic-ordering",
                            format!(
                                "Ordering::Relaxed on `{recv}` which has no entry in \
                                 the atomic-ordering requirement table; add a \
                                 rationale'd Relaxed entry or use a stronger ordering"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Stale-entry self-check against a *real* scoped file's tokens: every
/// spec receiver must be mentioned somewhere in it (otherwise the table
/// rotted). Called from [`crate::scopes::self_check`] on the tree —
/// deliberately not from [`check`], which also runs on small fixture
/// sources under virtual core paths.
pub fn stale_specs(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let file = file_name(path);
    for spec in SPECS.iter().filter(|s| s.file == file) {
        if !toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == spec.receiver)
        {
            out.push(Finding::new(
                path,
                1,
                "scope-coverage",
                format!(
                    "atomic-ordering spec entry `{}:{}` matches nothing in the \
                     file; delete the stale entry",
                    spec.file, spec.receiver
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_has_a_rationale_and_is_unique() {
        for s in SPECS {
            assert!(
                !s.rationale.trim().is_empty(),
                "{}:{} needs a rationale",
                s.file,
                s.receiver
            );
            assert_eq!(
                SPECS
                    .iter()
                    .filter(|o| o.file == s.file && o.receiver == s.receiver)
                    .count(),
                1,
                "duplicate spec {}:{}",
                s.file,
                s.receiver
            );
        }
    }

    #[test]
    fn scope_covers_the_protocol_files() {
        let files = scoped_files();
        for f in [
            "shard.rs",
            "seqsnap.rs",
            "ingest.rs",
            "concurrent.rs",
            "heater.rs",
            "addr.rs",
        ] {
            assert!(files.contains(&f), "{f} missing from ordering scope");
        }
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
