//! The property `MemSim`'s same-line filter depends on, measured: the share
//! of a walk's charges that fall on the line the previous charge touched.
//!
//! The workload is the repo benchmark's `deep_scan` window — 1024 standing,
//! never-matching receives over 251 sources; per window 64 receives posted,
//! then their 64 messages delivered in shuffled order — traced through
//! [`TraceSink`] instead of the simulator. An LLA-2 node charges its header,
//! its two entries and its link on one 64-byte line, so three of every four
//! charges repeat a line by construction; the other structures are measured
//! here because nothing fixes theirs. EXPERIMENTS.md "Simulator cost"
//! records the table this prints.

use spc_core::dynengine::{DynEngine, EngineKind};
use spc_core::engine::Op;
use spc_core::entry::{Envelope, RecvSpec};
use spc_core::sink::TraceSink;
use spc_rng::{Rng, SeedableRng, SliceRandom, StdRng};

const STANDING: usize = 1024;
const SOURCES: i32 = 251;
const WINDOW: usize = 64;
const WINDOWS: usize = 8;

/// `(charges, charges on the previous charge's line, charges spanning lines)`
/// over `WINDOWS` deep_scan windows on `kind`.
fn trace_share(kind: EngineKind) -> (usize, usize, usize) {
    let mut rng = StdRng::seed_from_u64(0x5A4E_11E5);
    let mut eng = DynEngine::new(kind);
    let mut sink = TraceSink::new();
    for i in 0..STANDING {
        let spec = RecvSpec::new(rng.gen_range(0..SOURCES), 1_000_000 + i as i32, 0);
        eng.apply_sink(
            Op::PostRecv {
                spec,
                request: i as u64,
            },
            &mut sink,
        );
    }
    sink.clear();
    for w in 0..WINDOWS {
        let mut flows: Vec<(i32, i32)> = (0..WINDOW)
            .map(|i| (rng.gen_range(0..SOURCES), (w * WINDOW + i) as i32))
            .collect();
        for &(src, tag) in &flows {
            let spec = RecvSpec::new(src, tag, 0);
            eng.apply_sink(
                Op::PostRecv {
                    spec,
                    request: (STANDING + tag as usize) as u64,
                },
                &mut sink,
            );
        }
        flows.shuffle(&mut rng);
        for &(src, tag) in &flows {
            let env = Envelope::new(src, tag, 0);
            let out = eng.apply_sink(Op::Arrival { env, payload: 0 }, &mut sink);
            assert_eq!(
                out.matched(),
                Some((STANDING + tag as usize) as u64),
                "every window message finds its own receive"
            );
        }
    }
    assert_eq!(eng.prq_len(), STANDING, "windows leave the queue as found");
    let (mut same, mut spanning, mut prev) = (0, 0, u64::MAX);
    for a in &sink.trace {
        let first = a.addr / 64;
        let last = (a.addr + a.len.max(1) as u64 - 1) / 64;
        spanning += (first != last) as usize;
        same += (first == last && first == prev) as usize;
        prev = last;
    }
    (sink.trace.len(), same, spanning)
}

#[test]
fn share_of_charges_on_the_previous_charges_line() {
    let kinds = [
        ("baseline", EngineKind::Baseline),
        ("lla2", EngineKind::Lla { arity: 2 }),
        ("lla8", EngineKind::Lla { arity: 8 }),
        ("lla32", EngineKind::Lla { arity: 32 }),
        ("bins", EngineKind::SourceBins { comm_size: 256 }),
        ("hashbins", EngineKind::HashBins { bins: 64 }),
    ];
    println!("structure   charges/verb  same-line %  spanning %");
    let mut pct = std::collections::BTreeMap::new();
    for (name, kind) in kinds {
        let (charges, same, spanning) = trace_share(kind);
        let share = 100.0 * same as f64 / charges as f64;
        println!(
            "{name:<10}  {:>12.1}  {share:>11.2}  {:>10.2}",
            charges as f64 / (2 * WINDOW * WINDOWS) as f64,
            100.0 * spanning as f64 / charges as f64,
        );
        pct.insert(name, share);
    }
    // Four charges per one-line node, three of them on the line the charge
    // before touched: 75 % less the few charges of appends and removals.
    assert!(
        (72.0..=76.0).contains(&pct["lla2"]),
        "LLA-2 should repeat ~3 of 4 lines by construction, measured {:.2} %",
        pct["lla2"]
    );
    // Larger nodes span lines, but consecutive entries still share one, so
    // the filter keeps most of its food. A baseline entry's match fields
    // and link sit on two scattered lines charged in turn: none at all.
    assert!(pct["lla8"] > 50.0 && pct["lla32"] > 50.0, "{pct:?}");
    assert!(pct["baseline"] < 1.0, "{pct:?}");
}
