//! Hot caching end to end: the real heater thread on this machine, plus
//! the simulated cross-architecture study.
//!
//! Part 1 drives the *real* [`semiperm::core::heater::Heater`]: registers a
//! live LLA element pool, lets the heater touch it while the match engine
//! keeps mutating the list, demonstrates pause/resume (the paper's
//! compute-phase collaboration strategy) and the safe deregistration
//! handshake.
//!
//! Part 2 asks the cache simulator the paper's architectural question: on
//! which machines does semi-permanent cache occupancy pay?
//!
//! Run with: `cargo run --release --example hot_cache_study`

use std::time::Duration;

use semiperm::cachesim::{ArchProfile, CostModel, LocalityConfig};
use semiperm::core::entry::{Envelope, PostedEntry, RecvSpec};
use semiperm::core::heater::{Heater, HeaterConfig};
use semiperm::core::list::{Lla, MatchList};
use semiperm::core::NullSink;

fn main() {
    // ---- Part 1: the real heater ---------------------------------------
    println!("spawning heater (50 us period) ...");
    let heater = Heater::spawn(HeaterConfig {
        period: Duration::from_micros(50),
    });

    let mut list: Lla<PostedEntry, 2> = Lla::new();
    let mut sink = NullSink;
    for i in 0..2048 {
        list.append(
            PostedEntry::from_spec(RecvSpec::new(1, i, 0), i as u64),
            &mut sink,
        );
    }
    // Register the element pool's chunks — stable storage, so the raw
    // registration contract is easy to uphold.
    let ids: Vec<_> = list
        .real_regions()
        .iter()
        // SAFETY: the pool chunks live until `deregister` below returns
        // (the list outlives the heater session).
        .map(|(ptr, len)| unsafe { heater.register_raw(*ptr, *len) })
        .collect();

    heater.wait_passes(10);
    println!("after 10 passes: {:?}", heater.stats());

    // The list keeps working while heated.
    for i in 0..1024 {
        let r = list.search_remove(&Envelope::new(1, i, 0), &mut sink);
        assert!(r.found.is_some());
    }
    println!(
        "matched 1024 receives while the heater ran; list now {} long",
        list.len()
    );

    // Compute phase: pause the heater so it does not steal cycles or cache.
    heater.pause();
    heater.wait_passes(2);
    let frozen = heater.stats().lines_touched;
    heater.wait_passes(3);
    assert_eq!(
        heater.stats().lines_touched,
        frozen,
        "paused heater is idle"
    );
    println!("paused through a compute phase ({frozen} lines touched so far)");
    heater.resume();
    heater.wait_passes(2);

    // Safe teardown: deregister (handshakes with the in-flight pass), then
    // the memory may go away.
    for id in ids {
        heater.deregister(id);
    }
    drop(list);
    heater.shutdown();
    println!("deregistered and shut down cleanly\n");

    // ---- Part 2: where does hot caching pay? ---------------------------
    println!("cold-start search cost at depth 512, heater off vs on:");
    println!(
        "  {:<12} {:>10} {:>10} {:>8}",
        "arch", "cold (ns)", "hot (ns)", "gain"
    );
    for arch in [
        ArchProfile::nehalem(),
        ArchProfile::sandy_bridge(),
        ArchProfile::broadwell(),
    ] {
        let cold = CostModel::new(arch, LocalityConfig::baseline()).cold_search_ns(512);
        let hot = CostModel::new(arch, LocalityConfig::hc()).cold_search_ns(512);
        println!(
            "  {:<12} {:>10.0} {:>10.0} {:>7.2}x",
            arch.name,
            cold,
            hot,
            cold / hot
        );
    }
    println!(
        "\nThe gain tracks each machine's DRAM-to-L3 latency gap — Sandy \
         Bridge's core-clocked L3 profits most, Broadwell's decoupled L3 \
         least (the paper's §4.3 contrast)."
    );
}
