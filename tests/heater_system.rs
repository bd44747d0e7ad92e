//! System-level tests of the real hot-caching heater: concurrent engine
//! mutation, churn, pause/resume phases, and failure-injection on the
//! registration lifecycle.

use std::sync::Arc;
use std::time::Duration;

use semiperm::core::engine::MatchEngine;
use semiperm::core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
use semiperm::core::heater::{HeatBuffer, Heater, HeaterConfig};
use semiperm::core::list::Lla;

fn heater() -> Heater {
    Heater::spawn(HeaterConfig {
        period: Duration::from_micros(20),
    })
}

/// The paper's integration: a live matching engine whose element pools are
/// being heated while the protocol runs full speed.
#[test]
fn engine_runs_at_full_speed_under_heating() {
    let h = heater();
    let mut engine: MatchEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>> =
        MatchEngine::new(Lla::new(), Lla::new());

    // Grow the queues so the pools have chunks, then register them.
    for i in 0..5000 {
        engine.post_recv(RecvSpec::new(1, i, 0), i as u64);
    }
    for i in 0..2000 {
        engine.arrival(Envelope::new(2, i, 0), i as u64); // unexpected
    }
    let prq_regions = engine.prq().real_regions();
    let umq_regions = engine.umq().real_regions();
    let ids: Vec<_> = prq_regions
        .iter()
        .chain(umq_regions.iter())
        // SAFETY: pools outlive the deregistration below.
        .map(|(p, l)| unsafe { h.register_raw(*p, *l) })
        .collect();
    h.wait_passes(5);

    // Full protocol churn while heated.
    for i in 0..5000 {
        let out = engine.arrival(Envelope::new(1, i, 0), 10_000 + i as u64);
        assert!(matches!(
            out,
            semiperm::core::engine::ArrivalOutcome::MatchedPosted { .. }
        ));
    }
    for i in 0..2000 {
        let out = engine.post_recv(RecvSpec::new(2, i, 0), 20_000 + i as u64);
        assert!(matches!(
            out,
            semiperm::core::engine::RecvOutcome::MatchedUnexpected { .. }
        ));
    }
    assert_eq!(engine.prq_len(), 0);
    assert_eq!(engine.umq_len(), 0);
    assert!(h.stats().lines_touched > 0);

    for id in ids {
        h.deregister(id);
    }
    drop(engine);
    h.shutdown();
}

/// Registration churn under load: register/deregister cycles from the main
/// thread while the heater runs never deadlock and always leave a
/// consistent region count.
#[test]
fn registration_churn_is_safe() {
    let h = heater();
    let buffers: Vec<_> = (0..8).map(|_| HeatBuffer::new(16 * 1024)).collect();
    for round in 0..20 {
        let ids: Vec<_> = buffers
            .iter()
            .map(|b| h.register_buffer(Arc::clone(b)))
            .collect();
        assert_eq!(h.stats().active_regions, 8, "round {round}");
        if round % 3 == 0 {
            h.wait_passes(2);
        }
        for id in ids {
            h.deregister(id);
        }
        assert_eq!(h.stats().active_regions, 0, "round {round}");
    }
    h.shutdown();
}

/// The BSP collaboration pattern: pause during compute, resume before the
/// communication phase, repeated. Touch counts only advance while active.
#[test]
fn phase_collaboration_pattern() {
    let h = heater();
    let buf = HeatBuffer::new(64 * 1024);
    h.register_buffer(Arc::clone(&buf));
    for _phase in 0..5 {
        // Communication phase: heater active.
        h.resume();
        h.wait_passes(3);
        let active_touches = h.stats().lines_touched;
        // Compute phase: heater paused.
        h.pause();
        h.wait_passes(1); // let an in-flight pass finish ticking
        let frozen = h.stats().lines_touched;
        h.wait_passes(3);
        assert_eq!(h.stats().lines_touched, frozen);
        assert!(frozen >= active_touches);
    }
    h.shutdown();
}

/// Period adjustment (the paper's locality-granularity knob) takes effect
/// without restarting the heater.
#[test]
fn period_is_adjustable_live() {
    let h = heater();
    let buf = HeatBuffer::new(4096);
    h.register_buffer(buf);
    h.wait_passes(2);
    // Slow way down; the heater must still respond to shutdown quickly
    // (the period only gates the next sleep, not control flags).
    h.set_period(Duration::from_millis(2));
    h.wait_passes(1);
    h.set_period(Duration::from_micros(10));
    h.wait_passes(5);
    h.shutdown();
}

/// Two heaters coexist (e.g. one per socket), each with its own regions.
#[test]
fn multiple_heaters_coexist() {
    let h1 = heater();
    let h2 = heater();
    let b1 = HeatBuffer::new(8192);
    let b2 = HeatBuffer::new(8192);
    h1.register_buffer(Arc::clone(&b1));
    h2.register_buffer(Arc::clone(&b2));
    h1.wait_passes(3);
    h2.wait_passes(3);
    assert!(h1.stats().lines_touched > 0);
    assert!(h2.stats().lines_touched > 0);
    h1.shutdown();
    h2.shutdown();
}
