//! Seeded violation: two spawned closures push into the same ring via
//! cloned handles — the SPSC contract admits exactly one producer.
//! Analyzed under the virtual path `crates/core/src/ingest.rs`.
//! spc-scope: hot-path
fn drive(ring: &Arc<IngestRing>) {
    let r1 = ring.clone();
    let r2 = ring.clone();
    let a = std::thread::spawn(move || {
        r1.try_push(1, 2, 3);
    });
    let b = std::thread::spawn(move || {
        r2.try_push(4, 5, 6);
    });
    let _ = a.join();
    let _ = b.join();
}
