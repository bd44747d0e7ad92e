//! Seeded violation: a slot word stored after the tail advance — the
//! consumer can observe the slot before the word lands (torn publish).
//! Analyzed under the virtual path `crates/core/src/ingest.rs`.
//! spc-scope: hot-path
impl BadRing {
    pub fn try_push(&self, a: u64, b: u64) -> bool {
        let t = self.tail.load(Ordering::SeqCst);
        self.slot(t).w0.store(a, Ordering::SeqCst);
        self.tail.store(t + 1, Ordering::SeqCst);
        self.slot(t).w1.store(b, Ordering::SeqCst);
        true
    }
}
